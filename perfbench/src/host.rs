//! Host fingerprint and process memory: numbers from this benchmark do
//! not carry across hosts, so every result names the machine it ran on.

use cobra_util::{kernel, SplitMix64};
use std::time::Instant;

/// ISA extensions that change which batch kernel runs.
const ISA_FLAGS: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "bmi2"];

/// The fingerprint printed with every result.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_owned())
    };
    let flags = field("flags").unwrap_or_default();
    let isa: Vec<&str> = ISA_FLAGS
        .iter()
        .copied()
        .filter(|f| flags.split_whitespace().any(|g| g == *f))
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let target = kernel::target();
    vec![
        (
            "cpu",
            field("model name").unwrap_or_else(|| "unknown".to_owned()),
        ),
        ("cores", cores.to_string()),
        ("isa", isa.join(",")),
        (
            "cobra_kernel",
            format!("{} -> {}", target.as_str(), target.resolve().as_str()),
        ),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_owned()),
        ("seed", seed.to_string()),
    ]
}

/// Milliseconds a fixed single-threaded integer loop takes. Shared
/// hosts change speed over minutes; this puts a number on the host's
/// speed at the time of a run, next to its results.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut rng = SplitMix64::new(0xCA1B);
    let mut acc = 0u64;
    for _ in 0..20_000_000 {
        acc = acc.wrapping_add(rng.next_u64() >> 7);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// `(steal, total)` CPU ticks of the whole machine so far.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, …) in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| {
                    l.strip_prefix(field)
                        .is_some_and(|rest| rest.starts_with(':'))
                })
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands the heap's free pages back to the OS (glibc `malloc_trim`),
/// so the resident set holds only live memory. Without it, memory the
/// set-ups and the harness freed stays resident, and the server reuses it
/// before its own growth shows.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` only releases memory that is already free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Starts a fresh resident-set high-water mark for [`peak_rss_mib`]:
/// returns freed heap pages to the OS, then resets the kernel's `VmHWM`
/// by writing `5` to `/proc/self/clear_refs`.
///
/// The peak is taken over the timed window rather than the whole process,
/// whose high-water mark also holds the transient peaks of the set-ups;
/// their height depends on allocator timing.
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the resident set's high-water mark: {e}"))
}

/// The resident set's high-water mark since [`reset_peak_rss`], in MiB.
/// The kernel keeps it exact, where sampling `VmRSS` would miss short
/// peaks.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}
