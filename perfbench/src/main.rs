//! The canonical COBRA benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-paper|interactive-small|cold-start> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the server in process on loopback, drives it from closed-loop
//! client threads for `--seconds`, checks every reply against in-process
//! reference sessions off the clock, and prints a report followed by one
//! JSON line: end-to-end metrics with `--trace 0`; with `--trace 1`, the
//! per-layer metrics of a traced in-process replay of the recorded
//! request stream plus per-layer probes. See `README.md`.

mod check;
mod cold;
mod data;
mod host;
mod interactive;
mod layers;
mod replay;
mod stats;
mod sweep;
mod trace;
mod wire;
mod workload;

use crate::trace::Recorder;
use crate::wire::Op;
use crate::workload::{Outcome, RunConfig};
use cobra_server::store::SessionStore;
use cobra_util::kernel;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["sweep-paper", "interactive-small", "cold-start"];

/// The paper's §4 speedups and the repository's E4 reproduction of them.
const PAPER_ANCHORS: [(&str, f64, f64); 2] = [
    ("paper.speedup_pct.b94600", 47.0, 44.0),
    ("paper.speedup_pct.b38600", 79.0, 67.0),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = RunConfig {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        dir: out.join(format!("run-{}", std::process::id())),
    };
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("{}: {e}", cfg.dir.display()))?;
    let result = measure(args, &cfg, &out);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let (outcome, metrics) = result?;
    let failed = outcome.failures.count;
    let json_metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        json_metrics.join(",")
    );
    Ok(())
}

type Metrics = Vec<(String, f64, &'static str)>;

fn measure(args: &Args, cfg: &RunConfig, out: &Path) -> Result<(Outcome, Metrics), String> {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let host: Vec<String> = host::fingerprint(args.seed)
        .into_iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("# host {}", host.join(" "));
    println!("# host calibration_ms={:.1}", host::calibration_ms());
    let epoch = Instant::now();
    let (steal0, total0) = host::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "sweep-paper" => sweep::run(cfg)?,
        "interactive-small" => interactive::run(cfg)?,
        _ => cold::run(cfg)?,
    };
    let (steal1, total1) = host::cpu_ticks();
    println!(
        "# host steal_pct={:.1} (CPU time the hypervisor gave to others during the run)",
        100.0 * steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64
    );
    for msg in &outcome.failures.messages {
        eprintln!("perfbench: check failed: {msg}");
    }
    let setup_s = stats::median(&outcome.setups_s).unwrap_or(0.0);
    let error_rate = outcome.failures.count as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# setup runs (s): {:?}; timed requests {}, failed {}",
        outcome.setups_s, outcome.attempted, outcome.failures.count
    );
    let mut report: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), outcome.peak_rss_mib, "MiB"),
        ("error_rate".into(), error_rate, "fraction"),
    ];
    report.extend(
        outcome
            .named
            .iter()
            .map(|m| (m.name.to_owned(), m.value, m.unit)),
    );
    for (name, value, unit) in &report {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    if !cfg.trace {
        let metrics = vec![
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), outcome.peak_rss_mib, "MiB"),
            ("throughput_per_s".into(), outcome.throughput_per_s, "1/s"),
            ("p50_ms".into(), outcome.p50_ms, "ms"),
            ("p90_ms".into(), outcome.p90_ms, "ms"),
            ("second_p50_ms".into(), outcome.second_p50_ms, "ms"),
        ];
        return Ok((outcome, metrics));
    }
    let metrics = traced(args, cfg, out, epoch, &outcome)?;
    Ok((outcome, metrics))
}

/// A fresh store for one replay pass, seeded with the artifacts the
/// workload persisted in process.
fn replay_store(cfg: &RunConfig, outcome: &Outcome, name: &str) -> Result<SessionStore, String> {
    let dir = cfg.fresh_dir(name)?;
    if let Some(seed) = &outcome.replay_seed_dir {
        for entry in std::fs::read_dir(seed).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if let Some(name) = path.file_name() {
                std::fs::copy(&path, dir.join(name)).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(SessionStore::with_limits(
        Some(dir),
        kernel::target(),
        outcome.replay_max_sessions,
    ))
}

/// The traced run: replay, layer probes, overhead, and the span file.
fn traced(
    args: &Args,
    cfg: &RunConfig,
    out: &Path,
    epoch: Instant,
    outcome: &Outcome,
) -> Result<Metrics, String> {
    let mut rec = Recorder::default();
    for ex in &outcome.stream {
        rec.push(replay::wire_span(ex.op), ex.id, None, ex.sent, ex.done);
    }

    let mut scratch = Recorder::default();
    let t = Instant::now();
    const SPAN_PROBES: u32 = 100_000;
    for i in 0..SPAN_PROBES {
        scratch.span("trace.probe", u64::from(i), None, |_, _| ());
    }
    let span_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(SPAN_PROBES);
    drop(scratch);

    let store = replay_store(cfg, outcome, "replay")?;
    let per_op = replay::replay(&outcome.stream, &store, &mut rec)?;
    drop(store);
    let traced_store = replay_store(cfg, outcome, "overhead-traced")?;
    let untraced_store = replay_store(cfg, outcome, "overhead-untraced")?;
    let overhead_pct = replay::overhead_pct(&outcome.stream, &traced_store, &untraced_store)?;
    drop((traced_store, untraced_store));
    let layer_values = layers::run(&outcome.dataset, &cfg.dir, cfg.seed, &mut rec)?;

    let mut metrics: Metrics = layer_values
        .into_iter()
        .map(|(name, value, unit)| (name.to_owned(), value, unit))
        .collect();
    metrics.push(("trace.overhead_pct".into(), overhead_pct, "%"));
    metrics.push(("trace.span_ns".into(), span_ns, "ns"));
    for op in Op::ALL {
        let l = &per_op[&op];
        let n = op.name();
        if l.replayed == 0 {
            return Err(format!("the traced run replayed no {n} request"));
        }
        metrics.extend([
            (format!("server.parse_request_us.{n}"), l.parse_us, "us"),
            (format!("server.reply_encode_us.{n}"), l.encode_us, "us"),
            (format!("server.dispatch_ms.{n}"), l.dispatch_ms, "ms"),
            (format!("server.wire_gap_ms.{n}"), l.wire_gap_ms, "ms"),
            (format!("server.bytes_in.{n}"), l.bytes_in, "count"),
            (format!("server.bytes_out.{n}"), l.bytes_out, "count"),
        ]);
    }

    println!("# traced spans: name, count, p50 ms, p50 self ms, total self ms");
    for (name, count, p50, self_p50, self_total) in rec.summary() {
        println!("#   {name:<44} {count:>6} {p50:>12.4} {self_p50:>12.4} {self_total:>12.3}");
    }
    for (name, paper, e4) in PAPER_ANCHORS {
        let measured = metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        println!("# {name}: measured {measured:.1}%  (paper {paper:.0}%, E4 {e4:.0}%)");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<48} {value:>14.4} {unit}");
    }
    let path = out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    rec.write_jsonl(&path, epoch)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(metrics)
}
