//! What every workload shares: run settings, the server under test, the
//! result of a run and the trace-mode probes.

use crate::data::{self, Dataset, Edit, Perturbation};
use crate::stats;
use crate::wire::{Client, Exchange, Op};
use cobra_server::{serve, Server, ServerConfig};
use cobra_util::{kernel, SplitMix64};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Settings of one benchmark run.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run: record spans and probe ops the workload lacks.
    pub trace: bool,
    /// Scratch directory of this run (store directories live here).
    pub dir: PathBuf,
}

impl RunConfig {
    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// An independent seeded stream for one purpose of the run.
    pub fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }
}

/// Starts the server under test on a loopback ephemeral port, under the
/// batch-kernel target `COBRA_KERNEL` requests (`auto` when unset).
pub fn start_server(
    store_dir: Option<PathBuf>,
    max_sessions: Option<usize>,
) -> Result<Server, String> {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir,
        kernel: kernel::target(),
        max_sessions,
    })
    .map_err(|e| format!("starting the server: {e}"))
}

/// Hands out request ids, unique within a run, to any client thread.
#[derive(Default)]
pub struct Ids(AtomicU64);

impl Ids {
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A closed-loop client's log: every exchange, in order.
pub struct Log {
    pub client: Client,
    pub exchanges: Vec<Exchange>,
}

impl Log {
    pub fn new(client: Client) -> Log {
        Log {
            client,
            exchanges: Vec::new(),
        }
    }

    /// One call; transport errors end the run.
    pub fn call(
        &mut self,
        op: Op,
        id: u64,
        request: String,
        timed: bool,
    ) -> Result<&Exchange, String> {
        let mut ex = self
            .client
            .call(op, id, request)
            .map_err(|e| format!("{} {id}: {e}", op.name()))?;
        ex.timed = timed;
        self.exchanges.push(ex);
        Ok(self.exchanges.last().expect("just pushed"))
    }
}

/// One end-to-end metric of a run.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one workload run.
pub struct Outcome {
    /// Wall time of each set-up.
    pub setups_s: Vec<f64>,
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Failed, refused or wrong replies (timed requests and set-up).
    pub failures: Failures,
    pub peak_rss_mib: f64,
    /// Work per second, primary latency p50/p90, secondary latency p50.
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub second_p50_ms: f64,
    /// The workload's own metric names (see README), for the report.
    pub named: Vec<Metric>,
    /// Every exchange of the final set-up, the window and the probes,
    /// in send order: the recorded request stream.
    pub stream: Vec<Exchange>,
    /// Store directory the in-process replay starts from (artifacts the
    /// workload persisted in process), and the store's session cap.
    pub replay_seed_dir: Option<PathBuf>,
    pub replay_max_sessions: Option<usize>,
    pub dataset: Dataset,
}

/// Tallies failures before an [`Outcome`] exists.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, msg: String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Records `Err` results.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

/// Latencies (ms) of the timed exchanges of `op`.
pub fn latencies(exchanges: &[Exchange], op: Op) -> Vec<f64> {
    exchanges
        .iter()
        .filter(|e| e.timed && e.op == op)
        .map(Exchange::latency_ms)
        .collect()
}

/// p50 or p90 of a latency sample, 0 when empty.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    stats::quantile(samples, q).unwrap_or(0.0)
}

/// Merges per-client logs into one stream in send order.
pub fn merge(logs: Vec<Log>) -> Vec<Exchange> {
    let mut stream: Vec<Exchange> = logs.into_iter().flat_map(|l| l.exchanges).collect();
    stream.sort_by_key(|e| e.sent);
    stream
}

/// Trace mode: a few requests of every op the workload's stream lacks,
/// so each layer has a wire latency and an in-process replay to compare.
/// Runs after every check, on `session`; their replies must be `ok`.
pub fn probe_missing_ops(
    log: &mut Log,
    ids: &Ids,
    session: &str,
    data: &Dataset,
    rng: &mut SplitMix64,
    failures: &mut Failures,
) -> Result<(), String> {
    const PROBES: usize = 5;
    const SWEEP_WIDTH: usize = 1024;
    let vars = data::scenario_vars();
    let labels = data.labels();
    let present: Vec<Op> = log.exchanges.iter().map(|e| e.op).collect();
    for op in Op::ALL {
        if present.contains(&op) {
            continue;
        }
        for i in 0..PROBES {
            let id = ids.next();
            let request = match op {
                Op::Prepare => data::prepare(id, session, None, false, false),
                Op::Sweep => {
                    let ps: Vec<Perturbation> = (0..SWEEP_WIDTH)
                        .map(|_| Perturbation::draw(rng, &vars))
                        .collect();
                    data::sweep(id, session, &ps)
                }
                Op::Assign => data::assign(id, session, &[Perturbation::draw(rng, &vars)]),
                Op::ApplyDelta => data::apply_delta(id, session, &[Edit::draw(rng, &labels)]),
                Op::SelectBound => data::select_bound(id, session, data.bounds[(i + 1) % 2]),
            };
            let ex = log.call(op, id, request, false)?;
            failures.check(crate::check::ok_reply(ex));
        }
    }
    Ok(())
}
