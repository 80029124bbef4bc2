//! `sweep-paper`: the paper's §4 scale, one flat and one DAG session,
//! one closed-loop client each sending 1,024-perturbation
//! `sweep_fold_f64` requests. The kernel-heavy workload.

use crate::check;
use crate::data::{self, Dataset, Perturbation, FIG2, PAPER_BOUNDS, PAPER_SIZES, PAPER_ZIPS};
use crate::host;
use crate::wire::{Client, Exchange, Op};
use crate::workload::{
    latencies, merge, pct, probe_missing_ops, start_server, Failures, Ids, Log, Metric, Outcome,
    RunConfig, SETUP_REPS,
};
use cobra_core::{snapshot_session, CobraSession};
use cobra_provenance::persist::write_file;
use cobra_server::Server;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// A sweep request: id, session index, perturbations.
type SentSweep = (u64, usize, Vec<Perturbation>);

/// Perturbations per sweep request.
pub const WIDTH: usize = 1024;
/// The `cobra_util::par` worker-count variable.
const THREADS_VAR: &str = "COBRA_THREADS";
/// Session ids; index 0 is flat, index 1 has `dag: true`.
const SESSIONS: [&str; 2] = ["flat", "dag"];

/// Builds a session in process the way the paper's demo does: plan the
/// frontier, check the §4 sizes at both bounds, select 94,600 and compile.
fn build(data: &Dataset, dag: bool, failures: &mut Failures) -> Result<CobraSession, String> {
    let mut s = CobraSession::new(data.reg.clone(), data.polys.clone());
    s.add_tree_text(FIG2).map_err(|e| e.to_string())?;
    s.compress_frontier().map_err(|e| e.to_string())?;
    for (bound, size) in [
        (PAPER_BOUNDS[1], PAPER_SIZES[2]),
        (PAPER_BOUNDS[0], PAPER_SIZES[1]),
    ] {
        let report = s.select_bound(bound).map_err(|e| e.to_string())?;
        if (report.original_size, report.compressed_size) != (PAPER_SIZES[0], size) {
            failures.fail(format!(
                "bound {bound}: sizes {} / {}, paper {} / {size}",
                report.original_size, report.compressed_size, PAPER_SIZES[0]
            ));
        }
    }
    if dag {
        s.compile_dag().map_err(|e| e.to_string())?;
    }
    s.warm_up().map_err(|e| e.to_string())?;
    Ok(s)
}

fn draw_sweep(rng: &mut cobra_util::SplitMix64, vars: &[String]) -> Vec<Perturbation> {
    (0..WIDTH).map(|_| Perturbation::draw(rng, vars)).collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    // One core per session worker: with the default (every core for each
    // sweep block) the two sessions' kernels interleave on both cores, and
    // on a 2-vCPU Xeon per-session latency medians spread 10-16% across
    // seeds instead of a few percent, at the same throughput. Set before
    // any thread starts.
    std::env::set_var(THREADS_VAR, "1");
    let data = Dataset::telephony(PAPER_ZIPS, cfg.seed);
    let vars = data::scenario_vars();
    let mut failures = Failures::default();
    let ids = Ids::default();
    let mut rngs = [cfg.rng(1), cfg.rng(2)];
    // Each request's perturbations, by request id, for the checks.
    let mut sent: Vec<SentSweep> = Vec::new();

    let mut setups_s = Vec::new();
    let mut live: Option<(Server, PathBuf, Vec<Log>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, _, logs)) = live.take() {
            drop(logs);
            server.shutdown();
        }
        // Only the final set-up's requests belong to the recorded stream.
        sent.clear();
        let dir = cfg.fresh_dir(&format!("sweep-store-{rep}"))?;
        let t0 = Instant::now();
        let server = start_server(Some(dir.clone()), None)?;
        let mut logs = Vec::new();
        for (i, name) in SESSIONS.iter().enumerate() {
            let session = build(&data, i == 1, &mut failures)?;
            let bytes = snapshot_session(&session).map_err(|e| e.to_string())?;
            drop(session);
            write_file(&dir.join(format!("{name}.cobra")), &bytes).map_err(|e| e.to_string())?;
            let mut log = Log::new(Client::connect(server.addr()).map_err(|e| e.to_string())?);
            let id = ids.next();
            let ex = log.call(
                Op::Prepare,
                id,
                data::prepare(id, name, None, false, false),
                false,
            )?;
            failures.check(check::ok_reply(ex));
            // A restored session comes back without its selection.
            let id = ids.next();
            let request = data::select_bound(id, name, PAPER_BOUNDS[0]);
            let ex = log.call(Op::SelectBound, id, request, false)?;
            failures.check(check::ok_reply(ex));
            // The first sweep compiles lazily (and rewrites the DAG
            // programs); it belongs to set-up, not to the window.
            let id = ids.next();
            let ps = draw_sweep(&mut rngs[i], &vars);
            log.call(Op::Sweep, id, data::sweep(id, name, &ps), false)?;
            sent.push((id, i, ps));
            logs.push(log);
        }
        setups_s.push(t0.elapsed().as_secs_f64());
        live = Some((server, dir, logs));
    }
    let (server, dir, mut logs) = live.expect("SETUP_REPS > 0");
    // The window's resident set is the server's: the harness keeps no
    // provenance of its own through it, and rebuilds the references
    // from the seed afterwards.
    drop(data);

    // The timed window: one closed-loop client per session.
    host::reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + cfg.window;
    let results: Vec<Result<Vec<SentSweep>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(i, (log, rng))| {
                let (vars, ids) = (&vars, &ids);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let id = ids.next();
                        let ps = draw_sweep(rng, vars);
                        let request = data::sweep(id, SESSIONS[i], &ps);
                        log.call(Op::Sweep, id, request, true)?;
                        mine.push((id, i, ps));
                    }
                    Ok(mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let peak_rss_mib = host::peak_rss_mib();
    for r in results {
        sent.extend(r?);
    }
    let session_of: HashMap<u64, usize> = sent.iter().map(|(id, i, _)| (*id, *i)).collect();

    // Checks, off the clock: every sweep reply bit-identical to a
    // session built in process the way its artifact was.
    let data = Dataset::telephony(PAPER_ZIPS, cfg.seed);
    let mut refs = (0..SESSIONS.len())
        .map(|i| build(&data, i == 1, &mut Failures::default()))
        .collect::<Result<Vec<_>, _>>()?;
    let exchanges: HashMap<u64, &Exchange> = logs
        .iter()
        .flat_map(|l| l.exchanges.iter())
        .map(|e| (e.id, e))
        .collect();
    let checks: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = refs
            .iter_mut()
            .enumerate()
            .map(|(i, reference)| {
                let sent = &sent;
                let exchanges = &exchanges;
                scope.spawn(move || {
                    let mut errors = Vec::new();
                    for (id, _, ps) in sent.iter().filter(|(_, s, _)| *s == i) {
                        let Some(ex) = exchanges.get(id) else {
                            continue;
                        };
                        let verdict = check::ok_reply(ex).and_then(|r| {
                            let got = check::sweep_rows(&r)?;
                            let want = check::reference_sweep(reference, ps)?;
                            let same = got.len() == want.len()
                                && got.iter().zip(&want).all(|(g, w)| {
                                    g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits()
                                });
                            if same {
                                Ok(())
                            } else {
                                Err(format!("sweep {id} on {}: rows differ", SESSIONS[i]))
                            }
                        });
                        if let Err(e) = verdict {
                            errors.push(e);
                        }
                    }
                    errors
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread"))
            .collect()
    });
    for e in checks.into_iter().flatten() {
        failures.fail(e);
    }

    if cfg.trace {
        let mut rng = cfg.rng(3);
        probe_missing_ops(
            &mut logs[0],
            &ids,
            SESSIONS[0],
            &data,
            &mut rng,
            &mut failures,
        )?;
    }
    drop(refs);
    server.shutdown();

    let stream = merge(logs);
    let timed: Vec<_> = stream.iter().filter(|e| e.timed).collect();
    let attempted = timed.len() as u64;
    let end = timed.iter().map(|e| e.done).max().unwrap_or(start);
    let scen_per_s = (attempted as usize * WIDTH) as f64 / (end - start).as_secs_f64().max(1e-9);
    let by_session = |i: usize| -> Vec<f64> {
        timed
            .iter()
            .filter(|e| session_of.get(&e.id) == Some(&i))
            .map(|e| e.latency_ms())
            .collect()
    };
    let (flat, dag) = (by_session(0), by_session(1));
    let all = latencies(&stream, Op::Sweep);
    let named = vec![
        Metric::new("sweep_scen_per_s", scen_per_s, "1/s"),
        Metric::new("sweep_p50_ms", pct(&all, 0.5), "ms"),
        Metric::new("sweep_p90_ms", pct(&all, 0.9), "ms"),
        Metric::new("sweep_flat_p50_ms", pct(&flat, 0.5), "ms"),
        Metric::new("sweep_dag_p50_ms", pct(&dag, 0.5), "ms"),
    ];
    Ok(Outcome {
        setups_s,
        attempted,
        failures,
        peak_rss_mib,
        throughput_per_s: scen_per_s,
        p50_ms: pct(&all, 0.5),
        p90_ms: pct(&all, 0.9),
        second_p50_ms: pct(&dag, 0.5),
        named,
        stream,
        replay_seed_dir: Some(dir),
        replay_max_sessions: None,
        dataset: data,
    })
}
