//! `interactive-small`: 64 zips (programs fit in L2), one shared session
//! and two closed-loop clients mixing exact `assign` (~70%), commuting
//! coefficient-only `apply_delta` (~20%) and `select_bound` between the
//! two scaled paper bounds (~10%). Wire, JSON, queueing and cache
//! invalidation dominate; kernel work is small.

use crate::check::{self, AssignRow};
use crate::data::{self, Dataset, Edit, Perturbation, FIG2};
use crate::host;
use crate::wire::{Client, Exchange, Op};
use crate::workload::{
    latencies, merge, pct, probe_missing_ops, start_server, Failures, Ids, Log, Metric, Outcome,
    RunConfig, SETUP_REPS,
};
use cobra_core::{snapshot_session, CobraSession};
use cobra_provenance::persist::write_file;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

pub const ZIPS: usize = 64;
const SESSION: &str = "shared";
const CLIENTS: usize = 2;

/// A timed request: id, client index, what it carried.
type SentRequest = (u64, usize, Sent);

/// What a timed request carried, for the checks.
enum Sent {
    Assign(Vec<Perturbation>),
    Delta(Vec<Edit>),
    Select,
}

/// The shared session as the demo builds it: the frontier planned, the
/// first bound selected, the programs compiled.
fn build(data: &Dataset) -> Result<CobraSession, String> {
    let mut s = CobraSession::new(data.reg.clone(), data.polys.clone());
    s.add_tree_text(FIG2).map_err(|e| e.to_string())?;
    s.compress_frontier().map_err(|e| e.to_string())?;
    s.select_bound(data.bounds[0]).map_err(|e| e.to_string())?;
    s.warm_up().map_err(|e| e.to_string())?;
    Ok(s)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let data = Dataset::telephony(ZIPS, cfg.seed);
    let vars = data::scenario_vars();
    let labels = data.labels();
    let mut failures = Failures::default();
    let ids = Ids::default();

    // Set-up builds the session in process and loads it by a wire
    // `prepare` without `polys` (an mmap reload), as `sweep-paper` does.
    // A `prepare` from text is `cold-start`'s to measure: its JSON parse
    // time drifts with the host by more than `setup_s` may move.
    let mut setups_s = Vec::new();
    let mut live: Option<(cobra_server::Server, PathBuf, Vec<Log>)> = None;
    let mut warm_rng = cfg.rng(9);
    for rep in 0..SETUP_REPS {
        if let Some((server, _, logs)) = live.take() {
            drop(logs);
            server.shutdown();
        }
        let dir = cfg.fresh_dir(&format!("interactive-store-{rep}"))?;
        let t0 = Instant::now();
        let server = start_server(Some(dir.clone()), None)?;
        let bytes = snapshot_session(&build(&data)?).map_err(|e| e.to_string())?;
        write_file(&dir.join(format!("{SESSION}.cobra")), &bytes).map_err(|e| e.to_string())?;
        let mut logs = Vec::new();
        for _ in 0..CLIENTS {
            logs.push(Log::new(
                Client::connect(server.addr()).map_err(|e| e.to_string())?,
            ));
        }
        let log = &mut logs[0];
        let id = ids.next();
        let ex = log.call(
            Op::Prepare,
            id,
            data::prepare(id, SESSION, None, false, false),
            false,
        )?;
        failures.check(check::ok_reply(ex));
        // A restored session comes back without its selection.
        let id = ids.next();
        let ex = log.call(
            Op::SelectBound,
            id,
            data::select_bound(id, SESSION, data.bounds[0]),
            false,
        )?;
        failures.check(check::ok_reply(ex));
        let id = ids.next();
        let warm = [Perturbation::draw(&mut warm_rng, &vars)];
        let ex = log.call(Op::Assign, id, data::assign(id, SESSION, &warm), false)?;
        failures.check(check::ok_reply(ex));
        setups_s.push(t0.elapsed().as_secs_f64());
        live = Some((server, dir, logs));
    }
    let (server, dir, mut logs) = live.expect("SETUP_REPS > 0");

    // The timed window: two closed-loop clients on the shared session.
    host::reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + cfg.window;
    let results: Vec<Result<Vec<SentRequest>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter_mut()
            .enumerate()
            .map(|(c, log)| {
                let (vars, labels, ids, data) = (&vars, &labels, &ids, &data);
                let mut rng = cfg.rng(10 + c as u64);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut toggle = 1;
                    while Instant::now() < deadline {
                        let id = ids.next();
                        let roll = rng.gen_f64();
                        let (op, request, sent) = if roll < 0.7 {
                            let s = vec![Perturbation::draw(&mut rng, vars)];
                            (Op::Assign, data::assign(id, SESSION, &s), Sent::Assign(s))
                        } else if roll < 0.9 {
                            let n = 1 + rng.gen_index(3);
                            let edits: Vec<Edit> =
                                (0..n).map(|_| Edit::draw(&mut rng, labels)).collect();
                            (
                                Op::ApplyDelta,
                                data::apply_delta(id, SESSION, &edits),
                                Sent::Delta(edits),
                            )
                        } else {
                            let bound = data.bounds[toggle];
                            toggle ^= 1;
                            (
                                Op::SelectBound,
                                data::select_bound(id, SESSION, bound),
                                Sent::Select,
                            )
                        };
                        log.call(op, id, request, true)?;
                        mine.push((id, c, sent));
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
    let mut sent = Vec::new();
    for r in results {
        sent.extend(r?);
    }

    // Checks, off the clock.
    let exchanges: HashMap<u64, &Exchange> = logs
        .iter()
        .flat_map(|l| l.exchanges.iter())
        .map(|e| (e.id, e))
        .collect();
    let mut writes = Vec::new(); // (client, sent, done, edits) of successful deltas
    let mut assigns = Vec::new();
    for (id, client, what) in &sent {
        let ex = exchanges[id];
        let Some(reply) = failures.check(check::ok_reply(ex)) else {
            continue;
        };
        match what {
            Sent::Delta(edits) => {
                if reply.get("structural") != Some(&cobra_server::json::Json::Bool(false)) {
                    failures.fail(format!(
                        "apply_delta {id}: coefficient edit reported structural"
                    ));
                }
                writes.push((*client, ex.sent, ex.done, edits));
            }
            Sent::Assign(scenario) => match check::assign_rows(&reply) {
                Ok(rows) => assigns.push((*client, ex.sent, ex.done, scenario, rows, *id)),
                Err(e) => failures.fail(e),
            },
            Sent::Select => {}
        }
    }
    check_assigns(&data, &writes, &mut assigns, &mut failures)?;

    // Final state: the server's session against a fresh one with every
    // delta applied, at the first bound.
    let log = &mut logs[0];
    let id = ids.next();
    let ex = log.call(
        Op::SelectBound,
        id,
        data::select_bound(id, SESSION, data.bounds[0]),
        false,
    )?;
    failures.check(check::ok_reply(ex));
    let mut fresh = check::session_from_text(&data.text, FIG2, data.bounds[0])?;
    for (_, _, _, edits) in &writes {
        check::apply_edits(&mut fresh, edits, 1)?;
    }
    let mut final_rng = cfg.rng(11);
    for _ in 0..4 {
        let s = vec![Perturbation::draw(&mut final_rng, &vars)];
        let id = ids.next();
        let ex = log.call(Op::Assign, id, data::assign(id, SESSION, &s), false)?;
        let verdict = check::ok_reply(ex)
            .and_then(|r| check::assign_rows(&r))
            .and_then(|got| {
                if got == check::reference_assign(&mut fresh, &s)? {
                    Ok(())
                } else {
                    Err(format!(
                        "final state: assign {id} differs from a fresh session"
                    ))
                }
            });
        failures.check(verdict);
    }

    if cfg.trace {
        let mut rng = cfg.rng(12);
        probe_missing_ops(&mut logs[0], &ids, SESSION, &data, &mut rng, &mut failures)?;
    }
    server.shutdown();

    let stream = merge(logs);
    let timed: Vec<_> = stream.iter().filter(|e| e.timed).collect();
    let attempted = timed.len() as u64;
    let end = timed.iter().map(|e| e.done).max().unwrap_or(start);
    let ops_per_s = attempted as f64 / (end - start).as_secs_f64().max(1e-9);
    let assign = latencies(&stream, Op::Assign);
    let delta = latencies(&stream, Op::ApplyDelta);
    let select = latencies(&stream, Op::SelectBound);
    let named = vec![
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("assign_p50_ms", pct(&assign, 0.5), "ms"),
        Metric::new("assign_p90_ms", pct(&assign, 0.9), "ms"),
        Metric::new("delta_p50_ms", pct(&delta, 0.5), "ms"),
        Metric::new("select_p50_ms", pct(&select, 0.5), "ms"),
    ];
    Ok(Outcome {
        setups_s,
        attempted,
        failures,
        peak_rss_mib,
        throughput_per_s: ops_per_s,
        p50_ms: pct(&assign, 0.5),
        p90_ms: pct(&assign, 0.9),
        second_p50_ms: pct(&delta, 0.5),
        named,
        stream,
        replay_seed_dir: Some(dir),
        replay_max_sessions: None,
        dataset: data,
    })
}

type Write<'a> = (usize, Instant, Instant, &'a Vec<Edit>);
type AssignRecord<'a> = (
    usize,
    Instant,
    Instant,
    &'a Vec<Perturbation>,
    Vec<AssignRow>,
    u64,
);

/// Checks every exact `assign` reply against reference sessions.
///
/// The server applies one session's requests in some serial order that
/// the client cannot see. A delta whose reply arrived before an assign
/// was sent is certainly applied; among the other client's deltas that
/// overlap the assign in time, the server applied a prefix (in that
/// client's order). The reply must match one such prefix. The
/// compressed side must match one of the two selectable bounds; the
/// full side does not depend on the bound.
fn check_assigns(
    data: &Dataset,
    writes: &[Write<'_>],
    assigns: &mut [AssignRecord<'_>],
    failures: &mut Failures,
) -> Result<(), String> {
    let mut refs: Vec<CobraSession> = data
        .bounds
        .iter()
        .map(|&b| check::session_from_text(&data.text, FIG2, b))
        .collect::<Result<_, _>>()?;
    let mut applied = vec![false; writes.len()];
    assigns.sort_by_key(|a| a.1);
    for (client, sent, done, scenario, got, id) in assigns.iter() {
        for (w, (_, _, w_done, edits)) in writes.iter().enumerate() {
            if !applied[w] && *w_done < *sent {
                for r in refs.iter_mut() {
                    check::apply_edits(r, edits, 1)?;
                }
                applied[w] = true;
            }
        }
        let mut overlap: Vec<&Write<'_>> = writes
            .iter()
            .enumerate()
            .filter(|(w, (c, w_sent, _, _))| !applied[*w] && c != client && *w_sent < *done)
            .map(|(_, w)| w)
            .collect();
        overlap.sort_by_key(|w| w.1);
        let mut matched = None;
        for k in 0..=overlap.len() {
            if k > 0 {
                for r in refs.iter_mut() {
                    check::apply_edits(r, overlap[k - 1].3, 1)?;
                }
            }
            let want: Vec<Vec<AssignRow>> = refs
                .iter_mut()
                .map(|r| check::reference_assign(r, scenario))
                .collect::<Result<_, _>>()?;
            if want.iter().any(|w| w == got) {
                matched = Some(k);
                break;
            }
        }
        // Undo the overlapping deltas tried above; later assigns apply
        // them again once they are certain.
        for undo in overlap[..matched.unwrap_or(overlap.len())].iter().rev() {
            for r in refs.iter_mut() {
                check::apply_edits(r, undo.3, -1)?;
            }
        }
        if matched.is_none() {
            failures.fail(format!(
                "assign {id}: rows match no consistent reference state"
            ));
        }
    }
    Ok(())
}
