//! `cold-start`: one client on a store capped at two live sessions, so
//! every new session evicts (persists) the least recently used one. Each
//! cycle prepares a new session from polynomial text (`persist`, and
//! `dag` on every other one), selects a bound and asks its first
//! `assign`; then it reloads the session this cycle's prepare evicted
//! and asks the same `assign` again. The set-up layers: JSON, the text
//! parser, group analysis and the frontier planner, compile, the DAG
//! rewrite, snapshot, mmap and restore.

use crate::check::{self, AssignRow};
use crate::data::{self, Dataset, Perturbation, FIG2};
use crate::host;
use crate::wire::{Client, Op};
use crate::workload::{
    merge, pct, probe_missing_ops, start_server, Failures, Ids, Log, Metric, Outcome, RunConfig,
    SETUP_REPS,
};
use cobra_server::json::Json;
use std::time::Instant;

pub const ZIPS: usize = 64;
/// Live-session cap of the store.
const MAX_SESSIONS: usize = 2;
/// Distinct generated datasets; cycles beyond this reuse them under new ids.
const POOL: usize = 48;

/// One pooled input as the client holds it through the window: the
/// text it sends and the bounds it selects. The parsed provenance is
/// dropped, so the window's resident set is mostly the server's.
struct Text {
    text: String,
    bounds: [u64; 2],
}

/// The pool's `i`-th dataset.
fn dataset(cfg: &RunConfig, i: usize) -> Dataset {
    Dataset::telephony(ZIPS, cfg.seed.wrapping_mul(1000).wrapping_add(i as u64))
}

/// A session the client prepared: its data, scenario and first answer.
struct Prepared {
    id: String,
    data: usize,
    dag: bool,
    scenario: Vec<Perturbation>,
    first: Option<Vec<AssignRow>>,
}

/// Prepare from text, select the first bound, first `assign`: returns
/// the latency from the prepare to the assign reply.
fn first_answer(
    log: &mut Log,
    ids: &Ids,
    p: &mut Prepared,
    pool: &[Text],
    timed: bool,
    failures: &mut Failures,
) -> Result<f64, String> {
    let data = &pool[p.data];
    let id = ids.next();
    let ex = log.call(
        Op::Prepare,
        id,
        data::prepare(id, &p.id, Some(&data.text), true, p.dag),
        timed,
    )?;
    let t_start = ex.sent;
    if let Some(r) = failures.check(check::ok_reply(ex)) {
        if r.get("source").and_then(Json::as_str) != Some("built") {
            failures.fail(format!("prepare {}: not built from text", p.id));
        }
    }
    let id = ids.next();
    let ex = log.call(
        Op::SelectBound,
        id,
        data::select_bound(id, &p.id, data.bounds[0]),
        timed,
    )?;
    failures.check(check::ok_reply(ex));
    let id = ids.next();
    let ex = log.call(Op::Assign, id, data::assign(id, &p.id, &p.scenario), timed)?;
    let done = ex.done;
    p.first = failures.check(check::ok_reply(ex).and_then(|r| check::assign_rows(&r)));
    Ok((done - t_start).as_secs_f64() * 1e3)
}

/// Reload of an evicted session, re-selection of `bound` and its first
/// `assign`, which must answer as the session did before eviction.
fn reload(
    log: &mut Log,
    ids: &Ids,
    p: &Prepared,
    bound: u64,
    timed: bool,
    failures: &mut Failures,
) -> Result<f64, String> {
    let id = ids.next();
    let ex = log.call(
        Op::Prepare,
        id,
        data::prepare(id, &p.id, None, false, false),
        timed,
    )?;
    let t_start = ex.sent;
    if let Some(r) = failures.check(check::ok_reply(ex)) {
        if r.get("source").and_then(Json::as_str) != Some("loaded") {
            failures.fail(format!(
                "prepare {}: expected a reload of an evicted session",
                p.id
            ));
        }
    }
    // A restored session comes back without its selection (the snapshot
    // does not keep it), so the client selects again.
    let id = ids.next();
    let ex = log.call(
        Op::SelectBound,
        id,
        data::select_bound(id, &p.id, bound),
        timed,
    )?;
    failures.check(check::ok_reply(ex));
    let id = ids.next();
    let ex = log.call(Op::Assign, id, data::assign(id, &p.id, &p.scenario), timed)?;
    let done = ex.done;
    let got = failures.check(check::ok_reply(ex).and_then(|r| check::assign_rows(&r)));
    if got.is_some() && got != p.first {
        failures.fail(format!(
            "reload {}: answer differs from before eviction",
            p.id
        ));
    }
    Ok((done - t_start).as_secs_f64() * 1e3)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let pool: Vec<Text> = (0..POOL)
        .map(|i| {
            let data = dataset(cfg, i);
            Text {
                text: data.text,
                bounds: data.bounds,
            }
        })
        .collect();
    let vars = data::scenario_vars();
    let mut rng = cfg.rng(20);
    let next_session = |n: usize, rng: &mut cobra_util::SplitMix64| Prepared {
        id: format!("c{n}"),
        data: n % POOL,
        dag: n % 2 == 1,
        scenario: (0..3).map(|_| Perturbation::draw(rng, &vars)).collect(),
        first: None,
    };
    let mut failures = Failures::default();
    let ids = Ids::default();

    // Set-up: a server with an empty store and two warm sessions, so
    // every timed prepare evicts.
    let mut setups_s = Vec::new();
    let mut live = None;
    let mut n = 0;
    for rep in 0..SETUP_REPS {
        if let Some((server, log, _, _)) = live.take() {
            drop(log);
            cobra_server::Server::shutdown(server);
        }
        let dir = cfg.fresh_dir(&format!("cold-store-{rep}"))?;
        let t0 = Instant::now();
        let server = start_server(Some(dir), Some(MAX_SESSIONS))?;
        let mut log = Log::new(Client::connect(server.addr()).map_err(|e| e.to_string())?);
        let mut warm = Vec::new();
        for _ in 0..MAX_SESSIONS {
            let mut p = next_session(n, &mut rng);
            n += 1;
            first_answer(&mut log, &ids, &mut p, &pool, false, &mut failures)?;
            warm.push(p);
        }
        setups_s.push(t0.elapsed().as_secs_f64());
        live = Some((server, log, warm, n));
    }
    let (server, mut log, mut all, _) = live.expect("SETUP_REPS > 0");
    // Live sessions, least recently used first.
    let mut live: Vec<usize> = (0..all.len()).collect();

    // The timed window.
    host::reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + cfg.window;
    let mut first_ms = Vec::new();
    let mut reload_ms = Vec::new();
    while Instant::now() < deadline {
        let mut p = next_session(n, &mut rng);
        n += 1;
        first_ms.push(first_answer(
            &mut log,
            &ids,
            &mut p,
            &pool,
            true,
            &mut failures,
        )?);
        all.push(p);
        // That prepare evicted the least recently used session; reloading
        // it evicts the other one.
        let evicted = live[0];
        reload_ms.push(reload(
            &mut log,
            &ids,
            &all[evicted],
            pool[0].bounds[0],
            true,
            &mut failures,
        )?);
        live = vec![all.len() - 1, evicted];
    }
    let peak_rss_mib = host::peak_rss_mib();
    let end = log.exchanges.last().map_or(start, |e| e.done);

    // Checks, off the clock: every first answer against a session built
    // in process from the same text.
    for p in &all {
        let Some(got) = &p.first else { continue };
        let data = &pool[p.data];
        let mut reference = check::session_from_text(&data.text, FIG2, data.bounds[0])?;
        if *got != check::reference_assign(&mut reference, &p.scenario)? {
            failures.fail(format!(
                "first answer of {} differs from its reference",
                p.id
            ));
        }
    }

    if cfg.trace {
        let mut rng = cfg.rng(21);
        let last = &all[live[0]];
        probe_missing_ops(
            &mut log,
            &ids,
            &last.id,
            &dataset(cfg, last.data),
            &mut rng,
            &mut failures,
        )?;
    }
    server.shutdown();

    let stream = merge(vec![log]);
    let attempted = stream.iter().filter(|e| e.timed).count() as u64;
    let requests_per_s = attempted as f64 / (end - start).as_secs_f64().max(1e-9);
    let named = vec![
        Metric::new("first_answer_p50_ms", pct(&first_ms, 0.5), "ms"),
        Metric::new("first_answer_p90_ms", pct(&first_ms, 0.9), "ms"),
        Metric::new("reload_p50_ms", pct(&reload_ms, 0.5), "ms"),
        Metric::new("cycles", first_ms.len() as f64, "count"),
    ];
    Ok(Outcome {
        setups_s,
        attempted,
        failures,
        peak_rss_mib,
        throughput_per_s: requests_per_s,
        p50_ms: pct(&first_ms, 0.5),
        p90_ms: pct(&first_ms, 0.9),
        second_p50_ms: pct(&reload_ms, 0.5),
        named,
        stream,
        replay_seed_dir: None,
        replay_max_sessions: Some(MAX_SESSIONS),
        dataset: dataset(cfg, 0),
    })
}
