//! The traced in-process replay of a workload's recorded request stream
//! through the server's public layers: `proto::parse_request`, the
//! `SessionStore` (`prepare` / `dispatch`), and `proto::ok_reply`.

use crate::stats;
use crate::trace::Recorder;
use crate::wire::{Exchange, Op};
use cobra_server::json::Json;
use cobra_server::proto::{err_reply, ok_reply, parse_request, Request};
use cobra_server::store::{Job, ReplyBody, SessionStore};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sweeps replayed per run (they are the only expensive read).
const MAX_SWEEPS: usize = 8;
/// A replay pass stops once it has run this long.
const BUDGET: Duration = Duration::from_secs(45);

/// Span names of one op: the wire request, the replayed request and its
/// three layers.
struct Names {
    wire: &'static str,
    request: &'static str,
    parse: &'static str,
    dispatch: &'static str,
    encode: &'static str,
}

macro_rules! names {
    ($op:literal) => {
        Names {
            wire: concat!("wire.", $op),
            request: concat!("replay.", $op),
            parse: concat!("server.parse_request.", $op),
            dispatch: concat!("server.dispatch.", $op),
            encode: concat!("server.reply_encode.", $op),
        }
    };
}

fn names(op: Op) -> Names {
    match op {
        Op::Prepare => names!("prepare"),
        Op::Sweep => names!("sweep_fold_f64"),
        Op::Assign => names!("assign"),
        Op::ApplyDelta => names!("apply_delta"),
        Op::SelectBound => names!("select_bound"),
    }
}

/// The span name of a request as the wire client saw it.
pub fn wire_span(op: Op) -> &'static str {
    names(op).wire
}

/// What the server's connection loop does with a parsed request.
fn dispatch(store: &SessionStore, request: Request) -> ReplyBody {
    match request {
        Request::Prepare {
            session,
            polys,
            tree,
            persist,
            dag,
        } => store.prepare(&session, polys.as_deref(), tree.as_deref(), persist, dag),
        Request::Assign { session, scenario } => store.dispatch(&session, |reply| Job::Assign {
            scenario: scenario.clone(),
            reply,
        }),
        Request::SweepFoldF64 {
            session,
            scenarios,
            deadline_ms,
        } => store.dispatch(&session, |reply| Job::Sweep {
            scenarios: scenarios.clone(),
            deadline_ms,
            reply,
        }),
        Request::SelectBound { session, bound } => {
            store.dispatch(&session, |reply| Job::SelectBound { bound, reply })
        }
        Request::ApplyDelta { session, ops } => store.dispatch(&session, |reply| Job::ApplyDelta {
            ops: ops.clone(),
            reply,
        }),
        _ => Err((
            "bad_request".into(),
            "op is not part of the benchmark".into(),
        )),
    }
}

/// Per-op layer times of the replay and the wire, plus frame sizes.
#[derive(Default)]
pub struct OpLayers {
    pub parse_us: f64,
    pub dispatch_ms: f64,
    pub encode_us: f64,
    /// Wire p50 of the same requests minus the three layers' p50s.
    pub wire_gap_ms: f64,
    pub bytes_in: f64,
    pub bytes_out: f64,
    pub replayed: usize,
}

/// The requests a replay pass runs, in stream order: every request but
/// the sweeps after the first [`MAX_SWEEPS`], until the pass has run for
/// [`BUDGET`].
fn selected(stream: &[Exchange]) -> impl Iterator<Item = &Exchange> {
    let started = Instant::now();
    let mut sweeps = 0;
    stream
        .iter()
        .take_while(move |_| started.elapsed() < BUDGET)
        .filter(move |ex| {
            sweeps += usize::from(ex.op == Op::Sweep);
            ex.op != Op::Sweep || sweeps <= MAX_SWEEPS
        })
}

/// Runs one recorded request through the three layers, each call in a
/// span of `rec`, and returns its wall time (ms). A reply that is not
/// `ok` is an error.
fn replay_one(ex: &Exchange, store: &SessionStore, rec: &mut Recorder) -> Result<f64, String> {
    let n = names(ex.op);
    let t = Instant::now();
    let reply = rec.span(n.request, ex.id, None, |rec, root| {
        let envelope = rec.span(n.parse, ex.id, Some(root), |_, _| {
            parse_request(&ex.request)
        })?;
        let body = rec.span(n.dispatch, ex.id, Some(root), |_, _| {
            dispatch(store, envelope.request)
        });
        Ok::<_, String>(rec.span(n.encode, ex.id, Some(root), |_, _| match body {
            Ok(members) => ok_reply(&envelope.id, members),
            Err((kind, message)) => err_reply(&envelope.id, &kind, &message),
        }))
    })?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let parsed = cobra_server::json::parse(&reply)?;
    if parsed.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "replay of {} {}: {reply:.200}",
            ex.op.name(),
            ex.id
        ));
    }
    Ok(ms)
}

/// Replays `stream` in order into `store`, recording spans, and returns
/// the server metrics per op.
pub fn replay(
    stream: &[Exchange],
    store: &SessionStore,
    rec: &mut Recorder,
) -> Result<BTreeMap<Op, OpLayers>, String> {
    let mut wire: BTreeMap<Op, Vec<f64>> = BTreeMap::new();
    for ex in selected(stream) {
        replay_one(ex, store, rec)?;
        wire.entry(ex.op).or_default().push(ex.latency_ms());
    }
    let mut out = BTreeMap::new();
    for op in Op::ALL {
        let n = names(op);
        let med = |name: &str| rec.median_ms(name).unwrap_or(0.0);
        let frames = |f: &dyn Fn(&Exchange) -> usize| -> f64 {
            let sizes: Vec<f64> = stream
                .iter()
                .filter(|e| e.op == op)
                .map(|e| (f(e) + 4) as f64)
                .collect();
            stats::median(&sizes).unwrap_or(0.0)
        };
        let (parse, dispatch, encode) = (med(n.parse), med(n.dispatch), med(n.encode));
        let wire_p50 = wire.get(&op).and_then(|w| stats::median(w)).unwrap_or(0.0);
        out.insert(
            op,
            OpLayers {
                parse_us: parse * 1e3,
                dispatch_ms: dispatch,
                encode_us: encode * 1e3,
                wire_gap_ms: wire_p50 - (parse + dispatch + encode),
                bytes_in: frames(&|e| e.request.len()),
                bytes_out: frames(&|e| e.reply.len()),
                replayed: wire.get(&op).map_or(0, Vec::len),
            },
        );
    }
    Ok(out)
}

/// The tracing overhead, in percent: `stream` is replayed once more,
/// each request into both stores, into `traced` with spans and into
/// `untraced` with a recorder that is off. Which store goes first
/// alternates from one request to the next, so warm caches favour
/// neither. The overhead is the median over requests of the traced time
/// ÷ the untraced time, less one.
pub fn overhead_pct(
    stream: &[Exchange],
    traced: &SessionStore,
    untraced: &SessionStore,
) -> Result<f64, String> {
    let (mut on, mut off) = (Recorder::default(), Recorder::off());
    let mut ratios = Vec::new();
    for (i, ex) in selected(stream).enumerate() {
        let (with, without) = if i % 2 == 0 {
            let with = replay_one(ex, traced, &mut on)?;
            (with, replay_one(ex, untraced, &mut off)?)
        } else {
            let without = replay_one(ex, untraced, &mut off)?;
            (replay_one(ex, traced, &mut on)?, without)
        };
        if without > 0.0 {
            ratios.push(with / without);
        }
    }
    Ok(stats::median(&ratios).map_or(0.0, |r| 100.0 * (r - 1.0)))
}
