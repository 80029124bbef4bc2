//! The correctness gate: replies are parsed and compared with in-process
//! reference sessions after the timed window, never on the clock.

use crate::data::{Edit, Perturbation};
use crate::wire::Exchange;
use cobra_core::{CobraSession, FoldItem, PolyDelta, ScenarioSet};
use cobra_provenance::parse::parse_poly;
use cobra_provenance::Valuation;
use cobra_server::json::{self, Json};
use cobra_util::Rat;

/// One exact `assign` row: label, full result, compressed result.
pub type AssignRow = (String, Rat, Rat);

/// Parses a reply and checks that it is `ok` and echoes its request id.
pub fn ok_reply(ex: &Exchange) -> Result<Json, String> {
    let text = std::str::from_utf8(&ex.reply).map_err(|_| "reply is not UTF-8".to_owned())?;
    let reply = json::parse(text)?;
    if reply.get("id").and_then(Json::as_u64) != Some(ex.id) {
        return Err(format!("{} {}: reply id mismatch", ex.op.name(), ex.id));
    }
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{} {}: {text:.200}", ex.op.name(), ex.id));
    }
    Ok(reply)
}

/// The `(full, compressed)` totals of a sweep reply.
pub fn sweep_rows(reply: &Json) -> Result<Vec<(f64, f64)>, String> {
    if reply.get("partial") != Some(&Json::Bool(false)) {
        return Err("sweep reply is partial".into());
    }
    reply
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("sweep reply has no rows")?
        .iter()
        .map(|row| match row.as_arr() {
            Some([f, c]) => Ok((
                f.as_f64().ok_or("non-numeric sweep row")?,
                c.as_f64().ok_or("non-numeric sweep row")?,
            )),
            _ => Err("sweep rows are [full, compressed] pairs".to_owned()),
        })
        .collect()
}

/// The rows of an exact `assign` reply.
pub fn assign_rows(reply: &Json) -> Result<Vec<AssignRow>, String> {
    let rat = |row: &Json, key: &str| -> Result<Rat, String> {
        let text = row
            .get(key)
            .and_then(Json::as_str)
            .ok_or("assign row field")?;
        Rat::parse(text).map_err(|e| format!("assign row {key}: {e}"))
    };
    reply
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("assign reply has no rows")?
        .iter()
        .map(|row| {
            let label = row
                .get("label")
                .and_then(Json::as_str)
                .ok_or("assign row label")?;
            Ok((label.to_owned(), rat(row, "full")?, rat(row, "compressed")?))
        })
        .collect()
}

fn valuation(session: &mut CobraSession, scenario: &[Perturbation]) -> Valuation<Rat> {
    let mut val = Valuation::with_default(Rat::ONE);
    for p in scenario {
        let var = session.registry_mut().var(&p.var);
        val.set(var, p.factor());
    }
    val
}

/// The rows the server's sweep fold returns: per perturbation, the sums
/// of the full-side and compressed-side results.
pub fn reference_sweep(
    session: &mut CobraSession,
    perturbations: &[Perturbation],
) -> Result<Vec<(f64, f64)>, String> {
    let vals = perturbations
        .iter()
        .map(|p| valuation(session, std::slice::from_ref(p)))
        .collect();
    let fold = |mut acc: Vec<(f64, f64)>, item: FoldItem<'_, f64>| {
        let full: f64 = item.full.iter().sum();
        let comp: f64 = item.compressed.iter().sum();
        acc.push((full, comp));
        acc
    };
    session
        .sweep_fold_f64(ScenarioSet::from_valuations(vals), Vec::new(), fold)
        .map(|(rows, _)| rows)
        .map_err(|e| e.to_string())
}

/// Exact reference rows of one `assign`.
pub fn reference_assign(
    session: &mut CobraSession,
    scenario: &[Perturbation],
) -> Result<Vec<AssignRow>, String> {
    let val = valuation(session, scenario);
    let cmp = session.assign(&val).map_err(|e| e.to_string())?;
    Ok(cmp
        .rows
        .into_iter()
        .map(|r| (r.label, r.full, r.compressed))
        .collect())
}

/// Applies coefficient `add` edits in process, scaled by `sign` (±1):
/// `-1` undoes an earlier `+1` exactly. Returns the terms touched.
pub fn apply_edits(session: &mut CobraSession, edits: &[Edit], sign: i64) -> Result<usize, String> {
    let mut delta = PolyDelta::new();
    for edit in edits {
        let idx = session
            .polynomials()
            .index_of(&edit.poly)
            .ok_or_else(|| format!("no polynomial {:?}", edit.poly))?;
        let parsed = parse_poly(&edit.term, session.registry_mut()).map_err(|e| e.to_string())?;
        let [(monomial, coeff)] = parsed.terms() else {
            return Err(format!("edit {:?} is not one term", edit.term));
        };
        delta.add(idx, monomial.clone(), *coeff * Rat::int(sign));
    }
    session
        .apply_delta(&delta)
        .map(|r| r.terms_touched)
        .map_err(|e| e.to_string())
}

/// A session built the way a wire `prepare` from text builds it, then
/// narrowed to `bound`.
pub fn session_from_text(text: &str, tree: &str, bound: u64) -> Result<CobraSession, String> {
    let mut s = CobraSession::from_text(text).map_err(|e| e.to_string())?;
    s.add_tree_text(tree).map_err(|e| e.to_string())?;
    s.compress_frontier().map_err(|e| e.to_string())?;
    s.select_bound(bound).map_err(|e| e.to_string())?;
    Ok(s)
}
