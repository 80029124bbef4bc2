//! Per-layer probes: each public call of `cobra-provenance` and
//! `cobra-core` that a served request goes through, timed from outside
//! on the workload's own provenance.

use crate::check;
use crate::data::{self, Dataset, Edit, Perturbation, FIG2};
use crate::stats;
use crate::trace::Recorder;
use cobra_core::{restore_session, snapshot_session, CobraSession};
use cobra_provenance::dag::{self, DagOptions};
use cobra_provenance::persist::write_file;
use cobra_provenance::{
    compile_f64, parse_polyset, BatchEvaluator, EvalProgram, LaneScratch, LoadedArtifact, PolySet,
    Valuation, VarRegistry,
};
use cobra_util::{Rat, SplitMix64};
use std::path::Path;

/// Repetitions of each probe; metrics are medians.
const REPS: usize = 3;
/// Rounds of the kernel probe, the noisiest one.
const KERNEL_REPS: usize = 7;
/// Scenarios per kernel batch and per sweep, as in `sweep-paper`.
const SCENARIOS: usize = 1024;
/// Exact probes one `sweep_fold_f64` makes.
const SWEEP_PROBES: f64 = 16.0;

/// Per-layer metrics: name, value, unit.
pub type Values = Vec<(&'static str, f64, &'static str)>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A planned session (`compress_frontier` done), timed.
fn planned(data: &Dataset, rec: &mut Recorder, root: usize) -> Result<CobraSession, String> {
    let mut s = CobraSession::new(data.reg.clone(), data.polys.clone());
    s.add_tree_text(FIG2).map_err(err)?;
    rec.span("core.compress_frontier", 0, Some(root), |_, _| {
        s.compress_frontier().map(|_| ())
    })
    .map_err(err)?;
    Ok(s)
}

/// ns per scenario of the serial `f64` batch kernel on each program,
/// median of [`KERNEL_REPS`] rounds. Rounds visit every program in turn,
/// so a slow spell of a shared host hits all of them alike.
fn kernel_ns(
    programs: &[(&'static str, &BatchEvaluator<f64>)],
    perturbations: &[Perturbation],
    reg: &VarRegistry,
    rec: &mut Recorder,
    root: usize,
) -> Result<Vec<f64>, String> {
    let mut inputs = Vec::new();
    for (_, program) in programs {
        let rows: Vec<Vec<f64>> = perturbations
            .iter()
            .map(|p| {
                let mut val = Valuation::with_default(1.0);
                if let Some(v) = reg.lookup(&p.var) {
                    val.set(v, p.factor().to_f64());
                }
                program
                    .program()
                    .bind(&val)
                    .map_err(|v| format!("unbound {v:?}"))
            })
            .collect::<Result<_, _>>()?;
        let out = vec![0.0; rows.len() * program.program().num_polys()];
        inputs.push((rows, out));
    }
    let mut scratch = LaneScratch::new();
    let mut times = vec![Vec::new(); programs.len()];
    for _ in 0..KERNEL_REPS {
        for (((name, program), (rows, out)), times) in
            programs.iter().zip(&mut inputs).zip(&mut times)
        {
            rec.span(name, 0, Some(root), |_, _| {
                program.eval_batch_fast_serial_into(rows, out, &mut scratch);
            });
            times.push(rec.spans().last().map_or(0.0, |s| s.dur_ms()));
            std::hint::black_box(&out);
        }
    }
    Ok(times
        .iter()
        .map(|t| stats::median(t).unwrap_or(0.0) * 1e6 / perturbations.len() as f64)
        .collect())
}

fn flat_and_dag(set: &PolySet<Rat>) -> (BatchEvaluator<f64>, BatchEvaluator<f64>) {
    let exact = EvalProgram::compile(set);
    let dag = dag::rewrite(&exact, &DagOptions::default())
        .program
        .to_f64_program();
    (compile_f64(set), BatchEvaluator::new(dag))
}

/// Runs every probe on `data` inside one `layers` span; `dir` takes the
/// snapshot artifact.
pub fn run(data: &Dataset, dir: &Path, seed: u64, rec: &mut Recorder) -> Result<Values, String> {
    rec.span("layers", 0, None, |rec, root| {
        probes(data, dir, seed, rec, root)
    })
}

fn probes(
    data: &Dataset,
    dir: &Path,
    seed: u64,
    rec: &mut Recorder,
    root: usize,
) -> Result<Values, String> {
    let mut rng = SplitMix64::new(seed ^ 0x4C41_5945_5253);
    let vars = data::scenario_vars();
    let labels = data.labels();
    let perturbations: Vec<Perturbation> = (0..SCENARIOS)
        .map(|_| Perturbation::draw(&mut rng, &vars))
        .collect();

    // Text parser.
    for _ in 0..REPS {
        let parsed = rec.span("provenance.parse_polyset", 0, Some(root), |_, _| {
            parse_polyset(&data.text, &mut VarRegistry::new())
        });
        if parsed.map_err(err)?.total_monomials() != data.polys.total_monomials() {
            return Err("parse_polyset changed the provenance size".into());
        }
    }
    // Frontier, compile and DAG rewrite, each on a freshly planned session.
    let mut dag_mul_ratio = 0.0;
    for _ in 0..REPS {
        let mut s = planned(data, rec, root)?;
        s.select_bound(data.bounds[0]).map_err(err)?;
        rec.span("provenance.warm_up", 0, Some(root), |_, _| s.warm_up())
            .map_err(err)?;
        let report = rec
            .span("provenance.compile_dag", 0, Some(root), |_, _| {
                s.compile_dag()
            })
            .map_err(err)?;
        dag_mul_ratio = report.full.op_ratio();
    }
    let mut s = planned(data, rec, root)?;
    s.select_bound(data.bounds[0]).map_err(err)?;
    s.warm_up().map_err(err)?;
    for i in 0..2 * REPS {
        let bound = data.bounds[(i + 1) % 2];
        rec.span("core.select_bound", 0, Some(root), |_, _| {
            s.select_bound(bound)
        })
        .map_err(err)?;
        s.warm_up().map_err(err)?;
    }

    // Kernels: full and compressed programs, flat and DAG, and the
    // paper's compressed-vs-full comparison at both bounds.
    let comp = s.compressed_polynomials().map_err(err)?.clone();
    s.select_bound(data.bounds[1]).map_err(err)?;
    let comp_tight = s.compressed_polynomials().map_err(err)?.clone();
    s.select_bound(data.bounds[0]).map_err(err)?;
    let reg = s.registry().clone();
    let (full_flat, full_dag) = flat_and_dag(&data.polys);
    let (comp_flat, comp_dag) = flat_and_dag(&comp);
    let tight_flat = compile_f64(&comp_tight);
    let ns = kernel_ns(
        &[
            ("provenance.kernel.full.flat", &full_flat),
            ("provenance.kernel.full.dag", &full_dag),
            ("provenance.kernel.comp.flat", &comp_flat),
            ("provenance.kernel.comp.dag", &comp_dag),
            ("provenance.kernel.comp_tight.flat", &tight_flat),
        ],
        &perturbations,
        &reg,
        rec,
        root,
    )?;
    let [ns_full_flat, ns_full_dag, ns_comp_flat, ns_comp_dag, ns_tight_flat] = ns[..] else {
        unreachable!("one time per program");
    };
    drop((full_flat, full_dag, comp_flat, comp_dag, tight_flat));

    // Snapshot, mmap + checksum, restore.
    let path = dir.join("layers.cobra");
    let mut artifact_bytes = 0;
    for _ in 0..REPS {
        let bytes = rec
            .span("core.snapshot_session", 0, Some(root), |_, _| {
                snapshot_session(&s)
            })
            .map_err(err)?;
        artifact_bytes = bytes.len();
        write_file(&path, &bytes).map_err(err)?;
        let artifact = rec
            .span("provenance.loaded_artifact_open", 0, Some(root), |_, _| {
                LoadedArtifact::open(&path)
            })
            .map_err(err)?;
        let restored = rec
            .span("core.restore_session", 0, Some(root), |_, _| {
                restore_session(&artifact)
            })
            .map_err(err)?;
        drop(restored);
    }
    let _ = std::fs::remove_file(&path);

    // Exact assign, the sweep with the server's fold, then deltas.
    for p in perturbations.iter().take(8) {
        let scenario = std::slice::from_ref(p);
        rec.span("core.assign", 0, Some(root), |_, _| {
            check::reference_assign(&mut s, scenario)
        })?;
    }
    for _ in 0..REPS {
        rec.span("core.sweep_fold_f64", 0, Some(root), |_, _| {
            check::reference_sweep(&mut s, &perturbations)
        })?;
    }
    let mut touched = Vec::new();
    for _ in 0..8 {
        let edit = [Edit::draw(&mut rng, &labels)];
        let terms = rec.span("core.apply_delta", 0, Some(root), |_, _| {
            check::apply_edits(&mut s, &edit, 1)
        })?;
        touched.push(terms as f64);
    }

    let med = |name: &str| rec.median_ms(name).unwrap_or(0.0);
    let speedup = |comp_ns: f64| 100.0 * (1.0 - comp_ns / ns_full_flat);
    let probe_share = SWEEP_PROBES * med("core.assign") / med("core.sweep_fold_f64").max(1e-12);
    Ok(vec![
        ("provenance.parse_ms", med("provenance.parse_polyset"), "ms"),
        ("provenance.compile_ms", med("provenance.warm_up"), "ms"),
        (
            "provenance.dag_compile_ms",
            med("provenance.compile_dag"),
            "ms",
        ),
        ("provenance.dag_mul_ratio", dag_mul_ratio, "count"),
        (
            "provenance.kernel_ns_per_scen.full.flat",
            ns_full_flat,
            "ns",
        ),
        ("provenance.kernel_ns_per_scen.full.dag", ns_full_dag, "ns"),
        (
            "provenance.kernel_ns_per_scen.comp.flat",
            ns_comp_flat,
            "ns",
        ),
        ("provenance.kernel_ns_per_scen.comp.dag", ns_comp_dag, "ns"),
        (
            "provenance.mmap_open_ms",
            med("provenance.loaded_artifact_open"),
            "ms",
        ),
        (
            "provenance.artifact_mib",
            artifact_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        ("core.frontier_ms", med("core.compress_frontier"), "ms"),
        ("core.select_bound_us", med("core.select_bound") * 1e3, "us"),
        ("core.apply_delta_us", med("core.apply_delta") * 1e3, "us"),
        (
            "core.delta_terms_touched",
            stats::median(&touched).unwrap_or(0.0),
            "count",
        ),
        ("core.assign_us", med("core.assign") * 1e3, "us"),
        ("core.sweep_ms", med("core.sweep_fold_f64"), "ms"),
        ("core.probe_share", probe_share, "fraction"),
        ("core.snapshot_ms", med("core.snapshot_session"), "ms"),
        ("core.restore_ms", med("core.restore_session"), "ms"),
        ("paper.speedup_pct.b94600", speedup(ns_comp_flat), "%"),
        ("paper.speedup_pct.b38600", speedup(ns_tight_flat), "%"),
    ])
}
