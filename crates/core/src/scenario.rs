//! Batched scenario sweeps: many hypotheticals in one compiled pass.
//!
//! The interactive loop the paper demonstrates — "what if March prices
//! dropped 20%? what if business plans rose 10%? …" — evaluates the same
//! provenance under many valuations. Instead of re-walking the term lists
//! per scenario, this module compiles the full and compressed polynomial
//! sets once (via [`cobra_provenance::compile`]) and evaluates whole
//! scenario batches through the same engine, so full-vs-compressed numbers
//! are produced under identical evaluation machinery.
//!
//! Scenario *families* arrive as [`ScenarioSet`]s. Grid- and
//! perturbation-shaped sets are bound **allocation-free**: the
//! [`PairBinder`] caches the base scenario row for both programs once,
//! then each scenario is a row `memcpy` plus one write per override —
//! meta-variable group averages are maintained incrementally, so a
//! 10⁶-scenario grid streams through the lane-blocked kernel without ever
//! materializing a `Vec<Valuation>`.

use crate::assign::{self, ResultComparison, ResultRow, SpeedupMeasurement};
use crate::budget::{StopReason, SweepBudget, SweepOutcome};
use crate::cut::MetaVar;
use crate::error::Result;
use crate::folds::MergeFold;
use crate::scenario_set::{base_value, for_each_grid_digit, RowBinder, ScenarioSet};
use cobra_provenance::compile::LANES;
use cobra_provenance::{
    BatchEvaluator, Coeff, EvalProgram, FixedScratch, LaneScratch, PolySet, Valuation, Var,
};
use cobra_util::timing::time_best_of;
use cobra_util::{faults, kernel, par, CancelToken, FxHashMap, FxHashSet, Rat};
use std::panic::resume_unwind;

/// Scenarios bound and evaluated per streamed block: a handful of lane
/// blocks, so peak transient memory stays O(block × row) regardless of the
/// set's cardinality while the batch kernel still gets full lanes.
const STREAM_BLOCK: usize = 16 * LANES;

/// Scenarios per streamed block, capped so the transient buffers stay
/// bounded regardless of program shape: the result buffers
/// (`block × num_polys` values per side) around 64k values, and the
/// scenario-row buffers (`block × num_locals` values per side) around a
/// million values even for 10⁵+-variable programs. Whenever the cap
/// allows it the block is a whole number of `f64` lane groups, so the
/// lane kernel sees no ragged tail inside a sweep.
fn stream_block(num_polys: usize, num_locals: usize) -> usize {
    let by_results = (1usize << 16) / num_polys.max(1);
    let by_rows = (1usize << 20) / num_locals.max(1);
    let block = by_results.min(by_rows).min(STREAM_BLOCK);
    if block >= LANES {
        (block / LANES) * LANES
    } else if block * 2 >= LANES {
        // A ragged block starves the SIMD lane kernels (their register
        // tiles cover only the leading multiple of the tile width, the
        // rest runs lane-at-a-time): at e.g. 1055 polynomials the result
        // cap would yield 62-lane blocks that measure *slower* under
        // AVX2 than the portable kernel. Within 2× of the memory caps,
        // rounding up to one full lane block is the better trade.
        LANES
    } else {
        block.max(1)
    }
}

/// Exact-vs-approximate probe scenarios per `f64` fold-sweep: the
/// scenarios `k·(n−1)/(F64_PROBES−1)` for `k < F64_PROBES` (deduplicated
/// when `n` is smaller), re-evaluated on the exact engines to measure the
/// divergence of the `f64` fast path (see [`F64Divergence`]). The sweep
/// engines defer them: the block loop keeps each probe's `f64` rows, and
/// the exact rows are evaluated together when the pass ends — one
/// fixed-point lane pass per side, the count matching the kernel's lane
/// width ([`cobra_provenance::FIXED_LANES`]).
pub const F64_PROBES: usize = 16;

/// One streamed scenario handed to a fold: the scenario's index in the
/// set's enumeration order plus its full-side and compressed-side result
/// rows (one value per polynomial, in label order). The rows borrow the
/// engine's block buffers — copy out whatever the fold needs to keep.
#[derive(Debug)]
pub struct FoldItem<'a, C> {
    /// Index of the scenario in the [`ScenarioSet`] enumeration order.
    pub scenario: usize,
    /// Full-provenance results, in label order.
    pub full: &'a [C],
    /// Compressed-provenance results, in label order.
    pub compressed: &'a [C],
}

// Manual impls: the derive would demand `C: Copy`, but the fields are
// shared slices — items are freely copyable for any coefficient type
// (tuple folds hand the same item to each component).
impl<C> Clone for FoldItem<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for FoldItem<'_, C> {}

/// Measured divergence of an approximate (`f64`) fold-sweep from the
/// exact path: up to [`F64_PROBES`] evenly spaced scenarios are re-bound
/// and re-evaluated on the exact engines, and the largest relative
/// deviation over both sides and all result tuples is recorded. The
/// probes are deferred and batched — their `f64` rows are kept as the
/// sweep folds them, and each pass (a sequential sweep or one worker's
/// span) evaluates its probes' exact rows in one lane pass when it
/// ends — so a partial sweep still records exactly the probes inside its
/// completed prefix, and the record is bit-identical at any thread
/// count. This is
/// an *empirical spot check* of floating-point rounding (coefficients,
/// binding and evaluation all round), not a proven worst-case bound —
/// for SPJ-style provenance with well-scaled coefficients it sits at the
/// unit-roundoff scale (≈1e-16, see the `e10` experiment).
#[derive(Clone, Copy, Debug, Default)]
pub struct F64Divergence {
    /// Number of scenarios re-evaluated exactly.
    pub probed: usize,
    /// Largest relative deviation `|approx − exact| / |exact|` observed
    /// over the probes (both sides, every result tuple); 0 when nothing
    /// diverged, ∞ if the exact value was zero but the float was not.
    pub max_rel_divergence: f64,
}

impl F64Divergence {
    fn record(&mut self, exact: &[Rat], approx: &[f64]) {
        for (e, a) in exact.iter().zip(approx) {
            let d = assign::rel_error_f64(e.to_f64(), *a);
            self.max_rel_divergence = self.max_rel_divergence.max(d);
        }
    }

    /// Combines disjoint probe sets (parallel workers probe the scenarios
    /// falling in their own spans): counts add, maxima max — commutative,
    /// so the combined record is independent of the worker partition.
    fn merge(&mut self, other: F64Divergence) {
        self.probed += other.probed;
        self.max_rel_divergence = self.max_rel_divergence.max(other.max_rel_divergence);
    }
}

/// The evenly spaced probe indices of an `n`-scenario `f64` sweep:
/// up to [`F64_PROBES`] indices, deduplicated (`n` may be smaller).
/// Factored out so the sequential and parallel `f64` engines re-evaluate
/// exactly the same scenarios.
fn f64_probe_indices(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut p: Vec<usize> = (0..F64_PROBES.min(n))
        .map(|k| k * (n - 1) / (F64_PROBES.min(n) - 1).max(1))
        .collect();
    p.dedup();
    p
}

/// The divergence probes of one `f64` pass — a whole sequential sweep or
/// one worker's span — deferred out of the block loop. The loop only
/// copies each probe scenario's `f64` result rows
/// ([`capture`](Self::capture)) into buffers sized once for
/// [`F64_PROBES`] rows per side; when the pass ends,
/// [`finish`](Self::finish) binds the exact rows of the probes it
/// actually folded and evaluates each side in one lane pass of the exact
/// kernel. A stopped pass therefore records exactly the probes inside
/// its completed prefix, as an inline probe would.
struct DeferredProbes<'p> {
    /// Every probe index of the sweep, ascending.
    indices: &'p [usize],
    /// Position in `indices` of the next probe this pass can meet.
    next: usize,
    /// The probe scenarios captured so far, ascending.
    scenarios: Vec<usize>,
    full: Vec<f64>,
    compressed: Vec<f64>,
}

impl<'p> DeferredProbes<'p> {
    fn new(indices: &'p [usize], num_polys: usize) -> DeferredProbes<'p> {
        DeferredProbes {
            indices,
            next: 0,
            scenarios: Vec::with_capacity(indices.len()),
            full: Vec::with_capacity(indices.len() * num_polys),
            compressed: Vec::with_capacity(indices.len() * num_polys),
        }
    }

    /// Starts a pass whose first scenario is `start`.
    fn begin(&mut self, start: usize) {
        self.next = self.indices.partition_point(|&p| p < start);
    }

    /// Keeps scenario `i`'s `f64` rows when `i` is the next probe.
    fn capture(&mut self, i: usize, full: &[f64], compressed: &[f64]) {
        if self.indices.get(self.next) == Some(&i) {
            self.next += 1;
            self.scenarios.push(i);
            self.full.extend_from_slice(full);
            self.compressed.extend_from_slice(compressed);
        }
    }

    /// Evaluates the captured probes exactly (`use_fixed` is the caller's
    /// resolved exact-kernel choice) and records their divergence.
    fn finish(
        &self,
        binder: &mut PairBinder<'_>,
        engines: &CompiledComparison,
        use_fixed: bool,
    ) -> F64Divergence {
        let k = self.scenarios.len();
        let mut divergence = F64Divergence {
            probed: k,
            ..F64Divergence::default()
        };
        if k == 0 {
            return divergence;
        }
        let (full, compressed) = (&engines.full, &engines.compressed);
        let mut full_rows = vec![vec![Rat::ZERO; full.program().num_locals()]; k];
        let mut comp_rows = vec![vec![Rat::ZERO; compressed.program().num_locals()]; k];
        for (j, &i) in self.scenarios.iter().enumerate() {
            binder.bind_pair_into(i, &mut full_rows[j], &mut comp_rows[j]);
        }
        let mut exact = vec![Rat::ZERO; self.full.len()];
        let mut scratch = FixedScratch::new();
        full.eval_batch_exact_serial_with(use_fixed, &full_rows, &mut exact, &mut scratch);
        divergence.record(&exact, &self.full);
        compressed.eval_batch_exact_serial_with(use_fixed, &comp_rows, &mut exact, &mut scratch);
        divergence.record(&exact, &self.compressed);
        divergence
    }
}

/// How far one parallel worker got through its contiguous scenario span
/// before completing it or hitting the budget — the bookkeeping that lets
/// interrupted parallel sweeps report an exact prefix.
#[derive(Clone, Copy, Debug, Default)]
struct SpanProgress {
    start: usize,
    /// First scenario of the span **not** folded (== `end` when the span
    /// completed).
    done: usize,
    end: usize,
    reason: Option<StopReason>,
}

impl SpanProgress {
    fn begin(range: &std::ops::Range<usize>) -> SpanProgress {
        SpanProgress {
            start: range.start,
            done: range.start,
            end: range.end,
            reason: None,
        }
    }
}

/// Merges worker partials in ascending span order while the covered
/// prefix stays contiguous and complete: every fully completed span is
/// absorbed, the first interrupted span contributes its own completed
/// prefix and ends the merge, and everything after it is discarded. The
/// result is exactly the fold state of a sequential pass over
/// `0..returned_done` — the bit-identity contract of
/// [`SweepOutcome::Partial`].
fn merge_span_prefix<T>(
    partials: Vec<(SpanProgress, T)>,
    mut absorb: impl FnMut(T),
) -> (usize, Option<StopReason>) {
    let mut done = 0usize;
    let mut stop = None;
    for (span, payload) in partials {
        if span.start != done {
            break; // unreachable by construction; belt and braces
        }
        absorb(payload);
        done = span.done;
        if span.done < span.end {
            stop = span.reason;
            break;
        }
    }
    (done, stop)
}

/// Classifies a finished sweep: a dynamic stop wins, then a scenario cap
/// (`n_target < n`), otherwise the sweep is complete.
fn outcome_for<T>(
    fold: T,
    done: usize,
    n: usize,
    n_target: usize,
    stop: Option<StopReason>,
) -> SweepOutcome<T> {
    if done < n_target {
        SweepOutcome::Partial {
            fold,
            scenarios_done: done,
            reason: stop.unwrap_or(StopReason::Cancelled),
        }
    } else if n_target < n {
        SweepOutcome::Partial {
            fold,
            scenarios_done: done,
            reason: StopReason::ScenarioCap,
        }
    } else {
        SweepOutcome::Complete(fold)
    }
}

/// A **sound** per-sweep rounding-error certificate for the `f64` fast
/// path, computed by the Higham-style shadow fold of
/// [`CompiledComparison::sweep_fold_f64_bounded`]: alongside each block,
/// the absolute-value shadow programs ([`ErrorShadow`]) are evaluated on
/// the elementwise magnitudes of the same scenario rows, and
/// `γ_k · Σ|c|Π|x|^e` bounds each result's rounding error a priori.
///
/// The contract: for every swept scenario and polynomial, the true value
/// of the compiled polynomial **at the bound `f64` rows** differs from
/// the kernel's computed value by at most the recorded bound (coefficient
/// `Rat → f64` conversion included). Rounding suffered while *binding*
/// scenario rows is outside the certificate — the 16-sample
/// [`F64Divergence`] probe remains as the end-to-end empirical
/// complement. Unlike that probe, this bound covers **every** scenario,
/// not a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct F64ErrorBound {
    /// Scenarios covered by the certificate.
    pub scenarios: usize,
    /// Largest absolute rounding-error bound over all scenarios, result
    /// tuples and both sides.
    pub max_abs_bound: f64,
    /// Largest *relative* bound (`bound / |computed|`; 0 when both are
    /// zero, ∞ when a bound is positive at a zero computed value).
    pub max_rel_bound: f64,
    /// Earliest scenario index attaining `max_rel_bound`.
    pub argmax_rel: Option<usize>,
}

impl F64ErrorBound {
    fn record_scenario(&mut self, scenario: usize, abs_bound: f64, rel_bound: f64) {
        self.scenarios += 1;
        self.max_abs_bound = self.max_abs_bound.max(abs_bound);
        if self.argmax_rel.is_none() || rel_bound > self.max_rel_bound {
            self.max_rel_bound = rel_bound;
            self.argmax_rel = Some(scenario);
        }
    }

    /// Combines records over disjoint ascending scenario spans (`other`
    /// covers later scenarios): counts add, maxima max, and ties keep the
    /// earlier argmax — so the merged record is identical to sequential
    /// recording.
    fn merge(&mut self, other: F64ErrorBound) {
        self.scenarios += other.scenarios;
        self.max_abs_bound = self.max_abs_bound.max(other.max_abs_bound);
        if other.argmax_rel.is_some()
            && (self.argmax_rel.is_none() || other.max_rel_bound > self.max_rel_bound)
        {
            self.max_rel_bound = other.max_rel_bound;
            self.argmax_rel = other.argmax_rel;
        }
    }
}

/// The effective per-polynomial bound factor: `γ_k = k·u/(1−k·u)`
/// (Higham's a-priori constant, `u = 2⁻⁵³`), inflated once more by
/// `1/(1−γ_k)` because the Σ|c|Π|x| numerator is itself *computed* in
/// `f64` and may under-report by a `(1−γ_k)` factor. Saturates to ∞ when
/// `k·u` approaches 1 (astronomically long polynomials) — the bound is
/// then honest about knowing nothing.
fn gamma_eff(k: u32) -> f64 {
    let u = f64::EPSILON / 2.0;
    let ku = k as f64 * u;
    if ku >= 1.0 {
        return f64::INFINITY;
    }
    let g = ku / (1.0 - ku);
    if g >= 1.0 {
        f64::INFINITY
    } else {
        g / (1.0 - g)
    }
}

/// The Higham shadow of a full/compressed `f64` engine pair: the
/// absolute-coefficient twin programs
/// ([`EvalProgram::to_abs_program`]) plus per-polynomial `γ_k` factors
/// derived from [`EvalProgram::rounding_op_counts`]. Build it once per
/// compression (the session caches it) and pass it to
/// [`CompiledComparison::sweep_fold_f64_bounded`]; evaluating the shadow
/// roughly doubles the per-scenario kernel cost.
#[derive(Clone, Debug)]
pub struct ErrorShadow {
    full_abs: BatchEvaluator<f64>,
    comp_abs: BatchEvaluator<f64>,
    full_gamma: Vec<f64>,
    comp_gamma: Vec<f64>,
}

impl ErrorShadow {
    /// Builds the shadow for the `(full, compressed)` `f64` engines of a
    /// comparison (the same pair handed to the `sweep_fold_f64*`
    /// engines).
    pub fn new(full64: &BatchEvaluator<f64>, comp64: &BatchEvaluator<f64>) -> ErrorShadow {
        let gammas = |prog: &EvalProgram<f64>| -> Vec<f64> {
            prog.rounding_op_counts().into_iter().map(gamma_eff).collect()
        };
        ErrorShadow {
            full_abs: BatchEvaluator::new(full64.program().to_abs_program()),
            comp_abs: BatchEvaluator::new(comp64.program().to_abs_program()),
            full_gamma: gammas(full64.program()),
            comp_gamma: gammas(comp64.program()),
        }
    }

    /// Records one scenario's certificate given both sides' computed
    /// values and the abs-shadow values (all in label order).
    fn record(
        &self,
        bound: &mut F64ErrorBound,
        scenario: usize,
        full: &[f64],
        comp: &[f64],
        full_abs: &[f64],
        comp_abs: &[f64],
    ) {
        let mut abs_max = 0.0f64;
        let mut rel_max = 0.0f64;
        let mut side = |vals: &[f64], abs_vals: &[f64], gamma: &[f64]| {
            for ((&v, &a), &g) in vals.iter().zip(abs_vals).zip(gamma) {
                let b = g * a;
                abs_max = abs_max.max(b);
                let rel = if b == 0.0 {
                    0.0
                } else if v == 0.0 {
                    f64::INFINITY
                } else {
                    b / v.abs()
                };
                rel_max = rel_max.max(rel);
            }
        };
        side(full, full_abs, &self.full_gamma);
        side(comp, comp_abs, &self.comp_gamma);
        bound.record_scenario(scenario, abs_max, rel_max);
    }
}

/// The full-vs-compressed engines for one compression outcome, compiled
/// once and reusable across any number of sweeps. Cloning shares the
/// underlying programs (see [`BatchEvaluator`]), so a session-invariant
/// full-side program can be cached and paired with each new compression.
#[derive(Clone, Debug)]
pub struct CompiledComparison {
    /// Batched evaluator over the full provenance (exact coefficients).
    pub full: BatchEvaluator<Rat>,
    /// Batched evaluator over the compressed provenance.
    pub compressed: BatchEvaluator<Rat>,
}

impl CompiledComparison {
    /// Compiles both sides.
    pub fn compile(full: &PolySet<Rat>, compressed: &PolySet<Rat>) -> CompiledComparison {
        CompiledComparison {
            full: BatchEvaluator::compile(full),
            compressed: BatchEvaluator::compile(compressed),
        }
    }

    /// Pairs two already-compiled engines (e.g. a cached full-side program
    /// with a freshly compressed side).
    pub fn from_engines(
        full: BatchEvaluator<Rat>,
        compressed: BatchEvaluator<Rat>,
    ) -> CompiledComparison {
        CompiledComparison { full, compressed }
    }

    /// Evaluates every scenario of `set` on both sides, streaming grid
    /// scenarios straight into the batch kernels in blocks — see
    /// [`sweep_full_vs_compressed`] for the scenario semantics. This is
    /// [`sweep_fold`](Self::sweep_fold) with an appending fold: the only
    /// O(scenarios) memory is the returned result matrix itself.
    pub fn sweep(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
    ) -> ScenarioSweep {
        let n = set.len();
        let np = self.full.program().num_polys();
        let init = (
            Vec::with_capacity(n * np),
            Vec::with_capacity(n * np),
        );
        let (full, compressed) = self.sweep_fold(metas, base, set, init, |(mut f, mut c), item| {
            f.extend_from_slice(item.full);
            c.extend_from_slice(item.compressed);
            (f, c)
        });
        ScenarioSweep {
            labels: self.full.program().labels().to_vec(),
            num_scenarios: n,
            full,
            compressed,
        }
    }

    /// Streams every scenario of `set` through both compiled engines and
    /// folds the per-scenario results into an accumulator — the streaming
    /// heart every sweep surface is built on. Scenarios are bound in
    /// blocks by the allocation-free [`PairBinder`], evaluated through
    /// the batch kernels, and handed to `f` in enumeration order as
    /// [`FoldItem`]s; peak transient memory is O(block × row) regardless
    /// of the set's cardinality, so a 10⁷-scenario grid aggregates in
    /// O(1) output memory.
    ///
    /// # Panics
    /// Panics if the two programs' polynomial counts differ, or under the
    /// [`PairBinder`] totality rules (grids need a total `base`).
    pub fn sweep_fold<A>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        init: A,
        f: impl FnMut(A, FoldItem<'_, Rat>) -> A,
    ) -> A {
        match self.sweep_fold_budgeted(metas, base, set, &SweepBudget::unlimited(), init, f) {
            Ok(outcome) => outcome.into_fold(),
            Err(_) => unreachable!("unlimited budgets cannot fail"),
        }
    }

    /// [`sweep_fold`](Self::sweep_fold) under a [`SweepBudget`]: the
    /// budget's dynamic limits (deadline, token) are polled at **block
    /// granularity** and a scenario cap deterministically clamps the swept
    /// range, so an exhausted budget returns
    /// [`SweepOutcome::Partial`] — the exact fold over the scenario
    /// prefix completed, never a torn or approximate state. An unlimited
    /// budget adds one branch per ~10³-scenario block to the hot loop.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// when the budget is statically unsatisfiable (scenario cap 0 over a
    /// non-empty set).
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold`](Self::sweep_fold).
    pub fn sweep_fold_budgeted<A>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        init: A,
        mut f: impl FnMut(A, FoldItem<'_, Rat>) -> A,
    ) -> Result<SweepOutcome<A>> {
        let n = set.len();
        budget.validate(n)?;
        let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
        let np = self.full.program().num_polys();
        assert_eq!(
            np,
            self.compressed.program().num_polys(),
            "polynomial sets must align"
        );
        let mut binder = PairBinder::new(self, metas, base, set);
        let locals = self
            .full
            .program()
            .num_locals()
            .max(self.compressed.program().num_locals());
        let block = stream_block(np, locals).min(n_target.max(1));
        let mut full_rows: Vec<Vec<Rat>> = (0..block)
            .map(|_| vec![Rat::ZERO; self.full.program().num_locals()])
            .collect();
        let mut comp_rows: Vec<Vec<Rat>> = (0..block)
            .map(|_| vec![Rat::ZERO; self.compressed.program().num_locals()])
            .collect();
        let mut full_out = vec![Rat::ZERO; block * np];
        let mut comp_out = vec![Rat::ZERO; block * np];
        let mut scratch = FixedScratch::new();
        let check = budget.has_dynamic_limits();
        let mut acc = init;
        let mut start = 0;
        let mut stop = None;
        while start < n_target {
            faults::point(faults::Site::Block);
            if check {
                if let Some(reason) = budget.stop_reason() {
                    stop = Some(reason);
                    break;
                }
            }
            let width = block.min(n_target - start);
            for k in 0..width {
                let (frow, crow) = (&mut full_rows[k], &mut comp_rows[k]);
                // split borrows: binder needs &mut self for its scratch
                binder.bind_pair_into(start + k, frow, crow);
            }
            self.full.eval_batch_exact_reusing(
                &full_rows[..width],
                &mut full_out[..width * np],
                &mut scratch,
            );
            self.compressed.eval_batch_exact_reusing(
                &comp_rows[..width],
                &mut comp_out[..width * np],
                &mut scratch,
            );
            for k in 0..width {
                acc = f(
                    acc,
                    FoldItem {
                        scenario: start + k,
                        full: &full_out[k * np..(k + 1) * np],
                        compressed: &comp_out[k * np..(k + 1) * np],
                    },
                );
            }
            start += width;
        }
        Ok(outcome_for(acc, start, n, n_target, stop))
    }

    /// [`sweep_fold`](Self::sweep_fold) with **binding and evaluation
    /// fanned across cores**: the scenario range is split into contiguous
    /// per-worker spans ([`cobra_util::par::par_owned_spans`]), each
    /// worker owns its own [`PairBinder`], batch buffers and a fold
    /// replica ([`MergeFold::init`]), and the partial accumulators merge
    /// back in ascending span order ([`MergeFold::merge`]). The sequential
    /// fold engine streams blocks one at a time — only each block's
    /// *evaluation* used the cores, while binding (the dominant cost for
    /// compressed programs) ran on one thread; here whole spans bind and
    /// evaluate concurrently, lifting that bottleneck at 10⁷⁺ scenarios.
    ///
    /// Results are **bit-identical** to
    /// [`sweep_fold`](Self::sweep_fold)`(…, fold, folds::step)` at any
    /// thread count (`COBRA_THREADS` or
    /// [`cobra_util::par::with_threads`]): workers
    /// accept disjoint ascending spans, evaluation is per-scenario
    /// deterministic, and the [`MergeFold`] laws make the ordered merge
    /// equal to one sequential pass.
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold`](Self::sweep_fold).
    pub fn sweep_fold_par<F: MergeFold + Send + Sync>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        fold: F,
    ) -> F {
        match self.sweep_fold_par_impl(metas, base, set, &SweepBudget::unlimited(), fold) {
            Ok(outcome) => outcome.into_fold(),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// [`sweep_fold_par`](Self::sweep_fold_par) under a [`SweepBudget`],
    /// with worker faults isolated: every worker polls the budget at
    /// block granularity, an interrupted sweep merges the completed span
    /// prefixes into a [`SweepOutcome::Partial`] **bit-identical to a
    /// sequential fold over the same prefix**, and a panicking worker is
    /// caught at its span boundary (sibling workers are cancelled) and
    /// surfaced as
    /// [`CoreError::WorkerPanicked`](crate::error::CoreError::WorkerPanicked)
    /// instead of aborting the process.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// for statically unsatisfiable budgets;
    /// [`CoreError::WorkerPanicked`](crate::error::CoreError::WorkerPanicked)
    /// when a worker panicked (the process and the engines stay usable).
    ///
    /// # Panics
    /// Same binder/shape conditions as [`sweep_fold`](Self::sweep_fold).
    pub fn sweep_fold_par_budgeted<F: MergeFold + Send + Sync>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        fold: F,
    ) -> Result<SweepOutcome<F>> {
        budget.validate(set.len())?;
        self.sweep_fold_par_impl(metas, base, set, budget, fold)
            .map_err(|payload| crate::error::CoreError::WorkerPanicked(par::panic_message(&payload)))
    }

    fn sweep_fold_par_impl<F: MergeFold + Send + Sync>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        fold: F,
    ) -> std::result::Result<SweepOutcome<F>, par::WorkerPanic> {
        let n = set.len();
        let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
        let np = self.full.program().num_polys();
        assert_eq!(
            np,
            self.compressed.program().num_polys(),
            "polynomial sets must align"
        );
        if n_target == 0 {
            return Ok(outcome_for(fold, 0, n, n_target, None));
        }
        let locals = self
            .full
            .program()
            .num_locals()
            .max(self.compressed.program().num_locals());
        let block = stream_block(np, locals).min(n_target);
        let check = budget.has_dynamic_limits();
        // Kernel overrides are thread-local: resolve the exact-path choice
        // here on the calling thread and hand it to every worker.
        let use_fixed = kernel::exact_fixed_enabled();
        let abort = CancelToken::new();
        let partials = par::try_par_owned_spans(
            n_target,
            1,
            &abort,
            || {
                let full_rows: Vec<Vec<Rat>> = (0..block)
                    .map(|_| vec![Rat::ZERO; self.full.program().num_locals()])
                    .collect();
                let comp_rows: Vec<Vec<Rat>> = (0..block)
                    .map(|_| vec![Rat::ZERO; self.compressed.program().num_locals()])
                    .collect();
                (
                    PairBinder::new(self, metas, base, set),
                    full_rows,
                    comp_rows,
                    vec![Rat::ZERO; block * np],
                    vec![Rat::ZERO; block * np],
                    fold.init(),
                    SpanProgress::default(),
                    FixedScratch::new(),
                )
            },
            |state, range| {
                let (binder, full_rows, comp_rows, full_out, comp_out, f, span, scratch) = state;
                *span = SpanProgress::begin(&range);
                let mut start = range.start;
                while start < range.end {
                    faults::point(faults::Site::Block);
                    if abort.is_cancelled() {
                        span.reason = Some(StopReason::Cancelled);
                        break;
                    }
                    if check {
                        if let Some(reason) = budget.stop_reason() {
                            span.reason = Some(reason);
                            break;
                        }
                    }
                    let width = block.min(range.end - start);
                    for k in 0..width {
                        binder.bind_pair_into(start + k, &mut full_rows[k], &mut comp_rows[k]);
                    }
                    self.full.eval_batch_exact_serial_with(
                        use_fixed,
                        &full_rows[..width],
                        &mut full_out[..width * np],
                        scratch,
                    );
                    self.compressed.eval_batch_exact_serial_with(
                        use_fixed,
                        &comp_rows[..width],
                        &mut comp_out[..width * np],
                        scratch,
                    );
                    for k in 0..width {
                        f.accept(FoldItem {
                            scenario: start + k,
                            full: &full_out[k * np..(k + 1) * np],
                            compressed: &comp_out[k * np..(k + 1) * np],
                        });
                    }
                    start += width;
                    span.done = start;
                }
            },
        )?;
        let mut fold = fold;
        let (done, stop) = merge_span_prefix(
            partials.into_iter().map(|p| (p.6, p.5)).collect(),
            |partial| fold.merge(partial),
        );
        Ok(outcome_for(fold, done, n, n_target, stop))
    }

    /// [`sweep_fold`](Self::sweep_fold) on the approximate `f64` fast
    /// path: scenarios are bound directly as `f64` rows
    /// ([`PairBinder::bind_pair_into_f64`]) and each block is evaluated
    /// through the lane kernel
    /// ([`BatchEvaluator::eval_batch_fast_into`]), so large grids
    /// aggregate at the lane-kernel per-scenario cost instead of exact
    /// `Rat` arithmetic. Up to [`F64_PROBES`] evenly spaced scenarios are
    /// additionally re-evaluated on the exact engines — deferred to the
    /// end of the sweep and evaluated in one batched lane pass per side —
    /// and the returned [`F64Divergence`] records the largest observed
    /// deviation.
    ///
    /// `shadows` is the `(full, compressed)` pair of `f64` shadow engines
    /// of this comparison's exact programs
    /// ([`EvalProgram::to_f64_program`] preserves the variable numbering,
    /// so the rows bind directly).
    ///
    /// # Panics
    /// Panics if the shadow programs' shapes do not match the exact ones,
    /// or under the [`PairBinder`] totality rules.
    pub fn sweep_fold_f64<A>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        init: A,
        f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> (A, F64Divergence) {
        match self.sweep_fold_f64_impl(shadows, None, metas, base, set, &SweepBudget::unlimited(), init, f)
        {
            Ok((outcome, divergence, _)) => (outcome.into_fold(), divergence),
            Err(_) => unreachable!("unlimited budgets cannot fail"),
        }
    }

    /// [`sweep_fold_f64`](Self::sweep_fold_f64) under a [`SweepBudget`]:
    /// the fast path's sibling of
    /// [`sweep_fold_budgeted`](Self::sweep_fold_budgeted). The divergence
    /// record of a [`SweepOutcome::Partial`] covers exactly the probe
    /// scenarios inside the completed prefix: the deferred probes are
    /// evaluated for the scenarios actually folded.
    ///
    /// Those probes run after the last budget poll, so a stopped sweep
    /// overruns its deadline or cancellation by up to one block plus the
    /// exact evaluation of the probes it captured: one batched
    /// fixed-point pass per side, or — under `COBRA_KERNEL=scalar`, or
    /// for rows beyond the kernel's integer tiers — up to [`F64_PROBES`]
    /// plain `Rat` walks per side.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// when the budget is statically unsatisfiable.
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold_f64`](Self::sweep_fold_f64).
    #[allow(clippy::too_many_arguments)] // low-level engine surface; the session wraps it
    pub fn sweep_fold_f64_budgeted<A>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        init: A,
        f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> Result<(SweepOutcome<A>, F64Divergence)> {
        budget.validate(set.len())?;
        let (outcome, divergence, _) =
            self.sweep_fold_f64_impl(shadows, None, metas, base, set, budget, init, f)?;
        Ok((outcome, divergence))
    }

    /// [`sweep_fold_f64_budgeted`](Self::sweep_fold_f64_budgeted) with a
    /// **sound rounding certificate** instead of the sampled divergence
    /// probe: the [`ErrorShadow`]'s absolute-value twin programs are
    /// evaluated alongside every block (≈2× kernel cost) and the returned
    /// [`F64ErrorBound`] bounds the rounding error of *every* folded
    /// scenario a priori — see [`F64ErrorBound`] for the exact contract.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// when the budget is statically unsatisfiable.
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold_f64`](Self::sweep_fold_f64), plus
    /// a shape mismatch between `err` and the shadow engines.
    #[allow(clippy::too_many_arguments)] // low-level engine surface; the session wraps it
    pub fn sweep_fold_f64_bounded<A>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        err: &ErrorShadow,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        init: A,
        f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> Result<(SweepOutcome<A>, F64ErrorBound)> {
        budget.validate(set.len())?;
        let (outcome, _, bound) =
            self.sweep_fold_f64_impl(shadows, Some(err), metas, base, set, budget, init, f)?;
        Ok((outcome, bound))
    }

    /// The one sequential `f64` engine behind the plain, budgeted and
    /// bounded surfaces. With an [`ErrorShadow`] the Higham certificate
    /// replaces the divergence probes (and vice versa), so each surface
    /// pays only for what it reports.
    #[allow(clippy::too_many_arguments)]
    fn sweep_fold_f64_impl<A>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        err: Option<&ErrorShadow>,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        init: A,
        mut f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> Result<(SweepOutcome<A>, F64Divergence, F64ErrorBound)> {
        let (full64, comp64) = shadows;
        let n = set.len();
        let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
        let np = self.full.program().num_polys();
        self.assert_f64_shadows(full64, comp64);
        let mut binder = PairBinder::new(self, metas, base, set);
        let locals = self
            .full
            .program()
            .num_locals()
            .max(self.compressed.program().num_locals());
        let block = stream_block(np, locals).min(n_target.max(1));
        let mut full_rows: Vec<Vec<f64>> = (0..block)
            .map(|_| vec![0.0; self.full.program().num_locals()])
            .collect();
        let mut comp_rows: Vec<Vec<f64>> = (0..block)
            .map(|_| vec![0.0; self.compressed.program().num_locals()])
            .collect();
        let mut full_out = vec![0.0f64; block * np];
        let mut comp_out = vec![0.0f64; block * np];

        // Evenly spaced probe indices, deduplicated (n may be < F64_PROBES);
        // the bounded path certifies every scenario instead of sampling.
        let probes = if err.is_some() {
            Vec::new()
        } else {
            f64_probe_indices(n)
        };
        let mut deferred = DeferredProbes::new(&probes, np);

        // Higham-shadow buffers (unused, empty when no shadow is given).
        let mut bound = F64ErrorBound::default();
        let mut abs_rows: Vec<Vec<f64>> = Vec::new();
        let mut abs_comp_rows: Vec<Vec<f64>> = Vec::new();
        let mut abs_full_out = Vec::new();
        let mut abs_comp_out = Vec::new();
        if err.is_some() {
            abs_rows = (0..block)
                .map(|_| vec![0.0; self.full.program().num_locals()])
                .collect();
            abs_comp_rows = (0..block)
                .map(|_| vec![0.0; self.compressed.program().num_locals()])
                .collect();
            abs_full_out = vec![0.0f64; block * np];
            abs_comp_out = vec![0.0f64; block * np];
        }

        let check = budget.has_dynamic_limits();
        let mut acc = init;
        let mut start = 0;
        let mut stop = None;
        while start < n_target {
            faults::point(faults::Site::Block);
            if check {
                if let Some(reason) = budget.stop_reason() {
                    stop = Some(reason);
                    break;
                }
            }
            let width = block.min(n_target - start);
            for k in 0..width {
                let (frow, crow) = (&mut full_rows[k], &mut comp_rows[k]);
                binder.bind_pair_into_f64(start + k, frow, crow);
            }
            full64.eval_batch_fast_into(&full_rows[..width], &mut full_out[..width * np]);
            comp64.eval_batch_fast_into(&comp_rows[..width], &mut comp_out[..width * np]);
            if let Some(err) = err {
                for k in 0..width {
                    for (a, &x) in abs_rows[k].iter_mut().zip(&full_rows[k]) {
                        *a = x.abs();
                    }
                    for (a, &x) in abs_comp_rows[k].iter_mut().zip(&comp_rows[k]) {
                        *a = x.abs();
                    }
                }
                err.full_abs
                    .eval_batch_fast_into(&abs_rows[..width], &mut abs_full_out[..width * np]);
                err.comp_abs
                    .eval_batch_fast_into(&abs_comp_rows[..width], &mut abs_comp_out[..width * np]);
            }
            for k in 0..width {
                let i = start + k;
                let full = &full_out[k * np..(k + 1) * np];
                let compressed = &comp_out[k * np..(k + 1) * np];
                deferred.capture(i, full, compressed);
                if let Some(err) = err {
                    err.record(
                        &mut bound,
                        i,
                        full,
                        compressed,
                        &abs_full_out[k * np..(k + 1) * np],
                        &abs_comp_out[k * np..(k + 1) * np],
                    );
                }
                acc = f(
                    acc,
                    FoldItem {
                        scenario: i,
                        full,
                        compressed,
                    },
                );
            }
            start += width;
        }
        let divergence = deferred.finish(&mut binder, self, kernel::exact_fixed_enabled());
        Ok((outcome_for(acc, start, n, n_target, stop), divergence, bound))
    }

    /// [`sweep_fold_f64`](Self::sweep_fold_f64) with binding, lane-kernel
    /// evaluation **and** the divergence probes fanned across cores — the
    /// parallel sibling pairing [`sweep_fold_par`](Self::sweep_fold_par)
    /// with the `f64` fast path. Each worker owns a [`PairBinder`], `f64`
    /// row/result buffers, one [`LaneScratch`] (reused across all of its
    /// blocks) and a fold replica; each worker keeps the probe scenarios
    /// falling inside its own span and evaluates them in one batched
    /// exact pass when its span ends, so the merged [`F64Divergence`]
    /// covers the same probes as the sequential engine.
    ///
    /// Per scenario the lane kernel performs the same multiply/add
    /// sequence regardless of blocking or worker, so the fold output and
    /// the divergence record are bit-identical to
    /// [`sweep_fold_f64`](Self::sweep_fold_f64) at any thread count.
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold_f64`](Self::sweep_fold_f64).
    pub fn sweep_fold_f64_par<F: MergeFold + Send + Sync>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        fold: F,
    ) -> (F, F64Divergence) {
        match self.sweep_fold_f64_par_impl(shadows, None, metas, base, set, &SweepBudget::unlimited(), fold)
        {
            Ok((outcome, divergence, _)) => (outcome.into_fold(), divergence),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// [`sweep_fold_f64_par`](Self::sweep_fold_f64_par) under a
    /// [`SweepBudget`] with worker faults isolated — the fast path's
    /// sibling of
    /// [`sweep_fold_par_budgeted`](Self::sweep_fold_par_budgeted). A
    /// partial outcome's divergence record covers exactly the probes
    /// inside the completed prefix: each worker evaluates the deferred
    /// probes of the scenarios it folded, after its last budget poll —
    /// the overrun past a stop is that of
    /// [`sweep_fold_f64_budgeted`](Self::sweep_fold_f64_budgeted), per
    /// worker.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// for statically unsatisfiable budgets;
    /// [`CoreError::WorkerPanicked`](crate::error::CoreError::WorkerPanicked)
    /// when a worker panicked (the process and the engines stay usable).
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold_f64`](Self::sweep_fold_f64).
    pub fn sweep_fold_f64_par_budgeted<F: MergeFold + Send + Sync>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        fold: F,
    ) -> Result<(SweepOutcome<F>, F64Divergence)> {
        budget.validate(set.len())?;
        let (outcome, divergence, _) = self
            .sweep_fold_f64_par_impl(shadows, None, metas, base, set, budget, fold)
            .map_err(|payload| {
                crate::error::CoreError::WorkerPanicked(par::panic_message(&payload))
            })?;
        Ok((outcome, divergence))
    }

    /// [`sweep_fold_f64_bounded`](Self::sweep_fold_f64_bounded) fanned
    /// across cores: every worker evaluates the [`ErrorShadow`] alongside
    /// its own spans, and the certificates merge in span order, so both
    /// the fold and the [`F64ErrorBound`] are bit-identical to the
    /// sequential bounded engine at any thread count.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
    /// for statically unsatisfiable budgets;
    /// [`CoreError::WorkerPanicked`](crate::error::CoreError::WorkerPanicked)
    /// when a worker panicked (the process and the engines stay usable).
    ///
    /// # Panics
    /// Same conditions as [`sweep_fold_f64`](Self::sweep_fold_f64).
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_fold_f64_bounded_par<F: MergeFold + Send + Sync>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        err: &ErrorShadow,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        fold: F,
    ) -> Result<(SweepOutcome<F>, F64ErrorBound)> {
        budget.validate(set.len())?;
        let (outcome, _, bound) = self
            .sweep_fold_f64_par_impl(shadows, Some(err), metas, base, set, budget, fold)
            .map_err(|payload| {
                crate::error::CoreError::WorkerPanicked(par::panic_message(&payload))
            })?;
        Ok((outcome, bound))
    }

    /// The one parallel `f64` engine behind the plain, budgeted and
    /// bounded surfaces (see
    /// [`sweep_fold_f64_impl`](Self::sweep_fold_f64_impl) for the
    /// probe-vs-certificate split).
    #[allow(clippy::too_many_arguments)]
    fn sweep_fold_f64_par_impl<F: MergeFold + Send + Sync>(
        &self,
        shadows: (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        err: Option<&ErrorShadow>,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        budget: &SweepBudget,
        fold: F,
    ) -> std::result::Result<(SweepOutcome<F>, F64Divergence, F64ErrorBound), par::WorkerPanic>
    {
        let (full64, comp64) = shadows;
        let n = set.len();
        let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
        let np = self.full.program().num_polys();
        self.assert_f64_shadows(full64, comp64);
        if n_target == 0 {
            return Ok((
                outcome_for(fold, 0, n, n_target, None),
                F64Divergence::default(),
                F64ErrorBound::default(),
            ));
        }
        let locals = self
            .full
            .program()
            .num_locals()
            .max(self.compressed.program().num_locals());
        let block = stream_block(np, locals).min(n_target);
        let probes = if err.is_some() {
            Vec::new()
        } else {
            f64_probe_indices(n)
        };
        let check = budget.has_dynamic_limits();
        // Kernel overrides are thread-local: resolve the lane-kernel
        // choice (and the exact-kernel choice the divergence probes
        // follow) here on the calling thread and hand it to every worker.
        let kern = kernel::current();
        let use_fixed = kernel::exact_fixed_enabled();
        let abort = CancelToken::new();

        struct Worker<'a, F> {
            binder: PairBinder<'a>,
            full_rows: Vec<Vec<f64>>,
            comp_rows: Vec<Vec<f64>>,
            full_out: Vec<f64>,
            comp_out: Vec<f64>,
            scratch: LaneScratch,
            probes: DeferredProbes<'a>,
            divergence: F64Divergence,
            abs_rows: Vec<Vec<f64>>,
            abs_comp_rows: Vec<Vec<f64>>,
            abs_full_out: Vec<f64>,
            abs_comp_out: Vec<f64>,
            bound: F64ErrorBound,
            fold: F,
            span: SpanProgress,
        }

        let partials = par::try_par_owned_spans(
            n_target,
            1,
            &abort,
            || Worker {
                binder: PairBinder::new(self, metas, base, set),
                full_rows: (0..block)
                    .map(|_| vec![0.0f64; self.full.program().num_locals()])
                    .collect(),
                comp_rows: (0..block)
                    .map(|_| vec![0.0f64; self.compressed.program().num_locals()])
                    .collect(),
                full_out: vec![0.0f64; block * np],
                comp_out: vec![0.0f64; block * np],
                scratch: LaneScratch::new(),
                probes: DeferredProbes::new(&probes, np),
                divergence: F64Divergence::default(),
                abs_rows: if err.is_some() {
                    (0..block)
                        .map(|_| vec![0.0f64; self.full.program().num_locals()])
                        .collect()
                } else {
                    Vec::new()
                },
                abs_comp_rows: if err.is_some() {
                    (0..block)
                        .map(|_| vec![0.0f64; self.compressed.program().num_locals()])
                        .collect()
                } else {
                    Vec::new()
                },
                abs_full_out: if err.is_some() {
                    vec![0.0f64; block * np]
                } else {
                    Vec::new()
                },
                abs_comp_out: if err.is_some() {
                    vec![0.0f64; block * np]
                } else {
                    Vec::new()
                },
                bound: F64ErrorBound::default(),
                fold: fold.init(),
                span: SpanProgress::default(),
            },
            |w, range| {
                w.span = SpanProgress::begin(&range);
                w.probes.begin(range.start);
                let mut start = range.start;
                while start < range.end {
                    faults::point(faults::Site::Block);
                    if abort.is_cancelled() {
                        w.span.reason = Some(StopReason::Cancelled);
                        break;
                    }
                    if check {
                        if let Some(reason) = budget.stop_reason() {
                            w.span.reason = Some(reason);
                            break;
                        }
                    }
                    let width = block.min(range.end - start);
                    for k in 0..width {
                        w.binder.bind_pair_into_f64(
                            start + k,
                            &mut w.full_rows[k],
                            &mut w.comp_rows[k],
                        );
                    }
                    full64.eval_batch_fast_serial_with(
                        kern,
                        &w.full_rows[..width],
                        &mut w.full_out[..width * np],
                        &mut w.scratch,
                    );
                    comp64.eval_batch_fast_serial_with(
                        kern,
                        &w.comp_rows[..width],
                        &mut w.comp_out[..width * np],
                        &mut w.scratch,
                    );
                    if let Some(err) = err {
                        for k in 0..width {
                            for (a, &x) in w.abs_rows[k].iter_mut().zip(&w.full_rows[k]) {
                                *a = x.abs();
                            }
                            for (a, &x) in w.abs_comp_rows[k].iter_mut().zip(&w.comp_rows[k]) {
                                *a = x.abs();
                            }
                        }
                        err.full_abs.eval_batch_fast_serial_with(
                            kern,
                            &w.abs_rows[..width],
                            &mut w.abs_full_out[..width * np],
                            &mut w.scratch,
                        );
                        err.comp_abs.eval_batch_fast_serial_with(
                            kern,
                            &w.abs_comp_rows[..width],
                            &mut w.abs_comp_out[..width * np],
                            &mut w.scratch,
                        );
                    }
                    for k in 0..width {
                        let i = start + k;
                        let full = &w.full_out[k * np..(k + 1) * np];
                        let compressed = &w.comp_out[k * np..(k + 1) * np];
                        w.probes.capture(i, full, compressed);
                        if let Some(err) = err {
                            err.record(
                                &mut w.bound,
                                i,
                                full,
                                compressed,
                                &w.abs_full_out[k * np..(k + 1) * np],
                                &w.abs_comp_out[k * np..(k + 1) * np],
                            );
                        }
                        w.fold.accept(FoldItem {
                            scenario: i,
                            full,
                            compressed,
                        });
                    }
                    start += width;
                    w.span.done = start;
                }
                w.divergence = w.probes.finish(&mut w.binder, self, use_fixed);
            },
        )?;
        let mut fold = fold;
        let mut divergence = F64Divergence::default();
        let mut bound = F64ErrorBound::default();
        let (done, stop) = merge_span_prefix(
            partials
                .into_iter()
                .map(|w| (w.span, (w.fold, w.divergence, w.bound)))
                .collect(),
            |(f, d, b)| {
                fold.merge(f);
                divergence.merge(d);
                bound.merge(b);
            },
        );
        Ok((outcome_for(fold, done, n, n_target, stop), divergence, bound))
    }

    /// Shared shape checks for the `f64` shadow engines.
    fn assert_f64_shadows(&self, full64: &BatchEvaluator<f64>, comp64: &BatchEvaluator<f64>) {
        let np = self.full.program().num_polys();
        assert_eq!(
            np,
            self.compressed.program().num_polys(),
            "polynomial sets must align"
        );
        assert_eq!(
            full64.program().num_polys(),
            np,
            "f64 shadow must mirror the exact full program"
        );
        assert_eq!(
            full64.program().num_locals(),
            self.full.program().num_locals(),
            "f64 shadow must share the full program's variable numbering"
        );
        assert_eq!(
            comp64.program().num_polys(),
            np,
            "f64 shadow must mirror the exact compressed program"
        );
        assert_eq!(
            comp64.program().num_locals(),
            self.compressed.program().num_locals(),
            "f64 shadow must share the compressed program's variable numbering"
        );
    }

    /// Projects and binds every scenario of `set` into materialized
    /// full/compressed row pairs, mapping each value through `map` — the
    /// shared project-and-bind loop behind both the exact sweep and the
    /// `f64` timing path
    /// ([`CobraSession::measure_batch_speedup`](crate::session::CobraSession::measure_batch_speedup)).
    /// `map` is typically the identity (exact rows) or `Rat::to_f64`
    /// (timing rows; the `f64` shadow programs share this program's
    /// variable numbering, so the rows bind directly).
    ///
    /// Unlike [`sweep`](Self::sweep), this deliberately materializes
    /// O(set × locals) row memory: timing paths bind once up front so the
    /// measured runs cover evaluation only. Use `sweep` for result
    /// computation over very large grids.
    pub fn bind_rows<C: Coeff>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        map: impl Fn(&Rat) -> C,
    ) -> (Vec<Vec<C>>, Vec<Vec<C>>) {
        let mut binder = PairBinder::new(self, metas, base, set);
        let mut frow = vec![Rat::ZERO; self.full.program().num_locals()];
        let mut crow = vec![Rat::ZERO; self.compressed.program().num_locals()];
        let mut full_rows = Vec::with_capacity(set.len());
        let mut comp_rows = Vec::with_capacity(set.len());
        for i in 0..set.len() {
            binder.bind_pair_into(i, &mut frow, &mut crow);
            full_rows.push(frow.iter().map(&map).collect());
            comp_rows.push(crow.iter().map(&map).collect());
        }
        (full_rows, comp_rows)
    }
}

/// Results of a batched scenario sweep, stored flat: the labels once and
/// one `num_polys`-wide row of exact values per scenario per side —
/// O(scenarios × polynomials) memory with no per-scenario `String`s.
#[derive(Clone, Debug, Default)]
pub struct ScenarioSweep {
    labels: Vec<String>,
    num_scenarios: usize,
    /// Scenario-major full-provenance values (`num_scenarios × num_polys`).
    full: Vec<Rat>,
    /// Scenario-major compressed-provenance values.
    compressed: Vec<Rat>,
}

impl ScenarioSweep {
    /// Number of scenarios evaluated.
    pub fn len(&self) -> usize {
        self.num_scenarios
    }

    /// True iff no scenario was evaluated.
    pub fn is_empty(&self) -> bool {
        self.num_scenarios == 0
    }

    /// Number of result tuples per scenario.
    pub fn num_polys(&self) -> usize {
        self.labels.len()
    }

    /// Result-tuple labels, shared by every scenario.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Full-provenance results of one scenario, in label order.
    pub fn full_row(&self, scenario: usize) -> &[Rat] {
        let np = self.labels.len();
        &self.full[scenario * np..(scenario + 1) * np]
    }

    /// Compressed-provenance results of one scenario, in label order.
    pub fn compressed_row(&self, scenario: usize) -> &[Rat] {
        let np = self.labels.len();
        &self.compressed[scenario * np..(scenario + 1) * np]
    }

    /// Materializes the side-by-side comparison of one scenario.
    pub fn comparison(&self, scenario: usize) -> ResultComparison {
        compare_rows(
            &self.labels,
            self.full_row(scenario).to_vec(),
            self.compressed_row(scenario).to_vec(),
        )
    }

    /// Iterates materialized comparisons in scenario order.
    pub fn comparisons(&self) -> impl ExactSizeIterator<Item = ResultComparison> + '_ {
        (0..self.num_scenarios).map(|s| self.comparison(s))
    }

    /// Largest relative error over every scenario and result tuple.
    pub fn max_rel_error(&self) -> f64 {
        self.full
            .iter()
            .zip(&self.compressed)
            .map(|(f, c)| assign::rel_error_value(f, c))
            .fold(0.0, f64::max)
    }

    /// Largest relative error within one scenario.
    pub fn scenario_max_rel_error(&self, scenario: usize) -> f64 {
        self.full_row(scenario)
            .iter()
            .zip(self.compressed_row(scenario))
            .map(|(f, c)| assign::rel_error_value(f, c))
            .fold(0.0, f64::max)
    }

    /// True iff compression introduced no error in any scenario.
    pub fn is_exact(&self) -> bool {
        self.full == self.compressed
    }
}

/// Results of an **approximate** batched sweep
/// ([`CobraSession::sweep_f64`](crate::session::CobraSession::sweep_f64)):
/// the `f64` sibling of [`ScenarioSweep`], stored flat (labels once, one
/// `num_polys`-wide row per scenario per side) with the measured
/// [`F64Divergence`] of the fast path attached.
#[derive(Clone, Debug, Default)]
pub struct F64ScenarioSweep {
    pub(crate) labels: Vec<String>,
    pub(crate) num_scenarios: usize,
    pub(crate) full: Vec<f64>,
    pub(crate) compressed: Vec<f64>,
    pub(crate) divergence: F64Divergence,
}

impl F64ScenarioSweep {
    /// Number of scenarios evaluated.
    pub fn len(&self) -> usize {
        self.num_scenarios
    }

    /// True iff no scenario was evaluated.
    pub fn is_empty(&self) -> bool {
        self.num_scenarios == 0
    }

    /// Number of result tuples per scenario.
    pub fn num_polys(&self) -> usize {
        self.labels.len()
    }

    /// Result-tuple labels, shared by every scenario.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Full-provenance results of one scenario, in label order.
    pub fn full_row(&self, scenario: usize) -> &[f64] {
        let np = self.labels.len();
        &self.full[scenario * np..(scenario + 1) * np]
    }

    /// Compressed-provenance results of one scenario, in label order.
    pub fn compressed_row(&self, scenario: usize) -> &[f64] {
        let np = self.labels.len();
        &self.compressed[scenario * np..(scenario + 1) * np]
    }

    /// The exact-vs-approximate divergence probe of the sweep.
    pub fn divergence(&self) -> F64Divergence {
        self.divergence
    }

    /// Largest relative full-vs-compressed error over every scenario and
    /// result tuple (the abstraction's worst case over the family, in
    /// floating point).
    pub fn max_rel_error(&self) -> f64 {
        self.full
            .iter()
            .zip(&self.compressed)
            .map(|(f, c)| assign::rel_error_f64(*f, *c))
            .fold(0.0, f64::max)
    }
}

/// Evaluates the scenarios of `scenarios` (leaf-level, merged over `base`)
/// on both the full and the compressed provenance through the compiled
/// batch engine. Each scenario is projected onto the meta-variables by
/// group averaging, exactly like
/// [`CobraSession::assign`](crate::session::CobraSession::assign). Accepts
/// anything convertible to a [`ScenarioSet`] — grids stream through the
/// engine without materializing per-scenario valuations.
///
/// # Panics
/// Panics if some scenario (merged over `base`) does not cover a variable —
/// give `base` a default, as assignment screens always do. Grid and
/// perturbation sets additionally require `base` itself to be total.
pub fn sweep_full_vs_compressed(
    engines: &CompiledComparison,
    metas: &[MetaVar],
    base: &Valuation<Rat>,
    scenarios: impl Into<ScenarioSet>,
) -> ScenarioSweep {
    engines.sweep(metas, base, &scenarios.into())
}

/// Streams every scenario of `set` through a **single** compiled exact
/// engine and folds the per-scenario result rows — the one-sided sibling
/// of [`CompiledComparison::sweep_fold`] for consumers that evaluate one
/// polynomial set without a full/compressed pair
/// ([`sensitivity::scenario_impacts`](crate::sensitivity::scenario_impacts)
/// ranks grid points through it). Scenarios are bound allocation-free by
/// [`RowBinder`] and evaluated in blocks; `f` receives
/// `(accumulator, scenario index, results)` in enumeration order, with
/// the result slice borrowing the block buffer.
///
/// # Panics
/// Panics if `base` is not total over the program (give it a default).
pub fn fold_program_sweep<A>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    init: A,
    f: impl FnMut(A, usize, &[Rat]) -> A,
) -> A {
    match fold_program_sweep_budgeted(evaluator, base, set, &SweepBudget::unlimited(), init, f) {
        Ok(outcome) => outcome.into_fold(),
        Err(_) => unreachable!("unlimited budgets cannot fail"),
    }
}

/// [`fold_program_sweep`] under a [`SweepBudget`] — the single-engine
/// sibling of
/// [`CompiledComparison::sweep_fold_budgeted`]: dynamic limits are polled
/// per block, a scenario cap clamps the swept range deterministically,
/// and an exhausted budget returns the exact fold over the completed
/// prefix as [`SweepOutcome::Partial`].
///
/// # Errors
/// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
/// when the budget is statically unsatisfiable.
///
/// # Panics
/// Panics if `base` is not total over the program (give it a default).
pub fn fold_program_sweep_budgeted<A>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    budget: &SweepBudget,
    init: A,
    mut f: impl FnMut(A, usize, &[Rat]) -> A,
) -> Result<SweepOutcome<A>> {
    let prog = evaluator.program();
    let np = prog.num_polys();
    let n = set.len();
    budget.validate(n)?;
    let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
    let binder = RowBinder::new(set, prog, base);
    let block = stream_block(np, prog.num_locals()).min(n_target.max(1));
    let mut rows: Vec<Vec<Rat>> = (0..block)
        .map(|_| vec![Rat::ZERO; prog.num_locals()])
        .collect();
    let mut out = vec![Rat::ZERO; block * np];
    let check = budget.has_dynamic_limits();
    let mut acc = init;
    let mut start = 0;
    let mut stop = None;
    while start < n_target {
        faults::point(faults::Site::Block);
        if check {
            if let Some(reason) = budget.stop_reason() {
                stop = Some(reason);
                break;
            }
        }
        let width = block.min(n_target - start);
        for (k, row) in rows[..width].iter_mut().enumerate() {
            binder.bind_into(start + k, row);
        }
        evaluator.eval_batch_exact_into(&rows[..width], &mut out[..width * np]);
        for k in 0..width {
            acc = f(acc, start + k, &out[k * np..(k + 1) * np]);
        }
        start += width;
    }
    Ok(outcome_for(acc, start, n, n_target, stop))
}

/// [`fold_program_sweep`] fanned across cores: contiguous scenario
/// spans are bound and evaluated by worker-owned state (one
/// [`RowBinder`] + batch buffers + a [`MergeFold`] replica per worker)
/// and the partial accumulators merge in ascending span order — the
/// single-engine sibling of
/// [`CompiledComparison::sweep_fold_par`]. Because there is no
/// full/compressed pair here, each scenario reaches the fold as a
/// [`FoldItem`] whose `full` side carries the program's result row and
/// whose `compressed` side is **empty** — full-side folds
/// ([`ArgmaxImpact`](crate::folds::ArgmaxImpact),
/// [`Histogram`](crate::folds::Histogram),
/// [`TopK`](crate::folds::TopK)) run unchanged, while error folds that
/// zip both sides see no pairs and stay at their identity.
///
/// Results are bit-identical to the sequential [`fold_program_sweep`]
/// at any thread count.
///
/// # Panics
/// Panics if `base` is not total over the program (give it a default).
pub fn fold_program_sweep_par<F: MergeFold + Send + Sync>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    fold: F,
) -> F {
    match fold_program_sweep_par_impl(evaluator, base, set, &SweepBudget::unlimited(), fold) {
        Ok(outcome) => outcome.into_fold(),
        Err(payload) => resume_unwind(payload),
    }
}

/// [`fold_program_sweep_par`] under a [`SweepBudget`] with worker faults
/// isolated — the single-engine sibling of
/// [`CompiledComparison::sweep_fold_par_budgeted`], with the same partial
/// bit-identity and panic-surfacing contracts.
///
/// # Errors
/// [`CoreError::InfeasibleBudget`](crate::error::CoreError::InfeasibleBudget)
/// for statically unsatisfiable budgets;
/// [`CoreError::WorkerPanicked`](crate::error::CoreError::WorkerPanicked)
/// when a worker panicked (the process and the evaluator stay usable).
///
/// # Panics
/// Panics if `base` is not total over the program (give it a default).
pub fn fold_program_sweep_par_budgeted<F: MergeFold + Send + Sync>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    budget: &SweepBudget,
    fold: F,
) -> Result<SweepOutcome<F>> {
    budget.validate(set.len())?;
    fold_program_sweep_par_impl(evaluator, base, set, budget, fold)
        .map_err(|payload| crate::error::CoreError::WorkerPanicked(par::panic_message(&payload)))
}

fn fold_program_sweep_par_impl<F: MergeFold + Send + Sync>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    budget: &SweepBudget,
    fold: F,
) -> std::result::Result<SweepOutcome<F>, par::WorkerPanic> {
    let prog = evaluator.program();
    let np = prog.num_polys();
    let n = set.len();
    let n_target = budget.scenario_cap().map_or(n, |c| c.min(n));
    if n_target == 0 {
        return Ok(outcome_for(fold, 0, n, n_target, None));
    }
    let block = stream_block(np, prog.num_locals()).min(n_target);
    let check = budget.has_dynamic_limits();
    // Kernel overrides are thread-local: resolve the exact-path choice
    // here on the calling thread and hand it to every worker.
    let use_fixed = kernel::exact_fixed_enabled();
    let abort = CancelToken::new();
    let partials = par::try_par_owned_spans(
        n_target,
        1,
        &abort,
        || {
            let rows: Vec<Vec<Rat>> = (0..block)
                .map(|_| vec![Rat::ZERO; prog.num_locals()])
                .collect();
            (
                RowBinder::new(set, prog, base),
                rows,
                vec![Rat::ZERO; block * np],
                fold.init(),
                SpanProgress::default(),
                FixedScratch::new(),
            )
        },
        |state, range| {
            let (binder, rows, out, f, span, scratch) = state;
            *span = SpanProgress::begin(&range);
            let mut start = range.start;
            while start < range.end {
                faults::point(faults::Site::Block);
                if abort.is_cancelled() {
                    span.reason = Some(StopReason::Cancelled);
                    break;
                }
                if check {
                    if let Some(reason) = budget.stop_reason() {
                        span.reason = Some(reason);
                        break;
                    }
                }
                let width = block.min(range.end - start);
                for (k, row) in rows[..width].iter_mut().enumerate() {
                    binder.bind_into(start + k, row);
                }
                evaluator.eval_batch_exact_serial_with(
                    use_fixed,
                    &rows[..width],
                    &mut out[..width * np],
                    scratch,
                );
                for k in 0..width {
                    f.accept(FoldItem {
                        scenario: start + k,
                        full: &out[k * np..(k + 1) * np],
                        compressed: &[],
                    });
                }
                start += width;
                span.done = start;
            }
        },
    )?;
    let mut fold = fold;
    let (done, stop) = merge_span_prefix(
        partials.into_iter().map(|p| (p.4, p.3)).collect(),
        |partial| fold.merge(partial),
    );
    Ok(outcome_for(fold, done, n, n_target, stop))
}

/// The canonical leaf/meta valuation pair for one scenario: the scenario
/// merged over the base, and its projection onto the meta-variables by
/// group averaging. Every assignment and timing path shares this rule.
pub(crate) fn project_pair(
    metas: &[MetaVar],
    base: &Valuation<Rat>,
    scenario: &Valuation<Rat>,
) -> (Valuation<Rat>, Valuation<Rat>) {
    let leaf_val = base.overridden_by(scenario);
    let meta_val = leaf_val.overridden_by(&assign::project_scenario(metas, &leaf_val));
    (leaf_val, meta_val)
}

/// Pairs full and compressed result values by position into a
/// [`ResultComparison`].
///
/// # Panics
/// Panics unless both value vectors have exactly one entry per label —
/// the full and compressed polynomial sets must align.
pub(crate) fn compare_rows(
    labels: &[String],
    full: Vec<Rat>,
    compressed: Vec<Rat>,
) -> ResultComparison {
    assert_eq!(labels.len(), full.len(), "polynomial sets must align");
    assert_eq!(labels.len(), compressed.len(), "polynomial sets must align");
    ResultComparison {
        rows: labels
            .iter()
            .zip(full.into_iter().zip(compressed))
            .map(|(label, (full, compressed))| ResultRow {
                label: label.clone(),
                full,
                compressed,
            })
            .collect(),
    }
}

/// Where an override lands on the compressed side.
#[derive(Clone, Copy, Debug)]
enum CompTarget {
    /// The variable survives compression: write its local directly (or
    /// nothing, if the compressed program never mentions it).
    Direct(Option<u32>),
    /// The variable is a grouped leaf: fold its delta into the group
    /// average (index into the binder's group plans).
    Group(u32),
    /// The variable *is* a meta-variable: leaf-level scenarios cannot set
    /// metas directly — the group-average projection always wins, exactly
    /// like the materialized path.
    Ignore,
}

/// One override slot of a grid axis (or perturbation family), resolved
/// against both programs once at binder construction. The `f64` shadow of
/// the base value rides along so the approximate bind path never touches
/// `Rat` arithmetic per scenario.
#[derive(Clone, Copy, Debug)]
struct PairSlot {
    full_local: Option<u32>,
    target: CompTarget,
    base_val: Rat,
    base_val_f64: f64,
}

/// A touched meta-variable group: its compressed-side local plus the
/// base-valuation sum over its leaves, so per-scenario averages are
/// `(base_sum + Σ deltas) / count` — bit-identical to re-averaging.
#[derive(Clone, Copy, Debug)]
struct GroupPlan {
    comp_local: Option<u32>,
    base_sum: Rat,
    base_sum_f64: f64,
    count: usize,
}

/// Binds [`ScenarioSet`] scenarios into full/compressed scenario-row pairs
/// with the meta-variable projection applied — the allocation-free heart
/// of the sweep. Explicit (materialized) sets fall back to the classic
/// merge-project-bind per scenario; grids and perturbations reuse cached
/// base rows and touch only their overrides.
pub struct PairBinder<'a> {
    set: &'a ScenarioSet,
    metas: &'a [MetaVar],
    base: &'a Valuation<Rat>,
    full: &'a EvalProgram<Rat>,
    comp: &'a EvalProgram<Rat>,
    base_full_row: Vec<Rat>,
    base_comp_row: Vec<Rat>,
    /// Override slots per axis (grids) or one flat list (perturbations).
    slots: Vec<Vec<PairSlot>>,
    groups: Vec<GroupPlan>,
    /// Per-scenario group-delta accumulator (zeroed on every bind).
    scratch: Vec<Rat>,
    /// `f64` shadows of the cached base rows and the group scratch, built
    /// lazily on the first [`bind_pair_into_f64`](Self::bind_pair_into_f64)
    /// call — exact-only sweeps never pay for the copies.
    f64_ready: bool,
    base_full_row_f64: Vec<f64>,
    base_comp_row_f64: Vec<f64>,
    scratch_f64: Vec<f64>,
    /// Exact scratch rows for the explicit-set `f64` path (explicit
    /// scenarios are merged and projected exactly, then converted).
    explicit_full_scratch: Vec<Rat>,
    explicit_comp_scratch: Vec<Rat>,
}

impl<'a> PairBinder<'a> {
    /// Prepares a binder for `set` against a compiled engine pair.
    ///
    /// # Panics
    /// For grid/perturbation sets, panics if `base` does not cover every
    /// program variable (explicit sets defer the totality check to each
    /// scenario, matching the materialized path).
    pub fn new(
        engines: &'a CompiledComparison,
        metas: &'a [MetaVar],
        base: &'a Valuation<Rat>,
        set: &'a ScenarioSet,
    ) -> PairBinder<'a> {
        let full = engines.full.program();
        let comp = engines.compressed.program();
        let mut binder = PairBinder {
            set,
            metas,
            base,
            full,
            comp,
            base_full_row: Vec::new(),
            base_comp_row: Vec::new(),
            slots: Vec::new(),
            groups: Vec::new(),
            scratch: Vec::new(),
            f64_ready: false,
            base_full_row_f64: Vec::new(),
            base_comp_row_f64: Vec::new(),
            scratch_f64: Vec::new(),
            explicit_full_scratch: Vec::new(),
            explicit_comp_scratch: Vec::new(),
        };
        if set.explicit().is_some() {
            return binder; // per-scenario merge path needs no plan
        }
        binder.base_full_row = full.bind(base).expect("leaf valuation must be total");
        let base_meta = base.overridden_by(&assign::project_scenario(metas, base));
        binder.base_comp_row = comp
            .bind(&base_meta)
            .expect("meta valuation must be total");

        let meta_vars: FxHashSet<Var> = metas.iter().map(|m| m.var).collect();
        let mut leaf_group: FxHashMap<Var, usize> = FxHashMap::default();
        for (g, meta) in metas.iter().enumerate() {
            for &leaf in &meta.leaves {
                leaf_group.insert(leaf, g);
            }
        }
        let mut group_slot: FxHashMap<usize, u32> = FxHashMap::default();
        let mut plan_slot = |binder: &mut PairBinder<'a>, v: Var| {
            // Grouped-leaf membership wins over meta-var identity: a cut
            // at a leaf keeps the leaf's own variable as its (one-leaf)
            // meta, and the projection then passes overrides through as
            // the trivial average — exactly the materialized semantics.
            let target = if let Some(&g) = leaf_group.get(&v) {
                let slot = *group_slot.entry(g).or_insert_with(|| {
                    let meta = &metas[g];
                    let base_sum: Rat =
                        meta.leaves.iter().map(|&l| base_value(base, l)).sum();
                    binder.groups.push(GroupPlan {
                        comp_local: comp.local_of(meta.var),
                        base_sum,
                        base_sum_f64: base_sum.to_f64(),
                        count: meta.leaves.len(),
                    });
                    (binder.groups.len() - 1) as u32
                });
                CompTarget::Group(slot)
            } else if meta_vars.contains(&v) {
                CompTarget::Ignore
            } else {
                CompTarget::Direct(comp.local_of(v))
            };
            let base_val = base_value(base, v);
            PairSlot {
                full_local: full.local_of(v),
                target,
                base_val,
                base_val_f64: base_val.to_f64(),
            }
        };
        if let Some(axes) = set.axes() {
            let planned: Vec<Vec<PairSlot>> = axes
                .iter()
                .map(|axis| {
                    axis.vars()
                        .iter()
                        .map(|&v| plan_slot(&mut binder, v))
                        .collect()
                })
                .collect();
            binder.slots = planned;
        } else if let Some((vars, _, _)) = set.perturbation() {
            let planned: Vec<PairSlot> = vars.iter().map(|&v| plan_slot(&mut binder, v)).collect();
            binder.slots = vec![planned];
        }
        binder.scratch = vec![Rat::ZERO; binder.groups.len()];
        binder
    }

    /// Binds scenario `i` into the two row buffers.
    ///
    /// # Panics
    /// Panics if `i >= set.len()`, a buffer width mismatches its program,
    /// or (explicit sets) the merged valuation is not total.
    pub fn bind_pair_into(&mut self, i: usize, full_row: &mut [Rat], comp_row: &mut [Rat]) {
        if let Some(scenarios) = self.set.explicit() {
            let (leaf_val, meta_val) = project_pair(self.metas, self.base, &scenarios[i]);
            self.full
                .bind_into(&leaf_val, full_row)
                .expect("leaf valuation must be total");
            self.comp
                .bind_into(&meta_val, comp_row)
                .expect("meta valuation must be total");
            return;
        }
        assert!(i < self.set.len(), "scenario index {i} out of range");
        full_row.copy_from_slice(&self.base_full_row);
        comp_row.copy_from_slice(&self.base_comp_row);
        if let Some(axes) = self.set.axes() {
            for d in &mut self.scratch {
                *d = Rat::ZERO;
            }
            let slots = &self.slots;
            let scratch = &mut self.scratch;
            for_each_grid_digit(axes, i, |j, digit| {
                let axis = &axes[j];
                let level = axis.levels()[digit];
                for s in &slots[j] {
                    let new = axis.op().apply(s.base_val, level);
                    if let Some(fl) = s.full_local {
                        full_row[fl as usize] = new;
                    }
                    match s.target {
                        CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                        CompTarget::Direct(None) | CompTarget::Ignore => {}
                        CompTarget::Group(g) => scratch[g as usize] += new - s.base_val,
                    }
                }
            });
            for (plan, delta) in self.groups.iter().zip(&self.scratch) {
                if let Some(cl) = plan.comp_local {
                    comp_row[cl as usize] =
                        (plan.base_sum + *delta) / Rat::int(plan.count as i64);
                }
            }
        } else if let Some((_, delta, op)) = self.set.perturbation() {
            let s = self.slots[0][i];
            let new = op.apply(s.base_val, delta);
            if let Some(fl) = s.full_local {
                full_row[fl as usize] = new;
            }
            match s.target {
                CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                CompTarget::Direct(None) | CompTarget::Ignore => {}
                CompTarget::Group(g) => {
                    let plan = &self.groups[g as usize];
                    if let Some(cl) = plan.comp_local {
                        comp_row[cl as usize] = (plan.base_sum + (new - s.base_val))
                            / Rat::int(plan.count as i64);
                    }
                }
            }
        }
    }

    /// Builds the lazily initialized `f64` shadows of the cached base
    /// rows (grid/perturbation sets) or the exact scratch rows (explicit
    /// sets).
    fn ensure_f64(&mut self) {
        if self.f64_ready {
            return;
        }
        self.f64_ready = true;
        if self.set.explicit().is_some() {
            self.explicit_full_scratch = vec![Rat::ZERO; self.full.num_locals()];
            self.explicit_comp_scratch = vec![Rat::ZERO; self.comp.num_locals()];
        } else {
            self.base_full_row_f64 = self.base_full_row.iter().map(|r| r.to_f64()).collect();
            self.base_comp_row_f64 = self.base_comp_row.iter().map(|r| r.to_f64()).collect();
            self.scratch_f64 = vec![0.0; self.groups.len()];
        }
    }

    /// Binds scenario `i` into two **`f64`** row buffers — the
    /// approximate bind path of [`CompiledComparison::sweep_fold_f64`].
    /// Grid and perturbation overrides are resolved in floating point
    /// against cached `f64` base rows (one write per override, group
    /// averages included), so per-scenario work involves no `Rat`
    /// arithmetic at all; explicit scenarios are merged and projected
    /// exactly, then converted. The rows bind against the `f64` shadow
    /// programs, which share the exact programs' variable numbering.
    ///
    /// # Panics
    /// Same conditions as [`bind_pair_into`](Self::bind_pair_into).
    pub fn bind_pair_into_f64(&mut self, i: usize, full_row: &mut [f64], comp_row: &mut [f64]) {
        self.ensure_f64();
        if self.set.explicit().is_some() {
            let mut frow = std::mem::take(&mut self.explicit_full_scratch);
            let mut crow = std::mem::take(&mut self.explicit_comp_scratch);
            self.bind_pair_into(i, &mut frow, &mut crow);
            for (slot, r) in full_row.iter_mut().zip(&frow) {
                *slot = r.to_f64();
            }
            for (slot, r) in comp_row.iter_mut().zip(&crow) {
                *slot = r.to_f64();
            }
            self.explicit_full_scratch = frow;
            self.explicit_comp_scratch = crow;
            return;
        }
        assert!(i < self.set.len(), "scenario index {i} out of range");
        full_row.copy_from_slice(&self.base_full_row_f64);
        comp_row.copy_from_slice(&self.base_comp_row_f64);
        if let Some(axes) = self.set.axes() {
            for d in &mut self.scratch_f64 {
                *d = 0.0;
            }
            let slots = &self.slots;
            let scratch = &mut self.scratch_f64;
            for_each_grid_digit(axes, i, |j, digit| {
                let axis = &axes[j];
                let level = axis.levels()[digit].to_f64();
                for s in &slots[j] {
                    let new = axis.op().apply_f64(s.base_val_f64, level);
                    if let Some(fl) = s.full_local {
                        full_row[fl as usize] = new;
                    }
                    match s.target {
                        CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                        CompTarget::Direct(None) | CompTarget::Ignore => {}
                        CompTarget::Group(g) => {
                            scratch[g as usize] += new - s.base_val_f64
                        }
                    }
                }
            });
            for (plan, delta) in self.groups.iter().zip(&self.scratch_f64) {
                if let Some(cl) = plan.comp_local {
                    comp_row[cl as usize] =
                        (plan.base_sum_f64 + *delta) / plan.count as f64;
                }
            }
        } else if let Some((_, delta, op)) = self.set.perturbation() {
            let s = self.slots[0][i];
            let new = op.apply_f64(s.base_val_f64, delta.to_f64());
            if let Some(fl) = s.full_local {
                full_row[fl as usize] = new;
            }
            match s.target {
                CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                CompTarget::Direct(None) | CompTarget::Ignore => {}
                CompTarget::Group(g) => {
                    let plan = &self.groups[g as usize];
                    if let Some(cl) = plan.comp_local {
                        comp_row[cl as usize] = (plan.base_sum_f64
                            + (new - s.base_val_f64))
                            / plan.count as f64;
                    }
                }
            }
        }
    }
}

/// Times a batched sweep of `scenarios` over the full and the compressed
/// provenance on the `f64` fast path — the batched generalization of
/// [`assign::measure_assignment_speedup`]. Reported durations cover the
/// *whole batch* (binding excluded, evaluation only), best-of-`runs` after
/// `warmup` rounds.
pub fn measure_sweep_speedup(
    full: &BatchEvaluator<f64>,
    compressed: &BatchEvaluator<f64>,
    full_rows: &[Vec<f64>],
    comp_rows: &[Vec<f64>],
    warmup: usize,
    runs: usize,
) -> SpeedupMeasurement {
    let (_, full_time) = time_best_of(warmup, runs, || {
        std::hint::black_box(full.eval_batch_fast(full_rows).num_scenarios())
    });
    let (_, compressed_time) = time_best_of(warmup, runs, || {
        std::hint::black_box(compressed.eval_batch_fast(comp_rows).num_scenarios())
    });
    SpeedupMeasurement {
        full_time,
        compressed_time,
        full_size: full.program().num_terms(),
        compressed_size: compressed.program().num_terms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_cut;
    use crate::assign::uniform_scenario;
    use crate::cut::Cut;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{parse_polyset, VarRegistry};

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn setup() -> (
        VarRegistry,
        PolySet<Rat>,
        crate::apply::AppliedAbstraction<Rat>,
    ) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set = parse_polyset(src, &mut reg).unwrap();
        let cut = Cut::from_names(&tree, &["Business", "Special", "Standard"]).unwrap();
        let applied = apply_cut(&set, &tree, &cut, &mut reg);
        (reg, set, applied)
    }

    #[test]
    fn sweep_matches_single_scenario_evaluation() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let m3 = reg.var("m3");
        let scenarios = vec![
            uniform_scenario(&b_vars, rat("1.1")),
            Valuation::with_default(Rat::ONE).bind(m3, rat("0.8")),
            uniform_scenario(&[b_vars[0]], rat("1.3")),
        ];
        let sweep = sweep_full_vs_compressed(&engines, &applied.meta_vars, &base, &scenarios);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep.num_polys(), 2);
        for (scenario, cmp) in scenarios.iter().zip(sweep.comparisons()) {
            let leaf_val = base.overridden_by(scenario);
            let meta_val = leaf_val
                .overridden_by(&assign::project_scenario(&applied.meta_vars, &leaf_val));
            let expected = ResultComparison::evaluate(
                &set,
                &leaf_val,
                &applied.compressed,
                &meta_val,
            );
            assert_eq!(cmp.rows, expected.rows);
        }
        // aligned scenarios are exact, the misaligned third one is not
        assert!(sweep.comparison(0).is_exact());
        assert!(sweep.comparison(1).is_exact());
        assert!(!sweep.comparison(2).is_exact());
        assert!(!sweep.is_exact());
        assert!(sweep.max_rel_error() > 0.0);
        assert_eq!(sweep.scenario_max_rel_error(0), 0.0);
        assert!(sweep.scenario_max_rel_error(2) > 0.0);
    }

    #[test]
    fn grid_sweep_is_bit_identical_to_materialized_sweep() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let y1 = reg.var("y1");
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .axis(b_vars, [rat("0.9"), rat("1.1")])
            // y1 alone inside the Special group: a lossy, partial touch
            .scale_axis([y1], [rat("1"), rat("1.05")])
            .build()
            .unwrap();
        assert_eq!(grid.len(), 12);
        let by_grid = engines.sweep(&applied.meta_vars, &base, &grid);
        let flat = grid.materialize(&base);
        let by_vec = sweep_full_vs_compressed(&engines, &applied.meta_vars, &base, &flat[..]);
        assert_eq!(by_grid.len(), by_vec.len());
        for i in 0..by_grid.len() {
            assert_eq!(by_grid.full_row(i), by_vec.full_row(i), "scenario {i}");
            assert_eq!(
                by_grid.compressed_row(i),
                by_vec.compressed_row(i),
                "scenario {i}"
            );
        }
        // uniform business change is exact; scaling b1 alone inside the
        // group is lossy — the grid must reproduce both regimes
        assert!(by_grid.comparison(0).is_exact());
        assert!(!by_grid.is_exact());
    }

    #[test]
    fn perturbation_sweep_matches_materialized() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let vars: Vec<Var> = ["b1", "m3", "p1", "v"].iter().map(|n| reg.var(n)).collect();
        let perturb = ScenarioSet::perturb_each(vars, rat("0.125"));
        let by_set = engines.sweep(&applied.meta_vars, &base, &perturb);
        let flat = perturb.materialize(&base);
        let by_vec = sweep_full_vs_compressed(&engines, &applied.meta_vars, &base, &flat[..]);
        for i in 0..by_set.len() {
            assert_eq!(by_set.full_row(i), by_vec.full_row(i), "scenario {i}");
            assert_eq!(by_set.compressed_row(i), by_vec.compressed_row(i), "scenario {i}");
        }
    }

    #[test]
    fn bind_rows_matches_sweep_rows() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("0.9"), rat("1")])
            .build()
            .unwrap();
        let (full_rows, comp_rows) = engines.bind_rows(&applied.meta_vars, &base, &grid, |r| *r);
        assert_eq!(full_rows.len(), 3);
        let full_batch = engines.full.eval_batch(&full_rows);
        let comp_batch = engines.compressed.eval_batch(&comp_rows);
        let sweep = engines.sweep(&applied.meta_vars, &base, &grid);
        for i in 0..3 {
            assert_eq!(full_batch.row(i), sweep.full_row(i));
            assert_eq!(comp_batch.row(i), sweep.compressed_row(i));
        }
        // f64 mapping binds against the shadow programs directly
        let (f64_rows, _) = engines.bind_rows(&applied.meta_vars, &base, &grid, |r| r.to_f64());
        assert_eq!(f64_rows[0].len(), engines.full.program().num_locals());
    }

    #[test]
    fn sweep_fold_streams_in_enumeration_order() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .axis(b_vars, [rat("0.9"), rat("1.1")])
            .build()
            .unwrap();
        let sweep = engines.sweep(&applied.meta_vars, &base, &grid);
        // an appending fold reproduces the materialized sweep bit for bit,
        // and scenarios arrive strictly in enumeration order
        let (order, rows) = engines.sweep_fold(
            &applied.meta_vars,
            &base,
            &grid,
            (Vec::new(), Vec::new()),
            |(mut order, mut rows): (Vec<usize>, Vec<Rat>), item| {
                order.push(item.scenario);
                rows.extend_from_slice(item.full);
                rows.extend_from_slice(item.compressed);
                (order, rows)
            },
        );
        assert_eq!(order, (0..grid.len()).collect::<Vec<_>>());
        for i in 0..grid.len() {
            let np = sweep.num_polys();
            assert_eq!(&rows[2 * i * np..(2 * i + 1) * np], sweep.full_row(i));
            assert_eq!(
                &rows[(2 * i + 1) * np..(2 * i + 2) * np],
                sweep.compressed_row(i)
            );
        }
    }

    #[test]
    fn f64_fold_tracks_exact_path_and_records_divergence() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let full64 = BatchEvaluator::new(engines.full.program().to_f64_program());
        let comp64 = BatchEvaluator::new(engines.compressed.program().to_f64_program());
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let y1 = reg.var("y1");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .scale_axis(b_vars, [rat("0.9"), rat("1.1")])
            .shift_axis([y1], [rat("0"), rat("0.125")])
            .build()
            .unwrap();
        let exact = engines.sweep(&applied.meta_vars, &base, &grid);
        let (approx, div) = engines.sweep_fold_f64(
            (&full64, &comp64),
            &applied.meta_vars,
            &base,
            &grid,
            Vec::new(),
            |mut rows: Vec<(Vec<f64>, Vec<f64>)>, item| {
                rows.push((item.full.to_vec(), item.compressed.to_vec()));
                rows
            },
        );
        assert_eq!(approx.len(), grid.len());
        assert!(div.probed > 0 && div.probed <= grid.len());
        assert!(div.max_rel_divergence < 1e-12, "divergence {div:?}");
        for (i, (full, comp)) in approx.iter().enumerate() {
            for (e, a) in exact.full_row(i).iter().zip(full) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
            for (e, a) in exact.compressed_row(i).iter().zip(comp) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
        }
    }

    #[test]
    fn f64_fold_handles_explicit_and_perturbation_sets() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let full64 = BatchEvaluator::new(engines.full.program().to_f64_program());
        let comp64 = BatchEvaluator::new(engines.compressed.program().to_f64_program());
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b1 = reg.var("b1");
        let explicit = [
            Valuation::with_default(Rat::ONE).bind(m3, rat("0.8")),
            Valuation::with_default(Rat::ONE).bind(b1, rat("1.3")),
        ];
        let perturb = ScenarioSet::perturb_each([m3, b1], rat("0.25"));
        for family in [ScenarioSet::from(&explicit[..]), perturb] {
            let exact = engines.sweep(&applied.meta_vars, &base, &family);
            let (approx, div) = engines.sweep_fold_f64(
                (&full64, &comp64),
                &applied.meta_vars,
                &base,
                &family,
                Vec::new(),
                |mut rows: Vec<Vec<f64>>, item| {
                    rows.push(item.full.to_vec());
                    rows
                },
            );
            assert_eq!(div.probed, family.len().min(16));
            for (i, full) in approx.iter().enumerate() {
                for (e, a) in exact.full_row(i).iter().zip(full) {
                    assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn fold_program_sweep_matches_direct_evaluation() {
        let (mut reg, set, _) = setup();
        let evaluator = BatchEvaluator::compile(&set);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("0.9"), rat("1"), rat("1.1")])
            .build()
            .unwrap();
        let rows = fold_program_sweep(
            &evaluator,
            &base,
            &grid,
            Vec::new(),
            |mut acc: Vec<Vec<Rat>>, i, results| {
                assert_eq!(i, acc.len());
                acc.push(results.to_vec());
                acc
            },
        );
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            let val = base.overridden_by(&grid.scenario_valuation(i, &base));
            for ((_, expected), got) in set.eval(&val).unwrap().iter().zip(row) {
                assert_eq!(expected, got, "scenario {i}");
            }
        }
    }

    #[test]
    fn empty_sweep() {
        let (_, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let sweep = sweep_full_vs_compressed(
            &engines,
            &applied.meta_vars,
            &Valuation::with_default(Rat::ONE),
            &[][..],
        );
        assert!(sweep.is_empty());
        assert!(sweep.is_exact());
        assert_eq!(sweep.max_rel_error(), 0.0);
    }

    #[test]
    fn sweep_speedup_reports_batch_sizes() {
        let (_, set, applied) = setup();
        let full = BatchEvaluator::new(
            cobra_provenance::EvalProgram::compile(&set).to_f64_program(),
        );
        let compressed = BatchEvaluator::new(
            cobra_provenance::EvalProgram::compile(&applied.compressed).to_f64_program(),
        );
        let full_rows: Vec<Vec<f64>> =
            (0..16).map(|_| vec![1.0; full.program().num_locals()]).collect();
        let comp_rows: Vec<Vec<f64>> = (0..16)
            .map(|_| vec![1.0; compressed.program().num_locals()])
            .collect();
        let m = measure_sweep_speedup(&full, &compressed, &full_rows, &comp_rows, 1, 3);
        assert_eq!(m.full_size, 14);
        assert_eq!(m.compressed_size, 6);
        assert!(m.speedup_percent() <= 100.0);
    }
}
