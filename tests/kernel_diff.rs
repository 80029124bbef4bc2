//! Cross-kernel differential suite (ISSUE 8): the explicit batch kernels
//! — portable scalar, AVX2, AVX2+FMA and the scaled-`i128` fixed-point
//! exact kernel — are pinned against each other and against the generic
//! term-walk reference on random programs × random scenario grids.
//!
//! The contracts under test:
//!
//! * `scalar` ≡ `avx2` ≡ `auto` **bit-identical** for every `f64` batch
//!   surface, at 1 and 4 worker threads (`par::with_threads` ×
//!   `kernel::with_target`, both scoped to this test's thread so
//!   concurrently running tests cannot race on the env variables);
//! * `avx2fma` (fused accumulate, different rounding) stays within the
//!   Higham-style error budget of the scalar kernel;
//! * the fixed-point exact kernel is **representation-identical** to
//!   the plain `Rat` walk in both integer tiers (`i64` and `i128`
//!   lanes), and its per-scenario fallback is unobservable through the
//!   public batch API — including rows whose magnitude bound straddles
//!   2⁶³ or 2¹²⁷, lane groups mixing tiers, and batches that are not a
//!   multiple of the lane width;
//! * at the benchmark's paper shape, every divergence-probe row of both
//!   sides takes the `i64` tier.

use cobra::core::folds::{self, MergeFold, SweepFold};
use cobra::core::scenario::{CompiledComparison, FoldItem, PairBinder};
use cobra::core::{CobraSession, ScenarioSet, SweepBudget};
use cobra::datagen::telephony::{Telephony, TelephonyConfig, PLANS};
use cobra::provenance::{
    compile_f64, parse_polyset, BatchEvaluator, Coeff, FixedScratch, FixedTier, Valuation,
    VarRegistry, FIXED_LANES,
};
use cobra::util::kernel::{self, KernelTarget};
use cobra::util::par::with_threads;
use cobra::util::Rat;
use proptest::prelude::*;

/// Worker-thread counts the kernel equivalences are pinned under: the
/// serial path and a genuine multi-worker fan-out.
const THREAD_MATRIX: [usize; 2] = [1, 4];

/// Every dispatch target that must stay bit-identical on the `f64` path
/// (FMA is excluded by design: fusing changes rounding).
const IDENTICAL_TARGETS: [KernelTarget; 3] =
    [KernelTarget::Auto, KernelTarget::Scalar, KernelTarget::Avx2];

const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

fn rat(s: &str) -> Rat {
    Rat::parse(s).unwrap()
}

fn compressed_session(bound: u64) -> CobraSession {
    let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
    s.add_tree_text(FIG2_TREE).unwrap();
    s.set_bound(bound);
    s.compress().unwrap();
    s
}

/// The differential collector from `tests/engine_diff.rs`: records every
/// scenario's index and both result rows in the fold's native coefficient
/// type, so exact streams compare as `Rat` and `f64` streams bit for bit.
#[derive(Clone, Debug, PartialEq)]
struct Collect<C> {
    rows: Vec<(usize, Vec<C>, Vec<C>)>,
}

impl<C> Collect<C> {
    fn new() -> Collect<C> {
        Collect { rows: Vec::new() }
    }
}

impl<K: Coeff> SweepFold for Collect<K> {
    type Output = Vec<(usize, Vec<K>, Vec<K>)>;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        let cast = |xs: &[C]| -> Vec<K> {
            xs.iter()
                .map(|x| {
                    (x as &dyn std::any::Any)
                        .downcast_ref::<K>()
                        .expect("collector used on a stream of its own coefficient type")
                        .clone()
                })
                .collect()
        };
        self.rows
            .push((item.scenario, cast(item.full), cast(item.compressed)));
    }

    fn finish(self) -> Self::Output {
        self.rows
    }
}

impl<K: Coeff> MergeFold for Collect<K> {
    fn init(&self) -> Collect<K> {
        Collect::new()
    }

    fn merge(&mut self, later: Collect<K>) {
        self.rows.extend(later.rows);
    }
}

// ---------------------------------------------------------------------
// Random programs and grids
// ---------------------------------------------------------------------

const VAR_POOL: [&str; 5] = ["a", "b", "c", "d", "w"];

/// One random term: numerator, denominator, and factors as
/// `(variable index, exponent)` pairs. Exponents up to 3 exercise the
/// square-and-multiply `pow` chains, not just plain multiplies.
type TermSpec = (i128, i128, Vec<(u8, u8)>);

fn term_strategy() -> impl Strategy<Value = TermSpec> {
    (
        -500i128..500,
        1i128..40,
        proptest::collection::vec((0u8..5, 1u8..4), 0..4),
    )
}

/// Renders a random term list as the text interchange format, so the
/// suite drives the same parse → compile pipeline as every engine.
fn render_polyset(polys: &[Vec<TermSpec>]) -> String {
    let mut out = String::new();
    for (i, terms) in polys.iter().enumerate() {
        out.push_str(&format!("P{i} = 0"));
        for (num, den, factors) in terms {
            out.push_str(if *num < 0 { " - " } else { " + " });
            out.push_str(&format!("{}/{}", num.abs(), den));
            for (v, e) in factors {
                out.push_str(&format!("*{}^{}", VAR_POOL[*v as usize], e));
            }
        }
        out.push('\n');
    }
    out
}

fn polyset_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(term_strategy(), 1..7), 1..4)
        .prop_map(|polys| render_polyset(&polys))
}

/// A pool of exact scenario values; rows index into it round-robin so
/// one strategy covers any program width.
fn rat_pool_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-60i128..60, 1i128..8), 8..20)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

fn rat_rows(pool: &[Rat], n: usize, width: usize) -> Vec<Vec<Rat>> {
    (0..n)
        .map(|k| (0..width).map(|v| pool[(k * width + v) % pool.len()]).collect())
        .collect()
}

fn levels_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-20i128..40, 1i128..5), 1..4)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

/// Decimal-price coefficient denominators and scenario-value
/// denominators for the tier suite (provenance-shaped magnitudes).
const COEFF_DENS: [i128; 6] = [1, 2, 4, 5, 10, 100];
const VALUE_DENS: [i128; 4] = [1, 2, 5, 10];

/// A provenance-shaped term: coefficient `seed·2^bits / den` and up to
/// two unit factors (a repeated variable becomes a square), so the
/// plain `Rat` reference never overflows while rows still span the
/// `i64` and `i128` tiers.
fn tier_term_strategy() -> impl Strategy<Value = TermSpec> {
    (
        -1000i128..1000,
        0u32..32,
        0usize..COEFF_DENS.len(),
        proptest::collection::vec(0u8..4, 0..3),
    )
        .prop_map(|(seed, bits, den, vars)| {
            let factors = vars.into_iter().map(|v| (v, 1)).collect();
            (seed << bits, COEFF_DENS[den], factors)
        })
}

fn tier_polyset_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(tier_term_strategy(), 1..7), 1..4)
        .prop_map(|polys| render_polyset(&polys))
}

/// A skewed term for the fine-bound suite: up to three factors of the
/// small variables `a`, `b`, `c` (degree up to 9), times the large
/// variable `d` at most once — so a row's coarse bound `M^G_max` is
/// astronomically loose while its true value stays inside `i128`.
fn skew_term_strategy() -> impl Strategy<Value = TermSpec> {
    (
        -1000i128..1000,
        0usize..COEFF_DENS.len(),
        proptest::collection::vec((0u8..3, 1u8..4), 0..4),
        0u8..2,
    )
        .prop_map(|(num, den, mut factors, big)| {
            if big == 1 {
                factors.push((3, 1));
            }
            (num, COEFF_DENS[den], factors)
        })
}

fn skew_polyset_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(skew_term_strategy(), 1..7), 1..4)
        .prop_map(|polys| render_polyset(&polys))
}

fn tier_pool_strategy() -> impl Strategy<Value = Vec<(i128, i128)>> {
    proptest::collection::vec((-60i128..60, 0usize..VALUE_DENS.len()), 8..20)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| (n, VALUE_DENS[d])).collect())
}

/// Asserts `got` is representation-identical to `want`.
fn assert_same_rats(got: &[Rat], want: &[Rat], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (slot, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.numer(), g.denom()),
            (w.numer(), w.denom()),
            "{what}: slot {slot}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every dispatch target on the `f64` batch surface produces bits
    /// identical to the generic term-walk reference, per thread count —
    /// and the FMA kernel stays within a Higham-style budget of it.
    #[test]
    fn f64_kernels_match_reference_on_random_programs(
        src in polyset_strategy(),
        pool in rat_pool_strategy(),
        n in 1usize..80,
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev = compile_f64(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());
        let rows: Vec<Vec<f64>> = rat_rows(&pool, n, width)
            .into_iter()
            .map(|row| row.into_iter().map(|x| x.to_f64()).collect())
            .collect();

        // Reference: the generic per-scenario walk, no batch kernel.
        let mut reference = vec![0.0f64; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        let run = |t: KernelTarget, threads: usize| -> Vec<f64> {
            let mut out = vec![0.0f64; n * np];
            with_threads(threads, || {
                kernel::with_target(t, || ev.eval_batch_fast_into(&rows, &mut out))
            });
            out
        };

        for threads in THREAD_MATRIX {
            for t in IDENTICAL_TARGETS {
                let out = run(t, threads);
                for (slot, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "target {} threads {} slot {} ({} vs {})",
                        t, threads, slot, got, want
                    );
                }
            }
        }

        // FMA reassociates the last multiply into the accumulate, so it
        // may differ — but only within the a-priori rounding budget of
        // the term-magnitude shadow (Σ|c|Π|x|^e), by a wide margin.
        let abs_prog = prog.to_abs_program();
        let mut shadow = vec![0.0f64; n * np];
        let abs_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|row| row.iter().map(|x| x.abs()).collect())
            .collect();
        for (k, row) in abs_rows.iter().enumerate() {
            abs_prog.eval_scenario_into(row, &mut shadow[k * np..(k + 1) * np]);
        }
        for threads in THREAD_MATRIX {
            let fused = run(KernelTarget::Avx2Fma, threads);
            for (slot, (&got, &want)) in fused.iter().zip(&reference).enumerate() {
                let budget = 1e-12 * shadow[slot].max(1.0);
                prop_assert!(
                    (got - want).abs() <= budget,
                    "fma threads {} slot {}: {} vs {} (budget {})",
                    threads, slot, got, want, budget
                );
            }
        }
    }

    /// The exact batch surface is representation-identical to the plain
    /// `Rat` walk under every target and thread count — with the
    /// fixed-point kernel on (`Auto`) and off (`Scalar`) — and the raw
    /// fixed kernel agrees bit for bit wherever it completes.
    #[test]
    fn exact_fixed_kernel_matches_rat_on_random_programs(
        src in polyset_strategy(),
        pool in rat_pool_strategy(),
        n in 1usize..40,
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());
        let rows = rat_rows(&pool, n, width);

        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        for threads in THREAD_MATRIX {
            for t in [KernelTarget::Auto, KernelTarget::Scalar] {
                let mut out = vec![Rat::ZERO; n * np];
                with_threads(threads, || {
                    kernel::with_target(t, || ev.eval_batch_exact_into(&rows, &mut out))
                });
                for (slot, (got, want)) in out.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        (got.numer(), got.denom()),
                        (want.numer(), want.denom()),
                        "target {} threads {} slot {}",
                        t, threads, slot
                    );
                }
            }
        }

        // The raw kernel, wherever it completes, is bit-identical too.
        if let Some(fp) = prog.fixed_program() {
            let mut scratch = FixedScratch::new();
            let mut out = vec![Rat::ZERO; np];
            for (k, row) in rows.iter().enumerate() {
                if fp.eval_scenario_into(prog, row, &mut out, &mut scratch) {
                    for (p, got) in out.iter().enumerate() {
                        let want = &reference[k * np + p];
                        prop_assert_eq!(
                            (got.numer(), got.denom()),
                            (want.numer(), want.denom()),
                            "scenario {} poly {}",
                            k, p
                        );
                    }
                }
            }
        }
    }

    /// Overflow-boundary property: at magnitudes where the fixed
    /// kernel's scaled intermediates (`coeff·S · (value·D)^e · D^pad`)
    /// straddle the `i128` limit, its per-scenario fallback to the `Rat`
    /// walk is silent — the public batch results never change, whether a
    /// scenario overflowed or not.
    #[test]
    fn fixed_kernel_overflow_fallback_is_silent(
        coeff_mag in 0u32..30,
        value_mags in proptest::collection::vec((0u32..9, 1i128..5, 0u8..2), 4..12),
        degree in 1u8..5,
    ) {
        // Cap the coefficient so the plain-Rat reference (which panics
        // on genuine i128 overflow of *canonical* values) stays in
        // range: coeff · value^degree ≲ 10³⁰. The fixed kernel's
        // headroom is far smaller — its intermediates carry the common
        // denominator scale D at full degree — so the sampled band still
        // produces both completing and overflowing scenarios.
        let max_mag = value_mags.iter().map(|&(m, _, _)| m).max().unwrap_or(0);
        let coeff_mag = coeff_mag.min(34u32.saturating_sub(max_mag * degree as u32 + 4));
        let src = format!(
            "P0 = {}*a^{} + 1/3*b\nP1 = 1/7*a*b",
            10i128.pow(coeff_mag),
            degree
        );
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());

        let pool: Vec<Rat> = value_mags
            .into_iter()
            .map(|(mag, den, neg)| {
                let num = 10i128.pow(mag) * if neg == 1 { -1 } else { 1 };
                Rat::new(num, den)
            })
            .collect();
        let n = pool.len();
        let rows = rat_rows(&pool, n, width);

        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        // Raw kernel: any verdict is fine (overflow depends on the
        // sampled magnitudes) but completions must be bit-identical.
        let fp = prog.fixed_program();
        if let Some(fp) = fp {
            let mut scratch = FixedScratch::new();
            let mut out = vec![Rat::ZERO; np];
            for (k, row) in rows.iter().enumerate() {
                if fp.eval_scenario_into(prog, row, &mut out, &mut scratch) {
                    for (p, got) in out.iter().enumerate() {
                        let want = &reference[k * np + p];
                        prop_assert_eq!(
                            (got.numer(), got.denom()),
                            (want.numer(), want.denom()),
                            "scenario {} poly {}",
                            k, p
                        );
                    }
                }
            }
        }

        // Public path: mixed overflow/fallback batches still equal the
        // pure-Rat run bit for bit, at both thread counts.
        for threads in THREAD_MATRIX {
            let mut fixed_out = vec![Rat::ZERO; n * np];
            let mut rat_out = vec![Rat::ZERO; n * np];
            with_threads(threads, || {
                kernel::with_target(KernelTarget::Auto, || {
                    ev.eval_batch_exact_into(&rows, &mut fixed_out)
                });
                kernel::with_target(KernelTarget::Scalar, || {
                    ev.eval_batch_exact_into(&rows, &mut rat_out)
                });
            });
            prop_assert_eq!(&fixed_out, &rat_out, "threads {}", threads);
            prop_assert_eq!(&fixed_out, &reference, "threads {}", threads);
        }
    }

    /// Tier property: rows scaled by `2^bits` land in the `i64` or the
    /// `i128` tier by their magnitude bound, and either way — one row at a
    /// time, in one mixed batch of any length (lane groups per tier, a
    /// ragged last group), or through the public batch surface at 1 and 4
    /// threads — the values are representation-identical to the plain
    /// `Rat` walk.
    #[test]
    fn fixed_tiers_agree_with_rat_walk(
        src in tier_polyset_strategy(),
        pool in tier_pool_strategy(),
        bits in proptest::collection::vec(0u32..25, 1..40),
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let (np, width, n) = (prog.num_polys(), prog.num_locals(), bits.len());
        let rows: Vec<Vec<Rat>> = bits
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                (0..width)
                    .map(|v| {
                        let (num, den) = pool[(k * width + v) % pool.len()];
                        Rat::new(num << b, den)
                    })
                    .collect()
            })
            .collect();
        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        let fp = prog.fixed_program().expect("decimal programs lower");
        let mut scratch = FixedScratch::new();
        let mut one = vec![Rat::ZERO; np];
        for (k, row) in rows.iter().enumerate() {
            let tier = fp.tier(prog, row);
            prop_assert!(tier != FixedTier::Rat, "row {} left the integer tiers", k);
            prop_assert!(fp.eval_scenario_into(prog, row, &mut one, &mut scratch));
            prop_assert_eq!(&one[..], &reference[k * np..(k + 1) * np], "row {} ({:?})", k, tier);
        }

        let mut batch = vec![Rat::ZERO; n * np];
        fp.eval_rows_into(prog, &rows, &mut batch, &mut scratch);
        prop_assert_eq!(&batch, &reference, "mixed batch of {} rows", n);

        for threads in THREAD_MATRIX {
            let mut out = vec![Rat::ZERO; n * np];
            with_threads(threads, || {
                kernel::with_target(KernelTarget::Auto, || ev.eval_batch_exact_into(&rows, &mut out))
            });
            prop_assert_eq!(&out, &reference, "public batch, threads {}", threads);
        }
    }

    /// Fine-bound property: rows with one large value (`±2^k`, `k` up
    /// to 40) in degree-10 programs, where the coarse bound always
    /// exceeds `2¹²⁷`, land in whatever tier the per-polynomial bound
    /// allows — and every tier, one row at a time or in a mixed ragged
    /// batch, matches the plain `Rat` walk.
    #[test]
    fn fine_tiers_agree_with_rat_walk(
        src in skew_polyset_strategy(),
        small in proptest::collection::vec((-12i128..13, 0usize..VALUE_DENS.len()), 3),
        bigs in proptest::collection::vec((0u32..41, 0u8..2), 1..40),
    ) {
        let mut reg = VarRegistry::new();
        let vars: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| reg.var(n)).collect();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let np = prog.num_polys();
        let rows: Vec<Vec<Rat>> = bigs
            .iter()
            .map(|&(k, neg)| {
                let mut val = Valuation::with_default(Rat::ONE);
                for (&v, &(n, den)) in vars.iter().zip(&small) {
                    val.set(v, Rat::new(n, VALUE_DENS[den]));
                }
                let big = 1i128 << k;
                val.set(vars[3], Rat::new(if neg == 1 { -big } else { big }, 1));
                prog.bind(&val).unwrap()
            })
            .collect();
        let n = rows.len();
        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        let fp = prog.fixed_program().expect("decimal programs lower");
        let mut scratch = FixedScratch::new();
        let mut one = vec![Rat::ZERO; np];
        for (k, row) in rows.iter().enumerate() {
            let tier = fp.tier(prog, row);
            let lowered = fp.eval_scenario_into(prog, row, &mut one, &mut scratch);
            prop_assert_eq!(lowered, tier != FixedTier::Rat);
            if lowered {
                prop_assert_eq!(&one[..], &reference[k * np..(k + 1) * np], "row {} ({:?})", k, tier);
            }
        }

        let mut batch = vec![Rat::ZERO; n * np];
        fp.eval_rows_into(prog, &rows, &mut batch, &mut scratch);
        prop_assert_eq!(&batch, &reference, "mixed batch of {} rows", n);
        for threads in THREAD_MATRIX {
            let mut out = vec![Rat::ZERO; n * np];
            with_threads(threads, || {
                kernel::with_target(KernelTarget::Auto, || ev.eval_batch_exact_into(&rows, &mut out))
            });
            prop_assert_eq!(&out, &reference, "public batch, threads {}", threads);
        }
    }

    /// The real sweep engines, end to end: exact folds are bit-identical
    /// with the fixed kernel on and off; `f64` folds are bit-identical
    /// across scalar/AVX2/auto; the FMA run stays within the *sound*
    /// Higham certificate of `sweep_fold_f64_bounded`.
    #[test]
    fn session_sweeps_agree_across_kernel_targets(
        m3_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let m3 = s.registry_mut().var("m3");
        let y1 = s.registry_mut().var("y1");
        let grid = ScenarioSet::grid()
            .axis([m3], m3_levels)
            .axis([y1], y1_levels)
            .build()
            .unwrap();

        // Exact engines: plain-Rat reference vs fixed-kernel runs.
        let exact_ref = kernel::with_target(KernelTarget::Scalar, || {
            s.sweep_fold(&grid, Collect::<Rat>::new(), folds::step).unwrap()
        })
        .finish();
        for threads in THREAD_MATRIX {
            for t in [KernelTarget::Auto, KernelTarget::Scalar] {
                let seq = kernel::with_target(t, || {
                    s.sweep_fold(&grid, Collect::<Rat>::new(), folds::step).unwrap()
                })
                .finish();
                prop_assert_eq!(&seq, &exact_ref, "seq target {}", t);
                let par = with_threads(threads, || {
                    kernel::with_target(t, || {
                        s.sweep_fold_par(&grid, Collect::<Rat>::new()).unwrap()
                    })
                })
                .finish();
                prop_assert_eq!(&par, &exact_ref, "par target {} threads {}", t, threads);
            }
        }

        // f64 engines: bit-identical across the non-FMA targets.
        let f64_ref = kernel::with_target(KernelTarget::Scalar, || {
            s.sweep_fold_f64(&grid, Collect::<f64>::new(), folds::step).unwrap()
        })
        .0
        .finish();
        for threads in THREAD_MATRIX {
            for t in IDENTICAL_TARGETS {
                let (seq, _) = kernel::with_target(t, || {
                    s.sweep_fold_f64(&grid, Collect::<f64>::new(), folds::step).unwrap()
                });
                prop_assert_eq!(&seq.finish(), &f64_ref, "seq target {}", t);
                let (par, _) = with_threads(threads, || {
                    kernel::with_target(t, || {
                        s.sweep_fold_f64_par(&grid, Collect::<f64>::new()).unwrap()
                    })
                });
                prop_assert_eq!(&par.finish(), &f64_ref, "par target {} threads {}", t, threads);
            }
        }

        // FMA through the bounded engine: each side of the comparison is
        // within its own sound rounding certificate of the true value at
        // the bound rows, so the two runs differ by at most the sum of
        // the two certificates.
        let (fma_out, fma_bound) = kernel::with_target(KernelTarget::Avx2Fma, || {
            s.sweep_fold_f64_bounded(
                &grid,
                SweepBudget::unlimited(),
                Collect::<f64>::new(),
                folds::step,
            )
            .unwrap()
        });
        let (ref_out, ref_bound) = kernel::with_target(KernelTarget::Scalar, || {
            s.sweep_fold_f64_bounded(
                &grid,
                SweepBudget::unlimited(),
                Collect::<f64>::new(),
                folds::step,
            )
            .unwrap()
        });
        let budget = fma_bound.max_abs_bound + ref_bound.max_abs_bound;
        let fma_rows = fma_out.into_fold().finish();
        let ref_rows = ref_out.into_fold().finish();
        prop_assert_eq!(fma_rows.len(), ref_rows.len());
        for ((i, f_full, f_comp), (j, r_full, r_comp)) in fma_rows.iter().zip(&ref_rows) {
            prop_assert_eq!(i, j);
            for (a, b) in f_full.iter().zip(r_full).chain(f_comp.iter().zip(r_comp)) {
                prop_assert!(
                    (a - b).abs() <= budget,
                    "scenario {}: fma {} vs scalar {} exceeds certificate {}",
                    i, a, b, budget
                );
            }
        }
    }
}

/// A crafted boundary: in `P0 = a⁴ + b` the fixed kernel evaluates `a`
/// at the row's common denominator scale `D`, so a huge denominator on
/// *b* pushes `(a·D)⁴` past `i128` even though the true value is tame
/// and plain `Rat` arithmetic never sees the blow-up. The kernel must
/// refuse that row, complete the benign one, and the public surface
/// must never show the difference.
#[test]
fn fixed_kernel_boundary_is_exact() {
    let mut reg = VarRegistry::new();
    let set = parse_polyset("P0 = 1*a^4 + 1*b", &mut reg).unwrap();
    let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
    let prog = ev.program();
    let fp = prog.fixed_program().expect("tiny program must lower");
    let mut scratch = FixedScratch::new();
    let mut out = vec![Rat::ZERO; 1];

    // D = 7: (3·7)⁴ is tiny, the kernel completes.
    let small = vec![Rat::new(3, 1), Rat::new(1, 7)];
    assert!(
        fp.eval_scenario_into(prog, &small, &mut out, &mut scratch),
        "D = 7 stays comfortably inside i128"
    );
    assert_eq!(out[0], Rat::new(568, 7)); // 3⁴ + 1/7

    // D = 10⁹: (10³·10⁹)⁴ = 10⁴⁸ ≫ i128::MAX, though a⁴ + b itself is
    // a perfectly representable rational.
    let big = vec![Rat::new(1000, 1), Rat::new(1, 1_000_000_000)];
    assert!(
        !fp.eval_scenario_into(prog, &big, &mut out, &mut scratch),
        "the scaled intermediate must overflow and demand the Rat fallback"
    );

    // The public batch surface hides the fallback entirely.
    let rows = vec![small, big];
    let mut fixed_out = vec![Rat::ZERO; 2];
    let mut rat_out = vec![Rat::ZERO; 2];
    kernel::with_target(KernelTarget::Auto, || {
        ev.eval_batch_exact_into(&rows, &mut fixed_out)
    });
    kernel::with_target(KernelTarget::Scalar, || {
        ev.eval_batch_exact_into(&rows, &mut rat_out)
    });
    assert_eq!(fixed_out, rat_out);
    assert_eq!(fixed_out[0], Rat::new(568, 7));
    assert_eq!(
        fixed_out[1],
        Rat::new(10i128.pow(21) + 1, 10i128.pow(9)) // 10¹² + 10⁻⁹
    );
}

/// Tier boundaries: in `P0 = a + b`, `P1 = a − b` the row bound is
/// `2·max(|a|, |b|)` (unit coefficients, degree 1, two terms), so rows
/// at `2⁶² − 1` / `2⁶²` and `2¹²⁶ − 1` / `2¹²⁶` sit just below / on each
/// tier limit. `a + b = 2⁶³` would wrap in `i64` lanes and must not be
/// computed there. A batch that is not a multiple of the lane width,
/// cycling through every tier, must match the plain `Rat` walk too.
#[test]
fn fixed_tier_boundaries_are_exact() {
    let mut reg = VarRegistry::new();
    let set = parse_polyset("P0 = a + b\nP1 = a - b", &mut reg).unwrap();
    let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
    let prog = ev.program();
    let fp = prog.fixed_program().expect("unit program lowers");
    let int = |x: i128| Rat::new(x, 1);
    let cases = [
        (int((1 << 62) - 1), int((1 << 62) - 1), FixedTier::I64),
        (int(1 << 62), int(1 << 62), FixedTier::I128),
        (int(-(1 << 62)), int(1 << 62), FixedTier::I128),
        (int((1 << 126) - 1), int((1 << 126) - 1), FixedTier::I128),
        (int(1 << 126), int(1 - (1 << 126)), FixedTier::Rat),
        (Rat::new(7, 3), Rat::new(-5, 2), FixedTier::I64),
    ];
    let mut scratch = FixedScratch::new();
    for (a, b, tier) in cases {
        let row = vec![a, b];
        assert_eq!(fp.tier(prog, &row), tier, "row {a:?}, {b:?}");
        let want = prog.eval_scenario(&row);
        let mut got = vec![Rat::ZERO; 2];
        let lowered = fp.eval_scenario_into(prog, &row, &mut got, &mut scratch);
        assert_eq!(lowered, tier != FixedTier::Rat);
        if lowered {
            assert_same_rats(&got, &want, "one row");
        }
    }
    assert_eq!(
        prog.eval_scenario(&[int(1 << 62), int(1 << 62)])[0],
        int(1 << 63)
    );

    // 37 rows (two full lane groups and a ragged one), tiers interleaved
    // so every lane group of each tier is a different mix of rows.
    let n = 37;
    assert_ne!(n % FIXED_LANES, 0);
    let rows: Vec<Vec<Rat>> = (0..n)
        .map(|k| {
            let (a, b, _) = cases[(k * 5) % cases.len()];
            vec![a, b]
        })
        .collect();
    let mut reference = vec![Rat::ZERO; 2 * n];
    for (k, row) in rows.iter().enumerate() {
        prog.eval_scenario_into(row, &mut reference[2 * k..2 * k + 2]);
    }
    let mut batch = vec![Rat::ZERO; 2 * n];
    fp.eval_rows_into(prog, &rows, &mut batch, &mut scratch);
    assert_same_rats(&batch, &reference, "mixed batch");
    for threads in THREAD_MATRIX {
        for t in [KernelTarget::Auto, KernelTarget::Scalar] {
            let mut out = vec![Rat::ZERO; 2 * n];
            with_threads(threads, || {
                kernel::with_target(t, || ev.eval_batch_exact_into(&rows, &mut out))
            });
            assert_same_rats(&out, &reference, &format!("target {t} threads {threads}"));
        }
    }
}

/// The fine bound at its limits. In `P0 = a⁸ + b`, `P1 = c` a large `b`
/// makes the coarse bound `max|c·S|·M⁸·2` astronomically loose (`10¹²⁰`
/// at `a = 2`, `b = 10¹⁵`), so every row below except the last takes
/// the per-polynomial bound, whose limits are `(1 − 2⁻²⁰)·2⁶³` =
/// `2⁶³ − 2⁴³` and `2¹²⁷ − 2¹⁰⁷`. A huge row denominator still forces
/// the `Rat` walk, and a coefficient past `i64` keeps a row out of the
/// `i64` tier even when its term vanishes.
#[test]
fn fine_bound_tiers_are_exact() {
    let mut reg = VarRegistry::new();
    let set = parse_polyset("P0 = 1*a^8 + 1*b\nP1 = 1*c", &mut reg).unwrap();
    let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
    let prog = ev.program();
    let fp = prog.fixed_program().expect("unit program lowers");
    let int = |x: i128| Rat::new(x, 1);
    let one = int(1);
    let cases = [
        (int(2), int(10i128.pow(15)), FixedTier::I64),
        (one, int(1 << 62), FixedTier::I64),
        (one, int((1 << 63) - (1 << 44)), FixedTier::I64),
        (one, int((1 << 63) - (1 << 42)), FixedTier::I128),
        (one, int(-(1 << 100)), FixedTier::I128),
        (one, int(i128::MAX - (1 << 108) + 1), FixedTier::I128),
        (one, int(i128::MAX - (1 << 106) + 1), FixedTier::Rat),
        (int(1000), Rat::new(1, 1_000_000_000), FixedTier::Rat),
        (int(3), Rat::new(1, 7), FixedTier::I64),
    ];
    let mut scratch = FixedScratch::new();
    let mut rows = Vec::new();
    for (a, b, tier) in cases {
        let row = vec![a, b, one];
        assert_eq!(fp.tier(prog, &row), tier, "row {a:?}, {b:?}");
        let want = prog.eval_scenario(&row);
        let mut got = vec![Rat::ZERO; 2];
        let lowered = fp.eval_scenario_into(prog, &row, &mut got, &mut scratch);
        assert_eq!(lowered, tier != FixedTier::Rat);
        if lowered {
            assert_same_rats(&got, &want, "one row");
        }
        rows.push(row);
    }
    // 37 rows cycling every case: lane groups of each tier, ragged ends.
    let rows: Vec<Vec<Rat>> = (0..37)
        .map(|k| rows[(k * 4) % rows.len()].clone())
        .collect();
    let mut reference = vec![Rat::ZERO; 2 * rows.len()];
    for (k, row) in rows.iter().enumerate() {
        prog.eval_scenario_into(row, &mut reference[2 * k..2 * k + 2]);
    }
    let mut batch = vec![Rat::ZERO; reference.len()];
    fp.eval_rows_into(prog, &rows, &mut batch, &mut scratch);
    assert_same_rats(&batch, &reference, "mixed batch");

    // `c·S = 10¹⁹` needs `i128` storage; with `a = 0` its term vanishes
    // and the fine bound is 2⁴⁰, but the row must stay out of `i64`.
    let set = parse_polyset("P0 = 10000000000000000000*a^8 + 1*b", &mut reg).unwrap();
    let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
    let prog = ev.program();
    let fp = prog.fixed_program().expect("i128 coefficients lower");
    let row = vec![Rat::ZERO, int(1 << 40)];
    assert_eq!(fp.tier(prog, &row), FixedTier::I128);
    let mut got = vec![Rat::ZERO; 1];
    assert!(fp.eval_scenario_into(prog, &row, &mut got, &mut scratch));
    assert_same_rats(&got, &prog.eval_scenario(&row), "i128 coefficients");
}

/// Tier coverage at the benchmark's shape: telephony provenance (one
/// polynomial per zip, plan × month monomials with decimal prices),
/// the Fig. 2 tree at the paper's bound scaled to 64 zips, and
/// 1,024 single-variable perturbations by factors 0.800–1.200. Every
/// scenario row — so every divergence probe — of both the full and
/// the compressed side takes the `i64` tier.
#[test]
fn paper_shaped_probe_rows_take_the_i64_tier() {
    let zips = 64;
    let config = TelephonyConfig {
        customers: zips * 1_000_000 / 1055,
        zips,
        months: 12,
        seed: 3,
    };
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    let mut s = CobraSession::new(reg, polys);
    s.add_tree_text(FIG2_TREE).unwrap();
    s.compress_frontier().unwrap();
    s.select_bound(94_600 * zips as u64 / 1055).unwrap();

    let vars: Vec<String> = PLANS
        .iter()
        .map(|(_, v)| (*v).to_owned())
        .chain((1..=12).map(|m| format!("m{m}")))
        .collect();
    let scenarios: Vec<Valuation<Rat>> = (0..1024)
        .map(|k| {
            let mut val = Valuation::with_default(Rat::ONE);
            let var = s.registry_mut().var(&vars[k % vars.len()]);
            val.set(var, Rat::new(800 + (k as i128 * 37) % 401, 1000));
            val
        })
        .collect();
    let set = ScenarioSet::from_valuations(scenarios);

    let abstraction = s.abstraction().unwrap();
    let engines = CompiledComparison::compile(s.polynomials(), &abstraction.compressed);
    let full = engines.full.program();
    let comp = engines.compressed.program();
    let (full_fp, comp_fp) = (full.fixed_program().unwrap(), comp.fixed_program().unwrap());
    let mut binder = PairBinder::new(&engines, &abstraction.meta_vars, s.base_valuation(), &set);
    let mut full_row = vec![Rat::ZERO; full.num_locals()];
    let mut comp_row = vec![Rat::ZERO; comp.num_locals()];
    for i in 0..set.len() {
        binder.bind_pair_into(i, &mut full_row, &mut comp_row);
        assert_eq!(
            full_fp.tier(full, &full_row),
            FixedTier::I64,
            "full side, scenario {i}"
        );
        assert_eq!(
            comp_fp.tier(comp, &comp_row),
            FixedTier::I64,
            "compressed side, scenario {i}"
        );
    }
}

/// `SessionInfo` reports the kernel the calling thread resolves —
/// the hook the server's `stats` reply rides.
#[test]
fn session_info_reports_resolved_kernel() {
    let s = compressed_session(6);
    let scalar = kernel::with_target(KernelTarget::Scalar, || s.info());
    assert_eq!(scalar.kernel, "scalar");
    let auto = kernel::with_target(KernelTarget::Auto, || s.info());
    if kernel::avx2_available() {
        assert_eq!(auto.kernel, "avx2");
    } else {
        assert_eq!(auto.kernel, "scalar");
    }
    // The container this suite gates in CI must actually exercise AVX2
    // somewhere; record the capability so a silent downgrade of the CI
    // runner fleet shows up as a test-log change, not silence.
    println!(
        "kernel capability: avx2={} fma={}",
        kernel::avx2_available(),
        kernel::fma_available()
    );
}

/// Under an explicit AVX2 target the whole suite above ran fused and
/// unfused variants; this pins the plumbing end to end on the `sweep`
/// convenience surface too (`rat` keeps the grid exactly representable).
#[test]
fn sweep_f64_matches_across_targets_end_to_end() {
    let mut s = compressed_session(6);
    let m3 = s.registry_mut().var("m3");
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("0.5"), rat("0.75"), rat("1"), rat("1.25")])
        .build()
        .unwrap();
    let reference = kernel::with_target(KernelTarget::Scalar, || s.sweep_f64(&grid).unwrap());
    for t in IDENTICAL_TARGETS {
        let swept = kernel::with_target(t, || s.sweep_f64(&grid).unwrap());
        for i in 0..grid.len() {
            for (a, b) in swept.full_row(i).iter().zip(reference.full_row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "target {t} scenario {i}");
            }
            for (a, b) in swept
                .compressed_row(i)
                .iter()
                .zip(reference.compressed_row(i))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "target {t} scenario {i}");
            }
        }
    }
}
