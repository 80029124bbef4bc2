//! The fixed-point lane kernel for the exact path.
//!
//! The `Rat` small-integer fast path showed how much skipping gcd
//! normalization buys; this kernel is its logical endpoint. Instead of
//! one rational reduction per ring operation, a whole scenario is
//! evaluated in **pure integer arithmetic** at a common scale:
//!
//! * per *program* (once, cached): `S` = lcm of all coefficient
//!   denominators, so every coefficient becomes the integer `c·S`;
//! * per *scenario*: `D` = lcm of the row's value denominators, so every
//!   value becomes the integer `x·D`; each term of total degree `g` in a
//!   polynomial of max degree `G` is then padded by `D^(G−g)`, making
//!   every addend an integer at the common scale `S·D^G`:
//!
//!   `poly(x) = ( Σ_t (c_t·S) · Π (x_v·D)^e · D^(G−g_t) ) / (S·D^G)`
//!
//!   — one [`Rat::new`] normalization per *polynomial* instead of one
//!   gcd per ring operation.
//!
//! ## Tiers
//!
//! Rows are evaluated [`FIXED_LANES`] at a time, one integer lane per
//! row, with **plain wrapping** multiplies and adds — no overflow checks
//! in the inner loop. Before a row joins a lane group it gets an
//! a-priori magnitude bound
//!
//! `B = max(max_t |c_t·S|, S) · M^G_max · max_terms_per_poly`,
//! where `M = max(D, max_v |x_v·D|)`,
//!
//! and the bound picks the row's tier ([`FixedTier`]): `B < 2⁶³` runs in
//! `i64` lanes, `B < 2¹²⁷` in `i128` lanes. `B` costs one pass over the
//! row, but one large value or one high degree anywhere inflates it for
//! every polynomial (in `x⁸ + y` at `x = 2`, `y = 10¹⁵` it is `10¹²⁰`
//! while the true sum is `10¹⁵`). So a row with `B ≥ 2¹²⁷` gets the
//! fine bound, one walk over the program per row:
//!
//! `F = max_p max( Σ_{t∈p} |c_t·S| · Π |x_v·D|^e · D^(G_p−g_t), S·D^G_p )`,
//!
//! summed in `f64`: `F < (1 − 2⁻²⁰)·2⁶³` runs in `i64` lanes,
//! `F < (1 − 2⁻²⁰)·2¹²⁷` in `i128` lanes, anything larger (or a row
//! whose `D` or `x·D` does not fit `i128`) takes the plain `Rat` walk.
//! Rows of one batch are grouped per tier, so a lane group never mixes
//! widths and a falling-back row never slows its neighbours.
//!
//! **Why the bound is sound.** Every addend is `|c·S| · Π|x·D|^e ·
//! D^(G_p−g)` with `g + (G_p − g) = G_p ≤ G_max` factors of magnitude at
//! most `M ≥ 1`, so it is at most `max|c·S| · M^G_max`; a polynomial sums
//! at most `max_terms_per_poly` of them, and its denominator `S·D^G_p` is
//! at most `S · M^G_max`. Wrapping arithmetic is exact modulo `2^w`
//! (two's complement is a ring homomorphism from ℤ), so whatever the
//! intermediates do, the final accumulator and denominator are congruent
//! to their true values; both are below `2^(w−1)` in magnitude by the
//! bound, hence the wrapped representatives *are* the true values. `F`
//! bounds the same two quantities term by term. Its `f64` value is a
//! sum of non-negative products in which every addend passes through at
//! most `k ≤ 195 + terms_per_poly` roundings of relative error
//! `u = 2⁻⁵³` (conversions, `D` powers, factor products, the running
//! sum), so it is at least `(1 − k·u)` times the exact sum. Term offsets
//! are `u32`, so `k·u < 2⁻²¹ + 2⁻⁴⁵`, and `F < (1 − 2⁻²⁰)·2^(w−1)`
//! keeps the exact sum below `2^(w−1)`. Because `Rat` keeps a unique canonical form, a row evaluated here is
//! then **representation-identical** to the plain `Rat` walk — pinned by
//! the tier and boundary tests in `tests/kernel_diff.rs`.

use crate::compile::EvalProgram;
use cobra_util::Rat;

/// Caps on the per-term total degree (sizes the per-scenario `D^k`
/// table) — programs beyond it simply stay on the `Rat` path.
const MAX_DEGREE: u64 = 64;

/// The fine bound's limits are `FINE_SLACK · 2⁶³` and `FINE_SLACK ·
/// 2¹²⁷`: room for its `f64` rounding (see the module docs).
const FINE_SLACK: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

/// Rows per lane group: one integer lane per scenario row.
pub const FIXED_LANES: usize = 16;

/// The arithmetic a row is evaluated in, chosen per row by its a-priori
/// magnitude bound (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixedTier {
    /// Bound below 2⁶³: `i64` lanes.
    I64,
    /// Bound below 2¹²⁷: `i128` lanes.
    I128,
    /// Bound beyond `i128` (or unscalable row): the plain `Rat` walk.
    Rat,
}

/// The scaled coefficients `c·S`, stored once in the narrowest type that
/// holds all of them. `i64` storage feeds both lane widths; `i128`
/// storage implies every row's bound is at least 2⁶³, so it only ever
/// feeds `i128` lanes.
#[derive(Debug)]
enum ScaledCoeffs {
    I64(Vec<i64>),
    I128(Vec<i128>),
}

/// A [`EvalProgram`]`<Rat>` lowered to common-scale integer form.
///
/// Built lazily (and cached) by
/// [`EvalProgram::fixed_program`]; `None` when the program's
/// coefficient scale or degrees do not fit the fixed-point guards.
#[derive(Debug)]
pub struct FixedProgram {
    /// `c·S` per term: exact integer coefficients at the common scale.
    coeffs: ScaledCoeffs,
    /// `S`: the lcm of every coefficient denominator.
    coeff_scale: i128,
    /// `max(max|c·S|, S)`: the coefficient factor of every row bound.
    coeff_bound: u128,
    /// Most terms in any one polynomial (at least 1).
    max_terms: u128,
    /// Total degree `g_t` of each term.
    term_degree: Vec<u32>,
    /// Max term degree `G_p` of each polynomial.
    poly_degree: Vec<u32>,
    /// Max degree over all polynomials (sizes the `D^k` table).
    max_degree: u32,
}

/// One lane group under construction: the transposed scaled values
/// (`xs[v·FIXED_LANES + lane]`), the per-lane `D^k` table and the output
/// row of each occupied lane.
#[derive(Debug, Default)]
struct LaneGroup<T> {
    xs: Vec<T>,
    dpow: Vec<T>,
    rows: Vec<usize>,
}

/// Reusable buffers for the fixed kernel — per-worker scratch, like
/// [`LaneScratch`](super::LaneScratch) for the `f64` kernels. Sized by
/// the lane width and the program's row width, never by the batch.
#[derive(Debug, Default)]
pub struct FixedScratch {
    narrow: LaneGroup<i64>,
    wide: LaneGroup<i128>,
}

impl FixedScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> FixedScratch {
        FixedScratch::default()
    }
}

/// Integer lane arithmetic: wrapping ring operations plus exact
/// conversions for values the tier bound proves in range.
trait Word: Copy + Default {
    const ONE: Self;
    fn narrow(x: i128) -> Self;
    fn widen(self) -> i128;
    fn wmul(self, o: Self) -> Self;
    fn wadd(self, o: Self) -> Self;
    fn wpow(self, e: u32) -> Self;
}

macro_rules! word {
    ($t:ty) => {
        impl Word for $t {
            const ONE: Self = 1;
            #[inline(always)]
            fn narrow(x: i128) -> Self {
                x as $t
            }
            #[inline(always)]
            fn widen(self) -> i128 {
                self as i128
            }
            #[inline(always)]
            fn wmul(self, o: Self) -> Self {
                self.wrapping_mul(o)
            }
            #[inline(always)]
            fn wadd(self, o: Self) -> Self {
                self.wrapping_add(o)
            }
            #[inline(always)]
            fn wpow(self, e: u32) -> Self {
                self.wrapping_pow(e)
            }
        }
    };
}
word!(i64);
word!(i128);

impl<T: Word> LaneGroup<T> {
    /// Places row `r` (denominator `d`) in the next free lane. The caller
    /// has checked the row's bound, so every scaled value fits `T`. The
    /// buffers are sized when a group opens, so a tier no row of a batch
    /// needs allocates nothing.
    fn push(&mut self, r: usize, row: &[Rat], d: i128, max_degree: u32) {
        let lane = self.rows.len();
        if lane == 0 {
            self.xs.resize(row.len() * FIXED_LANES, T::default());
            self.dpow
                .resize((max_degree as usize + 1) * FIXED_LANES, T::default());
        }
        for (v, x) in row.iter().enumerate() {
            let x = scaled(*x, d).expect("classified rows scale within i128");
            self.xs[v * FIXED_LANES + lane] = T::narrow(x);
        }
        let d = T::narrow(d);
        self.dpow[lane] = T::ONE;
        for k in 1..=max_degree as usize {
            self.dpow[k * FIXED_LANES + lane] = self.dpow[(k - 1) * FIXED_LANES + lane].wmul(d);
        }
        self.rows.push(r);
    }

    fn is_full(&self) -> bool {
        self.rows.len() == FIXED_LANES
    }
}

/// `x·D` for a multiple `D` of `x`'s denominator, `None` past `i128`.
/// The common denominators (1 and `D` itself) skip the `i128` division.
#[inline]
fn scaled(x: Rat, d: i128) -> Option<i128> {
    let den = x.denom();
    let factor = if den == 1 {
        d
    } else if den == d {
        1
    } else {
        d / den
    };
    x.numer().checked_mul(factor)
}

impl FixedProgram {
    /// Lowers an exact program to fixed-point form, or `None` when the
    /// coefficient scale overflows `i128` or any term's degree exceeds
    /// the table guard.
    pub fn prepare(prog: &EvalProgram<Rat>) -> Option<FixedProgram> {
        let mut coeff_scale: i128 = 1;
        for c in prog.coeffs.iter() {
            coeff_scale = checked_lcm(coeff_scale, c.denom())?;
        }
        let coeff_num: Vec<i128> = prog
            .coeffs
            .iter()
            .map(|c| c.numer().checked_mul(coeff_scale / c.denom()))
            .collect::<Option<_>>()?;
        let coeff_bound = coeff_num
            .iter()
            .map(|c| c.unsigned_abs())
            .fold(coeff_scale.unsigned_abs(), u128::max);
        let coeffs = match coeff_num.iter().map(|&c| i64::try_from(c)).collect() {
            Ok(narrow) => ScaledCoeffs::I64(narrow),
            Err(_) => ScaledCoeffs::I128(coeff_num),
        };
        let num_terms = prog.coeffs.len();
        let mut term_degree = Vec::with_capacity(num_terms);
        for t in 0..num_terms {
            let factors = prog.term_offsets[t] as usize..prog.term_offsets[t + 1] as usize;
            let g: u64 = factors.map(|f| prog.exps[f] as u64).sum();
            if g > MAX_DEGREE {
                return None;
            }
            term_degree.push(g as u32);
        }
        let mut poly_degree = Vec::with_capacity(prog.num_polys());
        let mut max_terms = 1u128;
        for p in 0..prog.num_polys() {
            let terms = prog.poly_offsets[p] as usize..prog.poly_offsets[p + 1] as usize;
            max_terms = max_terms.max(terms.len() as u128);
            poly_degree.push(terms.map(|t| term_degree[t]).max().unwrap_or(0));
        }
        let max_degree = poly_degree.iter().copied().max().unwrap_or(0);
        Some(FixedProgram {
            coeffs,
            coeff_scale,
            coeff_bound,
            max_terms,
            term_degree,
            poly_degree,
            max_degree,
        })
    }

    /// The tier `row` evaluates in, by its a-priori magnitude bound (see
    /// the module docs). `prog` is the program this fixed form was
    /// prepared from.
    pub fn tier(&self, prog: &EvalProgram<Rat>, row: &[Rat]) -> FixedTier {
        self.classify(prog, row).1
    }

    /// The row's common denominator `D` and its tier: the coarse bound,
    /// refined by [`fine_tier`](Self::fine_tier) when the coarse bound
    /// leaves the integer tiers.
    fn classify(&self, prog: &EvalProgram<Rat>, row: &[Rat]) -> (i128, FixedTier) {
        let mut d: i128 = 1;
        for x in row {
            let den = x.denom();
            if den != 1 && den != d && d % den != 0 {
                match checked_lcm(d, den) {
                    Some(l) => d = l,
                    None => return (d, FixedTier::Rat),
                }
            }
        }
        let mut m = d.unsigned_abs();
        for x in row {
            match scaled(*x, d) {
                Some(v) => m = m.max(v.unsigned_abs()),
                None => return (d, FixedTier::Rat),
            }
        }
        let mut bound = self.coeff_bound.saturating_mul(self.max_terms);
        for _ in 0..self.max_degree {
            bound = bound.saturating_mul(m);
        }
        let tier = if bound < 1 << 63 {
            FixedTier::I64
        } else if bound < 1 << 127 {
            FixedTier::I128
        } else {
            self.fine_tier(prog, row, d)
        };
        (d, tier)
    }

    /// The tier by the per-polynomial, per-variable bound
    /// `max_p max(Σ_t |c_t·S| · Π |x_v·D|^e · D^(G_p−g_t), S·D^G_p)`,
    /// summed in `f64` (see the module docs for why the slack on the
    /// limits keeps it sound). One walk over the program, paid only by
    /// rows the coarse bound sends to the `Rat` walk.
    fn fine_tier(&self, prog: &EvalProgram<Rat>, row: &[Rat], d: i128) -> FixedTier {
        let mags: Vec<f64> = row
            .iter()
            .map(|x| {
                scaled(*x, d)
                    .expect("classified rows scale within i128")
                    .unsigned_abs() as f64
            })
            .collect();
        let df = d as f64;
        let mut dpow = vec![1.0f64; self.max_degree as usize + 1];
        for k in 1..dpow.len() {
            dpow[k] = dpow[k - 1] * df;
        }
        let coeff = |t: usize| match &self.coeffs {
            ScaledCoeffs::I64(c) => c[t].unsigned_abs() as f64,
            ScaledCoeffs::I128(c) => c[t].unsigned_abs() as f64,
        };
        let scale = self.coeff_scale as f64;
        let mut worst = 0.0f64;
        for (p, &gp) in self.poly_degree.iter().enumerate() {
            let mut sum = 0.0f64;
            for t in prog.poly_offsets[p] as usize..prog.poly_offsets[p + 1] as usize {
                let mut term = coeff(t) * dpow[(gp - self.term_degree[t]) as usize];
                for f in prog.term_offsets[t] as usize..prog.term_offsets[t + 1] as usize {
                    let m = mags[prog.var_ids[f] as usize];
                    for _ in 0..prog.exps[f] {
                        term *= m;
                    }
                }
                sum += term;
            }
            // `max` would drop a NaN (a zero coefficient times an
            // overflowed `D` power): such a row falls back.
            if sum.is_nan() {
                return FixedTier::Rat;
            }
            worst = worst.max(sum).max(scale * dpow[gp as usize]);
        }
        let tier = if worst < FINE_SLACK * 2f64.powi(63) {
            FixedTier::I64
        } else if worst < FINE_SLACK * 2f64.powi(127) {
            FixedTier::I128
        } else {
            FixedTier::Rat
        };
        match (tier, &self.coeffs) {
            // `i128` coefficients only ever feed `i128` lanes.
            (FixedTier::I64, ScaledCoeffs::I128(_)) => FixedTier::I128,
            _ => tier,
        }
    }

    /// Evaluates every row of `rows` into `out` (`rows.len() × num_polys`
    /// canonical [`Rat`]s, row-major): each row in the lane tier its
    /// bound allows, the rest through [`EvalProgram::eval_scenario_into`].
    /// The output is representation-identical to the plain `Rat` walk
    /// whatever the tier split.
    ///
    /// # Panics
    /// Panics if a row's or `out`'s width does not match `prog`, or if
    /// `prog` is not the program this fixed form was prepared from (term
    /// counts differ).
    pub fn eval_rows_into<R: AsRef<[Rat]>>(
        &self,
        prog: &EvalProgram<Rat>,
        rows: &[R],
        out: &mut [Rat],
        scratch: &mut FixedScratch,
    ) {
        let np = prog.num_polys();
        let nl = prog.num_locals();
        assert_eq!(out.len(), rows.len() * np, "output buffer size");
        assert_eq!(self.term_degree.len(), prog.num_terms(), "foreign program");
        let FixedScratch { narrow, wide } = scratch;
        narrow.rows.clear();
        wide.rows.clear();
        for (r, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), nl, "scenario row width");
            match self.classify(prog, row) {
                (d, FixedTier::I64) => {
                    narrow.push(r, row, d, self.max_degree);
                    if narrow.is_full() {
                        self.flush_narrow(prog, narrow, out);
                    }
                }
                (d, FixedTier::I128) => {
                    wide.push(r, row, d, self.max_degree);
                    if wide.is_full() {
                        self.flush_wide(prog, wide, out);
                    }
                }
                (_, FixedTier::Rat) => prog.eval_scenario_into(row, &mut out[r * np..(r + 1) * np]),
            }
        }
        self.flush_narrow(prog, narrow, out);
        self.flush_wide(prog, wide, out);
    }

    /// Evaluates one row if its bound admits an integer tier, writing
    /// `num_polys` canonical [`Rat`]s into `out`; returns `false` — with
    /// `out` untouched — when the row needs the plain `Rat` walk
    /// ([`EvalProgram::eval_scenario_into`], which produces the identical
    /// canonical values wherever this kernel completes).
    ///
    /// # Panics
    /// Same conditions as [`eval_rows_into`](Self::eval_rows_into).
    pub fn eval_scenario_into(
        &self,
        prog: &EvalProgram<Rat>,
        row: &[Rat],
        out: &mut [Rat],
        scratch: &mut FixedScratch,
    ) -> bool {
        if self.tier(prog, row) == FixedTier::Rat {
            return false;
        }
        self.eval_rows_into(prog, std::slice::from_ref(&row), out, scratch);
        true
    }

    fn flush_narrow(&self, prog: &EvalProgram<Rat>, g: &mut LaneGroup<i64>, out: &mut [Rat]) {
        match &self.coeffs {
            ScaledCoeffs::I64(c) => self.run_group(prog, c, g, out),
            ScaledCoeffs::I128(_) => {
                debug_assert!(g.rows.is_empty(), "i128 coefficients bound ≥ 2⁶³")
            }
        }
        g.rows.clear();
    }

    fn flush_wide(&self, prog: &EvalProgram<Rat>, g: &mut LaneGroup<i128>, out: &mut [Rat]) {
        match &self.coeffs {
            ScaledCoeffs::I64(c) => self.run_group(prog, c, g, out),
            ScaledCoeffs::I128(c) => self.run_group(prog, c, g, out),
        }
        g.rows.clear();
    }

    /// Runs a group at one lane for a lone row (an `assign`), at
    /// [`FIXED_LANES`] otherwise.
    fn run_group<T: Word + From<C>, C: Copy>(
        &self,
        prog: &EvalProgram<Rat>,
        coeffs: &[C],
        g: &LaneGroup<T>,
        out: &mut [Rat],
    ) {
        match g.rows.len() {
            0 => {}
            1 => self.run_lanes::<T, C, 1>(prog, coeffs, g, out),
            _ => self.run_lanes::<T, C, FIXED_LANES>(prog, coeffs, g, out),
        }
    }

    /// The lane kernel: every term is applied to the group's first `W`
    /// lanes before the next term, in wrapping `T` arithmetic. Lanes past
    /// `g.rows.len()` hold stale values whose results are discarded.
    fn run_lanes<T: Word + From<C>, C: Copy, const W: usize>(
        &self,
        prog: &EvalProgram<Rat>,
        coeffs: &[C],
        g: &LaneGroup<T>,
        out: &mut [Rat],
    ) {
        let np = prog.num_polys();
        let (poly_offsets, term_offsets) = (&prog.poly_offsets[..], &prog.term_offsets[..]);
        let (var_ids, exps) = (&prog.var_ids[..], &prog.exps[..]);
        let scale = T::narrow(self.coeff_scale);
        let lane = |buf: &[T], i: usize| -> [T; W] {
            let at = i * FIXED_LANES;
            buf[at..at + W].try_into().expect("lane slice")
        };
        for (p, &gp) in self.poly_degree.iter().enumerate() {
            let mut acc = [T::default(); W];
            for t in poly_offsets[p] as usize..poly_offsets[p + 1] as usize {
                let mut prod = [T::from(coeffs[t]); W];
                for f in term_offsets[t] as usize..term_offsets[t + 1] as usize {
                    let x = lane(&g.xs, var_ids[f] as usize);
                    match exps[f] {
                        1 => {
                            for l in 0..W {
                                prod[l] = prod[l].wmul(x[l]);
                            }
                        }
                        e => {
                            for l in 0..W {
                                prod[l] = prod[l].wmul(x[l].wpow(e));
                            }
                        }
                    }
                }
                let pad = (gp - self.term_degree[t]) as usize;
                if pad > 0 {
                    let dp = lane(&g.dpow, pad);
                    for l in 0..W {
                        prod[l] = prod[l].wmul(dp[l]);
                    }
                }
                for l in 0..W {
                    acc[l] = acc[l].wadd(prod[l]);
                }
            }
            let dg = lane(&g.dpow, gp as usize);
            for (l, &r) in g.rows.iter().enumerate() {
                out[r * np + p] = Rat::new(acc[l].widen(), scale.wmul(dg[l]).widen());
            }
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `lcm` with overflow detection. Inputs are positive here (`Rat`
/// denominators), but the zero guard keeps the helper total.
fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcm_helper() {
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(1, 100), Some(100));
        assert_eq!(checked_lcm(i128::MAX, 2), None);
    }
}
