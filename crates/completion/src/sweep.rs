//! Streamed sweep infrastructure shared by the completion optimizers:
//! per-mode observation streams, leave-one-out `z` gathers, and the one
//! row kernel every optimizer's row subproblem runs.
//!
//! This is the fit-side analog of the serving layer's compiled query path:
//! instead of chasing `entries[e] → indices[e*d..] → factor rows` per
//! observation, a CP sweep reads flat [`ModeStream`] arrays and gathers
//! each observation's `z` from one buffer holding every factor end to end
//! ([`PackedFactors`], refreshed after each mode update). A
//! `GatherLayout`, built once per fit, stores for every observation the
//! element offsets of its `d` factor rows in that buffer; a stream slot
//! reaches them through its entry id, so a row read is one offset load
//! and one rank-wide slice. The gather folds the `d − 1` foreign rows in
//! exactly the order of [`CpDecomp::leave_one_out_canonical`], so every
//! `z` is the canonical one bit-for-bit at every order. The fold is
//! monomorphized on the order `d ∈ 1..=9` (foreign counts 0–8; the
//! paper's largest, KRIPKE, has order 9); higher orders run the same fold
//! over a run-time count.
//!
//! Every optimizer solves the same Eq. 3 row subproblem by accumulating one
//! weighted Gram system over the row's observations: ALS the normal
//! equations `Σ z zᵀ`, `Σ t·z`; AMN the Newton system `Σ h·z zᵀ`, `Σ g·z`;
//! Tucker-ALS the normal equations over core-contracted `z`. One kernel,
//! `accumulate`, builds all three: it takes where each slot's `z` comes
//! from (a `Gather` or `Cached`) and a per-slot coefficient pair. The
//! ranks the paper sweeps cluster at small powers of two, so the kernel —
//! like the `z`-cache fill — is monomorphized for `R ∈ {2, 4, 8, 16}` with
//! fixed-size-array loops that fully unroll, falling back to a
//! dynamic-rank path otherwise. Every fixed shape, of rank or of order,
//! performs the exact per-element operation sequence of the dynamic one,
//! so the dispatch is bitwise invisible — the determinism contract the
//! streamed-vs-reference proptests pin.

use cpr_tensor::linalg::solve_spd_jittered_into;
use cpr_tensor::{CpDecomp, Matrix, ModeStream, PackedFactors, SparseTensor};
use std::ops::Range;

/// Build the per-mode observation streams of a fit (one counting-sort pass
/// per mode; shared by ALS/AMN/Tucker-ALS and cached across streaming
/// refits by the CPR layer).
pub fn build_streams(obs: &SparseTensor) -> Vec<ModeStream> {
    (0..obs.order()).map(|m| obs.mode_stream(m)).collect()
}

/// The leave-one-out gather layout of one CP fit: every factor packed end
/// to end, and for every observation the element offsets of its `d`
/// factor rows in the pack (`d` per entry, entry-major, mode order). A
/// mode update reaches a slot's foreign rows through the slot's entry id
/// and skips the free mode's own row. The offsets are built once per fit;
/// a sweep refreshes a mode's packed rows right after updating the mode
/// ([`Self::refresh`]), so the pack always holds the Gauss-Seidel state
/// the next mode's row solves read.
pub(crate) struct GatherLayout {
    packed: PackedFactors,
    offsets: Vec<u32>,
}

impl GatherLayout {
    /// Pack `cp`'s factors and turn `obs`' multi-indices into row offsets.
    /// Offsets are stored rather than computed per read (`base + i·R` in
    /// the hot loop costs more than the load), and per entry rather than
    /// per mode and slot: all `d` modes share one table `d − 1` times
    /// smaller, which a refit builds in microseconds instead of most of a
    /// millisecond. Panics when the pack is too large for `u32` offsets.
    pub fn new(cp: &CpDecomp, obs: &SparseTensor) -> Self {
        let packed = cp.packed();
        assert!(
            packed.as_slice().len() <= u32::MAX as usize,
            "CP factors too large for u32 gather offsets"
        );
        let (d, rank) = (cp.order(), cp.rank());
        let starts: Vec<usize> = (0..d).map(|j| packed.row_start(j, 0)).collect();
        let mut offsets = Vec::with_capacity(obs.nnz() * d);
        for e in 0..obs.nnz() {
            let rows = obs.index(e).iter().zip(&starts);
            offsets.extend(rows.map(|(&i, &start)| (start + i as usize * rank) as u32));
        }
        Self { packed, offsets }
    }

    /// The gather of `stream`'s mode over all its slots (cut to one row
    /// with [`Gather::row`]).
    pub fn mode<'a>(&'a self, stream: &'a ModeStream) -> Gather<'a> {
        Gather {
            packed: self.packed.as_slice(),
            offsets: &self.offsets,
            entries: stream.entry_ids(),
            d: self.packed.order(),
            free: stream.mode(),
        }
    }

    /// Copy mode `mode`'s updated factor into the pack.
    pub fn refresh(&mut self, mode: usize, factor: &Matrix) {
        self.packed.refresh_mode(mode, factor);
    }
}

/// The order of a [`Gather`] that is known only at run time.
const ANY_ORDER: usize = usize::MAX;

/// Slot `k`'s `z` gathered from the packed factors: the rows at the
/// offsets of the slot's entry, all but the free mode's, folded around
/// the free mode. `D` is the order `d` as a compile-time constant, or
/// [`ANY_ORDER`].
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a, const D: usize = ANY_ORDER> {
    packed: &'a [f64],
    offsets: &'a [u32],
    /// Entry id of each slot.
    entries: &'a [u32],
    d: usize,
    free: usize,
}

impl<'a> Gather<'a> {
    /// The gather of the row whose stream slots are `slots`.
    pub fn row(self, slots: Range<usize>) -> Self {
        Self {
            entries: &self.entries[slots],
            ..self
        }
    }

    /// This gather with its order as a constant.
    fn with_order<const D: usize>(self) -> Gather<'a, D> {
        debug_assert_eq!(self.d, D);
        Gather {
            packed: self.packed,
            offsets: self.offsets,
            entries: self.entries,
            d: D,
            free: self.free,
        }
    }

    /// [`accumulate`] over the row's `n` gathered `z`, dispatched on the
    /// order (then, inside, on the rank).
    pub fn accumulate(
        self,
        n: usize,
        coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
        gram: &mut [f64],
        rhs: &mut [f64],
        z: &mut [f64],
    ) -> bool {
        match self.d {
            1 => accumulate(self.with_order::<1>(), n, coeffs, gram, rhs, z),
            2 => accumulate(self.with_order::<2>(), n, coeffs, gram, rhs, z),
            3 => accumulate(self.with_order::<3>(), n, coeffs, gram, rhs, z),
            4 => accumulate(self.with_order::<4>(), n, coeffs, gram, rhs, z),
            5 => accumulate(self.with_order::<5>(), n, coeffs, gram, rhs, z),
            6 => accumulate(self.with_order::<6>(), n, coeffs, gram, rhs, z),
            7 => accumulate(self.with_order::<7>(), n, coeffs, gram, rhs, z),
            8 => accumulate(self.with_order::<8>(), n, coeffs, gram, rhs, z),
            9 => accumulate(self.with_order::<9>(), n, coeffs, gram, rhs, z),
            _ => accumulate(self, n, coeffs, gram, rhs, z),
        }
    }

    /// Fill the row's `z`-cache (`len * rank` contiguous, one `z` per slot)
    /// — what AMN's Newton iterations re-read all row. Dispatched on the
    /// order like [`Self::accumulate`], then on the rank like
    /// [`accumulate`].
    pub fn fill_zcache(self, len: usize, rank: usize, zcache: &mut Vec<f64>) {
        match self.d {
            1 => self.with_order::<1>().fill(len, rank, zcache),
            2 => self.with_order::<2>().fill(len, rank, zcache),
            3 => self.with_order::<3>().fill(len, rank, zcache),
            4 => self.with_order::<4>().fill(len, rank, zcache),
            5 => self.with_order::<5>().fill(len, rank, zcache),
            6 => self.with_order::<6>().fill(len, rank, zcache),
            7 => self.with_order::<7>().fill(len, rank, zcache),
            8 => self.with_order::<8>().fill(len, rank, zcache),
            9 => self.with_order::<9>().fill(len, rank, zcache),
            _ => self.fill(len, rank, zcache),
        }
    }
}

impl<const D: usize> Gather<'_, D> {
    /// The row offsets of slot `k`'s entry (`D` of them when `D` is fixed),
    /// the free mode's included.
    #[inline(always)]
    fn slot(&self, k: usize) -> &[u32] {
        let d = if D == ANY_ORDER { self.d } else { D };
        let start = self.entries[k] as usize * d;
        &self.offsets[start..start + d]
    }

    /// [`Gather::fill_zcache`] at this order.
    fn fill(self, len: usize, rank: usize, zcache: &mut Vec<f64>) {
        zcache.clear();
        zcache.reserve(len * rank);
        match rank {
            2 => self.fill_fixed::<2>(len, zcache),
            4 => self.fill_fixed::<4>(len, zcache),
            8 => self.fill_fixed::<8>(len, zcache),
            16 => self.fill_fixed::<16>(len, zcache),
            _ => {
                for k in 0..len {
                    let start = zcache.len();
                    zcache.resize(start + rank, 0.0);
                    self.dynamic(k, &mut zcache[start..]);
                }
            }
        }
    }

    #[inline]
    fn fill_fixed<const R: usize>(self, len: usize, zcache: &mut Vec<f64>) {
        for k in 0..len {
            zcache.extend_from_slice(&self.fixed::<R>(k));
        }
    }
}

/// Where slot `k`'s `z` comes from in [`accumulate`]: gathered from the
/// packed factor rows ([`Gather`]) or read from a materialized row cache
/// ([`Cached`]).
pub(crate) trait SlotZ {
    /// Slot `k`'s `z` at a compile-time rank.
    fn fixed<const R: usize>(&self, k: usize) -> [f64; R];
    /// Slot `k`'s `z` at the run-time rank `z.len()`: written into `z`, or
    /// borrowed from the source. Bitwise equal to [`SlotZ::fixed`] per
    /// element.
    fn dynamic<'s>(&'s self, k: usize, z: &'s mut [f64]) -> &'s [f64];
}

/// The canonical fold: `S` descending over the rows of the modes after
/// the free one from an all-ones start, `P` ascending over those before it
/// from an all-ones start, then `P ⊙ S` — with an empty fold skipped, as
/// [`CpDecomp::leave_one_out_canonical`] skips it.
impl<const D: usize> SlotZ for Gather<'_, D> {
    #[inline(always)]
    fn fixed<const R: usize>(&self, k: usize) -> [f64; R] {
        let o = self.slot(k);
        let (d, free) = (o.len(), self.free);
        // Plain range-indexed slices on purpose — the array-conversion
        // form (`try_into`) nudges LLVM into the SLP shuffle pattern (see
        // the kernel-shape notes on `accumulate`).
        let row = |j: usize| {
            let at = o[j] as usize;
            &self.packed[at..at + R]
        };
        // Both folds loop over all `d` modes and test each against the
        // free one, rather than looping over `free + 1..d` and `0..free`:
        // at a fixed order the constant trip counts unroll fully, and each
        // test takes the same branch for every slot of a mode update. The
        // run-time trip counts left one loop step per row, about 8% of the
        // six-app fit.
        let mut s = [1.0f64; R];
        for j in (0..d).rev() {
            if j > free {
                let u = row(j);
                for r in 0..R {
                    s[r] *= u[r];
                }
            }
        }
        if free == 0 {
            return s;
        }
        let mut z = [1.0f64; R];
        for j in 0..d {
            if j < free {
                let u = row(j);
                for r in 0..R {
                    z[r] *= u[r];
                }
            }
        }
        if free + 1 < d {
            for r in 0..R {
                z[r] *= s[r];
            }
        }
        z
    }

    #[inline]
    fn dynamic<'s>(&'s self, k: usize, z: &'s mut [f64]) -> &'s [f64] {
        // Element-major so no second rank-wide buffer is needed: each
        // element's fold is independent, so the per-element operation
        // sequence is the fixed-rank one.
        let o = self.slot(k);
        let (left, right) = (&o[..self.free], &o[self.free + 1..]);
        for (r, out) in z.iter_mut().enumerate() {
            let at = |at: u32| self.packed[at as usize + r];
            let mut s = 1.0f64;
            for &a in right.iter().rev() {
                s *= at(a);
            }
            if left.is_empty() {
                *out = s;
                continue;
            }
            let mut p = 1.0f64;
            for &a in left {
                p *= at(a);
            }
            *out = if right.is_empty() { p } else { p * s };
        }
        z
    }
}

/// `z` read from a materialized row cache: one `z` per slot, contiguous
/// (AMN's `z`-cache, Tucker's core-contracted design vectors).
#[derive(Clone, Copy)]
pub(crate) struct Cached<'a>(pub &'a [f64]);

impl SlotZ for Cached<'_> {
    #[inline(always)]
    fn fixed<const R: usize>(&self, k: usize) -> [f64; R] {
        let mut z = [0.0f64; R];
        z.copy_from_slice(&self.0[k * R..(k + 1) * R]);
        z
    }

    #[inline]
    fn dynamic<'s>(&'s self, k: usize, z: &'s mut [f64]) -> &'s [f64] {
        let rank = z.len();
        &self.0[k * rank..(k + 1) * rank]
    }
}

/// Accumulate one row's weighted Gram system over its `n` slots — the
/// Eq. 3 row subproblem every optimizer solves. For slot `k`, with `z`
/// from `zs` and `(a, c) = coeffs(k, z)`: `rhs += a·z` and
/// `gram += (c·z) zᵀ` (full square). ALS and Tucker-ALS pass `(t, 1.0)`
/// (`1.0·x` is `x` bitwise, so that is the plain normal equations); AMN
/// passes its Newton gradient and Hessian scalars. A `None` from `coeffs`
/// aborts: the function returns `false` and leaves `gram`/`rhs`
/// unspecified. The rank is `rhs.len()`; `z` is rank-long scratch that
/// only the dynamic-rank kernel touches.
///
/// The per-rank kernel shapes below look interchangeable but compile very
/// differently (measured on the bench scales, `target-cpu=native`):
///
/// * `R ∈ {2, 4}` — `acc_small`: gram lives in nested stack arrays the
///   whole row; LLVM keeps the full accumulator in registers (~8x the
///   iterator shape at rank 4).
/// * `R = 8` — `acc_mid`: range-indexed slice rows. The
///   `chunks_exact_mut` + array-conversion shape triggers an SLP
///   shuffle-storm (`vpermt2pd` chains) that runs at scalar speed; plain
///   indexed loops get the clean broadcast-multiply-add pattern (~2.4x).
/// * `R = 16` — `acc_wide`: the row loop must stay *rolled* (runtime
///   trip count via `rhs.len()`), otherwise full unrolling re-triggers the
///   SLP explosion (~4x).
/// * any other rank — [`accumulate_dyn`].
///
/// All shapes perform the identical per-element operation sequence, so
/// they are bitwise interchangeable — which one runs is purely a codegen
/// choice, pinned by `monomorphized_kernels_bitwise_match_generic`.
#[inline]
pub(crate) fn accumulate(
    zs: impl SlotZ,
    n: usize,
    coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
    gram: &mut [f64],
    rhs: &mut [f64],
    z: &mut [f64],
) -> bool {
    match rhs.len() {
        2 => acc_small::<2>(zs, n, coeffs, gram, rhs),
        4 => acc_small::<4>(zs, n, coeffs, gram, rhs),
        8 => acc_mid::<8>(zs, n, coeffs, gram, rhs),
        16 => acc_wide::<16>(zs, n, coeffs, gram, rhs),
        _ => accumulate_dyn(zs, n, coeffs, gram, rhs, z),
    }
}

#[inline]
fn acc_small<const R: usize>(
    zs: impl SlotZ,
    n: usize,
    mut coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
    gram: &mut [f64],
    rhs: &mut [f64],
) -> bool {
    let mut g = [[0.0f64; R]; R];
    let mut rh = [0.0f64; R];
    for k in 0..n {
        let z = zs.fixed::<R>(k);
        let Some((a, c)) = coeffs(k, &z) else {
            return false;
        };
        for r in 0..R {
            rh[r] += a * z[r];
        }
        for i in 0..R {
            let zi = c * z[i];
            let row = &mut g[i];
            for j in 0..R {
                row[j] += zi * z[j];
            }
        }
    }
    for (grow, g) in gram.chunks_exact_mut(R).zip(&g) {
        grow.copy_from_slice(g);
    }
    rhs.copy_from_slice(&rh);
    true
}

#[inline]
fn acc_mid<const R: usize>(
    zs: impl SlotZ,
    n: usize,
    mut coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
    gram: &mut [f64],
    rhs: &mut [f64],
) -> bool {
    gram.fill(0.0);
    rhs.fill(0.0);
    for k in 0..n {
        let z = zs.fixed::<R>(k);
        let Some((a, c)) = coeffs(k, &z) else {
            return false;
        };
        for r in 0..R {
            rhs[r] += a * z[r];
        }
        for i in 0..R {
            let zi = c * z[i];
            let row = &mut gram[i * R..(i + 1) * R];
            for j in 0..R {
                row[j] += zi * z[j];
            }
        }
    }
    true
}

#[inline]
fn acc_wide<const R: usize>(
    zs: impl SlotZ,
    n: usize,
    mut coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
    gram: &mut [f64],
    rhs: &mut [f64],
) -> bool {
    gram.fill(0.0);
    rhs.fill(0.0);
    // Runtime trip count on purpose: keeps the row loop rolled (see
    // `accumulate`).
    let rank = rhs.len();
    for k in 0..n {
        let z = zs.fixed::<R>(k);
        let Some((a, c)) = coeffs(k, &z) else {
            return false;
        };
        for (r, &zr) in rhs.iter_mut().zip(&z) {
            *r += a * zr;
        }
        for (grow, &zi) in gram.chunks_exact_mut(rank).zip(&z) {
            let zi = c * zi;
            for (g, &zj) in grow.iter_mut().zip(&z) {
                *g += zi * zj;
            }
        }
    }
    true
}

/// The dynamic-rank kernel of [`accumulate`] (same contract), run for the
/// ranks without a fixed shape. AMN's reference sweep calls it directly,
/// so the specification the streamed sweep is tested against never routes
/// through the dispatch under test.
pub(crate) fn accumulate_dyn(
    zs: impl SlotZ,
    n: usize,
    mut coeffs: impl FnMut(usize, &[f64]) -> Option<(f64, f64)>,
    gram: &mut [f64],
    rhs: &mut [f64],
    z: &mut [f64],
) -> bool {
    gram.fill(0.0);
    rhs.fill(0.0);
    let rank = rhs.len();
    for k in 0..n {
        let z = zs.dynamic(k, z);
        let Some((a, c)) = coeffs(k, z) else {
            return false;
        };
        for (r, &zr) in rhs.iter_mut().zip(z) {
            *r += a * zr;
        }
        for (grow, &zi) in gram.chunks_exact_mut(rank).zip(z) {
            let zi = c * zi;
            for (g, &zj) in grow.iter_mut().zip(z) {
                *g += zi * zj;
            }
        }
    }
    true
}

/// Per-worker scratch of a least-squares row solve (ALS and Tucker-ALS):
/// the row's normal equations, the Cholesky workspace and a rank-long
/// `z`, allocated once per parallel block instead of once per row.
pub(crate) struct RowSystem {
    pub gram: Matrix,
    pub chol: Matrix,
    pub rhs: Vec<f64>,
    pub z: Vec<f64>,
}

impl RowSystem {
    pub fn new(rank: usize) -> Self {
        Self {
            gram: Matrix::zeros(rank, rank),
            chol: Matrix::zeros(rank, rank),
            rhs: vec![0.0; rank],
            z: vec![0.0; rank],
        }
    }

    /// Finish a row whose `n` observations are accumulated: scale the
    /// normal equations by `1/n` (the paper's row objective scales its
    /// data term by `1/|Ω_i|`), add `λ` on the diagonal and solve straight
    /// into `row`. Returns the scale, which
    /// [`fused_quadratic_loss`] needs to recover the row's data loss.
    pub fn solve_into(&mut self, n: usize, lambda: f64, row: &mut [f64]) -> f64 {
        let scale = 1.0 / n as f64;
        self.gram.scale_mut(scale);
        for r in &mut self.rhs {
            *r *= scale;
        }
        for a in 0..self.rhs.len() {
            self.gram[(a, a)] += lambda;
        }
        solve_spd_jittered_into(&self.gram, &self.rhs, &mut self.chol, row);
        scale
    }
}

/// Post-solve fused data loss of a least-squares row (or the Tucker core):
/// `Σ_e (z_eᵀu − t_e)² = uᵀGu − 2uᵀr + Σt²` with `G, r` the *unscaled*
/// normal equations, recovered from the scaled+ridged system just solved
/// (`G'' = s·G + λI`, `r'' = s·r`). `O(R²)`, no second pass over entries;
/// cancellation noise is ~1e-16·Σt², far below the trace tolerances that
/// consume it.
pub(crate) fn fused_quadratic_loss(
    gram: &[f64],
    rhs: &[f64],
    u: &[f64],
    rank: usize,
    lambda: f64,
    scale: f64,
    t2: f64,
) -> f64 {
    let mut quad = 0.0;
    for (a, &ua) in u.iter().enumerate() {
        let dot: f64 = gram[a * rank..(a + 1) * rank]
            .iter()
            .zip(u)
            .map(|(gv, &ub)| gv * ub)
            .sum();
        quad += ua * dot;
    }
    let unormsq: f64 = u.iter().map(|x| x * x).sum();
    let udotr: f64 = u.iter().zip(rhs).map(|(a, b)| a * b).sum();
    (quad - lambda * unormsq - 2.0 * udotr) / scale + t2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amn::newton_coeffs;
    use cpr_tensor::CpDecomp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_obs(dims: &[usize], n: usize, seed: u64) -> SparseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = SparseTensor::new(dims);
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..n {
            for (j, &dj) in dims.iter().enumerate() {
                idx[j] = rng.gen_range(0..dj);
            }
            obs.push(&idx, rng.gen_range(-2.0..2.0));
        }
        obs
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    /// One row system: whether it ran to the end, then `gram` and `rhs`.
    type System = (bool, Vec<f64>, Vec<f64>);

    fn assert_systems_equal(a: &System, b: &System, what: &str) {
        assert_eq!(a.0, b.0, "abort {what}");
        if a.0 {
            assert_bits(&a.1, &b.1, &format!("gram {what}"));
            assert_bits(&a.2, &b.2, &format!("rhs {what}"));
        }
    }

    /// One row system, built into fresh buffers by `build(gram, rhs, z)`.
    fn system(
        rank: usize,
        build: impl FnOnce(&mut [f64], &mut [f64], &mut [f64]) -> bool,
    ) -> System {
        let (mut gram, mut rhs, mut z) = (vec![0.0; rank * rank], vec![0.0; rank], vec![0.0; rank]);
        let ok = build(&mut gram, &mut rhs, &mut z);
        (ok, gram, rhs)
    }

    /// Every fixed kernel shape agrees bitwise with the dynamic one — they
    /// are the same operation sequence with different loop trip counts.
    /// Per row of every free mode, at every order 1–10 (every foreign count
    /// the gather dispatches on, 0–8, and the run-time-order fold above)
    /// and ranks 1, 2, 3, 4, 8 and 16, with both coefficient kinds (least
    /// squares `(t, 1.0)`, and AMN's Newton scalars, which abort on rows
    /// whose model value leaves the positive domain): the system built from
    /// the gather through the order and rank dispatch, through the rank
    /// dispatch alone, and from its filled `z`-cache equals the all-dynamic
    /// one (run-time order, `accumulate_dyn`); and the cache fill, through
    /// the order dispatch and at run-time order, gives the canonical `z`
    /// per entry.
    #[test]
    fn monomorphized_kernels_bitwise_match_generic() {
        let cases: [&[usize]; 10] = [
            &[5],
            &[4, 3],
            &[5, 4, 3],
            &[3, 3, 2, 3],
            &[3, 2, 3, 2, 3],
            &[3, 2, 3, 2, 3, 2],
            &[2, 3, 2, 2, 3, 2, 2],
            &[2, 2, 3, 2, 2, 3, 2, 2],
            &[2, 3, 2, 2, 3, 2, 2, 3, 2],
            &[2, 2, 2, 3, 2, 2, 2, 2, 3, 2],
        ];
        let (mut built, mut aborted) = (0usize, 0usize);
        for dims in cases {
            for &rank in &[1usize, 2, 3, 4, 8, 16] {
                let obs = random_obs(dims, 30, rank as u64);
                let cp = CpDecomp::random(dims, rank, -1.0, 1.0, 7);
                let streams = build_streams(&obs);
                let layout = GatherLayout::new(&cp, &obs);
                let mut rng = StdRng::seed_from_u64(rank as u64 + 11);
                let u: Vec<f64> = (0..rank).map(|_| rng.gen_range(0.1..1.0)).collect();
                for (mode, stream) in streams.iter().enumerate() {
                    for i in 0..stream.rows() {
                        let rng = stream.row_range(i);
                        if rng.is_empty() {
                            continue;
                        }
                        let gather = layout.mode(stream).row(rng.clone());
                        let ids = &stream.entry_ids()[rng.clone()];
                        let vals = &stream.values()[rng];
                        let n = vals.len();
                        let what = format!("order {} mode {mode} rank {rank}", dims.len());

                        // The cache fill agrees with the canonical z per entry.
                        let mut zc = Vec::new();
                        gather.fill_zcache(n, rank, &mut zc);
                        let mut zc_any = Vec::new();
                        gather.fill(n, rank, &mut zc_any);
                        assert_bits(&zc, &zc_any, &format!("zcache order dispatch {what}"));
                        let mut zref = vec![0.0; rank];
                        for (k, &e) in ids.iter().enumerate() {
                            cp.leave_one_out_canonical(obs.index(e as usize), mode, &mut zref);
                            assert_bits(
                                &zc[k * rank..(k + 1) * rank],
                                &zref,
                                &format!("zcache {what}"),
                            );
                        }
                        let cached = Cached(&zc);

                        let inv = 1.0 / n as f64;
                        let ls = |k: usize, _: &[f64]| Some((vals[k], 1.0));
                        let newton = |k: usize, z: &[f64]| {
                            let m: f64 = z.iter().zip(&u).map(|(a, b)| a * b).sum();
                            newton_coeffs(m, vals[k], inv)
                        };
                        for (kind, coeffs) in [
                            ("LS", &ls as &dyn Fn(usize, &[f64]) -> Option<(f64, f64)>),
                            ("Newton", &newton),
                        ] {
                            let what = format!("{kind} {what}");
                            let spec =
                                system(rank, |g, r, z| accumulate_dyn(gather, n, coeffs, g, r, z));
                            let shapes = [
                                system(rank, |g, r, z| gather.accumulate(n, coeffs, g, r, z)),
                                system(rank, |g, r, z| accumulate(gather, n, coeffs, g, r, z)),
                                system(rank, |g, r, z| accumulate(cached, n, coeffs, g, r, z)),
                                system(rank, |g, r, z| accumulate_dyn(cached, n, coeffs, g, r, z)),
                            ];
                            let names = ["order+rank", "rank", "cached", "cached dyn"];
                            for (shape, sys) in names.iter().zip(&shapes) {
                                assert_systems_equal(&spec, sys, &format!("{shape} {what}"));
                            }
                            match (kind, spec.0) {
                                ("LS", ok) => assert!(ok, "least squares aborted {what}"),
                                (_, true) => built += 1,
                                (_, false) => aborted += 1,
                            }
                        }
                    }
                }
            }
        }
        assert!(
            built > 0 && aborted > 0,
            "Newton rows: {built} built, {aborted} aborted"
        );
    }
}
