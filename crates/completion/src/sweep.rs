//! Streamed sweep infrastructure shared by the completion optimizers:
//! per-mode observation streams, leave-one-out `z` sourcing, and the one
//! row kernel every optimizer's row subproblem runs.
//!
//! This is the fit-side analog of the serving layer's compiled query path:
//! instead of chasing `entries[e] → indices[e*d..] → factor rows` per
//! observation, a sweep reads flat [`ModeStream`] arrays and gathers each
//! observation's `z` straight from the `d − 1` foreign factor rows named by
//! the stream's materialized foreign indices (`ZSource`). The gather
//! folds the rows in exactly the order of
//! [`CpDecomp::leave_one_out_canonical`], so every `z` is the canonical one
//! bit-for-bit at every order.
//!
//! Every optimizer solves the same Eq. 3 row subproblem by accumulating one
//! weighted Gram system over the row's observations: ALS the normal
//! equations `Σ z zᵀ`, `Σ t·z`; AMN the Newton system `Σ h·z zᵀ`, `Σ g·z`;
//! Tucker-ALS the normal equations over core-contracted `z`. One kernel,
//! `accumulate`, builds all three: it takes where each slot's `z` comes
//! from (`Gathered` or `Cached`) and a per-slot coefficient pair. The
//! ranks the paper sweeps cluster at small powers of two, so the kernel —
//! like the `z`-cache fill — is monomorphized for `R ∈ {2, 4, 8, 16}` with
//! fixed-size-array loops that fully unroll, falling back to a
//! dynamic-rank path otherwise. Every fixed shape performs the exact
//! per-element operation sequence of the dynamic one, so the dispatch is
//! bitwise invisible — the determinism contract the streamed-vs-reference
//! proptests pin.

use cpr_tensor::linalg::solve_spd_jittered_into;
use cpr_tensor::{CpDecomp, Matrix, ModeStream, SparseTensor};

/// Build the per-mode observation streams of a fit (one counting-sort pass
/// per mode; shared by ALS/AMN/Tucker-ALS and cached across streaming
/// refits by the CPR layer).
pub fn build_streams(obs: &SparseTensor) -> Vec<ModeStream> {
    (0..obs.order()).map(|m| obs.mode_stream(m)).collect()
}

/// The foreign factors of one mode update: every factor but `mode`'s, in
/// ascending mode order, as flat row-major slices (stride = rank). Slot
/// `k` of a mode's stream names its row of foreign factor `j` at
/// `foreign[k * (d − 1) + j]`. `frozen` may have `mode`'s factor taken.
pub(crate) fn foreign_factors(frozen: &CpDecomp, mode: usize) -> Vec<&[f64]> {
    (0..frozen.order())
        .filter(|&j| j != mode)
        .map(|j| frozen.factor(j).as_slice())
        .collect()
}

/// Where a mode's leave-one-out vectors come from: direct gathers of the
/// foreign factor rows (see [`foreign_factors`]).
///
/// Every variant produces the canonical `z` of
/// [`CpDecomp::leave_one_out_canonical`] bit-for-bit.
#[derive(Clone, Copy)]
pub(crate) enum ZSource<'a> {
    /// Order-1 model: empty product.
    Ones,
    /// Order 2: `z` is a copy of the single foreign factor's row.
    One(&'a [f64]),
    /// Order 3: `z` is the Hadamard product of the two foreign factors'
    /// rows, ascending mode order.
    Two(&'a [f64], &'a [f64]),
    /// Order ≥ 4: the `d − 1` foreign factors and the free mode `m` (the
    /// number of foreign factors before it). `z = P ⊙ S` with `P` the
    /// ascending left fold of foreign factors `0..m` and `S` the descending
    /// right fold of `m..d−1`, each from an all-ones start — the canonical
    /// association, recomputed per observation in `O(dR)` from rows that
    /// stay cache-resident.
    Fold(&'a [&'a [f64]], usize),
}

/// Pick the `z` source of free mode `mode` over its foreign factors.
pub(crate) fn z_source<'a>(foreign: &'a [&'a [f64]], mode: usize) -> ZSource<'a> {
    match *foreign {
        [] => ZSource::Ones,
        [f0] => ZSource::One(f0),
        [f0, f1] => ZSource::Two(f0, f1),
        _ => ZSource::Fold(foreign, mode),
    }
}

/// Where slot `k`'s `z` comes from in [`accumulate`] and [`fill_zcache`]:
/// gathered from the foreign factor rows ([`Gathered`]) or read from a
/// materialized row cache ([`Cached`]).
pub(crate) trait SlotZ {
    /// Slot `k`'s `z` at a compile-time rank.
    fn fixed<const R: usize>(&self, k: usize) -> [f64; R];
    /// Slot `k`'s `z` at the run-time rank `z.len()`: written into `z`, or
    /// borrowed from the source. Bitwise equal to [`SlotZ::fixed`] per
    /// element.
    fn dynamic<'s>(&'s self, k: usize, z: &'s mut [f64]) -> &'s [f64];
}

/// `z` gathered through a [`ZSource`] from the foreign factor rows a row's
/// stream slots name (`foreign` is the row's slot slice of a
/// [`ModeStream`]).
#[derive(Clone, Copy)]
pub(crate) struct Gathered<'a> {
    pub src: ZSource<'a>,
    pub foreign: &'a [u32],
}

impl SlotZ for Gathered<'_> {
    #[inline(always)]
    fn fixed<const R: usize>(&self, k: usize) -> [f64; R] {
        let foreign = self.foreign;
        let mut z = [1.0f64; R];
        match self.src {
            ZSource::Ones => {}
            ZSource::One(f0) => {
                let i0 = foreign[k] as usize;
                z.copy_from_slice(&f0[i0 * R..(i0 + 1) * R]);
            }
            ZSource::Two(f0, f1) => {
                let i0 = foreign[2 * k] as usize;
                let i1 = foreign[2 * k + 1] as usize;
                // Plain range-indexed slices on purpose — the
                // array-conversion form (`try_into`) nudges LLVM into the
                // SLP shuffle pattern (see the kernel-shape notes on
                // `accumulate`).
                let r0 = &f0[i0 * R..(i0 + 1) * R];
                let r1 = &f1[i1 * R..(i1 + 1) * R];
                for r in 0..R {
                    z[r] = r0[r] * r1[r];
                }
            }
            ZSource::Fold(factors, split) => {
                let fd = factors.len();
                let idx = &foreign[k * fd..(k + 1) * fd];
                let row = |j: usize| {
                    let i = idx[j] as usize;
                    &factors[j][i * R..(i + 1) * R]
                };
                let mut s = [1.0f64; R];
                for j in (split..fd).rev() {
                    let u = row(j);
                    for r in 0..R {
                        s[r] *= u[r];
                    }
                }
                if split == 0 {
                    return s;
                }
                for j in 0..split {
                    let u = row(j);
                    for r in 0..R {
                        z[r] *= u[r];
                    }
                }
                if split < fd {
                    for r in 0..R {
                        z[r] *= s[r];
                    }
                }
            }
        }
        z
    }

    #[inline]
    fn dynamic<'s>(&'s self, k: usize, z: &'s mut [f64]) -> &'s [f64] {
        let (foreign, rank) = (self.foreign, z.len());
        match self.src {
            ZSource::Ones => z.fill(1.0),
            ZSource::One(f0) => {
                let i0 = foreign[k] as usize;
                z.copy_from_slice(&f0[i0 * rank..(i0 + 1) * rank]);
            }
            ZSource::Two(f0, f1) => {
                let i0 = foreign[2 * k] as usize;
                let i1 = foreign[2 * k + 1] as usize;
                let r0 = &f0[i0 * rank..(i0 + 1) * rank];
                let r1 = &f1[i1 * rank..(i1 + 1) * rank];
                for ((o, &a), &b) in z.iter_mut().zip(r0).zip(r1) {
                    *o = a * b;
                }
            }
            ZSource::Fold(factors, split) => {
                // Element-major so no second rank-wide buffer is needed:
                // each element's fold is independent, so the per-element
                // operation sequence is the fixed-rank one.
                let fd = factors.len();
                let idx = &foreign[k * fd..(k + 1) * fd];
                for (r, o) in z.iter_mut().enumerate() {
                    let at = |j: usize| factors[j][idx[j] as usize * rank + r];
                    let mut s = 1.0f64;
                    for j in (split..fd).rev() {
                        s *= at(j);
                    }
                    if split == 0 {
                        *o = s;
                        continue;
                    }
                    let mut p = 1.0f64;
                    for j in 0..split {
                        p *= at(j);
                    }
                    *o = if split < fd { p * s } else { p };
                }
            }
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

/// Fill a row's `z`-cache (`len * rank` contiguous, one `z` per slot of
/// the row) from its gathered `z` — what AMN's Newton iterations re-read
/// all row. Rank-monomorphized like [`accumulate`].
pub(crate) fn fill_zcache(zs: Gathered<'_>, len: usize, rank: usize, zcache: &mut Vec<f64>) {
    zcache.clear();
    zcache.reserve(len * rank);
    match rank {
        2 => fill_zcache_fixed::<2>(zs, len, zcache),
        4 => fill_zcache_fixed::<4>(zs, len, zcache),
        8 => fill_zcache_fixed::<8>(zs, len, zcache),
        16 => fill_zcache_fixed::<16>(zs, len, zcache),
        _ => {
            for k in 0..len {
                let start = zcache.len();
                zcache.resize(start + rank, 0.0);
                zs.dynamic(k, &mut zcache[start..]);
            }
        }
    }
}

#[inline]
fn fill_zcache_fixed<const R: usize>(zs: Gathered<'_>, len: usize, zcache: &mut Vec<f64>) {
    for k in 0..len {
        zcache.extend_from_slice(&zs.fixed::<R>(k));
    }
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

    /// `accumulate` through its dispatch, checked against `accumulate_dyn`.
    fn run_both(
        zs: impl SlotZ + Copy,
        n: usize,
        coeffs: impl Fn(usize, &[f64]) -> Option<(f64, f64)> + Copy,
        rank: usize,
        what: &str,
    ) -> System {
        let mut z = vec![0.0; rank];
        let mut run = |dispatch: bool| {
            let (mut gram, mut rhs) = (vec![0.0; rank * rank], vec![0.0; rank]);
            let ok = if dispatch {
                accumulate(zs, n, coeffs, &mut gram, &mut rhs, &mut z)
            } else {
                accumulate_dyn(zs, n, coeffs, &mut gram, &mut rhs, &mut z)
            };
            (ok, gram, rhs)
        };
        let fixed = run(true);
        assert_systems_equal(&fixed, &run(false), what);
        fixed
    }

    /// Every fixed kernel shape agrees bitwise with the dynamic-rank kernel
    /// — they are the same operation sequence with different loop trip
    /// counts — for both `z` sources (gathered through every `ZSource`:
    /// the order-2 and order-3 gathers and the fold at orders 4, 6 and 9,
    /// every free mode; and the materialized cache) and both coefficient
    /// kinds (least squares `(t, 1.0)`, and AMN's Newton scalars, which
    /// abort on rows whose model value leaves the positive domain). The
    /// gathered and cached sources give the same systems, and the cache
    /// fill gives the canonical per-entry `z`.
    #[test]
    fn monomorphized_kernels_bitwise_match_generic() {
        let cases = [
            vec![4usize, 3],
            vec![5, 4, 3],
            vec![3, 3, 2, 3],
            vec![3, 2, 3, 2, 3, 2],
            vec![2, 3, 2, 2, 3, 2, 2, 3, 2],
        ];
        let (mut built, mut aborted) = (0usize, 0usize);
        for dims in &cases {
            for &rank in &[1usize, 2, 3, 4, 8, 16] {
                let obs = random_obs(dims, 30, rank as u64);
                let cp = CpDecomp::random(dims, rank, -1.0, 1.0, 7);
                let mut rng = StdRng::seed_from_u64(rank as u64 + 11);
                let u: Vec<f64> = (0..rank).map(|_| rng.gen_range(0.1..1.0)).collect();
                for mode in 0..dims.len() {
                    let stream = obs.mode_stream(mode);
                    let factors = foreign_factors(&cp, mode);
                    let src = z_source(&factors, mode);
                    for i in 0..stream.rows() {
                        let rng = stream.row_range(i);
                        if rng.is_empty() {
                            continue;
                        }
                        let ids = &stream.entry_ids()[rng.clone()];
                        let vals = &stream.values()[rng];
                        let n = vals.len();
                        let gathered = Gathered {
                            src,
                            foreign: stream.row_foreign(i),
                        };
                        let mut zc = Vec::new();
                        fill_zcache(gathered, n, rank, &mut zc);
                        let cached = Cached(&zc);
                        let what = format!("order {} mode {mode} rank {rank}", dims.len());

                        let ls = |k: usize, _: &[f64]| Some((vals[k], 1.0));
                        let from_gather = run_both(gathered, n, ls, rank, &what);
                        assert!(from_gather.0, "least squares aborted {what}");
                        let from_cache = run_both(cached, n, ls, rank, &what);
                        assert_systems_equal(&from_gather, &from_cache, &format!("LS {what}"));

                        let inv = 1.0 / n as f64;
                        let newton = |k: usize, z: &[f64]| {
                            let m: f64 = z.iter().zip(&u).map(|(a, b)| a * b).sum();
                            newton_coeffs(m, vals[k], inv)
                        };
                        let from_gather = run_both(gathered, n, newton, rank, &what);
                        let from_cache = run_both(cached, n, newton, rank, &what);
                        assert_systems_equal(&from_gather, &from_cache, &format!("Newton {what}"));
                        if from_gather.0 {
                            built += 1;
                        } else {
                            aborted += 1;
                        }

                        // The cache fill agrees with the canonical z per entry.
                        let mut zref = vec![0.0; rank];
                        for (k, &e) in ids.iter().enumerate() {
                            cp.leave_one_out_canonical(obs.index(e as usize), mode, &mut zref);
                            for (a, b) in zc[k * rank..(k + 1) * rank].iter().zip(&zref) {
                                assert_eq!(a.to_bits(), b.to_bits(), "zcache {what}");
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
