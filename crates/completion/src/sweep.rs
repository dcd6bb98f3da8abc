//! Streamed sweep infrastructure shared by the completion optimizers:
//! per-mode observation streams, leave-one-out `z` sourcing, and the
//! rank-monomorphized normal-equation kernels.
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
//! The ranks the paper sweeps cluster at small powers of two, so the
//! hottest kernels — the `gram += z zᵀ` / `rhs += t z` rank-1 updates and
//! the `z`-cache fills — are monomorphized for `R ∈ {2, 4, 8, 16}` with
//! fixed-size-array accumulators whose loops fully unroll, falling back to
//! a generic dynamic-rank path otherwise. Every monomorphized kernel
//! performs the exact per-element operation sequence of its generic
//! counterpart, so the dispatch is bitwise invisible — the determinism
//! contract the streamed-vs-reference proptests pin.

use cpr_tensor::{CpDecomp, ModeStream, SparseTensor};

/// Build the per-mode observation streams of a fit (one counting-sort pass
/// per mode; shared by ALS/AMN/CCD/Tucker-ALS and cached across streaming
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

/// Load one observation's `z` into a fixed-size array. `k` is the slot
/// index within the row (indexes `foreign`).
#[inline(always)]
fn load_z<const R: usize>(src: &ZSource<'_>, foreign: &[u32], k: usize) -> [f64; R] {
    let mut z = [1.0f64; R];
    match *src {
        ZSource::Ones => {}
        ZSource::One(f0) => {
            let i0 = foreign[k] as usize;
            z.copy_from_slice(&f0[i0 * R..(i0 + 1) * R]);
        }
        ZSource::Two(f0, f1) => {
            let i0 = foreign[2 * k] as usize;
            let i1 = foreign[2 * k + 1] as usize;
            // Plain range-indexed slices on purpose — the array-conversion
            // form (`try_into`) nudges LLVM into the SLP shuffle pattern
            // (see the kernel-shape notes on the dispatch below).
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

/// Dynamic-rank counterpart of [`load_z`] (generic fallback), bitwise
/// identical per element.
#[inline]
fn load_z_generic(src: &ZSource<'_>, foreign: &[u32], k: usize, rank: usize, z: &mut [f64]) {
    match *src {
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
            // Element-major so no second rank-wide buffer is needed: each
            // element's fold is independent, so the per-element operation
            // sequence is the fixed-rank one.
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
}

/// Accumulate one row's normal equations straight from the `z` source:
/// `gram += Σ z_e z_eᵀ` (full square), `rhs += Σ t_e z_e`; returns
/// `Σ t_e²`. `foreign`/`values` are the row's slot slices of a
/// [`ModeStream`]; rank-monomorphized dispatch with a generic fallback
/// (`z_scratch` is only touched by the fallback).
/// The per-rank kernel shapes below look interchangeable but compile very
/// differently (measured on the bench scales, `target-cpu=native`):
///
/// * `R ≤ 4` — `acc_ne_small`: gram lives in nested stack arrays the whole
///   row; LLVM keeps the full accumulator in registers (~8x the iterator
///   shape at rank 4).
/// * `R = 8` — `acc_ne_mid`: range-indexed slice rows. The
///   `chunks_exact_mut` + array-conversion shape triggers an SLP
///   shuffle-storm (`vpermt2pd` chains) that runs at scalar speed; plain
///   indexed loops get the clean broadcast-multiply-add pattern (~2.4x).
/// * `R = 16` — `acc_ne_wide`: the row loop must stay *rolled* (runtime
///   trip count via `rhs.len()`), otherwise full unrolling re-triggers the
///   SLP explosion (~4x).
///
/// All shapes perform the identical per-element operation sequence, so
/// they are bitwise interchangeable — which one runs is purely a codegen
/// choice, pinned by `monomorphized_kernels_bitwise_match_generic`.
pub(crate) fn accumulate_normal_equations_streamed(
    src: ZSource<'_>,
    foreign: &[u32],
    values: &[f64],
    rank: usize,
    gram: &mut [f64],
    rhs: &mut [f64],
    z_scratch: &mut [f64],
) -> f64 {
    match rank {
        2 => acc_ne_small::<2>(&src, foreign, values, gram, rhs),
        4 => acc_ne_small::<4>(&src, foreign, values, gram, rhs),
        8 => match src {
            // The hot production configuration (order-3 grids at rank 8):
            // a dedicated two-entry-unrolled kernel that halves the gram
            // row traffic.
            ZSource::Two(f0, f1) => acc_two_mid2::<8>(f0, f1, foreign, values, gram, rhs),
            _ => acc_ne_mid::<8>(&src, foreign, values, gram, rhs),
        },
        16 => acc_ne_wide::<16>(&src, foreign, values, gram, rhs),
        _ => acc_ne_generic(&src, foreign, values, rank, gram, rhs, z_scratch),
    }
}

/// Order-3 specialization of the mid-rank kernel, two entries per
/// iteration: each gram row is loaded and stored once per *pair* of
/// observations (`row[b] + za0·z0[b] + za1·z1[b]`, left-associated — the
/// bitwise-identical composition of the two sequential `+=` updates), which
/// halves the dominant load/store chain on the accumulator.
#[inline]
fn acc_two_mid2<const R: usize>(
    f0: &[f64],
    f1: &[f64],
    foreign: &[u32],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) -> f64 {
    gram.fill(0.0);
    rhs.fill(0.0);
    let mut t2 = 0.0;
    let n = values.len();
    let mut k = 0usize;
    while k + 1 < n {
        let (t0, t1) = (values[k], values[k + 1]);
        let mut z0 = [0.0f64; R];
        let mut z1 = [0.0f64; R];
        {
            let i0 = foreign[2 * k] as usize;
            let i1 = foreign[2 * k + 1] as usize;
            let r0 = &f0[i0 * R..(i0 + 1) * R];
            let r1 = &f1[i1 * R..(i1 + 1) * R];
            for r in 0..R {
                z0[r] = r0[r] * r1[r];
            }
            let j0 = foreign[2 * k + 2] as usize;
            let j1 = foreign[2 * k + 3] as usize;
            let s0 = &f0[j0 * R..(j0 + 1) * R];
            let s1 = &f1[j1 * R..(j1 + 1) * R];
            for r in 0..R {
                z1[r] = s0[r] * s1[r];
            }
        }
        t2 += t0 * t0;
        t2 += t1 * t1;
        for r in 0..R {
            rhs[r] = rhs[r] + t0 * z0[r] + t1 * z1[r];
        }
        for a in 0..R {
            let za0 = z0[a];
            let za1 = z1[a];
            let row = &mut gram[a * R..(a + 1) * R];
            for b in 0..R {
                row[b] = row[b] + za0 * z0[b] + za1 * z1[b];
            }
        }
        k += 2;
    }
    if k < n {
        let t = values[k];
        let i0 = foreign[2 * k] as usize;
        let i1 = foreign[2 * k + 1] as usize;
        let r0 = &f0[i0 * R..(i0 + 1) * R];
        let r1 = &f1[i1 * R..(i1 + 1) * R];
        let mut z = [0.0f64; R];
        for r in 0..R {
            z[r] = r0[r] * r1[r];
        }
        t2 += t * t;
        for r in 0..R {
            rhs[r] += t * z[r];
        }
        for a in 0..R {
            let za = z[a];
            let row = &mut gram[a * R..(a + 1) * R];
            for b in 0..R {
                row[b] += za * z[b];
            }
        }
    }
    t2
}

#[inline]
fn acc_ne_small<const R: usize>(
    src: &ZSource<'_>,
    foreign: &[u32],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) -> f64 {
    let mut g = [[0.0f64; R]; R];
    let mut rh = [0.0f64; R];
    let mut t2 = 0.0;
    for (k, &t) in values.iter().enumerate() {
        let z = load_z::<R>(src, foreign, k);
        t2 += t * t;
        for r in 0..R {
            rh[r] += t * z[r];
        }
        for a in 0..R {
            let za = z[a];
            let row = &mut g[a];
            for b in 0..R {
                row[b] += za * z[b];
            }
        }
    }
    for (grow, g) in gram.chunks_exact_mut(R).zip(&g) {
        grow.copy_from_slice(g);
    }
    rhs.copy_from_slice(&rh);
    t2
}

#[inline]
fn acc_ne_mid<const R: usize>(
    src: &ZSource<'_>,
    foreign: &[u32],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) -> f64 {
    gram.fill(0.0);
    rhs.fill(0.0);
    let mut t2 = 0.0;
    for (k, &t) in values.iter().enumerate() {
        let z = load_z::<R>(src, foreign, k);
        t2 += t * t;
        for r in 0..R {
            rhs[r] += t * z[r];
        }
        for a in 0..R {
            let za = z[a];
            let row = &mut gram[a * R..(a + 1) * R];
            for b in 0..R {
                row[b] += za * z[b];
            }
        }
    }
    t2
}

#[inline]
fn acc_ne_wide<const R: usize>(
    src: &ZSource<'_>,
    foreign: &[u32],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) -> f64 {
    gram.fill(0.0);
    rhs.fill(0.0);
    // Runtime trip count on purpose: keeps the row loop rolled (see the
    // dispatch docs).
    let rank = rhs.len();
    let mut t2 = 0.0;
    for (k, &t) in values.iter().enumerate() {
        let z = load_z::<R>(src, foreign, k);
        t2 += t * t;
        for (r, &za) in rhs.iter_mut().zip(&z) {
            *r += t * za;
        }
        for (grow, &za) in gram.chunks_exact_mut(rank).zip(&z) {
            for (g, &zb) in grow.iter_mut().zip(&z) {
                *g += za * zb;
            }
        }
    }
    t2
}

fn acc_ne_generic(
    src: &ZSource<'_>,
    foreign: &[u32],
    values: &[f64],
    rank: usize,
    gram: &mut [f64],
    rhs: &mut [f64],
    z: &mut [f64],
) -> f64 {
    gram.fill(0.0);
    rhs.fill(0.0);
    let mut t2 = 0.0;
    for (k, &t) in values.iter().enumerate() {
        load_z_generic(src, foreign, k, rank, z);
        t2 += t * t;
        for (r, &za) in rhs.iter_mut().zip(&*z) {
            *r += t * za;
        }
        for (grow, &za) in gram.chunks_exact_mut(rank).zip(&*z) {
            for (g, &zb) in grow.iter_mut().zip(&*z) {
                *g += za * zb;
            }
        }
    }
    t2
}

/// Fill a row's `z`-cache (`len * rank` contiguous, one `z` per slot of
/// the row) from the `z` source — what AMN's Newton iterations and CCD's
/// scalar updates re-read all row. Rank-monomorphized like the
/// normal-equation kernel.
pub(crate) fn fill_zcache(
    src: ZSource<'_>,
    foreign: &[u32],
    len: usize,
    rank: usize,
    zcache: &mut Vec<f64>,
) {
    zcache.clear();
    zcache.reserve(len * rank);
    match rank {
        2 => fill_zcache_fixed::<2>(&src, foreign, len, zcache),
        4 => fill_zcache_fixed::<4>(&src, foreign, len, zcache),
        8 => fill_zcache_fixed::<8>(&src, foreign, len, zcache),
        16 => fill_zcache_fixed::<16>(&src, foreign, len, zcache),
        _ => {
            for k in 0..len {
                let start = zcache.len();
                zcache.resize(start + rank, 0.0);
                load_z_generic(&src, foreign, k, rank, &mut zcache[start..]);
            }
        }
    }
}

#[inline]
fn fill_zcache_fixed<const R: usize>(
    src: &ZSource<'_>,
    foreign: &[u32],
    len: usize,
    zcache: &mut Vec<f64>,
) {
    for k in 0..len {
        let z = load_z::<R>(src, foreign, k);
        zcache.extend_from_slice(&z);
    }
}

/// Accumulate one row's normal equations from an already-materialized
/// design cache (`zcache`: `values.len() * rank` contiguous rows) — the
/// Tucker factor path, whose design vectors come from a core contraction
/// rather than a Hadamard product of factor rows. Same per-element operation sequence as
/// the streamed kernel.
pub(crate) fn accumulate_normal_equations_cached(
    zcache: &[f64],
    values: &[f64],
    rank: usize,
    gram: &mut [f64],
    rhs: &mut [f64],
) {
    match rank {
        2 => acc_cached_small::<2>(zcache, values, gram, rhs),
        4 => acc_cached_small::<4>(zcache, values, gram, rhs),
        8 => acc_cached_mid::<8>(zcache, values, gram, rhs),
        16 => acc_cached_wide::<16>(zcache, values, gram, rhs),
        _ => {
            gram.fill(0.0);
            rhs.fill(0.0);
            for (zc, &t) in zcache.chunks_exact(rank).zip(values) {
                for (r, &za) in rhs.iter_mut().zip(zc) {
                    *r += t * za;
                }
                for (grow, &za) in gram.chunks_exact_mut(rank).zip(zc) {
                    for (g, &zb) in grow.iter_mut().zip(zc) {
                        *g += za * zb;
                    }
                }
            }
        }
    }
}

#[inline]
fn acc_cached_small<const R: usize>(
    zcache: &[f64],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) {
    let mut g = [[0.0f64; R]; R];
    let mut rh = [0.0f64; R];
    for (zc, &t) in zcache.chunks_exact(R).zip(values) {
        let z: &[f64; R] = zc.try_into().unwrap();
        for r in 0..R {
            rh[r] += t * z[r];
        }
        for a in 0..R {
            let za = z[a];
            let row = &mut g[a];
            for b in 0..R {
                row[b] += za * z[b];
            }
        }
    }
    for (grow, g) in gram.chunks_exact_mut(R).zip(&g) {
        grow.copy_from_slice(g);
    }
    rhs.copy_from_slice(&rh);
}

#[inline]
fn acc_cached_mid<const R: usize>(
    zcache: &[f64],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) {
    gram.fill(0.0);
    rhs.fill(0.0);
    for (zc, &t) in zcache.chunks_exact(R).zip(values) {
        let z: &[f64; R] = zc.try_into().unwrap();
        for r in 0..R {
            rhs[r] += t * z[r];
        }
        for a in 0..R {
            let za = z[a];
            let row = &mut gram[a * R..(a + 1) * R];
            for b in 0..R {
                row[b] += za * z[b];
            }
        }
    }
}

#[inline]
fn acc_cached_wide<const R: usize>(
    zcache: &[f64],
    values: &[f64],
    gram: &mut [f64],
    rhs: &mut [f64],
) {
    gram.fill(0.0);
    rhs.fill(0.0);
    let rank = rhs.len();
    for (zc, &t) in zcache.chunks_exact(R).zip(values) {
        let z: &[f64; R] = zc.try_into().unwrap();
        for (r, &za) in rhs.iter_mut().zip(z) {
            *r += t * za;
        }
        for (grow, &za) in gram.chunks_exact_mut(rank).zip(z) {
            for (g, &zb) in grow.iter_mut().zip(z) {
                *g += za * zb;
            }
        }
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
    use cpr_tensor::CpDecomp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Raw-kernel timing harness (run manually:
    /// `cargo test --release -p cpr_completion kernel_micro -- --ignored --nocapture`).
    #[test]
    #[ignore]
    fn kernel_micro() {
        let dims = [24usize, 24, 24];
        let rank = 8;
        let obs = random_obs(&dims, 2764, 42);
        let cp = CpDecomp::random(&dims, rank, 0.0, 1.0, 7);
        let stream = obs.mode_stream(0);
        let foreign = foreign_factors(&cp, 0);
        let src = z_source(&foreign, 0);
        let mut gram = vec![0.0; rank * rank];
        let mut rhs = vec![0.0; rank];
        let mut zs = vec![0.0; rank];
        let reps = 120; // = 40 sweeps x 3 modes
        let t = std::time::Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            for i in 0..stream.rows() {
                let rng = stream.row_range(i);
                if rng.is_empty() {
                    continue;
                }
                acc += accumulate_normal_equations_streamed(
                    src,
                    stream.row_foreign(i),
                    &stream.values()[rng],
                    rank,
                    &mut gram,
                    &mut rhs,
                    &mut zs,
                );
            }
        }
        println!(
            "kernel-only: {:.3} ms for {} rep-sweep-modes (acc {acc:.1})",
            t.elapsed().as_secs_f64() * 1e3,
            reps
        );
    }

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

    /// Monomorphized and generic accumulators must agree bitwise — they
    /// are the same operation sequence with different loop trip counts —
    /// across every `z` source (the order-2 and order-3 gathers and the
    /// fold at orders 4, 6 and 9, every free mode) and against the
    /// canonical per-entry `z`.
    #[test]
    fn monomorphized_kernels_bitwise_match_generic() {
        let cases = [
            vec![4usize, 3],
            vec![5, 4, 3],
            vec![3, 3, 2, 3],
            vec![3, 2, 3, 2, 3, 2],
            vec![2, 3, 2, 2, 3, 2, 2, 3, 2],
        ];
        for dims in &cases {
            for &rank in &[2usize, 3, 4, 8, 16] {
                let obs = random_obs(dims, 30, rank as u64);
                let cp = CpDecomp::random(dims, rank, -1.0, 1.0, 7);
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
                        let foreign = stream.row_foreign(i);
                        let vals = &stream.values()[rng];
                        let mut g1 = vec![0.0; rank * rank];
                        let mut r1 = vec![0.0; rank];
                        let mut zs = vec![0.0; rank];
                        let t2a = accumulate_normal_equations_streamed(
                            src, foreign, vals, rank, &mut g1, &mut r1, &mut zs,
                        );
                        let mut g2 = vec![0.0; rank * rank];
                        let mut r2 = vec![0.0; rank];
                        let t2b =
                            acc_ne_generic(&src, foreign, vals, rank, &mut g2, &mut r2, &mut zs);
                        let what = format!("order {} mode {mode} rank {rank}", dims.len());
                        assert_eq!(t2a.to_bits(), t2b.to_bits(), "{what}");
                        for (a, b) in g1.iter().zip(&g2) {
                            assert_eq!(a.to_bits(), b.to_bits(), "gram {what}");
                        }
                        for (a, b) in r1.iter().zip(&r2) {
                            assert_eq!(a.to_bits(), b.to_bits(), "rhs {what}");
                        }
                        // z-cache fill agrees with the canonical z per entry.
                        let mut zc = Vec::new();
                        fill_zcache(src, foreign, ids.len(), rank, &mut zc);
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
    }
}
