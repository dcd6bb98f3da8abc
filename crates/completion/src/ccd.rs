//! Cyclic coordinate descent for tensor completion (paper §4.2.1).
//!
//! CCD updates one factor-matrix element at a time, reducing ALS's per-sweep
//! cost by a factor of `R` at the price of slower (but still monotone)
//! convergence — the trade-off the paper attributes to [Shin & Kang 2014]
//! and [Karlsson, Kressner & Uschmajew 2016].
//!
//! For element `u_{i,r}` of mode `j`'s factor, with every other element
//! fixed, the objective is a scalar quadratic: writing the model at an
//! observation as `m = u_{i,r} z_r + c` (where `z_r` is the leave-one-out
//! Hadamard product and `c` the contribution of the other rank components),
//! the minimizer of `(1/|Ω_i|)Σ (t - m)² + λ u²` is
//! `u = Σ z_r (t - c) / (Σ z_r² + λ|Ω_i|)`.

use crate::als::objective;
use crate::convergence::{StopRule, Trace};
use crate::sweep::{build_streams, fill_zcache, foreign_factors, z_source};
use cpr_tensor::{CpDecomp, ModeIndex, SparseTensor};

/// CCD configuration.
#[derive(Debug, Clone, Copy)]
pub struct CcdConfig {
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Stopping rule (sweep = one pass over every element of every factor).
    pub stop: StopRule,
    /// Scale the data term by `1/|Ω_i|` per row, as in the paper's ALS.
    pub scale_by_count: bool,
}

impl Default for CcdConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-5,
            stop: StopRule::default(),
            scale_by_count: true,
        }
    }
}

/// One row's full pass of `R` scalar updates, reading the leave-one-out
/// vectors from the row's cache and the observed values from the
/// row-aligned `vals`.
///
/// The model value at each observation is kept in `mcache` and updated
/// incrementally after each element changes (`m += Δu_r · z_r`), so a
/// row's `R` scalar updates cost `O(|Ω_i| R)` total instead of the
/// `O(|Ω_i| R²)` of recomputing the dot product per element per entry —
/// the CCD++ recurrence. Shared bitwise by the streamed and reference
/// sweeps (they differ only in where `zcache`/`vals` come from).
fn ccd_row_update(
    zcache: &[f64],
    vals: &[f64],
    rank: usize,
    count_scale: f64,
    lambda: f64,
    u: &mut [f64],
    mcache: &mut Vec<f64>,
) {
    mcache.clear();
    mcache.extend(
        zcache
            .chunks_exact(rank)
            .map(|zc| zc.iter().zip(&*u).map(|(a, b)| a * b).sum::<f64>()),
    );
    for r in 0..rank {
        // Accumulate numerator Σ z_r (t - c) and denominator Σ z_r².
        let mut num = 0.0;
        let mut den = 0.0;
        for ((zc, &t), &m) in zcache.chunks_exact(rank).zip(vals).zip(&*mcache) {
            let zr = zc[r];
            if zr == 0.0 {
                continue;
            }
            // c = model minus this element's own component.
            let c = m - u[r] * zr;
            num += zr * (t - c);
            den += zr * zr;
        }
        let new = num * count_scale / (den * count_scale + lambda);
        if new.is_finite() && new != u[r] {
            let du = new - u[r];
            u[r] = new;
            for (m, zc) in mcache.iter_mut().zip(zcache.chunks_exact(rank)) {
                *m += du * zc[r];
            }
        }
    }
}

/// Post-update fused row loss `Σ (t − z_eᵀu)²`, from fresh dot products
/// (not the drift-accumulating `mcache`) so the trace stays an exact
/// objective evaluation. Shared by both sweeps.
#[inline]
fn ccd_row_loss(zcache: &[f64], vals: &[f64], rank: usize, u: &[f64]) -> f64 {
    let mut loss = 0.0;
    for (zc, &t) in zcache.chunks_exact(rank).zip(vals) {
        let m: f64 = zc.iter().zip(u).map(|(a, b)| a * b).sum();
        let e = t - m;
        loss += e * e;
    }
    loss
}

/// Run CCD tensor completion, updating `cp` in place.
///
/// This is the **streamed** sweep: per-row leave-one-out caches are
/// gathered directly from the foreign factor rows each stream slot names
/// through rank-monomorphized kernels, the values come slot-contiguously
/// from per-mode streams, and the per-sweep objective is fused into the
/// last mode's row updates (the data loss of a row follows from the
/// `z`-cache it already holds) instead of a separate
/// `O(|Ω| d R)` evaluation pass. The retained naive path [`ccd_reference`]
/// is pinned bitwise-equal by proptests.
pub fn ccd(cp: &mut CpDecomp, obs: &SparseTensor, config: &CcdConfig) -> Trace {
    assert_eq!(
        cp.dims(),
        obs.dims(),
        "CCD: model/observation shape mismatch"
    );
    let d = cp.order();
    let rank = cp.rank();
    let streams = build_streams(obs);

    let mut trace = Trace::default();
    let mut prev = objective(cp, obs, config.lambda);
    let mut zcache: Vec<f64> = Vec::new();
    let mut mcache: Vec<f64> = Vec::new();
    for _sweep in 0..config.stop.max_sweeps {
        let mut data_loss = 0.0;
        for (mode, stream) in streams.iter().enumerate() {
            let fused = mode + 1 == d;
            let count_scale_of = |n: usize| {
                if config.scale_by_count {
                    1.0 / n as f64
                } else {
                    1.0
                }
            };
            // Borrow-split as in ALS: the free factor is updated row by row
            // while `z` is gathered from the frozen ones.
            let mut factor = cp.take_factor(mode);
            let frozen: &CpDecomp = cp;
            let foreign = foreign_factors(frozen, mode);
            let src = z_source(&foreign, mode);
            for i in 0..factor.rows() {
                let rng = stream.row_range(i);
                if rng.is_empty() {
                    continue;
                }
                let vals = &stream.values()[rng];
                fill_zcache(src, stream.row_foreign(i), vals.len(), rank, &mut zcache);
                let u = factor.row_mut(i);
                ccd_row_update(
                    &zcache,
                    vals,
                    rank,
                    count_scale_of(vals.len()),
                    config.lambda,
                    u,
                    &mut mcache,
                );
                if fused {
                    data_loss += ccd_row_loss(&zcache, vals, rank, u);
                }
            }
            cp.set_factor(mode, factor);
        }
        let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
        let g = data_loss + config.lambda * reg;
        trace.objective.push(g);
        if config.stop.converged(prev, g) {
            trace.converged = true;
            break;
        }
        prev = g;
    }
    trace
}

/// The retained reference sweep: naive per-observation recomputation of
/// the canonical leave-one-out vectors through the [`ModeIndex`] inverted
/// index, values gathered per entry. [`ccd`] must match it bitwise (the
/// `stream_equivalence` proptests).
pub fn ccd_reference(cp: &mut CpDecomp, obs: &SparseTensor, config: &CcdConfig) -> Trace {
    assert_eq!(
        cp.dims(),
        obs.dims(),
        "CCD: model/observation shape mismatch"
    );
    let d = cp.order();
    let rank = cp.rank();
    let mode_indices: Vec<ModeIndex> = (0..d).map(|m| obs.mode_index(m)).collect();

    let mut trace = Trace::default();
    let mut prev = objective(cp, obs, config.lambda);
    let mut z = vec![0.0; rank];
    let mut zcache: Vec<f64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut mcache: Vec<f64> = Vec::new();
    for _sweep in 0..config.stop.max_sweeps {
        let mut data_loss = 0.0;
        for (mode, mi) in mode_indices.iter().enumerate() {
            let fused = mode + 1 == d;
            for i in 0..cp.dims()[mode] {
                let entries = mi.row(i);
                if entries.is_empty() {
                    continue;
                }
                let count_scale = if config.scale_by_count {
                    1.0 / entries.len() as f64
                } else {
                    1.0
                };
                zcache.clear();
                zcache.reserve(entries.len() * rank);
                vals.clear();
                for &e in entries {
                    cp.leave_one_out_canonical(obs.index(e as usize), mode, &mut z);
                    zcache.extend_from_slice(&z);
                    vals.push(obs.value(e as usize));
                }
                let u = cp.factor_mut(mode).row_mut(i);
                ccd_row_update(
                    &zcache,
                    &vals,
                    rank,
                    count_scale,
                    config.lambda,
                    u,
                    &mut mcache,
                );
                if fused {
                    data_loss += ccd_row_loss(&zcache, &vals, rank, u);
                }
            }
        }
        let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
        let g = data_loss + config.lambda * reg;
        trace.objective.push(g);
        if config.stop.converged(prev, g) {
            trace.converged = true;
            break;
        }
        prev = g;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sampled_obs(truth: &CpDecomp, frac: f64, seed: u64) -> SparseTensor {
        let dense = truth.to_dense();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = SparseTensor::new(dense.dims());
        for (idx, v) in dense.iter_indexed() {
            if rng.gen::<f64>() < frac {
                obs.push(&idx, v);
            }
        }
        obs
    }

    #[test]
    fn fits_fully_observed_low_rank() {
        let truth = CpDecomp::random(&[5, 6, 4], 2, 0.5, 1.5, 8);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut model = CpDecomp::random(&[5, 6, 4], 2, 0.1, 1.0, 9);
        let cfg = CcdConfig {
            lambda: 1e-10,
            stop: StopRule {
                max_sweeps: 2000,
                tol: 1e-14,
            },
            scale_by_count: true,
        };
        ccd(&mut model, &obs, &cfg);
        // CCD's decoupled scalar updates converge noticeably slower than ALS
        // (paper §4.2.1): depending on the random initialization it can need
        // a few thousand sweeps on this problem, so the budget is generous
        // and the accepted fit looser than the ALS equivalent.
        assert!(model.rmse(&obs) < 5e-3, "rmse {}", model.rmse(&obs));
    }

    #[test]
    fn objective_is_monotone() {
        let truth = CpDecomp::random(&[6, 5, 4], 2, 0.3, 1.2, 14);
        let obs = sampled_obs(&truth, 0.7, 15);
        let mut model = CpDecomp::random(&[6, 5, 4], 2, 0.1, 1.0, 16);
        let trace = ccd(&mut model, &obs, &CcdConfig::default());
        assert!(trace.is_monotone(1e-9), "trace {:?}", trace.objective);
    }

    #[test]
    fn slower_than_als_per_sweep_but_converges() {
        // Same problem solved by both; CCD should reach a comparable
        // objective eventually (allowing a generous sweep budget).
        let truth = CpDecomp::random(&[6, 6], 2, 0.5, 1.5, 20);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut m_als = CpDecomp::random(&[6, 6], 2, 0.1, 1.0, 21);
        let mut m_ccd = m_als.clone();
        let als_trace = crate::als::als(
            &mut m_als,
            &obs,
            &crate::als::AlsConfig {
                lambda: 1e-9,
                ..Default::default()
            },
        );
        let ccd_trace = ccd(
            &mut m_ccd,
            &obs,
            &CcdConfig {
                lambda: 1e-9,
                stop: StopRule {
                    max_sweeps: 500,
                    tol: 1e-12,
                },
                scale_by_count: true,
            },
        );
        assert!(ccd_trace.final_objective() < als_trace.final_objective() * 100.0 + 1e-6);
    }

    #[test]
    fn untouched_elements_stay_finite() {
        let mut obs = SparseTensor::new(&[4, 4]);
        obs.push(&[0, 0], 1.0);
        obs.push(&[1, 1], 2.0);
        let mut model = CpDecomp::random(&[4, 4], 2, 0.1, 1.0, 22);
        ccd(&mut model, &obs, &CcdConfig::default());
        for f in model.factors() {
            assert!(!f.has_non_finite());
        }
    }
}
