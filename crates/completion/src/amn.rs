//! Alternating minimization via Newton's method (AMN) with log barriers
//! (paper §4.2.2, Eq. 4, and the §6.0.4 schedule).
//!
//! Minimizes Eq. 3 with the scale-independent loss
//! `φ(t, t̂) = (log t − log t̂)²` (the MLogQ² metric of Table 1) subject to
//! strictly positive factor matrices, which the paper's extrapolation
//! technique (§5.3) requires: positive factors admit positive rank-1
//! Perron-Frobenius approximations and hence positive predictions.
//!
//! Positivity is enforced with element-wise log-barrier terms `−η Σ log u`
//! added to each row subproblem. Following interior-point practice (and the
//! paper's §6.0.4 configuration), the barrier parameter starts at `η = 10`
//! and decreases geometrically by a factor of 8 until it drops below 1e-11;
//! each row subproblem is solved with up to 40 damped Newton iterations with
//! a fraction-to-boundary stepsize rule.
//!
//! For a row `u` with observations `Ω_i`, model `m_e = z_eᵀ u`, and residual
//! `r_e = log t_e − log m_e`, the derivatives used below are
//!
//! ```text
//!   ∇φ_e  = −2 r_e / m_e · z_e
//!   H_φ_e = 2 (1 + r_e) / m_e² · z_e z_eᵀ      (clamped PSD when r_e < −1)
//! ```

use crate::convergence::Trace;
use crate::optimizer::CompletionSpec;
use crate::sweep::{accumulate, accumulate_dyn, build_streams, Cached, GatherLayout};
use cpr_tensor::linalg::solve_spd_jittered_into;
use cpr_tensor::{CpDecomp, Matrix, ModeIndex, ModeStream, SparseTensor};
use rayon::prelude::*;

/// Initial barrier parameter η (the paper's §6.0.4 schedule, as are the
/// constants below).
const ETA0: f64 = 10.0;
/// Geometric decrease factor applied to η after each outer sweep.
const ETA_DECAY: f64 = 1.0 / 8.0;
/// Stop decreasing η once it falls below this floor.
const ETA_FLOOR: f64 = 1e-11;
/// Newton iterations per row subproblem per outer sweep.
const NEWTON_ITERS: usize = 40;
/// Newton step tolerance (stop a row early when |Δ|/|u| is below this).
const NEWTON_TOL: f64 = 1e-10;
/// Extra full sweeps at the final (floor) barrier value.
const FINAL_SWEEPS: usize = 4;

/// MLogQ² data objective plus ridge term (barrier-free; used for traces).
pub fn log_objective(cp: &CpDecomp, obs: &SparseTensor, lambda: f64) -> f64 {
    let mut loss = 0.0;
    for (_, idx, t) in obs.iter() {
        let m = cp.eval_u32(idx);
        if m <= 0.0 || t <= 0.0 {
            return f64::INFINITY;
        }
        let r = (t / m).ln();
        loss += r * r;
    }
    let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
    loss + lambda * reg
}

/// Initialize a strictly positive CP model whose typical entry magnitude
/// reproduces `target_mean` (the geometric mean of the observations).
pub fn init_positive(dims: &[usize], rank: usize, target_mean: f64, seed: u64) -> CpDecomp {
    let d = dims.len() as f64;
    // Entries ~ c with rank terms: model ≈ R c^d, so choose c accordingly.
    let c = (target_mean.max(1e-300) / rank as f64).powf(1.0 / d);
    let mut cp = CpDecomp::random(dims, rank, 0.5, 1.5, seed);
    for f in 0..dims.len() {
        let fm = cp.factor_mut(f);
        fm.scale_mut(c);
    }
    cp
}

/// Shared validation of the AMN positivity preconditions.
fn check_amn_inputs(cp: &CpDecomp, obs: &SparseTensor) {
    assert_eq!(
        cp.dims(),
        obs.dims(),
        "AMN: model/observation shape mismatch"
    );
    assert!(
        cp.is_strictly_positive(),
        "AMN requires strictly positive initialization"
    );
    assert!(
        obs.values().iter().all(|&v| v > 0.0),
        "AMN requires strictly positive observations (execution times)"
    );
}

/// Run AMN tensor completion under MLogQ² loss, updating `cp` in place.
///
/// `cp` must start strictly positive (see [`init_positive`]); all observed
/// values must be positive. `spec.lambda` is the ridge λ and `spec.stop`
/// applies to the barrier-free objective across sweeps; the barrier
/// schedule and the Newton settings are the paper's §6.0.4 values, fixed
/// as the constants above. The returned trace records the barrier-free
/// objective after each outer sweep.
///
/// This is the **streamed** sweep (see [`crate::als::als`]): per-row
/// `z`-caches are gathered from one packed copy of the factors through
/// per-observation row offsets built once per call, the Newton systems
/// accumulate in the shared row kernel of [`crate::sweep`], and the
/// pre-logged observations are read slot-contiguously from per-mode
/// [`ModeStream`] layouts. The retained naive path [`amn_reference`] is
/// pinned bitwise-equal by proptests.
pub fn amn(cp: &mut CpDecomp, obs: &SparseTensor, spec: &CompletionSpec) -> Trace {
    check_amn_inputs(cp, obs);
    let d = cp.order();
    let streams = build_streams(obs);
    let mut layout = GatherLayout::new(cp, obs);
    // Pre-log the observations once, slot-aligned per mode so each row's
    // Newton solver reads its residual targets contiguously.
    let logs: Vec<Vec<f64>> = streams
        .iter()
        .map(|s| s.values().iter().map(|v| v.ln()).collect())
        .collect();

    let mut trace = Trace::default();
    let mut prev = log_objective(cp, obs, spec.lambda);
    let mut eta = ETA0;
    let mut sweeps_at_floor = 0usize;
    for _sweep in 0..spec.stop.max_sweeps {
        // The barrier-free data loss is fused into the last mode update
        // (see `als`): each observation's residual is evaluated right after
        // its final-mode row finishes its Newton solve, so no second
        // `O(|Ω| d R)` pass runs per sweep. Per-row losses are summed
        // sequentially in row order — bitwise thread-count independent.
        let mut data_loss = 0.0;
        for (mode, stream) in streams.iter().enumerate() {
            let fused = mode + 1 == d;
            let loss = update_mode_streamed(
                cp,
                &mut layout,
                stream,
                &logs[mode],
                eta,
                spec.lambda,
                fused,
            );
            if fused {
                data_loss = loss;
            }
        }
        let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
        let g = data_loss + spec.lambda * reg;
        trace.objective.push(g);
        let at_floor = eta <= ETA_FLOOR;
        if at_floor {
            sweeps_at_floor += 1;
            if sweeps_at_floor >= FINAL_SWEEPS || spec.stop.converged(prev, g) {
                trace.converged = true;
                break;
            }
        }
        prev = g;
        if !at_floor {
            eta = (eta * ETA_DECAY).max(ETA_FLOOR);
        }
    }
    trace
}

/// The retained reference sweep: naive per-observation `z`-cache fills via
/// [`CpDecomp::leave_one_out_canonical`] through the [`ModeIndex`]
/// inverted index. [`amn`] must match it bitwise (the `stream_equivalence`
/// proptests).
pub fn amn_reference(cp: &mut CpDecomp, obs: &SparseTensor, spec: &CompletionSpec) -> Trace {
    check_amn_inputs(cp, obs);
    let d = cp.order();
    let mode_indices: Vec<ModeIndex> = (0..d).map(|m| obs.mode_index(m)).collect();
    let log_t: Vec<f64> = obs.values().iter().map(|v| v.ln()).collect();

    let mut trace = Trace::default();
    let mut prev = log_objective(cp, obs, spec.lambda);
    let mut eta = ETA0;
    let mut sweeps_at_floor = 0usize;
    for _sweep in 0..spec.stop.max_sweeps {
        let mut data_loss = 0.0;
        for (mode, mi) in mode_indices.iter().enumerate() {
            let fused = mode + 1 == d;
            let loss = update_mode_reference(cp, obs, &log_t, mode, mi, eta, spec.lambda, fused);
            if fused {
                data_loss = loss;
            }
        }
        let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
        let g = data_loss + spec.lambda * reg;
        trace.objective.push(g);
        let at_floor = eta <= ETA_FLOOR;
        if at_floor {
            sweeps_at_floor += 1;
            if sweeps_at_floor >= FINAL_SWEEPS || spec.stop.converged(prev, g) {
                trace.converged = true;
                break;
            }
        }
        prev = g;
        if !at_floor {
            eta = (eta * ETA_DECAY).max(ETA_FLOOR);
        }
    }
    trace
}

/// Per-worker scratch for the Newton row solves. The key buffer is
/// `zcache`: the leave-one-out vectors `z_e` of a row depend only on the
/// *frozen* factors, so they are computed once per row and re-read by every
/// Newton iteration, every line-search probe, and the fused residual pass —
/// previously each of those recomputed every `z_e` from scratch.
struct NewtonScratch {
    z: Vec<f64>,
    zcache: Vec<f64>,
    /// Reference-path scratch: the row's pre-logged targets gathered from
    /// the entry-indexed `log_t` (the streamed path slices them straight
    /// out of the mode's slot-aligned log array instead).
    logrow: Vec<f64>,
    grad: Vec<f64>,
    neg_grad: Vec<f64>,
    delta: Vec<f64>,
    cand: Vec<f64>,
    hess: Matrix,
    chol: Matrix,
}

impl NewtonScratch {
    fn new(rank: usize) -> Self {
        Self {
            z: vec![0.0; rank],
            zcache: Vec::new(),
            logrow: Vec::new(),
            grad: vec![0.0; rank],
            neg_grad: vec![0.0; rank],
            delta: vec![0.0; rank],
            cand: vec![0.0; rank],
            hess: Matrix::zeros(rank, rank),
            chol: Matrix::zeros(rank, rank),
        }
    }
}

/// Post-Newton fused row loss: `Σ (log t − log t̂)²` over the row's entries
/// (∞ if any model value is non-positive). Shared bitwise by the streamed
/// and reference sweeps.
#[inline]
fn fused_row_loss(zcache: &[f64], logs: &[f64], rank: usize, u: &[f64]) -> f64 {
    let mut loss = 0.0;
    for (zc, &lt) in zcache.chunks_exact(rank).zip(logs) {
        let m: f64 = zc.iter().zip(u).map(|(a, b)| a * b).sum();
        if m <= 0.0 {
            return f64::INFINITY;
        }
        let r = lt - m.ln();
        loss += r * r;
    }
    loss
}

/// Newton-solve every row subproblem of the stream's mode (rows are
/// independent), updating the factor in place, with the `z`-caches
/// gathered from the pack and the log targets sliced from the mode's
/// slot-aligned stream; then copy the factor into the pack. When `fused`,
/// returns the post-update barrier-free data loss over the mode's entries,
/// else 0.
fn update_mode_streamed(
    cp: &mut CpDecomp,
    layout: &mut GatherLayout,
    stream: &ModeStream,
    logs: &[f64],
    eta: f64,
    lambda: f64,
    fused: bool,
) -> f64 {
    let rank = cp.rank();
    let mode = stream.mode();
    let gather = layout.mode(stream);
    let row_losses: Vec<f64> = cp
        .factor_mut(mode)
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .map_init(
            || NewtonScratch::new(rank),
            |s, (i, u)| {
                let rng = stream.row_range(i);
                if rng.is_empty() {
                    return 0.0; // unobserved fiber: keep previous (positive) row
                }
                // Fill the z cache once: frozen factors are fixed all row.
                gather
                    .row(rng.clone())
                    .fill_zcache(rng.len(), rank, &mut s.zcache);
                let row_logs = &logs[rng];
                newton_row(s, row_logs, eta, lambda, u, false);
                if !fused {
                    return 0.0;
                }
                fused_row_loss(&s.zcache, row_logs, rank, u)
            },
        )
        .collect();
    layout.refresh(mode, cp.factor(mode));
    row_losses.iter().sum()
}

/// One reference mode update (see [`amn_reference`]): naive canonical
/// `z`-cache fills, log targets gathered per entry.
#[allow(clippy::too_many_arguments)]
fn update_mode_reference(
    cp: &mut CpDecomp,
    obs: &SparseTensor,
    log_t: &[f64],
    mode: usize,
    mi: &ModeIndex,
    eta: f64,
    lambda: f64,
    fused: bool,
) -> f64 {
    let rank = cp.rank();
    let mut factor = cp.take_factor(mode);
    let frozen: &CpDecomp = cp;
    let row_losses: Vec<f64> = factor
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .map_init(
            || NewtonScratch::new(rank),
            |s, (i, u)| {
                let entries = mi.row(i);
                if entries.is_empty() {
                    return 0.0;
                }
                s.zcache.clear();
                s.zcache.reserve(entries.len() * rank);
                s.logrow.clear();
                for &e in entries {
                    frozen.leave_one_out_canonical(obs.index(e as usize), mode, &mut s.z);
                    s.zcache.extend_from_slice(&s.z);
                    s.logrow.push(log_t[e as usize]);
                }
                let logrow = std::mem::take(&mut s.logrow);
                newton_row(s, &logrow, eta, lambda, u, true);
                let loss = if fused {
                    fused_row_loss(&s.zcache, &logrow, rank, u)
                } else {
                    0.0
                };
                s.logrow = logrow;
                loss
            },
        )
        .collect();
    cp.set_factor(mode, factor);
    row_losses.iter().sum()
}

/// Row-subproblem objective: mean MLogQ² over Ω_i + ridge + barrier, with
/// the `z_e` vectors read from the row's cache and the log targets from
/// the row-aligned `logs`.
fn row_objective(zcache: &[f64], logs: &[f64], eta: f64, lambda: f64, u: &[f64]) -> f64 {
    if u.iter().any(|&x| x <= 0.0) {
        return f64::INFINITY;
    }
    let inv = 1.0 / logs.len() as f64;
    let mut loss = 0.0;
    for (zc, &lt) in zcache.chunks_exact(u.len()).zip(logs) {
        let m: f64 = zc.iter().zip(u).map(|(a, b)| a * b).sum();
        if m <= 0.0 {
            return f64::INFINITY;
        }
        let r = lt - m.ln();
        loss += r * r;
    }
    let ridge: f64 = u.iter().map(|x| x * x).sum();
    let barrier: f64 = u.iter().map(|x| x.ln()).sum();
    loss * inv + lambda * ridge - eta * barrier
}

/// Per-entry scalars of the Newton system of one row iterate — gradient
/// and PSD-clamped Hessian of the mean MLogQ² data term — from the model
/// value `m = zᵀu`: `(gcoef, hcoef)` for [`crate::sweep::accumulate`], or
/// `None` outside the positive domain.
#[inline(always)]
pub(crate) fn newton_coeffs(m: f64, lt: f64, inv: f64) -> Option<(f64, f64)> {
    if m <= 0.0 || !m.is_finite() {
        return None;
    }
    let r = lt - m.ln();
    let gcoef = -2.0 * r / m * inv;
    // Clamp the Hessian scalar to keep the quadratic model PSD
    // (Gauss-Newton style damping when r < -1).
    let hcoef = (2.0 * (1.0 + r) / (m * m)).max(2e-2 / (m * m)) * inv;
    Some((gcoef, hcoef))
}

/// Damped Newton iterations on one row with fraction-to-boundary steps.
/// `u` is the row slice of the factor being updated (mutated in place);
/// every auxiliary buffer lives in the scratch.
fn newton_row(
    s: &mut NewtonScratch,
    logs: &[f64],
    eta: f64,
    lambda: f64,
    u: &mut [f64],
    reference: bool,
) {
    let inv = 1.0 / logs.len() as f64;
    // Carried objective value at the current iterate: the accepted
    // line-search probe of iteration `i` *is* the starting objective of
    // iteration `i + 1` (same function, same point — bitwise the same
    // number), so the streamed path skips re-evaluating it and saves one
    // full `ln` pass over the row's observations per Newton iteration. The
    // reference path recomputes, staying a faithful PR 3 control.
    let mut carried_f0: Option<f64> = None;
    for _it in 0..NEWTON_ITERS {
        // The gradient and Hessian of the data term: one weighted Gram
        // system over the cached `z`. The reference sweep runs the
        // dynamic-rank kernel, so it never routes through the rank
        // dispatch the streamed sweep is tested on.
        let zs = Cached(&s.zcache);
        let coeffs = |k: usize, z: &[f64]| {
            // `u` cut to `z`'s length, so a fixed-rank kernel's trip count
            // is a constant.
            let m: f64 = z.iter().zip(&u[..z.len()]).map(|(a, b)| a * b).sum();
            newton_coeffs(m, logs[k], inv)
        };
        let (grad, hess) = (&mut s.grad, s.hess.as_mut_slice());
        let system_ok = if reference {
            accumulate_dyn(zs, logs.len(), coeffs, hess, grad, &mut s.z)
        } else {
            accumulate(zs, logs.len(), coeffs, hess, grad, &mut s.z)
        };
        if !system_ok {
            // Outside the domain (shouldn't happen with positive iterates
            // and non-negative z); bail out of this row.
            return;
        }
        // Ridge and barrier contributions.
        for (a, (&ua, g)) in u.iter().zip(s.grad.iter_mut()).enumerate() {
            *g += 2.0 * lambda * ua - eta / ua;
            s.hess[(a, a)] += 2.0 * lambda + eta / (ua * ua);
        }
        // Newton direction: H Δ = -grad.
        for (n, g) in s.neg_grad.iter_mut().zip(&s.grad) {
            *n = -g;
        }
        solve_spd_jittered_into(&s.hess, &s.neg_grad, &mut s.chol, &mut s.delta);
        let dnorm: f64 = s.delta.iter().map(|x| x * x).sum::<f64>().sqrt();
        let unorm: f64 = u.iter().map(|x| x * x).sum::<f64>().sqrt();
        if !dnorm.is_finite() || dnorm <= NEWTON_TOL * unorm.max(1e-300) {
            break;
        }
        // Fraction-to-boundary: keep iterate strictly positive.
        let mut alpha: f64 = 1.0;
        for (ua, da) in u.iter().zip(&s.delta) {
            if *da < 0.0 {
                alpha = alpha.min(0.995 * (-ua / da));
            }
        }
        // Backtracking line search for actual decrease.
        let f0 = match carried_f0 {
            Some(f) if !reference => f,
            _ => row_objective(&s.zcache, logs, eta, lambda, u),
        };
        let mut accepted = false;
        for _ in 0..30 {
            for ((c, a), d) in s.cand.iter_mut().zip(&*u).zip(&s.delta) {
                *c = a + alpha * d;
            }
            let f1 = row_objective(&s.zcache, logs, eta, lambda, &s.cand);
            if f1 < f0 {
                u.copy_from_slice(&s.cand);
                carried_f0 = Some(f1);
                accepted = true;
                break;
            }
            alpha *= 0.5;
            if alpha * dnorm < 1e-16 * unorm.max(1e-300) {
                break;
            }
        }
        if !accepted {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::StopRule;
    use cpr_tensor::DenseTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fit at ridge `lambda` with the stop rule these tests were written
    /// against: up to 200 sweeps, relative tolerance 1e-8.
    fn spec(lambda: f64) -> CompletionSpec {
        CompletionSpec {
            lambda,
            stop: StopRule {
                max_sweeps: 200,
                tol: 1e-8,
            },
            ..Default::default()
        }
    }

    fn geo_mean(values: &[f64]) -> f64 {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }

    fn positive_obs(dims: &[usize], seed: u64) -> SparseTensor {
        // Separable positive ground truth: exactly rank 1 in linear space.
        let t = DenseTensor::from_fn(dims, |idx| {
            idx.iter()
                .enumerate()
                .map(|(j, &i)| 1.0 + (i as f64) * (j as f64 + 0.5))
                .product()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = SparseTensor::new(dims);
        for (idx, v) in t.iter_indexed() {
            if rng.gen::<f64>() < 0.8 {
                obs.push(&idx, v);
            }
        }
        obs
    }

    #[test]
    fn init_positive_hits_target_scale() {
        let cp = init_positive(&[8, 8, 8], 4, 12.5, 3);
        assert!(cp.is_strictly_positive());
        let dense = cp.to_dense();
        let gm = geo_mean(dense.as_slice());
        assert!(
            gm > 12.5 / 5.0 && gm < 12.5 * 5.0,
            "geometric mean {gm} too far from 12.5"
        );
    }

    #[test]
    fn factors_stay_strictly_positive() {
        let obs = positive_obs(&[5, 5, 4], 7);
        let gm = geo_mean(obs.values());
        let mut cp = init_positive(&[5, 5, 4], 2, gm, 8);
        amn(&mut cp, &obs, &spec(1e-5));
        assert!(cp.is_strictly_positive(), "AMN broke positivity");
    }

    #[test]
    fn fits_separable_positive_data_in_log_space() {
        let obs = positive_obs(&[6, 5, 4], 9);
        let gm = geo_mean(obs.values());
        let mut cp = init_positive(&[6, 5, 4], 2, gm, 10);
        let trace = amn(&mut cp, &obs, &spec(1e-8));
        // Mean log-squared error should be tiny for rank-2 on rank-1 data.
        let final_loss = trace.final_objective();
        assert!(final_loss < 1e-2 * obs.nnz() as f64, "loss {final_loss}");
        // Predictions within a few percent in ratio terms.
        let mut worst: f64 = 0.0;
        for (_, idx, t) in obs.iter() {
            let m = cp.eval_u32(idx);
            worst = worst.max((m / t).ln().abs());
        }
        assert!(worst < 0.3, "worst |log q| = {worst}");
    }

    #[test]
    fn objective_decreases_overall() {
        let obs = positive_obs(&[5, 4, 4], 13);
        let gm = geo_mean(obs.values());
        let mut cp = init_positive(&[5, 4, 4], 2, gm, 14);
        let start = log_objective(&cp, &obs, 1e-5);
        let trace = amn(&mut cp, &obs, &spec(1e-5));
        assert!(
            trace.final_objective() < start,
            "no decrease: {start} -> {}",
            trace.final_objective()
        );
    }

    #[test]
    #[should_panic(expected = "positive observations")]
    fn rejects_nonpositive_observations() {
        let mut obs = SparseTensor::new(&[2, 2]);
        obs.push(&[0, 0], -1.0);
        let mut cp = init_positive(&[2, 2], 1, 1.0, 0);
        amn(&mut cp, &obs, &spec(1e-5));
    }

    #[test]
    #[should_panic(expected = "positive initialization")]
    fn rejects_nonpositive_init() {
        let mut obs = SparseTensor::new(&[2, 2]);
        obs.push(&[0, 0], 1.0);
        let mut cp = CpDecomp::random(&[2, 2], 1, -1.0, 1.0, 123);
        // Force at least one non-positive entry.
        cp.factor_mut(0)[(0, 0)] = -0.5;
        amn(&mut cp, &obs, &spec(1e-5));
    }

    #[test]
    fn handles_unobserved_fibers() {
        let mut obs = SparseTensor::new(&[4, 3]);
        for j in 0..3 {
            obs.push(&[0, j], 2.0 + j as f64);
            obs.push(&[1, j], 4.0 + j as f64);
        }
        // Rows 2, 3 of mode 0 unobserved.
        let mut cp = init_positive(&[4, 3], 2, 3.0, 15);
        amn(&mut cp, &obs, &spec(1e-5));
        assert!(cp.is_strictly_positive());
        assert!(!cp.factor(0).has_non_finite());
    }

    #[test]
    fn scale_independence_of_loss() {
        // Scaling all observations by 1000 shouldn't change the fit quality
        // in MLogQ terms (only the model scale).
        let obs = positive_obs(&[5, 4], 20);
        let mut scaled = obs.clone();
        scaled.map_values_mut(|v| v * 1000.0);

        let fit = |o: &SparseTensor, seed| {
            let gm = geo_mean(o.values());
            let mut cp = init_positive(&[5, 4], 2, gm, seed);
            amn(&mut cp, o, &spec(1e-9));
            let mut total = 0.0;
            for (_, idx, t) in o.iter() {
                total += (cp.eval_u32(idx) / t).ln().abs();
            }
            total / o.nnz() as f64
        };
        let e1 = fit(&obs, 21);
        let e2 = fit(&scaled, 21);
        assert!((e1 - e2).abs() < 0.05, "scale dependence: {e1} vs {e2}");
    }
}
