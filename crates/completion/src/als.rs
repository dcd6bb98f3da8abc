//! Alternating least squares for tensor completion (paper §4.2.1).
//!
//! One sweep fixes all but one factor matrix and solves, independently for
//! each row `i` of the free factor, the ridge-regularized least-squares
//! subproblem
//!
//! ```text
//!   min_u  (1/|Ω_i|) Σ_{(..) ∈ Ω_i} (t_obs - zᵀu)²  +  λ ‖u‖²
//! ```
//!
//! where `z` is the Hadamard product of the other factors' rows at the
//! observation's multi-index. Row subproblems touch disjoint data, so each
//! sweep parallelizes over rows with Rayon. The per-sweep arithmetic cost is
//! `O((Σ_j I_j) R³ + |Ω| d R²)`, matching the complexity the paper cites.

use crate::convergence::{StopRule, Trace};
use crate::sweep::{
    accumulate_normal_equations_streamed, build_streams, foreign_factors, fused_quadratic_loss,
    z_source,
};
use cpr_tensor::linalg::solve_spd_jittered_into;
use cpr_tensor::{CpDecomp, Matrix, ModeIndex, ModeStream, SparseTensor};
use rayon::prelude::*;

/// ALS configuration.
#[derive(Debug, Clone, Copy)]
pub struct AlsConfig {
    /// Ridge regularization λ (paper sweeps 1e-6..1e-3).
    pub lambda: f64,
    /// Stopping rule.
    pub stop: StopRule,
    /// Scale each row's data term by `1/|Ω_i|` (the paper's row objective).
    /// When false the raw sum is used, matching classic CP-WOPT.
    pub scale_by_count: bool,
}

impl Default for AlsConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-5,
            stop: StopRule::default(),
            scale_by_count: true,
        }
    }
}

/// Run ALS tensor completion, updating `cp` in place; returns the per-sweep
/// objective trace (Eq. 3 with least-squares loss).
///
/// This is the **streamed** sweep: per-mode [`ModeStream`] layouts are
/// built once, each observation's leave-one-out vector is gathered directly
/// from the foreign factor rows its stream slot names (folded in the
/// canonical order, see [`crate::sweep`]), and the normal-equation
/// accumulation dispatches to rank-monomorphized kernels for
/// `R ∈ {2, 4, 8, 16}`. The retained naive path [`als_reference`]
/// computes the same fit — proptests pin the two bitwise-equal on random
/// problems.
///
/// The per-sweep objective is **fused into the last mode update**: every
/// observation belongs to exactly one row of the final mode, and once that
/// row is solved its data loss follows algebraically from the normal
/// equations already accumulated for the solve (`uᵀGu − 2uᵀr + Σt²`), so no
/// second `O(|Ω| d R)` pass over the observations is needed. Per-row losses
/// are summed sequentially in row order, keeping the trace — and therefore
/// the early-stopping decision — bitwise independent of the thread count.
pub fn als(cp: &mut CpDecomp, obs: &SparseTensor, config: &AlsConfig) -> Trace {
    let streams = build_streams(obs);
    als_with_streams(cp, obs, &streams, config)
}

/// [`als`] with caller-provided observation streams — the streaming-refit
/// entry point: an online model keeps its streams cached and extends them
/// incrementally on append instead of rebuilding `d` counting sorts per
/// refit. `streams[m]` must be `obs.mode_stream(m)` for every mode.
pub fn als_with_streams(
    cp: &mut CpDecomp,
    obs: &SparseTensor,
    streams: &[ModeStream],
    config: &AlsConfig,
) -> Trace {
    assert_eq!(
        cp.dims(),
        obs.dims(),
        "ALS: model/observation shape mismatch"
    );
    let d = cp.order();
    let rank = cp.rank();
    assert_eq!(streams.len(), d, "ALS: one stream per mode");
    for (m, s) in streams.iter().enumerate() {
        assert_eq!(s.mode(), m, "ALS: stream {m} built for mode {}", s.mode());
        assert_eq!(s.nnz(), obs.nnz(), "ALS: stream {m} is stale");
    }

    let mut trace = Trace::default();
    let mut prev = objective(cp, obs, config.lambda);
    for _sweep in 0..config.stop.max_sweeps {
        let mut data_loss = 0.0;
        for (mode, stream) in streams.iter().enumerate() {
            let fused = mode + 1 == d;
            let loss = update_mode_streamed(cp, stream, mode, rank, config, fused);
            if fused {
                data_loss = loss;
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

/// The retained reference sweep: naive per-observation recomputation of the
/// canonical leave-one-out vector ([`CpDecomp::leave_one_out_canonical`])
/// through the [`ModeIndex`] inverted index, with dynamic-rank kernels.
/// Same math, same operation order — [`als`] must match it bitwise (the
/// `stream_equivalence` proptests).
pub fn als_reference(cp: &mut CpDecomp, obs: &SparseTensor, config: &AlsConfig) -> Trace {
    assert_eq!(
        cp.dims(),
        obs.dims(),
        "ALS: model/observation shape mismatch"
    );
    let d = cp.order();
    let rank = cp.rank();
    let mode_indices: Vec<ModeIndex> = (0..d).map(|m| obs.mode_index(m)).collect();

    let mut trace = Trace::default();
    let mut prev = objective(cp, obs, config.lambda);
    for _sweep in 0..config.stop.max_sweeps {
        let mut data_loss = 0.0;
        for (mode, mi) in mode_indices.iter().enumerate() {
            let fused = mode + 1 == d;
            let loss = update_mode_reference(cp, obs, mode, mi, rank, config, fused);
            if fused {
                data_loss = loss;
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

/// Per-worker scratch for the ALS row solves: every buffer a row subproblem
/// needs, allocated once per parallel block instead of once per row.
struct RowScratch {
    gram: Matrix,
    chol: Matrix,
    rhs: Vec<f64>,
    z: Vec<f64>,
}

impl RowScratch {
    fn new(rank: usize) -> Self {
        Self {
            gram: Matrix::zeros(rank, rank),
            chol: Matrix::zeros(rank, rank),
            rhs: vec![0.0; rank],
            z: vec![0.0; rank],
        }
    }
}

/// Shared row finish: scale + ridge the accumulated normal equations,
/// solve straight into the factor row, and (for the fused last mode)
/// recover the row's data loss algebraically. Bitwise-shared by the
/// streamed and reference sweeps so they can only diverge in how `z` is
/// produced.
#[inline]
fn finish_row(
    s: &mut RowScratch,
    n_entries: usize,
    rank: usize,
    config: &AlsConfig,
    row: &mut [f64],
    fused: bool,
    t2: f64,
) -> f64 {
    let scale = if config.scale_by_count {
        1.0 / n_entries as f64
    } else {
        1.0
    };
    s.gram.scale_mut(scale);
    for r in &mut s.rhs {
        *r *= scale;
    }
    for a in 0..rank {
        s.gram[(a, a)] += config.lambda;
    }
    // Solve straight into the factor row.
    solve_spd_jittered_into(&s.gram, &s.rhs, &mut s.chol, row);
    if !fused {
        return 0.0;
    }
    fused_quadratic_loss(
        s.gram.as_slice(),
        &s.rhs,
        row,
        rank,
        config.lambda,
        scale,
        t2,
    )
}

/// One streamed mode update: solve all row subproblems of `mode` in
/// parallel, writing new rows directly into the factor. The row loop walks
/// the mode's packed stream (contiguous foreign indices + values) and
/// gathers each `z` from the frozen factors through the
/// rank-monomorphized kernels. Returns the post-update data loss
/// `Σ (t̂ - t)²` over the mode's entries when `fused` (the last mode of a
/// sweep), else 0.
fn update_mode_streamed(
    cp: &mut CpDecomp,
    stream: &ModeStream,
    mode: usize,
    rank: usize,
    config: &AlsConfig,
    fused: bool,
) -> f64 {
    // Borrow-split: move the free factor out, restore afterwards; the
    // frozen modes are read in place (see `sweep::ZSource`).
    let mut factor = cp.take_factor(mode);
    let frozen: &CpDecomp = cp;
    let foreign = foreign_factors(frozen, mode);
    let src = z_source(&foreign, mode);
    let vals = stream.values();

    let row_losses: Vec<f64> = factor
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .map_init(
            || RowScratch::new(rank),
            |s, (i, row)| {
                let rng = stream.row_range(i);
                if rng.is_empty() {
                    // Unobserved fiber: the row objective reduces to λ‖u‖²,
                    // whose minimizer is the zero row. With mean-centered
                    // data (as the CPR layer trains) this makes unobserved
                    // slices predict the global mean — a neutral fallback —
                    // instead of freezing whatever random initialization
                    // happened to be there.
                    row.fill(0.0);
                    return 0.0;
                }
                let t2 = accumulate_normal_equations_streamed(
                    src,
                    stream.row_foreign(i),
                    &vals[rng.clone()],
                    rank,
                    s.gram.as_mut_slice(),
                    &mut s.rhs,
                    &mut s.z,
                );
                finish_row(s, rng.len(), rank, config, row, fused, t2)
            },
        )
        .collect();
    cp.set_factor(mode, factor);
    // Sequential row-order sum: deterministic regardless of thread count.
    row_losses.iter().sum()
}

/// Accumulate one row's normal equations the reference way: naive
/// per-observation recomputation of the canonical leave-one-out vector.
///
/// A free function on purpose: the `&mut` slice arguments carry noalias
/// guarantees across the call boundary, which is what lets LLVM keep the
/// slice pointers in registers and vectorize the branchless rank-1 update —
/// the same loops written against fields of a scratch struct inside the
/// worker closure compile to scalar code with reloads.
fn accumulate_normal_equations_reference(
    frozen: &CpDecomp,
    obs: &SparseTensor,
    entries: &[u32],
    mode: usize,
    gram: &mut [f64],
    rhs: &mut [f64],
    z: &mut [f64],
) -> f64 {
    let rank = rhs.len();
    gram.fill(0.0);
    rhs.fill(0.0);
    let mut t2 = 0.0;
    for &e in entries {
        let e = e as usize;
        frozen.leave_one_out_canonical(obs.index(e), mode, z);
        let t = obs.value(e);
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

/// One reference mode update (see [`als_reference`]).
fn update_mode_reference(
    cp: &mut CpDecomp,
    obs: &SparseTensor,
    mode: usize,
    mi: &ModeIndex,
    rank: usize,
    config: &AlsConfig,
    fused: bool,
) -> f64 {
    let mut factor = cp.take_factor(mode);
    let frozen: &CpDecomp = cp;

    let row_losses: Vec<f64> = factor
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .map_init(
            || RowScratch::new(rank),
            |s, (i, row)| {
                let entries = mi.row(i);
                if entries.is_empty() {
                    row.fill(0.0);
                    return 0.0;
                }
                let t2 = accumulate_normal_equations_reference(
                    frozen,
                    obs,
                    entries,
                    mode,
                    s.gram.as_mut_slice(),
                    &mut s.rhs,
                    &mut s.z,
                );
                finish_row(s, entries.len(), rank, config, row, fused, t2)
            },
        )
        .collect();
    cp.set_factor(mode, factor);
    row_losses.iter().sum()
}

/// Eq. 3 objective with least-squares loss (the ALS trace's first entry).
fn objective(cp: &CpDecomp, obs: &SparseTensor, lambda: f64) -> f64 {
    cp.objective(obs, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_tensor::DenseTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Observations sampled uniformly at random from a ground-truth CP model.
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
    fn recovers_fully_observed_low_rank() {
        let truth = CpDecomp::random(&[6, 7, 5], 2, 0.5, 1.5, 3);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut model = CpDecomp::random(&[6, 7, 5], 2, 0.0, 1.0, 99);
        let cfg = AlsConfig {
            lambda: 1e-10,
            stop: StopRule {
                max_sweeps: 500,
                tol: 1e-14,
            },
            scale_by_count: true,
        };
        let trace = als(&mut model, &obs, &cfg);
        // ALS can plateau in "swamps" on exact-recovery problems; require a
        // fit error far below the data scale (values are O(1)) rather than
        // exact recovery.
        assert!(
            trace.final_objective() < 1e-2,
            "objective {}",
            trace.final_objective()
        );
        assert!(model.rmse(&obs) < 5e-3, "rmse {}", model.rmse(&obs));
    }

    #[test]
    fn completes_partially_observed_low_rank() {
        let truth = CpDecomp::random(&[8, 8, 8], 2, 0.5, 1.5, 17);
        let obs = sampled_obs(&truth, 0.5, 4);
        let mut model = CpDecomp::random(&[8, 8, 8], 2, 0.0, 1.0, 5);
        let cfg = AlsConfig {
            lambda: 1e-9,
            stop: StopRule {
                max_sweeps: 300,
                tol: 1e-12,
            },
            scale_by_count: true,
        };
        als(&mut model, &obs, &cfg);
        // Generalization: error on *all* entries, not just observed ones.
        let full = SparseTensor::from_dense(&truth.to_dense());
        assert!(model.rmse(&full) < 1e-2, "rmse {}", model.rmse(&full));
    }

    #[test]
    fn objective_is_monotone() {
        let truth = CpDecomp::random(&[5, 6, 4], 3, 0.2, 1.0, 11);
        let obs = sampled_obs(&truth, 0.8, 12);
        let mut model = CpDecomp::random(&[5, 6, 4], 3, 0.0, 1.0, 13);
        let trace = als(&mut model, &obs, &AlsConfig::default());
        assert!(trace.is_monotone(1e-9), "trace {:?}", trace.objective);
    }

    #[test]
    fn handles_empty_fibers() {
        // No observation touches row 3 of mode 0.
        let mut obs = SparseTensor::new(&[5, 4]);
        for i in [0usize, 1, 2, 4] {
            for j in 0..4 {
                obs.push(&[i, j], (i + 1) as f64 * (j + 1) as f64);
            }
        }
        let mut model = CpDecomp::random(&[5, 4], 2, 0.0, 1.0, 2);
        let trace = als(&mut model, &obs, &AlsConfig::default());
        assert!(trace.final_objective().is_finite());
        // Unobserved fiber collapses to the ridge minimizer: the zero row.
        assert!(model.factor(0).row(3).iter().all(|&v| v == 0.0));
        assert!(!model.factor(0).has_non_finite());
    }

    #[test]
    fn rank_one_exact_on_separable_data() {
        // t[i,j] = (i+1) * (j+2): exactly rank 1.
        let dense = DenseTensor::from_fn(&[6, 5], |idx| ((idx[0] + 1) * (idx[1] + 2)) as f64);
        let obs = SparseTensor::from_dense(&dense);
        let mut model = CpDecomp::random(&[6, 5], 1, 0.5, 1.0, 21);
        let cfg = AlsConfig {
            lambda: 1e-12,
            stop: StopRule {
                max_sweeps: 200,
                tol: 1e-14,
            },
            scale_by_count: true,
        };
        als(&mut model, &obs, &cfg);
        assert!(model.rmse(&obs) < 1e-8, "rmse {}", model.rmse(&obs));
    }

    #[test]
    fn higher_lambda_shrinks_factors() {
        let truth = CpDecomp::random(&[6, 6], 2, 0.5, 1.5, 30);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut weak = CpDecomp::random(&[6, 6], 2, 0.0, 1.0, 31);
        let mut strong = weak.clone();
        als(
            &mut weak,
            &obs,
            &AlsConfig {
                lambda: 1e-8,
                ..Default::default()
            },
        );
        als(
            &mut strong,
            &obs,
            &AlsConfig {
                lambda: 10.0,
                ..Default::default()
            },
        );
        let norm = |cp: &CpDecomp| cp.factors().iter().map(|f| f.fro_norm_sq()).sum::<f64>();
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn order_four_completion() {
        let truth = CpDecomp::random(&[4, 4, 4, 4], 2, 0.5, 1.2, 40);
        let obs = sampled_obs(&truth, 0.6, 41);
        let mut model = CpDecomp::random(&[4, 4, 4, 4], 2, 0.0, 1.0, 42);
        let cfg = AlsConfig {
            lambda: 1e-9,
            stop: StopRule {
                max_sweeps: 400,
                tol: 1e-13,
            },
            scale_by_count: true,
        };
        als(&mut model, &obs, &cfg);
        let full = SparseTensor::from_dense(&truth.to_dense());
        assert!(model.rmse(&full) < 5e-2, "rmse {}", model.rmse(&full));
    }
}
