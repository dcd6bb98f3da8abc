//! Tucker tensor completion by alternating least squares.
//!
//! Extends §4.2.1's ALS to the Tucker model the paper defers to future work:
//! factor rows solve the same ridge-regularized normal equations as CP rows
//! (with the design vector being the core-contracted leave-one-out product),
//! and the core solves a global least-squares problem over all observed
//! entries with `Π R_j` unknowns.
//!
//! The streamed sweep mirrors the CP optimizers: row loops walk the packed
//! per-mode [`ModeStream`] layouts (contiguous values; each slot's
//! coordinates read through its entry id), factor rows are read through a
//! [`PackedFactors`] bake, and the design vectors come from a mode-`m` core
//! unfolding contracted
//! against an incrementally built Kronecker vector — `O(Π R_j)` contiguous
//! multiply-adds per observation instead of the old per-core-element
//! div/mod walk (which also allocated a `Vec` per core element through
//! `DenseTensor::iter_indexed`). The per-sweep objective is recovered
//! algebraically from the core's normal equations (`cᵀGc − 2cᵀr + Σy²`),
//! eliminating the former `O(|Ω| Π R_j)` evaluation pass. The retained
//! naive path [`tucker_als_reference`] recomputes every design vector
//! element-by-element with the same canonical association; proptests pin
//! the two bitwise-equal.

use crate::convergence::Trace;
use crate::optimizer::CompletionSpec;
use crate::sweep::{accumulate, build_streams, fused_quadratic_loss, Cached, RowSystem};
use cpr_tensor::linalg::solve_spd_jittered;
use cpr_tensor::tucker::TuckerDecomp;
use cpr_tensor::{DenseTensor, Matrix, ModeIndex, ModeStream, PackedFactors, SparseTensor};
use rayon::prelude::*;

/// Squared-error objective with ridge terms on factors and core.
pub fn tucker_objective(t: &TuckerDecomp, obs: &SparseTensor, lambda: f64) -> f64 {
    let mut loss = 0.0;
    for (_, idx, v) in obs.iter() {
        let e = t.eval_u32(idx) - v;
        loss += e * e;
    }
    let reg_f: f64 = (0..t.order()).map(|m| t.factor(m).fro_norm_sq()).sum();
    let reg_c: f64 = t.core().as_slice().iter().map(|v| v * v).sum();
    loss + lambda * (reg_f + reg_c)
}

/// Run Tucker-ALS completion, updating `t` in place (streamed sweep; see
/// the module docs and [`tucker_als_reference`]). `spec.lambda` is the
/// ridge λ on factors and core.
pub fn tucker_als(t: &mut TuckerDecomp, obs: &SparseTensor, spec: &CompletionSpec) -> Trace {
    assert_eq!(t.dims(), obs.dims(), "Tucker-ALS: shape mismatch");
    let streams = build_streams(obs);

    let mut trace = Trace::default();
    let mut prev = tucker_objective(t, obs, spec.lambda);
    for _sweep in 0..spec.stop.max_sweeps {
        for (mode, stream) in streams.iter().enumerate() {
            update_factor_streamed(t, obs, stream, mode, spec.lambda);
        }
        // Incremental-Kronecker designer: k = ⊗_j U_j[i_j, :], built by
        // folding the packed factor rows in ascending mode order (left
        // association — the canonical order the reference reproduces
        // element-by-element).
        let packed = t.packed();
        let d = t.order();
        let mut ktmp: Vec<f64> = Vec::new();
        let data_loss = update_core_with(t, obs, spec.lambda, |idx, design| {
            design.clear();
            design.push(1.0);
            for (j, &i) in idx.iter().enumerate().take(d) {
                kron_fold(packed.row(j, i as usize), design, &mut ktmp);
            }
        });
        let g = sweep_objective(t, data_loss, spec.lambda);
        trace.objective.push(g);
        if spec.stop.converged(prev, g) {
            trace.converged = true;
            break;
        }
        prev = g;
    }
    trace
}

/// The retained reference sweep: design vectors recomputed naively per
/// observation (per-element core walk, same canonical association as the
/// streamed Kronecker build) through the [`ModeIndex`] inverted index.
/// [`tucker_als`] must match it bitwise (the `stream_equivalence`
/// proptests).
pub fn tucker_als_reference(
    t: &mut TuckerDecomp,
    obs: &SparseTensor,
    spec: &CompletionSpec,
) -> Trace {
    assert_eq!(t.dims(), obs.dims(), "Tucker-ALS: shape mismatch");
    let d = t.order();
    let mode_indices: Vec<ModeIndex> = (0..d).map(|m| obs.mode_index(m)).collect();

    let mut trace = Trace::default();
    let mut prev = tucker_objective(t, obs, spec.lambda);
    for _sweep in 0..spec.stop.max_sweeps {
        for (mode, mi) in mode_indices.iter().enumerate() {
            update_factor_reference(t, obs, mode, mi, spec.lambda);
        }
        let frozen = t.clone();
        let mut digits: Vec<usize> = Vec::new();
        let data_loss = update_core_with(t, obs, spec.lambda, |idx, design| {
            let ranks = frozen.ranks();
            let p = frozen.core().len();
            design.clear();
            design.resize(p, 0.0);
            let core_dims = ranks.len();
            for (flat, slot) in design.iter_mut().enumerate() {
                digits.clear();
                digits.resize(core_dims, 0);
                let mut rem = flat;
                for j in (0..core_dims).rev() {
                    digits[j] = rem % ranks[j];
                    rem /= ranks[j];
                }
                let mut k = 1.0;
                for (j, &r) in digits.iter().enumerate() {
                    k *= frozen.factor(j)[(idx[j] as usize, r)];
                }
                *slot = k;
            }
        });
        let g = sweep_objective(t, data_loss, spec.lambda);
        trace.objective.push(g);
        if spec.stop.converged(prev, g) {
            trace.converged = true;
            break;
        }
        prev = g;
    }
    trace
}

/// Post-sweep objective from the fused core data loss plus ridge terms.
fn sweep_objective(t: &TuckerDecomp, data_loss: f64, lambda: f64) -> f64 {
    let reg_f: f64 = (0..t.order()).map(|m| t.factor(m).fro_norm_sq()).sum();
    let reg_c: f64 = t.core().as_slice().iter().map(|v| v * v).sum();
    data_loss + lambda * (reg_f + reg_c)
}

/// Per-worker scratch for the Tucker row solves: the shared row system
/// plus the design-vector buffers.
struct RowScratch {
    sys: RowSystem,
    zcache: Vec<f64>,
    kron: Vec<f64>,
    ktmp: Vec<f64>,
    digits: Vec<usize>,
}

impl RowScratch {
    fn new(rank: usize) -> Self {
        Self {
            sys: RowSystem::new(rank),
            zcache: Vec::new(),
            kron: Vec::new(),
            ktmp: Vec::new(),
            digits: Vec::new(),
        }
    }
}

/// Mode-`m` unfolding of the core as a flat `R_m x Π_{j≠m} R_j` row-major
/// matrix, foreign columns in ascending mode order (last foreign mode
/// fastest — the order the incremental Kronecker build produces).
fn unfold_core(core: &DenseTensor, mode: usize) -> Vec<f64> {
    let ranks = core.dims();
    let rm = ranks[mode];
    let stride: usize = ranks[mode + 1..].iter().product();
    let total = core.len();
    let fsize = total / rm;
    let mut unf = vec![0.0; total];
    for (flat, &g) in core.as_slice().iter().enumerate() {
        let r = (flat / stride) % rm;
        let high = flat / (stride * rm);
        let low = flat % stride;
        unf[r * fsize + high * stride + low] = g;
    }
    unf
}

/// One step of the incremental Kronecker build: `kron ⊗= row` with left
/// association (`((k·u_j0)·u_j1)…` per element — the canonical order the
/// reference designs reproduce element-by-element; the streamed and
/// reference paths must never diverge in this fold, so it lives in exactly
/// one place). `tmp` is swap scratch.
#[inline]
fn kron_fold(row: &[f64], kron: &mut Vec<f64>, tmp: &mut Vec<f64>) {
    tmp.clear();
    tmp.reserve(kron.len() * row.len());
    for &a in kron.iter() {
        for &b in row {
            tmp.push(a * b);
        }
    }
    std::mem::swap(kron, tmp);
}

/// Streamed design vector of the observation at `idx` for `mode`: build
/// the foreign Kronecker vector from packed factor rows (ascending modes
/// other than `mode`, left association), then contract each unfolded-core
/// row against it.
#[allow(clippy::too_many_arguments)]
fn design_streamed(
    idx: &[u32],
    mode: usize,
    packed: &PackedFactors,
    unf: &[f64],
    fsize: usize,
    kron: &mut Vec<f64>,
    tmp: &mut Vec<f64>,
    out: &mut [f64],
) {
    kron.clear();
    kron.push(1.0);
    for (j, &i) in idx.iter().enumerate() {
        if j != mode {
            kron_fold(packed.row(j, i as usize), kron, tmp);
        }
    }
    debug_assert_eq!(kron.len(), fsize);
    for (o, urow) in out.iter_mut().zip(unf.chunks_exact(fsize)) {
        let mut acc = 0.0;
        for (&g, &k) in urow.iter().zip(kron.iter()) {
            acc += g * k;
        }
        *o = acc;
    }
}

/// Reference design vector: per-element core walk with the same canonical
/// association (`k` folded left over ascending foreign modes, `acc` summed
/// in ascending foreign-column order).
fn design_reference(
    t: &TuckerDecomp,
    idx: &[u32],
    mode: usize,
    out: &mut [f64],
    digits: &mut Vec<usize>,
) {
    let ranks = t.ranks();
    let d = ranks.len();
    let rm = ranks[mode];
    let total = t.core().len();
    let fsize = total / rm;
    let core = t.core().as_slice();
    for (r, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for f in 0..fsize {
            digits.clear();
            digits.resize(d, 0);
            digits[mode] = r;
            let mut rem = f;
            for j in (0..d).rev() {
                if j == mode {
                    continue;
                }
                digits[j] = rem % ranks[j];
                rem /= ranks[j];
            }
            let mut flat = 0usize;
            for (j, &dg) in digits.iter().enumerate() {
                flat = flat * ranks[j] + dg;
            }
            let mut k = 1.0;
            for (j, &dg) in digits.iter().enumerate() {
                if j == mode {
                    continue;
                }
                k *= t.factor(j)[(idx[j] as usize, dg)];
            }
            acc += core[flat] * k;
        }
        *o = acc;
    }
}

/// Streamed row-wise ridge solve for one mode's factor (parallel across
/// rows, written in place — no model clone, no per-row allocations).
fn update_factor_streamed(
    t: &mut TuckerDecomp,
    obs: &SparseTensor,
    stream: &ModeStream,
    mode: usize,
    lambda: f64,
) {
    let rank = t.ranks()[mode];
    let mut factor = t.take_factor(mode);
    let frozen: &TuckerDecomp = t;
    // Bake the frozen factors (the taken mode sits as a 0 x 0 placeholder
    // and is never read) and the mode's core unfolding once per update.
    let packed = PackedFactors::from_matrices(frozen.factors());
    let unf = unfold_core(frozen.core(), mode);
    let fsize = frozen.core().len() / rank;
    let vals = stream.values();
    factor
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .for_each_init(
            || RowScratch::new(rank),
            |s, (i, row)| {
                let rng = stream.row_range(i);
                if rng.is_empty() {
                    row.fill(0.0); // ridge minimizer for unobserved fibers
                    return;
                }
                s.zcache.clear();
                s.zcache.reserve(rng.len() * rank);
                for slot in rng.clone() {
                    design_streamed(
                        obs.index(stream.entry_ids()[slot] as usize),
                        mode,
                        &packed,
                        &unf,
                        fsize,
                        &mut s.kron,
                        &mut s.ktmp,
                        &mut s.sys.z,
                    );
                    s.zcache.extend_from_slice(&s.sys.z);
                }
                let row_vals = &vals[rng];
                let sys = &mut s.sys;
                accumulate(
                    Cached(&s.zcache),
                    row_vals.len(),
                    |k, _| Some((row_vals[k], 1.0)),
                    sys.gram.as_mut_slice(),
                    &mut sys.rhs,
                    &mut sys.z,
                );
                sys.solve_into(row_vals.len(), lambda, row);
            },
        );
    t.set_factor(mode, factor);
}

/// Reference row-wise ridge solve (see [`tucker_als_reference`]).
fn update_factor_reference(
    t: &mut TuckerDecomp,
    obs: &SparseTensor,
    mode: usize,
    mi: &ModeIndex,
    lambda: f64,
) {
    let rank = t.ranks()[mode];
    let mut factor = t.take_factor(mode);
    let frozen: &TuckerDecomp = t;
    factor
        .as_mut_slice()
        .par_chunks_mut(rank)
        .enumerate()
        .for_each_init(
            || RowScratch::new(rank),
            |s, (i, row)| {
                let entries = mi.row(i);
                if entries.is_empty() {
                    row.fill(0.0);
                    return;
                }
                let sys = &mut s.sys;
                let gram = sys.gram.as_mut_slice();
                gram.fill(0.0);
                sys.rhs.fill(0.0);
                for &e in entries {
                    let e = e as usize;
                    design_reference(frozen, obs.index(e), mode, &mut sys.z, &mut s.digits);
                    let y = obs.value(e);
                    for (r, &za) in sys.rhs.iter_mut().zip(&sys.z) {
                        *r += y * za;
                    }
                    for (grow, &za) in gram.chunks_exact_mut(rank).zip(&sys.z) {
                        for (g, &zb) in grow.iter_mut().zip(&sys.z) {
                            *g += za * zb;
                        }
                    }
                }
                sys.solve_into(entries.len(), lambda, row);
            },
        );
    t.set_factor(mode, factor);
}

/// Global least-squares update of the core: design row per observation is
/// the Kronecker product of the factor rows at its multi-index, produced by
/// `designer` (streamed: incremental fold; reference: per-element walk).
/// Returns the post-update data loss `Σ (t̂ − y)²`, recovered algebraically
/// from the normal equations (`cᵀGc − 2cᵀr + Σy²`, unscaled `G, r`).
fn update_core_with(
    t: &mut TuckerDecomp,
    obs: &SparseTensor,
    lambda: f64,
    mut designer: impl FnMut(&[u32], &mut Vec<f64>),
) -> f64 {
    let p: usize = t.ranks().iter().product();
    let mut gram = Matrix::zeros(p, p);
    let mut rhs = vec![0.0; p];
    let mut design: Vec<f64> = Vec::with_capacity(p);
    let mut y2 = 0.0;
    for (_, idx, y) in obs.iter() {
        designer(idx, &mut design);
        y2 += y * y;
        for a in 0..p {
            let da = design[a];
            if da == 0.0 {
                continue;
            }
            rhs[a] += y * da;
            let grow = gram.row_mut(a);
            for b in a..p {
                grow[b] += da * design[b];
            }
        }
    }
    let scale = 1.0 / obs.nnz().max(1) as f64;
    for a in 0..p {
        for b in 0..a {
            gram[(a, b)] = gram[(b, a)];
        }
    }
    gram.scale_mut(scale);
    for r in &mut rhs {
        *r *= scale;
    }
    for a in 0..p {
        gram[(a, a)] += lambda;
    }
    let core_flat = solve_spd_jittered(&gram, &rhs);
    t.core_mut().as_mut_slice().copy_from_slice(&core_flat);
    fused_quadratic_loss(
        gram.as_slice(),
        &rhs,
        t.core().as_slice(),
        p,
        lambda,
        scale,
        y2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::StopRule;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sampled_obs(truth: &TuckerDecomp, frac: f64, seed: u64) -> SparseTensor {
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
    fn fits_fully_observed_tucker_data() {
        let truth = TuckerDecomp::random(&[6, 5, 4], &[2, 2, 2], 0.3, 1.2, 3);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut model = TuckerDecomp::random(&[6, 5, 4], &[2, 2, 2], 0.1, 1.0, 4);
        let cfg = CompletionSpec {
            lambda: 1e-9,
            stop: StopRule {
                max_sweeps: 300,
                tol: 1e-13,
            },
            ..Default::default()
        };
        tucker_als(&mut model, &obs, &cfg);
        // Alternating schemes plateau near (not at) exact recovery; require
        // a fit far below the O(1) data scale.
        assert!(model.rmse(&obs) < 5e-3, "rmse {}", model.rmse(&obs));
    }

    #[test]
    fn completes_partially_observed() {
        let truth = TuckerDecomp::random(&[7, 7, 6], &[2, 2, 2], 0.4, 1.2, 11);
        let obs = sampled_obs(&truth, 0.6, 12);
        let mut model = TuckerDecomp::random(&[7, 7, 6], &[2, 2, 2], 0.1, 1.0, 13);
        let cfg = CompletionSpec {
            lambda: 1e-8,
            stop: StopRule {
                max_sweeps: 400,
                tol: 1e-13,
            },
            ..Default::default()
        };
        tucker_als(&mut model, &obs, &cfg);
        let full = SparseTensor::from_dense(&truth.to_dense());
        assert!(
            model.rmse(&full) < 0.05,
            "generalization rmse {}",
            model.rmse(&full)
        );
    }

    #[test]
    fn objective_is_monotone() {
        let truth = TuckerDecomp::random(&[5, 5, 4], &[2, 2, 2], 0.3, 1.0, 20);
        let obs = sampled_obs(&truth, 0.8, 21);
        let mut model = TuckerDecomp::random(&[5, 5, 4], &[2, 2, 2], 0.1, 1.0, 22);
        let trace = tucker_als(&mut model, &obs, &CompletionSpec::default());
        assert!(trace.is_monotone(1e-9), "{:?}", trace.objective);
    }

    #[test]
    fn fused_objective_matches_direct_evaluation() {
        // The algebraic per-sweep objective must agree with a from-scratch
        // tucker_objective evaluation up to cancellation noise.
        let truth = TuckerDecomp::random(&[6, 5, 4], &[2, 3, 2], 0.3, 1.1, 33);
        let obs = sampled_obs(&truth, 0.7, 34);
        let mut model = TuckerDecomp::random(&[6, 5, 4], &[2, 3, 2], 0.1, 1.0, 35);
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule {
                max_sweeps: 5,
                tol: -1.0,
            },
            ..Default::default()
        };
        let trace = tucker_als(&mut model, &obs, &cfg);
        let direct = tucker_objective(&model, &obs, cfg.lambda);
        let fused = trace.final_objective();
        assert!(
            (fused - direct).abs() <= 1e-9 * direct.abs().max(1.0),
            "fused {fused} vs direct {direct}"
        );
    }

    #[test]
    fn streamed_design_matches_legacy_design_vector() {
        // The canonical (unfold + Kronecker) design agrees with the legacy
        // `leave_one_out_design` contraction up to association noise.
        let t = TuckerDecomp::random(&[5, 4, 3], &[2, 3, 2], -1.0, 1.0, 40);
        let idx = [4u32, 2, 1];
        let mut digits = Vec::new();
        for mode in 0..3 {
            let rank = t.ranks()[mode];
            let mut canonical = vec![0.0; rank];
            design_reference(&t, &idx, mode, &mut canonical, &mut digits);
            let mut legacy = vec![0.0; rank];
            t.leave_one_out_design(&idx, mode, &mut legacy);
            for (a, b) in canonical.iter().zip(&legacy) {
                assert!((a - b).abs() < 1e-12, "mode {mode}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn tucker_can_beat_equal_budget_cp_on_core_heavy_data() {
        // Data with a dense cross-component core: Tucker's core captures the
        // interactions; a CP model of equal parameter budget struggles.
        let truth = TuckerDecomp::random(&[8, 8, 8], &[3, 3, 3], -1.0, 1.0, 30);
        let obs = sampled_obs(&truth, 0.7, 31);
        let mut tucker = TuckerDecomp::random(&[8, 8, 8], &[3, 3, 3], 0.1, 1.0, 32);
        tucker_als(
            &mut tucker,
            &obs,
            &CompletionSpec {
                lambda: 1e-8,
                stop: StopRule {
                    max_sweeps: 200,
                    tol: 1e-12,
                },
                ..Default::default()
            },
        );
        // CP with rank chosen to roughly match Tucker's parameter count.
        let cp_rank = tucker.param_count() / (3 * 8);
        let mut cp = cpr_tensor::CpDecomp::random(&[8, 8, 8], cp_rank.max(1), 0.1, 1.0, 33);
        crate::als::als(
            &mut cp,
            &obs,
            &CompletionSpec {
                lambda: 1e-8,
                stop: StopRule {
                    max_sweeps: 200,
                    tol: 1e-12,
                },
                ..Default::default()
            },
        );
        let full = SparseTensor::from_dense(&truth.to_dense());
        let (tr, cr) = (tucker.rmse(&full), cp.rmse(&full));
        // Tucker should at least be competitive on its own model class.
        assert!(tr < cr * 2.0 + 0.05, "tucker {tr} vs cp {cr}");
    }

    #[test]
    fn empty_fibers_zeroed() {
        let mut obs = SparseTensor::new(&[4, 3]);
        obs.push(&[0, 0], 1.0);
        obs.push(&[1, 1], 2.0);
        let mut model = TuckerDecomp::random(&[4, 3], &[2, 2], 0.1, 1.0, 40);
        tucker_als(&mut model, &obs, &CompletionSpec::default());
        assert!(model.factor(0).row(3).iter().all(|&v| v == 0.0));
    }
}
