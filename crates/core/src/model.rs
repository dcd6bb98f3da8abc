//! The CPR performance model (paper §5.1–5.2).
//!
//! Training pipeline:
//! 1. Discretize the parameter space onto a regular grid ([`cpr_grid`]).
//! 2. Map each observed configuration to its grid cell; each observed cell's
//!    tensor entry stores the *mean* execution time of its configurations.
//! 3. Log-transform the entries and fit a rank-`R` CP decomposition by ALS
//!    tensor completion (least-squares loss on log times — §5.2's
//!    `φ(t, t̂) = (log t − t̂)²`), or keep raw positive entries and fit with
//!    the interior-point AMN under MLogQ² loss (§5.3's positive model).
//! 4. Predict with Eq. 5: multilinear interpolation of the completed log
//!    entries over the grid-cell mid-points in `h_j`-space (then
//!    exponentiate — `m(x) = e^{m̂(x)}`), with linear extrapolation at the
//!    domain edges and observed-fiber masking (see `masked_stencils`).

use crate::dataset::Dataset;
use crate::error::{CprError, Result};
use crate::metrics::{Metrics, MetricsAccum};
use cpr_completion::{complete, init_positive, CompletionSpec, Optimizer, StopRule, Trace};
use cpr_grid::space::interpolate_corners;
use cpr_grid::{AxisTable, ParamSpace, TensorGrid};
use cpr_tensor::{CpDecomp, Decomposition, PackedFactors, SparseTensor, TuckerDecomp};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Loss/optimizer selection for CPR training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// §5.2: minimize `(log t − t̂)²` with ALS; model output is `exp(t̂)`.
    /// Fast, robust, the default for interpolation.
    #[default]
    LogLeastSquares,
    /// §5.3: minimize `(log t − log t̂)²` with interior-point AMN keeping all
    /// factors strictly positive (required for extrapolation).
    MLogQ2,
}

/// Grid-cell specification of a [`FitSpec`]: one count shared by every
/// mode, or explicit per-mode counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cells {
    /// Same cell count along every mode (categorical modes still use their
    /// cardinality when the grid is built).
    PerDim(usize),
    /// Explicit per-mode cell counts; the length must match the parameter
    /// space dimension at fit time.
    PerMode(Vec<usize>),
}

impl Cells {
    /// Materialize per-mode counts for a `d`-parameter space.
    fn resolve(&self, d: usize) -> Result<Vec<usize>> {
        let cells = match self {
            Cells::PerDim(c) => vec![*c; d],
            Cells::PerMode(v) => {
                if v.len() != d {
                    return Err(CprError::InvalidConfig(format!(
                        "cells has length {}, space has {d} parameters",
                        v.len()
                    )));
                }
                v.clone()
            }
        };
        if cells.contains(&0) {
            return Err(CprError::InvalidConfig("cell counts must be >= 1".into()));
        }
        Ok(cells)
    }
}

/// The full fit configuration, independent of any one optimizer: grid
/// cells, rank(s), regularization, sweep budget, tolerance, seed, loss,
/// and the optimizer itself. One `FitSpec` drives any [`Optimizer`]
/// through [`CprBuilder::fit`]; the extrapolation and streaming
/// layers reuse it instead of duplicating fields.
///
/// `loss` and `optimizer` are both optional and resolved jointly at fit
/// time (see [`FitSpec::resolve`]): leaving both unset fits ALS under the
/// log-least-squares loss (the paper's §5.2 default); setting only the
/// MLogQ² loss selects AMN (§5.3's positive regime); setting only the
/// optimizer picks the loss family it optimizes. Explicitly contradictory
/// pairs (AMN with least squares, ALS with MLogQ²) are configuration
/// errors, reported as [`CprError::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct FitSpec {
    /// Grid cells per mode (paper sweeps 4..64 per dimension).
    pub cells: Cells,
    /// CP rank `R` (paper sweeps 1..64); also the default per-mode
    /// multilinear rank for Tucker-ALS.
    pub rank: usize,
    /// Per-mode multilinear ranks for [`Optimizer::TuckerAls`]; `None`
    /// means `rank` along every mode. Ignored by the CP optimizers.
    pub tucker_ranks: Option<Vec<usize>>,
    /// Ridge regularization λ (paper sweeps 1e-6..1e-3).
    pub lambda: f64,
    /// Optimizer sweep cap (paper: 100).
    pub max_sweeps: usize,
    /// Convergence tolerance on the relative objective decrease.
    pub tol: f64,
    /// RNG seed for factor initialization.
    pub seed: u64,
    /// Loss selection; `None` = derived from the optimizer.
    pub loss: Option<Loss>,
    /// Optimizer selection; `None` = derived from the loss.
    pub optimizer: Option<Optimizer>,
}

impl Default for FitSpec {
    /// The paper's mid-range configuration: 8 cells/dim, rank 4, λ = 1e-5,
    /// 100 sweeps, ALS under log-least-squares.
    fn default() -> Self {
        Self {
            cells: Cells::PerDim(8),
            rank: 4,
            tucker_ranks: None,
            lambda: 1e-5,
            max_sweeps: 100,
            tol: 1e-6,
            seed: 0,
            loss: None,
            optimizer: None,
        }
    }
}

impl FitSpec {
    /// The stopping rule this spec induces.
    pub fn stop_rule(&self) -> StopRule {
        StopRule {
            max_sweeps: self.max_sweeps,
            tol: self.tol,
        }
    }

    /// Resolve the `(optimizer, loss)` pair, validating compatibility:
    /// AMN maintains positive factors and therefore pairs only with the
    /// MLogQ² loss; every other optimizer minimizes least squares over
    /// log-transformed entries and pairs only with
    /// [`Loss::LogLeastSquares`].
    pub fn resolve(&self) -> Result<(Optimizer, Loss)> {
        let pair = match (self.optimizer, self.loss) {
            (None, None) => (Optimizer::Als, Loss::LogLeastSquares),
            (None, Some(Loss::LogLeastSquares)) => (Optimizer::Als, Loss::LogLeastSquares),
            (None, Some(Loss::MLogQ2)) => (Optimizer::Amn, Loss::MLogQ2),
            (Some(opt), None) => {
                let loss = if opt.requires_positive() {
                    Loss::MLogQ2
                } else {
                    Loss::LogLeastSquares
                };
                (opt, loss)
            }
            (Some(opt), Some(loss)) => {
                let positive = loss == Loss::MLogQ2;
                if opt.requires_positive() != positive {
                    return Err(CprError::InvalidConfig(format!(
                        "optimizer {} does not optimize the {loss:?} loss",
                        opt.name()
                    )));
                }
                (opt, loss)
            }
        };
        Ok(pair)
    }

    /// Per-mode decomposition ranks for a `d`-mode grid: `tucker_ranks`
    /// when set (validated), else `rank` everywhere.
    fn resolved_ranks(&self, d: usize) -> Result<Vec<usize>> {
        match &self.tucker_ranks {
            None => Ok(vec![self.rank; d]),
            Some(r) => {
                if r.len() != d {
                    return Err(CprError::InvalidConfig(format!(
                        "tucker_ranks has length {}, space has {d} parameters",
                        r.len()
                    )));
                }
                if r.contains(&0) {
                    return Err(CprError::InvalidConfig("ranks must be >= 1".into()));
                }
                Ok(r.clone())
            }
        }
    }
}

/// Builder for [`CprModel`]: a [`ParamSpace`] plus a [`FitSpec`], with
/// fluent setters for every spec field. One builder fits with any of the
/// optimizers (`.optimizer(Optimizer::TuckerAls)` etc.); the extrapolation
/// ([`crate::CprExtrapolatorBuilder`]) and streaming
/// ([`crate::StreamingCpr`]) entry points wrap this same builder instead
/// of duplicating its fields.
#[derive(Debug, Clone)]
pub struct CprBuilder {
    space: ParamSpace,
    spec: FitSpec,
}

impl CprBuilder {
    /// Start a builder over a parameter space with [`FitSpec::default`]
    /// (the paper's mid-range configuration: 8 cells/dim, rank 4,
    /// λ = 1e-5, 100 ALS sweeps).
    pub fn new(space: ParamSpace) -> Self {
        Self {
            space,
            spec: FitSpec::default(),
        }
    }

    /// Replace the whole fit configuration at once.
    pub fn with_spec(mut self, spec: FitSpec) -> Self {
        self.spec = spec;
        self
    }

    /// The parameter space this builder discretizes.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The current fit configuration.
    pub fn spec(&self) -> &FitSpec {
        &self.spec
    }

    /// Same cell count along every numerical mode.
    pub fn cells_per_dim(mut self, cells: usize) -> Self {
        self.spec.cells = Cells::PerDim(cells);
        self
    }

    /// Per-mode cell counts (categorical entries are ignored).
    pub fn cells(mut self, cells: Vec<usize>) -> Self {
        self.spec.cells = Cells::PerMode(cells);
        self
    }

    /// CP rank `R` (paper sweeps 1..64). For [`Optimizer::TuckerAls`] this
    /// is the default per-mode multilinear rank.
    pub fn rank(mut self, rank: usize) -> Self {
        self.spec.rank = rank;
        self
    }

    /// Per-mode multilinear ranks for [`Optimizer::TuckerAls`].
    pub fn tucker_ranks(mut self, ranks: Vec<usize>) -> Self {
        self.spec.tucker_ranks = Some(ranks);
        self
    }

    /// Ridge regularization λ (paper sweeps 1e-6..1e-3).
    pub fn regularization(mut self, lambda: f64) -> Self {
        self.spec.lambda = lambda;
        self
    }

    /// Optimizer sweep cap (paper: 100).
    pub fn max_sweeps(mut self, sweeps: usize) -> Self {
        self.spec.max_sweeps = sweeps;
        self
    }

    /// Convergence tolerance on the relative objective decrease.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.spec.tol = tol;
        self
    }

    /// RNG seed for factor initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Loss selection. Without an explicit [`Self::optimizer`], selecting
    /// [`Loss::MLogQ2`] selects AMN (the only optimizer of that loss).
    pub fn loss(mut self, loss: Loss) -> Self {
        self.spec.loss = Some(loss);
        self
    }

    /// Optimizer selection (see [`FitSpec::resolve`] for loss pairing).
    pub fn optimizer(mut self, optimizer: Optimizer) -> Self {
        self.spec.optimizer = Some(optimizer);
        self
    }

    /// Fit a CPR model on the dataset with the configured optimizer.
    pub fn fit(&self, data: &Dataset) -> Result<CprModel> {
        if data.is_empty() {
            return Err(CprError::EmptyDataset);
        }
        if self.spec.rank == 0 {
            return Err(CprError::InvalidConfig("rank must be >= 1".into()));
        }
        let d = self.space.dim();
        let cells = self.spec.cells.resolve(d)?;
        let (optimizer, loss) = self.spec.resolve()?;
        for (i, (x, y)) in data.iter().enumerate() {
            if x.len() != d {
                return Err(CprError::DimensionMismatch {
                    expected: d,
                    got: x.len(),
                });
            }
            if y <= 0.0 || !y.is_finite() {
                return Err(CprError::NonPositiveTime { index: i, value: y });
            }
        }

        let grid = self.space.grid_with_cells(&cells);
        let (mut obs, observed_cells) = bin_observations(&grid, data, loss)?;
        // Per-mode masks of rows with at least one observation: stencils
        // never interpolate toward fibers the optimizer saw nothing of.
        let row_observed: Vec<Vec<bool>> = (0..grid.order())
            .map(|m| {
                obs.mode_index(m)
                    .iter()
                    .map(|ids| !ids.is_empty())
                    .collect()
            })
            .collect();

        // Initialize the decomposition the optimizer's model class needs.
        let dims = grid.dims();
        let (mut decomp, log_offset) = match loss {
            Loss::LogLeastSquares => {
                // Center the log times: the completion then models only the
                // variation around the mean, which conditions the sweeps far
                // better than absorbing a large constant offset into rank-1
                // energy.
                let mean = obs.values().iter().sum::<f64>() / obs.nnz() as f64;
                obs.map_values_mut(|v| v - mean);
                let decomp = if optimizer.fits_tucker() {
                    let ranks = self.spec.resolved_ranks(grid.order())?;
                    Decomposition::Tucker(TuckerDecomp::random(
                        &dims,
                        &ranks,
                        0.0,
                        1.0,
                        self.spec.seed,
                    ))
                } else {
                    Decomposition::Cp(CpDecomp::random(
                        &dims,
                        self.spec.rank,
                        0.0,
                        1.0,
                        self.spec.seed,
                    ))
                };
                (decomp, mean)
            }
            Loss::MLogQ2 => {
                let gm = geometric_mean(obs.values());
                let cp = init_positive(&dims, self.spec.rank, gm, self.spec.seed);
                (Decomposition::Cp(cp), 0.0)
            }
        };
        let trace = complete(
            &mut decomp,
            &obs,
            optimizer,
            &CompletionSpec {
                lambda: self.spec.lambda,
                stop: self.spec.stop_rule(),
                seed: self.spec.seed,
            },
        );
        let plan = Arc::new(PredictPlan::bake(
            &grid,
            &decomp,
            loss,
            log_offset,
            &row_observed,
        ));
        Ok(CprModel {
            space: self.space.clone(),
            grid,
            decomp,
            optimizer,
            loss,
            trace,
            observed_cells,
            samples: data.len(),
            log_offset,
            row_observed,
            plan,
        })
    }
}

/// Bin observations into grid cells; tensor entries are per-cell means.
/// Returns the sparse observation tensor and the number of observed cells.
fn bin_observations(
    grid: &TensorGrid,
    data: &Dataset,
    loss: Loss,
) -> Result<(SparseTensor, usize)> {
    // BTreeMap: deterministic iteration order keeps the whole training
    // pipeline bit-reproducible (HashMap order would perturb float sums).
    let mut cells: BTreeMap<Vec<usize>, (f64, usize)> = BTreeMap::new();
    for (x, y) in data.iter() {
        let idx = grid.cell_index(x);
        let entry = cells.entry(idx).or_insert((0.0, 0));
        entry.0 += y;
        entry.1 += 1;
    }
    if cells.is_empty() {
        return Err(CprError::NoObservedCells);
    }
    let observed = cells.len();
    let mut obs = SparseTensor::new(&grid.dims());
    obs.extend_from(cells.into_iter().map(|(idx, (sum, count))| {
        let mean = sum / count as f64;
        let value = match loss {
            Loss::LogLeastSquares => mean.ln(),
            Loss::MLogQ2 => mean,
        };
        (idx, value)
    }));
    Ok((obs, observed))
}

fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// Tensor orders served through stack-allocated query scratch. Real models
/// are order ≤ 7 (paper Table 2); higher orders fall back to a per-call
/// heap allocation, still bitwise-correct.
const PLAN_STACK_ORDER: usize = 16;
/// Mirrors `cpr_tensor`'s stack-accumulator rank bound.
const PLAN_STACK_RANK: usize = 64;
/// Largest order with its own monomorphized corner-expansion instance
/// (fully unrolled stencil/corner loops); orders above share one bounded
/// body.
const MONO_ORDER_MAX: usize = 6;
/// Degenerate-stencil marker in the baked per-query scratch: a mode whose
/// stencil collapsed to a point stores this in place of its hi-corner
/// offset (valid offsets are bounded far below by [`DENSE_EVAL_MAX`]).
const DEGEN: u32 = u32::MAX;
/// Largest grid (in cells) pre-evaluated into the dense corner-value table
/// at bake time. 64k cells = 512 KiB of doubles — covers every paper-scale
/// grid (8⁵ = 32k) while bounding both bake time (`O(cells · d · R)`) and
/// the plan's memory footprint. Larger grids serve through the factor
/// gather instead.
const DENSE_EVAL_MAX: usize = 1 << 16;

// The registry's shard/hot-swap design shares one baked plan across reader
// threads; every field is plain owned data, so the auto-impls must never
// silently disappear under a future field change.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PredictPlan>();
    assert_send_sync::<CprModel>();
};

/// Compiled query path: a one-time "bake" of a fitted [`CprModel`] into a
/// query-optimized representation.
///
/// The naive predict path pays, per call, heap allocations (stencil
/// vector, corner index or rank vectors), a [`cpr_grid::ParamSpec`]
/// dispatch plus midpoint binary search plus three `h`-transforms per mode,
/// and factor reads that chase `Vec<Matrix>` pointers. The plan bakes all
/// of it once:
///
/// * per-axis [`AxisTable`]s — h-transformed midpoints and bracket widths
///   precomputed, direct index lookup on linear/log axes (binary search
///   only on nudged integer axes);
/// * a [`PackedFactors`] copy of the factors — every per-mode read is a
///   contiguous rank-length row from one allocation;
/// * the observed-row masks, so Eq. 5 stencil masking needs no grid access;
/// * for MLogQ² CP and for Tucker plans on grids up to 64k cells, a dense
///   table of every corner value (see `DenseEval`).
///
/// How a query is served depends on the model class:
///
/// * **CP under log-least-squares** (the paper's §5.2 model) serves Eq. 5
///   in *separable* form. Every corner term is linear in the CP factors,
///   so the `2^d`-corner sum factorizes into one blended row per mode,
///   `b_j = (1 − w_j)·U_j[lo_j] + w_j·U_j[hi_j]` (just `U_j[lo_j]` for a
///   point stencil), multiplied elementwise in mode order and summed over
///   the rank: `O(d·R)` per query instead of `O(2^d·d·R)`. These plans
///   carry no dense table.
/// * **MLogQ² CP** interpolates `ln` of the corner values, which does not
///   factorize: the corner expansion reads the dense table when the grid
///   has one and gathers factor rows per corner otherwise.
/// * **Tucker** reads the dense table, or evaluates the core per corner
///   beyond the cap.
///
/// Serving runs with **zero allocations per query** (stack scratch up to
/// order 16 / rank 64) and [`Self::predict_into`] fans a batch out over
/// the crate thread pool in fixed chunks onto a caller-provided buffer.
///
/// Determinism contract: `plan.predict(x)` and every [`Self::predict_into`]
/// output are **bitwise identical** to the reference path
/// [`CprModel::predict_naive`] for every non-NaN query, at any thread
/// count, and batch outputs are written in input order. The equivalence
/// is pinned by proptests over random models of orders 1–9, every axis
/// kind, both losses and random masks.
///
/// A plan is a bake, not a view: [`CprModel`] rebakes it whenever the
/// factors or observation masks change (fit, deserialization,
/// [`CprModel::set_row_observed_from`], streaming refits).
#[derive(Debug, Clone)]
pub struct PredictPlan {
    tables: Vec<AxisTable>,
    packed: PackedFactors,
    /// Per-mode flags: does row `i` of mode `j` have any observation?
    row_observed: Vec<Vec<bool>>,
    loss: Loss,
    log_offset: f64,
    /// CP rank, or the maximum multilinear rank for Tucker (sizes the
    /// rank scratch of the factor kernels; unused on the dense path).
    rank: usize,
    /// The Tucker core behind the bake, when the decomposition is Tucker
    /// (the factor rows already live in `packed`): grids beyond the dense
    /// cap serve corner values through [`cpr_tensor::eval_core_packed`]
    /// instead of the CP kernels.
    tucker_core: Option<cpr_tensor::DenseTensor>,
    /// Pre-evaluated corner values over the whole grid, for the plans that
    /// expand corners (MLogQ² CP, Tucker) when the grid fits.
    dense: Option<DenseEval>,
}

/// The partial-evaluation half of the bake for the plans that expand
/// corners: corner values depend only on grid indices, never on the query,
/// so for grids up to [`DENSE_EVAL_MAX`] cells the plan evaluates the
/// completed tensor at *every* grid point once. Serving then replaces the
/// per-corner `O(d·R)` factor gather with one table load. `values[flat]`
/// holds exactly what the naive per-corner closure computes —
/// `cp.eval(idx).max(1e-300).ln()` for MLogQ² CP, `t.eval(idx)` for
/// Tucker — so the bitwise contract is inherited by
/// construction. Separable CP log-least-squares plans never carry one:
/// their kernel does no per-corner work for a table to save.
#[derive(Debug, Clone)]
struct DenseEval {
    values: Vec<f64>,
    /// Row-major strides over the grid dims (`u32`: the size cap keeps
    /// every flat index well under 2³²).
    strides: Vec<u32>,
}

impl PredictPlan {
    /// Bake a plan from model parts (used by [`CprModel`] constructors).
    fn bake(
        grid: &TensorGrid,
        decomp: &Decomposition,
        loss: Loss,
        log_offset: f64,
        row_observed: &[Vec<bool>],
    ) -> Self {
        let packed = decomp.packed();
        let separable = decomp.as_cp().is_some() && loss == Loss::LogLeastSquares;
        let dense = if separable {
            None
        } else {
            Self::bake_dense(decomp, &packed, &grid.dims(), loss)
        };
        Self {
            tables: grid.bake_tables(),
            packed,
            row_observed: row_observed.to_vec(),
            loss,
            log_offset,
            rank: decomp.max_rank(),
            tucker_core: decomp.as_tucker().map(|t| t.core().clone()),
            dense,
        }
    }

    /// Evaluate the completed tensor at every grid cell (row-major), in
    /// corner-value form. `None` when the grid is too large or the order
    /// exceeds the stack-kernel bound.
    fn bake_dense(
        decomp: &Decomposition,
        packed: &PackedFactors,
        dims: &[usize],
        loss: Loss,
    ) -> Option<DenseEval> {
        let d = dims.len();
        if d > PLAN_STACK_ORDER {
            return None;
        }
        let cells = dims
            .iter()
            .try_fold(1usize, |a, &b| a.checked_mul(b))
            .filter(|&c| c > 0 && c <= DENSE_EVAL_MAX)?;
        let mut strides = vec![1u32; d];
        for j in (0..d.saturating_sub(1)).rev() {
            strides[j] = strides[j + 1] * dims[j + 1] as u32;
        }
        let mut values = vec![0.0; cells];
        let mut idx = vec![0usize; d];
        for v in values.iter_mut() {
            let raw = decomp.eval_packed(packed, &idx);
            *v = match loss {
                Loss::LogLeastSquares => raw,
                Loss::MLogQ2 => raw.max(1e-300).ln(),
            };
            // Row-major odometer: last axis fastest.
            for j in (0..d).rev() {
                idx[j] += 1;
                if idx[j] < dims[j] {
                    break;
                }
                idx[j] = 0;
            }
        }
        Some(DenseEval { values, strides })
    }

    /// Tensor order `d`.
    pub fn order(&self) -> usize {
        self.tables.len()
    }

    /// CP rank of the baked factors.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the bake carried the dense corner-value table: MLogQ² CP and
    /// Tucker plans on grids up to `DENSE_EVAL_MAX` cells. When `false`
    /// queries run from the factors — the separable kernel for CP
    /// log-least-squares, a per-corner gather otherwise — with output
    /// bitwise identical to the table's.
    pub fn has_dense_cache(&self) -> bool {
        self.dense.is_some()
    }

    /// Bytes held by the dense corner-value table alone (0 when absent) —
    /// the quantity a serving tier budgets, since the table dominates a
    /// small-grid plan's footprint.
    pub fn dense_cache_bytes(&self) -> usize {
        self.dense
            .as_ref()
            .map_or(0, |de| de.values.len() * 8 + de.strides.len() * 4)
    }

    /// A copy of this plan with the dense corner-value table dropped:
    /// serving falls back to the per-corner factor gather. Output stays
    /// bitwise identical — both paths mirror the naive reference — so a
    /// memory-pressure demotion never changes a prediction. Promotion is a
    /// rebake ([`CprModel::bake_plan`]), which re-evaluates the table.
    pub fn without_dense_cache(&self) -> PredictPlan {
        PredictPlan {
            dense: None,
            ..self.clone()
        }
    }

    /// Baked size in bytes (tables + packed factors + the Tucker core when
    /// present + masks + the dense corner-value table when present).
    pub fn size_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().map(AxisTable::size_bytes).sum();
        let masks: usize = self.row_observed.iter().map(Vec::len).sum();
        let core: usize = self.tucker_core.as_ref().map_or(0, |c| c.len() * 8);
        self.packed.size_bytes() + tables + masks + core + self.dense_cache_bytes()
    }

    /// Contiguous baked factor row (rank-length) of one mode — the SoA
    /// gather primitive, shared with the extrapolation layer.
    #[inline]
    pub fn factor_row(&self, mode: usize, i: usize) -> &[f64] {
        self.packed.row(mode, i)
    }

    /// Predict the execution time of one configuration (Eq. 5), bitwise
    /// identical to [`CprModel::predict_naive`].
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.tables.len(),
            "predict: configuration order mismatch"
        );
        match (&self.dense, self.loss) {
            (Some(_), Loss::LogLeastSquares) => self.predict_dense::<false>(x),
            (Some(_), Loss::MLogQ2) => self.predict_dense::<true>(x),
            (None, _) if self.tucker_core.is_some() => self.predict_tucker_fallback(x),
            (None, Loss::LogLeastSquares) => {
                self.with_rank_scratch(|acc| self.predict_separable(x, acc))
            }
            (None, Loss::MLogQ2) => self.with_rank_scratch(|acc| self.predict_factor(x, acc)),
        }
    }

    /// Run `f` on a rank-length scratch vector: stack-held up to
    /// [`PLAN_STACK_RANK`], heap beyond.
    #[inline(always)]
    fn with_rank_scratch(&self, f: impl FnOnce(&mut [f64]) -> f64) -> f64 {
        if self.rank <= PLAN_STACK_RANK {
            let mut acc = [0.0f64; PLAN_STACK_RANK];
            f(&mut acc[..self.rank])
        } else {
            f(&mut vec![0.0f64; self.rank])
        }
    }

    /// Single-query separable kernel (CP, log-least-squares): fold each
    /// mode's blended factor row into the rank accumulator, then finish.
    /// The accumulator seeds with ones — `1.0 · b ≡ b` bitwise for every
    /// non-NaN `b` — exactly as the naive spec does.
    #[inline]
    fn predict_separable(&self, x: &[f64], acc: &mut [f64]) -> f64 {
        acc.fill(1.0);
        for (j, &xj) in x.iter().enumerate() {
            let (a0, a1, w1, degen) = self.masked_stencil(j, xj);
            self.fold_blended_row(acc, j, a0, a1, w1, degen);
        }
        self.finish_separable(acc)
    }

    /// `acc *= b_j` for mode `j`'s blended row
    /// `b_j = (1 − w1)·U_j[a0] + w1·U_j[a1]`, or `b_j = U_j[a0]` for a
    /// point stencil — the operation order of the naive spec
    /// (`separable_corner_sum`).
    #[inline(always)]
    fn fold_blended_row(
        &self,
        acc: &mut [f64],
        j: usize,
        a0: usize,
        a1: usize,
        w1: f64,
        degen: bool,
    ) {
        let lo = self.packed.row(j, a0);
        if degen {
            for (a, &u) in acc.iter_mut().zip(lo) {
                *a *= u;
            }
        } else {
            let hi = self.packed.row(j, a1);
            let w0 = 1.0 - w1;
            for ((a, &u0), &u1) in acc.iter_mut().zip(lo).zip(hi) {
                *a *= w0 * u0 + w1 * u1;
            }
        }
    }

    /// Rank sum, offset, clamp and `exp` of a separable accumulator.
    #[inline(always)]
    fn finish_separable(&self, acc: &[f64]) -> f64 {
        let v: f64 = acc.iter().sum();
        (v + self.log_offset).clamp(-690.0, 690.0).exp()
    }

    /// Per-corner factor-gather path of MLogQ² CP plans without a dense
    /// table (grids beyond the cap, or a demoted plan).
    #[inline]
    fn predict_factor(&self, x: &[f64], acc: &mut [f64]) -> f64 {
        match x.len() {
            1 => self.kernel::<1>(x, acc),
            2 => self.kernel::<2>(x, acc),
            3 => self.kernel::<3>(x, acc),
            4 => self.kernel::<4>(x, acc),
            5 => self.kernel::<5>(x, acc),
            6 => self.kernel::<6>(x, acc),
            d if d <= PLAN_STACK_ORDER => self.kernel::<PLAN_STACK_ORDER>(x, acc),
            _ => self.predict_dyn(x, acc),
        }
    }

    /// Monomorphization dispatch of the dense-table kernel on the tensor
    /// order: each arm pins the order to a constant, so the instance gets
    /// fully unrolled stencil and corner loops; the `LOG_CORNERS` constant
    /// hoists the loss branch out of the corner loop.
    #[inline]
    fn predict_dense<const LOG_CORNERS: bool>(&self, x: &[f64]) -> f64 {
        match x.len() {
            1 => self.kernel_dense::<1, LOG_CORNERS>(x),
            2 => self.kernel_dense::<2, LOG_CORNERS>(x),
            3 => self.kernel_dense::<3, LOG_CORNERS>(x),
            4 => self.kernel_dense::<4, LOG_CORNERS>(x),
            5 => self.kernel_dense::<5, LOG_CORNERS>(x),
            6 => self.kernel_dense::<6, LOG_CORNERS>(x),
            // bake_dense rejects orders above PLAN_STACK_ORDER.
            _ => self.kernel_dense::<PLAN_STACK_ORDER, LOG_CORNERS>(x),
        }
    }

    /// Single-query kernel over the dense corner-value table.
    #[inline]
    fn kernel_dense<const DCAP: usize, const LOG_CORNERS: bool>(&self, x: &[f64]) -> f64 {
        let dense = self.dense.as_ref().expect("kernel_dense: no dense bake");
        let d = x.len();
        assert!(
            d <= DCAP,
            "kernel_dense: order {d} exceeds scratch cap {DCAP}"
        );
        let mut st = [(0.0f64, 0u32, 0u32); DCAP];
        for j in 0..d {
            let (a0, a1, w1, degen) = self.masked_stencil(j, x[j]);
            let gs = dense.strides[j];
            let o1 = if degen { DEGEN } else { a1 as u32 * gs };
            st[j] = (w1, a0 as u32 * gs, o1);
        }
        self.corner_expand_dense::<DCAP, LOG_CORNERS>(d, 1, 0, &st[..d], &dense.values)
    }

    /// Eq. 5 corner expansion over the dense table for query `k` of an
    /// axis-major block of `m` queries: `st[j*m + k]` holds mode `j`'s
    /// `(w1, lo_offset, hi_offset)` with [`DEGEN`] marking a point
    /// stencil; the corner value is one load at the accumulated flat
    /// offset. Same mask iteration, weight
    /// products, and weighted-sum order as the naive `interpolate_corners`
    /// — corner values come pre-evaluated from the bake (see
    /// [`DenseEval`]), so the result is bitwise-identical.
    #[inline(always)]
    fn corner_expand_dense<const DCAP: usize, const LOG_CORNERS: bool>(
        &self,
        d: usize,
        m: usize,
        k: usize,
        st: &[(f64, u32, u32)],
        values: &[f64],
    ) -> f64 {
        let d = if DCAP >= 1 && DCAP <= MONO_ORDER_MAX {
            assert_eq!(d, DCAP, "corner_expand_dense: order/DCAP mismatch");
            DCAP
        } else {
            d
        };
        let mut total = 0.0;
        let corners = 1usize << d;
        'corner: for mask in 0..corners {
            let mut weight = 1.0;
            let mut flat = 0u32;
            for j in 0..d {
                let (w1, o0, o1) = st[j * m + k];
                if (mask >> j) & 1 == 1 {
                    if o1 == DEGEN {
                        continue 'corner; // degenerate mode: only corner 0
                    }
                    weight *= w1;
                    flat += o1;
                } else {
                    weight *= if o1 == DEGEN { 1.0 } else { 1.0 - w1 };
                    flat += o0;
                }
            }
            if weight == 0.0 {
                continue;
            }
            total += weight * values[flat as usize];
        }
        let log_pred = if LOG_CORNERS {
            total
        } else {
            total + self.log_offset
        };
        log_pred.clamp(-690.0, 690.0).exp()
    }

    /// Masked stencil of one mode: baked-table stencil, then
    /// [`apply_mask`]. Returns `(lo_row, hi_row, w1, degenerate)`.
    #[inline(always)]
    fn masked_stencil(&self, j: usize, xj: f64) -> (usize, usize, f64, bool) {
        let (i0, i1, w1) = self.tables[j].stencil(xj);
        apply_mask(&self.row_observed[j], i0, i1, w1)
    }

    /// MLogQ² corner expansion over gathered factor rows for one query:
    /// `st[j]` holds mode `j`'s `(w1, degenerate)` stencil, `rows0`/`rows1`
    /// the hoisted packed factor rows. `DCAP` in `1..=MONO_ORDER_MAX` pins
    /// the order to a constant for full unrolling (`0` = dynamic order).
    /// Every floating-point operation mirrors the naive
    /// `interpolate_corners` + `ln(CpDecomp::eval)` chain in the same order
    /// (the accumulator seeds with the first mode's row instead of
    /// multiplying it into ones — `1.0 * u ≡ u` bitwise for every non-NaN
    /// `u`), which is what makes the bitwise contract hold.
    #[inline(always)]
    fn corner_expand<const DCAP: usize>(
        &self,
        d: usize,
        st: &[(f64, bool)],
        rows0: &[&[f64]],
        rows1: &[&[f64]],
        acc: &mut [f64],
    ) -> f64 {
        // Binding the loop bound to the *constant* (not the runtime order)
        // is what guarantees unrolling even when this body is not inlined
        // into its dispatch arm.
        let d = if DCAP >= 1 && DCAP <= MONO_ORDER_MAX {
            assert_eq!(d, DCAP, "corner_expand: order/DCAP mismatch");
            DCAP
        } else {
            d
        };
        let mut total = 0.0;
        let corners = 1usize << d;
        'corner: for mask in 0..corners {
            let mut weight = 1.0;
            for (j, &(w1, degen)) in st[..d].iter().enumerate() {
                if (mask >> j) & 1 == 1 {
                    if degen {
                        continue 'corner; // degenerate mode: only corner 0
                    }
                    weight *= w1;
                } else {
                    weight *= if degen { 1.0 } else { 1.0 - w1 };
                }
            }
            if weight == 0.0 {
                continue;
            }
            let first = if mask & 1 == 1 { rows1[0] } else { rows0[0] };
            // Element loop, not `copy_from_slice`: the slice length is
            // runtime (the rank), and the memcpy PLT call it lowers to
            // costs more than the handful of moves it replaces.
            for (a, &u) in acc.iter_mut().zip(first) {
                *a = u;
            }
            for j in 1..d {
                let row = if (mask >> j) & 1 == 1 {
                    rows1[j]
                } else {
                    rows0[j]
                };
                for (a, &u) in acc.iter_mut().zip(row) {
                    *a *= u;
                }
            }
            let v: f64 = acc.iter().sum();
            total += weight * v.max(1e-300).ln();
        }
        total.clamp(-690.0, 690.0).exp()
    }

    /// Single-query MLogQ² factor-gather kernel: masked stencils into
    /// `DCAP`-bounded stack arrays, then the corner expansion.
    #[inline]
    fn kernel<const DCAP: usize>(&self, x: &[f64], acc: &mut [f64]) -> f64 {
        let d = x.len();
        assert!(d <= DCAP, "kernel: order {d} exceeds scratch cap {DCAP}");
        let mut st = [(0.0f64, false); DCAP];
        let mut rows0: [&[f64]; DCAP] = [&[]; DCAP];
        let mut rows1: [&[f64]; DCAP] = [&[]; DCAP];
        for j in 0..d {
            let (a0, a1, w1, degen) = self.masked_stencil(j, x[j]);
            st[j] = (w1, degen);
            rows0[j] = self.packed.row(j, a0);
            rows1[j] = self.packed.row(j, a1);
        }
        self.corner_expand::<DCAP>(d, &st[..d], &rows0[..d], &rows1[..d], acc)
    }

    /// Tucker factor-gather fallback: grids beyond the dense cap (or above
    /// the stack-order bound) serve Tucker corner values through the same
    /// masked stencils and `interpolate_corners` expansion as the naive
    /// reference path, with factor rows read from the packed bake —
    /// [`cpr_tensor::eval_core_packed`] preserves the naive multiply
    /// order, so the bitwise contract with [`CprModel::predict_naive`]
    /// holds here by construction. This path allocates the stencil vector
    /// per query (paper-scale Tucker grids always take the
    /// allocation-free dense path; this fallback exists for completeness,
    /// not speed).
    #[cold]
    fn predict_tucker_fallback(&self, x: &[f64]) -> f64 {
        let core = self
            .tucker_core
            .as_ref()
            .expect("predict_tucker_fallback: CP plan");
        let stencils: Vec<(usize, usize, f64)> = (0..x.len())
            .map(|j| {
                let (i0, i1, w1, _) = self.masked_stencil(j, x[j]);
                (i0, i1, w1)
            })
            .collect();
        let log_pred = match self.loss {
            Loss::LogLeastSquares => {
                interpolate_corners(&stencils, |idx| {
                    cpr_tensor::eval_core_packed(core, &self.packed, idx)
                }) + self.log_offset
            }
            Loss::MLogQ2 => interpolate_corners(&stencils, |idx| {
                cpr_tensor::eval_core_packed(core, &self.packed, idx)
                    .max(1e-300)
                    .ln()
            }),
        };
        log_pred.clamp(-690.0, 690.0).exp()
    }

    /// Orders beyond [`PLAN_STACK_ORDER`]: same kernel over heap scratch.
    /// Cold by construction — the corner expansion is `2^d` regardless of
    /// path, so per-call allocation is noise here.
    #[cold]
    fn predict_dyn(&self, x: &[f64], acc: &mut [f64]) -> f64 {
        let d = x.len();
        let mut st = vec![(0.0f64, false); d];
        let mut rows0: Vec<&[f64]> = vec![&[]; d];
        let mut rows1: Vec<&[f64]> = vec![&[]; d];
        for j in 0..d {
            let (a0, a1, w1, degen) = self.masked_stencil(j, x[j]);
            st[j] = (w1, degen);
            rows0[j] = self.packed.row(j, a0);
            rows1[j] = self.packed.row(j, a1);
        }
        self.corner_expand::<0>(d, &st, &rows0, &rows1, acc)
    }

    /// Batched prediction onto a caller-provided buffer. Chunks fan out
    /// over the crate thread pool; within a chunk, grid quantization is
    /// **batched axis-major** through [`AxisTable::stencils_for_each`]
    /// (one axis's table stays register/L1-resident across the whole
    /// chunk, and the per-query `ln` chains overlap):
    ///
    /// * separable plans (CP, log-least-squares) fold each stencil's
    ///   blended factor row straight into a chunk-wide `m × R`
    ///   accumulator, mode by mode, then finish each query's rank sum —
    ///   no per-query corner loop;
    /// * dense-table plans record each stencil's weight and table offsets,
    ///   then run the corner expansion per query;
    /// * the remaining plans (no table) run their single-query kernel.
    ///
    /// Scratch is per chunk; individual queries allocate nothing. Outputs
    /// land at the input index, so results are independent of the worker
    /// count.
    pub fn predict_into<X: AsRef<[f64]> + Sync>(&self, xs: &[X], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "predict_into: output length mismatch");
        /// Queries per parallel work item: small enough to load-balance a
        /// 50k batch and keep the chunk scratch L1-resident, large enough
        /// to amortize pool dispatch and scratch setup.
        const CHUNK: usize = 256;
        let d = self.order();
        out.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| {
                let base = c * CHUNK;
                // Resolve and validate the chunk's query slices.
                let mut xr: Vec<&[f64]> = Vec::with_capacity(chunk.len());
                for k in 0..chunk.len() {
                    let x = xs[base + k].as_ref();
                    assert_eq!(
                        x.len(),
                        d,
                        "predict_into: configuration order mismatch at sample {}",
                        base + k
                    );
                    xr.push(x);
                }
                if let Some(dense) = &self.dense {
                    self.dense_chunk(chunk, &xr, dense);
                } else if self.tucker_core.is_some() {
                    for (o, x) in chunk.iter_mut().zip(&xr) {
                        *o = self.predict_tucker_fallback(x);
                    }
                } else if self.loss == Loss::LogLeastSquares {
                    self.separable_chunk(chunk, &xr);
                } else {
                    for (o, x) in chunk.iter_mut().zip(&xr) {
                        *o = self.with_rank_scratch(|acc| self.predict_factor(x, acc));
                    }
                }
            });
    }

    /// One chunk of the separable serve: quantization, masking and the
    /// blended-row fold fused axis by axis into an `m × R` accumulator
    /// (query-major rows), then each query's rank sum. Per query this is
    /// the operation sequence of [`Self::predict_separable`].
    fn separable_chunk(&self, chunk: &mut [f64], xr: &[&[f64]]) {
        let r = self.rank;
        let mut acc = vec![1.0f64; chunk.len() * r];
        for (j, table) in self.tables.iter().enumerate() {
            let observed = &self.row_observed[j];
            table.stencils_for_each(xr.iter().map(|x| x[j]), |k, (i0, i1, w1)| {
                let (a0, a1, w1, degen) = apply_mask(observed, i0, i1, w1);
                self.fold_blended_row(&mut acc[k * r..(k + 1) * r], j, a0, a1, w1, degen);
            });
        }
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = self.finish_separable(&acc[k * r..(k + 1) * r]);
        }
    }

    /// One chunk of the dense-table serve: batched masked quantization,
    /// axis-major — stencil weight plus the two table offsets per (mode,
    /// query) — then the corner expansion, order/loss-monomorphized with
    /// the dispatch hoisted out of the per-query loop.
    fn dense_chunk(&self, chunk: &mut [f64], xr: &[&[f64]], dense: &DenseEval) {
        let (d, m) = (self.order(), chunk.len());
        let mut st: Vec<(f64, u32, u32)> = vec![(0.0, 0, 0); m * d];
        for j in 0..d {
            let stj = &mut st[j * m..(j + 1) * m];
            let observed = &self.row_observed[j];
            let gs = dense.strides[j];
            self.tables[j].stencils_for_each(xr.iter().map(|x| x[j]), |k, (i0, i1, w1)| {
                let (a0, a1, w1, degen) = apply_mask(observed, i0, i1, w1);
                let o1 = if degen { DEGEN } else { a1 as u32 * gs };
                stj[k] = (w1, a0 as u32 * gs, o1);
            });
        }
        macro_rules! run {
            ($log:literal, $dcap:literal) => {
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = self.corner_expand_dense::<$dcap, $log>(d, m, k, &st, &dense.values);
                }
            };
        }
        macro_rules! by_order {
            ($log:literal) => {
                match d {
                    1 => run!($log, 1),
                    2 => run!($log, 2),
                    3 => run!($log, 3),
                    4 => run!($log, 4),
                    5 => run!($log, 5),
                    6 => run!($log, 6),
                    _ => run!($log, 0),
                }
            };
        }
        match self.loss {
            Loss::LogLeastSquares => by_order!(false),
            Loss::MLogQ2 => by_order!(true),
        }
    }

    /// Batched prediction, allocating the output vector (order matches the
    /// input order).
    pub fn predict_batch<X: AsRef<[f64]> + Sync>(&self, xs: &[X]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.predict_into(xs, &mut out);
        out
    }
}

/// Observed-row masking of one mode's stencil (same rules as the naive
/// `masked_stencils`): a mode collapses to a point stencil toward its
/// observed side when the other fiber was never observed, and edge
/// extrapolation weights are clamped to `[-1, 2]`. Returns
/// `(lo_row, hi_row, w1, degenerate)`.
#[inline(always)]
fn apply_mask(observed: &[bool], i0: usize, i1: usize, w1: f64) -> (usize, usize, f64, bool) {
    if i0 == i1 {
        (i0, i1, w1, true)
    } else {
        match (observed[i0], observed[i1]) {
            (true, false) => (i0, i0, 0.0, true),
            (false, true) => (i1, i1, 0.0, true),
            _ => (i0, i1, w1.clamp(-1.0, 2.0), false),
        }
    }
}

/// Eq. 5's corner sum for a CP model under log-least-squares, in separable
/// form. Each corner value `Σ_r Π_j U_j[c_j, r]` is linear in every factor
/// row, so `Σ_c w(c)·Σ_r Π_j U_j[c_j, r]` equals
/// `Σ_r Π_j ((1 − w_j)·U_j[lo_j, r] + w_j·U_j[hi_j, r])`, with `U_j[lo_j, r]`
/// alone for a point stencil (`lo_j == hi_j`): `d` blended rows and one
/// rank-length product instead of `2^d` corner evaluations. The blended
/// rows multiply into a ones-seeded accumulator in mode order, then the
/// rank sums left to right; the plan's separable kernels repeat exactly
/// this sequence.
fn separable_corner_sum(stencils: &[(usize, usize, f64)], cp: &CpDecomp) -> f64 {
    let mut acc = vec![1.0; cp.rank()];
    for (j, &(i0, i1, w1)) in stencils.iter().enumerate() {
        let lo = cp.factor(j).row(i0);
        if i0 == i1 {
            for (a, &u) in acc.iter_mut().zip(lo) {
                *a *= u;
            }
        } else {
            let hi = cp.factor(j).row(i1);
            for ((a, &u0), &u1) in acc.iter_mut().zip(lo).zip(hi) {
                *a *= (1.0 - w1) * u0 + w1 * u1;
            }
        }
    }
    acc.iter().sum()
}

/// A trained CPR performance model: a grid discretization plus a fitted
/// low-rank [`Decomposition`] (CP or Tucker), served through a compiled
/// [`PredictPlan`].
#[derive(Debug, Clone)]
pub struct CprModel {
    space: ParamSpace,
    grid: TensorGrid,
    decomp: Decomposition,
    optimizer: Optimizer,
    loss: Loss,
    trace: Trace,
    observed_cells: usize,
    samples: usize,
    /// Mean log time subtracted before completion (LogLeastSquares only).
    log_offset: f64,
    /// Per-mode flags: does row `i` of mode `j` have any observation?
    row_observed: Vec<Vec<bool>>,
    /// Compiled query path, rebaked on every factor/mask change. Held
    /// behind an `Arc` so serving layers (the model registry's hot-swap
    /// cells, long-lived reader threads) share the baked plan without
    /// cloning its tables; a rebake installs a fresh `Arc` and in-flight
    /// readers finish on the plan they loaded.
    plan: Arc<PredictPlan>,
}

impl CprModel {
    /// Validation shared by the part-wise constructors: the cell spec must
    /// match the space and the decomposition must match the induced grid.
    fn validated_grid(
        space: &ParamSpace,
        cells: &[usize],
        decomp: &Decomposition,
    ) -> Result<TensorGrid> {
        if cells.len() != space.dim() {
            return Err(CprError::InvalidConfig("cells length != space dim".into()));
        }
        let grid = space.grid_with_cells(cells);
        if decomp.dims() != grid.dims() {
            return Err(CprError::InvalidConfig(format!(
                "factor dims {:?} do not match grid dims {:?}",
                decomp.dims(),
                grid.dims()
            )));
        }
        Ok(grid)
    }

    /// Tag-triple consistency shared by every part-wise constructor: the
    /// optimizer's model class must match the decomposition variant and
    /// its loss family must match `loss`, the same rules the serialization
    /// reader enforces — so every constructible model round-trips.
    fn validate_tags(decomp: &Decomposition, optimizer: Optimizer, loss: Loss) -> Result<()> {
        if optimizer.fits_tucker() != decomp.as_tucker().is_some() {
            return Err(CprError::InvalidConfig(format!(
                "optimizer {} does not fit a {} decomposition",
                optimizer.name(),
                if decomp.as_tucker().is_some() {
                    "Tucker"
                } else {
                    "CP"
                }
            )));
        }
        if optimizer.requires_positive() != (loss == Loss::MLogQ2) {
            return Err(CprError::InvalidConfig(format!(
                "optimizer {} does not optimize the {loss:?} loss",
                optimizer.name()
            )));
        }
        Ok(())
    }

    /// The optimizer a part-wise-constructed model is tagged with when the
    /// caller didn't say: the default fitter of that (decomposition, loss)
    /// pair.
    fn implied_optimizer(decomp: &Decomposition, loss: Loss) -> Optimizer {
        match (decomp, loss) {
            (Decomposition::Tucker(_), _) => Optimizer::TuckerAls,
            (Decomposition::Cp(_), Loss::MLogQ2) => Optimizer::Amn,
            (Decomposition::Cp(_), Loss::LogLeastSquares) => Optimizer::Als,
        }
    }

    /// Assemble a model from validated parts with the given masks, baking
    /// the plan exactly once.
    fn assemble(
        space: ParamSpace,
        grid: TensorGrid,
        decomp: Decomposition,
        optimizer: Optimizer,
        loss: Loss,
        log_offset: f64,
        row_observed: Vec<Vec<bool>>,
    ) -> CprModel {
        let plan = Arc::new(PredictPlan::bake(
            &grid,
            &decomp,
            loss,
            log_offset,
            &row_observed,
        ));
        CprModel {
            space,
            grid,
            decomp,
            optimizer,
            loss,
            trace: Trace::default(),
            observed_cells: 0,
            samples: 0,
            log_offset,
            row_observed,
            plan,
        }
    }

    /// Reassemble a model from its serialized parts (deserialization path).
    /// Validates that the decomposition matches the grid the specs induce.
    /// Accepts either decomposition variant (or a bare [`CpDecomp`] /
    /// [`TuckerDecomp`], which convert); the optimizer tag is implied from
    /// the parts — use [`Self::from_parts_tagged`] to preserve an explicit
    /// one. A Tucker decomposition pairs only with
    /// [`Loss::LogLeastSquares`] (no optimizer produces a positive Tucker
    /// model, and the serialization format rejects the pair).
    pub fn from_parts(
        space: ParamSpace,
        cells: &[usize],
        decomp: impl Into<Decomposition>,
        loss: Loss,
        log_offset: f64,
    ) -> Result<CprModel> {
        let decomp = decomp.into();
        let optimizer = Self::implied_optimizer(&decomp, loss);
        Self::from_parts_tagged(space, cells, decomp, optimizer, loss, log_offset)
    }

    /// [`Self::from_parts`] with an explicit optimizer tag (serialization
    /// round-trips preserve the tag through this constructor).
    ///
    /// The tag triple must be self-consistent — the optimizer's model
    /// class must match the decomposition variant, and its loss family
    /// must match `loss` (AMN ⇔ MLogQ²) — so that every constructible
    /// model round-trips through [`crate::serialize`], whose reader
    /// enforces the same rules on untrusted bytes.
    pub fn from_parts_tagged(
        space: ParamSpace,
        cells: &[usize],
        decomp: impl Into<Decomposition>,
        optimizer: Optimizer,
        loss: Loss,
        log_offset: f64,
    ) -> Result<CprModel> {
        let decomp = decomp.into();
        Self::validate_tags(&decomp, optimizer, loss)?;
        let grid = Self::validated_grid(&space, cells, &decomp)?;
        let row_observed: Vec<Vec<bool>> = grid.dims().iter().map(|&d| vec![true; d]).collect();
        Ok(Self::assemble(
            space,
            grid,
            decomp,
            optimizer,
            loss,
            log_offset,
            row_observed,
        ))
    }

    /// [`Self::from_parts`] with observed-row masks taken from an
    /// observation tensor, baking the plan exactly once (the
    /// `from_parts` + [`Self::set_row_observed_from`] sequence would bake
    /// twice and discard the first). Used by the streaming updater.
    pub(crate) fn from_parts_masked(
        space: ParamSpace,
        cells: &[usize],
        decomp: impl Into<Decomposition>,
        loss: Loss,
        log_offset: f64,
        obs: &SparseTensor,
    ) -> Result<CprModel> {
        let decomp = decomp.into();
        let optimizer = Self::implied_optimizer(&decomp, loss);
        Self::validate_tags(&decomp, optimizer, loss)?;
        let grid = Self::validated_grid(&space, cells, &decomp)?;
        let row_observed: Vec<Vec<bool>> = (0..grid.order())
            .map(|m| {
                obs.mode_index(m)
                    .iter()
                    .map(|ids| !ids.is_empty())
                    .collect()
            })
            .collect();
        Ok(Self::assemble(
            space,
            grid,
            decomp,
            optimizer,
            loss,
            log_offset,
            row_observed,
        ))
    }

    /// Predict the execution time of a configuration (Eq. 5), served
    /// through the compiled [`PredictPlan`].
    ///
    /// §5.2 defines the model as `m(x) = e^{m̂(x)}` with `m̂` trained on log
    /// times, so interpolation runs in log space and the result is
    /// exponentiated (exact on power laws; interpolating `e^{t̂}` linearly
    /// instead would over-predict by `cosh(Δ/2)` across cells spanning `Δ`
    /// decades). The MLogQ² model stores positive linear-space entries;
    /// its entries are logged for interpolation for the same reason.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.grid.order(),
            "predict: configuration order mismatch"
        );
        self.plan.predict(x)
    }

    /// The naive reference predict path: per-call grid stencils and
    /// factor-matrix evaluation, no baked state — the semantic
    /// specification of [`Self::predict`]; the equivalence proptests pin
    /// `predict(x)` bitwise against this function.
    ///
    /// A CP log-least-squares model evaluates Eq. 5 in separable form
    /// (see `separable_corner_sum`); every other model sums `2^d` weighted
    /// stencil corners (`interpolate_corners`). The two forms of the
    /// log-least-squares sum are equal in exact arithmetic and differ in
    /// the last ulps in floating point.
    pub fn predict_naive(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.grid.order(),
            "predict: configuration order mismatch"
        );
        let stencils = self.masked_stencils(x);
        // The decomposition variant is matched *outside* the corner
        // closure: a closure that carries both the CP and the Tucker eval
        // bodies is too big to inline into `interpolate_corners`, which
        // costs ~2x on this reference path.
        let log_pred = match (&self.decomp, self.loss) {
            (Decomposition::Cp(cp), Loss::LogLeastSquares) => {
                separable_corner_sum(&stencils, cp) + self.log_offset
            }
            (Decomposition::Cp(cp), Loss::MLogQ2) => {
                interpolate_corners(&stencils, |idx| cp.eval(idx).max(1e-300).ln())
            }
            (Decomposition::Tucker(t), Loss::LogLeastSquares) => {
                interpolate_corners(&stencils, |idx| t.eval(idx)) + self.log_offset
            }
            (Decomposition::Tucker(t), Loss::MLogQ2) => {
                interpolate_corners(&stencils, |idx| t.eval(idx).max(1e-300).ln())
            }
        };
        // Clamp: |log| beyond ~690 would overflow f64 anyway, and edge-cell
        // linear extrapolation must not produce absurd magnitudes.
        log_pred.clamp(-690.0, 690.0).exp()
    }

    /// Eq. 5 stencils with two robustness adjustments over the raw grid
    /// lookup: a mode degrades to a point stencil when its neighbouring
    /// fiber was never observed (the completion carries no information
    /// there), and edge-extrapolation weights are clamped to [-1, 2] so a
    /// query at the domain boundary cannot amplify a single cell estimate
    /// unboundedly.
    fn masked_stencils(&self, x: &[f64]) -> Vec<(usize, usize, f64)> {
        let mut stencils = self.grid.stencils(x);
        for (j, st) in stencils.iter_mut().enumerate() {
            let (i0, i1, w1) = *st;
            if i0 == i1 {
                continue;
            }
            let o0 = self.row_observed[j][i0];
            let o1 = self.row_observed[j][i1];
            *st = match (o0, o1) {
                (true, false) => (i0, i0, 0.0),
                (false, true) => (i1, i1, 0.0),
                _ => (i0, i1, w1.clamp(-1.0, 2.0)),
            };
        }
        stencils
    }

    /// Predict a batch of configurations through the plan, in parallel
    /// across chunks. Accepts any slice of feature-vector-shaped values
    /// (`&[Vec<f64>]`, `&[Sample]`, …); output order matches input order.
    pub fn predict_batch<X: AsRef<[f64]> + Sync>(&self, xs: &[X]) -> Vec<f64> {
        self.plan.predict_batch(xs)
    }

    /// Evaluate against a labeled dataset: plan predictions into a single
    /// buffer ([`PredictPlan::predict_into`]), metrics accumulated in one
    /// sequential pass (bitwise equal to `Metrics::compute` on the same
    /// predictions).
    pub fn evaluate(&self, data: &Dataset) -> Metrics {
        let mut preds = vec![0.0; data.len()];
        self.plan.predict_into(data.samples(), &mut preds);
        let mut accum = MetricsAccum::new();
        for (pred, (_, y)) in preds.iter().zip(data.iter()) {
            accum.push(*pred, y);
        }
        accum.finish()
    }

    /// The completed-tensor estimate `t̂_i` at a tensor multi-index, in time
    /// units (exponentiated when the model trains in log space).
    pub fn tensor_estimate(&self, idx: &[usize]) -> f64 {
        match self.loss {
            Loss::LogLeastSquares => (self.decomp.eval(idx) + self.log_offset).exp(),
            Loss::MLogQ2 => self.decomp.eval(idx),
        }
    }

    /// Underlying decomposition (CP or Tucker).
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// The optimizer that fitted (or is tagged on) this model.
    pub fn optimizer(&self) -> Optimizer {
        self.optimizer
    }

    /// The parameter space the model was trained over.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Underlying CP decomposition.
    ///
    /// # Panics
    /// When the model holds a Tucker decomposition (fit with
    /// [`Optimizer::TuckerAls`]); use [`Self::decomposition`] for
    /// variant-agnostic access.
    pub fn cp(&self) -> &CpDecomp {
        self.decomp
            .as_cp()
            .expect("cp(): model holds a Tucker decomposition; use decomposition()")
    }

    /// The compiled query plan currently baked for this model.
    pub fn plan(&self) -> &PredictPlan {
        &self.plan
    }

    /// The baked plan as a shared handle: an `Arc` clone of the plan the
    /// model currently serves through — no tables are copied. Serving
    /// layers (the `cpr_registry` hot-swap cells) hold these so a rebake
    /// can replace the live plan while in-flight readers finish on the
    /// handle they already loaded.
    pub fn shared_plan(&self) -> Arc<PredictPlan> {
        Arc::clone(&self.plan)
    }

    /// Bake a fresh [`PredictPlan`] from the current model state — the same
    /// bake the constructors run. Exposed for benchmarking the bake cost
    /// and for callers that keep a plan alive independently of the model.
    pub fn bake_plan(&self) -> PredictPlan {
        PredictPlan::bake(
            &self.grid,
            &self.decomp,
            self.loss,
            self.log_offset,
            &self.row_observed,
        )
    }

    /// Grid discretization used at training time.
    pub fn grid(&self) -> &TensorGrid {
        &self.grid
    }

    /// Mean log time subtracted before completion (0 for MLogQ² models).
    pub fn log_offset(&self) -> f64 {
        self.log_offset
    }

    /// Refresh the observed-row masks from an observation tensor (used by
    /// the streaming updater after warm-started refits). Invalidates and
    /// rebakes the [`PredictPlan`] — masks are part of the baked state.
    pub fn set_row_observed_from(&mut self, obs: &SparseTensor) {
        self.row_observed = (0..self.grid.order())
            .map(|m| {
                obs.mode_index(m)
                    .iter()
                    .map(|ids| !ids.is_empty())
                    .collect()
            })
            .collect();
        self.plan = Arc::new(self.bake_plan());
    }

    /// Training loss selection.
    pub fn loss(&self) -> Loss {
        self.loss
    }

    /// Optimizer trace (objective per sweep).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of grid cells with at least one training observation.
    pub fn observed_cells(&self) -> usize {
        self.observed_cells
    }

    /// Observed fill fraction of the tensor `|Ω| / Π I_j`.
    pub fn density(&self) -> f64 {
        self.observed_cells as f64 / self.grid.cell_count() as f64
    }

    /// Training-set size.
    pub fn training_samples(&self) -> usize {
        self.samples
    }

    /// Serialized model size in bytes: decomposition parameters (factor
    /// matrices, plus the core for Tucker) + grid metadata — the quantity
    /// Figure 7 plots.
    pub fn size_bytes(&self) -> usize {
        // Per axis: boundaries + midpoints (f64 each) + small header.
        let grid_bytes: usize = (0..self.grid.order())
            .map(|m| {
                let a = self.grid.axis(m);
                (a.boundaries().len() + a.midpoints().len()) * 8 + 16
            })
            .sum();
        self.decomp.size_bytes() + grid_bytes
    }
}

impl crate::perf_model::PerfModel for CprModel {
    fn name(&self) -> &str {
        match self.decomp {
            Decomposition::Cp(_) => "CPR",
            Decomposition::Tucker(_) => "CPR-Tucker",
        }
    }

    fn space(&self) -> &ParamSpace {
        CprModel::space(self)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        CprModel::predict(self, x)
    }

    fn predict_into(&self, xs: &[&[f64]], out: &mut [f64]) {
        self.plan.predict_into(xs, out);
    }

    fn evaluate(&self, data: &Dataset) -> Metrics {
        CprModel::evaluate(self, data)
    }

    fn size_bytes(&self) -> usize {
        CprModel::size_bytes(self)
    }

    fn to_bytes(&self) -> Result<Box<[u8]>> {
        Ok(crate::serialize::to_bytes(self))
    }
}

impl crate::perf_model::PerfModelBuilder for CprBuilder {
    fn name(&self) -> &str {
        match self.spec.resolve() {
            Ok((Optimizer::TuckerAls, _)) => "CPR-Tucker",
            _ => "CPR",
        }
    }

    fn fit_boxed(&self, data: &Dataset) -> Result<Box<dyn crate::perf_model::PerfModel>> {
        Ok(Box::new(self.fit(data)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_grid::ParamSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Separable two-parameter "execution time": t = 1e-3 * m^1.2 * n^0.8.
    fn separable_dataset(n_samples: usize, seed: u64) -> (ParamSpace, Dataset) {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 4096.0),
            ParamSpec::log("n", 32.0, 4096.0),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n_samples {
            let m = 32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>());
            let n = 32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>());
            let t = 1e-3 * m.powf(1.2) * n.powf(0.8);
            data.push(vec![m, n], t);
        }
        (space, data)
    }

    #[test]
    fn fits_separable_power_law_interpolation() {
        let (space, train) = separable_dataset(2000, 1);
        let (_, test) = separable_dataset(200, 2);
        // 16 cells/dim keeps the Eq. 5 convexity error (interpolating
        // exp(t̂) linearly, O(h²/8) per cell) within a few percent.
        let model = CprBuilder::new(space)
            .cells_per_dim(16)
            .rank(2)
            .regularization(1e-7)
            .fit(&train)
            .unwrap();
        let m = model.evaluate(&test);
        assert!(
            m.mlogq < 0.05,
            "MLogQ {} too high for separable data",
            m.mlogq
        );
    }

    #[test]
    fn mlogq2_loss_also_fits_and_is_positive() {
        let (space, train) = separable_dataset(1200, 3);
        let (_, test) = separable_dataset(150, 4);
        let model = CprBuilder::new(space)
            .cells_per_dim(10)
            .rank(2)
            .regularization(1e-7)
            .loss(Loss::MLogQ2)
            .fit(&train)
            .unwrap();
        assert!(model.cp().is_strictly_positive());
        let m = model.evaluate(&test);
        assert!(m.mlogq < 0.12, "MLogQ {}", m.mlogq);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (space, mut data) = separable_dataset(50, 5);
        assert!(matches!(
            CprBuilder::new(space.clone()).fit(&Dataset::new()),
            Err(CprError::EmptyDataset)
        ));
        assert!(matches!(
            CprBuilder::new(space.clone()).rank(0).fit(&data),
            Err(CprError::InvalidConfig(_))
        ));
        assert!(matches!(
            CprBuilder::new(space.clone()).cells(vec![4]).fit(&data),
            Err(CprError::InvalidConfig(_))
        ));
        data.push(vec![100.0, 100.0], -1.0);
        assert!(matches!(
            CprBuilder::new(space).fit(&data),
            Err(CprError::NonPositiveTime { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let (space, _) = separable_dataset(1, 6);
        let mut data = Dataset::new();
        data.push(vec![100.0], 1.0);
        assert!(matches!(
            CprBuilder::new(space).fit(&data),
            Err(CprError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn density_and_observed_cells() {
        let (space, train) = separable_dataset(500, 7);
        let model = CprBuilder::new(space)
            .cells_per_dim(4)
            .rank(1)
            .fit(&train)
            .unwrap();
        assert!(model.observed_cells() <= 16);
        assert!(model.density() > 0.5, "4x4 grid should be mostly observed");
        assert_eq!(model.training_samples(), 500);
    }

    #[test]
    fn size_grows_linearly_with_rank() {
        let (space, train) = separable_dataset(500, 8);
        let m1 = CprBuilder::new(space.clone())
            .cells_per_dim(8)
            .rank(1)
            .fit(&train)
            .unwrap();
        let m4 = CprBuilder::new(space)
            .cells_per_dim(8)
            .rank(4)
            .fit(&train)
            .unwrap();
        // Factor storage scales exactly 4x with rank; the constant grid
        // metadata rides on top.
        assert_eq!(m4.cp().size_bytes(), 4 * m1.cp().size_bytes());
        let overhead = m1.size_bytes() - m1.cp().size_bytes();
        assert_eq!(m4.size_bytes() - m4.cp().size_bytes(), overhead);
    }

    #[test]
    fn higher_rank_does_not_hurt_much_on_low_rank_data() {
        let (space, train) = separable_dataset(2000, 9);
        let (_, test) = separable_dataset(200, 10);
        let e = |rank| {
            CprBuilder::new(space.clone())
                .cells_per_dim(8)
                .rank(rank)
                .regularization(1e-6)
                .fit(&train)
                .unwrap()
                .evaluate(&test)
                .mlogq
        };
        let (e1, e8) = (e(1), e(8));
        assert!(e8 < e1 * 3.0 + 0.05, "rank-8 {e8} vs rank-1 {e1}");
    }

    #[test]
    fn predictions_positive_even_at_domain_edges() {
        let (space, train) = separable_dataset(800, 11);
        let model = CprBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .fit(&train)
            .unwrap();
        for probe in [[32.0, 32.0], [4096.0, 4096.0], [32.0, 4096.0]] {
            assert!(model.predict(&probe) > 0.0);
        }
    }

    #[test]
    fn categorical_parameter_handled() {
        // Time depends on a categorical "algorithm" with distinct constants.
        let space = ParamSpace::new(vec![
            ParamSpec::log("n", 16.0, 1024.0),
            ParamSpec::categorical("alg", 3),
        ]);
        let mut rng = StdRng::seed_from_u64(12);
        let mut data = Dataset::new();
        for _ in 0..1500 {
            let n = 16.0 * 64.0_f64.powf(rng.gen::<f64>());
            let alg = rng.gen_range(0..3usize);
            let scale = [1.0, 3.5, 0.4][alg];
            data.push(vec![n, alg as f64], 1e-4 * scale * n.powf(1.5));
        }
        let model = CprBuilder::new(space)
            .cells(vec![8, 3])
            .rank(2)
            .regularization(1e-7)
            .fit(&data)
            .unwrap();
        let p0 = model.predict(&[256.0, 0.0]);
        let p1 = model.predict(&[256.0, 1.0]);
        let p2 = model.predict(&[256.0, 2.0]);
        assert!((p1 / p0 - 3.5).abs() < 0.7, "ratio {}", p1 / p0);
        assert!((p2 / p0 - 0.4).abs() < 0.2, "ratio {}", p2 / p0);
    }

    #[test]
    fn plan_matches_naive_on_trained_models() {
        let (space, train) = separable_dataset(1200, 31);
        for loss in [Loss::LogLeastSquares, Loss::MLogQ2] {
            let model = CprBuilder::new(space.clone())
                .cells_per_dim(9)
                .rank(3)
                .regularization(1e-7)
                .loss(loss)
                .fit(&train)
                .unwrap();
            // Interior, edge, and out-of-domain probes all go through
            // different stencil/masking branches.
            for probe in [
                [100.0, 100.0],
                [32.0, 4096.0],
                [5000.0, 20.0],
                [1.0, 1e7],
                [33.7, 33.7],
            ] {
                assert_eq!(
                    model.predict(&probe).to_bits(),
                    model.predict_naive(&probe).to_bits(),
                    "loss {loss:?} probe {probe:?}"
                );
            }
        }
    }

    /// Batched plan output, query by query against the naive spec.
    fn assert_batch_matches_naive(model: &CprModel, queries: &Dataset) {
        let fast = model.predict_batch(queries.samples());
        assert_eq!(fast.len(), queries.len());
        for (a, x) in fast.iter().zip(queries.samples()) {
            assert_eq!(a.to_bits(), model.predict_naive(x.as_ref()).to_bits());
        }
    }

    #[test]
    fn predict_batch_matches_naive_batch() {
        let (space, train) = separable_dataset(800, 32);
        let model = CprBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .fit(&train)
            .unwrap();
        let (_, queries) = separable_dataset(300, 33);
        assert_batch_matches_naive(&model, &queries);
    }

    #[test]
    fn rank_zero_cp_serves_the_offset_on_every_path() {
        let (space, _) = separable_dataset(1, 48);
        let cp = CpDecomp::from_factors(vec![
            cpr_tensor::Matrix::zeros(4, 0),
            cpr_tensor::Matrix::zeros(4, 0),
        ]);
        let model = CprModel::from_parts(space, &[4, 4], cp, Loss::LogLeastSquares, 0.5).unwrap();
        let xs = [[100.0, 100.0], [5000.0, 20.0]];
        let batch = model.predict_batch(&xs);
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(*b, 0.5f64.exp());
            assert_eq!(b.to_bits(), model.predict(x).to_bits());
            assert_eq!(b.to_bits(), model.predict_naive(x).to_bits());
        }
    }

    #[test]
    fn predict_into_writes_in_input_order() {
        let (space, train) = separable_dataset(600, 34);
        let model = CprBuilder::new(space)
            .cells_per_dim(6)
            .rank(2)
            .fit(&train)
            .unwrap();
        let (_, queries) = separable_dataset(1500, 35);
        let mut out = vec![f64::NAN; queries.len()];
        model.plan().predict_into(queries.samples(), &mut out);
        for (x, o) in queries.samples().iter().zip(&out) {
            assert_eq!(o.to_bits(), model.predict_naive(x.as_ref()).to_bits());
        }
    }

    #[test]
    fn plan_metadata_accessors() {
        let (space, train) = separable_dataset(400, 36);
        let model = CprBuilder::new(space)
            .cells_per_dim(7)
            .rank(3)
            .fit(&train)
            .unwrap();
        let plan = model.plan();
        assert_eq!(plan.order(), 2);
        assert_eq!(plan.rank(), 3);
        assert!(plan.size_bytes() >= model.cp().size_bytes());
        assert_eq!(plan.factor_row(0, 2), model.cp().factor(0).row(2));
    }

    #[test]
    fn one_builder_fits_with_every_optimizer() {
        let (space, train) = separable_dataset(1500, 40);
        let (_, test) = separable_dataset(200, 41);
        for opt in Optimizer::ALL {
            let model = CprBuilder::new(space.clone())
                .cells_per_dim(8)
                .rank(2)
                .regularization(1e-7)
                .optimizer(opt)
                .fit(&train)
                .unwrap_or_else(|e| panic!("{}: {e}", opt.name()));
            assert_eq!(model.optimizer(), opt);
            let m = model.evaluate(&test);
            // Separable power-law data is easy; every optimizer should land
            // well under the constant-predictor error (~0.5 here).
            assert!(
                m.mlogq < 0.3,
                "{}: MLogQ {} too high on separable data",
                opt.name(),
                m.mlogq
            );
        }
    }

    #[test]
    fn tucker_fit_yields_servable_model() {
        let (space, train) = separable_dataset(1500, 42);
        let model = CprBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .tucker_ranks(vec![2, 3])
            .regularization(1e-7)
            .optimizer(Optimizer::TuckerAls)
            .fit(&train)
            .unwrap();
        assert!(model.decomposition().as_tucker().is_some());
        assert_eq!(model.decomposition().as_tucker().unwrap().ranks(), &[2, 3]);
        // Served through the same compiled plan machinery, bitwise equal to
        // the naive reference path on every masking branch.
        for probe in [
            [100.0, 100.0],
            [32.0, 4096.0],
            [5000.0, 20.0],
            [1.0, 1e7],
            [33.7, 33.7],
        ] {
            assert_eq!(
                model.predict(&probe).to_bits(),
                model.predict_naive(&probe).to_bits(),
                "probe {probe:?}"
            );
        }
        let (_, queries) = separable_dataset(700, 43);
        assert_batch_matches_naive(&model, &queries);
    }

    #[test]
    fn tucker_fallback_path_matches_naive_beyond_dense_cap() {
        // 300x300 cells = 90k > DENSE_EVAL_MAX: the plan serves Tucker
        // through the packed-eval fallback instead of the dense table.
        let (space, train) = separable_dataset(3000, 44);
        let model = CprBuilder::new(space)
            .cells_per_dim(300)
            .rank(2)
            .optimizer(Optimizer::TuckerAls)
            .max_sweeps(3)
            .fit(&train)
            .unwrap();
        let (_, queries) = separable_dataset(300, 45);
        assert_batch_matches_naive(&model, &queries);
    }

    #[test]
    fn incompatible_optimizer_loss_pairs_rejected() {
        let (space, data) = separable_dataset(100, 46);
        // AMN only optimizes MLogQ².
        assert!(matches!(
            CprBuilder::new(space.clone())
                .optimizer(Optimizer::Amn)
                .loss(Loss::LogLeastSquares)
                .fit(&data),
            Err(CprError::InvalidConfig(_))
        ));
        // The least-squares optimizers never optimize MLogQ².
        for opt in [Optimizer::Als, Optimizer::TuckerAls] {
            assert!(matches!(
                CprBuilder::new(space.clone())
                    .optimizer(opt)
                    .loss(Loss::MLogQ2)
                    .fit(&data),
                Err(CprError::InvalidConfig(_))
            ));
        }
        // Bad tucker_ranks length.
        assert!(matches!(
            CprBuilder::new(space.clone())
                .optimizer(Optimizer::TuckerAls)
                .tucker_ranks(vec![2])
                .fit(&data),
            Err(CprError::InvalidConfig(_))
        ));
        // Loss-only selection keeps the historical pairing.
        let amn = CprBuilder::new(space.clone())
            .cells_per_dim(4)
            .rank(1)
            .loss(Loss::MLogQ2)
            .fit(&data)
            .unwrap();
        assert_eq!(amn.optimizer(), Optimizer::Amn);
        let als = CprBuilder::new(space)
            .cells_per_dim(4)
            .rank(1)
            .fit(&data)
            .unwrap();
        assert_eq!(als.optimizer(), Optimizer::Als);
    }

    #[test]
    fn fit_spec_roundtrips_through_builder() {
        let (space, data) = separable_dataset(200, 47);
        let spec = FitSpec {
            cells: Cells::PerDim(6),
            rank: 3,
            lambda: 1e-6,
            max_sweeps: 20,
            optimizer: Some(Optimizer::Amn),
            ..FitSpec::default()
        };
        let builder = CprBuilder::new(space).with_spec(spec.clone());
        assert_eq!(builder.spec().rank, 3);
        assert_eq!(builder.spec().optimizer, Some(Optimizer::Amn));
        let model = builder.fit(&data).unwrap();
        assert_eq!(model.optimizer(), Optimizer::Amn);
        assert_eq!(model.loss(), Loss::MLogQ2);
        assert_eq!(spec.stop_rule().max_sweeps, 20);
    }

    #[test]
    fn trace_is_recorded() {
        let (space, train) = separable_dataset(300, 13);
        let model = CprBuilder::new(space)
            .cells_per_dim(4)
            .rank(2)
            .fit(&train)
            .unwrap();
        assert!(model.trace().sweeps() >= 1);
        assert!(model.trace().final_objective().is_finite());
    }
}
