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
        self.fit_binned(data).map(|(model, ..)| model)
    }

    /// [`Self::fit`], also returning the fit's binned training set: the
    /// observation tensor in ascending cell order with its values as the
    /// optimizer completed them, and each entry's raw-time sum and sample
    /// count. The streaming trainer keeps these as its per-cell state.
    pub(crate) fn fit_binned(
        &self,
        data: &Dataset,
    ) -> Result<(CprModel, SparseTensor, Vec<f64>, Vec<usize>)> {
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
        let (mut obs, sums, counts) = bin_observations(&grid, data, loss)?;
        let row_observed = observed_rows(&obs);

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
        let model = CprModel {
            space: self.space.clone(),
            grid,
            decomp,
            optimizer,
            loss,
            trace,
            observed_cells: obs.nnz(),
            samples: data.len(),
            log_offset,
            row_observed,
            plan,
        };
        Ok((model, obs, sums, counts))
    }
}

/// Per-mode masks of the rows with at least one observation, marked in one
/// pass over the entries: stencils never interpolate toward fibers the
/// optimizer saw nothing of.
fn observed_rows(obs: &SparseTensor) -> Vec<Vec<bool>> {
    let mut rows: Vec<Vec<bool>> = obs.dims().iter().map(|&n| vec![false; n]).collect();
    for (_, idx, _) in obs.iter() {
        for (mask, &i) in rows.iter_mut().zip(idx) {
            mask[i as usize] = true;
        }
    }
    rows
}

/// Bin observations into grid cells; tensor entries are per-cell means, in
/// ascending cell order. Returns the sparse observation tensor and each
/// entry's raw-time sum and sample count.
fn bin_observations(
    grid: &TensorGrid,
    data: &Dataset,
    loss: Loss,
) -> Result<(SparseTensor, Vec<f64>, Vec<usize>)> {
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
    let mut sums = Vec::with_capacity(cells.len());
    let mut counts = Vec::with_capacity(cells.len());
    let mut obs = SparseTensor::new(&grid.dims());
    obs.extend_from(cells.into_iter().map(|(idx, (sum, count))| {
        sums.push(sum);
        counts.push(count);
        let mean = sum / count as f64;
        let value = match loss {
            Loss::LogLeastSquares => mean.ln(),
            Loss::MLogQ2 => mean,
        };
        (idx, value)
    }));
    Ok((obs, sums, counts))
}

fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / values.len().max(1) as f64).exp()
}

/// Tensor orders whose corner-path stencils live in stack scratch. Real
/// models are order ≤ 7 (paper Table 2); higher orders allocate them per
/// query, still bitwise-correct.
const PLAN_STACK_ORDER: usize = 16;
/// Stack bound of the dynamic-rank kernels' rank scratch; mirrors
/// `cpr_tensor`'s stack-accumulator rank bound.
const PLAN_STACK_RANK: usize = 64;
/// The one rank the separable kernels are compiled for (`[f64; R]`
/// accumulators and rows): the rank the benchmark apps fit at. Every other
/// rank runs the dynamic-rank kernels, with the same steps.
const FIXED_RANK: usize = 4;
/// Queries per parallel work item of [`PredictPlan::predict_into`]: small
/// enough to load-balance a 50k batch and keep the chunk scratch
/// L1-resident, large enough to amortize pool dispatch.
const PLAN_CHUNK: usize = 256;
/// Largest grid (in cells) pre-evaluated into the dense corner-value table
/// at bake time. 64k cells = 512 KiB of doubles — covers every paper-scale
/// grid (8⁵ = 32k) while bounding both bake time (`O(cells · d · R)`) and
/// the plan's memory footprint. Larger grids evaluate corner values from
/// the packed factors instead.
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
///   precomputed, direct index lookup on linear/log axes, binary search
///   on nudged integer axes, and on integer axes of at most 256 values a
///   memo of every integer's stencil, so an integral query (the paper
///   rounds integer parameters) quantizes there with one load;
/// * a [`PackedFactors`] copy of the factors — every per-mode read is a
///   contiguous rank-length row from one allocation;
/// * the observed-row masks, so Eq. 5 stencil masking needs no grid access;
/// * for CP log-least-squares plans, the masked blended factor row of
///   every memo slot: the row the separable fold would blend for that
///   integer, so a memo hit is one rank-length row load (`L · R · 8` bytes
///   for `L` memo slots at rank `R`);
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
///   the rank: `O(d·R)` per query instead of `O(2^d·d·R)`. A memo hit
///   multiplies in the slot's baked row, bitwise the blend it stands for.
///   At rank 4 the kernels run at a compile-time rank (`[f64; 4]`
///   accumulators, rows viewed as `[f64; 4]`), at any other rank at
///   run-time rank, with the same steps, so the shapes are bitwise
///   interchangeable. These plans carry no dense table.
/// * **MLogQ² CP** (which interpolates `ln` of the corner values) and
///   **Tucker** do not factorize: they run the reference path's own
///   corner sum, [`interpolate_corners`], over the masked stencils. Each
///   corner value is one load from the dense table when the plan carries
///   one, and is evaluated from the packed factors otherwise.
///
/// [`Self::predict`] allocates nothing at rank 4 (stack accumulator), at
/// other ranks up to 64 (stack rank scratch) and in the corner sum up to
/// order 16 (stack stencils); beyond those bounds the scratch moves to the
/// heap, and Tucker corner values evaluated from the factors allocate
/// inside the core iteration (`DenseTensor::iter_indexed`).
/// [`Self::predict_into`] fans a batch out over the crate thread pool in
/// fixed chunks onto a caller-provided buffer.
///
/// Determinism contract: `plan.predict(x)` and every [`Self::predict_into`]
/// output are **bitwise identical** to the reference path
/// [`CprModel::predict_naive`] for every non-NaN query, at any thread
/// count, and batch outputs are written in input order. The equivalence
/// is pinned by proptests over random models of orders 1–9 and ranks 1–9,
/// every axis kind, both losses and random masks, by order-17 CP and
/// Tucker cases, and by a unit test that runs every separable kernel shape
/// against the others.
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
    /// rank scratch of the separable kernels).
    rank: usize,
    /// The Tucker core behind the bake, when the decomposition is Tucker
    /// (the factor rows already live in `packed`): corner values without a
    /// table come from [`cpr_tensor::eval_core_packed`].
    tucker_core: Option<cpr_tensor::DenseTensor>,
    /// Pre-evaluated corner values over the whole grid, for the plans that
    /// expand corners (MLogQ² CP, Tucker) when the grid fits.
    dense: Option<DenseEval>,
    /// Separable plans only: per mode, the masked blended factor row of
    /// every slot of that mode's integer stencil memo, slot-major, one
    /// rank-length row a slot (empty for a mode without a memo; see
    /// `bake_memo_rows`). The other plans hold none.
    memo_rows: Vec<Vec<f64>>,
}

/// The partial-evaluation half of the bake for the plans that expand
/// corners: corner values depend only on grid indices, never on the query,
/// so for grids up to [`DENSE_EVAL_MAX`] cells the plan evaluates the
/// completed tensor at *every* grid point once. Serving then replaces each
/// corner's evaluation from the factors with one table load at the corner's
/// row-major offset. `values[flat]` holds exactly what the naive per-corner
/// closure computes — `cp.eval(idx).max(1e-300).ln()` for MLogQ² CP,
/// `t.eval(idx)` for Tucker — so the bitwise contract is inherited by
/// construction. Separable CP log-least-squares plans never carry one:
/// their kernel does no per-corner work for a table to save.
#[derive(Debug, Clone)]
struct DenseEval {
    values: Vec<f64>,
    /// Row-major strides over the grid dims (`u32`: the size cap keeps
    /// every flat index well under 2³²).
    strides: Vec<u32>,
}

impl DenseEval {
    /// The table value at a grid multi-index.
    #[inline(always)]
    fn at(&self, idx: &[usize]) -> f64 {
        let flat: usize = idx
            .iter()
            .zip(&self.strides)
            .map(|(&i, &s)| i * s as usize)
            .sum();
        self.values[flat]
    }
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
        let tables = grid.bake_tables();
        let (dense, memo_rows) = if separable {
            (None, Self::bake_memo_rows(&tables, &packed, row_observed))
        } else {
            let dense = Self::bake_dense(decomp, &packed, &grid.dims(), loss);
            (dense, Vec::new())
        };
        Self {
            tables,
            packed,
            row_observed: row_observed.to_vec(),
            loss,
            log_offset,
            rank: decomp.max_rank(),
            tucker_core: decomp.as_tucker().map(|t| t.core().clone()),
            dense,
            memo_rows,
        }
    }

    /// The blended row of every memo slot of every mode, for the separable
    /// kernels: the slot's stencil ([`AxisTable::memo_stencils`]) folded
    /// through `fold_stencil` into a ones row. `1.0 · b ≡ b` bitwise, so
    /// a row holds exactly the masked blend `b` the fold multiplies into
    /// the accumulator for that integer, and a memo hit that multiplies in
    /// the stored row computes the same bits.
    fn bake_memo_rows(
        tables: &[AxisTable],
        packed: &PackedFactors,
        row_observed: &[Vec<bool>],
    ) -> Vec<Vec<f64>> {
        let mut all = Vec::with_capacity(tables.len());
        for (j, (table, observed)) in tables.iter().zip(row_observed).enumerate() {
            let r = packed.stride(j);
            let mut rows = vec![1.0; table.memo_stencils().len() * r];
            for (s, stencil) in table.memo_stencils().enumerate() {
                let row = &mut rows[s * r..(s + 1) * r];
                fold_stencil(row, observed, |i| packed.row(j, i), stencil);
            }
            all.push(rows);
        }
        all
    }

    /// Evaluate the completed tensor at every grid cell (row-major), in
    /// corner-value form. `None` when the grid is too large.
    fn bake_dense(
        decomp: &Decomposition,
        packed: &PackedFactors,
        dims: &[usize],
        loss: Loss,
    ) -> Option<DenseEval> {
        let d = dims.len();
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
            *v = corner_value(loss, decomp.eval_packed(packed, &idx));
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

    /// Rank of the baked factors: the CP rank, or the largest multilinear
    /// rank of a Tucker model.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the bake carried the dense corner-value table: MLogQ² CP and
    /// Tucker plans on grids up to `DENSE_EVAL_MAX` cells. When `false`
    /// queries run from the factors — the separable kernel for CP
    /// log-least-squares, corner values evaluated from the packed factors
    /// otherwise — with output bitwise identical to the table's.
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
    /// corner values are then evaluated from the packed factors. Output
    /// stays bitwise identical — both sources hold the naive reference's
    /// corner values — so a memory-pressure demotion never changes a
    /// prediction. Promotion is a rebake ([`CprModel::bake_plan`]), which
    /// re-evaluates the table.
    pub fn without_dense_cache(&self) -> PredictPlan {
        PredictPlan {
            dense: None,
            ..self.clone()
        }
    }

    /// Baked size in bytes (axis tables with their integer memos + packed
    /// factors + the Tucker core when present + masks + the dense
    /// corner-value table when present + a separable plan's memo rows,
    /// `L · R · 8` bytes for `L` memo slots at rank `R`).
    pub fn size_bytes(&self) -> usize {
        let tables: usize = self.tables.iter().map(AxisTable::size_bytes).sum();
        let masks: usize = self.row_observed.iter().map(Vec::len).sum();
        let core: usize = self.tucker_core.as_ref().map_or(0, |c| c.len() * 8);
        let memo_rows: usize = self.memo_rows.iter().map(|rows| rows.len() * 8).sum();
        self.packed.size_bytes() + tables + masks + core + self.dense_cache_bytes() + memo_rows
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
        if self.is_separable() {
            self.predict_separable(x)
        } else {
            self.predict_corners(x)
        }
    }

    /// CP under log-least-squares: the plans served in separable form.
    #[inline(always)]
    fn is_separable(&self) -> bool {
        self.tucker_core.is_none() && self.loss == Loss::LogLeastSquares
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

    /// Single-query separable kernel (CP, log-least-squares): the
    /// compile-time-rank kernel at [`FIXED_RANK`], the dynamic-rank one at
    /// any other rank. Both run the same `fold_query` steps, so they are
    /// bitwise interchangeable.
    #[inline]
    fn predict_separable(&self, x: &[f64]) -> f64 {
        if self.rank == FIXED_RANK {
            self.predict_fixed::<FIXED_RANK>(x)
        } else {
            self.with_rank_scratch(|acc| self.predict_dyn(x, acc))
        }
    }

    /// The separable kernel at compile-time rank `R`: a `[f64; R]`
    /// accumulator seeded with ones (`1.0 · b ≡ b` bitwise for every
    /// non-NaN `b`, as in the naive spec), one `fold_query` step per mode,
    /// then the rank sum and finish.
    #[inline]
    fn predict_fixed<const R: usize>(&self, x: &[f64]) -> f64 {
        let mut acc = [1.0f64; R];
        let modes = self.tables.iter().zip(&self.row_observed);
        for (j, ((table, observed), &xj)) in modes.zip(x).enumerate() {
            let (factors, memo) = self.rows_fixed::<R>(j);
            let factor = |i: usize| factors[i].as_slice();
            let memo_row = |s: usize| memo[s].as_slice();
            fold_query(&mut acc, table, observed, factor, memo_row, xj);
        }
        self.finish_separable(&acc)
    }

    /// The dynamic-rank separable kernel: the steps of
    /// [`Self::predict_fixed`] over a run-time-length accumulator and rows.
    #[inline]
    fn predict_dyn(&self, x: &[f64], acc: &mut [f64]) -> f64 {
        let r = self.rank;
        acc.fill(1.0);
        let modes = self.tables.iter().zip(&self.row_observed);
        for (j, ((table, observed), &xj)) in modes.zip(x).enumerate() {
            let memo = &self.memo_rows[j];
            let factor = |i: usize| self.packed.row(j, i);
            let memo_row = |s: usize| &memo[s * r..(s + 1) * r];
            fold_query(acc, table, observed, factor, memo_row, xj);
        }
        self.finish_separable(acc)
    }

    /// Mode `j`'s packed factor rows and memo rows, as `[f64; R]` rows.
    #[inline(always)]
    fn rows_fixed<const R: usize>(&self, j: usize) -> (&[[f64; R]], &[[f64; R]]) {
        let p = &self.packed;
        let factors = &p.as_slice()[p.row_start(j, 0)..p.row_start(j, p.rows(j))];
        (factors.as_chunks().0, self.memo_rows[j].as_chunks().0)
    }

    /// Rank sum, offset, clamp and `exp` of a separable accumulator.
    #[inline(always)]
    fn finish_separable(&self, acc: &[f64]) -> f64 {
        let v: f64 = acc.iter().sum();
        (v + self.log_offset).clamp(-690.0, 690.0).exp()
    }

    /// Masked stencil of one mode: baked-table stencil, then
    /// [`apply_mask`]. Returns `(lo_row, hi_row, w1, degenerate)`.
    #[inline(always)]
    fn masked_stencil(&self, j: usize, xj: f64) -> (usize, usize, f64, bool) {
        let (i0, i1, w1) = self.tables[j].stencil(xj);
        apply_mask(&self.row_observed[j], i0, i1, w1)
    }

    /// Single-query corner sum of the plans that are not separable
    /// (MLogQ² CP, Tucker): the masked stencils in stack scratch, then
    /// [`interpolate_corners`], the naive path's own corner order and
    /// weights, over corner values bitwise equal to the naive closure's —
    /// a table load, or the packed-factor evaluation
    /// ([`PackedFactors::eval_cp`], [`cpr_tensor::eval_core_packed`],
    /// which mirror `CpDecomp::eval` and `TuckerDecomp::eval`) — then the
    /// offset, clamp and `exp` of [`CprModel::predict_naive`].
    fn predict_corners(&self, x: &[f64]) -> f64 {
        let d = x.len();
        let mut stack = [(0usize, 0usize, 0.0f64); PLAN_STACK_ORDER];
        let mut heap = Vec::new();
        let stencils = if d <= PLAN_STACK_ORDER {
            &mut stack[..d]
        } else {
            heap.resize(d, (0, 0, 0.0));
            &mut heap[..]
        };
        for (j, (st, &xj)) in stencils.iter_mut().zip(x).enumerate() {
            let (a0, a1, w1, _) = self.masked_stencil(j, xj);
            *st = (a0, a1, w1);
        }
        // One closure per corner-value source, matched outside the corner
        // loop so each inlines into its own `interpolate_corners` instance.
        let sum = match (&self.dense, &self.tucker_core) {
            (Some(dense), _) => interpolate_corners(stencils, |idx| dense.at(idx)),
            (None, Some(core)) => interpolate_corners(stencils, |idx| {
                corner_value(
                    self.loss,
                    cpr_tensor::eval_core_packed(core, &self.packed, idx),
                )
            }),
            (None, None) => interpolate_corners(stencils, |idx| {
                corner_value(self.loss, self.packed.eval_cp(idx))
            }),
        };
        let log_pred = match self.loss {
            Loss::LogLeastSquares => sum + self.log_offset,
            Loss::MLogQ2 => sum,
        };
        log_pred.clamp(-690.0, 690.0).exp()
    }

    /// Batched prediction onto a caller-provided buffer. Chunks of 256
    /// queries fan out over the crate thread pool. Within a chunk,
    /// separable plans (CP, log-least-squares) run axis-major: one axis's
    /// table, memo and memo rows stay register/L1-resident across the
    /// chunk while each query's step folds into a chunk-wide `m × R`
    /// accumulator. An axis without a memo quantizes the chunk through
    /// [`AxisTable::stencils_for_each`] (one lookup-kind branch per chunk,
    /// and the `ln` chains of searched axes overlap); on an axis with one,
    /// a memo hit multiplies in the slot's baked row, and only a miss
    /// quantizes. Each query's rank sum is then finished — no per-query
    /// corner loop. Like [`Self::predict`], a separable chunk runs at a
    /// compile-time rank at rank 4 and at run-time rank otherwise; at every
    /// rank its accumulator is one heap allocation per chunk, sized to the
    /// chunk, so a batch of one pays for one query. The other plans run the
    /// single-query corner sum per query.
    ///
    /// Outputs land at the input index, so results are independent of the
    /// worker count.
    pub fn predict_into<X: AsRef<[f64]> + Sync>(&self, xs: &[X], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "predict_into: output length mismatch");
        let d = self.order();
        out.par_chunks_mut(PLAN_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| {
                let base = c * PLAN_CHUNK;
                let xs = &xs[base..base + chunk.len()];
                for (k, x) in xs.iter().enumerate() {
                    assert_eq!(
                        x.as_ref().len(),
                        d,
                        "predict_into: configuration order mismatch at sample {}",
                        base + k
                    );
                }
                if self.is_separable() {
                    self.separable_chunk(chunk, xs);
                } else {
                    for (o, x) in chunk.iter_mut().zip(xs) {
                        *o = self.predict_corners(x.as_ref());
                    }
                }
            });
    }

    /// One chunk of the separable serve (at most [`PLAN_CHUNK`] queries),
    /// dispatched on the rank as in [`Self::predict_separable`].
    fn separable_chunk<X: AsRef<[f64]>>(&self, chunk: &mut [f64], xs: &[X]) {
        if self.rank == FIXED_RANK {
            self.chunk_fixed::<FIXED_RANK, X>(chunk, xs)
        } else {
            self.chunk_dyn(chunk, xs)
        }
    }

    /// A separable chunk at compile-time rank `R`, axis by axis into an
    /// `m × R` accumulator (query-major rows). Per query this is the step
    /// sequence of [`Self::predict_fixed`].
    fn chunk_fixed<const R: usize, X: AsRef<[f64]>>(&self, chunk: &mut [f64], xs: &[X]) {
        let mut acc = vec![[1.0f64; R]; chunk.len()];
        for (j, table) in self.tables.iter().enumerate() {
            let (factors, memo) = self.rows_fixed::<R>(j);
            let observed = &self.row_observed[j];
            let factor = |i: usize| factors[i].as_slice();
            if memo.is_empty() {
                table.stencils_for_each(xs.iter().map(|x| x.as_ref()[j]), |k, stencil| {
                    fold_stencil(&mut acc[k], observed, factor, stencil)
                });
            } else {
                let memo_row = |s: usize| memo[s].as_slice();
                for (a, x) in acc.iter_mut().zip(xs) {
                    fold_query(a, table, observed, factor, memo_row, x.as_ref()[j]);
                }
            }
        }
        for (o, a) in chunk.iter_mut().zip(acc.iter()) {
            *o = self.finish_separable(a);
        }
    }

    /// The dynamic-rank chunk kernel: [`Self::chunk_fixed`] over a flat
    /// `m × R` accumulator and run-time-length rows.
    fn chunk_dyn<X: AsRef<[f64]>>(&self, chunk: &mut [f64], xs: &[X]) {
        let r = self.rank;
        let mut acc = vec![1.0f64; chunk.len() * r];
        for (j, table) in self.tables.iter().enumerate() {
            let memo = &self.memo_rows[j];
            let observed = &self.row_observed[j];
            let factor = |i: usize| self.packed.row(j, i);
            if memo.is_empty() {
                table.stencils_for_each(xs.iter().map(|x| x.as_ref()[j]), |k, stencil| {
                    fold_stencil(&mut acc[k * r..(k + 1) * r], observed, factor, stencil)
                });
            } else {
                let memo_row = |s: usize| &memo[s * r..(s + 1) * r];
                for (k, x) in xs.iter().enumerate() {
                    let a = &mut acc[k * r..(k + 1) * r];
                    fold_query(a, table, observed, factor, memo_row, x.as_ref()[j]);
                }
            }
        }
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = self.finish_separable(&acc[k * r..(k + 1) * r]);
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

/// The value Eq. 5 interpolates at one corner, from the completed entry
/// there: the entry itself under log-least-squares (already a log time),
/// its clamped `ln` under MLogQ² — the naive closure's operations.
#[inline(always)]
fn corner_value(loss: Loss, entry: f64) -> f64 {
    match loss {
        Loss::LogLeastSquares => entry,
        Loss::MLogQ2 => entry.max(1e-300).ln(),
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

/// One (query, mode) step of the separable fold, `acc *= b` for the mode's
/// blended row `b`, shared by every separable kernel at every rank: on a
/// memo hit ([`AxisTable::memo_slot`]) `b` is the slot's baked row
/// (`memo_row(s)`, see `PredictPlan::bake_memo_rows`); otherwise the
/// table's stencil goes through [`fold_stencil`]. `factor(i)` is factor row
/// `i` of the mode; every row is rank-length.
#[inline(always)]
fn fold_query<'a>(
    acc: &mut [f64],
    table: &AxisTable,
    observed: &[bool],
    factor: impl Fn(usize) -> &'a [f64],
    memo_row: impl Fn(usize) -> &'a [f64],
    x: f64,
) {
    match table.memo_slot(x) {
        Some(s) => {
            for (a, &b) in acc.iter_mut().zip(memo_row(s)) {
                *a *= b;
            }
        }
        None => fold_stencil(acc, observed, factor, table.stencil(x)),
    }
}

/// `acc *= b` for one mode's stencil: [`apply_mask`], then the blended row
/// `b = (1 − w1)·U[a0] + w1·U[a1]`, or `b = U[a0]` for a point stencil —
/// the operation order of the naive spec (`separable_corner_sum`).
/// `factor(i)` is factor row `i` of the mode.
#[inline(always)]
fn fold_stencil<'a>(
    acc: &mut [f64],
    observed: &[bool],
    factor: impl Fn(usize) -> &'a [f64],
    (i0, i1, w1): (usize, usize, f64),
) {
    let (a0, a1, w1, degen) = apply_mask(observed, i0, i1, w1);
    let lo = factor(a0);
    if degen {
        for (a, &u) in acc.iter_mut().zip(lo) {
            *a *= u;
        }
    } else {
        let hi = factor(a1);
        let w0 = 1.0 - w1;
        for ((a, &u0), &u1) in acc.iter_mut().zip(lo).zip(hi) {
            *a *= w0 * u0 + w1 * u1;
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

    /// The model a streaming refit of this log-least-squares CP model
    /// yields: the same space, grid and log offset with the refitted
    /// factors, observed-row masks from the trainer's observation tensor
    /// and the trainer's cell and sample counts. Bakes the plan exactly
    /// once.
    pub(crate) fn refitted(&self, cp: CpDecomp, obs: &SparseTensor, samples: usize) -> CprModel {
        let mut model = Self::assemble(
            self.space.clone(),
            self.grid.clone(),
            Decomposition::Cp(cp),
            Optimizer::Als,
            Loss::LogLeastSquares,
            self.log_offset,
            observed_rows(obs),
        );
        model.observed_cells = obs.nnz();
        model.samples = samples;
        model
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
        self.row_observed = observed_rows(obs);
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

    /// Number of grid cells with at least one training observation. A
    /// model built from its parts (a parsed one, say) reads 0: the model
    /// bytes do not carry the count.
    pub fn observed_cells(&self) -> usize {
        self.observed_cells
    }

    /// Observed fill fraction of the tensor `|Ω| / Π I_j`, over
    /// [`TensorGrid::cell_count`] (an `f64`, so grids of more than 2^64
    /// cells count too).
    pub fn density(&self) -> f64 {
        self.observed_cells as f64 / self.grid.cell_count()
    }

    /// Training-set size: the samples the fit (or a streaming trainer)
    /// absorbed. A model built from its parts reads 0, as with
    /// [`Self::observed_cells`].
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

    /// The one-pass row masks equal the per-mode inverted index's
    /// non-empty rows, on random sparse tensors of orders 1–5 that leave
    /// some rows empty.
    #[test]
    fn observed_rows_match_the_mode_index() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let order = rng.gen_range(1..=5usize);
            let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1..=7usize)).collect();
            let mut obs = SparseTensor::new(&dims);
            let mut idx = vec![0usize; order];
            for _ in 0..rng.gen_range(0..12usize) {
                for (i, &n) in idx.iter_mut().zip(&dims) {
                    *i = rng.gen_range(0..n);
                }
                obs.push(&idx, rng.gen::<f64>());
            }
            let masks = observed_rows(&obs);
            for (m, mask) in masks.iter().enumerate() {
                let expected: Vec<bool> = obs
                    .mode_index(m)
                    .iter()
                    .map(|ids| !ids.is_empty())
                    .collect();
                assert_eq!(mask, &expected, "dims {dims:?} mode {m}");
            }
        }
    }

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
    fn density_of_a_grid_beyond_usize() {
        // 17 log parameters at 16 cells each: 2^68 cells, which a `usize`
        // product cannot count.
        let space = ParamSpace::new(
            (0..17)
                .map(|j| ParamSpec::log(format!("p{j}"), 1.0, 1024.0))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(68);
        let mut data = Dataset::new();
        for _ in 0..64 {
            let x: Vec<f64> = (0..17)
                .map(|_| f64::from(rng.gen_range(1..=1024u32)))
                .collect();
            let y = 1e-3 * x.iter().sum::<f64>();
            data.push(x, y);
        }
        let model = CprBuilder::new(space)
            .cells_per_dim(16)
            .rank(2)
            .fit(&data)
            .unwrap();
        assert!(model.observed_cells() > 1);
        let cells = 2.0_f64.powi(68);
        assert_eq!(model.density(), model.observed_cells() as f64 / cells);
        assert!(model.predict(&data.xs()[0]).is_finite());
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

    /// The space of the separable-kernel tests: two memoized integer axes
    /// (32 and 6 slots), an integer axis too wide for a memo, log and
    /// linear float axes and a categorical axis.
    fn shape_space() -> (ParamSpace, Vec<usize>) {
        let space = ParamSpace::new(vec![
            ParamSpec::log_int("g", 1.0, 32.0),
            ParamSpec::linear_int("l", 0.0, 5.0),
            ParamSpec::log_int("m", 32.0, 4096.0),
            ParamSpec::log("x", 0.5, 100.0),
            ParamSpec::linear("y", -3.0, 7.5),
            ParamSpec::categorical("c", 3),
        ]);
        (space, vec![8, 6, 7, 5, 4, 3])
    }

    /// A probe of one axis: an integer of the domain, a fractional value,
    /// an integral or fractional value out of the domain, or `-0.0`.
    fn shape_probe(spec: &ParamSpec, rng: &mut StdRng) -> f64 {
        match *spec {
            ParamSpec::Numerical { lo, hi, .. } => match rng.gen_range(0..6) {
                0 | 1 => rng.gen_range(lo.ceil() as i64..=hi.floor() as i64) as f64,
                2 => lo + (hi - lo) * rng.gen::<f64>(),
                3 => (lo - (hi - lo) * rng.gen::<f64>()).floor(),
                4 => hi + (hi - lo) * rng.gen::<f64>(),
                _ => -0.0,
            },
            ParamSpec::Categorical { cardinality, .. } => {
                rng.gen_range(0..cardinality + 2) as f64 - 1.0
            }
        }
    }

    /// Install observed-row masks through an observation tensor whose
    /// entry `t` takes the `t`-th observed row of every mode (cycling).
    fn install_masks(model: &mut CprModel, masks: &[Vec<bool>]) {
        let rows: Vec<Vec<usize>> = masks
            .iter()
            .map(|m| (0..m.len()).filter(|&i| m[i]).collect())
            .collect();
        let mut obs = SparseTensor::new(&model.grid().dims());
        for t in 0..rows.iter().map(Vec::len).max().unwrap() {
            let idx: Vec<usize> = rows.iter().map(|r| r[t % r.len()]).collect();
            obs.push(&idx, 1.0);
        }
        model.set_row_observed_from(&obs);
    }

    /// Every shape of the separable kernels gives the spec's bits: at each
    /// rank, `predict` and `predict_into` (the compile-time-rank kernels at
    /// `FIXED_RANK`, the dynamic-rank ones elsewhere) and the dynamic-rank
    /// kernels called directly, single-query and in chunks, are all bitwise
    /// equal to `predict_naive`, and so to each other, at batch lengths 1,
    /// 255, 256 and 257 (a partial, a full and a full-plus-one chunk). Random masks on every mode but
    /// the 6-slot memoized one, which is masked to alternate so that every
    /// masked stencil there, memo slots included, collapses to a point
    /// stencil. The fixed shapes exist for optimized codegen, so CI runs
    /// this in release too.
    #[test]
    fn separable_kernel_shapes_bitwise_match() {
        let (space, cells) = shape_space();
        let dims = space.grid_with_cells(&cells).dims();
        let mut rng = StdRng::seed_from_u64(23);
        for rank in [1usize, 3, FIXED_RANK, 5, 8] {
            let cp = CpDecomp::random(&dims, rank, -1.0, 1.0, 40 + rank as u64);
            let mut model =
                CprModel::from_parts(space.clone(), &cells, cp, Loss::LogLeastSquares, 0.37)
                    .unwrap();
            let mut masks: Vec<Vec<bool>> = dims
                .iter()
                .map(|&n| {
                    let mut m: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.7).collect();
                    m[rng.gen_range(0..n)] = true;
                    m
                })
                .collect();
            masks[1] = (0..dims[1]).map(|i| i % 2 == 0).collect();
            install_masks(&mut model, &masks);
            let plan = model.plan();
            // Every memo row of the alternating mode is a plain factor row.
            let collapsed = &plan.memo_rows[1];
            assert_eq!(collapsed.len(), 6 * rank);
            for row in collapsed.chunks(rank) {
                assert!((0..dims[1]).any(|i| plan.factor_row(1, i) == row));
            }
            let what = |n: usize, k: usize| format!("rank {rank}, batch {n}, query {k}");
            for n in [1usize, 255, 256, 257] {
                let xs: Vec<Vec<f64>> = (0..n)
                    .map(|_| {
                        space
                            .params()
                            .iter()
                            .map(|p| shape_probe(p, &mut rng))
                            .collect()
                    })
                    .collect();
                let naive: Vec<u64> = xs
                    .iter()
                    .map(|x| model.predict_naive(x).to_bits())
                    .collect();
                let mut into = vec![0.0; n];
                plan.predict_into(&xs, &mut into);
                let mut dyn_chunks = vec![0.0; n];
                for (c, xc) in xs.chunks(PLAN_CHUNK).enumerate() {
                    let span = c * PLAN_CHUNK..c * PLAN_CHUNK + xc.len();
                    plan.chunk_dyn(&mut dyn_chunks[span], xc);
                }
                for (k, x) in xs.iter().enumerate() {
                    let mut scratch = vec![0.0; rank];
                    assert_eq!(
                        plan.predict(x).to_bits(),
                        naive[k],
                        "predict, {}",
                        what(n, k)
                    );
                    assert_eq!(into[k].to_bits(), naive[k], "predict_into, {}", what(n, k));
                    let single_dyn = plan.predict_dyn(x, &mut scratch);
                    assert_eq!(
                        single_dyn.to_bits(),
                        naive[k],
                        "predict_dyn, {}",
                        what(n, k)
                    );
                    assert_eq!(
                        dyn_chunks[k].to_bits(),
                        naive[k],
                        "chunk_dyn, {}",
                        what(n, k)
                    );
                }
            }
        }
    }

    /// A separable plan's memo rows add `L · R · 8` bytes to
    /// `PredictPlan::size_bytes` for `L` memo slots at rank `R`: the same
    /// parts served as MLogQ² CP (no memo rows), without the dense table,
    /// are exactly that much smaller.
    #[test]
    fn memo_rows_add_slots_times_rank_times_eight_bytes() {
        let (space, cells) = shape_space();
        let dims = space.grid_with_cells(&cells).dims();
        for rank in [1usize, 4, 5, 8] {
            let cp = CpDecomp::random(&dims, rank, 0.1, 1.5, rank as u64);
            let sep = CprModel::from_parts(
                space.clone(),
                &cells,
                cp.clone(),
                Loss::LogLeastSquares,
                0.0,
            )
            .unwrap();
            let corner =
                CprModel::from_parts(space.clone(), &cells, cp, Loss::MLogQ2, 0.0).unwrap();
            let slots: usize = sep
                .plan()
                .tables
                .iter()
                .map(|t| t.memo_stencils().len())
                .sum();
            assert_eq!(slots, 32 + 6);
            let grown = sep.plan().size_bytes() - corner.plan().without_dense_cache().size_bytes();
            assert_eq!(grown, slots * rank * 8, "rank {rank}");
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
        // 300x300 cells = 90k > DENSE_EVAL_MAX: the plan evaluates Tucker
        // corner values from the packed factors instead of a dense table.
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
