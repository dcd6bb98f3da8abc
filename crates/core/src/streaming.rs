//! Online/streaming model updates (paper §8 future work).
//!
//! The paper closes by flagging "methods for efficiently updating CP
//! decompositions to effectively model streaming data in online settings"
//! as an open gap. This module implements the natural incremental scheme:
//! keep the per-cell running sums/counts from training, fold new
//! measurements in, and warm-start a few ALS sweeps from the current
//! factors instead of refitting from scratch. Warm-started sweeps converge
//! in a handful of iterations because the factors already sit near the
//! optimum of the slightly-perturbed objective.

use crate::dataset::Dataset;
use crate::error::{CprError, Result};
use crate::model::{CprBuilder, CprModel, Loss};
use cpr_completion::{als_with_streams, build_streams, CompletionSpec, Optimizer, StopRule, Trace};
use cpr_grid::ParamSpace;
use cpr_tensor::{ModeStream, SparseTensor};
use std::collections::BTreeMap;

/// Per-cell running statistics plus the cell's entry id in the cached
/// observation tensor.
#[derive(Debug, Clone, Copy)]
struct CellStat {
    sum: f64,
    count: usize,
    /// Index of this cell's entry in the cached `obs` tensor.
    entry: u32,
}

/// Ridge λ of every update sweep, whatever λ the initial fit used. The
/// model bytes do not carry λ, so [`StreamingCpr::resume`] could not
/// recover a per-model value, and a restarted trainer would then refit
/// differently from one that never crashed.
const UPDATE_LAMBDA: f64 = 1e-5;

/// An incrementally updatable CPR model (LogLeastSquares/ALS only — the
/// interpolation regime where online tuning data arrives).
#[derive(Debug, Clone)]
pub struct StreamingCpr {
    model: CprModel,
    space: ParamSpace,
    cells: Vec<usize>,
    /// Running stats per observed cell, in time units.
    cell_stats: BTreeMap<Vec<usize>, CellStat>,
    /// Cached observation tensor: one entry per observed cell holding the
    /// recentered log-mean, revised in place as means move. Entry order is
    /// insertion order (initial cells in map order, streamed cells
    /// appended), so refits never rebuild it.
    obs: SparseTensor,
    /// Cached per-mode observation streams, extended incrementally when new
    /// cells appear and value-refreshed when means change — refits skip the
    /// per-mode counting sorts entirely.
    streams: Vec<ModeStream>,
    /// Total samples absorbed.
    samples: usize,
}

impl StreamingCpr {
    /// Fit an initial model; further samples arrive through [`Self::update`].
    /// The builder already owns its [`ParamSpace`], so that is the whole
    /// configuration — warm-started update sweeps require the ALS /
    /// log-least-squares regime (the interpolation setting online tuning
    /// data arrives in).
    pub fn fit(builder: &CprBuilder, data: &Dataset) -> Result<Self> {
        match builder.spec().resolve()? {
            (Optimizer::Als, Loss::LogLeastSquares) => {}
            (opt, _) => {
                return Err(CprError::InvalidConfig(format!(
                    "streaming updates refit with warm-started ALS sweeps; \
                     optimizer {} is not supported",
                    opt.name()
                )));
            }
        }
        let space = builder.space().clone();
        let model = builder.fit(data)?;
        let cells: Vec<usize> = (0..model.grid().order())
            .map(|m| model.grid().axis(m).len())
            .collect();
        let mut cell_stats: BTreeMap<Vec<usize>, CellStat> = BTreeMap::new();
        for (x, y) in data.iter() {
            let idx = model.grid().cell_index(x);
            let e = cell_stats.entry(idx).or_insert(CellStat {
                sum: 0.0,
                count: 0,
                entry: 0,
            });
            e.sum += y;
            e.count += 1;
        }
        // Materialize the cached observation tensor once (map order) and
        // record each cell's entry id; streams are built from it and kept.
        let offset = model.log_offset();
        let mut obs = SparseTensor::new(&model.grid().dims());
        for (idx, stat) in cell_stats.iter_mut() {
            stat.entry = obs.nnz() as u32;
            obs.push(idx, (stat.sum / stat.count as f64).ln() - offset);
        }
        let streams = build_streams(&obs);
        Ok(Self {
            samples: data.len(),
            model,
            space,
            cells,
            cell_stats,
            obs,
            streams,
        })
    }

    /// Resume streaming updates on an already-fitted model — e.g. one
    /// recovered from a durable snapshot after a restart. The factors
    /// warm-start exactly where the persisted model left off; the
    /// per-cell running statistics start empty and rebuild from incoming
    /// batches (replayed write-ahead telemetry first, live traffic
    /// after). Until the first [`Self::update`], [`Self::model`] returns
    /// the restored model unchanged. Same regime restriction as
    /// [`Self::fit`]: log-least-squares only.
    pub fn resume(model: CprModel) -> Result<Self> {
        if model.loss() != Loss::LogLeastSquares {
            return Err(CprError::InvalidConfig(
                "streaming updates refit with warm-started ALS sweeps; \
                 only log-least-squares models can resume"
                    .to_string(),
            ));
        }
        let space = model.space().clone();
        let cells = (0..model.grid().order())
            .map(|m| model.grid().axis(m).len())
            .collect();
        let obs = SparseTensor::new(&model.grid().dims());
        let streams = build_streams(&obs);
        Ok(Self {
            samples: 0,
            model,
            space,
            cells,
            cell_stats: BTreeMap::new(),
            obs,
            streams,
        })
    }

    /// Absorb a batch of new measurements: update cell statistics and run
    /// `sweeps` warm-started ALS sweeps. Returns the sweep trace.
    ///
    /// The observation tensor and its per-mode streams are **cached**
    /// across updates: cells whose running mean moved get their value
    /// revised in place, brand-new cells are appended and folded into the
    /// streams incrementally ([`ModeStream::append_from`]), and the refit
    /// runs through [`als_with_streams`] — no per-update tensor rebuild, no
    /// per-mode counting sorts. The cached streams stay identical to a
    /// from-scratch rebuild (pinned by `cached_streams_match_fresh_rebuild`).
    pub fn update(&mut self, batch: &Dataset, sweeps: usize) -> Result<Trace> {
        let d = self.space.dim();
        for (i, (x, y)) in batch.iter().enumerate() {
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
        let offset = self.model.log_offset();
        let first_new = self.obs.nnz();
        let mut values_moved = false;
        for (x, y) in batch.iter() {
            let idx = self.model.grid().cell_index(x);
            match self.cell_stats.get_mut(&idx) {
                Some(stat) => {
                    stat.sum += y;
                    stat.count += 1;
                    self.obs.set_value(
                        stat.entry as usize,
                        (stat.sum / stat.count as f64).ln() - offset,
                    );
                    values_moved = true;
                }
                None => {
                    let entry = self.obs.nnz() as u32;
                    self.obs.push(&idx, y.ln() - offset);
                    self.cell_stats.insert(
                        idx,
                        CellStat {
                            sum: y,
                            count: 1,
                            entry,
                        },
                    );
                }
            }
        }
        self.samples += batch.len();
        // Fold appended cells into the cached streams; re-scatter values
        // when existing means moved (appended slots were written with their
        // final value already, but a cell can be both appended and then
        // revised within one batch, so the refresh covers everything).
        if self.obs.nnz() > first_new {
            for s in &mut self.streams {
                s.append_from(&self.obs, first_new);
            }
        }
        if values_moved {
            for s in &mut self.streams {
                s.refresh_values(self.obs.values());
            }
        }

        let mut cp = self.model.cp().clone();
        let cfg = CompletionSpec {
            lambda: UPDATE_LAMBDA,
            stop: StopRule {
                max_sweeps: sweeps,
                tol: 1e-9,
            },
            ..Default::default()
        };
        let trace = als_with_streams(&mut cp, &self.obs, &self.streams, &cfg);
        // Rebuild the public model with refreshed factors and masks; the
        // mask-aware constructor rebakes the compiled query plan exactly
        // once, so queries after an update always see the updated model
        // (the plan is a bake, never a stale view).
        self.model = CprModel::from_parts_masked(
            self.space.clone(),
            &self.cells,
            cp,
            Loss::LogLeastSquares,
            offset,
            &self.obs,
        )?;
        Ok(trace)
    }

    /// Absorb a batch into the cached statistics, streams, and masks
    /// *without* running any refit sweeps: [`Self::update`] with a zero
    /// sweep budget. Factor matrices are bitwise-unchanged; the model is
    /// rebuilt so its observation masks (and therefore its baked plan's
    /// extrapolation corners) reflect the new cells. This is how a refit
    /// pipeline keeps telemetry from a *rejected* candidate — the data is
    /// retained for the next attempt while the factors that failed the
    /// quality gate are discarded.
    pub fn absorb(&mut self, batch: &Dataset) -> Result<()> {
        self.update(batch, 0).map(|_| ())
    }

    /// The current model.
    pub fn model(&self) -> &CprModel {
        &self.model
    }

    /// The cached observation tensor (one recentered log-mean per observed
    /// cell, insertion order).
    pub fn observations(&self) -> &SparseTensor {
        &self.obs
    }

    /// The cached per-mode observation streams the refits run on.
    pub fn streams(&self) -> &[ModeStream] {
        &self.streams
    }

    /// Total samples absorbed (initial + streamed).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of observed cells so far.
    pub fn observed_cells(&self) -> usize {
        self.cell_stats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_grid::ParamSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 4096.0),
            ParamSpec::log("n", 32.0, 4096.0),
        ])
    }

    fn sample(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n {
            let m = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
            let nn = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
            data.push(vec![m, nn], 1e-4 * m.powf(1.4) * nn.powf(0.9));
        }
        data
    }

    #[test]
    fn updates_improve_a_data_starved_model() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(10)
            .rank(2)
            .regularization(1e-7);
        let test = sample(300, 99);
        let mut s = StreamingCpr::fit(&builder, &sample(60, 1)).unwrap();
        let before = s.model().evaluate(&test).mlogq;
        for batch_seed in 2..8 {
            s.update(&sample(400, batch_seed), 10).unwrap();
        }
        let after = s.model().evaluate(&test).mlogq;
        assert!(
            after < before * 0.7,
            "streaming updates should improve the fit: {before} -> {after}"
        );
        assert_eq!(s.samples(), 60 + 6 * 400);
    }

    #[test]
    fn warm_start_converges_fast() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7);
        let mut s = StreamingCpr::fit(&builder, &sample(2000, 3)).unwrap();
        // A small batch barely perturbs the objective: few sweeps suffice.
        let trace = s.update(&sample(50, 4), 20).unwrap();
        assert!(
            trace.converged || trace.sweeps() <= 20,
            "warm start should converge quickly: {:?}",
            trace.objective
        );
    }

    #[test]
    fn streaming_matches_batch_retraining_quality() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7);
        let test = sample(300, 98);
        // Stream 4 batches of 500.
        let mut s = StreamingCpr::fit(&builder, &sample(500, 10)).unwrap();
        for seed in 11..14 {
            s.update(&sample(500, seed), 15).unwrap();
        }
        let streamed = s.model().evaluate(&test).mlogq;
        // Retrain from scratch on the union.
        let mut all = Dataset::new();
        for seed in 10..14 {
            for (x, y) in sample(500, seed).iter() {
                all.push(x.to_vec(), y);
            }
        }
        let batch = builder.fit(&all).unwrap().evaluate(&test).mlogq;
        assert!(
            streamed < batch * 1.5 + 0.02,
            "streamed {streamed} should be close to batch {batch}"
        );
    }

    #[test]
    fn update_rebakes_the_query_plan() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(6)
            .rank(2)
            .regularization(1e-7);
        let mut s = StreamingCpr::fit(&builder, &sample(150, 20)).unwrap();
        let probe = [100.0, 900.0];
        let before = s.model().predict(&probe);
        s.update(&sample(400, 21), 8).unwrap();
        // The rebaked plan serves the *updated* factors/masks, and stays
        // bitwise-equivalent to the naive reference path.
        let after = s.model().predict(&probe);
        assert_ne!(before.to_bits(), after.to_bits(), "plan went stale");
        assert_eq!(after.to_bits(), s.model().predict_naive(&probe).to_bits());
    }

    #[test]
    fn absorb_keeps_factors_bitwise_but_registers_data() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7);
        let mut s = StreamingCpr::fit(&builder, &sample(150, 40)).unwrap();
        let factors_before: Vec<Vec<f64>> = (0..2)
            .map(|m| s.model().cp().factor(m).as_slice().to_vec())
            .collect();
        let cells_before = s.observed_cells();
        s.absorb(&sample(400, 41)).unwrap();
        for (m, before) in factors_before.iter().enumerate() {
            let after = s.model().cp().factor(m).as_slice();
            assert_eq!(before.len(), after.len());
            for (a, b) in before.iter().zip(after) {
                assert_eq!(a.to_bits(), b.to_bits(), "absorb must not move factors");
            }
        }
        assert_eq!(s.samples(), 150 + 400);
        assert!(
            s.observed_cells() >= cells_before,
            "absorbed cells must register"
        );
        // The absorbed data participates in the *next* refit.
        s.update(&sample(10, 42), 5).unwrap();
    }

    #[test]
    fn cached_streams_match_fresh_rebuild() {
        // The incrementally maintained streams (append_from + value
        // refresh) must be *identical* to rebuilding from the cached
        // observation tensor from scratch — and a refit through them must
        // produce bitwise the same model as one through fresh streams.
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7);
        let mut s = StreamingCpr::fit(&builder, &sample(200, 30)).unwrap();
        for seed in 31..35 {
            s.update(&sample(150, seed), 6).unwrap();
            let obs = s.observations();
            for (m, cached) in s.streams().iter().enumerate() {
                assert_eq!(
                    *cached,
                    obs.mode_stream(m),
                    "cached stream {m} diverged from scratch rebuild"
                );
            }
        }
        // Refit equivalence: same warm start, cached streams vs fresh ones.
        let cfg = cpr_completion::CompletionSpec {
            lambda: UPDATE_LAMBDA,
            stop: cpr_completion::StopRule {
                max_sweeps: 5,
                tol: -1.0,
            },
            ..Default::default()
        };
        let obs = s.observations().clone();
        let mut warm_a = s.model().cp().clone();
        cpr_completion::als_with_streams(&mut warm_a, &obs, s.streams(), &cfg);
        let mut warm_b = s.model().cp().clone();
        let fresh = cpr_completion::build_streams(&obs);
        cpr_completion::als_with_streams(&mut warm_b, &obs, &fresh, &cfg);
        for m in 0..warm_a.order() {
            for (x, y) in warm_a
                .factor(m)
                .as_slice()
                .iter()
                .zip(warm_b.factor(m).as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "refit diverged in mode {m}");
            }
        }
    }

    #[test]
    fn rejects_bad_batches() {
        let builder = CprBuilder::new(space()).cells_per_dim(6).rank(2);
        let mut s = StreamingCpr::fit(&builder, &sample(100, 5)).unwrap();
        let mut bad = Dataset::new();
        bad.push(vec![100.0], 1.0);
        assert!(matches!(
            s.update(&bad, 5),
            Err(CprError::DimensionMismatch { .. })
        ));
        let mut bad2 = Dataset::new();
        bad2.push(vec![100.0, 100.0], -2.0);
        assert!(matches!(
            s.update(&bad2, 5),
            Err(CprError::NonPositiveTime { .. })
        ));
    }
}
