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
use cpr_tensor::{ModeStream, SparseTensor};

/// Ridge λ of every update sweep, whatever λ the initial fit used. The
/// model bytes do not carry λ, so [`StreamingCpr::resume`] could not
/// recover a per-model value, and a restarted trainer would then refit
/// differently from one that never crashed.
const UPDATE_LAMBDA: f64 = 1e-5;

/// An incrementally updatable CPR model (LogLeastSquares/ALS only — the
/// interpolation regime where online tuning data arrives).
///
/// The per-cell state is flat, one slot per `obs` entry: the entry's
/// coordinates and recentered log-mean live in `obs`, its raw-time sum and
/// sample count in `sums` and `counts`. `by_cell` lists the entry ids in
/// ascending cell order, so a cell finds its entry by binary search over
/// `obs`'s own coordinates.
#[derive(Debug, Clone)]
pub struct StreamingCpr {
    model: CprModel,
    /// Cached observation tensor: one entry per observed cell holding the
    /// recentered log-mean, revised in place as means move. The fit's cells
    /// come first, in ascending cell order; streamed cells are appended in
    /// first-seen order, so refits never rebuild it.
    obs: SparseTensor,
    /// Raw-time sum of each entry's samples, accumulated in data order.
    sums: Vec<f64>,
    /// Sample count of each entry.
    counts: Vec<usize>,
    /// Entry ids in ascending cell order.
    by_cell: Vec<u32>,
    /// Cached per-mode observation streams, extended incrementally when new
    /// cells appear and value-refreshed when means change — refits skip the
    /// per-mode counting sorts entirely.
    streams: Vec<ModeStream>,
    /// Total samples absorbed.
    samples: usize,
}

impl StreamingCpr {
    /// Fit an initial model; further samples arrive through [`Self::update`].
    /// The builder already owns its [`cpr_grid::ParamSpace`], so that is
    /// the whole configuration — warm-started update sweeps require the
    /// ALS / log-least-squares regime (the interpolation setting online
    /// tuning data arrives in). The trainer keeps the fit's own binned
    /// cells as its state.
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
        let (model, obs, sums, counts) = builder.fit_binned(data)?;
        let streams = build_streams(&obs);
        Ok(Self {
            by_cell: (0..obs.nnz() as u32).collect(),
            samples: data.len(),
            model,
            obs,
            sums,
            counts,
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
        let obs = SparseTensor::new(&model.grid().dims());
        let streams = build_streams(&obs);
        Ok(Self {
            model,
            obs,
            sums: Vec::new(),
            counts: Vec::new(),
            by_cell: Vec::new(),
            streams,
            samples: 0,
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
        let d = self.model.space().dim();
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
            let found = self.by_cell.binary_search_by(|&e| {
                let cell = self.obs.index(e as usize).iter().map(|&c| c as usize);
                cell.cmp(idx.iter().copied())
            });
            match found {
                Ok(pos) => {
                    let e = self.by_cell[pos] as usize;
                    self.sums[e] += y;
                    self.counts[e] += 1;
                    self.obs
                        .set_value(e, (self.sums[e] / self.counts[e] as f64).ln() - offset);
                    values_moved = true;
                }
                Err(pos) => {
                    let e = self.obs.nnz() as u32;
                    self.obs.push(&idx, y.ln() - offset);
                    self.sums.push(y);
                    self.counts.push(1);
                    self.by_cell.insert(pos, e);
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
        // rebuild bakes the compiled query plan exactly once, so queries
        // after an update always see the updated model (the plan is a
        // bake, never a stale view).
        self.model = self.model.refitted(cp, &self.obs, self.samples);
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
    /// cell: the fit's cells in ascending cell order, then streamed cells
    /// in first-seen order).
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
        self.obs.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_grid::{ParamSpace, ParamSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

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
        // The refit model carries the trainer's counts.
        assert_eq!(s.model().observed_cells(), s.observed_cells());
        assert_eq!(s.model().training_samples(), 150 + 400);
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

    /// FNV-1a over 64-bit words.
    fn fnv(checksum: &mut u64, values: impl IntoIterator<Item = f64>) {
        for v in values {
            *checksum = (*checksum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Integer configurations in `lo..=hi` per parameter, timed as
    /// `m^1.5 · n` with up to 20% multiplicative noise (so revisited cells
    /// move their means). No constant-base `powf`: optimized builds may
    /// rewrite one as `exp2`, and the draws must be the same bits in the
    /// debug and release profiles.
    fn integer_batch(n: usize, lo: u32, hi: u32, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n {
            let m = f64::from(rng.gen_range(lo..=hi));
            let nn = f64::from(rng.gen_range(lo..=hi));
            let noise = 1.0 + 0.2 * rng.gen::<f64>();
            data.push(vec![m, nn], 1e-7 * m * m.sqrt() * nn * noise);
        }
        data
    }

    /// Fold a trainer's factor bits and the bits it serves on in-domain,
    /// clamped and unobserved-corner probes.
    fn fold_trainer(checksum: &mut u64, s: &StreamingCpr) {
        let cp = s.model().cp();
        for m in 0..cp.order() {
            fnv(checksum, cp.factor(m).as_slice().iter().copied());
        }
        let probes = [20.0, 40.0, 100.0, 333.0, 1000.0, 2500.0, 4000.0, 5000.0];
        for &m in &probes {
            for &nn in &probes {
                fnv(checksum, [s.model().predict(&[m, nn])]);
            }
        }
    }

    /// The flat per-entry state equals a map binning of every absorbed
    /// sample, entry by entry: the fit's cells in ascending cell order,
    /// then streamed cells in first-seen order, with sums accumulated in
    /// data order.
    #[test]
    fn flat_state_matches_a_reference_binning() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7);
        let first = integer_batch(120, 32, 600, 70);
        let batches = [
            integer_batch(200, 32, 2048, 71),
            integer_batch(150, 32, 4096, 72),
        ];
        let mut s = StreamingCpr::fit(&builder, &first).unwrap();
        for batch in &batches {
            s.update(batch, 2).unwrap();
        }

        let grid = s.model().grid();
        let mut reference: BTreeMap<Vec<usize>, (f64, usize)> = BTreeMap::new();
        let bin = |reference: &mut BTreeMap<Vec<usize>, (f64, usize)>, x: &[f64], y| {
            let cell = reference.entry(grid.cell_index(x)).or_insert((0.0, 0));
            cell.0 += y;
            cell.1 += 1;
        };
        for (x, y) in first.iter() {
            bin(&mut reference, x, y);
        }
        let mut order: Vec<Vec<usize>> = reference.keys().cloned().collect();
        for (x, y) in batches.iter().flat_map(|b| b.iter()) {
            let cell = grid.cell_index(x);
            if !reference.contains_key(&cell) {
                order.push(cell);
            }
            bin(&mut reference, x, y);
        }

        assert_eq!(s.observed_cells(), order.len());
        assert_eq!(s.sums.len(), order.len());
        assert_eq!(s.counts.len(), order.len());
        for (e, cell) in order.iter().enumerate() {
            let at: Vec<usize> = s.obs.index(e).iter().map(|&c| c as usize).collect();
            assert_eq!(&at, cell, "entry {e} holds another cell");
            let (sum, count) = reference[cell];
            assert_eq!(s.sums[e].to_bits(), sum.to_bits(), "sum of entry {e}");
            assert_eq!(s.counts[e], count, "count of entry {e}");
        }
        // `by_cell` lists every entry once, in ascending cell order.
        assert_eq!(s.by_cell.len(), order.len());
        let by_cell: Vec<&[u32]> = s.by_cell.iter().map(|&e| s.obs.index(e as usize)).collect();
        assert!(by_cell.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.samples(), 120 + 200 + 150);
    }

    /// The refit path pinned bit for bit: a fit on the low corner of the
    /// space, then updates that revisit cells, add cells, add a cell and
    /// revise it within one batch, absorb without sweeps, and a resumed
    /// trainer's first refit. Checked in both profiles and at every pool
    /// width CI runs.
    #[test]
    fn refit_bits_are_pinned() {
        let builder = CprBuilder::new(space())
            .cells_per_dim(8)
            .rank(4)
            .regularization(1e-7);
        let mut checksum = 0xcbf2_9ce4_8422_2325;
        let mut s = StreamingCpr::fit(&builder, &integer_batch(120, 32, 600, 60)).unwrap();
        fold_trainer(&mut checksum, &s);

        // Revisits the fitted corner and adds cells up to 2048.
        let trace = s.update(&integer_batch(200, 32, 2048, 61), 6).unwrap();
        fnv(&mut checksum, trace.objective);
        fold_trainer(&mut checksum, &s);

        // One cell beyond 2048, added and revised in the same batch, among
        // revisits.
        let cells = s.observed_cells();
        let mut batch = integer_batch(20, 64, 1024, 62);
        batch.push(vec![4000.0, 3900.0], 2.5);
        batch.push(vec![3950.0, 4000.0], 2.75);
        let trace = s.update(&batch, 6).unwrap();
        assert_eq!(s.observed_cells(), cells + 1, "one new cell");
        fnv(&mut checksum, trace.objective);
        fold_trainer(&mut checksum, &s);

        s.absorb(&integer_batch(80, 32, 4096, 63)).unwrap();
        fold_trainer(&mut checksum, &s);
        let trace = s.update(&integer_batch(150, 32, 4096, 64), 6).unwrap();
        fnv(&mut checksum, trace.objective);
        fold_trainer(&mut checksum, &s);

        let mut r = StreamingCpr::resume(s.model().clone()).unwrap();
        let trace = r.update(&integer_batch(150, 32, 4096, 65), 6).unwrap();
        fnv(&mut checksum, trace.objective);
        fold_trainer(&mut checksum, &r);

        assert_eq!(
            checksum, 0xcf53_24d7_919a_84a4,
            "refit bits moved: {checksum:#018x}"
        );
    }
}
