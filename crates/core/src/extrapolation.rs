//! CPR extrapolation (paper §5.3).
//!
//! A general CP decomposition cannot predict beyond its grid: unseen factor
//! rows would have to be invented, and sign cancellations make them
//! structureless. The paper's remedy:
//!
//! 1. Train a *strictly positive* CP model with the interior-point AMN
//!    optimizer under MLogQ² loss ([`cpr_completion::amn()`]).
//! 2. For each numerical mode, take the best rank-1 approximation
//!    `U ≈ û σ̂ v̂ᵀ` of its factor matrix (positive by Perron-Frobenius).
//! 3. Fit a MARS spline `m̂` to the log of the left singular vector û
//!    against the (h-transformed) grid mid-points.
//! 4. For a configuration whose parameter `x_j` leaves the modeled range,
//!    replace mode `j`'s factor row by `exp(m̂(h_j(x_j))) · σ̂ · v̂` and keep
//!    the other modes' factor rows (interpolated as usual when in-domain,
//!    point-indexed otherwise).

use crate::dataset::Dataset;
use crate::error::{CprError, Result};
use crate::metrics::Metrics;
use crate::model::{CprBuilder, CprModel, Loss};
use cpr_baselines::mars::{fit_univariate_spline, Mars};
use cpr_baselines::Regressor;
use cpr_grid::space::interpolate_corners;
use cpr_grid::ParamSpace;
use cpr_tensor::linalg::dominant_triple;
use rayon::prelude::*;

/// Per-mode rank-1 factorization plus the spline over `log û`.
#[derive(Debug, Clone)]
struct ModeExtrapolator {
    sigma: f64,
    /// Right singular vector (one entry per CP rank component).
    v: Vec<f64>,
    /// MARS spline fitted on `(h_j(M_i), log û_i)`.
    spline: Mars,
}

impl ModeExtrapolator {
    /// The virtual factor row for an out-of-domain parameter value, already
    /// h-transformed by the caller: `exp(m̂(h)) σ̂ v̂_r` (paper §5.3).
    fn virtual_row(&self, h: f64) -> Vec<f64> {
        let scale = self.spline.predict(&[h]).exp() * self.sigma;
        self.v.iter().map(|&vr| scale * vr).collect()
    }
}

/// Builder for [`CprExtrapolator`]: a thin wrapper over [`CprBuilder`]
/// that pins the optimizer/loss pair to AMN/MLogQ² (positivity is required
/// by the rank-1/Perron argument) and adds the one extrapolation-specific
/// knob (spline term cap). Every other field — cells, rank, λ, sweeps,
/// seed — is the wrapped builder's [`crate::FitSpec`]; there is no second
/// copy of the configuration.
#[derive(Debug, Clone)]
pub struct CprExtrapolatorBuilder {
    inner: CprBuilder,
    spline_max_terms: usize,
}

impl CprExtrapolatorBuilder {
    /// Start a builder; defaults mirror [`CprBuilder`] with AMN/MLogQ²
    /// forced.
    pub fn new(space: ParamSpace) -> Self {
        Self::from_builder(CprBuilder::new(space))
    }

    /// Wrap an existing [`CprBuilder`], reusing its whole fit
    /// configuration. The optimizer/loss selection is overridden to
    /// AMN/MLogQ² — the only regime the §5.3 construction is sound in.
    pub fn from_builder(builder: CprBuilder) -> Self {
        Self {
            inner: builder
                .optimizer(cpr_completion::Optimizer::Amn)
                .loss(Loss::MLogQ2),
            spline_max_terms: 12,
        }
    }

    /// The wrapped base-model builder.
    pub fn builder(&self) -> &CprBuilder {
        &self.inner
    }

    /// Same cell count along every numerical mode.
    pub fn cells_per_dim(mut self, cells: usize) -> Self {
        self.inner = self.inner.cells_per_dim(cells);
        self
    }

    /// Per-mode cell counts.
    pub fn cells(mut self, cells: Vec<usize>) -> Self {
        self.inner = self.inner.cells(cells);
        self
    }

    /// CP rank.
    pub fn rank(mut self, rank: usize) -> Self {
        self.inner = self.inner.rank(rank);
        self
    }

    /// Ridge regularization λ.
    pub fn regularization(mut self, lambda: f64) -> Self {
        self.inner = self.inner.regularization(lambda);
        self
    }

    /// Optimizer sweep cap.
    pub fn max_sweeps(mut self, sweeps: usize) -> Self {
        self.inner = self.inner.max_sweeps(sweeps);
        self
    }

    /// Factor-initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.seed(seed);
        self
    }

    /// Cap on MARS spline terms for the singular-vector fits.
    pub fn spline_max_terms(mut self, terms: usize) -> Self {
        self.spline_max_terms = terms;
        self
    }

    /// Train the positive CP model and fit per-mode extrapolation splines.
    pub fn fit(&self, data: &Dataset) -> Result<CprExtrapolator> {
        CprExtrapolator::from_model(self.inner.fit(data)?, self.spline_max_terms)
    }
}

/// A CPR model extended with §5.3 extrapolation along numerical modes.
#[derive(Debug, Clone)]
pub struct CprExtrapolator {
    model: CprModel,
    modes: Vec<Option<ModeExtrapolator>>,
}

impl CprExtrapolator {
    /// Fit the per-mode rank-1 factorizations and splines of §5.3 over a
    /// positive CP model.
    fn from_model(model: CprModel, spline_max_terms: usize) -> Result<CprExtrapolator> {
        if !model.cp().is_strictly_positive() {
            return Err(CprError::InvalidConfig(
                "AMN training did not preserve factor positivity".into(),
            ));
        }
        let grid = model.grid();
        let mut modes = Vec::with_capacity(grid.order());
        for mode in 0..grid.order() {
            let axis = grid.axis(mode);
            if axis.spec().is_categorical() || axis.len() < 2 {
                modes.push(None);
                continue;
            }
            let triple = dominant_triple(model.cp().factor(mode), 1e-12, 1000);
            // Perron-Frobenius: û of a positive factor is positive; clamp
            // against round-off before the log.
            let log_u: Vec<f64> = triple.u.iter().map(|&u| u.max(1e-300).ln()).collect();
            let h: Vec<f64> = axis.midpoints().iter().map(|&m| axis.spec().h(m)).collect();
            let spline = fit_univariate_spline(&h, &log_u, spline_max_terms);
            modes.push(Some(ModeExtrapolator {
                sigma: triple.sigma,
                v: triple.v,
                spline,
            }));
        }
        Ok(CprExtrapolator { model, modes })
    }

    /// The underlying positive CPR model (valid for in-domain predictions).
    pub fn model(&self) -> &CprModel {
        &self.model
    }

    /// Predict the execution time of a configuration, extrapolating along
    /// any numerical parameter outside its modeled range. A configuration
    /// with no extrapolated mode out of its domain goes straight to the
    /// standard Eq. 5 path — served by the base model's compiled
    /// [`crate::PredictPlan`] — before any other work. Otherwise the
    /// corner sum is [`interpolate_corners`] over the raw grid stencils,
    /// with each extrapolated mode entering as a point stencil whose one
    /// corner multiplies in the virtual spline row; factor rows come from
    /// the plan's packed (SoA) bake.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let grid = self.model.grid();
        assert_eq!(
            x.len(),
            grid.order(),
            "predict: configuration order mismatch"
        );
        let out_of_domain = x
            .iter()
            .zip(&self.modes)
            .enumerate()
            .any(|(j, (&xj, mode))| mode.is_some() && !grid.axis(j).spec().in_domain(xj));
        if !out_of_domain {
            return self.model.predict(x);
        }
        // In-domain numerical and all categorical modes keep their Eq. 5
        // stencils (out-of-domain categorical values clamp); out-of-domain
        // numerical modes are replaced by the virtual spline row and, per
        // §5.3, excluded from interpolation.
        let mut virtual_rows: Vec<Option<Vec<f64>>> = Vec::with_capacity(x.len());
        let mut stencils = Vec::with_capacity(x.len());
        for (j, (&xj, mode)) in x.iter().zip(&self.modes).enumerate() {
            let axis = grid.axis(j);
            match mode {
                Some(me) if !axis.spec().in_domain(xj) => {
                    virtual_rows.push(Some(me.virtual_row(axis.spec().h(xj))));
                    stencils.push((0, 0, 1.0));
                }
                _ => {
                    virtual_rows.push(None);
                    stencils.push(axis.stencil(xj));
                }
            }
        }
        let plan = self.model.plan();
        let mut acc = vec![0.0; plan.rank()];
        let total = interpolate_corners(&stencils, |idx| {
            acc.fill(1.0);
            for (j, (&i, row)) in idx.iter().zip(&virtual_rows).enumerate() {
                let row = row.as_deref().unwrap_or_else(|| plan.factor_row(j, i));
                for (a, &r) in acc.iter_mut().zip(row) {
                    *a *= r;
                }
            }
            acc.iter().sum()
        });
        total.max(1e-12)
    }

    /// Predict a batch of configurations, in parallel across samples.
    pub fn predict_batch<X: AsRef<[f64]> + Sync>(&self, xs: &[X]) -> Vec<f64> {
        xs.par_iter().map(|x| self.predict(x.as_ref())).collect()
    }

    /// Evaluate against a labeled dataset (parallel predictions).
    pub fn evaluate(&self, data: &Dataset) -> Metrics {
        let preds = self.predict_batch(data.samples());
        Metrics::compute(&preds, &data.ys())
    }

    /// Serialized size: base model + per-mode rank-1 data + splines.
    pub fn size_bytes(&self) -> usize {
        let extras: usize = self
            .modes
            .iter()
            .flatten()
            .map(|m| 8 + m.v.len() * 8 + m.spline.size_bytes())
            .sum();
        self.model.size_bytes() + extras
    }
}

impl crate::perf_model::PerfModel for CprExtrapolator {
    fn name(&self) -> &str {
        "CPR-E"
    }

    fn space(&self) -> &cpr_grid::ParamSpace {
        self.model.space()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        CprExtrapolator::predict(self, x)
    }

    fn predict_into(&self, xs: &[&[f64]], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "predict_into: output length mismatch");
        // Write predictions straight into the caller's buffer (parallel
        // over chunks, output at the input index) — no intermediate batch
        // vector.
        const CHUNK: usize = 256;
        out.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| {
                let base = c * CHUNK;
                for (k, o) in chunk.iter_mut().enumerate() {
                    *o = CprExtrapolator::predict(self, xs[base + k]);
                }
            });
    }

    fn evaluate(&self, data: &Dataset) -> Metrics {
        CprExtrapolator::evaluate(self, data)
    }

    fn size_bytes(&self) -> usize {
        CprExtrapolator::size_bytes(self)
    }
}

impl crate::perf_model::PerfModelBuilder for CprExtrapolatorBuilder {
    fn name(&self) -> &str {
        "CPR-E"
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

    /// Power-law data over a *training* range; tests extrapolate beyond it.
    fn power_law_data(m_hi: f64, n_samples: usize, seed: u64) -> (ParamSpace, Dataset) {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, m_hi),
            ParamSpec::log("n", 32.0, 2048.0),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n_samples {
            let m = 32.0 * (m_hi / 32.0).powf(rng.gen::<f64>());
            let n = 32.0 * (2048.0_f64 / 32.0).powf(rng.gen::<f64>());
            data.push(vec![m, n], 2e-4 * m.powf(1.5) * n.powf(0.9));
        }
        (space, data)
    }

    #[test]
    fn extrapolates_power_law_along_one_mode() {
        // Train with m <= 512, test at m in [1024, 4096].
        let (space, train) = power_law_data(512.0, 1500, 1);
        // Rank 2 on exactly-rank-1 truth leaves the split between the two
        // components under-determined, and extrapolation quality tracks how
        // much structure the non-dominant component soaked up — so this test
        // pins the factor-init seed (as the rest of the suite does) rather
        // than gambling on the builder default.
        let ex = CprExtrapolatorBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-8)
            .seed(1)
            .fit(&train)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut test = Dataset::new();
        for _ in 0..100 {
            let m = 1024.0 * 4.0_f64.powf(rng.gen::<f64>());
            let n = 32.0 * (2048.0_f64 / 32.0).powf(rng.gen::<f64>());
            test.push(vec![m, n], 2e-4 * m.powf(1.5) * n.powf(0.9));
        }
        let metrics = ex.evaluate(&test);
        assert!(
            metrics.mlogq < 0.35,
            "extrapolation MLogQ {} (mean factor {:.2})",
            metrics.mlogq,
            metrics.mean_factor()
        );
    }

    /// A configuration with no extrapolated mode out of its domain is the
    /// base model's prediction, bit for bit: integral and fractional
    /// values, both ends of each range, and a categorical value outside
    /// its choices (categorical modes clamp, never extrapolate).
    #[test]
    fn in_domain_falls_through_to_base_model() {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 2048.0),
            ParamSpec::log_int("n", 32.0, 2048.0),
            ParamSpec::categorical("alg", 3),
        ]);
        let cp = cpr_completion::init_positive(&[6, 6, 3], 2, 3.0, 5);
        let model = CprModel::from_parts(space, &[6, 6, 3], cp, Loss::MLogQ2, 0.0).unwrap();
        let ex = CprExtrapolator::from_model(model, 12).unwrap();
        let probes = [
            [300.0, 300.0, 1.0],
            [300.5, 1000.5, 0.0],
            [77.25, 33.0, 2.0],
            [32.0, 32.0, 0.0],
            [2048.0, 2048.0, 2.0],
            [32.0, 2048.0, 1.0],
            [500.0, 64.0, 7.0],
            [2048.0, 32.0, -3.0],
        ];
        for x in probes {
            let want = ex.model().predict(&x).to_bits();
            assert_eq!(ex.predict(&x).to_bits(), want, "{x:?}");
        }
    }

    #[test]
    fn predictions_always_positive() {
        let (space, train) = power_law_data(512.0, 800, 4);
        let ex = CprExtrapolatorBuilder::new(space)
            .cells_per_dim(6)
            .rank(2)
            .fit(&train)
            .unwrap();
        for m in [8.0, 512.0, 100_000.0] {
            for n in [8.0, 100_000.0] {
                assert!(ex.predict(&[m, n]) > 0.0, "non-positive at ({m},{n})");
            }
        }
    }

    #[test]
    fn multi_mode_extrapolation() {
        // Both parameters out of range simultaneously.
        let (space, train) = power_law_data(512.0, 1500, 5);
        let ex = CprExtrapolatorBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-8)
            .fit(&train)
            .unwrap();
        let m: f64 = 2048.0;
        let n: f64 = 4096.0;
        let truth = 2e-4 * m.powf(1.5) * n.powf(0.9);
        let pred = ex.predict(&[m, n]);
        let logq = (pred / truth).ln().abs();
        assert!(logq < 0.8, "multi-mode extrapolation |logQ| = {logq}");
    }

    #[test]
    fn categorical_modes_are_never_extrapolated() {
        let space = ParamSpace::new(vec![
            ParamSpec::log("n", 32.0, 512.0),
            ParamSpec::categorical("alg", 2),
        ]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = Dataset::new();
        for _ in 0..600 {
            let n = 32.0 * 16.0_f64.powf(rng.gen::<f64>());
            let alg = rng.gen_range(0..2usize);
            data.push(vec![n, alg as f64], 1e-3 * [1.0, 2.0][alg] * n);
        }
        let ex = CprExtrapolatorBuilder::new(space)
            .cells(vec![6, 2])
            .rank(2)
            .fit(&data)
            .unwrap();
        // Out-of-range category index clamps to the nearest valid choice.
        let p_valid = ex.predict(&[100.0, 1.0]);
        let p_clamped = ex.predict(&[100.0, 7.0]);
        assert_eq!(p_valid, p_clamped);
    }

    #[test]
    fn from_builder_reuses_the_fit_spec_and_forces_amn() {
        let (space, train) = power_law_data(512.0, 700, 8);
        // A builder configured for plain ALS: wrapping it reuses the cells/
        // rank/seed fields but pins the optimizer to AMN (MLogQ²).
        let base = CprBuilder::new(space)
            .cells_per_dim(6)
            .rank(2)
            .seed(3)
            .optimizer(cpr_completion::Optimizer::Als);
        let ex = CprExtrapolatorBuilder::from_builder(base.clone())
            .fit(&train)
            .unwrap();
        assert_eq!(ex.model().optimizer(), cpr_completion::Optimizer::Amn);
        assert_eq!(ex.model().loss(), Loss::MLogQ2);
        assert!(ex.model().cp().is_strictly_positive());
        assert_eq!(ex.model().grid().axis(0).len(), 6);
        // The wrapped spec is observable (one config, not a copy).
        let wrapped = CprExtrapolatorBuilder::from_builder(base);
        assert_eq!(wrapped.builder().spec().rank, 2);
        assert_eq!(wrapped.builder().spec().seed, 3);
        assert_eq!(
            wrapped.builder().spec().optimizer,
            Some(cpr_completion::Optimizer::Amn)
        );
    }

    /// The §5.3 serve, pinned bitwise: an FNV-1a-style fold of `predict`
    /// over fixed probes, out of domain along one numerical mode, along
    /// both, and in domain, with a categorical mode riding along as a point
    /// stencil. The base model is a seeded positive CP model rather than a
    /// fit, so the pin checks the serve alone; the rank-1 factorizations
    /// and splines are fitted over it as `fit` does. (A fit would give the
    /// same bits in the debug and release profiles too, but this module's
    /// training data draws through a constant-base `powf`, which optimized
    /// builds rewrite as `exp2`.) The constant was recorded before the
    /// extrapolated corner sum moved onto `interpolate_corners`, and holds
    /// in both profiles.
    #[test]
    fn extrapolated_prediction_bits_are_pinned() {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 512.0),
            ParamSpec::log("n", 32.0, 2048.0),
            ParamSpec::categorical("alg", 2),
        ]);
        let cp = cpr_completion::init_positive(&[6, 6, 2], 2, 3.0, 4);
        let model = CprModel::from_parts(space, &[6, 6, 2], cp, Loss::MLogQ2, 0.0).unwrap();
        let ex = CprExtrapolator::from_model(model, 12).unwrap();
        // In-domain values first, then out-of-domain ones on both sides.
        let ms = [40.0, 200.0, 500.0, 10.0, 2048.0, 8192.0];
        let ns = [50.0, 1500.0, 4.0, 8192.0, 1e5];
        let mut checksum = 0xcbf2_9ce4_8422_2325u64;
        for &m in &ms {
            for &n in &ns {
                for alg in [0.0, 1.0] {
                    let bits = ex.predict(&[m, n, alg]).to_bits();
                    checksum = (checksum ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(checksum, 0x97a8_93cc_1f84_33f0);
    }

    #[test]
    fn size_accounts_for_splines() {
        let (space, train) = power_law_data(512.0, 500, 7);
        let ex = CprExtrapolatorBuilder::new(space)
            .cells_per_dim(6)
            .rank(2)
            .fit(&train)
            .unwrap();
        assert!(ex.size_bytes() > ex.model().size_bytes());
    }
}
