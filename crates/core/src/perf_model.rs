//! The workspace-wide performance-model interface.
//!
//! The paper's evaluation (§6.0.4) compares CPR against eight baseline
//! regression families through one protocol: fit on a [`Dataset`], predict
//! execution times for raw configurations, report Table 1 metrics and a
//! serialized size. [`PerfModel`] is that protocol as an object-safe trait,
//! implemented by [`crate::CprModel`], [`crate::CprExtrapolator`], and —
//! through the [`BaselineModel`] bridge — every
//! [`cpr_baselines::Regressor`]. The consumer surfaces
//! ([`crate::search()`], [`crate::random_search`], the `cpr_bench` harness)
//! run over `&dyn PerfModel`, so a figure binary sweeps model families
//! through one code path.
//!
//! Conventions baked into the bridge (so callers never repeat them):
//! baselines consume **log-transformed** features
//! ([`transform_features`]) and log execution times, and exponentiate
//! predictions back to time units — exactly the paper's §6.0.4 protocol,
//! previously duplicated by every harness call site.

use crate::dataset::Dataset;
use crate::error::{CprError, Result};
use crate::metrics::{Metrics, MetricsAccum};
use cpr_baselines::Regressor;
use cpr_grid::{ParamSpace, ParamSpec};

/// A fitted application performance model: predicts execution time (in the
/// measurement's units, always positive-finite for valid inputs) from a
/// **raw** configuration vector over its [`ParamSpace`].
///
/// Object-safe by construction — consumer code holds `Box<dyn PerfModel>` /
/// `&dyn PerfModel` and never branches on the family. Construction stays on
/// the family-specific builders (or [`PerfModelBuilder`] for fully generic
/// pipelines); deserialization is family-specific too
/// ([`crate::serialize::from_bytes`] for CPR).
pub trait PerfModel: Send + Sync {
    /// Short identifier used by experiment-harness tables (e.g. `"CPR"`).
    fn name(&self) -> &str;

    /// The parameter space predictions are defined over.
    fn space(&self) -> &ParamSpace;

    /// Predict the execution time of one raw configuration.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predict a batch onto a caller-provided buffer, output order matching
    /// input order. Implementations may parallelize internally.
    fn predict_into(&self, xs: &[&[f64]], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "predict_into: output length mismatch");
        for (o, x) in out.iter_mut().zip(xs) {
            *o = self.predict(x);
        }
    }

    /// Predict a batch, allocating the output vector.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let mut out = vec![0.0; xs.len()];
        self.predict_into(&refs, &mut out);
        out
    }

    /// Evaluate against a labeled dataset: batch predictions, then the
    /// Table 1 metrics accumulated in one sequential pass.
    fn evaluate(&self, data: &Dataset) -> Metrics {
        let refs: Vec<&[f64]> = data.samples().iter().map(AsRef::as_ref).collect();
        let mut preds = vec![0.0; data.len()];
        self.predict_into(&refs, &mut preds);
        let mut accum = MetricsAccum::new();
        for (pred, (_, y)) in preds.iter().zip(data.iter()) {
            accum.push(*pred, y);
        }
        accum.finish()
    }

    /// Serialized model size in bytes (the Figure 7 quantity).
    fn size_bytes(&self) -> usize;

    /// Serialize the inference state to bytes. Families without a binary
    /// format report [`CprError::Unsupported`].
    fn to_bytes(&self) -> Result<Box<[u8]>> {
        Err(CprError::Unsupported(format!(
            "{} does not serialize to bytes",
            self.name()
        )))
    }
}

/// A fit-from-[`Dataset`] factory producing boxed [`PerfModel`]s — the
/// construction half of the generic protocol (object-safe, so a harness
/// holds `Vec<Box<dyn PerfModelBuilder>>` and sweeps families in a loop).
pub trait PerfModelBuilder: Send + Sync {
    /// Family identifier for result tables.
    fn name(&self) -> &str;

    /// Fit a model on the dataset.
    fn fit_boxed(&self, data: &Dataset) -> Result<Box<dyn PerfModel>>;
}

/// Log-transform a raw configuration for baseline models: `h`-transform
/// (log for log-spaced axes, identity for uniform) on numerical parameters,
/// index passthrough for categorical ones (tree/kernel models handle
/// integer-coded categories, as sklearn does). §6.0.4's feature protocol.
pub fn transform_features(space: &ParamSpace, x: &[f64]) -> Vec<f64> {
    space
        .params()
        .iter()
        .zip(x)
        .map(|(p, &v)| match p {
            ParamSpec::Numerical { .. } => p.h(v),
            ParamSpec::Categorical { .. } => v,
        })
        .collect()
}

/// The [`Regressor`] → [`PerfModel`] bridge: pairs a fitted baseline with
/// its parameter space and owns the §6.0.4 transforms (log features in,
/// exponentiated predictions out). Works for any regressor type, boxed
/// (`BaselineModel<Box<dyn Regressor>>`, what [`BaselineFamily`] builds) or
/// concrete (`BaselineModel<Knn>`).
#[derive(Debug, Clone)]
pub struct BaselineModel<R> {
    space: ParamSpace,
    inner: R,
}

impl<R: Regressor> BaselineModel<R> {
    /// Wrap an **already fitted** regressor. (`fit_on` fits and wraps.)
    pub fn new(space: ParamSpace, inner: R) -> Self {
        Self { space, inner }
    }

    /// Fit `inner` on the dataset (applying the log transforms) and wrap.
    pub fn fit_on(space: ParamSpace, mut inner: R, data: &Dataset) -> Result<Self> {
        if data.is_empty() {
            return Err(CprError::EmptyDataset);
        }
        let d = space.dim();
        let mut xs = Vec::with_capacity(data.len());
        let mut ys = Vec::with_capacity(data.len());
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
            xs.push(transform_features(&space, x));
            ys.push(y.ln());
        }
        inner.fit(&xs, &ys);
        Ok(Self { space, inner })
    }

    /// The wrapped regressor.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: Regressor> PerfModel for BaselineModel<R> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.inner
            .predict(&transform_features(&self.space, x))
            .exp()
    }

    fn predict_into(&self, xs: &[&[f64]], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "predict_into: output length mismatch");
        let logx: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| transform_features(&self.space, x))
            .collect();
        let preds = self.inner.predict_batch(&logx);
        for (o, p) in out.iter_mut().zip(preds) {
            *o = p.exp();
        }
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

/// A baseline model family as a generic [`PerfModelBuilder`]: a parameter
/// space plus a factory for fresh (unfitted) regressors.
pub struct BaselineFamily {
    name: String,
    space: ParamSpace,
    factory: Box<dyn Fn() -> Box<dyn Regressor> + Send + Sync>,
}

impl BaselineFamily {
    /// Build a family from any `Fn() -> Box<dyn Regressor>` factory (the
    /// shape `cpr_baselines::tune` grids produce).
    pub fn new(
        name: impl Into<String>,
        space: ParamSpace,
        factory: impl Fn() -> Box<dyn Regressor> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            space,
            factory: Box::new(factory),
        }
    }
}

impl PerfModelBuilder for BaselineFamily {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit_boxed(&self, data: &Dataset) -> Result<Box<dyn PerfModel>> {
        let model = BaselineModel::fit_on(self.space.clone(), (self.factory)(), data)?;
        Ok(Box::new(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_baselines::{Knn, KnnConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn power_law(n: usize, seed: u64) -> (ParamSpace, Dataset) {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 2048.0),
            ParamSpec::log("n", 32.0, 2048.0),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n {
            let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
            let nn = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
            data.push(vec![m, nn], 1e-4 * m.powf(1.3) * nn.powf(0.7));
        }
        (space, data)
    }

    #[test]
    fn bridge_applies_the_6_0_4_transforms() {
        let (space, train) = power_law(800, 1);
        let (_, test) = power_law(150, 2);
        let model = BaselineModel::fit_on(space, Knn::new(KnnConfig::default()), &train).unwrap();
        let m = model.evaluate(&test);
        assert!(m.mlogq < 0.2, "KNN through the bridge: MLogQ {}", m.mlogq);
        // predict() and predict_into() agree.
        let probe = vec![100.0, 700.0];
        let mut out = [0.0];
        model.predict_into(&[&probe], &mut out);
        assert_eq!(out[0].to_bits(), model.predict(&probe).to_bits());
        assert!(model.size_bytes() > 0);
        assert!(model.to_bytes().is_err(), "baselines have no byte format");
    }

    #[test]
    fn bridge_rejects_bad_datasets() {
        let (space, _) = power_law(1, 3);
        let knn = Knn::new(KnnConfig::default());
        assert!(matches!(
            BaselineModel::fit_on(space.clone(), knn.clone(), &Dataset::new()),
            Err(CprError::EmptyDataset)
        ));
        let mut bad = Dataset::new();
        bad.push(vec![100.0], 1.0);
        assert!(matches!(
            BaselineModel::fit_on(space.clone(), knn.clone(), &bad),
            Err(CprError::DimensionMismatch { .. })
        ));
        let mut neg = Dataset::new();
        neg.push(vec![100.0, 100.0], -1.0);
        assert!(matches!(
            BaselineModel::fit_on(space, knn, &neg),
            Err(CprError::NonPositiveTime { .. })
        ));
    }

    #[test]
    fn family_builder_fits_boxed_models() {
        let (space, train) = power_law(500, 4);
        let (_, test) = power_law(100, 5);
        let family = BaselineFamily::new("KNN", space, || {
            Box::new(Knn::new(KnnConfig::default())) as Box<dyn Regressor>
        });
        assert_eq!(family.name(), "KNN");
        let model = family.fit_boxed(&train).unwrap();
        assert_eq!(model.name(), "KNN");
        assert!(model.evaluate(&test).mlogq < 0.25);
    }
}
