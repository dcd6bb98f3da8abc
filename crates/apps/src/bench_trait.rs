//! The common benchmark interface and §6.0.3 sampling rules.

use cpr_core::Dataset;
use cpr_grid::{ParamSpace, ParamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic application benchmark: a parameter space plus a cost model.
pub trait Benchmark: Send + Sync {
    /// Short identifier matching the paper's figures (e.g. `"MM"`).
    fn name(&self) -> &'static str;

    /// Benchmark-parameter space (paper Table 2 / §6.0.2).
    fn space(&self) -> ParamSpace;

    /// Noise-free model execution time for a configuration (seconds).
    fn base_time(&self, x: &[f64]) -> f64;

    /// Multiplicative log-normal noise level σ of one measurement. Kernel
    /// benchmarks are averaged 50× (to CV < 0.01, §6.0.3), applications run
    /// once — encode that difference here.
    fn noise_sigma(&self) -> f64 {
        0.05
    }

    /// Test-set size the paper uses for this benchmark (§6.0.3).
    fn paper_test_set_size(&self) -> usize;

    /// Draw one configuration: log-uniform for input/architectural
    /// parameters, uniform for configuration parameters, uniform over
    /// categorical choices; integer parameters rounded (§6.0.3).
    /// Benchmark-specific constraints (e.g. `64 ≤ ppn·tpp ≤ 128`, `m ≥ n`)
    /// are applied by [`Benchmark::constrain`].
    fn sample_config(&self, rng: &mut StdRng) -> Vec<f64> {
        let space = self.space();
        let mut x: Vec<f64> = space
            .params()
            .iter()
            .map(|p| match p {
                ParamSpec::Numerical {
                    lo,
                    hi,
                    spacing,
                    integer,
                    ..
                } => {
                    let v = match spacing {
                        cpr_grid::Spacing::Logarithmic => lo * (hi / lo).powf(rng.gen::<f64>()),
                        cpr_grid::Spacing::Uniform => lo + (hi - lo) * rng.gen::<f64>(),
                    };
                    if *integer {
                        v.round().clamp(*lo, *hi)
                    } else {
                        v
                    }
                }
                ParamSpec::Categorical { cardinality, .. } => rng.gen_range(0..*cardinality) as f64,
            })
            .collect();
        self.constrain(&mut x, rng);
        x
    }

    /// Enforce benchmark-specific configuration constraints in place.
    fn constrain(&self, _x: &mut [f64], _rng: &mut StdRng) {}

    /// One noisy measurement of a configuration.
    fn measure(&self, x: &[f64], rng: &mut StdRng) -> f64 {
        let sigma = self.noise_sigma();
        let z: f64 = standard_normal(rng);
        self.base_time(x) * (sigma * z).exp()
    }

    /// Generate a dataset of `n` sampled-and-measured configurations.
    fn sample_dataset(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n {
            let x = self.sample_config(&mut rng);
            let y = self.measure(&x, &mut rng);
            data.push(x, y);
        }
        data
    }
}

/// Standard normal draw via Box-Muller (keeps us off rand_distr).
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Enforce `64 ≤ ppn·tpp ≤ 128` by resampling tpp given ppn (both stay
/// powers-of-two-ish integers within range).
pub fn constrain_ppn_tpp(tpp: &mut f64, ppn: &mut f64, rng: &mut StdRng) {
    // Snap ppn to its sampled integer; derive a tpp bracket from the
    // constraint and resample inside it.
    let p = ppn.round().clamp(1.0, 64.0);
    let lo = (64.0 / p).max(1.0);
    let hi = (128.0 / p).min(64.0);
    let (lo, hi) = if lo > hi { (hi, hi) } else { (lo, hi) };
    let t = lo * (hi / lo).powf(rng.gen::<f64>());
    *ppn = p;
    *tpp = t.round().clamp(1.0, 64.0);
    // Final nudge: guarantee the product bound despite rounding.
    while *tpp * p > 128.0 && *tpp > 1.0 {
        *tpp -= 1.0;
    }
    while *tpp * p < 64.0 && *tpp < 64.0 {
        *tpp += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ppn_tpp_constraint_always_satisfied() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let mut tpp = 1.0 + rng.gen::<f64>() * 63.0;
            let mut ppn = 1.0 + rng.gen::<f64>() * 63.0;
            constrain_ppn_tpp(&mut tpp, &mut ppn, &mut rng);
            let prod = tpp * ppn;
            assert!(
                (64.0..=128.0).contains(&prod),
                "ppn·tpp = {prod} ({ppn}·{tpp})"
            );
            assert!((1.0..=64.0).contains(&tpp));
            assert!((1.0..=64.0).contains(&ppn));
            assert_eq!(tpp, tpp.round());
            assert_eq!(ppn, ppn.round());
        }
    }
}
