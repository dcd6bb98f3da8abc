//! Optimizer selection over one completion problem (paper §4.2).
//!
//! The paper treats its §4.2 methods as interchangeable optimizers of the
//! same Eq. 3 objective; CPR fits with two of them, ALS under log-least
//! squares (§5.2) and AMN under MLogQ² (§5.3), and Tucker-ALS runs the same
//! alternating scheme over the Tucker model class. This module makes that
//! interchangeability concrete: an [`Optimizer`] tag, the shared
//! [`CompletionSpec`] configuration every optimizer understands (ridge
//! strength, stop rule), and one [`complete`] entry point that dispatches a
//! [`Decomposition`] through the matching **streamed** sweep
//! implementation. Optimizer-specific knobs (AMN's barrier schedule, ALS's
//! count scaling) keep their per-optimizer defaults; callers needing them
//! still reach the concrete `als`/`amn`/`tucker_als` functions directly.

use crate::als::{als, AlsConfig};
use crate::amn::{amn, AmnConfig};
use crate::convergence::{StopRule, Trace};
use crate::tucker_als::{tucker_als, TuckerConfig};
use cpr_tensor::{Decomposition, SparseTensor};

/// Which §4.2 optimization method fits the completion problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Optimizer {
    /// Alternating least squares (§4.2.1) — the CPR interpolation default.
    #[default]
    Als,
    /// Alternating minimization via Newton's method under MLogQ² loss with
    /// log-barrier positivity (§4.2.2) — required by §5.3 extrapolation.
    Amn,
    /// Alternating least squares over the Tucker model class (§8).
    TuckerAls,
}

impl Optimizer {
    /// Every optimizer, in serialization-tag order.
    pub const ALL: [Optimizer; 3] = [Optimizer::Als, Optimizer::Amn, Optimizer::TuckerAls];

    /// Short identifier (experiment-harness tables, serialization debug).
    pub fn name(&self) -> &'static str {
        match self {
            Optimizer::Als => "als",
            Optimizer::Amn => "amn",
            Optimizer::TuckerAls => "tucker-als",
        }
    }

    /// Does this optimizer maintain strictly positive factors (and hence
    /// require positive observation entries / the MLogQ² loss)?
    pub fn requires_positive(&self) -> bool {
        matches!(self, Optimizer::Amn)
    }

    /// Does this optimizer fit the Tucker model class (vs. CP)?
    pub fn fits_tucker(&self) -> bool {
        matches!(self, Optimizer::TuckerAls)
    }
}

/// The optimizer-independent slice of a fit configuration: what every §4.2
/// method understands. Optimizer-specific knobs stay at their defaults.
#[derive(Debug, Clone, Copy)]
pub struct CompletionSpec {
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Stopping rule (sweep cap + relative-decrease tolerance).
    pub stop: StopRule,
    /// Read by no optimizer (each is deterministic given its initial
    /// factors). Kept only because the end-to-end benchmark
    /// (`e2ebench/src/fit.rs`) builds this struct field by field; it goes
    /// with that use.
    pub seed: u64,
}

impl Default for CompletionSpec {
    fn default() -> Self {
        Self {
            lambda: 1e-5,
            stop: StopRule::default(),
            seed: 0,
        }
    }
}

/// Run `optimizer` on the decomposition in place and return its sweep
/// trace. The decomposition variant must match the optimizer's model class
/// — CP for `Als | Amn`, Tucker for `TuckerAls`; a mismatch is
/// a caller bug and panics (the `cpr_core` builder layer constructs the
/// matching variant and reports configuration errors as typed results
/// before ever reaching this point).
pub fn complete(
    decomp: &mut Decomposition,
    obs: &SparseTensor,
    optimizer: Optimizer,
    spec: &CompletionSpec,
) -> Trace {
    match (optimizer, decomp) {
        (Optimizer::Als, Decomposition::Cp(cp)) => als(
            cp,
            obs,
            &AlsConfig {
                lambda: spec.lambda,
                stop: spec.stop,
                scale_by_count: true,
            },
        ),
        (Optimizer::Amn, Decomposition::Cp(cp)) => amn(
            cp,
            obs,
            &AmnConfig {
                lambda: spec.lambda,
                stop: spec.stop,
                ..AmnConfig::default()
            },
        ),
        (Optimizer::TuckerAls, Decomposition::Tucker(t)) => tucker_als(
            t,
            obs,
            &TuckerConfig {
                lambda: spec.lambda,
                stop: spec.stop,
            },
        ),
        (opt, d) => panic!(
            "complete: optimizer {} does not fit a {} decomposition",
            opt.name(),
            match d {
                Decomposition::Cp(_) => "CP",
                Decomposition::Tucker(_) => "Tucker",
            }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_tensor::{CpDecomp, TuckerDecomp};

    fn sampled_obs(dims: &[usize], seed: u64) -> SparseTensor {
        let truth = CpDecomp::random(dims, 2, 0.4, 1.2, seed);
        let mut obs = SparseTensor::new(dims);
        let mut idx = vec![0usize; dims.len()];
        // Deterministic ~70% mask without an RNG: a simple index hash.
        loop {
            let h = idx.iter().fold(seed, |a, &i| {
                a.wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64 ^ 0x9e37)
            });
            if h % 10 < 7 {
                obs.push(&idx, truth.eval(&idx));
            }
            let mut j = dims.len();
            loop {
                if j == 0 {
                    return obs;
                }
                j -= 1;
                idx[j] += 1;
                if idx[j] < dims[j] {
                    break;
                }
                idx[j] = 0;
            }
        }
    }

    /// The least-squares CP optimizer (AMN, on positive data, has its own
    /// case below).
    #[test]
    fn every_cp_optimizer_dispatches_and_descends() {
        let dims = [6usize, 5, 4];
        let obs = sampled_obs(&dims, 3);
        let mut d = Decomposition::Cp(CpDecomp::random(&dims, 2, 0.1, 1.0, 7));
        let spec = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule {
                max_sweeps: 30,
                tol: 1e-10,
            },
            seed: 1,
        };
        let trace = complete(&mut d, &obs, Optimizer::Als, &spec);
        assert!(trace.sweeps() >= 1, "no sweeps ran");
        assert!(
            trace.final_objective() <= trace.objective[0] + 1e-9,
            "objective rose: {:?}",
            trace.objective
        );
    }

    #[test]
    fn amn_dispatches_on_positive_data() {
        let dims = [5usize, 4];
        let mut obs = sampled_obs(&dims, 9);
        obs.map_values_mut(|v| v.abs() + 0.5);
        let mut d = Decomposition::Cp(crate::amn::init_positive(&dims, 2, 1.0, 11));
        let trace = complete(&mut d, &obs, Optimizer::Amn, &CompletionSpec::default());
        assert!(trace.sweeps() >= 1);
        assert!(d.is_strictly_positive());
    }

    #[test]
    fn tucker_dispatches() {
        let dims = [5usize, 4, 3];
        let obs = sampled_obs(&dims, 17);
        let mut d = Decomposition::Tucker(TuckerDecomp::random(&dims, &[2, 2, 2], 0.1, 1.0, 19));
        let trace = complete(
            &mut d,
            &obs,
            Optimizer::TuckerAls,
            &CompletionSpec::default(),
        );
        assert!(trace.sweeps() >= 1);
        assert!(trace.is_monotone(1e-9), "{:?}", trace.objective);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn model_class_mismatch_panics() {
        let dims = [4usize, 3];
        let obs = sampled_obs(&dims, 23);
        let mut d = Decomposition::Cp(CpDecomp::random(&dims, 2, 0.1, 1.0, 29));
        complete(
            &mut d,
            &obs,
            Optimizer::TuckerAls,
            &CompletionSpec::default(),
        );
    }

    #[test]
    fn names_and_tags_are_stable() {
        assert_eq!(Optimizer::ALL.len(), 3);
        assert_eq!(Optimizer::default(), Optimizer::Als);
        assert!(Optimizer::Amn.requires_positive());
        assert!(Optimizer::TuckerAls.fits_tucker());
        assert!(!Optimizer::Als.requires_positive());
    }
}
