//! Hyper-parameter grids of §6.0.4.
//!
//! The paper evaluates "all relevant model configurations using the same
//! training set" (no cross-validation) and reports, per training-set size or
//! model-size bucket, the best configuration. This module holds only the
//! grids, as factories of fresh unfitted models; the fit–score–pick loop
//! over them is the experiment harness's (`cpr_bench::fit_each` and
//! `cpr_bench::sweep_builders`, through `cpr_core`'s `BaselineFamily`
//! bridge, which owns the log transforms).

use crate::forest::{Forest, ForestConfig, ForestKind};
use crate::gb::{GbConfig, GradientBoosting};
use crate::gp::{GaussianProcess, GpConfig, Kernel};
use crate::knn::{Knn, KnnConfig};
use crate::mars::{Mars, MarsConfig};
use crate::mlp::{Activation, Mlp, MlpConfig};
use crate::sgr::{SgrConfig, SparseGridRegression};
use crate::svr::{Svr, SvrConfig, SvrKernel};
use crate::Regressor;

/// Candidate factory: produces fresh unfitted models spanning a §6.0.4 grid.
pub type Factory = Box<dyn Fn() -> Box<dyn Regressor> + Send + Sync>;

/// Which hyper-parameter budget to sweep: `Full` follows §6.0.4; `Quick`
/// subsamples each grid for fast harness runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepBudget {
    Full,
    Quick,
}

/// KNN: 1..6 neighbors.
pub fn knn_grid(budget: SweepBudget) -> Vec<Factory> {
    let ks: Vec<usize> = match budget {
        SweepBudget::Full => (1..=6).collect(),
        SweepBudget::Quick => vec![1, 3, 6],
    };
    ks.into_iter()
        .map(|k| {
            let f: Factory = Box::new(move || Box::new(Knn::new(KnnConfig { k, weighted: true })));
            f
        })
        .collect()
}

/// Forests (RF or ET): tree depth 2..16, tree count 1..64.
pub fn forest_grid(kind: ForestKind, budget: SweepBudget) -> Vec<Factory> {
    let (depths, counts): (Vec<usize>, Vec<usize>) = match budget {
        SweepBudget::Full => (vec![2, 4, 8, 12, 16], vec![1, 4, 16, 64]),
        SweepBudget::Quick => (vec![4, 10, 16], vec![8, 64]),
    };
    let mut out = Vec::new();
    for &max_depth in &depths {
        for &n_trees in &counts {
            let f: Factory = Box::new(move || {
                Box::new(Forest::new(ForestConfig {
                    kind,
                    n_trees,
                    max_depth,
                    min_samples_split: 2,
                    max_features: None,
                    seed: 0,
                }))
            });
            out.push(f);
        }
    }
    out
}

/// Gradient boosting: same depth/count sweep as forests.
pub fn gb_grid(budget: SweepBudget) -> Vec<Factory> {
    let (depths, counts): (Vec<usize>, Vec<usize>) = match budget {
        SweepBudget::Full => (vec![2, 4, 8, 12, 16], vec![1, 4, 16, 64]),
        SweepBudget::Quick => (vec![3, 6], vec![16, 64]),
    };
    let mut out = Vec::new();
    for &max_depth in &depths {
        for &n_trees in &counts {
            let f: Factory = Box::new(move || {
                Box::new(GradientBoosting::new(GbConfig {
                    n_trees,
                    max_depth,
                    learning_rate: 0.1,
                    min_samples_split: 2,
                    seed: 0,
                }))
            });
            out.push(f);
        }
    }
    out
}

/// GP: the paper's five covariance kernels.
pub fn gp_grid(budget: SweepBudget) -> Vec<Factory> {
    let kernels: Vec<Kernel> = match budget {
        SweepBudget::Full => vec![
            Kernel::RationalQuadratic {
                length_scale: 1.0,
                alpha: 1.0,
            },
            Kernel::Rbf { length_scale: 1.0 },
            Kernel::DotProduct { sigma0: 1.0 },
            Kernel::Matern32 { length_scale: 1.0 },
            Kernel::ConstantRbf {
                constant: 2.0,
                length_scale: 1.0,
            },
        ],
        SweepBudget::Quick => vec![
            Kernel::Rbf { length_scale: 1.0 },
            Kernel::Matern32 { length_scale: 1.0 },
        ],
    };
    kernels
        .into_iter()
        .map(|kernel| {
            let f: Factory = Box::new(move || {
                Box::new(GaussianProcess::new(GpConfig {
                    kernel,
                    noise: 1e-4,
                    max_train: 1024,
                }))
            });
            f
        })
        .collect()
}

/// SVM: poly (degree 1..3) and rbf kernels.
pub fn svm_grid(budget: SweepBudget) -> Vec<Factory> {
    let kernels: Vec<SvrKernel> = match budget {
        SweepBudget::Full => vec![
            SvrKernel::Rbf { gamma: 0.5 },
            SvrKernel::Poly {
                gamma: 1.0,
                coef0: 1.0,
                degree: 1,
            },
            SvrKernel::Poly {
                gamma: 1.0,
                coef0: 1.0,
                degree: 2,
            },
            SvrKernel::Poly {
                gamma: 1.0,
                coef0: 1.0,
                degree: 3,
            },
        ],
        SweepBudget::Quick => vec![
            SvrKernel::Rbf { gamma: 0.5 },
            SvrKernel::Poly {
                gamma: 1.0,
                coef0: 1.0,
                degree: 2,
            },
        ],
    };
    kernels
        .into_iter()
        .map(|kernel| {
            let f: Factory = Box::new(move || {
                Box::new(Svr::new(SvrConfig {
                    kernel,
                    ..Default::default()
                }))
            });
            f
        })
        .collect()
}

/// MARS: max spline degree 1..6.
pub fn mars_grid(budget: SweepBudget) -> Vec<Factory> {
    let degrees: Vec<usize> = match budget {
        SweepBudget::Full => (1..=6).collect(),
        SweepBudget::Quick => vec![1, 2, 3],
    };
    degrees
        .into_iter()
        .map(|max_degree| {
            let f: Factory = Box::new(move || {
                Box::new(Mars::new(MarsConfig {
                    max_degree,
                    max_terms: 25,
                    ..Default::default()
                }))
            });
            f
        })
        .collect()
}

/// NN: hidden layers 1..8 of width 2..2048 with relu/tanh (subsampled — the
/// full §6.0.4 grid is ~32k configurations).
pub fn mlp_grid(budget: SweepBudget) -> Vec<Factory> {
    let shapes: Vec<Vec<usize>> = match budget {
        SweepBudget::Full => vec![
            vec![16],
            vec![64],
            vec![256],
            vec![1024],
            vec![64, 64],
            vec![256, 256],
            vec![64, 64, 64],
            vec![128, 128, 128, 128],
        ],
        SweepBudget::Quick => vec![vec![32], vec![128], vec![64, 64]],
    };
    let activations = match budget {
        SweepBudget::Full => vec![Activation::Relu, Activation::Tanh],
        SweepBudget::Quick => vec![Activation::Relu],
    };
    let mut out = Vec::new();
    for shape in &shapes {
        for &activation in &activations {
            let hidden = shape.clone();
            let f: Factory = Box::new(move || {
                Box::new(Mlp::new(MlpConfig {
                    hidden: hidden.clone(),
                    activation,
                    epochs: 150,
                    ..Default::default()
                }))
            });
            out.push(f);
        }
    }
    out
}

/// SGR: levels 2..8, refinements 0..16, adaptive points 4..32, λ 1e-6..1e-3.
pub fn sgr_grid(budget: SweepBudget) -> Vec<Factory> {
    let configs: Vec<SgrConfig> = match budget {
        SweepBudget::Full => {
            let mut v = Vec::new();
            for level in 2..=8 {
                for &lambda in &[1e-6, 1e-5, 1e-4, 1e-3] {
                    for &refinements in &[0usize, 4, 16] {
                        v.push(SgrConfig {
                            level,
                            lambda,
                            refinements,
                            refine_points: 16,
                            ..Default::default()
                        });
                    }
                }
            }
            v
        }
        SweepBudget::Quick => vec![
            SgrConfig {
                level: 3,
                lambda: 1e-5,
                ..Default::default()
            },
            SgrConfig {
                level: 5,
                lambda: 1e-5,
                ..Default::default()
            },
            SgrConfig {
                level: 5,
                lambda: 1e-5,
                refinements: 4,
                ..Default::default()
            },
        ],
    };
    configs
        .into_iter()
        .map(|cfg| {
            let f: Factory = Box::new(move || Box::new(SparseGridRegression::new(cfg)));
            f
        })
        .collect()
}

/// SGR at specific levels only (granularity sweeps plot per-level points).
pub fn sgr_grid_levels(levels: &[usize], budget: SweepBudget) -> Vec<Factory> {
    let lambdas: Vec<f64> = match budget {
        SweepBudget::Full => vec![1e-6, 1e-5, 1e-4, 1e-3],
        SweepBudget::Quick => vec![1e-5],
    };
    let mut out = Vec::new();
    for &level in levels {
        for &lambda in &lambdas {
            let cfg = SgrConfig {
                level,
                lambda,
                ..Default::default()
            };
            let f: Factory = Box::new(move || Box::new(SparseGridRegression::new(cfg)));
            out.push(f);
        }
    }
    out
}

/// SGR at one level with explicit refinement settings (Figure 4 series).
pub fn sgr_grid_refinement(
    level: usize,
    refinements: usize,
    refine_points: usize,
    budget: SweepBudget,
) -> Vec<Factory> {
    let lambdas: Vec<f64> = match budget {
        SweepBudget::Full => vec![1e-6, 1e-5, 1e-4],
        SweepBudget::Quick => vec![1e-5],
    };
    lambdas
        .into_iter()
        .map(|lambda| {
            let cfg = SgrConfig {
                level,
                lambda,
                refinements,
                refine_points,
                ..Default::default()
            };
            let f: Factory = Box::new(move || Box::new(SparseGridRegression::new(cfg)));
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_nonempty() {
        assert_eq!(knn_grid(SweepBudget::Full).len(), 6);
        assert_eq!(
            forest_grid(ForestKind::ExtraTrees, SweepBudget::Full).len(),
            20
        );
        assert_eq!(gp_grid(SweepBudget::Full).len(), 5);
        assert_eq!(svm_grid(SweepBudget::Full).len(), 4);
        assert_eq!(mars_grid(SweepBudget::Full).len(), 6);
        assert!(mlp_grid(SweepBudget::Quick).len() >= 3);
        assert!(sgr_grid(SweepBudget::Full).len() >= 28);
    }
}
