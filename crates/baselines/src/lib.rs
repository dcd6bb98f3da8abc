//! # cpr-baselines — the comparison models of the paper's evaluation
//!
//! From-scratch implementations of the nine supervised-learning baselines
//! evaluated against CPR (paper §3 and §6.0.4):
//!
//! | module | model | paper section |
//! |---|---|---|
//! | [`sgr`] | sparse grid regression (SG++-style modlinear basis) | §3.2 |
//! | [`mars`] | multivariate adaptive regression splines | §3.2 |
//! | [`mlp`] | multi-layer perceptron (Adam, relu/tanh) | §3.3 |
//! | [`gp`] | Gaussian-process regression (5 kernels) | §3.4 |
//! | [`svr`] | ε-insensitive support-vector regression | §3.4 |
//! | [`forest`] | random forest + extremely randomized trees | §3.5 |
//! | [`gb`] | gradient boosting | §3.5 |
//! | [`knn`] | k-nearest neighbors | §3.6 |
//!
//! All models implement the [`Regressor`] trait (fit / predict /
//! `size_bytes`), consume log-transformed features and targets as §6.0.4
//! prescribes, and expose the exact hyper-parameter grids the paper sweeps
//! via [`tune`].

pub mod common;
pub mod forest;
pub mod gb;
pub mod gp;
pub mod knn;
pub mod mars;
pub mod mlp;
pub mod sgr;
pub mod svr;
pub mod tree;
pub mod tune;

pub use common::{Regressor, Standardizer};
pub use forest::{Forest, ForestConfig, ForestKind};
pub use gb::{GbConfig, GradientBoosting};
pub use gp::{GaussianProcess, GpConfig, Kernel};
pub use knn::{Knn, KnnConfig};
pub use mars::{fit_univariate_spline, Mars, MarsConfig};
pub use mlp::{Activation, Mlp, MlpConfig};
pub use sgr::{SgrConfig, SparseGridRegression};
pub use svr::{Svr, SvrConfig, SvrKernel};
pub use tune::{
    forest_grid, gb_grid, gp_grid, knn_grid, mars_grid, mlp_grid, sgr_grid, sgr_grid_levels,
    sgr_grid_refinement, svm_grid, SweepBudget,
};
