//! # cpr-completion — tensor-completion optimizers
//!
//! Implements the optimization methods surveyed in §4.2 of the paper:
//!
//! * [`als`](als()) — alternating least squares (the workhorse for CPR's
//!   interpolation models, §5.2): row-wise ridge-regularized normal
//!   equations, Rayon-parallel across rows, monotone objective.
//! * [`ccd`](ccd()) — cyclic coordinate descent: scalar updates, `R`× cheaper
//!   sweeps, slower convergence (§4.2.1).
//! * [`sgd`](sgd()) — stochastic gradient descent over shuffled observations.
//! * [`amn`](amn()) — alternating minimization via Newton's method under the
//!   scale-independent MLogQ² loss with log-barrier positivity (§4.2.2);
//!   this is what CPR's extrapolation models (§5.3) train with.
//!
//! All optimizers mutate a [`cpr_tensor::CpDecomp`] in place and return a
//! [`convergence::Trace`] of per-sweep objectives.

//!
//! Every sweep optimizer runs **streamed**: packed per-mode observation
//! layouts ([`cpr_tensor::ModeStream`]), leave-one-out vectors gathered
//! directly from the foreign factor rows in the canonical fold order, and
//! rank-monomorphized normal-equation kernels (see [`sweep`]). Each keeps a
//! retained naive reference path (`als_reference`, `amn_reference`,
//! `ccd_reference`, `tucker_als_reference`) that the streamed path is
//! pinned bitwise-equal to by proptests.

pub mod als;
pub mod amn;
pub mod ccd;
pub mod convergence;
pub mod optimizer;
pub mod sgd;
pub mod sweep;
pub mod tucker_als;

pub use als::{als, als_reference, als_with_streams, AlsConfig};
pub use amn::{amn, amn_reference, init_positive, log_objective, AmnConfig};
pub use ccd::{ccd, ccd_reference, CcdConfig};
pub use convergence::{StopRule, Trace};
pub use optimizer::{complete, CompletionSpec, Optimizer};
pub use sgd::{sgd, SgdConfig};
pub use sweep::build_streams;
pub use tucker_als::{tucker_als, tucker_als_reference, tucker_objective, TuckerConfig};
