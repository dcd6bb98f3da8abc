//! # cpr-completion — tensor-completion optimizers
//!
//! Implements the two optimization methods of §4.2 that CPR fits with:
//!
//! * [`als`](als()) — alternating least squares (the workhorse for CPR's
//!   interpolation models, §5.2): row-wise ridge-regularized normal
//!   equations, Rayon-parallel across rows, monotone objective.
//! * [`amn`](amn()) — alternating minimization via Newton's method under the
//!   scale-independent MLogQ² loss with log-barrier positivity (§4.2.2);
//!   this is what CPR's extrapolation models (§5.3) train with.
//!
//! plus [`tucker_als`](tucker_als()), the same alternating scheme over the
//! Tucker model class (§8). The paper's other §4.2 methods, coordinate
//! descent and SGD, are surveyed there but fit none of its experiments, so
//! they are not implemented here.
//!
//! All optimizers mutate a decomposition in place and return a
//! [`convergence::Trace`] of per-sweep objectives.
//!
//! Every optimizer takes one [`CompletionSpec`] (ridge λ, stop rule).
//!
//! Every sweep optimizer runs **streamed**: packed per-mode observation
//! layouts ([`cpr_tensor::ModeStream`]), CP leave-one-out vectors
//! gathered from one packed copy of the factors
//! ([`cpr_tensor::PackedFactors`]) through per-observation row offsets
//! and folded in the canonical order by an order-monomorphized kernel,
//! and one rank-monomorphized row kernel that accumulates the ALS and
//! Tucker-ALS normal equations and the AMN Newton systems alike (see
//! [`sweep`]). Each keeps a retained naive reference path
//! (`als_reference`, `amn_reference`, `tucker_als_reference`) that the
//! streamed path is pinned bitwise-equal to by proptests.

pub mod als;
pub mod amn;
pub mod convergence;
pub mod optimizer;
pub mod sweep;
pub mod tucker_als;

pub use als::{als, als_reference, als_with_streams};
pub use amn::{amn, amn_reference, init_positive, log_objective};
pub use convergence::{StopRule, Trace};
pub use optimizer::{complete, CompletionSpec, Optimizer};
pub use sweep::build_streams;
pub use tucker_als::{tucker_als, tucker_als_reference, tucker_objective};
