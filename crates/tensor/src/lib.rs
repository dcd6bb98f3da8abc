//! # cpr-tensor — dense linear algebra and tensor substrate
//!
//! Foundation crate of the CPR performance-modeling stack: a dense
//! [`matrix::Matrix`], the decompositions needed by the paper's algorithms
//! (Cholesky for ALS row solves, Householder QR for MARS, one-sided Jacobi
//! SVD for the Figure 1 study, power iteration for §5.3's rank-1
//! factorizations, CG for sparse-grid regression), dense and partially
//! observed tensors, and the CP factor model itself.
//!
//! Everything is hand-rolled `f64` with no external linear-algebra
//! dependency, per the reproduction constraints documented in `DESIGN.md`.

pub mod cp;
pub mod decomp;
pub mod dense;
pub mod linalg;
pub mod matrix;
pub mod sparse;
pub mod tucker;

pub use cp::{khatri_rao, CpDecomp, PackedFactors};
pub use decomp::Decomposition;
pub use dense::DenseTensor;
pub use matrix::Matrix;
pub use sparse::{ModeIndex, ModeStream, SparseTensor};
pub use tucker::{eval_core_packed, TuckerDecomp};
