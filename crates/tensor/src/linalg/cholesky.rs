//! Cholesky factorization and SPD solves.
//!
//! Used for the `R x R` normal-equation solves inside ALS/AMN row updates
//! (R <= 64 in all paper experiments) and the `N x N` kernel solves in the
//! Gaussian-process baseline.

use crate::matrix::Matrix;

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotSpd {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
}

impl std::fmt::Display for NotSpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} <= 0)",
            self.pivot
        )
    }
}

impl std::error::Error for NotSpd {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    pub fn new(a: &Matrix) -> Result<Self, NotSpd> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "cholesky: matrix must be square");
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NotSpd { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` given the factorization.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n);
        // Forward substitution: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            for k in i + 1..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Log-determinant of `A` (= 2 Σ log L_ii); used by GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Factor `A + jitter·I` into the lower triangle of `l` without allocating.
/// Only the lower triangle of `a` is read; `l`'s upper triangle is left
/// untouched (and never read by [`solve_lower_into`]).
fn factor_into(a: &Matrix, jitter: f64, l: &mut Matrix) -> Result<(), NotSpd> {
    let n = a.rows();
    debug_assert_eq!(l.shape(), (n, n), "factor_into: scratch shape mismatch");
    for j in 0..n {
        let mut d = a[(j, j)] + jitter;
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(NotSpd { pivot: j });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(())
}

/// Solve `L Lᵀ x = b` in place: `out` starts as a copy of `b` and ends as
/// `x` (forward then backward substitution, no allocation).
fn solve_lower_into(l: &Matrix, b: &[f64], out: &mut [f64]) {
    let n = l.rows();
    out.copy_from_slice(b);
    for i in 0..n {
        for k in 0..i {
            out[i] -= l[(i, k)] * out[k];
        }
        out[i] /= l[(i, i)];
    }
    for i in (0..n).rev() {
        for k in i + 1..n {
            out[i] -= l[(k, i)] * out[k];
        }
        out[i] /= l[(i, i)];
    }
}

/// Solve the SPD system `A x = b`, retrying with geometrically increasing
/// diagonal jitter if `A` is numerically semidefinite.
///
/// This is the robust primitive ALS/AMN row solves rely on: with few
/// observed entries in a fiber the Gram matrix can be singular even after
/// ridge regularization scaled by `1/|Ω_i|`.
pub fn solve_spd_jittered(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut scratch = Matrix::zeros(a.rows(), a.rows());
    let mut out = vec![0.0; b.len()];
    solve_spd_jittered_into(a, b, &mut scratch, &mut out);
    out
}

/// Allocation-free [`solve_spd_jittered`]: the factorization lives in
/// `chol_scratch` (an `n x n` matrix the caller reuses across solves) and
/// the solution is written into `out`. This is what the optimizer row loops
/// call — one scratch per worker instead of three allocations per row.
///
/// Sizes 2/4/8/16 — the monomorphized ranks of the streamed fit kernels —
/// dispatch to a const-size factorization whose loops fully unroll
/// (`solve_jittered_fixed`); every arithmetic operation and its order is
/// identical to the generic path, so the dispatch is bitwise invisible
/// (pinned by `fixed_size_dispatch_bitwise_matches_generic`).
pub fn solve_spd_jittered_into(a: &Matrix, b: &[f64], chol_scratch: &mut Matrix, out: &mut [f64]) {
    let n = a.rows();
    assert_eq!(b.len(), n, "solve_spd_jittered_into: rhs length");
    assert_eq!(out.len(), n, "solve_spd_jittered_into: out length");
    assert_eq!(
        chol_scratch.shape(),
        (n, n),
        "solve_spd_jittered_into: scratch shape"
    );
    match n {
        2 => solve_jittered_fixed::<2>(a.as_slice(), b, chol_scratch.as_mut_slice(), out),
        4 => solve_jittered_fixed::<4>(a.as_slice(), b, chol_scratch.as_mut_slice(), out),
        8 => solve_jittered_fixed::<8>(a.as_slice(), b, chol_scratch.as_mut_slice(), out),
        16 => solve_jittered_fixed::<16>(a.as_slice(), b, chol_scratch.as_mut_slice(), out),
        _ => solve_jittered_generic(a, b, chol_scratch, out),
    }
}

fn solve_jittered_generic(a: &Matrix, b: &[f64], chol_scratch: &mut Matrix, out: &mut [f64]) {
    let n = a.rows();
    let scale = (0..n)
        .map(|i| a[(i, i)].abs())
        .fold(0.0_f64, f64::max)
        .max(1e-300);
    let mut jitter = 0.0;
    for attempt in 0..12 {
        if factor_into(a, jitter, chol_scratch).is_ok() {
            solve_lower_into(chol_scratch, b, out);
            if out.iter().all(|v| v.is_finite()) {
                return;
            }
        }
        jitter = if attempt == 0 {
            scale * 1e-12
        } else {
            jitter * 100.0
        };
    }
    // Last resort: steepest-descent-scaled right-hand side. This keeps the
    // optimizer alive on pathological inputs; callers converge away from it.
    for (o, v) in out.iter_mut().zip(b) {
        *o = v / scale;
    }
}

/// Const-size mirror of [`factor_into`] on row-major flat storage: the
/// unroll-friendly inner loops are what the streamed row solves spend their
/// `O(R³)` on. Operation-for-operation identical to the generic code.
#[inline]
fn factor_into_fixed<const N: usize>(a: &[f64], jitter: f64, l: &mut [f64]) -> bool {
    for j in 0..N {
        let mut d = a[j * N + j] + jitter;
        for k in 0..j {
            d -= l[j * N + k] * l[j * N + k];
        }
        if d <= 0.0 || !d.is_finite() {
            return false;
        }
        let dj = d.sqrt();
        l[j * N + j] = dj;
        for i in j + 1..N {
            let mut s = a[i * N + j];
            for k in 0..j {
                s -= l[i * N + k] * l[j * N + k];
            }
            l[i * N + j] = s / dj;
        }
    }
    true
}

/// Const-size mirror of [`solve_lower_into`].
#[inline]
fn solve_lower_into_fixed<const N: usize>(l: &[f64], b: &[f64], out: &mut [f64]) {
    out.copy_from_slice(b);
    for i in 0..N {
        for k in 0..i {
            out[i] -= l[i * N + k] * out[k];
        }
        out[i] /= l[i * N + i];
    }
    for i in (0..N).rev() {
        for k in i + 1..N {
            out[i] -= l[k * N + i] * out[k];
        }
        out[i] /= l[i * N + i];
    }
}

/// Const-size mirror of the jittered retry loop.
fn solve_jittered_fixed<const N: usize>(a: &[f64], b: &[f64], l: &mut [f64], out: &mut [f64]) {
    let scale = (0..N)
        .map(|i| a[i * N + i].abs())
        .fold(0.0_f64, f64::max)
        .max(1e-300);
    let mut jitter = 0.0;
    for attempt in 0..12 {
        if factor_into_fixed::<N>(a, jitter, l) {
            solve_lower_into_fixed::<N>(l, b, out);
            if out.iter().all(|v| v.is_finite()) {
                return;
            }
        }
        jitter = if attempt == 0 {
            scale * 1e-12
        } else {
            jitter * 100.0
        };
    }
    for (o, v) in out.iter_mut().zip(b) {
        *o = v / scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.5], &[0.6, 1.5, 3.8]])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_example();
        let ch = Cholesky::new(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd_example();
        let b = vec![1.0, -2.0, 0.5];
        let x = Cholesky::new(&a).unwrap().solve(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-10, "residual too large: {ax:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b), b);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_err());
    }

    #[test]
    fn log_det_matches() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 16.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn jittered_solve_handles_singular() {
        // Rank-1 Gram matrix: classic under-observed ALS fiber.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let x = solve_spd_jittered(&a, &[2.0, 2.0]);
        assert!(x.iter().all(|v| v.is_finite()));
        // Should approximately satisfy A x = b in the least-squares sense.
        let ax = a.matvec(&x);
        assert!((ax[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn into_variant_matches_allocating_solve_bitwise() {
        let a = spd_example();
        let b = vec![1.0, -2.0, 0.5];
        let expected = Cholesky::new(&a).unwrap().solve(&b);
        let mut scratch = Matrix::zeros(3, 3);
        // Poison the scratch: stale contents must not leak into the result.
        for v in scratch.as_mut_slice() {
            *v = f64::NAN;
        }
        let mut out = vec![0.0; 3];
        solve_spd_jittered_into(&a, &b, &mut scratch, &mut out);
        for (e, o) in expected.iter().zip(&out) {
            assert_eq!(e.to_bits(), o.to_bits());
        }
        // Reuse across solves: second call with the dirty scratch agrees too.
        let b2 = vec![0.25, 4.0, -1.0];
        let expected2 = Cholesky::new(&a).unwrap().solve(&b2);
        solve_spd_jittered_into(&a, &b2, &mut scratch, &mut out);
        for (e, o) in expected2.iter().zip(&out) {
            assert_eq!(e.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn into_variant_handles_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut scratch = Matrix::zeros(2, 2);
        let mut out = vec![0.0; 2];
        solve_spd_jittered_into(&a, &[2.0, 2.0], &mut scratch, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fixed_size_dispatch_bitwise_matches_generic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for &n in &[2usize, 4, 8, 16] {
            // Random SPD-ish Gram matrix B Bᵀ (+ occasionally singular: the
            // jitter path must also agree bitwise).
            for trial in 0..4 {
                let mut b_mat = Matrix::zeros(n, n);
                for v in b_mat.as_mut_slice() {
                    *v = rng.gen_range(-1.0..1.0);
                }
                if trial == 3 {
                    // Rank-deficient: duplicate a row.
                    let r0 = b_mat.row(0).to_vec();
                    b_mat.row_mut(1).copy_from_slice(&r0);
                }
                let a = b_mat.gram();
                let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut scratch = Matrix::zeros(n, n);
                let mut fast = vec![0.0; n];
                solve_spd_jittered_into(&a, &rhs, &mut scratch, &mut fast);
                let mut scratch2 = Matrix::zeros(n, n);
                let mut slow = vec![0.0; n];
                solve_jittered_generic(&a, &rhs, &mut scratch2, &mut slow);
                for (x, y) in fast.iter().zip(&slow) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} trial={trial}");
                }
            }
        }
    }
}
