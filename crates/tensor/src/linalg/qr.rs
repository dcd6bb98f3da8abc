//! Householder QR factorization and least-squares solves.
//!
//! The OLS solves inside MARS (both the baseline and the spline fitter used
//! by CPR's extrapolation path, paper §5.3) go through this module. Column
//! norms are tracked so rank-deficient design matrices — common during MARS
//! forward passes when a candidate hinge duplicates an existing basis — are
//! handled by zeroing the corresponding coefficients.

use crate::matrix::Matrix;

/// Compact Householder QR of an `m x n` matrix with `m >= n` handled
/// natively and `m < n` handled by the least-norm fallback in [`lstsq`].
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factor: R in the upper triangle, Householder vectors below.
    qr: Matrix,
    /// Householder scalars.
    tau: Vec<f64>,
}

impl Qr {
    /// Factor `a` (consumed) into QR form.
    pub fn new(mut a: Matrix) -> Self {
        let (m, n) = a.shape();
        let k = m.min(n);
        let mut tau = vec![0.0; k];
        for j in 0..k {
            // Householder vector for column j, rows j..m.
            let mut norm = 0.0;
            for i in j..m {
                norm += a[(i, j)] * a[(i, j)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[j] = 0.0;
                continue;
            }
            let alpha = if a[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = a[(j, j)] - alpha;
            // Normalize so v[j] = 1 implicitly; store v[i]/v0 below diagonal.
            let mut vnorm_sq = 1.0;
            for i in j + 1..m {
                let v = a[(i, j)] / v0;
                a[(i, j)] = v;
                vnorm_sq += v * v;
            }
            a[(j, j)] = alpha;
            tau[j] = 2.0 / vnorm_sq;
            // Apply reflector to remaining columns.
            for c in j + 1..n {
                let mut dot = a[(j, c)];
                for i in j + 1..m {
                    dot += a[(i, j)] * a[(i, c)];
                }
                let beta = tau[j] * dot;
                a[(j, c)] -= beta;
                for i in j + 1..m {
                    let vij = a[(i, j)];
                    a[(i, c)] -= beta * vij;
                }
            }
        }
        Self { qr: a, tau }
    }

    /// Apply `Qᵀ` to a vector in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for j in 0..m.min(n) {
            if self.tau[j] == 0.0 {
                continue;
            }
            let mut dot = b[j];
            for (i, &bi) in b.iter().enumerate().take(m).skip(j + 1) {
                dot += self.qr[(i, j)] * bi;
            }
            let beta = self.tau[j] * dot;
            b[j] -= beta;
            for (i, bi) in b.iter_mut().enumerate().take(m).skip(j + 1) {
                *bi -= beta * self.qr[(i, j)];
            }
        }
    }

    /// Minimum-residual solution of `A x = b` for `m >= n`.
    ///
    /// Numerically singular diagonal entries of `R` yield zero coefficients
    /// (pivot-free rank handling, adequate for MARS candidate screening).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = self.qr.shape();
        assert!(m >= n, "Qr::solve requires m >= n (got {m}x{n})");
        assert_eq!(b.len(), m);
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        let mut x = vec![0.0; n];
        let rmax = (0..n)
            .map(|i| self.qr[(i, i)].abs())
            .fold(0.0_f64, f64::max);
        let tol = rmax * 1e-12 * (m.max(n) as f64);
        for i in (0..n).rev() {
            let rii = self.qr[(i, i)];
            if rii.abs() <= tol {
                x[i] = 0.0;
                continue;
            }
            let mut s = y[i];
            for (jj, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.qr[(i, jj)] * xj;
            }
            x[i] = s / rii;
        }
        x
    }
}

/// Least-squares solve `min |A x - b|₂`; for wide systems (`m < n`) solves
/// the ridge-stabilized normal equations instead.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Vec<f64> {
    let (m, n) = a.shape();
    if m >= n {
        Qr::new(a.clone()).solve(b)
    } else {
        // Wide: minimum-norm-ish solution via (AᵀA + εI) x = Aᵀ b.
        let mut g = a.gram();
        let scale = (0..n).map(|i| g[(i, i)]).fold(0.0_f64, f64::max).max(1.0);
        for i in 0..n {
            g[(i, i)] += scale * 1e-10;
        }
        let rhs = a.matvec_t(b);
        super::cholesky::solve_spd_jittered(&g, &rhs)
    }
}

/// Ridge regression solve `(AᵀA + λ m I) x = Aᵀ b` (λ scaled by row count so
/// it matches mean-squared-error objectives).
pub fn ridge(a: &Matrix, b: &[f64], lambda: f64) -> Vec<f64> {
    let (m, n) = a.shape();
    assert_eq!(b.len(), m);
    let mut g = a.gram();
    for i in 0..n {
        g[(i, i)] += lambda * m as f64;
    }
    let rhs = a.matvec_t(b);
    super::cholesky::solve_spd_jittered(&g, &rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::dot;

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = vec![5.0, 10.0];
        let x = lstsq(&a, &b);
        let ax = a.matvec(&x);
        assert!((ax[0] - 5.0).abs() < 1e-10 && (ax[1] - 10.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        // Fit y = 2x + 1 through noisy-free points: exact recovery expected.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
        let b: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let coef = lstsq(&a, &b);
        assert!((coef[0] - 1.0).abs() < 1e-10);
        assert!((coef[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn residual_of_inconsistent_system() {
        // b not in col span: the least-squares solution averages the two
        // conflicting rows and fits the third exactly.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let b = vec![1.0, 3.0, 2.0];
        let x = Qr::new(a).solve(&b);
        assert!((x[0] - 2.0).abs() < 1e-10); // mean of 1 and 3
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn rank_deficient_gives_finite_solution() {
        // Duplicate columns.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = vec![2.0, 4.0, 6.0];
        let x = lstsq(&a, &b);
        assert!(x.iter().all(|v| v.is_finite()));
        // Fitted values should still reproduce b.
        let ax = a.matvec(&x);
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn wide_system_fits_exactly() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = vec![6.0];
        let x = lstsq(&a, &b);
        assert!((dot(&[1.0, 2.0, 3.0], &x) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::from_fn(10, 1, |i, _| i as f64);
        let b: Vec<f64> = (0..10).map(|i| 3.0 * i as f64).collect();
        let x0 = ridge(&a, &b, 0.0);
        let x1 = ridge(&a, &b, 10.0);
        assert!((x0[0] - 3.0).abs() < 1e-8);
        assert!(x1[0] < x0[0] && x1[0] > 0.0);
    }
}
