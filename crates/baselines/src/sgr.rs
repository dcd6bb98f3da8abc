//! Sparse grid regression (paper §3.2; Pflüger 2010; Neumann 2019).
//!
//! SGR models a function on `[0,1]^d` as a linear combination of hierarchical
//! piecewise-linear basis functions placed on an anisotropic sparse grid:
//! level vectors `l ≥ 1` with `|l|₁ ≤ n + d − 1` contribute hat functions
//! `φ_{l,i}(x) = Π_j φ_{l_j, i_j}(x_j)` at odd indices `i_j ∈ {1,3,…,2^l−1}`,
//! giving `O(2ⁿ n^{d−1})` grid points instead of the regular grid's
//! `O(2^{nd})`. We use SG++'s *modified linear* ("modlinear") boundary basis
//! so no boundary points are needed.
//!
//! Weights solve the ridge system `(BᵀB + λNI) w = Bᵀy` by conjugate
//! gradient on the implicit operator (the paper configures up to 1000 CG
//! iterations, tolerance 1e-4). Spatially adaptive refinement adds the
//! hierarchical children of the points with the largest absolute surplus,
//! mirroring SG++'s surplus-refinement functor (paper: 1–16 refinement
//! rounds of 4–32 points).

use crate::common::Regressor;
use cpr_tensor::linalg::conjugate_gradient;
use std::collections::{BTreeMap, HashMap};

/// SGR configuration (paper §6.0.4 sweeps).
#[derive(Debug, Clone, Copy)]
pub struct SgrConfig {
    /// Initial regular sparse-grid level `n` (paper: 2..8).
    pub level: usize,
    /// Ridge regularization λ (paper: 1e-6..1e-3).
    pub lambda: f64,
    /// CG iteration cap (paper: 1000).
    pub cg_max_iter: usize,
    /// CG relative tolerance (paper: 1e-4).
    pub cg_tol: f64,
    /// Adaptive refinement rounds (paper: 0..16).
    pub refinements: usize,
    /// Points refined per round (paper: 4..32).
    pub refine_points: usize,
    /// Hard cap on grid size (guards the combinatorial growth in high `d`).
    pub max_points: usize,
}

impl Default for SgrConfig {
    fn default() -> Self {
        Self {
            level: 4,
            lambda: 1e-5,
            cg_max_iter: 1000,
            cg_tol: 1e-4,
            refinements: 0,
            refine_points: 8,
            max_points: 100_000,
        }
    }
}

/// One sparse-grid point: a (level, index) pair per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GridPoint {
    level: Vec<u8>,
    index: Vec<u32>,
}

/// A fitted sparse-grid regression model.
#[derive(Debug, Clone)]
pub struct SparseGridRegression {
    config: SgrConfig,
    /// Per-feature min/max for normalization to `[0,1]`.
    lo: Vec<f64>,
    hi: Vec<f64>,
    points: Vec<GridPoint>,
    weights: Vec<f64>,
    /// Level-vector -> (index-vector -> point id) lookup. The outer map is
    /// ordered: `design_row` iterates it, and that order fixes the order of
    /// every floating-point sum over a design row, so a hashed map (random
    /// order per instance) would make fits and predictions differ from run
    /// to run.
    by_level: BTreeMap<Vec<u8>, HashMap<Vec<u32>, u32>>,
    y_mean: f64,
}

/// Modified-linear 1-D basis value of point `(l, i)` at normalized `x`.
#[inline]
fn basis_1d(l: u8, i: u32, x: f64) -> f64 {
    if l == 1 {
        return 1.0; // constant on [0,1]
    }
    let h = (1u64 << l) as f64;
    let last = (1u64 << l) - 1;
    if i == 1 {
        // Left boundary wedge: linear from 2 at x=0 to 0 at x=2^{1-l}.
        (2.0 - h * x).clamp(0.0, 2.0)
    } else if u64::from(i) == last {
        // Right boundary wedge, mirrored.
        (h * x - (last as f64 - 1.0)).clamp(0.0, 2.0)
    } else {
        (1.0 - (h * x - f64::from(i)).abs()).max(0.0)
    }
}

/// The unique candidate index at level `l` whose support can contain `x`.
#[inline]
fn nonzero_index(l: u8, x: f64) -> u32 {
    if l == 1 {
        return 1;
    }
    let scale = (1u64 << l) as f64;
    let p = (x * scale).floor() as i64;
    let i = (2 * (p / 2) + 1).clamp(1, (1i64 << l) - 1);
    i as u32
}

impl SparseGridRegression {
    /// Unfitted model.
    pub fn new(config: SgrConfig) -> Self {
        Self {
            config,
            lo: Vec::new(),
            hi: Vec::new(),
            points: Vec::new(),
            weights: Vec::new(),
            by_level: BTreeMap::new(),
            y_mean: 0.0,
        }
    }

    /// Number of grid points (basis functions).
    pub fn grid_size(&self) -> usize {
        self.points.len()
    }

    fn normalize(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&v, (&lo, &hi))| {
                if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// Enumerate the initial regular sparse grid `|l|₁ ≤ n + d − 1`.
    fn build_regular_grid(&mut self, d: usize) {
        self.points.clear();
        self.by_level.clear();
        let budget = self.config.level + d - 1;
        let mut level = vec![1u8; d];
        self.enumerate_levels(&mut level, 0, budget);
    }

    fn enumerate_levels(&mut self, level: &mut Vec<u8>, dim: usize, budget: usize) {
        let used: usize = level[..dim].iter().map(|&l| l as usize).sum();
        let remaining_dims = level.len() - dim;
        if dim == level.len() {
            self.add_level_indices(&level.clone());
            return;
        }
        // Each remaining dim needs at least level 1.
        let max_here = budget - used - (remaining_dims - 1);
        for l in 1..=max_here.min(20) {
            level[dim] = l as u8;
            self.enumerate_levels(level, dim + 1, budget);
        }
    }

    /// Add every odd-index combination for a level vector.
    fn add_level_indices(&mut self, level: &[u8]) {
        if self.points.len() >= self.config.max_points {
            return;
        }
        let d = level.len();
        let mut index = vec![1u32; d];
        loop {
            self.insert_point(GridPoint {
                level: level.to_vec(),
                index: index.clone(),
            });
            if self.points.len() >= self.config.max_points {
                return;
            }
            // Advance odd-index counter.
            let mut dim = 0;
            loop {
                if dim == d {
                    return;
                }
                let cap = (1u32 << level[dim]) - 1;
                if index[dim] + 2 <= cap {
                    index[dim] += 2;
                    break;
                }
                index[dim] = 1;
                dim += 1;
            }
        }
    }

    fn insert_point(&mut self, p: GridPoint) -> bool {
        let slot = self.by_level.entry(p.level.clone()).or_default();
        if slot.contains_key(&p.index) {
            return false;
        }
        slot.insert(p.index.clone(), self.points.len() as u32);
        self.points.push(p);
        true
    }

    /// Sparse design row of one (normalized) sample: `(point id, φ value)`.
    fn design_row(&self, xn: &[f64]) -> Vec<(u32, f64)> {
        let mut row = Vec::with_capacity(self.by_level.len());
        for (level, slots) in &self.by_level {
            let mut value = 1.0;
            let mut index = Vec::with_capacity(level.len());
            for (j, &l) in level.iter().enumerate() {
                let i = nonzero_index(l, xn[j]);
                value *= basis_1d(l, i, xn[j]);
                if value == 0.0 {
                    break;
                }
                index.push(i);
            }
            if value != 0.0 && index.len() == level.len() {
                if let Some(&id) = slots.get(&index) {
                    row.push((id, value));
                }
            }
        }
        row
    }

    /// Solve the ridge system on precomputed sparse design rows.
    fn solve(&mut self, rows: &[Vec<(u32, f64)>], y: &[f64]) {
        let n_basis = self.points.len();
        let n = y.len() as f64;
        let lambda_n = self.config.lambda * n;
        // Bᵀ y
        let mut rhs = vec![0.0; n_basis];
        for (row, &yk) in rows.iter().zip(y) {
            for &(id, v) in row {
                rhs[id as usize] += v * yk;
            }
        }
        let apply = |w: &[f64]| -> Vec<f64> {
            // (BᵀB + λN I) w
            let mut out: Vec<f64> = w.iter().map(|v| v * lambda_n).collect();
            for row in rows {
                let mut bw = 0.0;
                for &(id, v) in row {
                    bw += v * w[id as usize];
                }
                if bw != 0.0 {
                    for &(id, v) in row {
                        out[id as usize] += v * bw;
                    }
                }
            }
            out
        };
        let res = conjugate_gradient(apply, &rhs, self.config.cg_tol, self.config.cg_max_iter);
        self.weights = res.x;
    }

    /// Surplus-based refinement: add hierarchical children of the
    /// `refine_points` largest-|weight| points.
    fn refine(&mut self) {
        let mut ranked: Vec<(f64, usize)> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w.abs(), i))
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let to_refine: Vec<usize> = ranked
            .iter()
            .take(self.config.refine_points)
            .map(|&(_, i)| i)
            .collect();
        for pid in to_refine {
            let parent = self.points[pid].clone();
            for j in 0..parent.level.len() {
                if parent.level[j] as usize >= 20 {
                    continue;
                }
                let child_level = {
                    let mut l = parent.level.clone();
                    l[j] += 1;
                    l
                };
                for child_index_j in [2 * parent.index[j] - 1, 2 * parent.index[j] + 1] {
                    if self.points.len() >= self.config.max_points {
                        return;
                    }
                    let mut idx = parent.index.clone();
                    idx[j] = child_index_j;
                    self.insert_point(GridPoint {
                        level: child_level.clone(),
                        index: idx,
                    });
                }
            }
        }
    }
}

impl Regressor for SparseGridRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "SGR: empty training set");
        let d = x[0].len();
        // Min-max feature bounds.
        self.lo = vec![f64::INFINITY; d];
        self.hi = vec![f64::NEG_INFINITY; d];
        for row in x {
            for (j, &v) in row.iter().enumerate().take(d) {
                self.lo[j] = self.lo[j].min(v);
                self.hi[j] = self.hi[j].max(v);
            }
        }
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - self.y_mean).collect();
        let xn: Vec<Vec<f64>> = x.iter().map(|r| self.normalize(r)).collect();

        self.build_regular_grid(d);
        for round in 0..=self.config.refinements {
            self.weights = vec![0.0; self.points.len()];
            let rows: Vec<Vec<(u32, f64)>> = xn.iter().map(|r| self.design_row(r)).collect();
            self.solve(&rows, &yc);
            if round < self.config.refinements {
                let before = self.points.len();
                self.refine();
                if self.points.len() == before {
                    break; // saturated
                }
            }
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        assert!(!self.points.is_empty(), "SGR: predict before fit");
        let xn = self.normalize(x);
        let mut acc = self.y_mean;
        for (id, v) in self.design_row(&xn) {
            acc += v * self.weights[id as usize];
        }
        acc
    }

    fn size_bytes(&self) -> usize {
        // Each point stores d (level, index) pairs plus a weight.
        let d = self.points.first().map_or(0, |p| p.level.len());
        self.points.len() * (d * 5 + 8) + self.lo.len() * 16
    }

    fn name(&self) -> &'static str {
        "SGR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_2d(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let side = (n as f64).sqrt() as usize;
        for i in 0..side {
            for j in 0..side {
                let a = i as f64 / side as f64 * 4.0;
                let b = j as f64 / side as f64 * 4.0;
                x.push(vec![a, b]);
                y.push((a - 2.0).powi(2) + 0.5 * b + a * b * 0.1);
            }
        }
        (x, y)
    }

    #[test]
    fn basis_1d_properties() {
        // Level 1: constant.
        assert_eq!(basis_1d(1, 1, 0.3), 1.0);
        // Interior hat peaks at its node.
        assert!((basis_1d(3, 3, 3.0 / 8.0) - 1.0).abs() < 1e-12);
        assert_eq!(
            basis_1d(3, 3, 0.5 + 1e-9).max(0.0),
            basis_1d(3, 3, 0.5 + 1e-9)
        );
        // Boundary wedge reaches 2 at the boundary.
        assert!((basis_1d(2, 1, 0.0) - 2.0).abs() < 1e-12);
        assert!((basis_1d(2, 3, 1.0) - 2.0).abs() < 1e-12);
        // Supports vanish away from nodes.
        assert_eq!(basis_1d(3, 3, 0.9), 0.0);
    }

    #[test]
    fn nonzero_index_is_consistent_with_support() {
        for l in 2..6u8 {
            for k in 0..50 {
                let x = k as f64 / 49.0;
                let i = nonzero_index(l, x);
                assert!(i % 2 == 1, "even index {i}");
                // All other candidate odd indices must be zero at x.
                let cap = (1u32 << l) - 1;
                let mut alt = 1u32;
                while alt <= cap {
                    if alt != i {
                        let v = basis_1d(l, alt, x);
                        // Boundary wedges overlap the first/last hat cell, so
                        // allow nonzero only for those.
                        if alt != 1 && alt != cap {
                            assert_eq!(v, 0.0, "l={l} alt={alt} x={x}");
                        }
                    }
                    alt += 2;
                }
            }
        }
    }

    #[test]
    fn grid_size_grows_with_level() {
        let mut sizes = Vec::new();
        for level in 2..5 {
            let mut sgr = SparseGridRegression::new(SgrConfig {
                level,
                ..Default::default()
            });
            sgr.build_regular_grid(2);
            sizes.push(sgr.grid_size());
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }

    #[test]
    fn fits_smooth_2d_function() {
        let (x, y) = smooth_2d(900);
        let mut sgr = SparseGridRegression::new(SgrConfig {
            level: 5,
            ..Default::default()
        });
        sgr.fit(&x, &y);
        let mse: f64 = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| (sgr.predict(xi) - yi).powi(2))
            .sum::<f64>()
            / y.len() as f64;
        let var = crate::common::variance(&y);
        assert!(mse < 0.05 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn repeated_fits_predict_bitwise_equal() {
        // Three features, refined: dozens of level vectors, whose
        // iteration order sets the summation order of every design row.
        let x: Vec<Vec<f64>> = (0..600)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.37).sin(), (t * 0.11).cos() * 3.0, t % 17.0]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * v[1] + 0.2 * v[2]).collect();
        let config = SgrConfig {
            level: 4,
            refinements: 2,
            ..Default::default()
        };
        let mut a = SparseGridRegression::new(config);
        let mut b = SparseGridRegression::new(config);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for xi in &x {
            assert_eq!(a.predict(xi).to_bits(), b.predict(xi).to_bits());
        }
    }

    #[test]
    fn refinement_grows_grid_and_helps() {
        let (x, y) = smooth_2d(900);
        let mut base = SparseGridRegression::new(SgrConfig {
            level: 3,
            ..Default::default()
        });
        base.fit(&x, &y);
        let mut refined = SparseGridRegression::new(SgrConfig {
            level: 3,
            refinements: 4,
            refine_points: 8,
            ..Default::default()
        });
        refined.fit(&x, &y);
        assert!(refined.grid_size() > base.grid_size());
        let mse = |m: &SparseGridRegression| {
            x.iter()
                .zip(&y)
                .map(|(xi, yi)| (m.predict(xi) - yi).powi(2))
                .sum::<f64>()
                / y.len() as f64
        };
        assert!(
            mse(&refined) <= mse(&base) * 1.05,
            "{} vs {}",
            mse(&refined),
            mse(&base)
        );
    }

    #[test]
    fn respects_max_points_cap() {
        let mut sgr = SparseGridRegression::new(SgrConfig {
            level: 8,
            max_points: 200,
            ..Default::default()
        });
        sgr.build_regular_grid(5);
        assert!(sgr.grid_size() <= 200);
    }

    #[test]
    fn constant_function_fits_with_mean_offset() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
        let y = vec![3.5; 50];
        let mut sgr = SparseGridRegression::new(SgrConfig {
            level: 3,
            ..Default::default()
        });
        sgr.fit(&x, &y);
        assert!((sgr.predict(&[0.42]) - 3.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_feature_range_is_safe() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![1.0, i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut sgr = SparseGridRegression::new(SgrConfig {
            level: 3,
            ..Default::default()
        });
        sgr.fit(&x, &y);
        assert!(sgr.predict(&[1.0, 10.0]).is_finite());
    }
}
