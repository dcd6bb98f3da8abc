//! Full parameter-space grids: configuration → tensor index / stencil.

use crate::axis::Axis;
use crate::param::ParamSpec;

/// An application's benchmark-parameter space (paper Table 2).
#[derive(Debug, Clone)]
pub struct ParamSpace {
    params: Vec<ParamSpec>,
}

impl ParamSpace {
    /// Build from parameter descriptors.
    pub fn new(params: Vec<ParamSpec>) -> Self {
        assert!(
            !params.is_empty(),
            "ParamSpace: need at least one parameter"
        );
        Self { params }
    }

    /// Number of parameters `d` (= tensor order).
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Parameter descriptors.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Parameter by index.
    pub fn param(&self, j: usize) -> &ParamSpec {
        &self.params[j]
    }

    /// Per-parameter domain membership of a configuration; `false` entries
    /// trigger the §5.3 extrapolation path along that mode.
    pub fn in_domain(&self, config: &[f64]) -> Vec<bool> {
        assert_eq!(config.len(), self.dim());
        self.params
            .iter()
            .zip(config)
            .map(|(p, &x)| p.in_domain(x))
            .collect()
    }

    /// Discretize every numerical parameter into `cells` sub-intervals
    /// (categorical parameters keep their cardinality).
    pub fn grid_uniform_cells(&self, cells: usize) -> TensorGrid {
        let axes = self.params.iter().map(|p| Axis::new(p, cells)).collect();
        TensorGrid { axes }
    }

    /// Discretize with per-parameter cell counts (entries for categorical
    /// parameters are ignored).
    pub fn grid_with_cells(&self, cells: &[usize]) -> TensorGrid {
        assert_eq!(cells.len(), self.dim(), "grid_with_cells: wrong length");
        let axes = self
            .params
            .iter()
            .zip(cells)
            .map(|(p, &c)| Axis::new(p, c))
            .collect();
        TensorGrid { axes }
    }
}

/// A regular grid over the whole parameter space: one [`Axis`] per mode.
#[derive(Debug, Clone)]
pub struct TensorGrid {
    axes: Vec<Axis>,
}

impl TensorGrid {
    /// Tensor order.
    pub fn order(&self) -> usize {
        self.axes.len()
    }

    /// Tensor dimensions `I_1 .. I_d`.
    pub fn dims(&self) -> Vec<usize> {
        self.axes.iter().map(|a| a.len()).collect()
    }

    /// Total number of grid cells `Π I_j`.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|a| a.len()).product()
    }

    /// Axis for one mode.
    pub fn axis(&self, mode: usize) -> &Axis {
        &self.axes[mode]
    }

    /// Tensor multi-index of the cell containing `config` (clamped).
    pub fn cell_index(&self, config: &[f64]) -> Vec<usize> {
        assert_eq!(
            config.len(),
            self.order(),
            "cell_index: configuration order mismatch"
        );
        self.axes
            .iter()
            .zip(config)
            .map(|(a, &x)| a.cell_of(x))
            .collect()
    }

    /// Grid-cell mid-point associated with a tensor multi-index.
    pub fn midpoint(&self, idx: &[usize]) -> Vec<f64> {
        assert_eq!(idx.len(), self.order());
        self.axes
            .iter()
            .zip(idx)
            .map(|(a, &i)| a.midpoints()[i])
            .collect()
    }

    /// Per-mode interpolation stencils for `config` (see [`Axis::stencil`]).
    pub fn stencils(&self, config: &[f64]) -> Vec<(usize, usize, f64)> {
        assert_eq!(
            config.len(),
            self.order(),
            "stencils: configuration order mismatch"
        );
        self.axes
            .iter()
            .zip(config)
            .map(|(a, &x)| a.stencil(x))
            .collect()
    }

    /// Bake per-axis quantization tables for the compiled query path (one
    /// [`crate::axis::AxisTable`] per mode, see [`Axis::table`]). Tables
    /// are copies: rebake if the grid is rebuilt.
    pub fn bake_tables(&self) -> Vec<crate::axis::AxisTable> {
        self.axes.iter().map(Axis::table).collect()
    }

    /// Multilinear interpolation of Eq. 5: evaluates `values` at the `2^d`
    /// stencil corners and combines them with product weights. `values`
    /// receives tensor multi-indices (typically backed by a completed CP
    /// decomposition).
    pub fn interpolate(&self, config: &[f64], values: impl FnMut(&[usize]) -> f64) -> f64 {
        interpolate_corners(&self.stencils(config), values)
    }
}

/// Corner expansion shared by [`TensorGrid::interpolate`] and callers that
/// post-process stencils (e.g. the CPR model's observed-row masking):
/// combines `values` at every stencil corner with product weights.
pub fn interpolate_corners(
    stencils: &[(usize, usize, f64)],
    mut values: impl FnMut(&[usize]) -> f64,
) -> f64 {
    let d = stencils.len();
    let mut idx = vec![0usize; d];
    let mut total = 0.0;
    // Iterate over the 2^d corners; modes with point stencils contribute
    // a single corner (skip the duplicate by checking i0 == i1).
    let corners = 1usize << d;
    'corner: for mask in 0..corners {
        let mut weight = 1.0;
        for (j, &(i0, i1, w1)) in stencils.iter().enumerate() {
            let take_hi = (mask >> j) & 1 == 1;
            if take_hi {
                if i0 == i1 {
                    continue 'corner; // degenerate mode: only corner 0
                }
                weight *= w1;
                idx[j] = i1;
            } else {
                weight *= if i0 == i1 { 1.0 } else { 1.0 - w1 };
                idx[j] = i0;
            }
        }
        if weight != 0.0 {
            total += weight * values(&idx);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2d() -> ParamSpace {
        ParamSpace::new(vec![
            ParamSpec::linear("x", 0.0, 10.0),
            ParamSpec::linear("y", 0.0, 10.0),
        ])
    }

    #[test]
    fn dims_and_cells() {
        let g = space2d().grid_uniform_cells(5);
        assert_eq!(g.dims(), vec![5, 5]);
        assert_eq!(g.cell_count(), 25);
    }

    #[test]
    fn mixed_space_keeps_categorical_cardinality() {
        let s = ParamSpace::new(vec![
            ParamSpec::log("n", 1.0, 1024.0),
            ParamSpec::categorical("solver", 3),
        ]);
        let g = s.grid_with_cells(&[8, 999]);
        assert_eq!(g.dims(), vec![8, 3]);
    }

    #[test]
    fn cell_index_clamps() {
        let g = space2d().grid_uniform_cells(5);
        assert_eq!(g.cell_index(&[3.0, 11.0]), vec![1, 4]);
        assert_eq!(g.cell_index(&[-1.0, 0.0]), vec![0, 0]);
    }

    #[test]
    fn midpoint_roundtrip() {
        let g = space2d().grid_uniform_cells(5);
        let m = g.midpoint(&[2, 3]);
        assert_eq!(m, vec![5.0, 7.0]);
        assert_eq!(g.cell_index(&m), vec![2, 3]);
    }

    #[test]
    fn interpolate_exact_on_multilinear_function() {
        // f(x, y) = 2x + 3y + 1 is multilinear: interpolation through
        // midpoint values must reproduce it exactly inside the midpoint hull.
        let g = space2d().grid_uniform_cells(5);
        let f = |x: f64, y: f64| 2.0 * x + 3.0 * y + 1.0;
        let pred = g.interpolate(&[4.3, 6.1], |idx| {
            let m = g.midpoint(idx);
            f(m[0], m[1])
        });
        assert!((pred - f(4.3, 6.1)).abs() < 1e-10, "pred {pred}");
    }

    #[test]
    fn interpolate_extrapolates_linearly_at_edges() {
        let g = space2d().grid_uniform_cells(5);
        let f = |x: f64, y: f64| 2.0 * x + 3.0 * y + 1.0;
        // 0.2 < first midpoint 1.0 -> linear edge extrapolation still exact
        // for a linear function.
        let pred = g.interpolate(&[0.2, 9.9], |idx| {
            let m = g.midpoint(idx);
            f(m[0], m[1])
        });
        assert!((pred - f(0.2, 9.9)).abs() < 1e-10, "pred {pred}");
    }

    #[test]
    fn interpolate_point_stencil_for_categorical() {
        let s = ParamSpace::new(vec![
            ParamSpec::linear("x", 0.0, 4.0),
            ParamSpec::categorical("c", 2),
        ]);
        let g = s.grid_uniform_cells(4);
        // values differ per category; config selects category 1.
        let pred = g.interpolate(&[0.5, 1.0], |idx| if idx[1] == 1 { 100.0 } else { 0.0 });
        assert_eq!(pred, 100.0);
    }

    #[test]
    fn weights_sum_to_one_inside_hull() {
        let g = space2d().grid_uniform_cells(8);
        // Interpolating the constant function must give the constant.
        let pred = g.interpolate(&[3.7, 8.2], |_| 42.0);
        assert!((pred - 42.0).abs() < 1e-12);
    }

    #[test]
    fn baked_tables_match_grid_stencils() {
        let s = ParamSpace::new(vec![
            ParamSpec::log("n", 1.0, 1024.0),
            ParamSpec::linear("b", 0.0, 10.0),
            ParamSpec::categorical("solver", 3),
        ]);
        let g = s.grid_with_cells(&[8, 5, 1]);
        let tables = g.bake_tables();
        assert_eq!(tables.len(), 3);
        for probe in [[37.0, 4.3, 1.0], [0.2, -1.0, 5.0], [2048.0, 11.0, 0.0]] {
            let naive = g.stencils(&probe);
            for (j, t) in tables.iter().enumerate() {
                let (i0, i1, w1) = t.stencil(probe[j]);
                assert_eq!((i0, i1), (naive[j].0, naive[j].1));
                assert_eq!(w1.to_bits(), naive[j].2.to_bits());
            }
        }
    }

    #[test]
    fn in_domain_flags() {
        let s = space2d();
        assert_eq!(s.in_domain(&[5.0, 20.0]), vec![true, false]);
    }

    #[test]
    fn log_grid_interpolates_power_laws_exactly() {
        // f(x) = x^1.5 is linear in log-log space, so a log-spaced axis
        // interpolating log-midpoint values of log f reproduces it.
        let s = ParamSpace::new(vec![ParamSpec::log("n", 1.0, 1024.0)]);
        let g = s.grid_uniform_cells(10);
        let pred_log = g.interpolate(&[37.0], |idx| {
            let m = g.midpoint(idx);
            1.5 * m[0].ln()
        });
        assert!((pred_log - 1.5 * 37.0_f64.ln()).abs() < 1e-10);
    }
}
