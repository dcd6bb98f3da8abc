//! Discretization of one parameter onto one tensor mode (paper §5.1).
//!
//! A numerical parameter's range `[X_0, X_I]` is split into `I` sub-intervals
//! with uniform or logarithmic spacing. Tensor index `i` along this mode is
//! associated with the *mid-point* `M_i` of sub-interval `[X_i, X_{i+1}]`;
//! for logarithmic spacing the paper uses the geometric mean, rounded up to
//! an integer for integer parameters (`M = ⌈exp((log X_i + log X_{i+1})/2)⌉`).

use crate::param::{ParamSpec, Spacing};

/// One discretized tensor mode.
#[derive(Debug, Clone)]
pub struct Axis {
    spec: ParamSpec,
    /// Sub-interval boundaries `X_0 .. X_I` (length `cells + 1`); for
    /// categorical parameters this is empty.
    boundaries: Vec<f64>,
    /// Cell mid-points `M_0 .. M_{I-1}` (length `cells`); for categorical
    /// parameters `M_i = i`.
    midpoints: Vec<f64>,
}

impl Axis {
    /// Discretize `spec` into `cells` sub-intervals. For categorical
    /// parameters `cells` is ignored (cardinality wins).
    pub fn new(spec: &ParamSpec, cells: usize) -> Self {
        match spec {
            ParamSpec::Categorical { cardinality, .. } => {
                let midpoints = (0..*cardinality).map(|i| i as f64).collect();
                Self {
                    spec: spec.clone(),
                    boundaries: Vec::new(),
                    midpoints,
                }
            }
            ParamSpec::Numerical {
                lo,
                hi,
                spacing,
                integer,
                ..
            } => {
                assert!(cells >= 1, "Axis: need at least one cell");
                // Integer axes cannot usefully have more cells than distinct
                // integer values: extra cells would get duplicate midpoints
                // and break the binning/interpolation correspondence.
                let cells = if *integer {
                    let span = (hi.floor() - lo.ceil()) as usize + 1;
                    cells.min(span.max(1))
                } else {
                    cells
                };
                let boundaries: Vec<f64> = match spacing {
                    Spacing::Uniform => (0..=cells)
                        .map(|i| lo + (hi - lo) * i as f64 / cells as f64)
                        .collect(),
                    Spacing::Logarithmic => {
                        let (l0, l1) = (lo.ln(), hi.ln());
                        (0..=cells)
                            .map(|i| (l0 + (l1 - l0) * i as f64 / cells as f64).exp())
                            .collect()
                    }
                };
                let mut midpoints: Vec<f64> = boundaries
                    .windows(2)
                    .map(|w| {
                        let m = match spacing {
                            Spacing::Uniform => 0.5 * (w[0] + w[1]),
                            Spacing::Logarithmic => ((w[0].ln() + w[1].ln()) / 2.0).exp(),
                        };
                        if *integer {
                            // Paper's ⌈geometric-mean⌉ rule, clamped into the
                            // cell so grid-point and cell stay associated.
                            m.ceil().clamp(w[0].ceil(), w[1].floor().max(w[0].ceil()))
                        } else {
                            m
                        }
                    })
                    .collect();
                if *integer {
                    // Deduplicate: nudge repeated integer midpoints upward
                    // within their cell where possible.
                    for i in 1..midpoints.len() {
                        if midpoints[i] <= midpoints[i - 1] {
                            let cap = boundaries[i + 1].floor();
                            midpoints[i] = (midpoints[i - 1] + 1.0).min(cap.max(midpoints[i]));
                        }
                    }
                }
                Self {
                    spec: spec.clone(),
                    boundaries,
                    midpoints,
                }
            }
        }
    }

    /// The parameter this axis discretizes.
    pub fn spec(&self) -> &ParamSpec {
        &self.spec
    }

    /// Number of tensor indices along this mode.
    pub fn len(&self) -> usize {
        self.midpoints.len()
    }

    /// True when the axis has a single index.
    pub fn is_empty(&self) -> bool {
        self.midpoints.is_empty()
    }

    /// Sub-interval boundaries (empty for categorical).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Cell mid-points `M_i`.
    pub fn midpoints(&self) -> &[f64] {
        &self.midpoints
    }

    /// Tensor index of the cell containing `x` (clamped to the range).
    pub fn cell_of(&self, x: f64) -> usize {
        match &self.spec {
            ParamSpec::Categorical { cardinality, .. } => {
                (x.round().max(0.0) as usize).min(cardinality - 1)
            }
            ParamSpec::Numerical { .. } => {
                let n = self.len();
                // Binary search over boundaries: find i with b[i] <= x < b[i+1].
                match self
                    .boundaries
                    .binary_search_by(|b| b.partial_cmp(&x).expect("NaN in axis lookup"))
                {
                    Ok(i) => i.min(n - 1),
                    Err(ins) => ins.saturating_sub(1).min(n - 1),
                }
            }
        }
    }

    /// Interpolation stencil along this mode for value `x` (Eq. 5).
    ///
    /// Returns `(i0, i1, w1)`: the prediction uses `(1 - w1) * t[i0] + w1 *
    /// t[i1]`. For categorical parameters (or single-cell axes) this is a
    /// point stencil. Values beyond the first/last mid-point use the same
    /// two-point form with `w1` outside `[0, 1]`, which is exactly linear
    /// extrapolation "along the j'th mode using the corresponding values"
    /// (paper §5.1).
    pub fn stencil(&self, x: f64) -> (usize, usize, f64) {
        let n = self.len();
        if n == 1 || self.spec.is_categorical() {
            let i = self.cell_of(x);
            return (i, i, 0.0);
        }
        let h = |v: f64| self.spec.h(v);
        let hx = h(x);
        // Locate the midpoint bracket [M_i, M_{i+1}) containing x; clamp to
        // the extreme bracket outside the midpoint range.
        let mut i = match self
            .midpoints
            .binary_search_by(|m| m.partial_cmp(&x).expect("NaN in axis stencil"))
        {
            Ok(i) => i,
            Err(ins) => ins.saturating_sub(1),
        };
        i = i.min(n - 2);
        let (m0, m1) = (self.midpoints[i], self.midpoints[i + 1]);
        let denom = h(m1) - h(m0);
        let w1 = if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (hx - h(m0)) / denom
        };
        (i, i + 1, w1)
    }
}

/// Lookup strategy baked into an [`AxisTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum TableKind {
    /// Categorical axis: round-and-clamp to the cardinality, point stencil.
    Categorical { cardinality: usize },
    /// Single-index axis: always the point stencil `(0, 0, 0.0)`.
    Point,
    /// Direct index computation: midpoints are (up to float round-off)
    /// uniformly spaced in `h`-space, so the bracket index is one multiply
    /// away; a bounded fix-up against the exact midpoints absorbs the
    /// round-off. Linear and log float axes land here.
    Direct { inv_step: f64 },
    /// Flat binary search over the sorted midpoints — the fallback for
    /// integer axes, whose ceil-and-nudge midpoints are not uniformly
    /// spaced (and may even repeat, where only the exact `binary_search_by`
    /// tie behaviour reproduces [`Axis::stencil`] bit-for-bit). Integer
    /// axes whose domain exceeds [`INT_MEMO_MAX`] values (MM's and QR's)
    /// stay here.
    Search,
    /// Search, with the stencil of every integer `int_lo + k` of the
    /// axis's domain memoized in [`AxisTable::memo`]: a value whose bits
    /// equal such an integer is one load, every other value takes the
    /// search. Integer axes of at most [`INT_MEMO_MAX`] values.
    Memo { int_lo: f64 },
}

/// Largest integer domain `⌈lo⌉..=⌊hi⌋` whose stencils an integer axis's
/// table memoizes (16 bytes an entry, so at most 4 KiB an axis). It covers
/// every integer axis of AMG and KRIPKE, FMM's but `n` (61,441 values) and
/// BC's `nodes` and `ppn`; MM's axes (4,065 values each) and QR's stay on
/// the search rather than bake thousands of stencils per plan.
const INT_MEMO_MAX: usize = 256;

/// Precomputed quantization table for one axis — the grid half of the
/// compiled query path.
///
/// [`Axis::stencil`] pays, per query, an enum dispatch on [`ParamSpec`], a
/// binary search over the midpoints, and **three** `h`-transforms (`ln` on
/// log axes): `h(x)`, `h(M_i)`, `h(M_{i+1})`. The table bakes the
/// h-transformed midpoints and bracket widths once, and replaces the search
/// with a direct index computation wherever the spacing allows, leaving one
/// `ln` per query on float log axes. An integer axis of at most 256 values
/// also bakes the stencil of every integer of its domain, so an integral
/// query (the paper rounds every integer parameter, §6.0.3) costs one load
/// there: no `ln`, search or division. Other values on such an axis take
/// the search. [`Self::memo_slot`] is that hit test and
/// [`Self::memo_stencils`] the memoized stencils, so a consumer can bake
/// per-slot data of its own: the compiled query path one crate up bakes
/// each slot's blended factor row.
///
/// Contract: `table.stencil(x)` returns bitwise-identical `(i0, i1, w1)` to
/// `axis.stencil(x)` for every non-NaN `x`; numerical-axis tables panic on
/// NaN like the naive path (categorical axes clamp NaN to index 0 on both
/// paths — `NaN.max(0.0)` is `0.0`).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisTable {
    kind: TableKind,
    /// Cell mid-points (the naive search key). Empty for categorical axes.
    mid: Vec<f64>,
    /// `h(M_i)`, baked with the same [`ParamSpec::h`] the naive path calls.
    h_mid: Vec<f64>,
    /// `denom[i] = h_mid[i+1] - h_mid[i]` — the stencil bracket widths.
    denom: Vec<f64>,
    /// Natural-log `h`-transform (log-spaced axes)?
    log_h: bool,
    /// [`TableKind::Memo`] axes only: entry `k` is the `(bracket index,
    /// w1)` that [`Self::stencil_search`] returns for `int_lo + k`, ties on
    /// repeated midpoints included. Empty on every other axis.
    memo: Vec<(u32, f64)>,
}

impl AxisTable {
    /// Number of tensor indices along the mode.
    pub fn len(&self) -> usize {
        match self.kind {
            TableKind::Categorical { cardinality } => cardinality,
            _ => self.mid.len().max(1),
        }
    }

    /// True when the axis has no index (never for tables built from a
    /// well-formed [`Axis`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Baked size in bytes: the actual midpoint/h-midpoint/width vectors
    /// (empty for categorical and point axes) and the integer memo (empty
    /// unless memoized), plus a small header.
    pub fn size_bytes(&self) -> usize {
        (self.mid.len() + self.h_mid.len() + self.denom.len()) * 8
            + std::mem::size_of_val(&self.memo[..])
            + 16
    }

    /// The `h`-transform of the source axis.
    #[inline]
    fn h(&self, x: f64) -> f64 {
        if self.log_h {
            x.max(f64::MIN_POSITIVE).ln()
        } else {
            x
        }
    }

    /// Bracket weight at located index `i`: same expression and guards as
    /// the tail of [`Axis::stencil`], on the baked `h(M_i)` values.
    #[inline]
    fn weighted(&self, hx: f64, i: usize) -> (usize, usize, f64) {
        let denom = self.denom[i];
        let w1 = if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (hx - self.h_mid[i]) / denom
        };
        (i, i + 1, w1)
    }

    /// Categorical round-and-clamp point stencil.
    #[inline(always)]
    fn stencil_categorical(cardinality: usize, x: f64) -> (usize, usize, f64) {
        let i = (x.round().max(0.0) as usize).min(cardinality - 1);
        (i, i, 0.0)
    }

    /// Direct-index bracket lookup: one multiply off the h-uniform
    /// spacing, then a bounded fix-up against the exact midpoints (the
    /// naive search key) — the guess is within one bracket for any
    /// monotone midpoint vector, so each loop runs 0–1 times. The result
    /// is the exact predicate the naive binary search resolves to: the
    /// largest `i <= n-2` with `mid[i] <= x` (0 when none).
    #[inline(always)]
    fn stencil_direct(&self, inv_step: f64, x: f64) -> (usize, usize, f64) {
        assert!(!x.is_nan(), "NaN in axis table");
        let hx = self.h(x);
        let n = self.mid.len();
        let guess = ((hx - self.h_mid[0]) * inv_step).min((n - 2) as f64);
        let mut i = if guess > 0.0 { guess as usize } else { 0 };
        while i < n - 2 && self.mid[i + 1] <= x {
            i += 1;
        }
        while i > 0 && self.mid[i] > x {
            i -= 1;
        }
        self.weighted(hx, i)
    }

    /// Fallback bracket lookup: the same flat binary search over the
    /// sorted midpoints the naive path runs.
    #[inline(always)]
    fn stencil_search(&self, x: f64) -> (usize, usize, f64) {
        let hx = self.h(x);
        let n = self.mid.len();
        let i = match self
            .mid
            .binary_search_by(|m| m.partial_cmp(&x).expect("NaN in axis table"))
        {
            Ok(i) => i.min(n - 2),
            Err(ins) => ins.saturating_sub(1).min(n - 2),
        };
        self.weighted(hx, i)
    }

    /// The memo slot serving `x`: `Some(k)` when this table memoizes an
    /// integer domain and `x` is bitwise its integer `int_lo + k`, `None`
    /// otherwise (fractional and out-of-domain values, `-0.0`, NaN,
    /// infinities, and every table without a memo). This is the memo's one
    /// hit test: the stencil lookups call it, and the query path one crate
    /// up indexes its own per-slot bakes with the slot.
    #[inline(always)]
    pub fn memo_slot(&self, x: f64) -> Option<usize> {
        let TableKind::Memo { int_lo } = self.kind else {
            return None;
        };
        let k = x - int_lo;
        if k >= 0.0 {
            // Saturating cast: infinities and huge values fail the bound.
            let k = k as usize;
            if k < self.memo.len() && (int_lo + k as f64).to_bits() == x.to_bits() {
                return Some(k);
            }
        }
        None
    }

    /// The stencil of each memo slot in slot order, bitwise what
    /// [`Self::stencil`] returns for the slot's integer (empty without a
    /// memo).
    pub fn memo_stencils(&self) -> impl ExactSizeIterator<Item = (usize, usize, f64)> + '_ {
        self.memo.iter().map(|&(i, w1)| {
            let i = i as usize;
            (i, i + 1, w1)
        })
    }

    /// Memoized lookup: one load on a [`Self::memo_slot`] hit, the search
    /// otherwise. Entry `k` was baked from `stencil_search(int_lo + k)`,
    /// the very value the hit test compares `x` against, so a hit is the
    /// search's answer bit for bit.
    #[inline(always)]
    fn stencil_memo(&self, x: f64) -> (usize, usize, f64) {
        match self.memo_slot(x) {
            Some(k) => {
                let (i, w1) = self.memo[k];
                let i = i as usize;
                (i, i + 1, w1)
            }
            None => self.stencil_search(x),
        }
    }

    /// Interpolation stencil for value `x`; bitwise-identical to
    /// [`Axis::stencil`] on the source axis. At most one `h`-transform per
    /// call (none on a memo hit) — the single remaining transcendental on
    /// log axes. `inline(always)`: this is the leaf of the compiled query
    /// kernel one crate up, and the cross-crate call boundary otherwise
    /// survives thin LTO.
    #[inline(always)]
    pub fn stencil(&self, x: f64) -> (usize, usize, f64) {
        match self.kind {
            TableKind::Categorical { cardinality } => Self::stencil_categorical(cardinality, x),
            TableKind::Point => {
                assert!(!x.is_nan(), "NaN in axis table");
                (0, 0, 0.0)
            }
            TableKind::Direct { inv_step } => self.stencil_direct(inv_step, x),
            TableKind::Search => self.stencil_search(x),
            TableKind::Memo { .. } => self.stencil_memo(x),
        }
    }

    /// Batched quantization: stencil every value of `xs` in order, handing
    /// `(k, (i0, i1, w1))` to `sink`. The lookup-kind dispatch is hoisted
    /// out of the loop — one branch per *batch* instead of per value — and
    /// each stencil is bitwise-identical to [`Self::stencil`]. This is the
    /// grid half of the compiled multi-query serving path.
    #[inline]
    pub fn stencils_for_each(
        &self,
        xs: impl Iterator<Item = f64>,
        mut sink: impl FnMut(usize, (usize, usize, f64)),
    ) {
        match self.kind {
            TableKind::Categorical { cardinality } => {
                for (k, x) in xs.enumerate() {
                    sink(k, Self::stencil_categorical(cardinality, x));
                }
            }
            TableKind::Point => {
                for (k, x) in xs.enumerate() {
                    assert!(!x.is_nan(), "NaN in axis table");
                    sink(k, (0, 0, 0.0));
                }
            }
            TableKind::Direct { inv_step } => {
                for (k, x) in xs.enumerate() {
                    sink(k, self.stencil_direct(inv_step, x));
                }
            }
            TableKind::Search => {
                for (k, x) in xs.enumerate() {
                    sink(k, self.stencil_search(x));
                }
            }
            TableKind::Memo { .. } => {
                for (k, x) in xs.enumerate() {
                    sink(k, self.stencil_memo(x));
                }
            }
        }
    }
}

impl Axis {
    /// Bake the quantization table for this axis (see [`AxisTable`]).
    pub fn table(&self) -> AxisTable {
        if let ParamSpec::Categorical { cardinality, .. } = &self.spec {
            return AxisTable {
                kind: TableKind::Categorical {
                    cardinality: *cardinality,
                },
                mid: Vec::new(),
                h_mid: Vec::new(),
                denom: Vec::new(),
                log_h: false,
                memo: Vec::new(),
            };
        }
        let log_h = matches!(
            &self.spec,
            ParamSpec::Numerical {
                spacing: Spacing::Logarithmic,
                ..
            }
        );
        let integer = matches!(&self.spec, ParamSpec::Numerical { integer: true, .. });
        let n = self.midpoints.len();
        let h_mid: Vec<f64> = self.midpoints.iter().map(|&m| self.spec.h(m)).collect();
        let denom: Vec<f64> = h_mid.windows(2).map(|w| w[1] - w[0]).collect();
        let kind = if n == 1 {
            TableKind::Point
        } else {
            // Direct indexing needs strictly increasing midpoints (so the
            // fix-up predicate is unambiguous) and a usable uniform step in
            // h-space. Integer axes use nudged midpoints — always Search
            // (memoized below when their domain is small).
            let strictly_increasing = self.midpoints.windows(2).all(|w| w[0] < w[1]);
            let step = (h_mid[n - 1] - h_mid[0]) / (n - 1) as f64;
            let inv_step = 1.0 / step;
            if !integer && strictly_increasing && inv_step.is_finite() && step > 0.0 {
                TableKind::Direct { inv_step }
            } else {
                TableKind::Search
            }
        };
        let mut table = AxisTable {
            kind,
            mid: self.midpoints.clone(),
            h_mid,
            denom,
            log_h,
            memo: Vec::new(),
        };
        // A small integer domain memoizes the stencil of each of its
        // integers, as the search itself computes it.
        if let (
            TableKind::Search,
            ParamSpec::Numerical {
                lo,
                hi,
                integer: true,
                ..
            },
        ) = (kind, &self.spec)
        {
            let int_lo = lo.ceil();
            let span = hi.floor() - int_lo;
            if span < INT_MEMO_MAX as f64 {
                table.memo = (0..=span as usize)
                    .map(|k| {
                        let (i, _, w1) = table.stencil_search(int_lo + k as f64);
                        (i as u32, w1)
                    })
                    .collect();
                table.kind = TableKind::Memo { int_lo };
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpec;

    #[test]
    fn uniform_boundaries_and_midpoints() {
        let a = Axis::new(&ParamSpec::linear("x", 0.0, 10.0), 5);
        assert_eq!(a.len(), 5);
        assert_eq!(a.boundaries(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        assert_eq!(a.midpoints(), &[1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn log_boundaries_are_geometric() {
        let a = Axis::new(&ParamSpec::log("x", 1.0, 16.0), 4);
        let b = a.boundaries();
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-12, "ratio {}", w[1] / w[0]);
        }
        // Midpoints are geometric means.
        assert!((a.midpoints()[0] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn integer_midpoints_are_ceiled() {
        let a = Axis::new(&ParamSpec::log_int("m", 32.0, 4096.0), 7);
        for &m in a.midpoints() {
            assert_eq!(m, m.ceil());
        }
    }

    #[test]
    fn cell_lookup_uniform() {
        let a = Axis::new(&ParamSpec::linear("x", 0.0, 10.0), 5);
        assert_eq!(a.cell_of(0.0), 0);
        assert_eq!(a.cell_of(1.99), 0);
        assert_eq!(a.cell_of(2.0), 1);
        assert_eq!(a.cell_of(9.99), 4);
        assert_eq!(a.cell_of(10.0), 4); // clamped top boundary
        assert_eq!(a.cell_of(-5.0), 0); // clamped below
        assert_eq!(a.cell_of(50.0), 4); // clamped above
    }

    #[test]
    fn cell_lookup_log() {
        let a = Axis::new(&ParamSpec::log("x", 1.0, 256.0), 8);
        assert_eq!(a.cell_of(1.0), 0);
        assert_eq!(a.cell_of(3.0), 1); // [2,4)
        assert_eq!(a.cell_of(255.0), 7);
    }

    #[test]
    fn categorical_axis() {
        let a = Axis::new(&ParamSpec::categorical("solver", 3), 99);
        assert_eq!(a.len(), 3);
        assert_eq!(a.cell_of(1.2), 1);
        assert_eq!(a.cell_of(7.0), 2); // clamped
        let (i0, i1, w) = a.stencil(2.0);
        assert_eq!((i0, i1, w), (2, 2, 0.0));
    }

    #[test]
    fn stencil_interpolates_between_midpoints() {
        let a = Axis::new(&ParamSpec::linear("x", 0.0, 10.0), 5);
        // x = 4.0 lies between midpoints 3 and 5: w1 = 0.5.
        let (i0, i1, w1) = a.stencil(4.0);
        assert_eq!((i0, i1), (1, 2));
        assert!((w1 - 0.5).abs() < 1e-12);
        // Exactly on a midpoint: weight 0 on the right neighbour.
        let (j0, _, w) = a.stencil(3.0);
        assert_eq!(j0, 1);
        assert!(w.abs() < 1e-12);
    }

    #[test]
    fn stencil_extrapolates_beyond_edge_midpoints() {
        let a = Axis::new(&ParamSpec::linear("x", 0.0, 10.0), 5);
        // Below the first midpoint (1.0): linear extrapolation, w1 < 0.
        let (i0, i1, w1) = a.stencil(0.0);
        assert_eq!((i0, i1), (0, 1));
        assert!((w1 + 0.5).abs() < 1e-12);
        // Above the last midpoint (9.0): w1 > 1.
        let (j0, j1, w2) = a.stencil(10.0);
        assert_eq!((j0, j1), (3, 4));
        assert!((w2 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn log_stencil_uses_log_coordinates() {
        let a = Axis::new(&ParamSpec::log("x", 1.0, 16.0), 4);
        // Midpoints are sqrt2, 2sqrt2, 4sqrt2, 8sqrt2; x = 2 is the geometric
        // mean of midpoints 0 and 1 -> w1 = 0.5 in log space.
        let (i0, i1, w1) = a.stencil(2.0);
        assert_eq!((i0, i1), (0, 1));
        assert!((w1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_cell_axis_point_stencil() {
        let a = Axis::new(&ParamSpec::linear("x", 0.0, 1.0), 1);
        let (i0, i1, w) = a.stencil(0.7);
        assert_eq!((i0, i1, w), (0, 0, 0.0));
    }

    /// Dense probe sweep: the baked table must reproduce `Axis::stencil`
    /// bit-for-bit, including beyond-the-range extrapolation probes.
    fn assert_table_matches(a: &Axis, lo: f64, hi: f64) {
        let t = a.table();
        assert_eq!(t.len(), a.len());
        let span = hi - lo;
        for k in 0..=2000 {
            // Probe from one span below to one span above the range.
            let x = lo - span + 3.0 * span * k as f64 / 2000.0;
            let (i0, i1, w1) = a.stencil(x);
            let (j0, j1, v1) = t.stencil(x);
            assert_eq!((i0, i1), (j0, j1), "indices differ at x={x}");
            assert_eq!(w1.to_bits(), v1.to_bits(), "weight differs at x={x}");
        }
        // Exact midpoints and boundaries are the adversarial probes for the
        // direct-index fix-up.
        for &m in a.midpoints().iter().chain(a.boundaries()) {
            let (i0, i1, w1) = a.stencil(m);
            let (j0, j1, v1) = t.stencil(m);
            assert_eq!((i0, i1, w1.to_bits()), (j0, j1, v1.to_bits()), "at x={m}");
        }
        // The batched path must agree with the scalar path, in order.
        let probes: Vec<f64> = (0..=100)
            .map(|k| lo - span + 3.0 * span * k as f64 / 100.0)
            .collect();
        let mut seen = 0usize;
        t.stencils_for_each(probes.iter().copied(), |k, (i0, i1, w1)| {
            assert_eq!(k, seen);
            seen += 1;
            let (j0, j1, v1) = t.stencil(probes[k]);
            assert_eq!((i0, i1, w1.to_bits()), (j0, j1, v1.to_bits()));
        });
        assert_eq!(seen, probes.len());
    }

    #[test]
    fn table_matches_axis_linear() {
        assert_table_matches(&Axis::new(&ParamSpec::linear("x", 0.0, 10.0), 5), 0.0, 10.0);
        assert_table_matches(&Axis::new(&ParamSpec::linear("x", -3.0, 7.5), 9), -3.0, 7.5);
    }

    #[test]
    fn table_matches_axis_log() {
        assert_table_matches(&Axis::new(&ParamSpec::log("x", 1.0, 256.0), 8), 1.0, 256.0);
        assert_table_matches(&Axis::new(&ParamSpec::log("x", 0.5, 1e6), 17), 0.5, 1e6);
    }

    #[test]
    fn table_matches_axis_integer_fallback() {
        // Nudged integer midpoints take the binary-search fallback.
        assert_table_matches(
            &Axis::new(&ParamSpec::log_int("m", 32.0, 4096.0), 7),
            32.0,
            4096.0,
        );
        assert_table_matches(
            &Axis::new(&ParamSpec::linear_int("p", 1.0, 9.0), 20),
            1.0,
            9.0,
        );
    }

    /// Memo probes: every integer of the domain, the integers just
    /// outside it, both zeros, `lo ± 0.5`, `hi ± 0.5` and `2^53 + 2`.
    fn memo_probes(lo: f64, hi: f64) -> Vec<f64> {
        let mut xs: Vec<f64> = (lo.ceil() as i64 - 1..=hi.floor() as i64 + 1)
            .map(|v| v as f64)
            .collect();
        xs.extend([-0.0, 0.0, lo - 0.5, lo + 0.5, hi - 0.5, hi + 0.5]);
        xs.push(2f64.powi(53) + 2.0);
        xs
    }

    /// A memoized table gives `Axis::stencil`'s bits on every memo probe,
    /// through `stencil` and through `stencils_for_each`.
    fn assert_memo_matches(spec: ParamSpec, cells: usize) {
        let a = Axis::new(&spec, cells);
        let t = a.table();
        let (lo, hi) = spec.range().unwrap();
        assert_eq!(
            t.memo.len(),
            (hi.floor() - lo.ceil()) as usize + 1,
            "{spec:?}"
        );
        let xs = memo_probes(lo, hi);
        for &x in &xs {
            let (i0, i1, w1) = a.stencil(x);
            let (j0, j1, v1) = t.stencil(x);
            assert_eq!((i0, i1, w1.to_bits()), (j0, j1, v1.to_bits()), "x={x}");
            // The slot hit test: exactly the integers of the domain, by bits.
            let int = (x - lo.ceil()) as usize;
            let hit = x >= lo.ceil()
                && int < t.memo.len()
                && (lo.ceil() + int as f64).to_bits() == x.to_bits();
            assert_eq!(t.memo_slot(x), hit.then_some(int), "x={x}");
        }
        // Slot `k`'s stencil is the naive stencil of the integer `int_lo + k`.
        assert_eq!(t.memo_stencils().len(), t.memo.len());
        for (k, (j0, j1, v1)) in t.memo_stencils().enumerate() {
            let v = lo.ceil() + k as f64;
            assert_eq!(t.memo_slot(v), Some(k));
            let (i0, i1, w1) = a.stencil(v);
            assert_eq!((i0, i1, w1.to_bits()), (j0, j1, v1.to_bits()), "v={v}");
        }
        let mut seen = 0usize;
        t.stencils_for_each(xs.iter().copied(), |k, (j0, j1, v1)| {
            assert_eq!(k, seen);
            seen += 1;
            let (i0, i1, w1) = a.stencil(xs[k]);
            assert_eq!(
                (i0, i1, w1.to_bits()),
                (j0, j1, v1.to_bits()),
                "x={}",
                xs[k]
            );
        });
        assert_eq!(seen, xs.len());
    }

    #[test]
    fn memoized_tables_match_axis_bitwise() {
        assert_memo_matches(ParamSpec::linear_int("p", 1.0, 9.0), 20);
        assert_memo_matches(ParamSpec::log_int("n", 8.0, 128.0), 16);
        // Many cells on a short log range repeat nudged midpoints, where
        // only the search's tie behaviour gives the naive bracket.
        let repeats = Axis::new(&ParamSpec::log_int("g", 1.0, 32.0), 32);
        assert!(repeats.midpoints().windows(2).any(|w| w[0] == w[1]));
        assert_memo_matches(ParamSpec::log_int("g", 1.0, 32.0), 32);
        // A domain starting at 0 (midpoint 0, so `-0.0` weighs `-0.0`) and
        // one straddling it: `-0.0` must miss the memo.
        let zero = Axis::new(&ParamSpec::linear_int("l", 0.0, 5.0), 6);
        assert_eq!(zero.stencil(-0.0).2.to_bits(), (-0.0f64).to_bits());
        assert_memo_matches(ParamSpec::linear_int("l", 0.0, 5.0), 6);
        assert_memo_matches(ParamSpec::linear_int("s", -7.5, 7.5), 5);
        // The largest memoized domain: 1..=256.
        assert_memo_matches(ParamSpec::linear_int("b", 0.5, 256.5), 12);
    }

    #[test]
    #[should_panic(expected = "NaN in axis table")]
    fn memoized_stencil_panics_on_nan() {
        let t = Axis::new(&ParamSpec::linear_int("p", 1.0, 9.0), 20).table();
        t.stencil(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN in axis table")]
    fn memoized_batch_panics_on_nan() {
        let t = Axis::new(&ParamSpec::log_int("g", 1.0, 32.0), 32).table();
        t.stencils_for_each([3.0, f64::NAN].into_iter(), |_, _| {});
    }

    #[test]
    fn memo_exists_exactly_on_small_integer_axes() {
        let memo_len = |spec: ParamSpec, cells: usize| {
            let t = Axis::new(&spec, cells).table();
            assert_eq!(
                matches!(t.kind, TableKind::Memo { .. }),
                !t.memo.is_empty(),
                "{spec:?}"
            );
            assert_eq!(t.memo_stencils().len(), t.memo.len());
            if t.memo.is_empty() {
                // No memo, no slot: not even for an in-range integer.
                let (lo, _) = spec.range().unwrap_or((0.0, 0.0));
                assert_eq!(t.memo_slot(lo.ceil()), None, "{spec:?}");
            }
            t.memo.len()
        };
        assert_eq!(memo_len(ParamSpec::linear_int("p", 1.0, 9.0), 20), 9);
        assert_eq!(memo_len(ParamSpec::log_int("g", 1.0, 32.0), 32), 32);
        assert_eq!(memo_len(ParamSpec::linear_int("b", 0.5, 256.5), 12), 256);
        assert_eq!(memo_len(ParamSpec::linear_int("b", 1.0, 257.0), 12), 0);
        assert_eq!(memo_len(ParamSpec::log_int("m", 32.0, 4096.0), 7), 0);
        assert_eq!(memo_len(ParamSpec::linear_int("p", 1.0, 9.0), 1), 0);
        assert_eq!(memo_len(ParamSpec::log("x", 1.0, 16.0), 4), 0);
        assert_eq!(memo_len(ParamSpec::linear("x", 0.0, 10.0), 5), 0);
        assert_eq!(memo_len(ParamSpec::categorical("c", 3), 3), 0);
    }

    #[test]
    fn size_bytes_counts_the_memo() {
        let a = Axis::new(&ParamSpec::log_int("g", 1.0, 32.0), 32);
        let n = a.len();
        // Midpoints, h-midpoints, widths; 32 memo entries of 16 bytes.
        assert_eq!(a.table().size_bytes(), (3 * n - 1) * 8 + 32 * 16 + 16);
        let m = Axis::new(&ParamSpec::log_int("m", 32.0, 4096.0), 7);
        assert_eq!(m.table().size_bytes(), (3 * 7 - 1) * 8 + 16);
    }

    #[test]
    fn table_matches_axis_categorical_and_point() {
        let c = Axis::new(&ParamSpec::categorical("solver", 3), 99);
        let t = c.table();
        for x in [-2.0, 0.0, 0.4, 1.2, 2.0, 7.0] {
            assert_eq!(t.stencil(x), c.stencil(x));
        }
        assert_table_matches(&Axis::new(&ParamSpec::linear("x", 0.0, 1.0), 1), 0.0, 1.0);
    }
}
