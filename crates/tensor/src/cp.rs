//! Canonical-polyadic (CP) decomposition model.
//!
//! A rank-`R` CP decomposition of an order-`d` tensor stores one `I_j x R`
//! factor matrix per mode and models entry `t_{i_1..i_d} ≈ Σ_r Π_j
//! U^(j)_{i_j r}` (paper Eq. 2). Model size is `Σ_j I_j · R` doubles — linear
//! in order and rank, which is the memory-efficiency argument of the paper.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::sparse::SparseTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest rank evaluated through a stack-allocated accumulator (the paper
/// sweeps ranks 1..64; 64 doubles fit comfortably in a cache line span).
const EVAL_STACK_RANK: usize = 64;

/// CP decomposition: one factor matrix per mode, shared rank.
#[derive(Debug, Clone)]
pub struct CpDecomp {
    factors: Vec<Matrix>,
    rank: usize,
}

impl CpDecomp {
    /// Build from explicit factor matrices (all must share column count).
    pub fn from_factors(factors: Vec<Matrix>) -> Self {
        assert!(!factors.is_empty(), "CpDecomp: need at least one factor");
        let rank = factors[0].cols();
        for (j, f) in factors.iter().enumerate() {
            assert_eq!(
                f.cols(),
                rank,
                "CpDecomp: factor {j} has rank {} != {rank}",
                f.cols()
            );
        }
        Self { factors, rank }
    }

    /// Random initialization with i.i.d. uniform entries in `[lo, hi)`.
    ///
    /// Tensor-completion convention: small positive entries (e.g. `[0,1)`)
    /// for least-squares models, strictly positive bounded-away-from-zero
    /// entries for barrier methods.
    pub fn random(dims: &[usize], rank: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(rank > 0, "CpDecomp: rank must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = dims
            .iter()
            .map(|&d| {
                let mut m = Matrix::zeros(d, rank);
                for v in m.as_mut_slice() {
                    *v = rng.gen_range(lo..hi);
                }
                m
            })
            .collect();
        Self { factors, rank }
    }

    /// Decomposition rank `R`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Tensor order `d`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Mode dimensions.
    pub fn dims(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// Factor matrix for one mode.
    pub fn factor(&self, mode: usize) -> &Matrix {
        &self.factors[mode]
    }

    /// Mutable factor matrix for one mode.
    pub fn factor_mut(&mut self, mode: usize) -> &mut Matrix {
        &mut self.factors[mode]
    }

    /// Move one factor matrix out of the model, leaving a `0 x 0`
    /// placeholder. This is the borrow-splitting primitive of the sweep
    /// optimizers: the taken factor is mutated row-by-row while the
    /// remaining (frozen) factors are read through `&self`, with no
    /// model-sized clone. Pair with [`Self::set_factor`]; until then the
    /// model must only be queried through paths that skip `mode` (e.g.
    /// [`Self::leave_one_out_canonical`] at that `mode`).
    pub fn take_factor(&mut self, mode: usize) -> Matrix {
        std::mem::replace(&mut self.factors[mode], Matrix::zeros(0, 0))
    }

    /// Restore a factor taken by [`Self::take_factor`].
    pub fn set_factor(&mut self, mode: usize, factor: Matrix) {
        assert_eq!(
            factor.cols(),
            self.rank,
            "set_factor: rank mismatch in mode {mode}"
        );
        self.factors[mode] = factor;
    }

    /// All factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Number of stored model parameters `Σ_j I_j R`.
    pub fn param_count(&self) -> usize {
        self.factors.iter().map(|f| f.rows() * f.cols()).sum()
    }

    /// Model size in bytes (8 bytes per parameter).
    pub fn size_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f64>()
    }

    /// Rank-vector accumulation shared by the eval paths: Hadamard-product
    /// the factor rows selected by `rows` into `acc` (pre-filled with 1.0)
    /// and return the rank sum.
    #[inline]
    fn eval_with(&self, acc: &mut [f64], rows: impl Iterator<Item = usize>) -> f64 {
        acc.fill(1.0);
        for (j, i) in rows.enumerate() {
            let row = self.factors[j].row(i);
            for (a, &u) in acc.iter_mut().zip(row) {
                *a *= u;
            }
        }
        acc.iter().sum()
    }

    /// Evaluate the model at a multi-index: `Σ_r Π_j U^(j)[i_j, r]`.
    ///
    /// Rank-`EVAL_STACK_RANK`-and-below models (every paper configuration)
    /// accumulate in a stack buffer — this sits on the per-prediction and
    /// per-residual hot paths, so it must not allocate.
    #[inline]
    pub fn eval(&self, idx: &[usize]) -> f64 {
        debug_assert_eq!(idx.len(), self.order());
        if self.rank <= EVAL_STACK_RANK {
            let mut acc = [0.0; EVAL_STACK_RANK];
            self.eval_with(&mut acc[..self.rank], idx.iter().copied())
        } else {
            let mut acc = vec![0.0; self.rank];
            self.eval_with(&mut acc, idx.iter().copied())
        }
    }

    /// Evaluate at a `u32` multi-index (sparse-tensor entry layout).
    #[inline]
    pub fn eval_u32(&self, idx: &[u32]) -> f64 {
        if self.rank <= EVAL_STACK_RANK {
            let mut acc = [0.0; EVAL_STACK_RANK];
            self.eval_with(&mut acc[..self.rank], idx.iter().map(|&i| i as usize))
        } else {
            let mut acc = vec![0.0; self.rank];
            self.eval_with(&mut acc, idx.iter().map(|&i| i as usize))
        }
    }

    /// Full dense reconstruction. Exponential in order; tests/small only.
    pub fn to_dense(&self) -> DenseTensor {
        let dims = self.dims();
        DenseTensor::from_fn(&dims, |idx| self.eval(idx))
    }

    /// Root-mean-square error over an observation set.
    pub fn rmse(&self, obs: &SparseTensor) -> f64 {
        if obs.nnz() == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (_, idx, v) in obs.iter() {
            let e = self.eval_u32(idx) - v;
            sum += e * e;
        }
        (sum / obs.nnz() as f64).sqrt()
    }

    /// Squared-error objective with ridge term (paper Eq. 3 with LS loss).
    pub fn objective(&self, obs: &SparseTensor, lambda: f64) -> f64 {
        let mut loss = 0.0;
        for (_, idx, v) in obs.iter() {
            let e = self.eval_u32(idx) - v;
            loss += e * e;
        }
        let reg: f64 = self.factors.iter().map(|f| f.fro_norm_sq()).sum();
        loss + lambda * reg
    }

    /// Normalize each column of each factor to unit norm, folding the norms
    /// into per-rank weights; returns the weights `λ_r`.
    ///
    /// Keeping factors normalized bounds round-off growth during long ALS
    /// runs; callers can fold weights back with [`Self::absorb_weights`].
    pub fn normalize_columns(&mut self) -> Vec<f64> {
        let mut weights = vec![1.0; self.rank];
        for f in &mut self.factors {
            for r in 0..self.rank {
                let mut norm = 0.0;
                for i in 0..f.rows() {
                    norm += f[(i, r)] * f[(i, r)];
                }
                let norm = norm.sqrt();
                if norm > 0.0 {
                    weights[r] *= norm;
                    for i in 0..f.rows() {
                        f[(i, r)] /= norm;
                    }
                }
            }
        }
        weights
    }

    /// Multiply the columns of mode-0's factor by `weights` (inverse of
    /// [`Self::normalize_columns`]).
    pub fn absorb_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.rank);
        let f = &mut self.factors[0];
        for r in 0..self.rank {
            for i in 0..f.rows() {
                f[(i, r)] *= weights[r];
            }
        }
    }

    /// True if every factor entry is strictly positive (extrapolation-model
    /// invariant, paper §5.3).
    pub fn is_strictly_positive(&self) -> bool {
        self.factors.iter().all(|f| f.is_strictly_positive())
    }

    /// The *canonical* leave-one-out product `z = P ⊙ S`, the fit-path
    /// specification that the streamed sweeps' direct gathers reproduce
    /// bit-for-bit by folding the same rows in the same order:
    ///
    /// ```text
    ///   P = (…((1 ⊙ U_0) ⊙ U_1) … ⊙ U_{m−1})        (left fold, ascending)
    ///   S = U_{m+1} ⊙ (U_{m+2} ⊙ (… ⊙ (U_{d−1} ⊙ 1)))  (right fold)
    /// ```
    ///
    /// For orders ≤ 3 every mode's `z` is bitwise identical to the plain
    /// left fold of the other modes' rows, ascending, into a ones vector
    /// (at most two participating factors, where association doesn't
    /// matter); at higher orders only the association differs. This naive
    /// recomputation is the reference the streamed sweep kernels are pinned
    /// against.
    pub fn leave_one_out_canonical(&self, idx: &[u32], mode: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rank);
        // Stack suffix accumulator for every paper-scale rank (this sits on
        // the reference sweep's per-observation path — it must not
        // allocate); heap fallback above EVAL_STACK_RANK.
        if self.rank <= EVAL_STACK_RANK {
            let mut suffix = [1.0; EVAL_STACK_RANK];
            self.leave_one_out_canonical_with(idx, mode, &mut suffix[..self.rank], out);
        } else {
            let mut suffix = vec![1.0; self.rank];
            self.leave_one_out_canonical_with(idx, mode, &mut suffix, out);
        }
    }

    fn leave_one_out_canonical_with(
        &self,
        idx: &[u32],
        mode: usize,
        suffix: &mut [f64],
        out: &mut [f64],
    ) {
        let d = self.factors.len();
        for j in (mode + 1..d).rev() {
            let row = self.factors[j].row(idx[j] as usize);
            // `s * u` — IEEE multiplication commutes exactly, so this is
            // bitwise the right fold `u ⊙ S`.
            for (s, &u) in suffix.iter_mut().zip(row) {
                *s *= u;
            }
        }
        if mode == 0 {
            out.copy_from_slice(suffix);
            return;
        }
        out.fill(1.0);
        for (j, &i) in idx.iter().enumerate().take(mode) {
            let row = self.factors[j].row(i as usize);
            for (p, &u) in out.iter_mut().zip(row) {
                *p *= u;
            }
        }
        if mode + 1 < d {
            for (p, &s) in out.iter_mut().zip(&*suffix) {
                *p *= s;
            }
        }
    }
}

/// Query-optimized single-allocation copy of a set of factor matrices — the
/// "SoA bake" of the compiled query path.
///
/// A [`CpDecomp`] stores one [`Matrix`] per mode, each its own heap
/// allocation; a multi-mode gather therefore chases `d` independent
/// pointers through `Vec<Matrix>` headers. `PackedFactors` copies every
/// factor row into one flat buffer with per-mode offsets, so the per-mode
/// gather of a query kernel is a contiguous rank-length slice read from a
/// single allocation (`row` compiles to one add + one bounds check). Rows
/// keep the source row-major layout bit-for-bit, so any kernel that reads
/// rows through a pack computes bitwise-identical results to the same
/// kernel reading `Matrix::row` — the equivalence contract the serving
/// layer's proptests pin.
///
/// A pack is a *bake*, not a view: it does not track later mutations of the
/// source decomposition. Rebuild it whenever the factors change, or copy a
/// changed mode back in with [`Self::refresh_mode`] (the CP sweeps gather
/// every leave-one-out vector from a pack they refresh after each mode
/// update).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFactors {
    data: Vec<f64>,
    /// Per-mode start offset into `data`.
    offsets: Vec<usize>,
    /// Per-mode row length (columns of the source factor).
    strides: Vec<usize>,
    /// Per-mode row count.
    rows: Vec<usize>,
}

impl PackedFactors {
    /// Bake a pack from factor matrices (any column counts; Tucker factors
    /// have per-mode ranks).
    pub fn from_matrices(factors: &[Matrix]) -> Self {
        assert!(!factors.is_empty(), "PackedFactors: need at least one mode");
        let total: usize = factors.iter().map(|f| f.rows() * f.cols()).sum();
        let mut data = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(factors.len());
        let mut strides = Vec::with_capacity(factors.len());
        let mut rows = Vec::with_capacity(factors.len());
        for f in factors {
            offsets.push(data.len());
            strides.push(f.cols());
            rows.push(f.rows());
            data.extend_from_slice(f.as_slice());
        }
        Self {
            data,
            offsets,
            strides,
            rows,
        }
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.offsets.len()
    }

    /// Row count of one mode.
    pub fn rows(&self, mode: usize) -> usize {
        self.rows[mode]
    }

    /// Row length (source factor column count) of one mode.
    pub fn stride(&self, mode: usize) -> usize {
        self.strides[mode]
    }

    /// Baked size in bytes (the factor copies; offset/stride headers are
    /// negligible).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Contiguous factor row `i` of `mode`.
    #[inline(always)]
    pub fn row(&self, mode: usize, i: usize) -> &[f64] {
        let s = self.strides[mode];
        let start = self.offsets[mode] + i * s;
        &self.data[start..start + s]
    }

    /// Element offset of row `i` of `mode` in [`Self::as_slice`].
    #[inline(always)]
    pub fn row_start(&self, mode: usize, i: usize) -> usize {
        self.offsets[mode] + i * self.strides[mode]
    }

    /// Every mode's rows end to end, in mode order.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copy `factor` over `mode`'s rows in place; the shape must match the
    /// baked one.
    pub fn refresh_mode(&mut self, mode: usize, factor: &Matrix) {
        assert_eq!(
            factor.shape(),
            (self.rows[mode], self.strides[mode]),
            "refresh_mode: shape of mode {mode}"
        );
        let start = self.offsets[mode];
        self.data[start..start + factor.as_slice().len()].copy_from_slice(factor.as_slice());
    }

    /// Evaluate a CP model at a multi-index through the pack. Requires a
    /// uniform stride (true for any pack baked from a [`CpDecomp`]);
    /// bitwise-identical to [`CpDecomp::eval`] on the source factors.
    #[inline]
    pub fn eval_cp(&self, idx: &[usize]) -> f64 {
        debug_assert_eq!(idx.len(), self.order());
        let rank = self.strides[0];
        debug_assert!(self.strides.iter().all(|&s| s == rank));
        if rank <= EVAL_STACK_RANK {
            let mut acc = [0.0; EVAL_STACK_RANK];
            self.eval_cp_with(&mut acc[..rank], idx)
        } else {
            let mut acc = vec![0.0; rank];
            self.eval_cp_with(&mut acc, idx)
        }
    }

    /// The accumulation kernel of [`Self::eval_cp`]: same fill/multiply/sum
    /// operation order as [`CpDecomp::eval`], reading packed rows.
    #[inline]
    fn eval_cp_with(&self, acc: &mut [f64], idx: &[usize]) -> f64 {
        acc.fill(1.0);
        for (j, &i) in idx.iter().enumerate() {
            let row = self.row(j, i);
            for (a, &u) in acc.iter_mut().zip(row) {
                *a *= u;
            }
        }
        acc.iter().sum()
    }
}

impl CpDecomp {
    /// Bake the factors into a [`PackedFactors`] for the compiled query
    /// path. The pack is a copy; rebake after mutating the factors.
    pub fn packed(&self) -> PackedFactors {
        PackedFactors::from_matrices(&self.factors)
    }
}

/// Khatri-Rao product (column-wise Kronecker) of two matrices with matching
/// column counts: result has `a.rows() * b.rows()` rows.
pub fn khatri_rao(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "khatri_rao: rank mismatch");
    let r = a.cols();
    let mut out = Matrix::zeros(a.rows() * b.rows(), r);
    for i in 0..a.rows() {
        for k in 0..b.rows() {
            let row = i * b.rows() + k;
            for c in 0..r {
                out[(row, c)] = a[(i, c)] * b[(k, c)];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank2_3mode() -> CpDecomp {
        let u = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 1.0]]);
        let v = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0], &[3.0, 0.0]]);
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        CpDecomp::from_factors(vec![u, v, w])
    }

    #[test]
    fn eval_matches_manual_sum() {
        let cp = rank2_3mode();
        // t[1,2,0] = 2*3*1 (r=0) + 1*0*2 (r=1) = 6
        assert_eq!(cp.eval(&[1, 2, 0]), 6.0);
        // t[0,1,1] = 1*0*2 + 0.5*2*1 = 1
        assert_eq!(cp.eval(&[0, 1, 1]), 1.0);
    }

    #[test]
    fn eval_u32_matches_eval() {
        let cp = rank2_3mode();
        assert_eq!(cp.eval(&[1, 1, 1]), cp.eval_u32(&[1, 1, 1]));
    }

    #[test]
    fn param_count_linear_in_order_and_rank() {
        let cp = CpDecomp::random(&[10, 20, 30], 5, 0.0, 1.0, 1);
        assert_eq!(cp.param_count(), (10 + 20 + 30) * 5);
        assert_eq!(cp.size_bytes(), cp.param_count() * 8);
    }

    /// The plain left fold over the modes other than `skip`, ascending,
    /// from a ones vector: the association `leave_one_out_canonical`
    /// matches bitwise up to order 3.
    fn left_fold_leave_one_out(cp: &CpDecomp, idx: &[u32], skip: usize) -> Vec<f64> {
        let mut out = vec![1.0; cp.rank()];
        for (j, &i) in idx.iter().enumerate().filter(|&(j, _)| j != skip) {
            for (o, &u) in out.iter_mut().zip(cp.factor(j).row(i as usize)) {
                *o *= u;
            }
        }
        out
    }

    #[test]
    fn leave_one_out_row_is_hadamard() {
        let cp = rank2_3mode();
        let mut z = vec![0.0; 2];
        cp.leave_one_out_canonical(&[1, 2, 0], 0, &mut z);
        // modes 1,2 rows: v[2]=[3,0], w[0]=[1,2] -> z = [3*1, 0*2] = [3, 0]
        assert_eq!(z, vec![3.0, 0.0]);
        // eval = dot(z, u_row)
        let manual: f64 = z.iter().zip(cp.factor(0).row(1)).map(|(a, b)| a * b).sum();
        assert_eq!(manual, cp.eval(&[1, 2, 0]));
    }

    #[test]
    fn to_dense_consistent() {
        let cp = rank2_3mode();
        let t = cp.to_dense();
        assert_eq!(t.dims(), &[2, 3, 2]);
        assert_eq!(t.get(&[1, 2, 0]), 6.0);
    }

    #[test]
    fn rmse_zero_on_own_reconstruction() {
        let cp = rank2_3mode();
        let obs = SparseTensor::from_dense(&cp.to_dense());
        assert!(cp.rmse(&obs) < 1e-14);
    }

    #[test]
    fn normalize_and_absorb_roundtrip() {
        let mut cp = rank2_3mode();
        let before = cp.to_dense();
        let w = cp.normalize_columns();
        // Each factor column now unit norm.
        for f in cp.factors() {
            for r in 0..cp.rank() {
                let n: f64 = (0..f.rows()).map(|i| f[(i, r)] * f[(i, r)]).sum();
                assert!((n - 1.0).abs() < 1e-12);
            }
        }
        cp.absorb_weights(&w);
        let after = cp.to_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn random_is_seeded_deterministic() {
        let a = CpDecomp::random(&[4, 5], 3, 0.0, 1.0, 42);
        let b = CpDecomp::random(&[4, 5], 3, 0.0, 1.0, 42);
        let c = CpDecomp::random(&[4, 5], 3, 0.0, 1.0, 43);
        assert_eq!(a.factor(0), b.factor(0));
        assert_ne!(a.factor(0), c.factor(0));
    }

    #[test]
    fn random_positive_range() {
        let cp = CpDecomp::random(&[8, 8], 4, 0.5, 1.5, 7);
        assert!(cp.is_strictly_positive());
    }

    #[test]
    fn take_and_set_factor_roundtrip() {
        let mut cp = rank2_3mode();
        let before = cp.to_dense();
        let f = cp.take_factor(1);
        assert_eq!(cp.factor(1).shape(), (0, 0));
        // Leave-one-out paths that skip the taken mode still work.
        let mut z = vec![0.0; 2];
        cp.leave_one_out_canonical(&[1, 2, 0], 1, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        cp.set_factor(1, f);
        assert_eq!(cp.to_dense(), before);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn set_factor_rejects_wrong_rank() {
        let mut cp = rank2_3mode();
        cp.set_factor(0, Matrix::zeros(2, 5));
    }

    #[test]
    fn eval_above_stack_rank_still_correct() {
        // Rank 65 exercises the heap fallback path.
        let cp = CpDecomp::random(&[3, 4], 65, 0.1, 1.0, 9);
        let mut manual = 0.0;
        for r in 0..65 {
            manual += cp.factor(0)[(2, r)] * cp.factor(1)[(1, r)];
        }
        assert!((cp.eval(&[2, 1]) - manual).abs() < 1e-12);
        assert!((cp.eval_u32(&[2, 1]) - manual).abs() < 1e-12);
    }

    #[test]
    fn packed_rows_match_matrix_rows() {
        let cp = rank2_3mode();
        let p = cp.packed();
        assert_eq!(p.order(), 3);
        for mode in 0..3 {
            assert_eq!(p.rows(mode), cp.factor(mode).rows());
            assert_eq!(p.stride(mode), cp.rank());
            for i in 0..p.rows(mode) {
                assert_eq!(p.row(mode, i), cp.factor(mode).row(i));
            }
        }
        assert_eq!(p.size_bytes(), cp.size_bytes());
    }

    #[test]
    fn packed_eval_bitwise_matches_eval() {
        let cp = CpDecomp::random(&[5, 4, 3], 7, -1.0, 1.0, 77);
        let p = cp.packed();
        for idx in [[0usize, 0, 0], [4, 3, 2], [2, 1, 0], [1, 2, 1]] {
            assert_eq!(p.eval_cp(&idx).to_bits(), cp.eval(&idx).to_bits());
        }
    }

    #[test]
    fn packed_eval_heap_rank_bitwise_matches() {
        // Rank 65 exercises the heap accumulator path of both sides.
        let cp = CpDecomp::random(&[3, 4], 65, 0.1, 1.0, 9);
        let p = cp.packed();
        assert_eq!(p.eval_cp(&[2, 1]).to_bits(), cp.eval(&[2, 1]).to_bits());
    }

    #[test]
    fn packed_is_a_bake_not_a_view() {
        let mut cp = rank2_3mode();
        let p = cp.packed();
        let before = p.row(0, 1).to_vec();
        cp.factor_mut(0).row_mut(1)[0] += 100.0;
        assert_eq!(p.row(0, 1), &before[..], "pack must not track mutation");
        assert_ne!(cp.packed().row(0, 1), &before[..]);
    }

    #[test]
    fn refresh_mode_matches_a_fresh_bake() {
        let mut cp = rank2_3mode();
        let mut p = cp.packed();
        cp.factor_mut(1).row_mut(2)[1] = 7.5;
        assert_ne!(p, cp.packed());
        p.refresh_mode(1, cp.factor(1));
        assert_eq!(p, cp.packed());
        for mode in 0..3 {
            for i in 0..p.rows(mode) {
                let start = p.row_start(mode, i);
                assert_eq!(&p.as_slice()[start..start + 2], cp.factor(mode).row(i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape of mode 0")]
    fn refresh_mode_rejects_another_shape() {
        let mut p = rank2_3mode().packed();
        p.refresh_mode(0, &Matrix::zeros(3, 2));
    }

    #[test]
    fn canonical_leave_one_out_matches_legacy_at_order_three() {
        // Orders <= 3: at most two participating factors per z, so the
        // canonical P ⊙ S association coincides bitwise with the legacy
        // left fold (`left_fold_leave_one_out`).
        let cp = CpDecomp::random(&[4, 5, 3], 6, -1.0, 1.0, 3);
        let mut b = vec![0.0; 6];
        for idx in [[0u32, 0, 0], [3, 4, 2], [1, 2, 1]] {
            for mode in 0..3 {
                let a = left_fold_leave_one_out(&cp, &idx, mode);
                cp.leave_one_out_canonical(&idx, mode, &mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "idx {idx:?} mode {mode}");
                }
            }
        }
    }

    #[test]
    fn canonical_leave_one_out_is_close_at_order_four() {
        let cp = CpDecomp::random(&[3, 3, 3, 3], 4, 0.2, 1.3, 8);
        let mut b = vec![0.0; 4];
        let idx = [2u32, 1, 0, 2];
        for mode in 0..4 {
            let a = left_fold_leave_one_out(&cp, &idx, mode);
            cp.leave_one_out_canonical(&idx, mode, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-14, "mode {mode}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn khatri_rao_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let k = khatri_rao(&a, &b);
        assert_eq!(k.shape(), (4, 2));
        assert_eq!(k[(0, 0)], 5.0); // a00*b00
        assert_eq!(k[(1, 1)], 16.0); // a01*b11
        assert_eq!(k[(3, 0)], 21.0); // a10*b10
    }

    #[test]
    fn objective_includes_regularization() {
        let cp = rank2_3mode();
        let obs = SparseTensor::from_dense(&cp.to_dense());
        let reg: f64 = cp.factors().iter().map(|f| f.fro_norm_sq()).sum();
        let g = cp.objective(&obs, 0.5);
        assert!((g - 0.5 * reg).abs() < 1e-10);
    }
}
