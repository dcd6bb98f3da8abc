//! Partially observed tensors: the observation set Ω of tensor completion.
//!
//! Stores coordinate-format entries plus, on demand, per-mode inverted
//! indices `Ω_i = { entries whose mode-j index equals i }`, which are what
//! the row-wise ALS/AMN subproblems iterate over (paper §4.2.1). The
//! inverted index is CSR-shaped ([`ModeIndex`]): one contiguous entry-id
//! array plus row offsets, so a sweep's row loop walks a flat buffer
//! instead of chasing one heap allocation per fiber.

use crate::dense::DenseTensor;

/// CSR-style per-mode inverted observation index: `row(i)` lists the entry
/// ids whose coordinate along the indexed mode equals `i` (the paper's
/// `Ω_i`), in ascending entry order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeIndex {
    /// `rows() + 1` monotone offsets into `entries`.
    offsets: Vec<u32>,
    /// Entry ids grouped by row.
    entries: Vec<u32>,
}

impl ModeIndex {
    /// Number of rows (the indexed mode's dimension).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Entry ids of row `i` (the paper's `Ω_i`), ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// `|Ω_i|`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterate over rows as entry-id slices, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows()).map(move |i| self.row(i))
    }

    /// Total indexed entries `|Ω|`.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

/// Packed per-mode observation layout: the streamed counterpart of
/// [`ModeIndex`], built once per fit and read by every sweep of the
/// completion optimizers.
///
/// Beside [`ModeIndex`]'s entry ids, a `ModeStream` stores each slot's
/// value, contiguously and grouped by row of the streamed mode:
///
/// * `entry_ids` — the original entry id of each slot (ascending within a
///   row, exactly the order [`ModeIndex::row`] yields),
/// * `values` — the observed value of each slot.
///
/// A mode's row subproblem therefore reads its values front to back
/// instead of gathering them per observation; a slot's coordinates stay in
/// the [`SparseTensor`], reached as `obs.index(entry_ids()[slot])`. The
/// slot order is a pure function of the entry order, so two streams built
/// from observation sets with identical entries compare equal
/// (`PartialEq`) — the invariant the incremental streaming-refit path pins
/// in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeStream {
    /// The streamed mode.
    mode: usize,
    /// `rows() + 1` monotone slot offsets.
    offsets: Vec<u32>,
    /// Slot → original entry id.
    entry_ids: Vec<u32>,
    /// Slot → observed value.
    values: Vec<f64>,
}

impl ModeStream {
    /// The mode this stream was built for.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of rows (the streamed mode's dimension).
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total streamed observations `|Ω|`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Slot range of row `i` (the paper's `Ω_i`).
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// All entry ids, slot-major (index with [`Self::row_range`]).
    #[inline]
    pub fn entry_ids(&self) -> &[u32] {
        &self.entry_ids
    }

    /// All values, slot-major (index with [`Self::row_range`]).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Fold the observations `first_new..obs.nnz()` of `obs` into the
    /// stream. The merged stream is **identical** to rebuilding from
    /// scratch with [`SparseTensor::mode_stream`]: new entry ids exceed
    /// every old id, so appending each row's new slots after its old ones
    /// preserves the ascending-entry-id slot order. This is the streaming
    /// refit path — an update that only revises existing cell values skips
    /// this entirely and pays [`Self::refresh_values`] alone.
    pub fn append_from(&mut self, obs: &SparseTensor, first_new: usize) {
        assert_eq!(self.rows(), obs.dims()[self.mode], "append_from: shape");
        // Exact equality: a larger `first_new` would silently drop the
        // entries `self.nnz()..first_new` from the merge, a smaller one
        // would duplicate slots.
        assert_eq!(
            first_new,
            self.nnz(),
            "append_from: stream holds {} entries, caller claims {first_new}",
            self.nnz()
        );
        let nnz = obs.nnz();
        if first_new >= nnz {
            return;
        }
        // Bucket the new entries by row (counting sort, new ids only).
        let rows = self.rows();
        let mut add = vec![0u32; rows + 1];
        for e in first_new..nnz {
            add[obs.index(e)[self.mode] as usize + 1] += 1;
        }
        for i in 0..rows {
            add[i + 1] += add[i];
        }
        let new_total = nnz - first_new;
        let mut offsets = vec![0u32; rows + 1];
        let mut entry_ids = vec![0u32; self.nnz() + new_total];
        let mut values = vec![0.0; self.nnz() + new_total];
        // Per-row write cursors: old slots first, new slots after.
        for i in 0..rows {
            offsets[i + 1] = self.offsets[i + 1] + add[i + 1];
        }
        let mut cursor: Vec<u32> = offsets[..rows].to_vec();
        for (i, cur) in cursor.iter_mut().enumerate() {
            let old = self.row_range(i);
            let dst = *cur as usize;
            let n = old.len();
            entry_ids[dst..dst + n].copy_from_slice(&self.entry_ids[old.clone()]);
            values[dst..dst + n].copy_from_slice(&self.values[old]);
            *cur += n as u32;
        }
        for e in first_new..nnz {
            let i = obs.index(e)[self.mode] as usize;
            let slot = cursor[i] as usize;
            cursor[i] += 1;
            entry_ids[slot] = e as u32;
            values[slot] = obs.value(e);
        }
        self.offsets = offsets;
        self.entry_ids = entry_ids;
        self.values = values;
    }

    /// Re-scatter values from entry-id order into slot order (after cell
    /// values changed in place, e.g. a streaming update revising running
    /// means). Indices are untouched.
    pub fn refresh_values(&mut self, values: &[f64]) {
        for (slot, &e) in self.entry_ids.iter().enumerate() {
            self.values[slot] = values[e as usize];
        }
    }
}

/// Coordinate-format partially observed tensor.
#[derive(Debug, Clone)]
pub struct SparseTensor {
    dims: Vec<usize>,
    /// Flattened index storage: entry `e` occupies `indices[e*d .. (e+1)*d]`.
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseTensor {
    /// Empty observation set over a tensor of the given dimensions.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "SparseTensor: order must be >= 1");
        for &d in dims {
            assert!(d > 0, "SparseTensor: zero-length mode");
            assert!(
                d <= u32::MAX as usize,
                "SparseTensor: mode too large for u32 indices"
            );
        }
        Self {
            dims: dims.to_vec(),
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Bound-check one multi-index; panics with mode/bound detail on
    /// failure. The happy path is a single zipped pass (the per-mode detail
    /// is re-derived only in the cold panic branch).
    #[inline]
    fn validate(dims: &[usize], nnz: usize, index: &[usize]) {
        assert_eq!(index.len(), dims.len(), "observation order mismatch");
        if index.iter().zip(dims).any(|(&i, &dj)| i >= dj) {
            let j = index
                .iter()
                .zip(dims)
                .position(|(&i, &dj)| i >= dj)
                .unwrap();
            panic!(
                "observation index {} out of bound {} in mode {j}",
                index[j], dims[j]
            );
        }
        assert!(
            nnz < u32::MAX as usize,
            "SparseTensor: entry count exceeds u32 id space"
        );
    }

    /// Record an observation. Duplicate indices are allowed; optimizers see
    /// them as repeated measurements (the CPR layer averages before insert).
    /// Panics on a NaN/Inf value, same as on an out-of-bound index: a
    /// single non-finite entry poisons every sweep objective and factor
    /// update that touches its fibers.
    #[inline]
    pub fn push(&mut self, index: &[usize], value: f64) {
        Self::validate(&self.dims, self.values.len(), index);
        assert!(
            value.is_finite(),
            "observation value is not finite ({value})"
        );
        self.indices.extend(index.iter().map(|&i| i as u32));
        self.values.push(value);
    }

    /// Bulk-insert observations — the dataset→tensor ingestion path.
    /// Equivalent to repeated [`Self::push`] but reserves storage once from
    /// the iterator's size hint.
    pub fn extend_from<Idx: AsRef<[usize]>>(
        &mut self,
        entries: impl IntoIterator<Item = (Idx, f64)>,
    ) {
        let it = entries.into_iter();
        let (lower, _) = it.size_hint();
        self.indices.reserve(lower * self.dims.len());
        self.values.reserve(lower);
        for (idx, v) in it {
            self.push(idx.as_ref(), v);
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of observed entries `|Ω|`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill fraction `|Ω| / Π I_j`.
    ///
    /// The cell total is accumulated in `f64`: a `usize` product overflows
    /// for large grids (four modes of 2^24 cells already exceed 2^64 —
    /// scales the sparse layout otherwise handles fine) and would panic in
    /// debug builds or silently wrap in release. `f64` loses only relative
    /// precision ~1e-16, irrelevant for a fill *fraction*.
    pub fn density(&self) -> f64 {
        let total: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / total
    }

    /// Multi-index of entry `e` (as a borrowed `u32` slice).
    // Not `std::ops::Index`: that trait cannot return the computed subslice
    // by value-width here without an owned wrapper, and `t.index(e)` reads
    // naturally at call sites.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn index(&self, e: usize) -> &[u32] {
        let d = self.dims.len();
        &self.indices[e * d..(e + 1) * d]
    }

    /// Observed value of entry `e`.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values[e]
    }

    /// All values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrite the value of entry `e` in place (streaming updates revise
    /// running cell means without rebuilding the tensor). Same finiteness
    /// contract as [`Self::push`].
    #[inline]
    pub fn set_value(&mut self, e: usize, value: f64) {
        assert!(
            value.is_finite(),
            "observation value is not finite ({value})"
        );
        self.values[e] = value;
    }

    /// Apply `f` to every stored value (e.g. log-transform). `FnMut` so
    /// callers can close over mutable state — running normalization stats,
    /// counters — not just pure transforms.
    pub fn map_values_mut(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Iterate over `(entry_id, multi_index, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32], f64)> + '_ {
        (0..self.nnz()).map(move |e| (e, self.index(e), self.values[e]))
    }

    /// Build the per-mode inverted index (the paper's `Ω_i` for every `i`)
    /// in CSR form, by counting sort: two passes over the entries, no
    /// per-row allocations.
    pub fn mode_index(&self, mode: usize) -> ModeIndex {
        assert!(mode < self.order());
        let rows = self.dims[mode];
        let d = self.dims.len();
        let nnz = self.nnz();
        let mut offsets = vec![0u32; rows + 1];
        for e in 0..nnz {
            offsets[self.indices[e * d + mode] as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![0u32; nnz];
        for e in 0..nnz {
            let i = self.indices[e * d + mode] as usize;
            entries[cursor[i] as usize] = e as u32;
            cursor[i] += 1;
        }
        ModeIndex { offsets, entries }
    }

    /// Build the packed per-mode observation stream (see [`ModeStream`]):
    /// [`Self::mode_index`]'s counting sort, plus each slot's value
    /// gathered into slot order.
    pub fn mode_stream(&self, mode: usize) -> ModeStream {
        let ModeIndex { offsets, entries } = self.mode_index(mode);
        let values = entries.iter().map(|&e| self.values[e as usize]).collect();
        ModeStream {
            mode,
            offsets,
            entry_ids: entries,
            values,
        }
    }

    /// Densify (unobserved entries become 0). Intended for tests/small cases.
    pub fn to_dense(&self) -> DenseTensor {
        let mut t = DenseTensor::zeros(&self.dims);
        let mut idx = vec![0usize; self.order()];
        for e in 0..self.nnz() {
            for (j, &i) in self.index(e).iter().enumerate() {
                idx[j] = i as usize;
            }
            t.set(&idx, self.values[e]);
        }
        t
    }

    /// Observations from every entry of a dense tensor (fully observed Ω).
    pub fn from_dense(t: &DenseTensor) -> Self {
        let mut s = Self::new(t.dims());
        s.extend_from(t.iter_indexed());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut s = SparseTensor::new(&[3, 4, 5]);
        s.push(&[0, 1, 2], 1.5);
        s.push(&[2, 3, 4], -2.0);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.index(0), &[0, 1, 2]);
        assert_eq!(s.value(1), -2.0);
        assert!((s.density() - 2.0 / 60.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of bound")]
    fn rejects_out_of_bound() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 2], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bound 3 in mode 1")]
    fn out_of_bound_message_names_mode() {
        let mut s = SparseTensor::new(&[4, 3]);
        s.push(&[1, 7], 1.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan_value() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 1], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_infinite_value() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 1], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn set_value_rejects_nonfinite() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 1], 1.0);
        s.set_value(0, f64::NEG_INFINITY);
    }

    #[test]
    fn extend_from_matches_repeated_push() {
        let mut bulk = SparseTensor::new(&[3, 3]);
        bulk.extend_from(vec![
            (vec![0usize, 1], 1.0),
            (vec![2, 2], 2.0),
            (vec![1, 0], 3.0),
        ]);
        let mut single = SparseTensor::new(&[3, 3]);
        single.push(&[0, 1], 1.0);
        single.push(&[2, 2], 2.0);
        single.push(&[1, 0], 3.0);
        assert_eq!(bulk.nnz(), single.nnz());
        for e in 0..bulk.nnz() {
            assert_eq!(bulk.index(e), single.index(e));
            assert_eq!(bulk.value(e), single.value(e));
        }
        // Slice-shaped indices work too (streaming ingestion path).
        let idx = [1usize, 1];
        let mut s = SparseTensor::new(&[3, 3]);
        s.extend_from([(&idx[..], 4.0)]);
        assert_eq!(s.index(0), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bound")]
    fn extend_from_validates() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.extend_from(vec![(vec![0usize, 0], 1.0), (vec![0, 5], 2.0)]);
    }

    #[test]
    fn mode_index_buckets() {
        let mut s = SparseTensor::new(&[2, 3]);
        s.push(&[0, 0], 1.0);
        s.push(&[1, 1], 2.0);
        s.push(&[0, 2], 3.0);
        let by_mode0 = s.mode_index(0);
        assert_eq!(by_mode0.rows(), 2);
        assert_eq!(by_mode0.row(0), &[0, 2]);
        assert_eq!(by_mode0.row(1), &[1]);
        assert_eq!(by_mode0.nnz(), 3);
        let by_mode1 = s.mode_index(1);
        assert_eq!(by_mode1.rows(), 3);
        assert_eq!(by_mode1.row(2), &[2]);
        assert_eq!(by_mode1.row_len(0), 1);
        let rows: Vec<Vec<u32>> = by_mode1.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn mode_index_empty_rows() {
        let mut s = SparseTensor::new(&[4, 2]);
        s.push(&[3, 0], 1.0);
        let mi = s.mode_index(0);
        assert_eq!(mi.rows(), 4);
        assert!(mi.row(0).is_empty());
        assert!(mi.row(1).is_empty());
        assert!(mi.row(2).is_empty());
        assert_eq!(mi.row(3), &[0]);
        assert_eq!(mi.row_len(1), 0);
    }

    #[test]
    fn mode_index_on_empty_tensor() {
        let s = SparseTensor::new(&[3, 3]);
        let mi = s.mode_index(1);
        assert_eq!(mi.rows(), 3);
        assert_eq!(mi.nnz(), 0);
        assert!(mi.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn dense_roundtrip() {
        let t = DenseTensor::from_fn(&[2, 3], |i| (i[0] + 10 * i[1]) as f64);
        let s = SparseTensor::from_dense(&t);
        assert_eq!(s.nnz(), 6);
        assert_eq!(s.to_dense(), t);
    }

    #[test]
    fn map_values() {
        let mut s = SparseTensor::new(&[2]);
        s.push(&[0], 1.0);
        s.push(&[1], std::f64::consts::E);
        s.map_values_mut(|v| v.ln());
        assert!((s.value(0) - 0.0).abs() < 1e-15);
        assert!((s.value(1) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn density_survives_overflow_scale_dims() {
        // Π I_j = (2^24)^4 = 2^96: overflows usize (and would panic in
        // debug builds under the old accumulation).
        let m = 1usize << 24;
        let mut s = SparseTensor::new(&[m, m, m, m]);
        s.push(&[0, 1, 2, 3], 1.0);
        s.push(&[m - 1, 0, 0, 0], 2.0);
        let d = s.density();
        assert!(d.is_finite() && d > 0.0);
        let expected = 2.0 / (m as f64).powi(4);
        assert!((d - expected).abs() <= expected * 1e-12, "density {d}");
    }

    #[test]
    fn set_value_updates_in_place() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 1], 1.0);
        s.push(&[1, 0], 2.0);
        s.set_value(1, 5.5);
        assert_eq!(s.value(1), 5.5);
        assert_eq!(s.value(0), 1.0);
        assert_eq!(s.index(1), &[1, 0]);
    }

    #[test]
    fn map_values_mut_accepts_stateful_closures() {
        let mut s = SparseTensor::new(&[3]);
        s.push(&[0], 1.0);
        s.push(&[1], 2.0);
        s.push(&[2], 4.0);
        // Running-sum normalization: each value divided by the running
        // total so far — requires FnMut.
        let mut running = 0.0;
        s.map_values_mut(|v| {
            running += v;
            v / running
        });
        assert_eq!(s.values(), &[1.0, 2.0 / 3.0, 4.0 / 7.0]);
        assert_eq!(running, 7.0);
    }

    #[test]
    fn mode_stream_matches_mode_index_and_coordinates() {
        let mut s = SparseTensor::new(&[3, 4, 2]);
        s.push(&[0, 1, 1], 1.0);
        s.push(&[2, 3, 0], 2.0);
        s.push(&[0, 0, 1], 3.0);
        s.push(&[1, 1, 0], 4.0);
        for mode in 0..3 {
            let mi = s.mode_index(mode);
            let st = s.mode_stream(mode);
            assert_eq!(st.mode(), mode);
            assert_eq!(st.rows(), s.dims()[mode]);
            assert_eq!(st.nnz(), s.nnz());
            for i in 0..st.rows() {
                let rng = st.row_range(i);
                assert_eq!(&st.entry_ids()[rng.clone()], mi.row(i));
                for slot in rng {
                    let e = st.entry_ids()[slot] as usize;
                    assert_eq!(st.values()[slot], s.value(e));
                    assert_eq!(s.index(e)[mode] as usize, i);
                }
            }
        }
    }

    #[test]
    fn mode_stream_single_observation_and_empty_rows() {
        let mut s = SparseTensor::new(&[4, 3]);
        s.push(&[2, 1], 7.0);
        let st = s.mode_stream(0);
        assert_eq!(st.nnz(), 1);
        assert!(st.row_range(0).is_empty());
        assert!(st.row_range(1).is_empty());
        assert_eq!(st.row_range(2), 0..1);
        assert!(st.row_range(3).is_empty());
        assert_eq!(st.values(), &[7.0]);
        // Order-1 tensor.
        let mut one = SparseTensor::new(&[5]);
        one.push(&[3], 1.5);
        let st1 = one.mode_stream(0);
        assert_eq!(st1.entry_ids(), &[0]);
        assert_eq!(st1.row_range(3), 0..1);
    }

    #[test]
    fn mode_stream_append_matches_scratch_rebuild() {
        let mut s = SparseTensor::new(&[3, 3]);
        s.push(&[0, 1], 1.0);
        s.push(&[2, 0], 2.0);
        s.push(&[0, 2], 3.0);
        let mut streams: Vec<ModeStream> = (0..2).map(|m| s.mode_stream(m)).collect();
        // Append entries touching old rows, new rows, and multiple per row.
        let first_new = s.nnz();
        s.push(&[1, 1], 4.0);
        s.push(&[0, 0], 5.0);
        s.push(&[2, 2], 6.0);
        for (m, st) in streams.iter_mut().enumerate() {
            st.append_from(&s, first_new);
            assert_eq!(*st, s.mode_stream(m), "mode {m} merged != rebuilt");
        }
        // No-op append: already fully folded in.
        let before = streams[0].clone();
        streams[0].append_from(&s, s.nnz());
        assert_eq!(streams[0], before);
    }

    #[test]
    fn mode_stream_refresh_values_rescatters() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[1, 0], 1.0);
        s.push(&[0, 1], 2.0);
        let mut st = s.mode_stream(0);
        s.set_value(0, 10.0);
        s.set_value(1, 20.0);
        st.refresh_values(s.values());
        assert_eq!(st, s.mode_stream(0));
    }

    #[test]
    fn iter_yields_all() {
        let mut s = SparseTensor::new(&[2, 2]);
        s.push(&[0, 1], 5.0);
        s.push(&[1, 0], 6.0);
        let collected: Vec<_> = s.iter().map(|(e, idx, v)| (e, idx.to_vec(), v)).collect();
        assert_eq!(
            collected,
            vec![(0, vec![0u32, 1], 5.0), (1, vec![1u32, 0], 6.0)]
        );
    }
}
