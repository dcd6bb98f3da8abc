//! Compact binary serialization of trained CPR models.
//!
//! The paper measures model size by dumping fitted models to a file; this
//! module makes that concrete for CPR with a versioned little-endian format
//! (magic `CPRM`). Only the inference state is stored: parameter specs,
//! per-mode cell counts, the loss and optimizer tags, and the decomposition
//! (CP factor matrices, or Tucker factors plus core).
//!
//! ## Version history
//!
//! * **v1** — loss tag + CP factors only (ALS/AMN era). Still readable:
//!   v1 bytes deserialize into a CP model whose optimizer tag is implied
//!   from the loss (`LogLeastSquares → Als`, `MLogQ2 → Amn`).
//! * **v2** — adds an explicit [`Optimizer`] tag and a decomposition tag
//!   (`0` = CP, `1` = Tucker with per-mode multilinear ranks and a dense
//!   core), so Tucker-ALS models round-trip and the optimizer survives
//!   reserialization. Writers emit v2.
//! * **Optimizer tags 2 and 3** were written by the coordinate-descent and
//!   SGD fitters, which are gone. Both fitted plain CP log-least-squares
//!   models, and predictions never depended on the tag, so v2 bytes
//!   carrying either tag load as [`Optimizer::Als`] (a resumed streaming
//!   trainer re-tagged its model as ALS at the first update anyway).
//!   Writers never emit 2 or 3, and either tag on an MLogQ² or Tucker
//!   payload is `Corrupt`, as it always was.

use crate::error::{CprError, Result};
use crate::model::{CprModel, Loss};
use cpr_completion::Optimizer;
use cpr_grid::{ParamSpace, ParamSpec, Spacing};
use cpr_tensor::{CpDecomp, Decomposition, DenseTensor, Matrix, TuckerDecomp};

const MAGIC: u32 = 0x4350_524D; // "CPRM"
const VERSION: u16 = 2;

const DECOMP_CP: u8 = 0;
const DECOMP_TUCKER: u8 = 1;

fn loss_tag(loss: Loss) -> u8 {
    match loss {
        Loss::LogLeastSquares => 0,
        Loss::MLogQ2 => 1,
    }
}

fn loss_from_tag(tag: u8) -> Result<Loss> {
    match tag {
        0 => Ok(Loss::LogLeastSquares),
        1 => Ok(Loss::MLogQ2),
        other => Err(CprError::Corrupt(format!("bad loss tag {other}"))),
    }
}

/// Wire tags are **frozen** — explicit here, never derived from enum
/// order, so reordering or extending [`Optimizer`] cannot silently change
/// the meaning of persisted files (pinned by `optimizer_wire_tags_frozen`).
fn optimizer_tag(opt: Optimizer) -> u8 {
    match opt {
        Optimizer::Als => 0,
        Optimizer::Amn => 1,
        Optimizer::TuckerAls => 4,
    }
}

fn optimizer_from_tag(tag: u8) -> Result<Optimizer> {
    Ok(match tag {
        // 2 and 3: legacy coordinate-descent and SGD tags (version history).
        0 | 2 | 3 => Optimizer::Als,
        1 => Optimizer::Amn,
        4 => Optimizer::TuckerAls,
        other => return Err(CprError::Corrupt(format!("bad optimizer tag {other}"))),
    })
}

fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serialize a trained model to bytes (current version: v2).
pub fn to_bytes(model: &CprModel) -> Box<[u8]> {
    let mut buf = Vec::with_capacity(model.size_bytes() + 256);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(optimizer_tag(model.optimizer()));
    buf.push(loss_tag(model.loss()));
    buf.extend_from_slice(&model.log_offset().to_le_bytes());
    let grid = model.grid();
    buf.extend_from_slice(&(grid.order() as u16).to_le_bytes());
    for mode in 0..grid.order() {
        let axis = grid.axis(mode);
        let spec = axis.spec();
        let name = spec.name().as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        let (kind, integer, lo, hi, n_cells) = match spec {
            ParamSpec::Numerical {
                lo,
                hi,
                spacing,
                integer,
                ..
            } => {
                let kind = match spacing {
                    Spacing::Uniform => 0,
                    Spacing::Logarithmic => 1,
                };
                (kind, u8::from(*integer), *lo, *hi, axis.len())
            }
            ParamSpec::Categorical { cardinality, .. } => (2, 0, 0.0, 0.0, *cardinality),
        };
        buf.push(kind);
        buf.push(integer);
        put_f64s(&mut buf, &[lo, hi]);
        buf.extend_from_slice(&(n_cells as u32).to_le_bytes());
    }
    match model.decomposition() {
        Decomposition::Cp(cp) => {
            buf.push(DECOMP_CP);
            buf.extend_from_slice(&(cp.rank() as u16).to_le_bytes());
            for mode in 0..cp.order() {
                let f = cp.factor(mode);
                buf.extend_from_slice(&(f.rows() as u32).to_le_bytes());
                put_f64s(&mut buf, f.as_slice());
            }
        }
        Decomposition::Tucker(t) => {
            buf.push(DECOMP_TUCKER);
            for &r in t.ranks() {
                buf.extend_from_slice(&(r as u16).to_le_bytes());
            }
            for mode in 0..t.order() {
                let f = t.factor(mode);
                buf.extend_from_slice(&(f.rows() as u32).to_le_bytes());
                put_f64s(&mut buf, f.as_slice());
            }
            put_f64s(&mut buf, t.core().as_slice());
        }
    }
    buf.into_boxed_slice()
}

/// Final-assembly errors (`from_parts*` refusing structurally
/// inconsistent parts, e.g. factor dims vs grid dims) surface as
/// `InvalidConfig` from the constructors, but when they arise from wire
/// bytes the bytes are corrupt — remap so `from_bytes` has exactly one
/// failure mode for untrusted input.
fn as_corrupt(e: CprError) -> CprError {
    match e {
        CprError::Corrupt(_) => e,
        other => CprError::Corrupt(format!("inconsistent model parts: {other}")),
    }
}

/// Bounds-checked little-endian reader over untrusted bytes: a read past
/// the end is `Corrupt` naming the field, never a panic, and nothing is
/// copied until a whole field is known to be present.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(CprError::Corrupt(format!("truncated while reading {what}")));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// `n` finite doubles. The length check comes first, so the
    /// allocation is bounded by the input size; a count too large for any
    /// input saturates and fails that check.
    fn finite_f64s(&mut self, n: usize, what: &str) -> Result<Vec<f64>> {
        let raw = self.take(n.saturating_mul(8), what)?;
        let values: Vec<f64> = raw
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        if values.iter().any(|v| !v.is_finite()) {
            return Err(CprError::Corrupt(format!("non-finite {what} entry")));
        }
        Ok(values)
    }
}

/// Shared axis-table reader (identical layout in v1 and v2): returns the
/// parameter specs and per-mode cell counts.
fn read_axes(r: &mut Reader<'_>, order: usize) -> Result<(Vec<ParamSpec>, Vec<usize>)> {
    let mut specs = Vec::with_capacity(order);
    let mut cells = Vec::with_capacity(order);
    for _ in 0..order {
        let name_len = r.u16("name length")? as usize;
        let name = String::from_utf8(r.take(name_len, "axis name")?.to_vec())
            .map_err(|_| CprError::Corrupt("non-utf8 parameter name".into()))?;
        let kind = r.u8("axis kind")?;
        let integer = r.u8("axis integer flag")? != 0;
        let lo = r.f64("axis lo")?;
        let hi = r.f64("axis hi")?;
        let n_cells = r.u32("axis cell count")? as usize;
        // Allocation guard: building an axis allocates O(n_cells), but a
        // valid file must still carry ≥ 8 bytes of factor data per cell
        // of this mode after this point — so a count beyond remaining/8
        // is corrupt, and allocations stay bounded by the input size.
        if n_cells > r.remaining() / 8 {
            return Err(CprError::Corrupt(format!(
                "axis cell count {n_cells} exceeds payload"
            )));
        }
        let spec = match kind {
            0 | 1 => {
                // NaN bounds must land in the Corrupt arm too, hence the
                // explicit partial_cmp rather than `lo >= hi`. Infinite
                // bounds pass that ordering check but poison midpoint
                // arithmetic downstream (±inf − ±inf = NaN in the axis
                // tables), so finiteness is part of the format.
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(CprError::Corrupt(format!("non-finite range {lo}..{hi}")));
                }
                if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
                    return Err(CprError::Corrupt(format!("bad range {lo}..{hi}")));
                }
                let spacing = if kind == 0 {
                    Spacing::Uniform
                } else {
                    Spacing::Logarithmic
                };
                if spacing == Spacing::Logarithmic && lo <= 0.0 {
                    return Err(CprError::Corrupt("log axis with non-positive lo".into()));
                }
                ParamSpec::Numerical {
                    name,
                    lo,
                    hi,
                    spacing,
                    integer,
                }
            }
            2 => {
                if n_cells == 0 {
                    return Err(CprError::Corrupt("categorical with zero choices".into()));
                }
                ParamSpec::Categorical {
                    name,
                    cardinality: n_cells,
                }
            }
            other => return Err(CprError::Corrupt(format!("bad axis kind {other}"))),
        };
        specs.push(spec);
        cells.push(n_cells.max(1));
    }
    Ok((specs, cells))
}

/// Read one factor matrix (`rows` header + `rows * cols` doubles),
/// rejecting non-finite entries.
fn read_factor(r: &mut Reader<'_>, cols: usize) -> Result<Matrix> {
    let rows = r.u32("factor rows")? as usize;
    let data = r.finite_f64s(rows.saturating_mul(cols), "factor")?;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The log offset, order and axis table that open both versions' bodies
/// after their tags.
fn read_grid(r: &mut Reader<'_>) -> Result<(f64, Vec<ParamSpec>, Vec<usize>)> {
    let log_offset = r.f64("log offset")?;
    if !log_offset.is_finite() {
        return Err(CprError::Corrupt("non-finite log offset".into()));
    }
    let order = r.u16("order")? as usize;
    if order == 0 {
        return Err(CprError::Corrupt("zero tensor order".into()));
    }
    let (specs, cells) = read_axes(r, order)?;
    Ok((log_offset, specs, cells))
}

/// CP rank + one factor per mode (identical layout in v1 and v2).
fn read_cp(r: &mut Reader<'_>, order: usize) -> Result<CpDecomp> {
    let rank = r.u16("rank")? as usize;
    if rank == 0 {
        return Err(CprError::Corrupt("zero rank".into()));
    }
    let factors = (0..order)
        .map(|_| read_factor(r, rank))
        .collect::<Result<Vec<_>>>()?;
    Ok(CpDecomp::from_factors(factors))
}

/// Deserialize a model previously produced by [`to_bytes`] — any format
/// version ever emitted (v1 or v2).
pub fn from_bytes(data: &[u8]) -> Result<CprModel> {
    let mut r = Reader { data };
    if r.u32("header")? != MAGIC {
        return Err(CprError::Corrupt("bad magic".into()));
    }
    match r.u16("header")? {
        1 => from_bytes_v1(r),
        2 => from_bytes_v2(r),
        other => Err(CprError::Corrupt(format!("unsupported version {other}"))),
    }
}

/// v1 body: loss tag, log offset, axes, CP rank + factors. The optimizer
/// tag did not exist yet; it is implied from the loss.
fn from_bytes_v1(mut r: Reader<'_>) -> Result<CprModel> {
    let loss = loss_from_tag(r.u8("loss tag")?)?;
    let (log_offset, specs, cells) = read_grid(&mut r)?;
    let cp = read_cp(&mut r, specs.len())?;
    CprModel::from_parts(ParamSpace::new(specs), &cells, cp, loss, log_offset).map_err(as_corrupt)
}

/// v2 body: optimizer tag, loss tag, log offset, axes, decomposition tag +
/// payload.
fn from_bytes_v2(mut r: Reader<'_>) -> Result<CprModel> {
    let optimizer = optimizer_from_tag(r.u8("optimizer tag")?)?;
    let loss = loss_from_tag(r.u8("loss tag")?)?;
    if optimizer.requires_positive() != (loss == Loss::MLogQ2) {
        return Err(CprError::Corrupt(format!(
            "optimizer {} paired with incompatible loss {loss:?}",
            optimizer.name()
        )));
    }
    let (log_offset, specs, cells) = read_grid(&mut r)?;
    let order = specs.len();
    let decomp = match r.u8("decomposition tag")? {
        DECOMP_CP => {
            if optimizer.fits_tucker() {
                return Err(CprError::Corrupt(
                    "tucker-als tag on a CP decomposition".into(),
                ));
            }
            Decomposition::Cp(read_cp(&mut r, order)?)
        }
        DECOMP_TUCKER => {
            if !optimizer.fits_tucker() {
                return Err(CprError::Corrupt(format!(
                    "{} tag on a Tucker decomposition",
                    optimizer.name()
                )));
            }
            let mut ranks = Vec::with_capacity(order);
            for _ in 0..order {
                let rank = r.u16("tucker ranks")? as usize;
                if rank == 0 {
                    return Err(CprError::Corrupt("zero tucker rank".into()));
                }
                ranks.push(rank);
            }
            let factors = ranks
                .iter()
                .map(|&rank| read_factor(&mut r, rank))
                .collect::<Result<Vec<_>>>()?;
            // Checked arithmetic: a crafted file can declare up to 65535
            // modes of rank 65535, whose product wraps — every malformed
            // field must land in Corrupt, never a panic or huge alloc.
            let core_len = ranks
                .iter()
                .try_fold(1usize, |a, &k| a.checked_mul(k))
                .and_then(|n| n.checked_mul(8).map(|_| n))
                .ok_or_else(|| CprError::Corrupt("tucker core size overflow".into()))?;
            let core = r.finite_f64s(core_len, "core")?;
            Decomposition::Tucker(TuckerDecomp::from_parts(
                DenseTensor::from_vec(&ranks, core),
                factors,
            ))
        }
        other => return Err(CprError::Corrupt(format!("bad decomposition tag {other}"))),
    };
    CprModel::from_parts_tagged(
        ParamSpace::new(specs),
        &cells,
        decomp,
        optimizer,
        loss,
        log_offset,
    )
    .map_err(as_corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::model::CprBuilder;
    use cpr_grid::ParamSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn training_data() -> (ParamSpace, Dataset) {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 2048.0),
            ParamSpec::linear("b", 0.0, 10.0),
            ParamSpec::categorical("alg", 2),
        ]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Dataset::new();
        for _ in 0..800 {
            let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
            let b = rng.gen::<f64>() * 10.0;
            let alg = rng.gen_range(0..2usize);
            data.push(
                vec![m, b, alg as f64],
                1e-3 * m.powf(1.3) * (1.0 + 0.05 * b) * [1.0, 2.3][alg],
            );
        }
        (space, data)
    }

    fn trained_model() -> CprModel {
        let (space, data) = training_data();
        CprBuilder::new(space)
            .cells(vec![6, 4, 2])
            .rank(2)
            .fit(&data)
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        let restored = from_bytes(&bytes).unwrap();
        for probe in [
            vec![100.0, 2.0, 0.0],
            vec![1500.0, 9.0, 1.0],
            vec![32.0, 0.0, 0.0],
            vec![2048.0, 10.0, 1.0],
        ] {
            let a = model.predict(&probe);
            let b = restored.predict(&probe);
            assert!(
                (a - b).abs() < 1e-12 * a.abs().max(1.0),
                "prediction drift at {probe:?}: {a} vs {b}"
            );
        }
        assert_eq!(restored.optimizer(), model.optimizer());
        assert_eq!(restored.loss(), model.loss());
    }

    #[test]
    fn tucker_model_roundtrips() {
        let (space, data) = training_data();
        let model = CprBuilder::new(space)
            .cells(vec![6, 4, 2])
            .rank(2)
            .tucker_ranks(vec![2, 2, 2])
            .optimizer(Optimizer::TuckerAls)
            .fit(&data)
            .unwrap();
        let bytes = to_bytes(&model);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.optimizer(), Optimizer::TuckerAls);
        assert!(restored.decomposition().as_tucker().is_some());
        for probe in [vec![100.0, 2.0, 0.0], vec![1500.0, 9.0, 1.0]] {
            assert_eq!(
                model.predict(&probe).to_bits(),
                restored.predict(&probe).to_bits(),
                "tucker roundtrip drift at {probe:?}"
            );
        }
    }

    #[test]
    fn size_matches_reported_bytes_approximately() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        // Serialized form should be within 2x of the analytic size estimate.
        let est = model.size_bytes();
        assert!(
            bytes.len() < est * 2 + 512,
            "serialized {} vs estimate {est}",
            bytes.len()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let err = from_bytes(&[0u8; 16]).unwrap_err();
        assert!(matches!(err, CprError::Corrupt(_)));
    }

    #[test]
    fn rejects_truncation() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        for cut in [3usize, 10, bytes.len() / 2, bytes.len() - 3] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} silently accepted"
            );
        }
    }

    #[test]
    fn rejects_corrupted_floats() {
        let model = trained_model();
        let mut raw = to_bytes(&model).to_vec();
        // Stomp the final factor float with NaN bits.
        let n = raw.len();
        raw[n - 8..n].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(from_bytes(&raw).is_err());
    }

    #[test]
    fn optimizer_wire_tags_frozen() {
        // These byte values are in persisted files; they may never move.
        let frozen = [
            (Optimizer::Als, 0u8),
            (Optimizer::Amn, 1),
            (Optimizer::TuckerAls, 4),
        ];
        assert_eq!(
            frozen.len(),
            Optimizer::ALL.len(),
            "new variant: assign a new tag"
        );
        for (opt, tag) in frozen {
            assert_eq!(optimizer_tag(opt), tag, "{} tag moved", opt.name());
            assert_eq!(optimizer_from_tag(tag).unwrap(), opt);
        }
    }

    #[test]
    fn legacy_descent_tags_load_as_als() {
        let (space, _) = training_data();
        let tag0 = to_bytes(&trained_model());
        assert_eq!(tag0[6], 0, "byte 6 is the optimizer tag");
        let als = from_bytes(&tag0).unwrap();
        let probes = [
            [100.0, 2.0, 0.0],
            [1500.0, 9.0, 1.0],
            [32.0, 0.0, 0.0],
            [5000.0, -1.0, 1.0],
        ];
        for legacy in [2u8, 3] {
            let mut raw = tag0.to_vec();
            raw[6] = legacy;
            let restored = from_bytes(&raw).unwrap();
            assert_eq!(restored.optimizer(), Optimizer::Als, "tag {legacy}");
            for probe in &probes {
                assert_eq!(
                    restored.predict(probe).to_bits(),
                    als.predict(probe).to_bits(),
                    "tag {legacy} at {probe:?}"
                );
            }
            assert_eq!(to_bytes(&restored), tag0, "tag {legacy} re-encodes as 0");
        }
        // Neither legacy fitter ever produced an MLogQ² or a Tucker model.
        let cells = [6, 4, 2];
        let mlogq = CprModel::from_parts(
            space.clone(),
            &cells,
            CpDecomp::random(&cells, 2, 0.1, 1.5, 3),
            Loss::MLogQ2,
            0.0,
        )
        .unwrap();
        let tucker = CprModel::from_parts_tagged(
            space,
            &cells,
            Decomposition::Tucker(TuckerDecomp::random(&cells, &[2, 2, 2], -1.0, 1.0, 5)),
            Optimizer::TuckerAls,
            Loss::LogLeastSquares,
            0.25,
        )
        .unwrap();
        for model in [&mlogq, &tucker] {
            for legacy in [2u8, 3] {
                let mut raw = to_bytes(model).to_vec();
                raw[6] = legacy;
                assert!(
                    matches!(from_bytes(&raw), Err(CprError::Corrupt(_))),
                    "tag {legacy} on a {} payload",
                    model.optimizer().name()
                );
            }
        }
    }

    #[test]
    fn rejects_incompatible_tag_pairs() {
        let model = trained_model();
        let mut raw = to_bytes(&model).to_vec();
        // Byte 6 is the optimizer tag: claim AMN on a LogLeastSquares
        // model — the reader must refuse the pair.
        raw[6] = 1;
        assert!(matches!(from_bytes(&raw), Err(CprError::Corrupt(_))));
        // Out-of-range optimizer tag.
        let mut raw = to_bytes(&model).to_vec();
        raw[6] = 99;
        assert!(matches!(from_bytes(&raw), Err(CprError::Corrupt(_))));
    }
}
