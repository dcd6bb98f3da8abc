//! The PR 5 API-redesign contract, pinned:
//!
//! * serialization v2 round-trips across every optimizer tag, both losses,
//!   and both decomposition variants (proptest over random model parts);
//! * v1 bytes (the pre-Tucker format) still deserialize, with the
//!   optimizer tag implied from the loss;
//! * `dyn PerfModel` is object-safe and CPR, the extrapolator, and a
//!   baseline all drive through the same harness loop — including the
//!   generic `search`/`random_search` consumers.

use cpr_baselines::{Knn, KnnConfig, Regressor};
use cpr_bench::fixtures::{power_law, random_model, TAG_COMBOS};
use cpr_core::{
    random_search, search, serialize, BaselineFamily, BaselineModel, CprBuilder,
    CprExtrapolatorBuilder, CprModel, Loss, Optimizer, PerfModel, PerfModelBuilder, SearchAxis,
};
use cpr_grid::{ParamSpace, ParamSpec, Spacing};
use cpr_tensor::{CpDecomp, TuckerDecomp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v2 round-trip: every tag combination, random shapes, random probes —
    /// the restored model predicts bitwise identically and keeps its tags.
    #[test]
    fn serialization_v2_roundtrips_every_tag_combo(
        combo in 0usize..TAG_COMBOS.len(),
        cells0 in 2usize..7,
        cells1 in 2usize..5,
        rank in 1usize..4,
        seed in 0u64..1000,
        probes in proptest::collection::vec(
            (1.0..2000.0f64, -5.0..10.0f64, 0.0..4.0f64), 1..8),
    ) {
        let (model, optimizer, loss) = random_model(combo, cells0, cells1, rank, seed);
        let bytes = serialize::to_bytes(&model);
        let restored = serialize::from_bytes(&bytes).unwrap();
        prop_assert_eq!(restored.optimizer(), optimizer);
        prop_assert_eq!(restored.loss(), loss);
        prop_assert_eq!(
            restored.decomposition().as_tucker().is_some(),
            model.decomposition().as_tucker().is_some()
        );
        for (m, b, alg) in probes {
            let x = [m, b, alg.floor()];
            prop_assert_eq!(
                model.predict(&x).to_bits(),
                restored.predict(&x).to_bits(),
                "prediction drift at {:?}", x
            );
        }
        // Reserialization is byte-stable (the format has one canonical
        // encoding per model).
        prop_assert_eq!(serialize::to_bytes(&restored), bytes);
    }
}

/// Hand-written v1 encoder, byte-for-byte the pre-PR5 `to_bytes` writer.
/// Kept here as the backward-compatibility fixture: if the v1 reader ever
/// drifts, this test — not a user with an old model file — notices.
fn encode_v1(space: &ParamSpace, cells: &[usize], cp: &CpDecomp, loss: Loss, off: f64) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(&0x4350_524Du32.to_le_bytes()); // "CPRM"
    buf.extend_from_slice(&1u16.to_le_bytes()); // version 1
    buf.push(match loss {
        Loss::LogLeastSquares => 0,
        Loss::MLogQ2 => 1,
    });
    buf.extend_from_slice(&off.to_le_bytes());
    buf.extend_from_slice(&(space.dim() as u16).to_le_bytes());
    for (spec, &n_cells) in space.params().iter().zip(cells) {
        let name = spec.name().as_bytes();
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        match spec {
            ParamSpec::Numerical {
                lo,
                hi,
                spacing,
                integer,
                ..
            } => {
                buf.push(match spacing {
                    Spacing::Uniform => 0,
                    Spacing::Logarithmic => 1,
                });
                buf.push(u8::from(*integer));
                buf.extend_from_slice(&lo.to_le_bytes());
                buf.extend_from_slice(&hi.to_le_bytes());
                buf.extend_from_slice(&(n_cells as u32).to_le_bytes());
            }
            ParamSpec::Categorical { cardinality, .. } => {
                buf.push(2);
                buf.push(0);
                buf.extend_from_slice(&0.0f64.to_le_bytes());
                buf.extend_from_slice(&0.0f64.to_le_bytes());
                buf.extend_from_slice(&(*cardinality as u32).to_le_bytes());
            }
        }
    }
    buf.extend_from_slice(&(cp.rank() as u16).to_le_bytes());
    for mode in 0..cp.order() {
        let f = cp.factor(mode);
        buf.extend_from_slice(&(f.rows() as u32).to_le_bytes());
        for &v in f.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

#[test]
fn v1_bytes_still_deserialize() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 16.0, 512.0),
        ParamSpec::categorical("alg", 2),
    ]);
    let cells = [5usize, 2];
    for (loss, implied) in [
        (Loss::LogLeastSquares, Optimizer::Als),
        (Loss::MLogQ2, Optimizer::Amn),
    ] {
        let (lo, hi) = if loss == Loss::MLogQ2 {
            (0.2, 1.2)
        } else {
            (-1.0, 1.0)
        };
        let cp = CpDecomp::random(&[5, 2], 3, lo, hi, 42);
        let off = if loss == Loss::LogLeastSquares {
            0.5
        } else {
            0.0
        };
        let v1 = encode_v1(&space, &cells, &cp, loss, off);
        let restored = serialize::from_bytes(&v1).unwrap();
        assert_eq!(restored.loss(), loss);
        assert_eq!(restored.optimizer(), implied, "v1 implies the optimizer");
        let direct = CprModel::from_parts(space.clone(), &cells, cp.clone(), loss, off).unwrap();
        for probe in [[20.0, 0.0], [100.0, 1.0], [512.0, 1.0], [3.0, 5.0]] {
            assert_eq!(
                restored.predict(&probe).to_bits(),
                direct.predict(&probe).to_bits(),
                "v1 model diverged at {probe:?}"
            );
        }
        // A v1 model reserializes as v2 and round-trips from there.
        let v2 = serialize::to_bytes(&restored);
        assert_ne!(v2.as_ref(), v1.as_slice());
        let again = serialize::from_bytes(&v2).unwrap();
        assert_eq!(again.optimizer(), implied);
    }
}

/// A checked fixed v1 byte prefix: magic + version + loss must sit at these
/// offsets forever (the reader dispatches on them).
#[test]
fn v1_header_layout_is_frozen() {
    let space = ParamSpace::new(vec![ParamSpec::linear("a", 0.0, 1.0)]);
    let cp = CpDecomp::random(&[4], 1, -1.0, 1.0, 7);
    let v1 = encode_v1(&space, &[4], &cp, Loss::LogLeastSquares, 0.0);
    assert_eq!(&v1[0..4], &[0x4D, 0x52, 0x50, 0x43], "little-endian CPRM");
    assert_eq!(&v1[4..6], &[1, 0], "version 1");
    assert_eq!(v1[6], 0, "loss tag");
    assert!(serialize::from_bytes(&v1).is_ok());
}

/// Every constructible model must round-trip, so inconsistent tag triples
/// — which the serialization reader refuses on the way back in — are
/// rejected at construction time.
#[test]
fn inconsistent_part_tags_rejected_at_construction() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 8.0, 1024.0),
        ParamSpec::linear("b", -2.0, 7.0),
    ]);
    let cells = [4usize, 3];
    let tucker = TuckerDecomp::random(&[4, 3], &[2, 2], 0.1, 1.0, 5);
    // No optimizer produces a positive (MLogQ²) Tucker model.
    assert!(
        CprModel::from_parts(space.clone(), &cells, tucker.clone(), Loss::MLogQ2, 0.0).is_err()
    );
    // Model-class mismatches are rejected whichever way they lean.
    let cp = CpDecomp::random(&[4, 3], 2, 0.1, 1.0, 6);
    assert!(CprModel::from_parts_tagged(
        space.clone(),
        &cells,
        cp,
        Optimizer::TuckerAls,
        Loss::LogLeastSquares,
        0.0
    )
    .is_err());
    assert!(CprModel::from_parts_tagged(
        space.clone(),
        &cells,
        tucker.clone(),
        Optimizer::Als,
        Loss::LogLeastSquares,
        0.0
    )
    .is_err());
    // The consistent pairing still constructs and round-trips.
    let model = CprModel::from_parts(space, &cells, tucker, Loss::LogLeastSquares, 0.1).unwrap();
    let restored = serialize::from_bytes(&serialize::to_bytes(&model)).unwrap();
    assert_eq!(restored.optimizer(), Optimizer::TuckerAls);
}

/// One harness loop drives CPR (two optimizers), the extrapolator, and a
/// baseline through the same `dyn PerfModel` surface.
#[test]
fn dyn_perf_model_dispatch() {
    let (space, train) = power_law(900, 10);
    let (_, test) = power_law(200, 11);

    let builders: Vec<Box<dyn PerfModelBuilder>> = vec![
        Box::new(CprBuilder::new(space.clone()).cells_per_dim(8).rank(2)),
        Box::new(
            CprBuilder::new(space.clone())
                .cells_per_dim(8)
                .rank(2)
                .optimizer(Optimizer::TuckerAls),
        ),
        Box::new(CprExtrapolatorBuilder::from_builder(
            CprBuilder::new(space.clone()).cells_per_dim(6).rank(2),
        )),
        Box::new(BaselineFamily::new("KNN", space.clone(), || {
            Box::new(Knn::new(KnnConfig::default())) as Box<dyn Regressor>
        })),
    ];

    let mut names = Vec::new();
    for builder in &builders {
        let model = builder.fit_boxed(&train).unwrap();
        names.push(model.name().to_string());
        assert_eq!(model.space().dim(), 2);
        let metrics = model.evaluate(&test);
        assert!(
            metrics.mlogq < 0.35,
            "{}: MLogQ {} through the dyn loop",
            model.name(),
            metrics.mlogq
        );
        assert!(model.size_bytes() > 0);
        // predict / predict_into / predict_batch agree through the vtable.
        let probe = vec![300.0, 500.0];
        let one = model.predict(&probe);
        let mut out = [0.0];
        model.predict_into(&[&probe], &mut out);
        assert_eq!(out[0].to_bits(), one.to_bits());
        let batch = model.predict_batch(std::slice::from_ref(&probe));
        assert_eq!(batch[0].to_bits(), one.to_bits());

        // The generic consumers take any dyn model.
        let best = search(
            model.as_ref(),
            &[SearchAxis::Fixed(128.0), SearchAxis::Sweep(12)],
            3,
            1000,
        );
        assert_eq!(best.len(), 3);
        assert!(best[0].predicted_time <= best[1].predicted_time);
        let rbest = random_search(model.as_ref(), &[None, Some(64.0)], 64, 2, 9);
        assert_eq!(rbest.len(), 2);
        for c in &rbest {
            assert_eq!(c.x[1], 64.0);
        }
    }
    assert_eq!(names, vec!["CPR", "CPR-Tucker", "CPR-E", "KNN"]);

    // Serialization through the trait: CPR families serialize, baselines
    // report Unsupported.
    let cpr = builders[0].fit_boxed(&train).unwrap();
    let bytes = cpr.to_bytes().unwrap();
    assert!(serialize::from_bytes(&bytes).is_ok());
    let knn = builders[3].fit_boxed(&train).unwrap();
    assert!(knn.to_bytes().is_err());
}

/// `BaselineModel` also accepts a concrete regressor and behaves like the
/// paper's §6.0.4 protocol (log features in, exp out).
#[test]
fn concrete_bridge_matches_manual_protocol() {
    let (space, train) = power_law(600, 12);
    let (_, test) = power_law(100, 13);
    let bridge =
        BaselineModel::fit_on(space.clone(), Knn::new(KnnConfig::default()), &train).unwrap();
    // Manual §6.0.4: transform features, fit on log targets, exp out.
    let mut manual = Knn::new(KnnConfig::default());
    let xs: Vec<Vec<f64>> = train
        .samples()
        .iter()
        .map(|s| cpr_core::transform_features(&space, &s.x))
        .collect();
    let ys: Vec<f64> = train.samples().iter().map(|s| s.y.ln()).collect();
    manual.fit(&xs, &ys);
    for (x, _) in test.iter() {
        let expected = manual
            .predict(&cpr_core::transform_features(&space, x))
            .exp();
        assert_eq!(bridge.predict(x).to_bits(), expected.to_bits());
    }
}
