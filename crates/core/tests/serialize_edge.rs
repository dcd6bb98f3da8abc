//! Serialize v2 edge cases the registry loader will hit in production:
//! zero-observation models, 1-cell axes, and maximum-order (d = 6) grids —
//! each round-tripped through `to_bytes`/`from_bytes` and then served off
//! the plan the reader bakes.

use cpr_core::{serialize, CprModel, Loss};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_tensor::{CpDecomp, SparseTensor, TuckerDecomp};

/// Masks are serving-side state, not wire state: a model whose every grid
/// row is unobserved (a freshly provisioned fleet slot, say) serializes to
/// the same bytes as its all-observed twin, loads cleanly, and the loaded
/// model serves off the factor values exactly as `from_parts` would.
#[test]
fn zero_observation_model_roundtrips() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 8.0, 1024.0),
        ParamSpec::linear("b", -2.0, 7.0),
    ]);
    let cells = [5usize, 4];
    let cp = CpDecomp::random(&[5, 4], 2, -1.0, 1.0, 31);
    let full = CprModel::from_parts(space, &cells, cp, Loss::LogLeastSquares, 0.3).unwrap();

    // Strip every observation: an empty tensor marks all rows unobserved.
    let mut zero = full.clone();
    zero.set_row_observed_from(&SparseTensor::new(&[5, 4]));

    let bytes_full = serialize::to_bytes(&full);
    let bytes_zero = serialize::to_bytes(&zero);
    assert_eq!(bytes_zero, bytes_full, "masks must not leak into the wire");

    let restored = serialize::from_bytes(&bytes_zero).unwrap();
    for probe in [[16.0, 0.0], [100.0, -2.0], [1024.0, 7.0], [3.0, 20.0]] {
        let y = restored.predict(&probe);
        assert!(y.is_finite());
        assert_eq!(
            y.to_bits(),
            full.predict(&probe).to_bits(),
            "a loaded model serves the all-observed view at {probe:?}"
        );
        // The zero-observation model itself must also serve (masked
        // fallback), even though its answers legitimately differ.
        assert!(zero.predict(&probe).is_finite());
    }
}

/// Degenerate 1-cell axes (a numerical axis collapsed to one interval, a
/// single-category parameter) survive the round trip with bitwise-equal
/// serving and a canonical re-encoding.
#[test]
fn one_cell_axes_roundtrip() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 8.0, 1024.0), // real range, one interval
        ParamSpec::linear("b", 0.0, 10.0),
        ParamSpec::categorical("alg", 1),
    ]);
    let cells = [1usize, 1, 1];
    for rank in [1usize, 2] {
        let cp = CpDecomp::random(&[1, 1, 1], rank, 0.2, 1.1, 7);
        let model = CprModel::from_parts(space.clone(), &cells, cp, Loss::MLogQ2, 0.0).unwrap();
        let bytes = serialize::to_bytes(&model);
        let restored = serialize::from_bytes(&bytes).unwrap();
        for probe in [[32.0, 5.0, 0.0], [32.0, 0.0, 0.0], [32.0, 30.0, 0.0]] {
            assert_eq!(
                restored.predict(&probe).to_bits(),
                model.predict(&probe).to_bits(),
                "1-cell grid drifted at {probe:?} (rank {rank})"
            );
        }
        assert_eq!(serialize::to_bytes(&restored), bytes, "re-encode drifted");
        // A one-cell-per-mode grid is the smallest possible dense table.
        assert!(restored.plan().has_dense_cache());
    }
}

/// Maximum-order grids (d = 6, the paper's largest benchmark spaces) with
/// mixed axis kinds, CP and Tucker: round trip, bitwise serving, canonical
/// bytes, and the same serving path baked at the far end.
#[test]
fn max_order_d6_grid_roundtrips() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 16.0, 4096.0),
        ParamSpec::log_int("n", 1.0, 64.0),
        ParamSpec::linear("alpha", -1.0, 1.0),
        ParamSpec::linear_int("threads", 1.0, 8.0),
        ParamSpec::categorical("alg", 3),
        ParamSpec::categorical("layout", 2),
    ]);
    let cells = [4usize, 3, 3, 4, 3, 2];
    let dims = [4usize, 3, 3, 4, 3, 2];
    let probes = [
        [100.0, 8.0, 0.5, 4.0, 1.0, 0.0],
        [16.0, 1.0, -1.0, 1.0, 0.0, 1.0],
        [4096.0, 64.0, 1.0, 8.0, 2.0, 0.0],
        [900.0, 3.0, 0.0, 6.0, 1.0, 1.0],
    ];

    let cp = CpDecomp::random(&dims, 2, -0.8, 0.8, 19);
    let cp_model =
        CprModel::from_parts(space.clone(), &cells, cp, Loss::LogLeastSquares, 0.1).unwrap();
    let tucker = TuckerDecomp::random(&dims, &[2, 2, 2, 2, 2, 2], -0.8, 0.8, 23);
    let tucker_model =
        CprModel::from_parts(space, &cells, tucker, Loss::LogLeastSquares, 0.1).unwrap();

    for model in [&cp_model, &tucker_model] {
        let bytes = serialize::to_bytes(model);
        let restored = serialize::from_bytes(&bytes).unwrap();
        assert_eq!(restored.grid().order(), 6);
        assert_eq!(restored.optimizer(), model.optimizer());
        for probe in probes {
            assert_eq!(
                restored.predict(&probe).to_bits(),
                model.predict(&probe).to_bits(),
                "d=6 serving drifted at {probe:?}"
            );
        }
        assert_eq!(serialize::to_bytes(&restored), bytes, "re-encode drifted");
        // 864 grid cells: well inside the dense-table ceiling, so the
        // reader's bake must produce each class's fast path — the table
        // for Tucker, the separable kernel (no table) for log-LS CP.
        let tucker = restored.decomposition().as_tucker().is_some();
        assert_eq!(restored.plan().has_dense_cache(), tucker);
    }
}
