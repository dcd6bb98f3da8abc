//! Seeded test fixtures shared across the workspace.
//!
//! One place owns the "random but reproducible model" generators that the
//! serialization contract tests (`cpr_core/tests/api_surface.rs`), the
//! registry concurrency suite (`cpr_registry/tests/`), and the end-to-end
//! benchmark's fleet and wire probes (`e2ebench/`) all need — so a fleet
//! of 200 servable models means the same thing in a proptest and in a
//! benchmark. Everything here is part-wise construction
//! ([`CprModel::from_parts_tagged`] over random factors): building a
//! 200-model fleet costs milliseconds, no fitting involved.

use cpr_core::{CprModel, Dataset, Decomposition, Loss, Optimizer};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_tensor::{CpDecomp, TuckerDecomp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (optimizer, loss, tucker?) combinations the serialization format must
/// round-trip — every tag triple a fit can produce.
pub const TAG_COMBOS: [(Optimizer, Loss, bool); 5] = [
    (Optimizer::Als, Loss::LogLeastSquares, false),
    (Optimizer::Amn, Loss::MLogQ2, false),
    (Optimizer::Ccd, Loss::LogLeastSquares, false),
    (Optimizer::Sgd, Loss::LogLeastSquares, false),
    (Optimizer::TuckerAls, Loss::LogLeastSquares, true),
];

/// The 3-parameter mixed-axis space (log, linear, categorical) the random
/// model generators discretize — one of each axis kind, so every baked
/// `AxisTable` variant is exercised.
pub fn mixed_space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamSpec::log("m", 8.0, 1024.0),
        ParamSpec::linear("b", -2.0, 7.0),
        ParamSpec::categorical("alg", 3),
    ])
}

/// A model assembled from random parts (no training), exercising every
/// serializable field: mixed axis kinds, either decomposition variant,
/// every tag combination (`combo` indexes [`TAG_COMBOS`]).
pub fn random_model(
    combo: usize,
    cells0: usize,
    cells1: usize,
    rank: usize,
    seed: u64,
) -> (CprModel, Optimizer, Loss) {
    let (optimizer, loss, tucker) = TAG_COMBOS[combo];
    let space = mixed_space();
    let cells = vec![cells0, cells1, 3];
    let dims = vec![cells0, cells1, 3];
    let (lo, hi) = if loss == Loss::MLogQ2 {
        (0.1, 1.5) // positive entries so the ln() path stays sane
    } else {
        (-1.0, 1.0)
    };
    let decomp = if tucker {
        Decomposition::Tucker(TuckerDecomp::random(
            &dims,
            &[rank, rank.max(2), 2],
            lo,
            hi,
            seed,
        ))
    } else {
        Decomposition::Cp(CpDecomp::random(&dims, rank, lo, hi, seed))
    };
    let log_offset = if loss == Loss::LogLeastSquares {
        0.25
    } else {
        0.0
    };
    let model =
        CprModel::from_parts_tagged(space, &cells, decomp, optimizer, loss, log_offset).unwrap();
    (model, optimizer, loss)
}

/// Seeded 2-parameter power-law dataset (`t = 1e-4 · m^1.3 · n^0.7`) over a
/// log×log space — the standard "CPR should nail this" training fixture.
pub fn power_law(n: usize, seed: u64) -> (ParamSpace, Dataset) {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 2048.0),
        ParamSpec::log("n", 32.0, 2048.0),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        let nn = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, nn], 1e-4 * m.powf(1.3) * nn.powf(0.7));
    }
    (space, data)
}

/// One entry of a synthetic model fleet: the (application × machine ×
/// metric) naming triple a production registry keys on, plus a servable
/// model. The triple is unique per fleet index.
#[derive(Debug, Clone)]
pub struct FleetModel {
    pub app: String,
    pub machine: String,
    pub metric: String,
    pub model: CprModel,
}

const FLEET_APPS: [&str; 8] = [
    "gemm", "spmv", "stencil", "fft", "kripke", "qbox", "scan", "sort",
];
const FLEET_MACHINES: [&str; 3] = ["stampede2", "frontier", "fugaku"];
const FLEET_METRICS: [&str; 2] = ["time", "energy"];

/// A seeded fleet of `n` part-wise models with unique naming triples,
/// cycling every tag combination and varying grid shape and rank — the
/// population a model registry serves. Deterministic in `(n, seed)`.
pub fn fleet(n: usize, seed: u64) -> Vec<FleetModel> {
    (0..n)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            let cells0 = rng.gen_range(3..8);
            let cells1 = rng.gen_range(2..6);
            let rank = rng.gen_range(1..4);
            let (model, _, _) = random_model(i % TAG_COMBOS.len(), cells0, cells1, rank, rng.gen());
            FleetModel {
                // `app` encodes the fleet index, so triples never collide.
                app: format!(
                    "{}-{}",
                    FLEET_APPS[i % FLEET_APPS.len()],
                    i / FLEET_APPS.len()
                ),
                machine: FLEET_MACHINES[i % FLEET_MACHINES.len()].to_string(),
                metric: FLEET_METRICS[i % FLEET_METRICS.len()].to_string(),
                model,
            }
        })
        .collect()
}

/// A seeded mixed query stream over a fleet: `n` (fleet index, probe)
/// pairs, probes drawn over (and slightly beyond) the [`mixed_space`]
/// domain so edge extrapolation stays in play. Deterministic in
/// `(fleet.len(), n, seed)`.
pub fn fleet_queries(fleet_size: usize, n: usize, seed: u64) -> Vec<(usize, Vec<f64>)> {
    assert!(fleet_size > 0, "fleet_queries: empty fleet");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let who = rng.gen_range(0..fleet_size);
            let m = 1.0 + 1999.0 * rng.gen::<f64>();
            let b = -5.0 + 15.0 * rng.gen::<f64>();
            let alg = (4.0 * rng.gen::<f64>()).floor();
            (who, vec![m, b, alg])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_unique() {
        let a = fleet(24, 42);
        let b = fleet(24, 42);
        assert_eq!(a.len(), 24);
        let mut triples: Vec<(String, String, String)> = a
            .iter()
            .map(|f| (f.app.clone(), f.machine.clone(), f.metric.clone()))
            .collect();
        triples.sort();
        triples.dedup();
        assert_eq!(triples.len(), 24, "naming triples must be unique");
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.app, fb.app);
            let probe = [100.0, 1.0, 2.0];
            assert_eq!(
                fa.model.predict(&probe).to_bits(),
                fb.model.predict(&probe).to_bits(),
                "same seed must rebuild the same fleet"
            );
        }
        // Different seeds produce different models.
        let c = fleet(24, 43);
        let probe = [100.0, 1.0, 2.0];
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.model.predict(&probe) != y.model.predict(&probe)));
    }

    #[test]
    fn queries_land_in_bounds() {
        let qs = fleet_queries(7, 500, 9);
        assert_eq!(qs.len(), 500);
        for (who, x) in &qs {
            assert!(*who < 7);
            assert_eq!(x.len(), 3);
            assert!(x[2] >= 0.0 && x[2] <= 3.0 && x[2].fract() == 0.0);
        }
    }
}
