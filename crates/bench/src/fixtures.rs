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
pub const TAG_COMBOS: [(Optimizer, Loss, bool); 3] = [
    (Optimizer::Als, Loss::LogLeastSquares, false),
    (Optimizer::Amn, Loss::MLogQ2, false),
    (Optimizer::TuckerAls, Loss::LogLeastSquares, true),
];

/// The [`TAG_COMBOS`] entry of each [`fleet`] slot, cycled by fleet index:
/// CP log-least-squares in slots 0, 2 and 3, MLogQ² CP in slot 1, Tucker
/// in slot 4. The fleet is the benchmark's served population, so this mix
/// and the bits it serves are pinned by the tests below.
pub const FLEET_SLOTS: [usize; 5] = [0, 1, 0, 0, 2];

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
/// cycling [`FLEET_SLOTS`] and varying grid shape and rank — the
/// population a model registry serves. Deterministic in `(n, seed)`.
pub fn fleet(n: usize, seed: u64) -> Vec<FleetModel> {
    (0..n)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            let cells0 = rng.gen_range(3..8);
            let cells1 = rng.gen_range(2..6);
            let rank = rng.gen_range(1..4);
            let combo = FLEET_SLOTS[i % FLEET_SLOTS.len()];
            let (model, _, _) = random_model(combo, cells0, cells1, rank, rng.gen());
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
    fn fleet_slot_mix_is_pinned() {
        let want = [
            (Loss::LogLeastSquares, false),
            (Loss::MLogQ2, false),
            (Loss::LogLeastSquares, false),
            (Loss::LogLeastSquares, false),
            (Loss::LogLeastSquares, true),
        ];
        for (i, f) in fleet(24, 42).iter().enumerate() {
            let kind = (
                f.model.loss(),
                f.model.decomposition().as_tucker().is_some(),
            );
            assert_eq!(kind, want[i % 5], "fleet slot {i}");
        }
    }

    /// The bits `fleet(24, 42)` serves over a query stream, folded
    /// FNV-1a-style. The constant was recorded before slots 2 and 3 changed
    /// their optimizer tag from CCD and SGD to ALS, so it also pins that
    /// the retag moved no served bit. A change here is a change to the
    /// benchmark's traffic.
    #[test]
    fn fleet_prediction_bits_are_pinned() {
        let models = fleet(24, 42);
        let checksum =
            fleet_queries(24, 2000, 7)
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, (who, x)| {
                    (h ^ models[*who].model.predict(x).to_bits())
                        .wrapping_mul(0x0000_0100_0000_01b3)
                });
        assert_eq!(checksum, 0x8c22_f401_5e6d_d34c);
    }

    /// A CP log-least-squares model over `space` (8 cells a mode) from
    /// seeded random factors, with random observed-row masks: each mode
    /// keeps a random non-empty subset of its rows, installed through an
    /// observation tensor whose entry `t` takes the `t`-th observed row of
    /// every mode (cycling).
    fn masked_app_model(space: ParamSpace, rank: usize, seed: u64) -> CprModel {
        let cells = vec![8; space.dim()];
        let dims = space.grid_with_cells(&cells).dims();
        let cp = CpDecomp::random(&dims, rank, -1.0, 1.0, seed);
        let mut model =
            CprModel::from_parts(space, &cells, cp, Loss::LogLeastSquares, 0.37).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let rows: Vec<Vec<usize>> = dims
            .iter()
            .map(|&n| {
                let mut keep: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < 0.7).collect();
                if keep.is_empty() {
                    keep.push(rng.gen_range(0..n));
                }
                keep
            })
            .collect();
        let mut obs = cpr_tensor::SparseTensor::new(&dims);
        for t in 0..rows.iter().map(Vec::len).max().unwrap() {
            let idx: Vec<usize> = rows.iter().map(|r| r[t % r.len()]).collect();
            obs.push(&idx, 1.0);
        }
        model.set_row_observed_from(&obs);
        model
    }

    /// An integral configuration of `space`, the rounded traffic of the
    /// paper's test sets (§6.0.3): mostly an integer of each numerical
    /// axis's domain, one draw in ten the integer just below or above it,
    /// and any in-range choice of a categorical axis. Every draw is an
    /// integer range or a comparison, so debug and release builds draw the
    /// same configurations.
    fn integral_config(space: &ParamSpace, rng: &mut StdRng) -> Vec<f64> {
        space
            .params()
            .iter()
            .map(|spec| match *spec {
                ParamSpec::Numerical { lo, hi, .. } => {
                    let (lo, hi) = (lo.ceil() as i64, hi.floor() as i64);
                    match rng.gen_range(0..20) {
                        0 => (lo - 1) as f64,
                        1 => (hi + 1) as f64,
                        _ => rng.gen_range(lo..=hi) as f64,
                    }
                }
                ParamSpec::Categorical { cardinality, .. } => rng.gen_range(0..cardinality) as f64,
            })
            .collect()
    }

    /// The bits served over the six paper apps' parameter spaces, where
    /// integral queries reach the integer axes' stencil memo: CP
    /// log-least-squares models from seeded parts at ranks 4 and 8 with
    /// random masks, 600 integral configurations each through `predict`
    /// and through `predict_into` (two full chunks and a partial one),
    /// folded FNV-1a-style. The constant was recorded before the separable
    /// fold took baked memo rows and rank-monomorphized kernels, and holds
    /// in the debug and release profiles.
    #[test]
    fn app_space_prediction_bits_are_pinned() {
        let mut checksum = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: f64| {
            checksum = (checksum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (a, app) in cpr_apps::all_benchmarks().iter().enumerate() {
            let space = app.space();
            for rank in [4, 8] {
                let seed = 100 * a as u64 + rank as u64;
                let model = masked_app_model(space.clone(), rank, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc0f1);
                let xs: Vec<Vec<f64>> = (0..600)
                    .map(|_| integral_config(&space, &mut rng))
                    .collect();
                let mut batch = vec![0.0; xs.len()];
                model.plan().predict_into(&xs, &mut batch);
                for (x, &b) in xs.iter().zip(&batch) {
                    fold(model.predict(x));
                    fold(b);
                }
            }
        }
        assert_eq!(checksum, 0x80e4_f70e_0018_66f7);
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
