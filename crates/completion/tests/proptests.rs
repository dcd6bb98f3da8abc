//! Property-based tests for the tensor-completion optimizers.

use cpr_completion::{als, amn, init_positive, AlsConfig, AmnConfig, StopRule};
use cpr_tensor::{CpDecomp, SparseTensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sampled_obs(truth: &CpDecomp, frac: f64, seed: u64) -> SparseTensor {
    let dense = truth.to_dense();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obs = SparseTensor::new(dense.dims());
    for (idx, v) in dense.iter_indexed() {
        if rng.gen::<f64>() < frac {
            obs.push(&idx, v);
        }
    }
    if obs.nnz() == 0 {
        obs.push(
            &vec![0; dense.dims().len()],
            dense.get(&vec![0; dense.dims().len()]),
        );
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn als_objective_monotone_for_any_seed(
        seed in 0u64..500,
        rank in 1usize..4,
        frac in 0.3..1.0f64,
    ) {
        let truth = CpDecomp::random(&[5, 4, 4], 2, 0.3, 1.2, seed);
        let obs = sampled_obs(&truth, frac, seed + 1);
        let mut model = CpDecomp::random(&[5, 4, 4], rank, 0.0, 1.0, seed + 2);
        let cfg = AlsConfig {
            lambda: 1e-6,
            stop: StopRule { max_sweeps: 25, tol: 0.0 },
            scale_by_count: true,
        };
        let trace = als(&mut model, &obs, &cfg);
        // With the paper's per-row 1/|Ω_i| scaling, each row update is
        // monotone in its own scaled objective; the *global* Eq. 3 objective
        // can tick up by convergence-level amounts when fiber observation
        // counts differ. Allow 1% slack.
        prop_assert!(trace.is_monotone(1e-2), "{:?}", trace.objective);
        prop_assert!(!model.factor(0).has_non_finite());
    }

    #[test]
    fn amn_preserves_positivity_for_any_seed(
        seed in 0u64..300,
        rank in 1usize..3,
    ) {
        // Positive separable truth with varying scale.
        let scale = 10.0_f64.powf((seed % 7) as f64 - 3.0);
        let truth = CpDecomp::random(&[4, 4, 3], 1, 0.5, 2.0, seed);
        let mut obs = SparseTensor::new(&[4, 4, 3]);
        for (idx, v) in truth.to_dense().iter_indexed() {
            obs.push(&idx, v * scale);
        }
        let gm = (obs.values().iter().map(|v| v.ln()).sum::<f64>()
            / obs.nnz() as f64)
            .exp();
        let mut cp = init_positive(&[4, 4, 3], rank, gm, seed + 1);
        let cfg = AmnConfig {
            lambda: 1e-7,
            stop: StopRule { max_sweeps: 30, tol: 1e-8 },
            ..Default::default()
        };
        amn(&mut cp, &obs, &cfg);
        prop_assert!(cp.is_strictly_positive());
        // Every completed entry must be positive too.
        for (idx, _) in truth.to_dense().iter_indexed() {
            prop_assert!(cp.eval(&idx) > 0.0);
        }
    }

    #[test]
    fn als_fixed_point_on_perfect_model(seed in 0u64..200) {
        // Feed ALS its own exact reconstruction: the objective must stay
        // (numerically) at the ridge floor from the very first sweep.
        let truth = CpDecomp::random(&[4, 4], 2, 0.2, 1.0, seed);
        let obs = SparseTensor::from_dense(&truth.to_dense());
        let mut model = truth.clone();
        let cfg = AlsConfig {
            lambda: 1e-12,
            stop: StopRule { max_sweeps: 3, tol: 0.0 },
            scale_by_count: true,
        };
        let trace = als(&mut model, &obs, &cfg);
        prop_assert!(trace.final_objective() < 1e-8, "{}", trace.final_objective());
    }
}
