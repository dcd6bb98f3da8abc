//! Streamed-vs-reference sweep equivalence: the streamed fit paths
//! (packed `ModeStream` layouts + direct leave-one-out gathers +
//! rank-monomorphized kernels) must produce **bitwise identical** factors
//! and traces to the retained naive reference sweeps, for random
//! dimensions, ranks (monomorphized and generic), and observation masks —
//! and stay bitwise identical across thread counts. This is the fit-side
//! analog of `crates/core/tests/plan_equivalence.rs`.

use cpr_completion::{
    als, als_reference, amn, amn_reference, init_positive, tucker_als, tucker_als_reference,
    CompletionSpec, StopRule,
};
use cpr_tensor::{CpDecomp, SparseTensor, TuckerDecomp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Random mask of a random positive low-rank truth, at least one entry.
fn random_obs(dims: &[usize], frac: f64, seed: u64) -> SparseTensor {
    let truth = CpDecomp::random(dims, 2, 0.5, 1.5, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let mut obs = SparseTensor::new(dims);
    let total: usize = dims.iter().product();
    let mut idx = vec![0usize; dims.len()];
    for _ in 0..((total as f64 * frac) as usize).max(1) {
        for (j, &dj) in dims.iter().enumerate() {
            idx[j] = rng.gen_range(0..dj);
        }
        obs.push(&idx, truth.eval(&idx) + 0.1);
    }
    obs
}

/// Random small dims of random order 2..=10: up to the order-9 grids the
/// apps fit, the largest order the sweep's fold is specialized on, and
/// order 10 for its run-time-order fold. Above order 5 each mode spans
/// 2..=3 cells, and above order 9 exactly 2, which keeps the cell count
/// near the low orders'.
fn random_dims(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let order = rng.gen_range(2..=10usize);
    let max = match order {
        10.. => 2,
        6.. => 3,
        _ => 6,
    };
    (0..order).map(|_| rng.gen_range(2..=max)).collect()
}

fn assert_cp_bitwise(a: &CpDecomp, b: &CpDecomp, what: &str) {
    for m in 0..a.order() {
        for (k, (x, y)) in a
            .factor(m)
            .as_slice()
            .iter()
            .zip(b.factor(m).as_slice())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: factor {m} entry {k}: {x} vs {y}"
            );
        }
    }
}

fn assert_trace_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sweep counts");
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: sweep {s}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// ALS: streamed == reference, bitwise, at 1 and 4 threads. Ranks span
    /// the monomorphized set {2, 4, 8, 16} and generic odd ranks.
    #[test]
    fn als_streamed_bitwise_matches_reference(
        seed in 0u64..1000,
        rank_pick in 0usize..6,
        frac in 0.1..0.8f64,
    ) {
        let rank = [1, 2, 3, 4, 8, 16][rank_pick];
        let dims = random_dims(seed);
        let obs = random_obs(&dims, frac, seed + 1);
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule { max_sweeps: 4, tol: -1.0 },
            ..Default::default()
        };
        let init = CpDecomp::random(&dims, rank, 0.0, 1.0, seed + 2);
        let run = |streamed: bool, threads: usize| {
            let mut cp = init.clone();
            let trace = pool(threads).install(|| if streamed {
                als(&mut cp, &obs, &cfg)
            } else {
                als_reference(&mut cp, &obs, &cfg)
            });
            (cp, trace)
        };
        let (s1, t1) = run(true, 1);
        let (s4, t4) = run(true, 4);
        let (r1, tr) = run(false, 1);
        assert_cp_bitwise(&s1, &r1, "ALS streamed vs reference");
        assert_trace_bitwise(&t1.objective, &tr.objective, "ALS trace");
        assert_cp_bitwise(&s1, &s4, "ALS 1 vs 4 threads");
        assert_trace_bitwise(&t1.objective, &t4.objective, "ALS threads trace");
    }

    /// AMN: streamed == reference, bitwise, at 1 and 4 threads, over the
    /// same ranks as ALS.
    #[test]
    fn amn_streamed_bitwise_matches_reference(
        seed in 0u64..1000,
        rank_pick in 0usize..6,
    ) {
        let rank = [1, 2, 3, 4, 8, 16][rank_pick];
        let dims = random_dims(seed);
        let obs = random_obs(&dims, 0.4, seed + 1);
        let gm = (obs.values().iter().map(|v| v.ln()).sum::<f64>() / obs.nnz() as f64).exp();
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule { max_sweeps: 4, tol: -1.0 },
            ..Default::default()
        };
        let init = init_positive(&dims, rank, gm, seed + 2);
        let run = |streamed: bool, threads: usize| {
            let mut cp = init.clone();
            let trace = pool(threads).install(|| if streamed {
                amn(&mut cp, &obs, &cfg)
            } else {
                amn_reference(&mut cp, &obs, &cfg)
            });
            (cp, trace)
        };
        let (s1, t1) = run(true, 1);
        let (s4, t4) = run(true, 4);
        let (r1, tr) = run(false, 1);
        assert_cp_bitwise(&s1, &r1, "AMN streamed vs reference");
        assert_trace_bitwise(&t1.objective, &tr.objective, "AMN trace");
        assert_cp_bitwise(&s1, &s4, "AMN 1 vs 4 threads");
        assert_trace_bitwise(&t1.objective, &t4.objective, "AMN threads trace");
    }

    /// Tucker-ALS: streamed == reference, bitwise, at 1 and 4 threads
    /// (factors, core, and traces). One mode runs at rank 3, 4, 8 or 16
    /// (the dynamic-rank path and every fixed kernel shape), the others
    /// at rank 1 or 2.
    #[test]
    fn tucker_streamed_bitwise_matches_reference(
        seed in 0u64..1000,
        frac in 0.2..0.8f64,
        wide_pick in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
        let order = rng.gen_range(2..=3usize);
        let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(3..=6usize)).collect();
        let wide = rng.gen_range(0..order);
        let ranks: Vec<usize> = (0..order)
            .map(|j| if j == wide { [3, 4, 8, 16][wide_pick] } else { rng.gen_range(1..=2usize) })
            .collect();
        let obs = random_obs(&dims, frac, seed + 1);
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule { max_sweeps: 3, tol: -1.0 },
            ..Default::default()
        };
        let init = TuckerDecomp::random(&dims, &ranks, 0.1, 1.0, seed + 2);
        let run = |streamed: bool, threads: usize| {
            let mut t = init.clone();
            let trace = pool(threads).install(|| if streamed {
                tucker_als(&mut t, &obs, &cfg)
            } else {
                tucker_als_reference(&mut t, &obs, &cfg)
            });
            (t, trace)
        };
        let (s1, t1) = run(true, 1);
        let (s4, t4) = run(true, 4);
        let (r1, tr) = run(false, 1);
        for m in 0..order {
            for (x, y) in s1.factor(m).as_slice().iter().zip(r1.factor(m).as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "Tucker factor {m}");
            }
            for (x, y) in s1.factor(m).as_slice().iter().zip(s4.factor(m).as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "Tucker factor {m} threads");
            }
        }
        for (x, y) in s1.core().as_slice().iter().zip(r1.core().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "Tucker core");
        }
        for (x, y) in s1.core().as_slice().iter().zip(s4.core().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "Tucker core threads");
        }
        assert_trace_bitwise(&t1.objective, &tr.objective, "Tucker trace");
        assert_trace_bitwise(&t1.objective, &t4.objective, "Tucker threads trace");
    }
}
