//! Determinism regression tests: a parallel sweep must produce **bitwise
//! identical** factors to the single-thread run.
//!
//! Row subproblems touch disjoint data and the sweep objectives are summed
//! sequentially in row order, so nothing in ALS/AMN/Tucker-ALS may depend
//! on the worker count. These tests pin that contract by running the same
//! fit under a 1-thread and a 4-thread pool (`ThreadPool::install`, the
//! same mechanism a `CPR_NUM_THREADS` override feeds) and comparing every
//! factor entry by bit pattern, plus the recorded objective traces. The
//! CP optimizers run an order-3 problem and an order-6 one, where every
//! leave-one-out vector comes from the multi-row fold.

use cpr_completion::{
    als, amn, init_positive, tucker_als, AlsConfig, AmnConfig, StopRule, TuckerConfig,
};
use cpr_tensor::{CpDecomp, SparseTensor, TuckerDecomp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

fn sampled_obs(dims: &[usize], rank: usize, frac: f64, seed: u64) -> SparseTensor {
    let truth = CpDecomp::random(dims, rank, 0.5, 1.5, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b9));
    let mut obs = SparseTensor::new(dims);
    let mut idx = vec![0usize; dims.len()];
    let total: usize = dims.iter().product();
    for _ in 0..((total as f64 * frac) as usize).max(32) {
        for (j, &dj) in dims.iter().enumerate() {
            idx[j] = rng.gen_range(0..dj);
        }
        obs.push(&idx, truth.eval(&idx) + 0.1);
    }
    obs
}

fn assert_factors_bitwise_equal(a: &CpDecomp, b: &CpDecomp, what: &str) {
    assert_eq!(a.order(), b.order());
    for m in 0..a.order() {
        let (fa, fb) = (a.factor(m).as_slice(), b.factor(m).as_slice());
        assert_eq!(fa.len(), fb.len(), "{what}: factor {m} shape");
        for (k, (x, y)) in fa.iter().zip(fb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: factor {m} entry {k} differs: {x} vs {y}"
            );
        }
    }
}

fn assert_traces_bitwise_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sweep counts differ");
    for (s, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: objective after sweep {s} differs: {x} vs {y}"
        );
    }
}

#[test]
fn als_is_bitwise_identical_across_thread_counts() {
    for (dims, seed) in [(&[13, 9, 11][..], 5), (&[4, 3, 4, 3, 3, 4][..], 6)] {
        let obs = sampled_obs(dims, 3, 0.3, seed);
        let cfg = AlsConfig {
            lambda: 1e-7,
            stop: StopRule {
                max_sweeps: 25,
                tol: 1e-12,
            },
        };
        let fit = || {
            let mut cp = CpDecomp::random(dims, 3, 0.0, 1.0, 17);
            let trace = als(&mut cp, &obs, &cfg);
            (cp, trace)
        };
        let what = format!("ALS order {}", dims.len());
        let (cp1, tr1) = pool(1).install(fit);
        let (cp4, tr4) = pool(4).install(fit);
        assert_factors_bitwise_equal(&cp1, &cp4, &what);
        assert_traces_bitwise_equal(&tr1.objective, &tr4.objective, &what);
        assert_eq!(tr1.converged, tr4.converged);
    }
}

#[test]
fn amn_is_bitwise_identical_across_thread_counts() {
    for (dims, seed) in [(&[8, 7, 6][..], 9), (&[3, 4, 3, 3, 4, 3][..], 10)] {
        let obs = sampled_obs(dims, 2, 0.4, seed);
        let cfg = AmnConfig {
            lambda: 1e-6,
            stop: StopRule {
                max_sweeps: 8,
                tol: 1e-10,
            },
        };
        let gm = (obs.values().iter().map(|v| v.ln()).sum::<f64>() / obs.nnz() as f64).exp();
        let fit = || {
            let mut cp = init_positive(dims, 2, gm, 23);
            let trace = amn(&mut cp, &obs, &cfg);
            (cp, trace)
        };
        let what = format!("AMN order {}", dims.len());
        let (cp1, tr1) = pool(1).install(fit);
        let (cp4, tr4) = pool(4).install(fit);
        assert_factors_bitwise_equal(&cp1, &cp4, &what);
        assert_traces_bitwise_equal(&tr1.objective, &tr4.objective, &what);
    }
}

#[test]
fn tucker_als_is_bitwise_identical_across_thread_counts() {
    let obs = sampled_obs(&[8, 8, 7], 2, 0.35, 13);
    let cfg = TuckerConfig {
        lambda: 1e-7,
        stop: StopRule {
            max_sweeps: 12,
            tol: 1e-12,
        },
    };
    let fit = || {
        let mut t = TuckerDecomp::random(&[8, 8, 7], &[2, 2, 2], 0.1, 1.0, 31);
        let trace = tucker_als(&mut t, &obs, &cfg);
        (t, trace)
    };
    let (t1, tr1) = pool(1).install(fit);
    let (t4, tr4) = pool(4).install(fit);
    for m in 0..t1.order() {
        for (x, y) in t1.factor(m).as_slice().iter().zip(t4.factor(m).as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "Tucker factor {m}");
        }
    }
    for (x, y) in t1.core().as_slice().iter().zip(t4.core().as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "Tucker core");
    }
    assert_traces_bitwise_equal(&tr1.objective, &tr4.objective, "Tucker");
}
