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

use cpr_completion::{als, amn, init_positive, tucker_als, CompletionSpec, StopRule};
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
        let cfg = CompletionSpec {
            lambda: 1e-7,
            stop: StopRule {
                max_sweeps: 25,
                tol: 1e-12,
            },
            ..Default::default()
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
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: StopRule {
                max_sweeps: 8,
                tol: 1e-10,
            },
            ..Default::default()
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
    let cfg = CompletionSpec {
        lambda: 1e-7,
        stop: StopRule {
            max_sweeps: 12,
            tol: 1e-12,
        },
        ..Default::default()
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

/// FNV-1a over 64-bit words: folds factor, core and trace bits.
fn fnv(checksum: &mut u64, values: &[f64]) {
    for v in values {
        *checksum = (*checksum ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The ranks the pins cover: every kernel shape (stack arrays at 1–4,
/// indexed rows at 8, a rolled loop at 16) and the dynamic-rank path (3).
const PIN_RANKS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// One problem per order the pins cover: 2 (one-row `z` source), 3
/// (two-row source) and 6 (the multi-row fold).
const PIN_PROBLEMS: [(&[usize], u64); 3] =
    [(&[12, 10], 41), (&[9, 8, 7], 42), (&[4, 3, 4, 3, 3, 4], 43)];

/// Three forced sweeps: enough for every row solve to read factors that
/// earlier solves wrote.
const PIN_STOP: StopRule = StopRule {
    max_sweeps: 3,
    tol: -1.0,
};

// The pins below fold every factor and trace bit of fits on seeded
// problems, so a change to a kernel is checked against the recorded fit,
// not only against the reference sweep it is compared with above. The
// data holds no constant-base `powf` (optimized builds may rewrite those
// as `exp2`), so a fit gives the same bits in the debug and release
// profiles and the constants hold in both.

/// Fold one seeded ALS fit per rank of `PIN_RANKS` on one problem.
fn fold_als_fits(checksum: &mut u64, dims: &[usize], seed: u64) {
    let obs = sampled_obs(dims, 2, 0.5, seed);
    for rank in PIN_RANKS {
        let mut cp = CpDecomp::random(dims, rank, 0.0, 1.0, seed + rank as u64);
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: PIN_STOP,
            ..Default::default()
        };
        let trace = als(&mut cp, &obs, &cfg);
        for m in 0..cp.order() {
            fnv(checksum, cp.factor(m).as_slice());
        }
        fnv(checksum, &trace.objective);
    }
}

/// Fold one seeded AMN fit per rank of `PIN_RANKS` on one problem.
fn fold_amn_fits(checksum: &mut u64, dims: &[usize], seed: u64) {
    let obs = sampled_obs(dims, 2, 0.5, seed);
    let gm = (obs.values().iter().map(|v| v.ln()).sum::<f64>() / obs.nnz() as f64).exp();
    for rank in PIN_RANKS {
        let mut cp = init_positive(dims, rank, gm, seed + rank as u64);
        let cfg = CompletionSpec {
            lambda: 1e-6,
            stop: PIN_STOP,
            ..Default::default()
        };
        let trace = amn(&mut cp, &obs, &cfg);
        for m in 0..cp.order() {
            fnv(checksum, cp.factor(m).as_slice());
        }
        fnv(checksum, &trace.objective);
    }
}

#[test]
fn als_fit_bits_are_pinned() {
    let mut checksum = FNV_START;
    for (dims, seed) in PIN_PROBLEMS {
        fold_als_fits(&mut checksum, dims, seed);
    }
    assert_eq!(
        checksum, 0x2cb9_d461_292f_1663,
        "ALS fit bits moved: {checksum:#018x}"
    );
}

#[test]
fn amn_fit_bits_are_pinned() {
    let mut checksum = FNV_START;
    for (dims, seed) in PIN_PROBLEMS {
        fold_amn_fits(&mut checksum, dims, seed);
    }
    assert_eq!(
        checksum, 0xa953_6934_d349_79cb,
        "AMN fit bits moved: {checksum:#018x}"
    );
}

/// One problem per remaining order up to 10: orders 4–9 cover every fixed
/// fold shape the sweep dispatches on the order (KRIPKE's order 9 is the
/// paper's largest), order 10 the run-time-order fold.
const FOLD_PROBLEMS: [(&[usize], u64); 6] = [
    (&[4, 3, 4, 3], 44),
    (&[3, 4, 3, 3, 2], 45),
    (&[3, 2, 3, 2, 2, 3, 2], 47),
    (&[2, 3, 2, 2, 3, 2, 2, 2], 48),
    (&[2, 3, 2, 2, 3, 2, 2, 3, 2], 49),
    (&[2, 2, 3, 2, 2, 2, 2, 3, 2, 2], 50),
];

/// Check one fold per problem of `FOLD_PROBLEMS` against its pin, naming
/// every order that moved. The pins were recorded before the fold was
/// specialized on the order, and are equal in both profiles.
fn check_fold_pins(what: &str, fold: fn(&mut u64, &[usize], u64), pins: [u64; 6]) {
    let moved: Vec<String> = FOLD_PROBLEMS
        .iter()
        .zip(pins)
        .filter_map(|(&(dims, seed), pin)| {
            let mut checksum = FNV_START;
            fold(&mut checksum, dims, seed);
            (checksum != pin).then(|| format!("order {}: {checksum:#018x}", dims.len()))
        })
        .collect();
    assert!(moved.is_empty(), "{what} fit bits moved: {moved:?}");
}

#[test]
fn als_fit_bits_are_pinned_at_orders_4_to_10() {
    let pins = [
        0xe453_06ac_ea10_abc1,
        0x582a_bef3_29f7_9521,
        0x11d8_1eda_88eb_cb37,
        0xf26f_3fa5_43ed_0dc2,
        0x3b8c_c535_4dc8_eda5,
        0xbfc6_7e0e_6f4c_1dc9,
    ];
    check_fold_pins("ALS", fold_als_fits, pins);
}

#[test]
fn amn_fit_bits_are_pinned_at_orders_4_to_10() {
    let pins = [
        0xa632_c891_f7ba_5d7b,
        0xda1c_ee14_c9fd_7a78,
        0xf30f_f11f_a0a9_2cf3,
        0x3bc7_3120_b5d2_e865,
        0xf5d8_1b61_cd5a_3d31,
        0x5119_e819_b711_71b6,
    ];
    check_fold_pins("AMN", fold_amn_fits, pins);
}

#[test]
fn tucker_als_fit_bits_are_pinned() {
    let mut checksum = FNV_START;
    for (dims, seed) in PIN_PROBLEMS {
        let obs = sampled_obs(dims, 2, 0.5, seed);
        for rank in PIN_RANKS {
            // One mode at the pinned rank, the others at 1 or 2: the
            // core stays small at order 6.
            let wide = rank % dims.len();
            let ranks: Vec<usize> = (0..dims.len())
                .map(|j| if j == wide { rank } else { 1 + j % 2 })
                .collect();
            let mut t = TuckerDecomp::random(dims, &ranks, 0.1, 1.0, seed + rank as u64);
            let cfg = CompletionSpec {
                lambda: 1e-6,
                stop: PIN_STOP,
                ..Default::default()
            };
            let trace = tucker_als(&mut t, &obs, &cfg);
            for m in 0..t.order() {
                fnv(&mut checksum, t.factor(m).as_slice());
            }
            fnv(&mut checksum, t.core().as_slice());
            fnv(&mut checksum, &trace.objective);
        }
    }
    assert_eq!(
        checksum, 0x3e19_eba0_379f_6ff4,
        "Tucker-ALS fit bits moved: {checksum:#018x}"
    );
}
