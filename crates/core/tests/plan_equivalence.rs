//! The compiled-query-path contract: a baked [`cpr_core::PredictPlan`] must
//! be **bitwise identical** to the reference path `CprModel::predict_naive`
//! — across random CP models of orders 1–9, every axis kind (linear/log,
//! float/integer, categorical), both losses, random observed-row masks,
//! in-domain and out-of-domain probes, and integral probes that reach the
//! integer axes' stencil memo — through `predict`, `predict_into`
//! and `predict_batch`, at 1, 2 and 4 threads; and for order-17 MLogQ² CP
//! and Tucker models, whose corner scratch leaves the stack.
//!
//! Under log-least-squares the spec is Eq. 5 in separable form: one blended
//! factor row per mode, multiplied in mode order and summed over the rank.
//! The `2^d`-corner sum it replaced stays here as an oracle
//! ([`corner_oracle`]: `interpolate_corners` over `cp.eval`, plus the
//! offset). The two are equal in exact arithmetic; in floating point the
//! logs of their predictions must agree within
//!
//! `|Δ ln| ≤ 8·d·ε·(S + |log_offset|)`,
//!
//! where `S = Σ_c |w(c)|·Σ_r Π_j |U_j[c_j, r]|` is the corner sum taken
//! over absolute values — the magnitude every rounding error of either form
//! (blends, products, rank and corner sums, the offset add) is relative to.

use cpr_core::{CprModel, Loss};
use cpr_grid::space::interpolate_corners;
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_tensor::{CpDecomp, SparseTensor, TuckerDecomp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;

/// One randomized parameter axis covering every [`ParamSpec`] kind
/// (selected by `kind`; the vendored proptest has no `prop_oneof`).
fn axis_strategy() -> impl Strategy<Value = ParamSpec> {
    (0usize..5, 1.0..30.0f64, 2.0..100.0f64, 1usize..5).prop_map(
        |(kind, lo, span, card)| match kind {
            0 => ParamSpec::log("a", lo, lo + span),
            1 => ParamSpec::linear("a", lo - 25.0, lo - 25.0 + span),
            2 => ParamSpec::log_int("a", lo, lo + span + 40.0),
            3 => ParamSpec::linear_int("a", lo, lo + span),
            _ => ParamSpec::categorical("a", card),
        },
    )
}

fn loss_of(log_loss: usize) -> Loss {
    if log_loss == 0 {
        Loss::LogLeastSquares
    } else {
        Loss::MLogQ2
    }
}

/// A model built straight from random parts (no training — the bitwise
/// contract is independent of how the factors were obtained), plus the
/// observed-row masks it was given.
struct Fixture {
    model: CprModel,
    masks: Vec<Vec<bool>>,
}

/// Random CP factors, then random observed-row masks
/// ([`install_random_masks`]).
fn random_model(
    params: Vec<ParamSpec>,
    cells: usize,
    rank: usize,
    loss: Loss,
    seed: u64,
) -> Fixture {
    let space = ParamSpace::new(params);
    let cells_vec = vec![cells; space.dim()];
    let (lo, hi) = match loss {
        Loss::LogLeastSquares => (-1.0, 1.0),
        Loss::MLogQ2 => (0.1, 1.5),
    };
    let grid = space.grid_with_cells(&cells_vec);
    let dims = grid.dims();
    let cp = CpDecomp::random(&dims, rank, lo, hi, seed);
    let log_offset = if loss == Loss::LogLeastSquares {
        0.37
    } else {
        0.0
    };
    let mut model = CprModel::from_parts(space, &cells_vec, cp, loss, log_offset).unwrap();
    let masks = install_random_masks(&mut model, &dims, seed);
    Fixture { model, masks }
}

/// Random observed-row masks installed through a sparse observation tensor
/// so the masking branches of the stencil path (point-stencil degradation,
/// clamped extrapolation) are exercised. Each mode keeps a random
/// non-empty subset of its rows observed; entry `t` of the tensor takes
/// the `t`-th observed row of every mode (cycling), so the masks are
/// exactly the chosen subsets at any order.
fn install_random_masks(model: &mut CprModel, dims: &[usize], seed: u64) -> Vec<Vec<bool>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_1234);
    let masks: Vec<Vec<bool>> = dims
        .iter()
        .map(|&dj| {
            let mut m: Vec<bool> = (0..dj).map(|_| rng.gen::<f64>() < 0.7).collect();
            if !m.contains(&true) {
                m[rng.gen_range(0..dj)] = true;
            }
            m
        })
        .collect();
    let rows: Vec<Vec<usize>> = masks
        .iter()
        .map(|m| (0..m.len()).filter(|&i| m[i]).collect())
        .collect();
    let mut obs = SparseTensor::new(dims);
    let entries = rows.iter().map(Vec::len).max().unwrap();
    for t in 0..entries {
        let idx: Vec<usize> = rows.iter().map(|r| r[t % r.len()]).collect();
        obs.push(&idx, 1.0);
    }
    model.set_row_observed_from(&obs);
    masks
}

/// Random probe for one axis: mostly in-domain, sometimes far outside
/// (edge extrapolation and clamping paths).
fn probe_for(spec: &ParamSpec, rng: &mut StdRng) -> f64 {
    match spec {
        ParamSpec::Numerical { lo, hi, .. } => {
            let t = rng.gen::<f64>() * 1.6 - 0.3; // [-0.3, 1.3) around range
            lo + (hi - lo) * t
        }
        ParamSpec::Categorical { cardinality, .. } => {
            rng.gen_range(0..(*cardinality + 2)) as f64 - 1.0
        }
    }
}

fn probes(specs: &[ParamSpec], n: usize, seed: u64) -> Vec<Vec<f64>> {
    draw(specs, n, seed, probe_for)
}

/// `n` configurations of `probe` draws from one seeded stream.
fn draw(
    specs: &[ParamSpec],
    n: usize,
    seed: u64,
    probe: fn(&ParamSpec, &mut StdRng) -> f64,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| specs.iter().map(|s| probe(s, &mut rng)).collect())
        .collect()
}

/// Integral probe for one axis, the traffic of rounded configurations
/// (paper §6.0.3) that an integer axis's stencil memo serves: mostly an
/// integer of `⌈lo⌉..=⌊hi⌋`, sometimes the integer just below or above
/// that domain, sometimes `-0.0`, which must miss the memo. Categorical
/// axes draw as in [`probe_for`].
fn integral_probe_for(spec: &ParamSpec, rng: &mut StdRng) -> f64 {
    match spec {
        ParamSpec::Numerical { lo, hi, .. } => {
            let (int_lo, int_hi) = (lo.ceil() as i64, hi.floor() as i64);
            match rng.gen_range(0..10) {
                0 => (int_lo - 1) as f64,
                1 => (int_hi + 1) as f64,
                2 => -0.0,
                _ => rng.gen_range(int_lo..=int_hi) as f64,
            }
        }
        ParamSpec::Categorical { .. } => probe_for(spec, rng),
    }
}

/// `n` integral probes, from an RNG stream of their own so that the
/// [`probes`] drawn next to them stay as they were.
fn integral_probes(specs: &[ParamSpec], n: usize, seed: u64) -> Vec<Vec<f64>> {
    draw(specs, n, seed ^ 0x1e67_a1f0, integral_probe_for)
}

/// The corner-sum form of Eq. 5 for a log-least-squares CP model: the raw
/// grid stencils, masked by the rules the model documents (a point stencil
/// toward the observed side when one neighbour row is unobserved, weights
/// clamped to `[-1, 2]`), then `interpolate_corners` over `cp.eval` plus
/// the offset. Returns the log-prediction and the error scale `S` of the
/// module docs.
fn corner_oracle(f: &Fixture, x: &[f64]) -> (f64, f64) {
    let cp = f.model.cp();
    let stencils: Vec<(usize, usize, f64)> = f
        .model
        .grid()
        .stencils(x)
        .into_iter()
        .zip(&f.masks)
        .map(|((i0, i1, w1), observed)| {
            if i0 == i1 {
                return (i0, i1, w1);
            }
            match (observed[i0], observed[i1]) {
                (true, false) => (i0, i0, 0.0),
                (false, true) => (i1, i1, 0.0),
                _ => (i0, i1, w1.clamp(-1.0, 2.0)),
            }
        })
        .collect();
    let log_pred = interpolate_corners(&stencils, |idx| cp.eval(idx)) + f.model.log_offset();
    let abs_eval = |idx: &[usize]| -> f64 {
        (0..cp.rank())
            .map(|r| {
                idx.iter()
                    .enumerate()
                    .map(|(j, &i)| cp.factor(j).row(i)[r].abs())
                    .product::<f64>()
            })
            .sum()
    };
    // |w(c)| = Π_j |w_j(c_j)|: the lo weight of a two-point stencil is
    // 1 − w1, whose magnitude `interpolate_corners` cannot form from |w1|,
    // so the scale is summed corner by corner here.
    let d = stencils.len();
    let mut scale = 0.0;
    'corner: for mask in 0..1usize << d {
        let mut weight = 1.0;
        let mut idx = vec![0usize; d];
        for (j, &(i0, i1, w1)) in stencils.iter().enumerate() {
            if (mask >> j) & 1 == 1 {
                if i0 == i1 {
                    continue 'corner;
                }
                weight *= w1.abs();
                idx[j] = i1;
            } else {
                if i0 != i1 {
                    weight *= (1.0 - w1).abs();
                }
                idx[j] = i0;
            }
        }
        scale += weight * abs_eval(&idx);
    }
    (log_pred, scale)
}

/// The oracle bound of the module docs on one probe.
fn assert_oracle_bound(f: &Fixture, x: &[f64]) -> Result<(), TestCaseError> {
    let (log_corner, scale) = corner_oracle(f, x);
    let p_corner = log_corner.clamp(-690.0, 690.0).exp();
    let p_sep = f.model.predict_naive(x);
    let delta = (p_sep.ln() - p_corner.ln()).abs();
    let d = x.len() as f64;
    let bound = 8.0 * d * f64::EPSILON * (scale + f.model.log_offset().abs());
    prop_assert!(
        delta <= bound,
        "|Δ ln| {:e} exceeds {:e} (S {}, d {}) at {:?}",
        delta,
        bound,
        scale,
        d,
        x
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_is_bitwise_identical_to_naive_predict(
        params in proptest::collection::vec(axis_strategy(), 1..=9),
        cells in 1usize..7,
        rank in 1usize..10,
        log_loss in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let loss = loss_of(log_loss);
        let specs = params.clone();
        let f = random_model(params, cells, rank, loss, seed);
        let mut xs = probes(&specs, 32, seed.wrapping_mul(0x9e37_79b9));
        xs.extend(integral_probes(&specs, 32, seed));
        let batched = f.model.predict_batch(&xs);
        for (x, via_batch) in xs.iter().zip(&batched) {
            let fast = f.model.predict(x);
            let slow = f.model.predict_naive(x);
            prop_assert_eq!(
                fast.to_bits(), slow.to_bits(),
                "plan {} != naive {} at {:?}", fast, slow, x
            );
            prop_assert_eq!(via_batch.to_bits(), slow.to_bits(), "batch at {:?}", x);
            if loss == Loss::LogLeastSquares {
                assert_oracle_bound(&f, x)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_plan_queries_are_thread_count_invariant(
        params in proptest::collection::vec(axis_strategy(), 1..=9),
        cells in 2usize..8,
        rank in 1usize..10,
        log_loss in 0usize..2,
        seed in 0u64..500,
    ) {
        let specs = params.clone();
        let f = random_model(params, cells, rank, loss_of(log_loss), seed);
        let model = &f.model;
        let mut batch = probes(&specs, 300, seed ^ 0x5555);
        batch.extend(integral_probes(&specs, 300, seed));
        let naive: Vec<u64> = batch.iter().map(|x| model.predict_naive(x).to_bits()).collect();
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (via_batch, via_into, via_single) = pool.install(|| {
                let via_batch = model.predict_batch(&batch);
                let mut via_into = vec![0.0; batch.len()];
                model.plan().predict_into(&batch, &mut via_into);
                let via_single: Vec<f64> = batch.iter().map(|x| model.predict(x)).collect();
                (via_batch, via_into, via_single)
            });
            for k in 0..batch.len() {
                prop_assert_eq!(via_batch[k].to_bits(), naive[k], "batch, {} threads, sample {}", threads, k);
                prop_assert_eq!(via_into[k].to_bits(), naive[k], "into, {} threads, sample {}", threads, k);
                prop_assert_eq!(via_single[k].to_bits(), naive[k], "predict, {} threads, sample {}", threads, k);
            }
        }
    }
}

/// Grids beyond the dense-bake cap (64k cells) carry no table: MLogQ²
/// evaluates its corner values from the packed factors and
/// log-least-squares serves through the separable kernel. Both must satisfy the
/// same bitwise contract, for single and batched queries.
#[test]
fn factor_fallback_is_bitwise_identical_beyond_dense_cap() {
    // 300 x 300 = 90_000 cells > 2^16: no dense bake.
    let params = vec![
        ParamSpec::log("m", 2.0, 1e6),
        ParamSpec::linear("b", -5.0, 5.0),
    ];
    for loss in [Loss::MLogQ2, Loss::LogLeastSquares] {
        let f = random_model(params.clone(), 300, 3, loss, 77);
        assert!(!f.model.plan().has_dense_cache(), "{loss:?}");
        let batch = probes(&params, 1200, 99);
        let fast = f.model.predict_batch(&batch);
        for (x, got) in batch.iter().zip(&fast) {
            assert_eq!(got.to_bits(), f.model.predict_naive(x).to_bits());
            assert_eq!(got.to_bits(), f.model.predict(x).to_bits());
        }
    }
}

/// Orders above 16 move the corner path's scratch (the plan's masked
/// stencils and `interpolate_corners`' corner index) from the stack to the
/// heap. An order-17 MLogQ² CP model whose grid fits the dense table, and
/// an order-17 Tucker model whose 1.2M-cell grid does not, must match the
/// naive reference bitwise through `predict`, `predict_into` and
/// `predict_batch`, with the table and without it. Two numerical axes
/// carry the interpolation; the 1- and 2-cell categorical axes are point
/// stencils, so a probe sums at most four corners.
#[test]
fn order_17_corner_paths_are_bitwise_identical_to_naive() {
    let numeric = [
        ParamSpec::log("m", 2.0, 1e4),
        ParamSpec::linear("b", -5.0, 5.0),
    ];
    let mut cp_params = numeric.to_vec();
    cp_params.extend((0..15).map(|j| ParamSpec::categorical("c", 1 + j % 2)));
    let cp = random_model(cp_params.clone(), 6, 3, Loss::MLogQ2, 17).model;
    assert!(cp.plan().has_dense_cache());

    let mut tucker_params = numeric.to_vec();
    tucker_params.extend((0..15).map(|_| ParamSpec::categorical("c", 2)));
    let space = ParamSpace::new(tucker_params.clone());
    let cells = vec![6; space.dim()];
    let dims = space.grid_with_cells(&cells).dims();
    let mut ranks = vec![1; dims.len()];
    ranks[..3].fill(2);
    let t = TuckerDecomp::random(&dims, &ranks, -1.0, 1.0, 18);
    let mut tucker = CprModel::from_parts(space, &cells, t, Loss::LogLeastSquares, 0.37).unwrap();
    install_random_masks(&mut tucker, &dims, 18);
    assert!(!tucker.plan().has_dense_cache());

    for (model, params) in [(&cp, &cp_params), (&tucker, &tucker_params)] {
        let xs = probes(params, 16, 19);
        let naive: Vec<u64> = xs
            .iter()
            .map(|x| model.predict_naive(x).to_bits())
            .collect();
        for plan in [model.plan().clone(), model.plan().without_dense_cache()] {
            let mut via_into = vec![0.0; xs.len()];
            plan.predict_into(&xs, &mut via_into);
            let via_batch = plan.predict_batch(&xs);
            for (k, x) in xs.iter().enumerate() {
                let table = plan.has_dense_cache();
                assert_eq!(
                    plan.predict(x).to_bits(),
                    naive[k],
                    "predict, table {table}"
                );
                assert_eq!(via_into[k].to_bits(), naive[k], "into, table {table}");
                assert_eq!(via_batch[k].to_bits(), naive[k], "batch, table {table}");
            }
        }
    }
}

/// Non-proptest regression: a 1-vs-4-thread determinism check on a
/// *trained* model (fit exercises real masks and a real offset), pinning
/// both the plan path and the naive path bit-for-bit.
#[test]
fn trained_model_batch_determinism_1_vs_4_threads() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 4096.0),
        ParamSpec::log("n", 32.0, 4096.0),
    ]);
    let mut rng = StdRng::seed_from_u64(7);
    let mut data = cpr_core::Dataset::new();
    for _ in 0..900 {
        let m = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
        let n = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, n], 1e-4 * m.powf(1.3) * n.powf(0.9));
    }
    let model = cpr_core::CprBuilder::new(space)
        .cells_per_dim(10)
        .rank(3)
        .regularization(1e-7)
        .fit(&data)
        .unwrap();
    let batch: Vec<Vec<f64>> = (0..2000)
        .map(|_| {
            vec![
                16.0 * 512.0_f64.powf(rng.gen::<f64>()),
                16.0 * 512.0_f64.powf(rng.gen::<f64>()),
            ]
        })
        .collect();
    let run = |threads: usize| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| model.predict_batch(&batch))
    };
    let one = run(1);
    let four = run(4);
    for ((a, b), x) in one.iter().zip(&four).zip(&batch) {
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), model.predict_naive(x).to_bits());
    }
}
