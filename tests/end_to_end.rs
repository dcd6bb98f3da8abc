//! Integration tests spanning the full crate stack:
//! apps → grid → tensor → completion → core → metrics.

use cpr::apps::{all_benchmarks, Benchmark, MatMul};
use cpr::core::{serialize, CprBuilder, CprExtrapolatorBuilder, Loss, Metrics};
use cpr::grid::{ParamSpace, ParamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CPR must beat the best constant (geometric-mean) predictor on every
/// benchmark — the weakest meaningful accuracy bar, checked end to end.
#[test]
fn cpr_beats_constant_predictor_on_all_six_benchmarks() {
    for bench in all_benchmarks() {
        let train = bench.sample_dataset(2500, 1);
        let test = bench.sample_dataset(300, 2);
        // Coarse grid (high observation density even for the order-9
        // Kripke tensor) with a small rank sweep, as the paper tunes.
        let cpr_err = [2usize, 8]
            .iter()
            .map(|&rank| {
                CprBuilder::new(bench.space())
                    .cells_per_dim(4)
                    .rank(rank)
                    .regularization(1e-5)
                    .fit(&train)
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
                    .evaluate(&test)
                    .mlogq
            })
            .fold(f64::INFINITY, f64::min);
        // Best constant in MLogQ sense: geometric mean of training times.
        let gm = (train.ys().iter().map(|v| v.ln()).sum::<f64>() / train.len() as f64).exp();
        let const_preds = vec![gm; test.len()];
        let const_err = Metrics::compute(&const_preds, &test.ys()).mlogq;
        assert!(
            cpr_err < const_err * 0.5,
            "{}: CPR {} vs constant {}",
            bench.name(),
            cpr_err,
            const_err
        );
    }
}

#[test]
fn serialization_roundtrip_through_file() {
    let app = MatMul::default();
    let train = app.sample_dataset(800, 3);
    let model = CprBuilder::new(app.space())
        .cells_per_dim(8)
        .rank(2)
        .fit(&train)
        .unwrap();
    let bytes = serialize::to_bytes(&model);
    let path = std::env::temp_dir().join("cpr_roundtrip_test.bin");
    std::fs::write(&path, &bytes).unwrap();
    let read = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let restored = serialize::from_bytes(&read).unwrap();
    let probe = [500.0, 600.0, 700.0];
    assert_eq!(model.predict(&probe), restored.predict(&probe));
}

#[test]
fn both_losses_agree_in_domain() {
    let app = MatMul::default();
    let train = app.sample_dataset(2000, 4);
    let test = app.sample_dataset(300, 5);
    let ls = CprBuilder::new(app.space())
        .cells_per_dim(8)
        .rank(4)
        .fit(&train)
        .unwrap()
        .evaluate(&test)
        .mlogq;
    let mq = CprBuilder::new(app.space())
        .cells_per_dim(8)
        .rank(4)
        .loss(Loss::MLogQ2)
        .fit(&train)
        .unwrap()
        .evaluate(&test)
        .mlogq;
    assert!(
        (ls - mq).abs() < 0.1,
        "losses disagree in-domain: ALS {ls} vs AMN {mq}"
    );
}

#[test]
fn extrapolator_tracks_power_law_scaling() {
    // Whole pipeline: restricted-domain sampling -> positive AMN model ->
    // rank-1 splines -> beyond-domain prediction, on the MM benchmark.
    let app = MatMul::default();
    let cap = 512.0;
    let space = ParamSpace::new(vec![
        ParamSpec::log_int("m", 32.0, cap),
        ParamSpec::log_int("n", 32.0, 4096.0),
        ParamSpec::log_int("k", 32.0, 4096.0),
    ]);
    let mut rng = StdRng::seed_from_u64(6);
    let mut train = cpr::core::Dataset::new();
    for _ in 0..2000 {
        let m = (32.0 * (cap / 32.0).powf(rng.gen::<f64>())).round();
        let n = (32.0 * 128.0_f64.powf(rng.gen::<f64>())).round();
        let k = (32.0 * 128.0_f64.powf(rng.gen::<f64>())).round();
        train.push(vec![m, n, k], app.base_time(&[m, n, k]));
    }
    let base = CprBuilder::new(space)
        .cells_per_dim(8)
        .rank(2)
        .regularization(1e-8);
    let ex = CprExtrapolatorBuilder::from_builder(base)
        .fit(&train)
        .unwrap();
    // Extrapolate m 4-8x beyond the cap.
    let mut worst: f64 = 0.0;
    for m in [2048.0, 4096.0] {
        for nk in [128.0, 1024.0] {
            let pred = ex.predict(&[m, nk, nk]);
            let truth = app.base_time(&[m, nk, nk]);
            worst = worst.max((pred / truth).ln().abs());
        }
    }
    assert!(worst < 0.8, "extrapolation drift |logQ| = {worst}");
}

#[test]
fn metrics_are_consistent_between_paths() {
    // evaluate() must agree with manually computed Metrics.
    let app = MatMul::default();
    let train = app.sample_dataset(600, 7);
    let test = app.sample_dataset(100, 8);
    let model = CprBuilder::new(app.space())
        .cells_per_dim(6)
        .rank(2)
        .fit(&train)
        .unwrap();
    let auto = model.evaluate(&test);
    let preds: Vec<f64> = test.samples().iter().map(|s| model.predict(&s.x)).collect();
    let manual = Metrics::compute(&preds, &test.ys());
    assert_eq!(auto, manual);
}

#[test]
fn determinism_across_full_stack() {
    let run = || {
        let app = MatMul::default();
        let train = app.sample_dataset(500, 9);
        let model = CprBuilder::new(app.space())
            .cells_per_dim(6)
            .rank(3)
            .seed(17)
            .fit(&train)
            .unwrap();
        model.predict(&[123.0, 456.0, 789.0])
    };
    assert_eq!(run(), run(), "end-to-end pipeline must be deterministic");
}
