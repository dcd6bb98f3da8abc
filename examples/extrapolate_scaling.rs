//! Extrapolating to unobserved scales (paper §5.3 / Figure 8).
//!
//! Machine-allocation estimation: you have MPI broadcast timings up to some
//! message size and want predictions for messages 4-16x larger than anything
//! measured. A plain CP model cannot leave its grid; the §5.3 technique
//! (positive AMN factors → rank-1 Perron vectors → MARS splines on the log
//! singular vectors) can.
//!
//! Run: `cargo run --release --example extrapolate_scaling`

use cpr::apps::{standard_normal, Benchmark, Broadcast};
use cpr::core::{CprBuilder, CprExtrapolatorBuilder, Dataset};
use cpr::grid::{ParamSpace, ParamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let app = Broadcast::default();
    // Training domain: messages only up to 4 MiB (the full space reaches
    // 64 MiB) — the modeling domain the extrapolator must escape.
    let msg_cap = (1u64 << 22) as f64;
    let space = ParamSpace::new(vec![
        ParamSpec::log_int("nodes", 1.0, 128.0),
        ParamSpec::log_int("ppn", 1.0, 64.0),
        ParamSpec::log_int("msg", 65536.0, msg_cap),
    ]);
    let mut rng = StdRng::seed_from_u64(9);
    let mut train = Dataset::new();
    for _ in 0..4096 {
        let nodes = (1.0 * 128.0_f64.powf(rng.gen::<f64>())).round();
        let ppn = (1.0 * 64.0_f64.powf(rng.gen::<f64>())).round();
        let msg = (65536.0 * (msg_cap / 65536.0).powf(rng.gen::<f64>())).round();
        let y = app.base_time(&[nodes, ppn, msg])
            * (app.noise_sigma() * standard_normal(&mut rng)).exp();
        train.push(vec![nodes, ppn, msg], y);
    }

    let base = CprBuilder::new(space)
        .cells_per_dim(12)
        .rank(3)
        .regularization(1e-7);
    let ex = CprExtrapolatorBuilder::from_builder(base)
        .fit(&train)
        .expect("training failed");
    println!(
        "trained positive CPR model on broadcasts up to 4 MiB ({} samples)",
        train.len()
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "msg (MiB)", "predicted (s)", "actual (s)", "|logQ|"
    );
    let mut worst: f64 = 0.0;
    for shift in [22, 23, 24, 25, 26] {
        let msg = (1u64 << shift) as f64;
        let x = [64.0, 16.0, msg];
        let pred = ex.predict(&x);
        let truth = app.base_time(&x);
        let logq = (pred / truth).ln().abs();
        if shift > 22 {
            worst = worst.max(logq);
        }
        println!(
            "{:>10.0} {:>14.5e} {:>14.5e} {:>9.4}{}",
            msg / (1024.0 * 1024.0),
            pred,
            truth,
            logq,
            if shift == 22 {
                "  <- edge of training domain"
            } else {
                "  (extrapolated)"
            }
        );
    }
    println!(
        "worst extrapolation |logQ| = {worst:.4} (factor {:.3}x)",
        worst.exp()
    );
    assert!(
        worst < 0.7,
        "extrapolation should stay within a factor of 2"
    );
}
