//! Figure 8: extrapolation error beyond the training range.
//!
//! Four scenarios, following §7.2:
//! * **MM / m**: train on `32 ≤ m < N` (N = 2⁸..2¹¹), test on
//!   `2048 ≤ m ≤ 4096` (n, k unrestricted in both).
//! * **MM / mnk**: train on `32 ≤ m,n,k < N`, test on `2048 ≤ m,n,k ≤ 4096`.
//! * **BC / nodes**: train on `1 ≤ nodes ≤ N` (N = 8..64), test on 128 nodes.
//! * **BC / msg**: train on `2¹⁶ ≤ msg < N` (N = 2¹⁹..2²⁵), test on
//!   `2²⁵ ≤ msg ≤ 2²⁶`.
//!
//! Each point: 4096 random training samples, best model per family.
//! Expected shape (§7.2): CPR (the §5.3 positive-factorization + spline
//! technique) extrapolates numerical parameters far better than all
//! supervised baselines, which overfit the training range; on the integer
//! node-count scenario CPR degrades to roughly KNN's ~25% error.
//!
//! Run: `cargo run --release -p cpr-bench --bin fig8_extrapolation [--full]`

use cpr_apps::{standard_normal, Benchmark, Broadcast, MatMul};
use cpr_baselines::{forest_grid, knn_grid, mars_grid, mlp_grid, ForestKind, SweepBudget};
use cpr_bench::{family_builder_grid, fmt, print_table, sweep_builders, Scale};
use cpr_core::{CprBuilder, CprExtrapolatorBuilder, Dataset, PerfModelBuilder};
use cpr_grid::{ParamSpace, ParamSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample `n` configurations with per-parameter log-uniform ranges and
/// measure them on the benchmark.
fn sample_ranged(bench: &dyn Benchmark, ranges: &[(f64, f64)], n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let x: Vec<f64> = ranges
            .iter()
            .map(|&(lo, hi)| (lo * (hi / lo).powf(rng.gen::<f64>())).round())
            .collect();
        let sigma = bench.noise_sigma();
        let y = bench.base_time(&x) * (sigma * standard_normal(&mut rng)).exp();
        data.push(x, y);
    }
    data
}

/// Build the CPR extrapolator's training space from explicit ranges.
fn space_from_ranges(names: &[&str], ranges: &[(f64, f64)]) -> ParamSpace {
    ParamSpace::new(
        names
            .iter()
            .zip(ranges)
            .map(|(name, &(lo, hi))| ParamSpec::log_int(*name, lo, hi))
            .collect(),
    )
}

struct Scenario {
    kernel: &'static str,
    scenario: &'static str,
    names: Vec<&'static str>,
    /// Training ranges per sweep value `N` (index-aligned with `ns`).
    train_ranges: Vec<Vec<(f64, f64)>>,
    ns: Vec<u64>,
    test_ranges: Vec<(f64, f64)>,
}

fn scenarios(scale: Scale) -> Vec<Scenario> {
    let mm_ns: Vec<u64> = match scale {
        Scale::Full => vec![256, 512, 1024, 2048],
        Scale::Quick => vec![512, 2048],
        Scale::Tiny => vec![512],
    };
    let bc_node_ns: Vec<u64> = match scale {
        Scale::Full => vec![8, 16, 32, 64],
        Scale::Quick => vec![16, 64],
        Scale::Tiny => vec![16],
    };
    let bc_msg_ns: Vec<u64> = match scale {
        Scale::Full => vec![1 << 19, 1 << 21, 1 << 23, 1 << 25],
        Scale::Quick => vec![1 << 21, 1 << 25],
        Scale::Tiny => vec![1 << 21],
    };
    vec![
        Scenario {
            kernel: "MM",
            scenario: "extrapolate m",
            names: vec!["m", "n", "k"],
            train_ranges: mm_ns
                .iter()
                .map(|&n| vec![(32.0, n as f64), (32.0, 4096.0), (32.0, 4096.0)])
                .collect(),
            ns: mm_ns.clone(),
            test_ranges: vec![(2048.0, 4096.0), (32.0, 4096.0), (32.0, 4096.0)],
        },
        Scenario {
            kernel: "MM",
            scenario: "extrapolate m,n,k",
            names: vec!["m", "n", "k"],
            train_ranges: mm_ns.iter().map(|&n| vec![(32.0, n as f64); 3]).collect(),
            ns: mm_ns,
            test_ranges: vec![(2048.0, 4096.0); 3],
        },
        Scenario {
            kernel: "BC",
            scenario: "extrapolate nodes",
            names: vec!["nodes", "ppn", "msg"],
            train_ranges: bc_node_ns
                .iter()
                .map(|&n| vec![(1.0, n as f64), (1.0, 64.0), (65536.0, 67_108_864.0)])
                .collect(),
            ns: bc_node_ns,
            test_ranges: vec![(128.0, 128.0001), (1.0, 64.0), (65536.0, 67_108_864.0)],
        },
        Scenario {
            kernel: "BC",
            scenario: "extrapolate msg",
            names: vec!["nodes", "ppn", "msg"],
            train_ranges: bc_msg_ns
                .iter()
                .map(|&n| vec![(1.0, 128.0), (1.0, 64.0), (65536.0, n as f64)])
                .collect(),
            ns: bc_msg_ns,
            test_ranges: vec![(1.0, 128.0), (1.0, 64.0), (33_554_432.0, 67_108_864.0)],
        },
    ]
}

fn main() {
    let scale = Scale::from_args();
    let budget = match scale {
        Scale::Full => SweepBudget::Full,
        Scale::Quick | Scale::Tiny => SweepBudget::Quick,
    };
    let train_n = scale.cap(4096, 1500);
    let test_n = scale.cap(1000, 400);
    let mm = MatMul::default();
    let bc = Broadcast::default();

    let mut rows = Vec::new();
    for sc in scenarios(scale) {
        let bench: &dyn Benchmark = if sc.kernel == "MM" { &mm } else { &bc };
        let test = sample_ranged(bench, &sc.test_ranges, test_n, 42);
        for (ranges, &n_cut) in sc.train_ranges.iter().zip(&sc.ns) {
            let train = sample_ranged(bench, ranges, train_n, 43 + n_cut);
            let space = space_from_ranges(&sc.names, ranges);

            // CPR §5.3 extrapolator: tune (cells, rank) minimally.
            let mut builders: Vec<Box<dyn PerfModelBuilder>> = Vec::new();
            for &cells in &[8usize, 16] {
                for &rank in &[2usize, 4] {
                    let base = CprBuilder::new(space.clone())
                        .cells_per_dim(cells)
                        .rank(rank)
                        .regularization(1e-6);
                    builders.push(Box::new(CprExtrapolatorBuilder::from_builder(base)));
                }
            }
            // Baselines trained on the restricted range, tested beyond it.
            let families: Vec<(&'static str, Vec<cpr_baselines::tune::Factory>)> = vec![
                ("KNN", knn_grid(budget)),
                ("ET", forest_grid(ForestKind::ExtraTrees, budget)),
                ("MARS", mars_grid(budget)),
                ("NN", mlp_grid(budget)),
            ];
            for (name, grid) in families {
                builders.extend(family_builder_grid(name, &space, grid));
            }
            for best in sweep_builders(&builders, &train, &test, None) {
                // The extrapolator is the figure's CPR series.
                let model = if best.name == "CPR-E" {
                    "CPR"
                } else {
                    &best.name
                };
                rows.push(vec![
                    sc.kernel.into(),
                    sc.scenario.into(),
                    n_cut.to_string(),
                    model.into(),
                    fmt(best.mlogq),
                ]);
            }
            eprintln!("[fig8] {} {} N={} done", sc.kernel, sc.scenario, n_cut);
        }
    }
    print_table(
        "Figure 8: extrapolation MLogQ vs training cutoff N",
        &["kernel", "scenario", "N", "model", "mlogq"],
        &rows,
    );
}
