//! Figure 7: prediction error vs. model size (8192 training samples).
//!
//! Model complexity is varied by sweeping each family's hyper-parameter
//! grid; every fitted configuration contributes one `(size, error)` point,
//! and models over the paper's 10 MB cap are dropped. Expected shape
//! (§7.1.3): CPR dominates the accuracy-per-byte frontier — matching
//! KNN/GP on the kernels with orders-of-magnitude less memory, and winning
//! outright on FMM/AMG/KRIPKE at ~50x less memory than the best NN.
//!
//! Run: `cargo run --release -p cpr-bench --bin fig7_modelsize [--full]`

use cpr_apps::all_benchmarks;
use cpr_baselines::{
    forest_grid, gp_grid, knn_grid, mars_grid, mlp_grid, sgr_grid, ForestKind, SweepBudget,
};
use cpr_bench::{cpr_builder_grid, family_builder_grid, fit_each, fmt, print_table, Scale};

const SIZE_CAP: usize = 10 * 1024 * 1024; // the paper's 10 MB cutoff

fn main() {
    let scale = Scale::from_args();
    let budget = match scale {
        Scale::Full => SweepBudget::Full,
        Scale::Quick | Scale::Tiny => SweepBudget::Quick,
    };
    let benches = all_benchmarks();
    let bench_ids: &[usize] = match scale {
        Scale::Full => &[0, 2, 3, 4, 5],
        Scale::Quick => &[0, 3],
        Scale::Tiny => &[0],
    };
    let train_n = scale.cap(8192, 2048);
    let cpr_cells: &[usize] = match scale {
        Scale::Full => &[4, 8, 16, 32, 64],
        Scale::Quick => &[4, 8, 16],
        Scale::Tiny => &[4, 8],
    };
    let cpr_ranks: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8, 16, 32],
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Tiny => &[1, 2],
    };

    let mut rows = Vec::new();
    for &bi in bench_ids {
        let bench = &benches[bi];
        let space = bench.space();
        let train = bench.sample_dataset(train_n, 900 + bi as u64);
        let test = bench.sample_dataset(
            scale.cap(bench.paper_test_set_size(), 500),
            1000 + bi as u64,
        );

        // Every configuration of every family is one point: CPR's
        // (cells, rank) grid, then each baseline's grid.
        let mut builders = cpr_builder_grid(&space, cpr_cells, cpr_ranks, &[1e-5]);
        let families: Vec<(&'static str, Vec<cpr_baselines::tune::Factory>)> = vec![
            ("SGR", sgr_grid(budget)),
            ("MARS", mars_grid(budget)),
            ("NN", mlp_grid(budget)),
            ("ET", forest_grid(ForestKind::ExtraTrees, budget)),
            ("GP", gp_grid(budget)),
            ("KNN", knn_grid(budget)),
        ];
        for (name, grid) in families {
            builders.extend(family_builder_grid(name, &space, grid));
        }
        for fitted in fit_each(&builders, &train, &test, Some(SIZE_CAP))
            .into_iter()
            .flatten()
        {
            rows.push(vec![
                bench.name().into(),
                fitted.name,
                fitted.size_bytes.to_string(),
                fmt(fitted.mlogq),
            ]);
        }
        eprintln!("[fig7] {} done", bench.name());
    }
    print_table(
        "Figure 7: MLogQ vs model size (every swept configuration; 10 MB cap)",
        &["bench", "model", "size_bytes", "mlogq"],
        &rows,
    );
}
