//! Figure 4: prediction accuracy vs. model refinement.
//!
//! CPR refines by raising the CP rank at a fixed grid (series `C_k` = cell
//! count per dimension); SGR refines its sparse grid adaptively (series
//! `L_k` = initial level, x-axis = refinement rounds). The paper's finding
//! (§7.1.1): CP rank is the most effective refinement knob — a rank-4..8
//! CPR model already beats SGR with up to 16 grid refinements.
//!
//! Run: `cargo run --release -p cpr-bench --bin fig4_refinement [--full]`

use cpr_apps::all_benchmarks;
use cpr_baselines::{sgr_grid_refinement, SweepBudget};
use cpr_bench::{
    cpr_builder_grid, family_builder_grid, fit_each, fmt, print_table, sweep_builders, Scale,
};

fn main() {
    let scale = Scale::from_args();
    let budget = match scale {
        Scale::Full => SweepBudget::Full,
        Scale::Quick | Scale::Tiny => SweepBudget::Quick,
    };
    let benches = all_benchmarks();
    // Paper train sizes for Figure 4: 2^16, 2^15, 2^15, 2^14, 2^14.
    let plan: [(usize, usize); 5] = [(0, 65536), (1, 32768), (2, 32768), (3, 16384), (4, 16384)];
    let plan = &plan[..match scale {
        Scale::Tiny => 1,
        _ => plan.len(),
    }];
    let cell_series: &[usize] = match scale {
        Scale::Full => &[8, 16, 32, 64],
        Scale::Quick => &[8, 16],
        Scale::Tiny => &[8],
    };
    let ranks: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8, 16, 32, 64],
        Scale::Quick => &[1, 2, 4, 8, 16],
        Scale::Tiny => &[1, 2],
    };
    let levels: &[usize] = match scale {
        Scale::Full => &[3, 4, 5],
        Scale::Quick => &[3, 4],
        Scale::Tiny => &[3],
    };
    let refinement_rounds: &[usize] = match scale {
        Scale::Full => &[0, 1, 2, 4, 8, 16],
        Scale::Quick => &[0, 2, 4],
        Scale::Tiny => &[0, 1],
    };

    let mut rows = Vec::new();
    for &(bi, full_train) in plan {
        let bench = &benches[bi];
        let space = bench.space();
        let train = bench.sample_dataset(scale.cap(full_train, 3000), 300 + bi as u64);
        let test =
            bench.sample_dataset(scale.cap(bench.paper_test_set_size(), 600), 400 + bi as u64);
        eprintln!(
            "[fig4] {} train={} test={}",
            bench.name(),
            train.len(),
            test.len()
        );

        // CPR: one row per (cells, rank) grid point, in the grid's order.
        let points = cell_series
            .iter()
            .flat_map(|&cells| ranks.iter().map(move |&rank| (cells, rank)));
        let grid = cpr_builder_grid(&space, cell_series, ranks, &[1e-5]);
        for ((cells, rank), slot) in points.zip(fit_each(&grid, &train, &test, None)) {
            if let Some(fitted) = slot {
                rows.push(vec![
                    bench.name().to_string(),
                    format!("CPR C{cells}"),
                    rank.to_string(),
                    fmt(fitted.mlogq),
                    fitted.size_bytes.to_string(),
                ]);
            }
        }
        for &level in levels {
            for &rounds in refinement_rounds {
                let grid = sgr_grid_refinement(level, rounds, 16, budget);
                let grid = family_builder_grid("SGR", &space, grid);
                if let Some(best) = sweep_builders(&grid, &train, &test, None).first() {
                    rows.push(vec![
                        bench.name().to_string(),
                        format!("SGR L{level}"),
                        rounds.to_string(),
                        fmt(best.mlogq),
                        best.size_bytes.to_string(),
                    ]);
                }
            }
        }
    }
    print_table(
        "Figure 4: MLogQ vs refinement (CPR: CP rank; SGR: refinement rounds)",
        &["bench", "series", "x (rank|rounds)", "mlogq", "size_bytes"],
        &rows,
    );
}
