//! Figure 3: prediction accuracy vs. domain-discretization granularity for
//! the piecewise/grid-based models (CPR, SGR, MARS).
//!
//! For each of the five benchmarks the paper plots MLogQ against the
//! discretization granularity: cells-per-dimension for CPR, `2^level` for
//! SGR; MARS picks its own (global) discretization, giving one point.
//! Training-set sizes in the paper: 2¹⁶, 2¹⁶, 2¹⁵, 2¹⁵, 2¹⁴ for
//! MM, QR, BC, FMM, AMG.
//!
//! Expected shape (paper §7.1.1): CPR improves systematically with
//! granularity and beats SGR/MARS, increasingly so in high dimensions
//! (up to ~4x on FMM/AMG); SGR's uniform level refinement stalls on mixed
//! numerical/categorical spaces.
//!
//! Run: `cargo run --release -p cpr-bench --bin fig3_granularity [--full]`

use cpr_apps::all_benchmarks;
use cpr_baselines::{mars_grid, sgr_grid_levels, SweepBudget};
use cpr_bench::{cpr_builder_grid, family_builder_grid, fmt, print_table, sweep_builders, Scale};
use cpr_core::PerfModelBuilder;

fn main() {
    let scale = Scale::from_args();
    let budget = match scale {
        Scale::Full => SweepBudget::Full,
        Scale::Quick | Scale::Tiny => SweepBudget::Quick,
    };
    let benches = all_benchmarks();
    // (benchmark index, paper train size)
    let plan: [(usize, usize); 5] = [(0, 65536), (1, 65536), (2, 32768), (3, 32768), (4, 16384)];
    let plan: &[(usize, usize)] = match scale {
        Scale::Tiny => &plan[..1],
        _ => &plan,
    };
    let granularities: &[usize] = match scale {
        Scale::Full => &[4, 8, 16, 32, 64, 128, 256],
        Scale::Quick => &[4, 8, 16, 32],
        Scale::Tiny => &[4, 8],
    };
    let ranks: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8, 16, 32],
        Scale::Quick => &[2, 4, 8],
        Scale::Tiny => &[2],
    };
    let levels: &[usize] = match scale {
        Scale::Full => &[2, 3, 4, 5, 6, 7, 8],
        Scale::Quick => &[2, 3, 4, 5],
        Scale::Tiny => &[2],
    };

    let mut rows = Vec::new();
    for &(bi, full_train) in plan {
        let bench = &benches[bi];
        let space = bench.space();
        let train = bench.sample_dataset(scale.cap(full_train, 3000), 100 + bi as u64);
        let test =
            bench.sample_dataset(scale.cap(bench.paper_test_set_size(), 600), 200 + bi as u64);
        eprintln!(
            "[fig3] {} train={} test={}",
            bench.name(),
            train.len(),
            test.len()
        );

        // One row: the lowest test MLogQ over one family's grid.
        let mut push_best =
            |model: &str, granularity: String, grid: Vec<Box<dyn PerfModelBuilder>>| {
                if let Some(best) = sweep_builders(&grid, &train, &test, None).first() {
                    rows.push(vec![
                        bench.name().to_string(),
                        model.into(),
                        granularity,
                        fmt(best.mlogq),
                    ]);
                }
            };
        // CPR: one point per granularity, rank tuned.
        for &g in granularities {
            let grid = cpr_builder_grid(&space, &[g], ranks, &[1e-5]);
            push_best("CPR", g.to_string(), grid);
        }
        // SGR: one point per level (granularity 2^level).
        for &level in levels {
            let grid = family_builder_grid("SGR", &space, sgr_grid_levels(&[level], budget));
            push_best("SGR", (1usize << level).to_string(), grid);
        }
        // MARS: a single (search-discretized, effectively global) point.
        let grid = family_builder_grid("MARS", &space, mars_grid(budget));
        push_best("MARS", "global".into(), grid);
    }
    print_table(
        "Figure 3: MLogQ vs discretization granularity",
        &["bench", "model", "granularity", "mlogq"],
        &rows,
    );
}
