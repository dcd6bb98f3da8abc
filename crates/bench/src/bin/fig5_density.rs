//! Figure 5: CPR prediction accuracy vs. training-set size for several
//! tensor sizes (the fill-density study).
//!
//! The paper's finding (§7.1.2): finer grids need more observations before
//! they pay off, but the density threshold *drops* with tensor order — a
//! 32³ MM tensor wants ≥50% fill, while AMG's order-8 tensor is most
//! accurate at 0.07% fill. For each tensor size the minimum error across CP
//! ranks is reported, with the winning model's fill density. `PerfModel`
//! does not expose the density, so the rank candidates fit with
//! `CprBuilder` directly rather than through `cpr_bench::sweep_builders`.
//!
//! Run: `cargo run --release -p cpr-bench --bin fig5_density [--full]`

use cpr_apps::all_benchmarks;
use cpr_bench::{fmt, print_table, Scale};
use cpr_core::CprBuilder;
use rayon::prelude::*;

fn main() {
    let scale = Scale::from_args();
    let benches = all_benchmarks();
    let bench_ids: &[usize] = match scale {
        Scale::Full => &[0, 1, 2, 3, 4],
        Scale::Quick => &[0, 3],
        Scale::Tiny => &[0],
    };
    let train_sizes: &[usize] = match scale {
        Scale::Full => &[128, 512, 2048, 8192, 32768, 65536],
        Scale::Quick => &[128, 512, 2048, 8192],
        Scale::Tiny => &[128, 512],
    };
    let cell_sizes: &[usize] = match scale {
        Scale::Full => &[4, 8, 16, 32],
        Scale::Quick => &[4, 8, 16],
        Scale::Tiny => &[4],
    };
    let ranks: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8, 16],
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Tiny => &[1, 2],
    };

    let mut rows = Vec::new();
    for &bi in bench_ids {
        let bench = &benches[bi];
        let space = bench.space();
        let test =
            bench.sample_dataset(scale.cap(bench.paper_test_set_size(), 600), 500 + bi as u64);
        let pool = bench.sample_dataset(*train_sizes.last().unwrap(), 600 + bi as u64);
        for &n in train_sizes {
            let train = pool.random_subset(n, 1);
            for &cells in cell_sizes {
                // The lowest test MLogQ across ranks, ties to the lower rank.
                let (model, err) = ranks
                    .par_iter()
                    .map(|&rank| {
                        let model = CprBuilder::new(space.clone())
                            .cells_per_dim(cells)
                            .rank(rank)
                            .regularization(1e-5)
                            .fit(&train)
                            .expect("CPR training failed");
                        let err = model.evaluate(&test).mlogq;
                        (model, err)
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("at least one rank");
                rows.push(vec![
                    bench.name().to_string(),
                    format!("{cells} cells/dim"),
                    n.to_string(),
                    fmt(err),
                    fmt(model.density()),
                ]);
            }
        }
        eprintln!("[fig5] {} done", bench.name());
    }
    print_table(
        "Figure 5: CPR MLogQ vs training-set size per tensor size",
        &["bench", "tensor", "train_size", "mlogq", "density"],
        &rows,
    );
}
