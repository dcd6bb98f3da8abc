//! # cpr-bench — the experiment harness
//!
//! Shared plumbing for the per-figure/per-table binaries (`src/bin/`) that
//! regenerate every table and figure of the paper's evaluation, plus the
//! seeded [`fixtures`] the test suites and the end-to-end benchmark
//! (`e2ebench/`) share. See DESIGN.md's per-experiment index for the
//! mapping.
//!
//! Conventions (paper §6.0.4):
//! * baselines consume **log-transformed** parameters and execution times;
//! * prediction error is reported as **MLogQ** = `mean |log(m/y)|`;
//! * every model family is tuned exhaustively over its hyper-parameter grid
//!   on the training set, and the best test error is reported;
//! * models over 10 MB are dropped from the Figure 7 sweep.

pub mod fixtures;

use cpr_baselines::tune::Factory;
use cpr_core::{BaselineFamily, CprBuilder, CprModel, Dataset, PerfModel, PerfModelBuilder};
use cpr_grid::ParamSpace;
use rayon::prelude::*;

// The §6.0.4 feature transform lives with the `PerfModel` bridge in
// `cpr_core` now; re-exported so the figure binaries keep one import path.
pub use cpr_core::transform_features;

/// Scale knob for the harness binaries: `Tiny` is a seconds-total smoke
/// configuration (CI runs every binary at this scale); `Quick` runs in
/// seconds-to-minutes on a laptop; `Full` approaches the paper's
/// training-set sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Quick,
    Full,
}

impl Scale {
    /// Parse the process arguments: none selects [`Scale::Quick`], exactly
    /// one of `--tiny`, `--quick`, `--full` selects that scale. Anything
    /// else prints the reason and a usage line and exits with status 2.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let prog = args.next().unwrap_or_default();
        let rest: Vec<String> = args.collect();
        Self::parse(&rest).unwrap_or_else(|reason| {
            eprintln!("{prog}: {reason}\nusage: {prog} [--tiny | --quick | --full]");
            std::process::exit(2)
        })
    }

    /// [`Scale::from_args`] without the process: the arguments after the
    /// program name. An unknown argument or a second flag is an error, so a
    /// mistyped flag never runs the default sweep.
    fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, String> {
        match args {
            [] => Ok(Scale::Quick),
            [flag] => match flag.as_ref() {
                "--tiny" => Ok(Scale::Tiny),
                "--quick" => Ok(Scale::Quick),
                "--full" => Ok(Scale::Full),
                other => Err(format!("unknown argument `{other}`")),
            },
            _ => Err(format!(
                "expected at most one scale flag, got {} arguments",
                args.len()
            )),
        }
    }

    /// Shrink a paper-scale sample count under `Quick`/`Tiny`. `Tiny` keeps
    /// an eighth of the quick count (floor 120 so every fit stays
    /// well-posed).
    pub fn cap(self, full: usize, quick: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => quick.min(full),
            Scale::Tiny => (quick / 8).max(120).min(quick).min(full),
        }
    }
}

/// Dataset → (log features, log times) for baseline training.
pub fn prepare_xy(space: &ParamSpace, data: &Dataset) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs = data
        .samples()
        .iter()
        .map(|s| transform_features(space, &s.x))
        .collect();
    let ys = data.samples().iter().map(|s| s.y.ln()).collect();
    (xs, ys)
}

/// MLogQ of a baseline's log-space predictions against log-space truth.
pub fn mlogq_log_space(pred_log: &[f64], truth_log: &[f64]) -> f64 {
    pred_log
        .iter()
        .zip(truth_log)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / truth_log.len() as f64
}

/// Result of tuning one model family.
pub struct FamilyResult {
    pub name: &'static str,
    pub mlogq: f64,
    pub size_bytes: usize,
}

/// Fit every factory in a family's grid, report the best test MLogQ
/// (optionally capping model size, as Figure 7 does at 10 MB).
pub fn tune_family(
    name: &'static str,
    grid: &[Factory],
    space: &ParamSpace,
    train: &Dataset,
    test: &Dataset,
    max_size_bytes: Option<usize>,
) -> Option<FamilyResult> {
    let (x_train, y_train) = prepare_xy(space, train);
    let (x_test, y_test) = prepare_xy(space, test);
    let best = cpr_baselines::tune_best(
        grid,
        &x_train,
        &y_train,
        &x_test,
        &y_test,
        mlogq_log_space,
        max_size_bytes,
    )?;
    Some(FamilyResult {
        name,
        mlogq: best.score,
        size_bytes: best.model.size_bytes(),
    })
}

/// Best fitted model of one family after a generic sweep.
pub struct FamilyBest {
    pub name: String,
    pub mlogq: f64,
    pub size_bytes: usize,
    /// The winning model itself, servable through the generic surface.
    pub model: Box<dyn PerfModel>,
}

/// Sweep any list of [`PerfModelBuilder`]s — CPR configurations, baseline
/// factories, extrapolators, mixed — through **one** fit/evaluate code
/// path: every builder fits on `train` (in parallel), evaluates on `test`
/// via [`PerfModel::evaluate`], and the best model per distinct builder
/// name (lowest test MLogQ, ties to the earlier builder) is returned in
/// first-seen name order. `max_size_bytes` drops models over the paper's
/// Figure 7 cap; builders whose fit fails are skipped.
pub fn sweep_builders(
    builders: &[Box<dyn PerfModelBuilder>],
    train: &Dataset,
    test: &Dataset,
    max_size_bytes: Option<usize>,
) -> Vec<FamilyBest> {
    let fitted: Vec<Option<FamilyBest>> = builders
        .par_iter()
        .map(|b| {
            let model = b.fit_boxed(train).ok()?;
            let size_bytes = model.size_bytes();
            if let Some(cap) = max_size_bytes {
                if size_bytes > cap {
                    return None;
                }
            }
            let mlogq = model.evaluate(test).mlogq;
            mlogq.is_finite().then_some(FamilyBest {
                name: b.name().to_string(),
                mlogq,
                size_bytes,
                model,
            })
        })
        .collect();
    let mut best: Vec<FamilyBest> = Vec::new();
    for candidate in fitted.into_iter().flatten() {
        match best.iter_mut().find(|fb| fb.name == candidate.name) {
            Some(fb) if candidate.mlogq < fb.mlogq => *fb = candidate,
            Some(_) => {}
            None => best.push(candidate),
        }
    }
    best
}

/// The standard CPR hyper-parameter grid as generic builders (every
/// `(cells, rank, lambda)` point, all named `"CPR"`, so [`sweep_builders`]
/// reports the family best).
pub fn cpr_builder_grid(
    space: &ParamSpace,
    cells: &[usize],
    ranks: &[usize],
    lambdas: &[f64],
) -> Vec<Box<dyn PerfModelBuilder>> {
    let mut out: Vec<Box<dyn PerfModelBuilder>> = Vec::new();
    for &c in cells {
        for &r in ranks {
            for &l in lambdas {
                out.push(Box::new(
                    CprBuilder::new(space.clone())
                        .cells_per_dim(c)
                        .rank(r)
                        .regularization(l),
                ));
            }
        }
    }
    out
}

/// A baseline family's hyper-parameter grid as generic builders (one
/// [`BaselineFamily`] per factory, all sharing `name`).
pub fn family_builder_grid(
    name: &'static str,
    space: &ParamSpace,
    grid: Vec<Factory>,
) -> Vec<Box<dyn PerfModelBuilder>> {
    grid.into_iter()
        .map(|factory| {
            Box::new(BaselineFamily::new(name, space.clone(), factory)) as Box<dyn PerfModelBuilder>
        })
        .collect()
}

/// CPR hyper-parameter point.
#[derive(Debug, Clone, Copy)]
pub struct CprPoint {
    pub cells: usize,
    pub rank: usize,
    pub lambda: f64,
}

/// Fit one CPR configuration and return `(model, test MLogQ)`.
pub fn fit_cpr(
    space: &ParamSpace,
    train: &Dataset,
    test: &Dataset,
    point: CprPoint,
) -> (CprModel, f64) {
    let model = CprBuilder::new(space.clone())
        .cells_per_dim(point.cells)
        .rank(point.rank)
        .regularization(point.lambda)
        .fit(train)
        .expect("CPR training failed");
    let mlogq = model.evaluate(test).mlogq;
    (model, mlogq)
}

/// Sweep CPR over a grid of `(cells, rank, lambda)` triples in parallel and
/// return the best model by test MLogQ (the §6.0.4 exhaustive protocol).
pub fn tune_cpr(
    space: &ParamSpace,
    train: &Dataset,
    test: &Dataset,
    cells: &[usize],
    ranks: &[usize],
    lambdas: &[f64],
) -> (CprModel, f64) {
    let points: Vec<CprPoint> = cells
        .iter()
        .flat_map(|&c| {
            ranks.iter().flat_map(move |&r| {
                lambdas.iter().map(move |&l| CprPoint {
                    cells: c,
                    rank: r,
                    lambda: l,
                })
            })
        })
        .collect();
    points
        .par_iter()
        .map(|&p| fit_cpr(space, train, test, p))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("empty CPR sweep")
}

/// Print a TSV header followed by rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// Format a float compactly for table output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 0.01 && v.abs() < 1e4 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_apps::{Benchmark, MatMul};

    #[test]
    fn transform_logs_numerical_params() {
        let mm = MatMul::default();
        let space = mm.space();
        let t = transform_features(&space, &[64.0, 128.0, 256.0]);
        assert!((t[0] - 64.0_f64.ln()).abs() < 1e-12);
        assert!((t[2] - 256.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cpr_fits_mm_reasonably() {
        let mm = MatMul::default();
        let train = mm.sample_dataset(2000, 1);
        let test = mm.sample_dataset(300, 2);
        let (_, mlogq) = fit_cpr(
            &mm.space(),
            &train,
            &test,
            CprPoint {
                cells: 8,
                rank: 4,
                lambda: 1e-6,
            },
        );
        assert!(mlogq < 0.5, "CPR on MM: MLogQ {mlogq}");
    }

    #[test]
    fn tune_cpr_picks_best() {
        let mm = MatMul::default();
        let train = mm.sample_dataset(1500, 3);
        let test = mm.sample_dataset(200, 4);
        let (model, best) = tune_cpr(&mm.space(), &train, &test, &[4, 8], &[1, 4], &[1e-6]);
        let (_, fixed) = fit_cpr(
            &mm.space(),
            &train,
            &test,
            CprPoint {
                cells: 4,
                rank: 1,
                lambda: 1e-6,
            },
        );
        assert!(best <= fixed + 1e-12);
        assert!(model.size_bytes() > 0);
    }

    #[test]
    fn family_tuning_runs_end_to_end() {
        let mm = MatMul::default();
        let space = mm.space();
        let train = mm.sample_dataset(400, 5);
        let test = mm.sample_dataset(100, 6);
        let grid = cpr_baselines::tune::knn_grid(cpr_baselines::SweepBudget::Quick);
        let res = tune_family("KNN", &grid, &space, &train, &test, None).unwrap();
        assert!(res.mlogq.is_finite() && res.mlogq > 0.0);
        assert!(res.size_bytes > 0);
    }

    #[test]
    fn generic_sweep_covers_cpr_and_baselines() {
        let mm = MatMul::default();
        let space = mm.space();
        let train = mm.sample_dataset(400, 7);
        let test = mm.sample_dataset(100, 8);
        let mut builders = cpr_builder_grid(&space, &[4, 8], &[1, 2], &[1e-6]);
        builders.extend(family_builder_grid(
            "KNN",
            &space,
            cpr_baselines::tune::knn_grid(cpr_baselines::SweepBudget::Quick),
        ));
        let best = sweep_builders(&builders, &train, &test, None);
        let names: Vec<&str> = best.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["CPR", "KNN"], "one best entry per family");
        for fb in &best {
            assert!(fb.mlogq.is_finite() && fb.mlogq > 0.0);
            assert!(fb.size_bytes > 0);
            // The winning model is servable through the generic surface.
            let m = fb.model.evaluate(&test);
            assert_eq!(m.mlogq, fb.mlogq);
        }
        // A 1-byte cap drops everything.
        assert!(sweep_builders(&builders, &train, &test, Some(1)).is_empty());
    }

    #[test]
    fn scale_flags_parse_strictly() {
        assert_eq!(Scale::parse::<&str>(&[]), Ok(Scale::Quick));
        assert_eq!(Scale::parse(&["--tiny"]), Ok(Scale::Tiny));
        assert_eq!(Scale::parse(&["--quick"]), Ok(Scale::Quick));
        assert_eq!(Scale::parse(&["--full"]), Ok(Scale::Full));
        // A typo and a doubled flag are rejected, not run at Quick scale.
        let typo = Scale::parse(&["--ful"]).unwrap_err();
        assert!(typo.contains("--ful"), "{typo}");
        assert!(Scale::parse(&["--tiny", "--full"]).is_err());
        assert!(Scale::parse(&["--tiny", "--tiny"]).is_err());
    }

    #[test]
    fn scale_caps() {
        assert_eq!(Scale::Quick.cap(65536, 2048), 2048);
        assert_eq!(Scale::Full.cap(65536, 2048), 65536);
    }
}
