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
//!   on the training set, and the best test error is reported, through one
//!   fit–score–pick loop ([`fit_each`], [`sweep_builders`]);
//! * models over 10 MB are dropped from the Figure 7 sweep.

pub mod fixtures;

use cpr_baselines::tune::Factory;
use cpr_core::{BaselineFamily, CprBuilder, Dataset, PerfModel, PerfModelBuilder};
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

/// One builder's fit, scored on the test set: a slot of [`fit_each`] and an
/// entry of [`sweep_builders`].
pub struct Fitted {
    /// The builder's name (the model family).
    pub name: String,
    /// Test MLogQ, always finite.
    pub mlogq: f64,
    pub size_bytes: usize,
    /// The fitted model itself, servable through the generic surface.
    pub model: Box<dyn PerfModel>,
}

/// Fit every builder on `train` (in parallel) and score it on `test` via
/// [`PerfModel::evaluate`]: one slot per builder, in input order, so a
/// figure can label each slot by its grid point. A slot is `None` where the
/// fit fails, where the model is over `max_size_bytes` (the paper's Figure 7
/// cap), or where its MLogQ is not finite.
pub fn fit_each(
    builders: &[Box<dyn PerfModelBuilder>],
    train: &Dataset,
    test: &Dataset,
    max_size_bytes: Option<usize>,
) -> Vec<Option<Fitted>> {
    builders
        .par_iter()
        .map(|b| {
            let model = b.fit_boxed(train).ok()?;
            let size_bytes = model.size_bytes();
            if max_size_bytes.is_some_and(|cap| size_bytes > cap) {
                return None;
            }
            let mlogq = model.evaluate(test).mlogq;
            mlogq.is_finite().then(|| Fitted {
                name: b.name().to_string(),
                mlogq,
                size_bytes,
                model,
            })
        })
        .collect()
}

/// The §6.0.4 protocol over any list of [`PerfModelBuilder`]s — CPR
/// configurations, baseline factories, extrapolators, mixed: [`fit_each`],
/// then the best slot per distinct builder name (lowest test MLogQ, ties to
/// the earlier builder), in first-seen name order.
pub fn sweep_builders(
    builders: &[Box<dyn PerfModelBuilder>],
    train: &Dataset,
    test: &Dataset,
    max_size_bytes: Option<usize>,
) -> Vec<Fitted> {
    let mut best: Vec<Fitted> = Vec::new();
    for candidate in fit_each(builders, train, test, max_size_bytes)
        .into_iter()
        .flatten()
    {
        match best.iter_mut().find(|fb| fb.name == candidate.name) {
            Some(fb) if candidate.mlogq < fb.mlogq => *fb = candidate,
            Some(_) => {}
            None => best.push(candidate),
        }
    }
    best
}

/// The standard CPR hyper-parameter grid as generic builders: every
/// `(cells, rank, lambda)` point, cells outermost and λ innermost (the
/// order [`fit_each`]'s slots keep), all named `"CPR"`, so
/// [`sweep_builders`] reports the family best.
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

    /// A builder whose model predicts one constant time, for checking the
    /// sweep's slot and pick rules without a real fit. `pred: None` is a
    /// failed fit.
    struct Stub {
        name: &'static str,
        pred: Option<f64>,
        size: usize,
    }

    struct StubModel {
        space: ParamSpace,
        pred: f64,
        size: usize,
    }

    impl PerfModel for StubModel {
        fn name(&self) -> &str {
            "stub"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn predict(&self, _: &[f64]) -> f64 {
            self.pred
        }
        fn size_bytes(&self) -> usize {
            self.size
        }
    }

    impl PerfModelBuilder for Stub {
        fn name(&self) -> &str {
            self.name
        }
        fn fit_boxed(&self, _: &Dataset) -> cpr_core::Result<Box<dyn PerfModel>> {
            let pred = self
                .pred
                .ok_or_else(|| cpr_core::CprError::InvalidConfig("stub fit fails".into()))?;
            Ok(Box::new(StubModel {
                space: ParamSpace::new(vec![cpr_grid::ParamSpec::linear("x", 0.0, 1.0)]),
                pred,
                size: self.size,
            }))
        }
    }

    fn stubs(specs: &[(&'static str, Option<f64>, usize)]) -> Vec<Box<dyn PerfModelBuilder>> {
        specs
            .iter()
            .map(|&(name, pred, size)| Box::new(Stub { name, pred, size }) as _)
            .collect()
    }

    /// Every measured time is 1, so a stub predicting `t` scores `|ln t|`.
    fn unit_times() -> Dataset {
        let mut data = Dataset::new();
        for i in 0..4 {
            data.push(vec![i as f64 / 4.0], 1.0);
        }
        data
    }

    #[test]
    fn fit_each_keeps_one_slot_per_builder_in_order() {
        let data = unit_times();
        let builders = stubs(&[
            ("A", Some(2.0), 10),
            ("B", None, 10),
            ("C", Some(2.0), 1000),
            ("D", Some(f64::INFINITY), 10),
            ("E", Some(2.0), 10),
        ]);
        let slots = fit_each(&builders, &data, &data, Some(100));
        let names: Vec<Option<&str>> = slots
            .iter()
            .map(|s| s.as_ref().map(|f| f.name.as_str()))
            .collect();
        // A failed fit, an over-cap model and a non-finite score leave holes.
        assert_eq!(names, [Some("A"), None, None, None, Some("E")]);
        for f in slots.iter().flatten() {
            assert_eq!(f.mlogq, 2.0_f64.ln());
            assert_eq!(f.size_bytes, 10);
            assert_eq!(f.model.evaluate(&data).mlogq, f.mlogq);
        }
        // Without a cap the large model keeps its slot.
        let uncapped = fit_each(&builders, &data, &data, None);
        assert_eq!(uncapped[2].as_ref().map(|f| f.size_bytes), Some(1000));
    }

    #[test]
    fn sweep_picks_the_lowest_mlogq_per_name_ties_to_the_earlier() {
        let data = unit_times();
        let builders = stubs(&[
            ("B", Some(4.0), 1),
            ("A", Some(8.0), 2),
            ("A", Some(f64::INFINITY), 3),
            ("A", Some(2.0), 4),
            ("A", Some(2.0), 5),
            ("B", Some(2.0), 6),
            ("A", None, 7),
        ]);
        let best = sweep_builders(&builders, &data, &data, None);
        let picked: Vec<(&str, usize)> = best
            .iter()
            .map(|f| (f.name.as_str(), f.size_bytes))
            .collect();
        // First-seen name order; `A` ties at ln 2 between sizes 4 and 5.
        assert_eq!(picked, [("B", 6), ("A", 4)]);
        assert!(sweep_builders(&builders, &data, &data, Some(0)).is_empty());
    }

    #[test]
    fn cpr_fits_mm_reasonably() {
        let mm = MatMul::default();
        let train = mm.sample_dataset(2000, 1);
        let test = mm.sample_dataset(300, 2);
        let builders = cpr_builder_grid(&mm.space(), &[8], &[4], &[1e-6]);
        let slots = fit_each(&builders, &train, &test, None);
        let fitted = slots[0].as_ref().expect("CPR fits MM");
        assert!(fitted.mlogq < 0.5, "CPR on MM: MLogQ {}", fitted.mlogq);
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
        // The CPR entry is the lowest of its four grid points.
        let cpr_slots = fit_each(&builders[..4], &train, &test, None);
        let lowest = cpr_slots
            .iter()
            .map(|s| s.as_ref().expect("every CPR point fits").mlogq)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best[0].mlogq, lowest);
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
