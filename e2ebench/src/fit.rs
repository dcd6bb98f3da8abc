//! `apps_fit` (and `apps_fit_2t`): fit all six apps with the default
//! `FitSpec`, then score every test configuration through
//! `PredictPlan::predict_into`. Every pass is checked bitwise against the
//! reference fits made at set-up (one thread). Scoring always runs at one
//! thread: at two, its rate moved with the host's placement of the two
//! vCPUs by more than the benchmark's bound.

use crate::env::App;
use crate::ledger::Ledger;
use crate::spans::{self, Tracer};
use cpr_completion::{build_streams, complete, CompletionSpec};
use cpr_core::{serialize, CprModel, Decomposition, Optimizer};
use cpr_tensor::{CpDecomp, SparseTensor};
use rayon::ThreadPool;
use std::collections::BTreeMap;

/// One pass fitting all six apps: wall seconds and the fitted models.
pub fn fit_pass(
    apps: &[App],
    pool: &ThreadPool,
    tracer: &mut Tracer,
    pass: u64,
) -> (f64, Vec<Option<CprModel>>) {
    let start = tracer.begin("apps_fit.pass", pass);
    let models = pool.install(|| {
        apps.iter()
            .map(|a| tracer.span("core.fit", pass, || a.data.builder.fit(&a.data.train).ok()))
            .collect()
    });
    (tracer.end(start), models)
}

/// Check a pass's models against the reference fits (wire bytes and sweep
/// count); returns the number of mismatching apps and books each fit.
pub fn check_fits(apps: &[App], models: &[Option<CprModel>], ledger: &mut Ledger) -> usize {
    let mut bad = 0;
    for (a, m) in apps.iter().zip(models) {
        match m {
            None => ledger.fail("fit_error"),
            Some(m) => {
                ledger.ok();
                let same = serialize::to_bytes(m).as_ref() == &a.reference_bytes[..]
                    && m.trace().sweeps() == a.tracker.model().trace().sweeps();
                if !same {
                    bad += 1;
                }
            }
        }
    }
    bad
}

/// Test-set MLogQ of each model and their summed size in bytes.
pub fn quality(apps: &[App], models: &[Option<CprModel>]) -> (Vec<f64>, usize) {
    let mut mlogq = Vec::with_capacity(apps.len());
    let mut bytes = 0;
    for (a, m) in apps.iter().zip(models) {
        let m = m.as_ref().expect("checked fit");
        let pred = m.predict_batch(&a.data.test_x);
        mlogq.push(cpr_core::Metrics::compute(&pred, &a.data.test_y).mlogq);
        bytes += m.size_bytes();
    }
    (mlogq, bytes)
}

/// One scoring pass over every app's test set through `predict_into`, on
/// the default (one-thread) pool; returns wall seconds and whether every
/// output matched the reference bitwise.
pub fn predict_pass(
    apps: &[App],
    models: &[&CprModel],
    out: &mut [Vec<f64>],
    tracer: &mut Tracer,
    pass: u64,
) -> (f64, bool) {
    let start = tracer.begin("apps_predict.pass", pass);
    for ((a, m), o) in apps.iter().zip(models).zip(out.iter_mut()) {
        tracer.span("core.predict_into", pass, || {
            m.plan().predict_into(&a.data.test_x, o)
        });
    }
    let secs = tracer.end(start);
    let same = apps.iter().zip(out.iter()).all(|(a, o)| {
        o.iter()
            .zip(&a.expected_test)
            .all(|(x, y)| x.to_bits() == y.to_bits())
    });
    (secs, same)
}

/// Per-layer replay of `CprBuilder::fit` for one pass over the six apps:
/// the grid binning, the stream build, and the completion run, each
/// called directly on the same inputs, plus the plan bake. The times are
/// the spans' totals, so the figures and the written trace agree.
#[derive(Debug, Default, Clone)]
pub struct FitLayers {
    pub fit_ms: f64,
    pub bin_ms: f64,
    pub streams_ms: f64,
    pub complete_ms: f64,
    pub bake_us: f64,
    pub sweeps: usize,
    /// Σ sweeps × observed cells.
    pub cell_sweeps: usize,
    /// Replays whose factors differ from the fit's.
    pub mismatches: usize,
}

/// Replay one pass into a fresh tracer on `tracer`'s epoch, read the
/// layer times from its spans, then hand the spans to `tracer`.
pub fn probe_fit_layers(apps: &[App], tracer: &mut Tracer, pass: u64) -> FitLayers {
    let mut tr = Tracer::new(true, tracer.epoch());
    let mut l = FitLayers::default();
    for a in apps {
        let builder = &a.data.builder;
        let spec = builder.spec();
        let model = tr
            .span("core.fit", pass, || builder.fit(&a.data.train))
            .expect("app fit");

        let d = builder.space().dim();
        let cells = match &spec.cells {
            cpr_core::Cells::PerDim(c) => vec![*c; d],
            cpr_core::Cells::PerMode(v) => v.clone(),
        };
        let grid = builder.space().grid_with_cells(&cells);
        let idx: Vec<Vec<usize>> = tr.span("grid.bin", pass, || {
            a.data
                .train
                .iter()
                .map(|(x, _)| grid.cell_index(x))
                .collect()
        });

        // `CprBuilder::fit`'s per-cell log-mean tensor, recentered.
        let mut sums: BTreeMap<Vec<usize>, (f64, usize)> = BTreeMap::new();
        for (i, (_, y)) in idx.into_iter().zip(a.data.train.iter()) {
            let e = sums.entry(i).or_insert((0.0, 0));
            e.0 += y;
            e.1 += 1;
        }
        let mut obs = SparseTensor::new(&grid.dims());
        obs.extend_from(sums.into_iter().map(|(i, (s, c))| (i, (s / c as f64).ln())));
        let mean = obs.values().iter().sum::<f64>() / obs.nnz() as f64;
        obs.map_values_mut(|v| v - mean);

        drop(tr.span("tensor.streams", pass, || build_streams(&obs)));

        let mut decomp = Decomposition::Cp(CpDecomp::random(
            &grid.dims(),
            spec.rank,
            0.0,
            1.0,
            spec.seed,
        ));
        let cspec = CompletionSpec {
            lambda: spec.lambda,
            stop: spec.stop_rule(),
            seed: spec.seed,
        };
        let trace = tr.span("completion.complete", pass, || {
            complete(&mut decomp, &obs, Optimizer::Als, &cspec)
        });
        l.sweeps += trace.sweeps();
        l.cell_sweeps += trace.sweeps() * obs.nnz();
        let same = match &decomp {
            Decomposition::Cp(cp) => same_factors(cp, model.cp()),
            _ => false,
        };
        if !same || trace.sweeps() != model.trace().sweeps() {
            l.mismatches += 1;
        }

        drop(tr.span("core.bake", pass, || model.bake_plan()));
    }
    let total = |name| spans::total_s(tr.spans(), name);
    l.fit_ms = total("core.fit") * 1e3;
    l.bin_ms = total("grid.bin") * 1e3;
    l.streams_ms = total("tensor.streams") * 1e3;
    l.complete_ms = total("completion.complete") * 1e3;
    l.bake_us = total("core.bake") * 1e6;
    tracer.adopt(tr);
    l
}

fn same_factors(a: &CpDecomp, b: &CpDecomp) -> bool {
    a.factors().len() == b.factors().len()
        && a.factors().iter().zip(b.factors()).all(|(x, y)| {
            x.as_slice().len() == y.as_slice().len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// ns per query of `predict_into` on each app's test set (median of
/// `reps` spans), one entry per app.
pub fn probe_predict_ns(apps: &[App], tracer: &mut Tracer, reps: usize) -> Vec<f64> {
    apps.iter()
        .map(|a| {
            let plan = a.tracker.model().plan();
            let mut out = vec![0.0; a.data.test_x.len()];
            let times: Vec<f64> = (0..reps as u64)
                .map(|rep| {
                    let ((), secs) = tracer.timed("core.predict_into", rep, || {
                        plan.predict_into(&a.data.test_x, &mut out)
                    });
                    secs * 1e9 / out.len() as f64
                })
                .collect();
            crate::stats::median(&times)
        })
        .collect()
}
