//! Integration suite for the background refit-and-swap pipeline: the
//! happy path (telemetry in, gated swap out, served output bitwise equal
//! to the committed trainer's model), the quality gate as a one-way door,
//! queue shedding under both policies, ingest quarantine, health
//! reporting, and continuous serving under concurrent churn.

mod common;

use cpr_core::{holdout_metrics, serialize, CprBuilder, CprModel, Dataset, StreamingCpr};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_registry::{
    ModelId, ModelRegistry, PipelineConfig, RefitPipeline, RegistryError, ShedPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 2048.0),
        ParamSpec::log("n", 32.0, 2048.0),
    ])
}

/// Power-law telemetry in the fixture family the fleet benches use.
fn telemetry(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        let nn = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, nn], 1e-4 * m.powf(1.3) * nn.powf(0.7));
    }
    data
}

fn trainer(seed: u64) -> StreamingCpr {
    let builder = CprBuilder::new(space())
        .cells_per_dim(6)
        .rank(2)
        .regularization(1e-7)
        .seed(seed);
    StreamingCpr::fit(&builder, &telemetry(80, seed)).unwrap()
}

fn probe_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
            ]
        })
        .collect()
}

fn quick_cfg() -> PipelineConfig {
    PipelineConfig {
        workers: 2,
        retry_backoff: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..PipelineConfig::default()
    }
}

#[test]
fn refit_swaps_and_serves_the_committed_model_bitwise() {
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::new(registry.clone(), quick_cfg());
    let id = ModelId::new("gemm", "stampede2", "time");
    pipeline.track(id.clone(), trainer(1));

    for seed in 10..14 {
        pipeline.submit(&id, &telemetry(120, seed)).unwrap();
    }
    pipeline.wait_idle();

    let stats = pipeline.stats();
    assert_eq!(stats.submitted, 4);
    assert!(
        stats.swapped + stats.gate_rejected == 4,
        "every job must terminally resolve as swap or gate rejection: {stats:?}"
    );
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.dropped_jobs, 0);

    // The registry serves exactly the committed trainer's model.
    let committed = pipeline.tracked_model(&id).unwrap();
    for x in probe_points(64, 77) {
        let served = registry.predict(&id, &x).unwrap();
        assert_eq!(
            served.to_bits(),
            committed.predict(&x).to_bits(),
            "served output must be bitwise the committed model's at {x:?}"
        );
    }
    // Registry-level swap accounting saw the installs.
    assert!(registry.stats().swaps >= stats.swapped);
}

#[test]
fn gate_rejection_keeps_the_original_plan_bitwise() {
    let registry = Arc::new(ModelRegistry::new());
    // gate_slack <= -1.0 demands mlogq <= negative, which no candidate
    // can satisfy: every refit is rejected.
    let cfg = PipelineConfig {
        gate_slack: -2.0,
        ..quick_cfg()
    };
    let pipeline = RefitPipeline::new(registry.clone(), cfg);
    let id = ModelId::new("spmv", "frontier", "time");
    let t = trainer(2);
    let original = t.model().clone();
    pipeline.track(id.clone(), t);

    for seed in 20..23 {
        pipeline.submit(&id, &telemetry(100, seed)).unwrap();
    }
    pipeline.wait_idle();

    let stats = pipeline.stats();
    assert_eq!(stats.swapped, 0, "impossible gate must reject everything");
    assert_eq!(stats.gate_rejected, 3);
    for x in probe_points(32, 5) {
        assert_eq!(
            registry.predict(&id, &x).unwrap().to_bits(),
            original.predict(&x).to_bits(),
            "rejected refits must leave the original plan serving"
        );
    }

    let health = pipeline.health(&id).unwrap();
    assert_eq!(health.swaps, 0);
    assert_eq!(health.gate_rejections, 3);
    assert!(
        health.holdout_reserved > 0,
        "jobs were picked up, so the holdout slice must be populated"
    );
    assert!(health.last_swap_age.is_none(), "no swap ever happened");

    // Rejection keeps the data: the committed trainer absorbed the
    // batches (statistics advance) without moving the factors.
    let committed = pipeline.tracked_model(&id).unwrap();
    for x in probe_points(8, 6) {
        assert_eq!(
            committed.predict(&x).to_bits(),
            original.predict(&x).to_bits()
        );
    }
}

/// Telemetry over the lower eighth of `m` only, so the rows of the upper
/// cells see no sample and the trained model's row masks are not all
/// true.
fn lower_m_telemetry(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let m = 32.0 * 8.0_f64.powf(rng.gen::<f64>());
        let nn = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, nn], 1e-4 * m.powf(1.3) * nn.powf(0.7));
    }
    data
}

/// The gate scores the model it installs: the candidate parsed back from
/// its wire bytes, not the trainer's in-memory model. The test rebuilds
/// the one refit outside the pipeline, scores both forms of the candidate
/// on the holdout the pipeline reserves, and sets the gate's threshold
/// between the two scores, so the verdict tells which form was scored.
#[test]
fn gate_scores_the_model_it_installs() {
    let cfg = quick_cfg();
    let trainer = {
        let builder = CprBuilder::new(space())
            .cells_per_dim(6)
            .rank(2)
            .regularization(1e-7)
            .seed(8);
        StreamingCpr::fit(&builder, &lower_m_telemetry(80, 8)).unwrap()
    };
    let batch = lower_m_telemetry(120, 80);

    // The pipeline's split: every fifth sample (holdout_frac 0.2) goes to
    // the holdout, the rest trains.
    let every = (1.0 / cfg.holdout_frac).round() as usize;
    let (mut holdout, mut train) = (Vec::new(), Dataset::new());
    for (i, (x, y)) in batch.iter().enumerate() {
        if (i + 1) % every == 0 {
            holdout.push((x.to_vec(), y));
        } else {
            train.push(x.to_vec(), y);
        }
    }
    let mut candidate = trainer.clone();
    candidate.update(&train, cfg.sweep_budget).unwrap();
    let parsed = serialize::from_bytes(&serialize::to_bytes(candidate.model())).unwrap();
    let score = |model: &CprModel| {
        holdout_metrics(|x| model.predict(x), holdout.iter().map(|(x, y)| (x, *y)))
            .unwrap()
            .mlogq
    };
    let (live, in_memory, installed) = (
        score(trainer.model()),
        score(candidate.model()),
        score(&parsed),
    );
    assert_ne!(
        in_memory, installed,
        "the candidate's two forms must score differently for the verdict to tell them apart"
    );
    // A candidate passes iff `score <= live · (1 + slack) + 1e-12`; put
    // that threshold halfway between the two scores.
    let threshold = 0.5 * (in_memory + installed);
    let gate_slack = (threshold - 1e-12) / live - 1.0;
    let passes = installed < in_memory;

    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::new(registry.clone(), PipelineConfig { gate_slack, ..cfg });
    let id = ModelId::new("gemm", "frontier", "time");
    pipeline.track(id.clone(), trainer.clone());
    pipeline.submit(&id, &batch).unwrap();
    pipeline.wait_idle();

    let stats = pipeline.stats();
    assert_eq!(
        (stats.swapped, stats.gate_rejected),
        (passes as u64, !passes as u64),
        "the verdict must follow the installed model's score {installed} \
         (in-memory {in_memory}, live {live})"
    );
    let served = if passes { &parsed } else { trainer.model() };
    for (x, _) in &holdout {
        assert_eq!(
            registry.predict(&id, x).unwrap().to_bits(),
            served.predict(x).to_bits(),
            "the served plan must be the one the gate scored at {x:?}"
        );
    }
}

#[test]
fn reject_newest_backpressures_when_the_queue_is_full() {
    let registry = Arc::new(ModelRegistry::new());
    // No workers: nothing drains, so the queue fills deterministically.
    let cfg = PipelineConfig {
        workers: 0,
        queue_capacity: 2,
        shed: ShedPolicy::RejectNewest,
        ..PipelineConfig::default()
    };
    let pipeline = RefitPipeline::new(registry, cfg);
    let id = ModelId::new("fft", "fugaku", "time");
    pipeline.track(id.clone(), trainer(3));

    assert!(pipeline.submit(&id, &telemetry(10, 1)).is_ok());
    assert!(pipeline.submit(&id, &telemetry(10, 2)).is_ok());
    let refused = pipeline.submit(&id, &telemetry(10, 3));
    assert!(
        matches!(refused, Err(RegistryError::QueueFull(ref rid)) if rid == &id),
        "third submit must be refused: {refused:?}"
    );
    let stats = pipeline.stats();
    assert_eq!(stats.queued, 2, "refused batch must not be queued");
    assert_eq!(stats.shed, 1);
}

#[test]
fn drop_oldest_sheds_queued_work_and_admits_the_newcomer() {
    let registry = Arc::new(ModelRegistry::new());
    let cfg = PipelineConfig {
        workers: 0,
        queue_capacity: 2,
        shed: ShedPolicy::DropOldest,
        ..PipelineConfig::default()
    };
    let pipeline = RefitPipeline::new(registry, cfg);
    let id = ModelId::new("stencil", "stampede2", "energy");
    pipeline.track(id.clone(), trainer(4));

    assert_eq!(pipeline.submit(&id, &telemetry(10, 1)).unwrap().shed, 0);
    assert_eq!(pipeline.submit(&id, &telemetry(10, 2)).unwrap().shed, 0);
    // Full queue: the oldest is evicted, the newcomer is admitted.
    let receipt = pipeline.submit(&id, &telemetry(10, 3)).unwrap();
    assert_eq!(receipt.shed, 1);
    let stats = pipeline.stats();
    assert_eq!(stats.queued, 2, "capacity is respected after the shed");
    assert_eq!(stats.shed, 1);
}

#[test]
fn quarantine_filters_bad_samples_and_counts_them() {
    let registry = Arc::new(ModelRegistry::new());
    let cfg = PipelineConfig {
        workers: 0,
        ..PipelineConfig::default()
    };
    let pipeline = RefitPipeline::new(registry, cfg);
    let id = ModelId::new("sort", "frontier", "time");
    pipeline.track(id.clone(), trainer(5));

    // Quarantine triggers: non-positive measurement, wrong dimension.
    // (Non-finite values cannot enter a Dataset at all — ingest
    // validation — so the pipeline's quarantine covers what remains.)
    let mut batch = Dataset::new();
    batch.push(vec![100.0, 100.0], 3.0); // good
    batch.push(vec![50.0, 80.0], 0.0); // non-positive measurement
    batch.push(vec![40.0], 2.0); // wrong dimension
    batch.push(vec![64.0, 64.0], 1.5); // good
    let receipt = pipeline.submit(&id, &batch).unwrap();
    assert_eq!(receipt.accepted, 2);
    assert_eq!(receipt.quarantined, 2);
    assert_eq!(pipeline.stats().quarantined, 2);

    // A batch that quarantines to nothing queues nothing.
    let mut all_bad = Dataset::new();
    all_bad.push(vec![10.0, 10.0], -1.0);
    let receipt = pipeline.submit(&id, &all_bad).unwrap();
    assert_eq!(receipt.accepted, 0);
    assert_eq!(receipt.quarantined, 1);
    assert_eq!(pipeline.stats().queued, 1, "only the first batch queued");
}

#[test]
fn untracked_submissions_are_refused() {
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::new(registry, quick_cfg());
    let id = ModelId::new("qbox", "fugaku", "energy");
    let err = pipeline.submit(&id, &telemetry(10, 1)).unwrap_err();
    assert!(matches!(err, RegistryError::Untracked(ref rid) if rid == &id));
    assert!(pipeline.tracked_model(&id).is_none());
    assert!(pipeline.health(&id).is_none());
    assert!(!pipeline.untrack(&id));
}

#[test]
fn untrack_leaves_the_registry_serving_the_last_good_plan() {
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::new(registry.clone(), quick_cfg());
    let id = ModelId::new("scan", "stampede2", "time");
    pipeline.track(id.clone(), trainer(6));
    pipeline.submit(&id, &telemetry(100, 30)).unwrap();
    pipeline.wait_idle();
    let committed = pipeline.tracked_model(&id).unwrap();

    assert!(pipeline.untrack(&id));
    assert!(pipeline.submit(&id, &telemetry(10, 31)).is_err());
    // Graceful degradation: the entry still serves.
    for x in probe_points(16, 8) {
        assert_eq!(
            registry.predict(&id, &x).unwrap().to_bits(),
            committed.predict(&x).to_bits()
        );
    }
}

#[test]
fn health_reports_swaps_and_staleness() {
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::new(registry.clone(), quick_cfg());
    let id = ModelId::new("kripke", "frontier", "time");
    pipeline.track(id.clone(), trainer(7));

    let fresh = pipeline.health(&id).unwrap();
    assert_eq!(fresh.swaps, 0);
    assert_eq!(fresh.queued, 0);
    assert!(fresh.last_swap_age.is_none());

    pipeline.submit(&id, &telemetry(150, 40)).unwrap();
    pipeline.wait_idle();
    let after = pipeline.health(&id).unwrap();
    assert_eq!(after.swaps + after.gate_rejections, 1);
    if after.swaps == 1 {
        assert!(after.last_swap_age.is_some());
    }
    // Registry-level staleness: something is installed, so the fleet has
    // an oldest model age.
    assert!(registry.stats().oldest_model_age.is_some());
}

/// The serving contract under churn: reader threads hammer the registry
/// while refits swap plans underneath them; every read must succeed with
/// a finite value, and the final state must be bitwise the committed
/// trainer's model.
#[test]
fn serving_is_continuous_under_concurrent_refit_churn() {
    let registry = Arc::new(ModelRegistry::new());
    let cfg = PipelineConfig {
        queue_capacity: 64,
        ..quick_cfg()
    };
    let pipeline = RefitPipeline::new(registry.clone(), cfg);
    let ids: Vec<ModelId> = (0..4)
        .map(|i| ModelId::new(format!("app{i}"), "m", "time"))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        pipeline.track(id.clone(), trainer(100 + i as u64));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let registry = registry.clone();
            let ids = ids.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let points = probe_points(32, 200 + r);
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (k, x) in points.iter().enumerate() {
                        let id = &ids[(r as usize + k) % ids.len()];
                        let y = registry
                            .predict(id, x)
                            .expect("serving must never be interrupted");
                        assert!(y.is_finite(), "served value must be finite");
                        reads += 1;
                    }
                }
                reads
            })
        })
        .collect();

    for round in 0..6 {
        for (i, id) in ids.iter().enumerate() {
            let _ = pipeline.submit(id, &telemetry(80, 300 + round * 10 + i as u64));
        }
    }
    pipeline.wait_idle();
    stop.store(true, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_reads > 0);

    let stats = pipeline.stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        stats.swapped + stats.gate_rejected + stats.shed + stats.dropped_jobs,
        stats.submitted,
        "every submission must terminally resolve: {stats:?}"
    );
    for id in &ids {
        let committed = pipeline.tracked_model(id).unwrap();
        for x in probe_points(16, 9) {
            assert_eq!(
                registry.predict(id, &x).unwrap().to_bits(),
                committed.predict(&x).to_bits(),
                "after churn the registry serves the committed model for {id}"
            );
        }
    }
}

/// Dropping the pipeline mid-flight must not wedge or poison the
/// registry: whatever was last installed keeps serving.
#[test]
fn drop_mid_flight_leaves_the_registry_serving() {
    let registry = Arc::new(ModelRegistry::new());
    let id = ModelId::new("gemm", "fugaku", "energy");
    {
        let pipeline = RefitPipeline::new(registry.clone(), quick_cfg());
        pipeline.track(id.clone(), trainer(8));
        for seed in 50..58 {
            let _ = pipeline.submit(&id, &telemetry(60, seed));
        }
        // Dropped with work possibly queued/in flight.
    }
    for x in probe_points(16, 10) {
        assert!(registry.predict(&id, &x).unwrap().is_finite());
    }
}
