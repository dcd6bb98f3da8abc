//! The deadline-aware serving entry point (`serve_batch_deadline`, the
//! server's only serve path): bitwise equality with the unbounded paths,
//! shed-before-work on expired budgets, clean rejection of malformed
//! queries, and the shed-accounting identity under concurrent load: every
//! deadline-aware call lands in exactly one of {served, deadline_shed,
//! malformed, miss}, and the registry counters reconcile exactly once the
//! load drains. Single queries go through as one-query batches, as a
//! single-query wire request does.

mod common;

use common::{id_of, load_fleet};
use cpr_bench::fixtures::{fleet, fleet_queries};
use cpr_registry::{ModelId, ModelRegistry, RegistryError, DEADLINE_CHECK_CHUNK};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn generous() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// One query through the deadline path, as a one-query batch.
fn serve_one(
    registry: &ModelRegistry,
    id: &ModelId,
    x: &[f64],
    deadline: Instant,
) -> Result<f64, RegistryError> {
    registry
        .serve_batch_deadline(&[(id.clone(), x)], deadline)
        .map(|ys| ys[0])
}

#[test]
fn deadline_serving_matches_unbounded_bitwise() {
    let models = fleet(16, 11);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    // Big enough to exercise several deadline-check chunks per group.
    let queries = fleet_queries(models.len(), 3 * DEADLINE_CHECK_CHUNK, 5);
    let batch: Vec<(ModelId, Vec<f64>)> = queries
        .iter()
        .map(|(who, x)| (ids[*who].clone(), x.clone()))
        .collect();

    let unbounded = registry.serve_batch(&batch).unwrap();
    let bounded = registry.serve_batch_deadline(&batch, generous()).unwrap();
    assert_eq!(unbounded.len(), bounded.len());
    for (a, b) in unbounded.iter().zip(&bounded) {
        assert_eq!(a.to_bits(), b.to_bits(), "chunked deadline path drifted");
    }
    for (id, x) in batch.iter().take(64) {
        let direct = registry.predict(id, x).unwrap();
        let dl = serve_one(&registry, id, x, generous()).unwrap();
        assert_eq!(direct.to_bits(), dl.to_bits());
    }
}

#[test]
fn expired_deadline_sheds_before_any_work() {
    let models = fleet(4, 3);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let x = fleet_queries(models.len(), 1, 1)[0].1.clone();

    let before = registry.stats();
    let past = Instant::now();
    assert_eq!(
        serve_one(&registry, &id, &x, past),
        Err(RegistryError::DeadlineExceeded)
    );
    let batch = vec![(id.clone(), x.clone()); 8];
    assert_eq!(
        registry.serve_batch_deadline(&batch, past),
        Err(RegistryError::DeadlineExceeded)
    );
    let after = registry.stats();
    assert_eq!(after.deadline_shed, before.deadline_shed + 2);
    // Shed means shed: no query of either batch was served.
    assert_eq!(after.dense_hits, before.dense_hits);
    assert_eq!(after.gather_hits, before.gather_hits);
}

#[test]
fn malformed_queries_reject_cleanly_with_no_work() {
    let models = fleet(4, 7);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let good = fleet_queries(models.len(), 4, 2)[0].1.clone();

    let before = registry.stats();
    // Wrong dimension.
    let mut too_long = good.clone();
    too_long.push(1.0);
    assert!(matches!(
        serve_one(&registry, &id, &too_long, generous()),
        Err(RegistryError::MalformedQuery(_))
    ));
    // Non-finite coordinates.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut q = good.clone();
        q[0] = bad;
        assert!(matches!(
            serve_one(&registry, &id, &q, generous()),
            Err(RegistryError::MalformedQuery(_))
        ));
    }
    // One bad query anywhere fails the whole batch before any compute.
    let mut nan_query = good.clone();
    nan_query[0] = f64::NAN;
    let mut batch = vec![(id.clone(), good.clone()); 6];
    batch.push((id.clone(), nan_query));
    assert!(matches!(
        registry.serve_batch_deadline(&batch, generous()),
        Err(RegistryError::MalformedQuery(_))
    ));
    let after = registry.stats();
    assert_eq!(after.malformed, before.malformed + 5);
    assert_eq!(after.dense_hits, before.dense_hits);
    assert_eq!(after.gather_hits, before.gather_hits);
    assert_eq!(after.deadline_shed, before.deadline_shed);
}

#[test]
fn unknown_model_is_a_miss_not_a_shed() {
    let registry = ModelRegistry::new();
    let ghost = ModelId::new("ghost", "nowhere", "time");
    assert!(matches!(
        serve_one(&registry, &ghost, &[1.0], generous()),
        Err(RegistryError::UnknownModel(_))
    ));
    let stats = registry.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.deadline_shed, 0);
    assert_eq!(stats.malformed, 0);
}

/// Shed-accounting identity under concurrent load: four thread roles
/// hammer the deadline path (served / expired-deadline / malformed /
/// unknown-model) while a sampler takes stats snapshots. Every snapshot
/// must satisfy `served + deadline_shed + malformed + misses <= issued`
/// with monotone counters, and the drained end state reconciles exactly:
/// each call bumped exactly one bucket.
#[test]
fn concurrent_shed_accounting_reconciles_exactly() {
    const THREADS_PER_ROLE: usize = 2;
    const CALLS: u64 = 400;

    let models = fleet(8, 21);
    let registry = Arc::new(ModelRegistry::new());
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let good = fleet_queries(models.len(), 1, 9)[0].1.clone();
    let ghost = ModelId::new("ghost", "nowhere", "time");
    let mut nan_query = good.clone();
    nan_query[0] = f64::NAN;

    let issued = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(4 * THREADS_PER_ROLE + 1));
    let mut handles = Vec::new();
    for role in 0..4 {
        for _ in 0..THREADS_PER_ROLE {
            let registry = Arc::clone(&registry);
            let issued = Arc::clone(&issued);
            let start = Arc::clone(&start);
            let id = id.clone();
            let ghost = ghost.clone();
            let good = good.clone();
            let nan_query = nan_query.clone();
            handles.push(std::thread::spawn(move || {
                start.wait();
                for _ in 0..CALLS {
                    // Count the call *before* it lands so a sampler can
                    // never see a bucket ahead of the issue counter.
                    issued.fetch_add(1, Ordering::SeqCst);
                    let r = match role {
                        0 => serve_one(&registry, &id, &good, generous()),
                        1 => serve_one(&registry, &id, &good, Instant::now()),
                        2 => serve_one(&registry, &id, &nan_query, generous()),
                        _ => serve_one(&registry, &ghost, &good, generous()),
                    };
                    match (role, r) {
                        (0, Ok(_)) => {}
                        (1, Err(RegistryError::DeadlineExceeded)) => {}
                        (2, Err(RegistryError::MalformedQuery(_))) => {}
                        (3, Err(RegistryError::UnknownModel(_))) => {}
                        (role, r) => panic!("role {role} got unexpected result {r:?}"),
                    }
                }
            }));
        }
    }
    let sampler = {
        let registry = Arc::clone(&registry);
        let issued = Arc::clone(&issued);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let total = 4 * THREADS_PER_ROLE as u64 * CALLS;
            let mut last_sum = 0u64;
            while issued.load(Ordering::SeqCst) < total {
                let s = registry.stats();
                let sum = s.dense_hits + s.gather_hits + s.deadline_shed + s.malformed + s.misses;
                assert!(sum >= last_sum, "shed accounting went backwards");
                assert!(
                    sum <= issued.load(Ordering::SeqCst),
                    "buckets ran ahead of issued calls: {sum}"
                );
                last_sum = sum;
                std::thread::yield_now();
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    sampler.join().unwrap();

    let per_role = THREADS_PER_ROLE as u64 * CALLS;
    let s = registry.stats();
    assert_eq!(s.dense_hits + s.gather_hits, per_role, "served bucket");
    assert_eq!(s.deadline_shed, per_role, "deadline bucket");
    assert_eq!(s.malformed, per_role, "malformed bucket");
    assert_eq!(s.misses, per_role, "miss bucket");
}
