//! Observability wiring at the registry layer: instrumentation must be
//! a pure *view* — bitwise-identical serving with timing on or off, and
//! exported `cpr_registry_*` counters that are the same cells
//! [`RegistryStats`](cpr_registry::RegistryStats) reads.

mod common;

use common::{id_of, load_fleet};
use cpr_bench::fixtures::{fleet, fleet_queries};
use cpr_obs::MetricsRegistry;
use cpr_registry::{ModelId, ModelRegistry, LATENCY_SAMPLE};
use std::sync::Arc;

#[test]
fn instrumented_serving_is_bitwise_identical_to_uninstrumented() {
    let models = fleet(10, 91);
    let queries = fleet_queries(models.len(), 200, 17);

    let plain = ModelRegistry::new();
    let hub = Arc::new(MetricsRegistry::new());
    let timed = ModelRegistry::with_obs(usize::MAX, Arc::clone(&hub));
    timed.enable_timing();
    load_fleet(&plain, &models);
    load_fleet(&timed, &models);

    for (who, x) in &queries {
        let id = id_of(&models[*who]);
        let a = plain.predict(&id, x).unwrap();
        let b = timed.predict(&id, x).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "instrumentation changed {x:?}");
    }
    // The timed registry actually measured: deterministic round-robin
    // sampling records exactly one serve latency per LATENCY_SAMPLE
    // queries (ticks 0, N, 2N, ...).
    let serve = hub
        .histogram_snapshot("cpr_registry_serve_us")
        .expect("serve histogram registered");
    assert_eq!(
        serve.count(),
        (queries.len() as u64).div_ceil(LATENCY_SAMPLE)
    );
}

#[test]
fn exported_counters_are_the_stats_cells() {
    let hub = Arc::new(MetricsRegistry::new());
    let registry = ModelRegistry::with_obs(usize::MAX, Arc::clone(&hub));
    let models = fleet(6, 52);
    load_fleet(&registry, &models);

    let queries = fleet_queries(models.len(), 120, 31);
    for (who, x) in &queries {
        registry.predict(&id_of(&models[*who]), x).unwrap();
    }
    // A miss, a malformed (non-finite) query, and a swap-by-replacement.
    let _ = registry.predict(&ModelId::new("no", "such", "model"), &[1.0]);
    let mut poisoned = queries[0].1.clone();
    poisoned[0] = f64::NAN;
    let far = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let _ = registry.serve_batch_deadline(&[(id_of(&models[queries[0].0]), poisoned)], far);
    registry.insert(id_of(&models[0]), models[1].model.clone());

    let s = registry.stats();
    let get = |name: &str| hub.counter_value(name).expect(name);
    assert_eq!(get("cpr_registry_dense_hits_total"), s.dense_hits);
    assert_eq!(get("cpr_registry_gather_hits_total"), s.gather_hits);
    assert_eq!(get("cpr_registry_misses_total"), s.misses);
    assert_eq!(get("cpr_registry_deadline_shed_total"), s.deadline_shed);
    assert_eq!(get("cpr_registry_malformed_total"), s.malformed);
    assert_eq!(get("cpr_registry_swaps_total"), s.swaps);
    assert!(s.misses >= 1 && s.malformed >= 1 && s.swaps >= 1);

    // The swap left a trace event carrying the model id.
    let events = hub.events().since(0);
    assert!(
        events
            .iter()
            .any(|e| e.kind == cpr_obs::EventKind::Swap && e.detail.contains(&models[0].app)),
        "{events:?}"
    );
}
