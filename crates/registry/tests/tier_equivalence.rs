//! The serving contract, pinned by proptests: registry-served predictions
//! are **bitwise equal** to serving the same query through the model's own
//! `PredictPlan` directly — whatever the LRU tier state (any budget, any
//! demote/promote history) and whatever hot-swaps run concurrently.
//!
//! Why this can hold at all: every serving path of a plan — the dense
//! corner-value table, the per-corner factor gather a demoted plan falls
//! back to, and the separable kernel of CP log-least-squares plans — is
//! bitwise-pinned to the naive reference (`cpr_core`'s plan-equivalence
//! suite), so dropping or rebaking a dense table can never move a bit; a
//! hot-swap installs a rebake of the same model. Only MLogQ² CP and Tucker
//! plans carry a table, so in the mixed fixture fleet 2 of every 5 entries
//! take part in tier churn, while the separable entries must serve the
//! same bits whatever the churn around them. These tests close the loop
//! at the registry layer, where the tier machinery actually flips between
//! those paths under load.

mod common;

use common::{id_of, load_fleet};
use cpr_bench::fixtures::{fleet, fleet_queries};
use cpr_registry::{ModelId, ModelRegistry};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-threaded core contract: any budget, any interleaving of
    /// demote/promote/rebake, single and batched serving — all bitwise
    /// equal to direct plan serving, with the budget never exceeded.
    #[test]
    fn registry_matches_direct_serving_under_any_tier_state(
        fleet_seed in 0u64..500,
        n_models in 3usize..10,
        budget_kib in 0usize..12,
        ops in proptest::collection::vec((0u8..4, 0usize..10), 0..24),
        query_seed in 0u64..500,
    ) {
        let models = fleet(n_models, fleet_seed);
        let registry = ModelRegistry::with_budget(budget_kib * 1024);
        load_fleet(&registry, &models);
        let ids: Vec<ModelId> = models.iter().map(id_of).collect();

        // Random tier churn; budget invariant checked after every op.
        for (op, who) in ops {
            let id = &ids[who % ids.len()];
            match op {
                0 => { registry.demote(id); }
                1 => { registry.promote(id); }
                2 => { registry.rebake(id); }
                _ => { registry.insert(id.clone(), models[who % ids.len()].model.clone()); }
            }
            let stats = registry.stats();
            prop_assert!(
                stats.dense_bytes <= stats.budget,
                "budget exceeded: {} > {}", stats.dense_bytes, stats.budget
            );
        }

        // Serve a mixed stream both ways and compare against the models.
        let queries = fleet_queries(models.len(), 64, query_seed);
        let batch: Vec<(ModelId, Vec<f64>)> = queries
            .iter()
            .map(|(who, x)| (ids[*who].clone(), x.clone()))
            .collect();
        let batched = registry.serve_batch(&batch).unwrap();
        for ((who, x), served) in queries.iter().zip(&batched) {
            let want = models[*who].model.predict(x).to_bits();
            prop_assert_eq!(
                registry.predict(&ids[*who], x).unwrap().to_bits(), want,
                "single-query serving drifted from the direct plan"
            );
            prop_assert_eq!(
                served.to_bits(), want,
                "batched serving drifted from the direct plan"
            );
        }
    }

    /// Multi-threaded contract: reader threads compare every served bit
    /// against direct plan serving while another thread churns the tier
    /// state (demotions, promotions, rebake hot-swaps) the whole time.
    #[test]
    fn registry_matches_direct_serving_under_concurrent_churn(
        fleet_seed in 0u64..200,
        budget_kib in 0usize..8,
        query_seed in 0u64..200,
    ) {
        let models = fleet(6, fleet_seed);
        let registry = ModelRegistry::with_budget(budget_kib * 1024);
        load_fleet(&registry, &models);
        let ids: Vec<ModelId> = models.iter().map(id_of).collect();
        let queries = fleet_queries(models.len(), 128, query_seed);
        let expected: Vec<u64> = queries
            .iter()
            .map(|(who, x)| models[*who].model.predict(x).to_bits())
            .collect();
        let batch: Vec<(ModelId, Vec<f64>)> = queries
            .iter()
            .map(|(who, x)| (ids[*who].clone(), x.clone()))
            .collect();

        let stop = AtomicBool::new(false);
        let failed = AtomicBool::new(false);
        // Readers check both serving surfaces, every bit. Defined outside
        // the scope so spawned threads can borrow it for the whole scope.
        let reader = |use_batch: bool| {
            for _ in 0..6 {
                if use_batch {
                    let out = registry.serve_batch(&batch).unwrap();
                    for (y, want) in out.iter().zip(&expected) {
                        if y.to_bits() != *want {
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                } else {
                    for ((who, x), want) in queries.iter().zip(&expected) {
                        let y = registry.predict(&ids[*who], x).unwrap();
                        if y.to_bits() != *want {
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        };
        std::thread::scope(|s| {
            // Churner: every tier transition the registry offers.
            s.spawn(|| {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let id = &ids[k % ids.len()];
                    match k % 3 {
                        0 => { registry.demote(id); }
                        1 => { registry.promote(id); }
                        _ => { registry.rebake(id); }
                    }
                    k += 1;
                    std::thread::yield_now();
                }
            });
            let a = s.spawn(|| reader(true));
            let b = s.spawn(|| reader(false));
            a.join().unwrap();
            b.join().unwrap();
            stop.store(true, Ordering::Relaxed);
        });
        prop_assert!(!failed.load(Ordering::Relaxed),
            "a served bit drifted from direct plan serving under churn");
        let stats = registry.stats();
        prop_assert!(stats.dense_bytes <= stats.budget);
    }
}
