//! LRU tiering invariants: the memory-budget rule, eviction order, and
//! bitwise-stable demotion/promotion round-trips.
//!
//! Only plans that expand Eq. 5's corners carry a dense corner-value table
//! — MLogQ² CP and Tucker, 2 of the fixture fleet's 5 slots — so the
//! tier invariants run over those entries ([`table_fleet`]). CP
//! log-least-squares plans serve separably without a table; one test pins
//! that such entries never become resident and serve the same bits at
//! every budget.

mod common;

use common::{id_of, load_fleet};
use cpr_bench::fixtures::{fleet, fleet_queries, FleetModel, FLEET_SLOTS};
use cpr_core::Loss;
use cpr_registry::{ModelId, ModelRegistry};

/// Does this fixture entry's plan expand corners (and so carry a table)?
fn expands_corners(f: &FleetModel) -> bool {
    f.model.loss() == Loss::MLogQ2 || f.model.decomposition().as_tucker().is_some()
}

/// `n` table-carrying entries (MLogQ² CP and Tucker) of a seeded fleet,
/// in fleet order. Every fixture grid is small enough to carry its table.
fn table_fleet(n: usize, seed: u64) -> Vec<FleetModel> {
    let models: Vec<FleetModel> = fleet(n * FLEET_SLOTS.len(), seed)
        .into_iter()
        .filter(expands_corners)
        .take(n)
        .collect();
    assert_eq!(models.len(), n);
    for f in &models {
        assert!(
            f.model.plan().has_dense_cache(),
            "small fixture grids all cache"
        );
    }
    models
}

/// Sum of resident dense bytes as reported per entry must both match the
/// ledger and respect the budget. Note this *serves* (touches) every
/// entry, so call it only where LRU recency no longer matters.
fn assert_ledger_consistent(registry: &ModelRegistry) {
    let stats = registry.stats();
    assert!(
        stats.dense_bytes <= stats.budget,
        "budget exceeded: {} > {}",
        stats.dense_bytes,
        stats.budget
    );
    let per_entry: usize = registry
        .ids()
        .iter()
        .filter(|id| registry.is_dense_resident(id).unwrap())
        .map(|id| registry.plan(id).unwrap().dense_cache_bytes())
        .sum();
    assert_eq!(
        per_entry, stats.dense_bytes,
        "tier ledger drifted from the per-entry truth"
    );
    let resident_count = registry
        .ids()
        .iter()
        .filter(|id| registry.is_dense_resident(id).unwrap())
        .count();
    assert_eq!(resident_count, stats.dense_resident);
    // A resident entry's served plan carries its table; a demoted entry's
    // must not.
    for id in registry.ids() {
        let resident = registry.is_dense_resident(&id).unwrap();
        assert_eq!(registry.plan(&id).unwrap().has_dense_cache(), resident);
    }
}

/// Unbounded registry: every cacheable plan stays resident.
#[test]
fn unbounded_budget_keeps_everything_resident() {
    let models = table_fleet(16, 7);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let stats = registry.stats();
    assert_eq!(stats.models, 16);
    assert_eq!(
        stats.dense_resident, 16,
        "every table fits an unbounded budget"
    );
    assert_ledger_consistent(&registry);
}

/// Zero budget: nothing is ever resident, and serving still works (the
/// factor-gather fallback), bitwise-equal to direct serving.
#[test]
fn zero_budget_serves_through_fallback() {
    let models = fleet(8, 13);
    let registry = ModelRegistry::with_budget(0);
    load_fleet(&registry, &models);
    let stats = registry.stats();
    assert_eq!(stats.dense_resident, 0);
    assert_eq!(stats.dense_bytes, 0);
    for (i, f) in models.iter().enumerate() {
        let id = id_of(f);
        assert!(!registry.promote(&id), "nothing can fit a zero budget");
        for (_, x) in fleet_queries(models.len(), 8, i as u64) {
            assert_eq!(
                registry.predict(&id, &x).unwrap().to_bits(),
                f.model.predict(&x).to_bits()
            );
        }
    }
    let stats = registry.stats();
    assert_eq!(stats.dense_hits, 0, "no dense table exists to hit");
    assert!(stats.gather_hits > 0);
    assert_ledger_consistent(&registry);
}

/// Inserting under a full budget demotes resident entries in
/// least-recently-served order: the victims are exactly a prefix of the
/// recency order, and the hottest entry survives.
#[test]
fn insertion_pressure_evicts_least_recently_used() {
    let models = table_fleet(7, 31);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    let bytes: Vec<usize> = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .collect();
    // Budget exactly fits the first six tables — the seventh must evict.
    let registry = ModelRegistry::with_budget(bytes[..6].iter().sum());
    for f in &models[..6] {
        registry.insert(id_of(f), f.model.clone());
    }
    assert_eq!(registry.stats().dense_resident, 6);

    // Serve in a known order: index 3 is now the coldest, 4 the hottest.
    let order = [3usize, 1, 5, 0, 2, 4];
    let probe = [100.0, 1.0, 1.0];
    for &i in &order {
        registry.predict(&ids[i], &probe).unwrap();
    }

    registry.insert(id_of(&models[6]), models[6].model.clone());
    let demoted: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| registry.is_dense_resident(&ids[i]) == Some(false))
        .collect();
    assert!(!demoted.is_empty(), "the seventh table needed room");
    assert_eq!(
        demoted,
        order[..demoted.len()].to_vec(),
        "victims must be exactly the least-recently-served prefix"
    );
    assert_eq!(
        registry.is_dense_resident(&ids[4]),
        Some(true),
        "the hottest entry must survive LRU pressure"
    );
    assert_eq!(
        registry.is_dense_resident(&ids[6]),
        Some(true),
        "the incoming entry must be admitted"
    );
    assert_ledger_consistent(&registry);
}

/// Demote → promote round-trips: tier flags flip, budget holds, and every
/// prediction before/between/after is bitwise identical.
#[test]
fn demotion_promotion_round_trip_is_bitwise_stable() {
    let models = table_fleet(6, 47);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let queries = fleet_queries(models.len(), 60, 3);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();

    let serve_all = |registry: &ModelRegistry| -> Vec<u64> {
        queries
            .iter()
            .map(|(who, x)| registry.predict(&ids[*who], x).unwrap().to_bits())
            .collect()
    };
    let baseline = serve_all(&registry);
    for ((who, x), bits) in queries.iter().zip(&baseline) {
        assert_eq!(
            *bits,
            models[*who].model.predict(x).to_bits(),
            "baseline serving must already match the direct plan"
        );
    }

    for _ in 0..3 {
        for id in &ids {
            assert!(registry.demote(id), "resident fixture entries must demote");
            assert_eq!(registry.is_dense_resident(id), Some(false));
        }
        assert_eq!(
            serve_all(&registry),
            baseline,
            "demoted serving moved a bit"
        );
        assert_ledger_consistent(&registry);
        for id in &ids {
            assert!(registry.promote(id), "unbounded budget must re-admit");
            assert_eq!(registry.is_dense_resident(id), Some(true));
        }
        assert_eq!(
            serve_all(&registry),
            baseline,
            "promoted serving moved a bit"
        );
        assert_ledger_consistent(&registry);
    }
}

/// Promotion under a budget that fits exactly one table at a time: each
/// promote succeeds by demoting the previous holder; the ledger never
/// exceeds the budget at any step.
#[test]
fn promotion_rotates_within_budget() {
    let models = table_fleet(5, 91);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    let biggest = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .max()
        .unwrap();
    let registry = ModelRegistry::with_budget(biggest);
    load_fleet(&registry, &models);
    assert_ledger_consistent(&registry);

    for id in &ids {
        assert!(registry.promote(id), "one table always fits");
        assert_eq!(registry.is_dense_resident(id), Some(true));
        let stats = registry.stats();
        assert!(stats.dense_resident >= 1);
        assert_ledger_consistent(&registry);
    }
    // A budget one byte under the smallest table admits nobody.
    let smallest = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .min()
        .unwrap();
    let tight = ModelRegistry::with_budget(smallest - 1);
    load_fleet(&tight, &models);
    assert_eq!(tight.stats().dense_resident, 0);
    for id in &ids {
        assert!(!tight.promote(id));
    }
    assert_ledger_consistent(&tight);
}

/// Removing entries releases their budget share; re-inserting re-admits.
#[test]
fn remove_releases_budget() {
    let models = table_fleet(4, 55);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    let bytes: Vec<usize> = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .collect();
    let registry = ModelRegistry::with_budget(bytes.iter().sum());
    load_fleet(&registry, &models);
    assert_eq!(registry.stats().dense_resident, 4);

    assert!(registry.remove(&ids[0]));
    assert!(!registry.remove(&ids[0]), "double remove is a no-op");
    let stats = registry.stats();
    assert_eq!(stats.models, 3);
    assert_eq!(stats.dense_bytes, bytes[1..].iter().sum::<usize>());
    assert_ledger_consistent(&registry);

    registry.insert(ids[0].clone(), models[0].model.clone());
    assert_eq!(registry.stats().dense_resident, 4);
    assert_ledger_consistent(&registry);
}

/// CP log-least-squares entries serve through the separable kernel and
/// carry no table: each reports 0 dense bytes, is never resident (a
/// promote has nothing to admit), and serves the same bits at every
/// budget — bitwise equal to the model's own plan.
#[test]
fn separable_entries_are_never_resident_and_serve_identically_at_every_budget() {
    let models = fleet(15, 61);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    let separable: Vec<usize> = (0..models.len())
        .filter(|&i| !expands_corners(&models[i]))
        .collect();
    assert_eq!(separable.len(), 9, "3 of the 5 fleet slots are log-LS CP");
    for &i in &separable {
        assert_eq!(models[i].model.plan().dense_cache_bytes(), 0);
    }
    let queries: Vec<(usize, Vec<f64>)> = fleet_queries(models.len(), 300, 5)
        .into_iter()
        .filter(|(who, _)| separable.contains(who))
        .collect();
    let tables: usize = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .sum();
    let mut first: Option<Vec<u64>> = None;
    for budget in [0, tables / 2, usize::MAX] {
        let registry = ModelRegistry::with_budget(budget);
        load_fleet(&registry, &models);
        for &i in &separable {
            assert_eq!(registry.is_dense_resident(&ids[i]), Some(false));
            assert!(!registry.promote(&ids[i]), "no table to promote");
            assert_eq!(registry.is_dense_resident(&ids[i]), Some(false));
        }
        let bits: Vec<u64> = queries
            .iter()
            .map(|(who, x)| registry.predict(&ids[*who], x).unwrap().to_bits())
            .collect();
        for ((who, x), b) in queries.iter().zip(&bits) {
            assert_eq!(*b, models[*who].model.predict(x).to_bits());
        }
        match &first {
            Some(prev) => assert_eq!(prev, &bits, "budget {budget} moved a bit"),
            None => first = Some(bits),
        }
        assert_ledger_consistent(&registry);
    }
}
