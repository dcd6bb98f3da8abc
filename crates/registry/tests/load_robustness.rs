//! Corrupt/truncated wire bytes must never touch the registry: loads parse
//! fully before any entry is created or replaced, and an existing entry
//! keeps serving its old model bitwise-unchanged through a failed reload.

mod common;

use common::id_of;
use cpr_bench::fixtures::{fleet, random_model};
use cpr_core::serialize;
use cpr_registry::{ModelId, ModelRegistry, RegistryError};

#[test]
fn truncated_bytes_leave_registry_untouched() {
    let models = fleet(3, 17);
    let registry = ModelRegistry::new();
    for f in &models {
        registry.insert(id_of(f), f.model.clone());
    }
    let bytes = serialize::to_bytes(&models[0].model);
    let fresh_id = ModelId::new("new", "machine", "time");

    // Every proper prefix must fail cleanly: no panic, no new entry.
    for cut in 0..bytes.len() {
        let err = registry.load(fresh_id.clone(), &bytes[..cut]);
        assert!(
            matches!(err, Err(RegistryError::Load(_))),
            "prefix of {cut} bytes must be rejected"
        );
        assert_eq!(registry.len(), 3, "failed load must not add entries");
        assert!(!registry.contains(&fresh_id));
    }
    // The full bytes load fine afterwards.
    assert!(!registry.load(fresh_id.clone(), &bytes).unwrap());
    assert_eq!(registry.len(), 4);
}

#[test]
fn corrupt_header_and_payload_rejected() {
    let (model, _, _) = random_model(0, 5, 4, 2, 23);
    let good = serialize::to_bytes(&model);
    let registry = ModelRegistry::new();
    let id = ModelId::new("gemm", "m", "time");

    // Bad magic.
    let mut bad = good.to_vec();
    bad[0] ^= 0xFF;
    assert!(registry.load(id.clone(), &bad).is_err());

    // Unknown version.
    let mut bad = good.to_vec();
    bad[4] = 0x7F;
    assert!(registry.load(id.clone(), &bad).is_err());

    // NaN injected into the factor payload (the trailing 8 bytes belong to
    // a factor entry; the reader rejects non-finite factors).
    let mut bad = good.to_vec();
    let n = bad.len();
    bad[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(registry.load(id.clone(), &bad).is_err());

    // Empty slice.
    assert!(registry.load(id.clone(), &[]).is_err());

    assert!(registry.is_empty(), "no failed load may leave residue");
    assert_eq!(registry.stats().models, 0);
}

/// A failed reload of an existing id keeps the old entry serving,
/// bitwise-unchanged, including through a plan handle held across the
/// failure.
#[test]
fn failed_reload_keeps_old_entry_serving() {
    let (model_a, _, _) = random_model(0, 6, 4, 2, 5);
    let registry = ModelRegistry::new();
    let id = ModelId::new("spmv", "frontier", "energy");
    registry.insert(id.clone(), model_a.clone());

    let probe = [77.0, 3.0, 0.0];
    let want = model_a.predict(&probe).to_bits();
    let held = registry.plan(&id).unwrap();

    let bytes = serialize::to_bytes(&model_a);
    for cut in [0, 1, 6, bytes.len() / 2, bytes.len() - 1] {
        assert!(registry.load(id.clone(), &bytes[..cut]).is_err());
        assert_eq!(registry.len(), 1);
        assert_eq!(
            registry.predict(&id, &probe).unwrap().to_bits(),
            want,
            "old entry must keep serving through a failed reload"
        );
    }
    assert_eq!(held.predict(&probe).to_bits(), want);

    // Tier ledger is untouched too: the entry still pays its share.
    let stats = registry.stats();
    assert_eq!(stats.dense_bytes, held.dense_cache_bytes());
}

/// The exact atomicity guarantee `ModelRegistry::load` documents, pinned
/// under concurrency: a reload that replaces a live entry is a single
/// pointer move. Handles held across the replacement are immortal
/// snapshots of the old plan (bitwise-stable forever), every concurrent
/// read resolves to exactly the old or the new model (never an error,
/// never a mix), and `contains` never flickers false.
#[test]
fn reload_under_concurrent_readers_is_a_clean_snapshot_swap() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (model_a, _, _) = random_model(0, 6, 4, 2, 5);
    let (model_b, _, _) = random_model(0, 6, 4, 2, 6);
    let probe = [77.0, 3.0, 0.0];
    let want_a = model_a.predict(&probe).to_bits();
    let want_b = model_b.predict(&probe).to_bits();
    assert_ne!(want_a, want_b, "fixture models must be distinguishable");
    let bytes_a = serialize::to_bytes(&model_a);
    let bytes_b = serialize::to_bytes(&model_b);

    let registry = Arc::new(ModelRegistry::new());
    let id = ModelId::new("gemm", "stampede2", "time");
    registry.insert(id.clone(), model_a.clone());
    let held = registry.plan(&id).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let registry = registry.clone();
            let id = id.clone();
            let held = held.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert!(
                        registry.contains(&id),
                        "contains must never flicker false during a reload"
                    );
                    let got = registry
                        .predict(&id, &probe)
                        .expect("reads must never fail during a reload")
                        .to_bits();
                    assert!(
                        got == want_a || got == want_b,
                        "a read must see exactly the old or the new model"
                    );
                    // The held handle is an immortal snapshot of the old
                    // plan; replacements must never mutate it.
                    assert_eq!(held.predict(&probe).to_bits(), want_a);
                }
            })
        })
        .collect();

    for round in 0..200 {
        let bytes = if round % 2 == 0 { &bytes_b } else { &bytes_a };
        let replaced = registry.load(id.clone(), bytes).unwrap();
        assert!(replaced, "every round replaces the live entry");
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }

    // After the last reload (round 199 loaded A) the entry serves A.
    assert_eq!(registry.predict(&id, &probe).unwrap().to_bits(), want_a);
    assert_eq!(held.predict(&probe).to_bits(), want_a);
    assert_eq!(registry.len(), 1, "reloads replace, never duplicate");
}

/// Loading valid v2 bytes through the registry equals loading the model
/// directly — no re-fit, bitwise-equal serving.
#[test]
fn wire_load_is_bitwise_faithful() {
    let models = fleet(10, 71);
    let registry = ModelRegistry::new();
    for f in &models {
        let bytes = serialize::to_bytes(&f.model);
        registry.load(id_of(f), &bytes).unwrap();
    }
    for f in &models {
        let id = id_of(f);
        for probe in [[9.0, -1.0, 0.0], [300.0, 4.0, 2.0], [1500.0, 8.0, 1.0]] {
            assert_eq!(
                registry.predict(&id, &probe).unwrap().to_bits(),
                f.model.predict(&probe).to_bits(),
                "wire-loaded serving drifted for {id}"
            );
        }
    }
}
