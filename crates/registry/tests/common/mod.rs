//! Shared plumbing for the registry integration suite: fleet fixtures
//! (from `cpr_bench::fixtures`, the same population the end-to-end
//! benchmark serves) adapted to registry ids.
//!
//! Each integration test binary compiles its own copy, so not every
//! helper is used from every binary.
#![allow(dead_code)]

use cpr_bench::fixtures::FleetModel;
use cpr_registry::{ModelId, ModelRegistry};

/// The registry key of one fleet fixture entry.
pub fn id_of(f: &FleetModel) -> ModelId {
    ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone())
}

/// Register every fleet model under its naming triple.
pub fn load_fleet(registry: &ModelRegistry, fleet: &[FleetModel]) {
    for f in fleet {
        registry.insert(id_of(f), f.model.clone());
    }
}
