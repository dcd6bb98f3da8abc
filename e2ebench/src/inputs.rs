//! Seeded inputs. Everything a run feeds the program is derived from the
//! `--seed` argument through [`derive`]; the program itself only ever sees
//! the generated datasets, query streams and request bytes.

use cpr_apps::{all_benchmarks, Benchmark};
use cpr_core::{CprBuilder, Dataset, FitSpec};

/// Training samples per app for the paper's fit (`apps_fit`).
pub const TRAIN_PER_APP: usize = 4096;
/// Samples in one telemetry batch submitted to the refit pipeline.
pub const REFIT_BATCH: usize = 64;
/// Refit rounds per run, split into equal episodes (one per measurement
/// cycle), each on a fresh pipeline and store from the set-up trainers.
/// Fixed counts, so the served models after the last round (and
/// `refit_mlogq`) repeat exactly for a seed.
pub const REFIT_ROUNDS: usize = 120;
/// Breaker trips after which an episode stops submitting rounds. Trips
/// follow from gate outcomes alone: the job after a trip always runs as
/// the half-open probe, whether or not it arrives before the cooldown
/// ends. So where an episode stops, and `refit_mlogq`, is a function of
/// the seed. (Deferrals are not: whether a job arrives inside the
/// cooldown depends on timing.) Each trip makes at most one job wait out
/// its cooldown (0.1 s, doubling per trip), and the third ends the
/// episode, so an episode waits at most 0.1 + 0.2 = 0.3 s. A model whose
/// gate keeps rejecting thus ends one episode early instead of stalling
/// the run.
pub const MAX_TRIPS: usize = 3;

/// SplitMix64 finalizer over `seed ⊕ tag`: independent, reproducible
/// streams for every input of a run.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input streams, one tag per purpose.
pub mod tag {
    pub const TRAIN: u64 = 1;
    pub const TEST: u64 = 2;
    pub const REFIT: u64 = 3;
    pub const FLEET: u64 = 4;
    pub const WIRE: u64 = 5;
    pub const READS: u64 = 6;
}

/// One of the paper's six application benchmarks with its generated data.
pub struct AppData {
    pub name: &'static str,
    pub builder: CprBuilder,
    pub train: Dataset,
    pub test_x: Vec<Vec<f64>>,
    pub test_y: Vec<f64>,
    /// `REFIT_ROUNDS` telemetry batches, one per round.
    pub batches: Vec<Dataset>,
}

/// The six apps (MM, QR, BC, FMM, AMG, KRIPKE; d = 3, 2, 3, 6, 8, 9), each
/// with a training set, the paper's test-set size, and refit telemetry.
pub fn apps(seed: u64) -> Vec<AppData> {
    all_benchmarks()
        .into_iter()
        .enumerate()
        .map(|(i, b)| app(b.as_ref(), i as u64, seed))
        .collect()
}

fn app(b: &dyn Benchmark, i: u64, seed: u64) -> AppData {
    let per_app = |t: u64| derive(seed, (t << 8) | i);
    let train = b.sample_dataset(TRAIN_PER_APP, per_app(tag::TRAIN));
    let test = b.sample_dataset(b.paper_test_set_size(), per_app(tag::TEST));
    // Telemetry: fresh measurements drawn like the training set, one
    // independent stream per round.
    let batches = (0..REFIT_ROUNDS as u64)
        .map(|r| b.sample_dataset(REFIT_BATCH, derive(per_app(tag::REFIT), r)))
        .collect();
    AppData {
        name: b.name(),
        builder: CprBuilder::new(b.space()).with_spec(FitSpec::default()),
        train,
        test_x: test.xs(),
        test_y: test.ys(),
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }
}
