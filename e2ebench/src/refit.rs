//! `refit_churn`: telemetry submitted in rounds — one batch per tracked
//! app model — to a one-worker `RefitPipeline` over a real-directory
//! `FleetStore`, while one reader thread serves the same models in-process.
//! A round ends when every batch is swapped or gate-rejected, and durable.
//! Rounds that had to wait on a breaker-deferred job are counted and their
//! wall time reported as stall, apart from the round latency. The rounds of
//! a run are split into episodes, each on a fresh pipeline and store, so a
//! model whose gate keeps rejecting ends one episode, not the run.

use crate::env::{App, RefitEnv};
use crate::inputs::{MAX_TRIPS, REFIT_ROUNDS};
use crate::ledger::Ledger;
use crate::spans::{self, Tracer};
use crate::wire::hist_read;
use cpr_core::{holdout_metrics, serialize, Dataset, Metrics};
use cpr_obs::EventKind;
use cpr_registry::{ModelId, ModelRegistry, PipelineConfig, PipelineStats, SwapOutcome};
use cpr_store::{FleetStore, FRAME_OVERHEAD};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the round loop polls the pipeline for idleness.
const POLL: Duration = Duration::from_micros(200);
/// Every `READ_SAMPLE`-th read is timed, up to `READ_SAMPLES_MAX` samples
/// (a stalled run reads for a long time; the sample stays bounded).
pub const READ_SAMPLE: u64 = 16;
const READ_SAMPLES_MAX: usize = 1 << 19;

#[derive(Default)]
pub struct RefitRun {
    /// Latency of rounds that never waited on a deferred job, ms.
    pub round_ms: Vec<f64>,
    /// Per clean round: its latency minus the in-program refit and persist
    /// time recorded during it, ms.
    pub other_ms: Vec<f64>,
    pub rounds: usize,
    pub stalled: usize,
    pub stall_s: f64,
    /// Timed reads of this chunk, µs.
    pub read_us: Vec<f64>,
    pub reads: Ledger,
    pub submit_failures: Ledger,
}

impl RefitRun {
    /// Fold a later chunk in (its reads stay separate: see `rounds`).
    pub fn absorb(&mut self, c: RefitRun) {
        self.round_ms.extend(c.round_ms);
        self.other_ms.extend(c.other_ms);
        self.rounds += c.rounds;
        self.stalled += c.stalled;
        self.stall_s += c.stall_s;
        self.reads.merge(&c.reads);
        self.submit_failures.merge(&c.submit_failures);
    }
}

/// Submit rounds `range` (stopping at `cap`, a deadline, or at the
/// episode's breaker-trip budget) while a reader thread serves the six app
/// models through `ModelRegistry::predict`, cycling through `reads`.
/// Also returns whether `cap` cut the rounds short, which the caller
/// treats as a failed run: the pipeline stopped making progress.
pub fn rounds(
    env: &RefitEnv,
    apps: &[App],
    reads: &[(usize, Vec<f64>)],
    range: std::ops::Range<usize>,
    cap: Instant,
    tracer: &mut Tracer,
) -> (RefitRun, bool) {
    let pipeline = env.pipeline.as_ref().expect("pipeline running");
    let obs = env.registry.obs();
    let ids: Vec<ModelId> = apps.iter().map(|a| a.id.clone()).collect();
    let stop = AtomicBool::new(false);
    // Reads are sampled only while a round is refitting and not stalled:
    // during a breaker stall the worker idles and reads run uncontended.
    let active = AtomicBool::new(false);
    let mut run = RefitRun::default();
    let mut capped = false;
    let (read_us, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(&env.registry, &ids, reads, &stop, &active));
        for r in range {
            let round = r as u64;
            let deferred0 = pipeline.stats().deferred;
            let refit0 = hist_read(obs, "cpr_pipeline_refit_us");
            let persist0 = hist_read(obs, "cpr_store_persist_us");
            let start = tracer.begin("refit.round", round);
            active.store(true, Ordering::Release);
            for a in apps {
                let res = tracer.span("pipeline.submit", round, || {
                    pipeline.submit(&a.id, &a.data.batches[r])
                });
                match res {
                    Ok(_) => run.submit_failures.ok(),
                    Err(_) => run.submit_failures.fail("submit_refused"),
                }
            }
            let wait = tracer.begin("refit.wait", round);
            let mut stalled = false;
            loop {
                let s = pipeline.stats();
                if s.queued == 0 && s.in_flight == 0 {
                    break;
                }
                if !stalled && s.deferred > deferred0 {
                    stalled = true;
                    active.store(false, Ordering::Release);
                }
                if Instant::now() >= cap {
                    capped = true;
                    break;
                }
                std::thread::sleep(POLL);
            }
            active.store(false, Ordering::Release);
            tracer.end(wait);
            let secs = tracer.end(start);
            run.rounds += 1;
            if stalled || pipeline.stats().deferred > deferred0 || capped {
                run.stalled += 1;
                run.stall_s += secs;
            } else {
                let refit = hist_read(obs, "cpr_pipeline_refit_us").1 - refit0.1;
                let persist = hist_read(obs, "cpr_store_persist_us").1 - persist0.1;
                run.round_ms.push(secs * 1e3);
                run.other_ms
                    .push(secs * 1e3 - (refit + persist) as f64 / 1e3);
            }
            if capped || breaker_trips(&env.registry) >= MAX_TRIPS {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    run.read_us = read_us;
    run.reads = reads;
    (run, capped)
}

fn read_loop(
    registry: &ModelRegistry,
    ids: &[ModelId],
    reads: &[(usize, Vec<f64>)],
    stop: &AtomicBool,
    active: &AtomicBool,
) -> (Vec<f64>, Ledger) {
    let mut lat = Vec::with_capacity(READ_SAMPLES_MAX);
    let mut ledger = Ledger::default();
    let mut k = 0u64;
    let mut ok = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let (i, x) = &reads[k as usize % reads.len()];
        let sample = k.is_multiple_of(READ_SAMPLE)
            && lat.len() < READ_SAMPLES_MAX
            && active.load(Ordering::Relaxed);
        let res = if sample {
            let t = Instant::now();
            let res = registry.predict(&ids[*i], x);
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            res
        } else {
            registry.predict(&ids[*i], x)
        };
        match res {
            Ok(y) if y.is_finite() => ok += 1,
            Ok(_) => ledger.fail("non_finite"),
            Err(_) => ledger.fail("read_error"),
        }
        k += 1;
    }
    ledger.ok_n(ok);
    (lat, ledger)
}

/// How an episode's pipeline ended, read after its last round.
pub struct EpisodeEnd {
    pub stats: PipelineStats,
    /// The wall-clock cap cut the episode's rounds short.
    pub capped: bool,
    /// Restored-vs-live violations (see [`restore_mismatches`]).
    pub restore_bad: usize,
    pub trips: usize,
    /// Registry hot-swaps during the episode.
    pub swaps: u64,
}

/// Stop the episode's worker and check what it left behind.
pub fn end_episode(env: &mut RefitEnv, apps: &[App], capped: bool) -> EpisodeEnd {
    let pipeline = env.pipeline.take().expect("pipeline running");
    let swaps: Vec<u64> = apps
        .iter()
        .map(|a| pipeline.health(&a.id).map_or(0, |h| h.swaps))
        .collect();
    let stats = pipeline.stats();
    pipeline.shutdown();
    EpisodeEnd {
        stats,
        capped,
        restore_bad: restore_mismatches(env, apps, &swaps),
        trips: breaker_trips(&env.registry),
        swaps: env.registry.stats().swaps,
    }
}

/// Breaker trips recorded in the registry's event trace.
pub fn breaker_trips(registry: &ModelRegistry) -> usize {
    registry
        .obs()
        .events()
        .since(0)
        .iter()
        .filter(|e| e.kind == EventKind::BreakerTrip)
        .count()
}

/// Mean test-set MLogQ of the models the registry serves.
pub fn served_mlogq(registry: &ModelRegistry, apps: &[App]) -> f64 {
    let total: f64 = apps
        .iter()
        .map(|a| {
            let pred: Vec<f64> = a
                .data
                .test_x
                .iter()
                .map(|x| registry.predict(&a.id, x).expect("tracked model"))
                .collect();
            Metrics::compute(&pred, &a.data.test_y).mlogq
        })
        .sum();
    total / apps.len() as f64
}

/// Restore the store directory into a fresh registry (a restart) and
/// compare it with the live registry on every test configuration. A model
/// that swapped (`swaps[i] > 0`) must be durable; every durable model must
/// serve bitwise what the live one serves. Returns the number of violations.
pub fn restore_mismatches(env: &RefitEnv, apps: &[App], swaps: &[u64]) -> usize {
    let Ok(store) = FleetStore::open_dir(&env.dir) else {
        return apps.len();
    };
    let fresh = ModelRegistry::new();
    let Ok(report) = fresh.restore(&store) else {
        return apps.len();
    };
    let mut bad = report.skipped.len();
    for (a, &swapped) in apps.iter().zip(swaps) {
        if !report.restored.contains(&a.id) {
            bad += usize::from(swapped > 0);
            continue;
        }
        let same = a.data.test_x.iter().all(|x| {
            let live = env.registry.predict(&a.id, x).map(f64::to_bits);
            let back = fresh.predict(&a.id, x).map(f64::to_bits);
            matches!((live, back), (Ok(p), Ok(q)) if p == q)
        });
        bad += usize::from(!same);
    }
    bad
}

/// Per-layer replay of one refit job per app, on the set-up trainers and
/// the first rounds' batches: trainer clone, warm-started update with the
/// pipeline's sweep budget, holdout gate, wire encode and parse, the CAS
/// swap (into a scratch registry), and one WAL append (into a scratch
/// store on a real directory). Means per job, read from the spans.
#[derive(Debug, Default, Clone)]
pub struct RefitLayers {
    pub clone_ms: f64,
    pub update_ms: f64,
    pub gate_ms: f64,
    pub encode_us: f64,
    pub parse_us: f64,
    pub swap_us: f64,
    pub wal_append_us: f64,
    /// WAL frame + snapshot record + manifest bytes per swapped batch.
    pub bytes_per_refit: f64,
    /// Replays whose parsed candidate differs from the trained one.
    pub mismatches: usize,
}

pub fn probe_refit_layers(
    env: &RefitEnv,
    apps: &[App],
    scratch: &std::path::Path,
    tracer: &mut Tracer,
) -> RefitLayers {
    let cfg = PipelineConfig::default();
    let holdout_every = (1.0 / cfg.holdout_frac).round() as usize;
    let dir = scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let wal_store = FleetStore::open_dir(&dir).expect("probe store");
    let scratch_registry = ModelRegistry::new();
    let manifest = newest_manifest_bytes(&env.dir);
    let mut tr = Tracer::new(true, tracer.epoch());
    let mut l = RefitLayers::default();
    let n = apps.len() as f64;
    for (j, a) in apps.iter().enumerate() {
        let j = j as u64;
        // The holdout the gate would hold after the first rounds.
        let mut holdout = Vec::new();
        let mut train = Dataset::new();
        for (i, (x, y)) in a.data.batches[0].iter().enumerate() {
            if (i + 1) % holdout_every == 0 {
                holdout.push((x.to_vec(), y));
            } else {
                train.push(x.to_vec(), y);
            }
        }
        for b in &a.data.batches[1..REFIT_ROUNDS.min(20)] {
            for (i, (x, y)) in b.iter().enumerate() {
                if (i + 1) % holdout_every == 0 {
                    holdout.push((x.to_vec(), y));
                }
            }
        }

        let mut candidate = tr.span("core.clone", j, || a.tracker.clone());
        tr.span("core.update", j, || {
            candidate.update(&train, cfg.sweep_budget)
        })
        .expect("replayed update");

        let live = a.tracker.model().shared_plan();
        let cand = candidate.model().shared_plan();
        let pairs = || holdout.iter().map(|(x, y)| (x.as_slice(), *y));
        let (c, g) = tr.span("pipeline.gate", j, || {
            (
                holdout_metrics(|x| cand.predict(x), pairs()).expect("holdout"),
                holdout_metrics(|x| live.predict(x), pairs()).expect("holdout"),
            )
        });
        std::hint::black_box((c.mlogq, g.mlogq));

        let bytes = tr.span("core.encode", j, || {
            serialize::to_bytes(candidate.model()).as_ref().to_vec()
        });
        let parsed = tr
            .span("core.parse", j, || serialize::from_bytes(&bytes))
            .expect("candidate parses");
        if serialize::to_bytes(&parsed).as_ref() != &bytes[..] {
            l.mismatches += 1;
        }

        scratch_registry.insert(a.id.clone(), a.tracker.model().clone());
        let expected = scratch_registry.plan(&a.id).expect("inserted");
        let outcome = tr.span("registry.swap", j, || {
            scratch_registry.swap_if_current(&a.id, parsed, &expected)
        });
        if outcome != SwapOutcome::Swapped {
            l.mismatches += 1;
        }

        let rows: Vec<Vec<f64>> = a.data.batches[0]
            .iter()
            .map(|(x, y)| x.iter().copied().chain([y]).collect())
            .collect();
        let before = wal_store.wal().usage().map(|u| u.0).unwrap_or(0);
        tr.span("store.wal_append", j, || {
            wal_store.wal().append(&a.id.store_key(), 0, &rows)
        })
        .expect("probe wal append");
        let frame = wal_store.wal().usage().map(|u| u.0).unwrap_or(before) - before;
        l.bytes_per_refit += (frame + bytes.len() + FRAME_OVERHEAD + manifest) as f64 / n;
    }
    drop(wal_store);
    let _ = std::fs::remove_dir_all(&dir);
    // Means per job, from the spans.
    let mean = |name| spans::total_s(tr.spans(), name) / n;
    l.clone_ms = mean("core.clone") * 1e3;
    l.update_ms = mean("core.update") * 1e3;
    l.gate_ms = mean("pipeline.gate") * 1e3;
    l.encode_us = mean("core.encode") * 1e6;
    l.parse_us = mean("core.parse") * 1e6;
    l.swap_us = mean("registry.swap") * 1e6;
    l.wal_append_us = mean("store.wal_append") * 1e6;
    tracer.adopt(tr);
    l
}

/// Size of the newest snapshot manifest in a store directory (0 if none).
fn newest_manifest_bytes(dir: &std::path::Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut best: Option<(String, usize)> = None;
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        if name.starts_with("manifest-") {
            let len = e.metadata().map(|m| m.len() as usize).unwrap_or(0);
            if best.as_ref().is_none_or(|(b, _)| name > *b) {
                best = Some((name, len));
            }
        }
    }
    best.map_or(0, |(_, len)| len)
}
