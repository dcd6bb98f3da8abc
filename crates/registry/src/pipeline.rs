//! Background refit-and-swap: the self-healing loop that keeps a served
//! fleet current under continuous telemetry.
//!
//! The paper's deployment story is a performance model fed by production
//! measurements; this module is the part that survives production.
//! Telemetry batches are [`RefitPipeline::submit`]ted per model into a
//! bounded queue (explicit shed policy, NaN/Inf quarantine), refit on a
//! small worker pool through the existing [`StreamingCpr`] warm-start
//! path, and **quality-gated** before serving: a candidate must match the
//! live plan's residuals on a reserved holdout slice, or it is discarded
//! and the last-good plan keeps serving. Every failure mode is contained:
//!
//! * **Panic** in a fit — caught (`catch_unwind`); the candidate clone is
//!   discarded, the committed trainer is untouched.
//! * **Deadline** blow-through — the candidate is discarded after the
//!   fact (the sweep budget bounds the work; the deadline bounds what a
//!   pathological batch can cost before being declared failed).
//! * **Corrupt candidate bytes** — candidates are installed through the
//!   same wire parse as a cold load; a parse failure rejects the install.
//! * **Regression** — the holdout gate refuses candidates whose MLogQ
//!   worsens beyond the configured slack.
//! * **Repeated failure** — deterministic exponential-backoff retries up
//!   to a budget, and a per-model circuit breaker (closed → open →
//!   half-open, [`crate::CircuitBreaker`]) that stops burning workers on
//!   a model that keeps failing.
//!
//! Through all of it the registry never stops serving: readers see the
//! last successfully gated plan, bitwise-stable, until the instant an
//! atomic [`ModelRegistry::swap_if_current`] publishes a better one. A
//! [`FaultInjector`] threads through every failure point so each of these
//! claims is deterministically testable (`tests/fault_injection.rs`).
//!
//! Data is not lost on rejection: a gate-rejected batch is absorbed into
//! the committed trainer's statistics ([`StreamingCpr::absorb`] — no
//! sweeps, factors untouched) so the next refit trains on it. Batches
//! dropped by shedding or retry exhaustion *are* lost, and counted.

use crate::error::RegistryError;
use crate::fault::FaultInjector;
use crate::health::{BreakerConfig, BreakerState, CircuitBreaker, ModelHealth};
use crate::id::ModelId;
use crate::registry::{ModelRegistry, SwapOutcome};
use cpr_core::{holdout_metrics, serialize, CprModel, Dataset, PredictPlan, StreamingCpr};
use cpr_obs::{Counter, EventKind, Gauge, Histogram, MetricsRegistry};
use cpr_store::FleetStore;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens to a newly submitted batch when a model's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the new batch with [`RegistryError::QueueFull`] —
    /// backpressure to the producer, queued telemetry wins.
    RejectNewest,
    /// Evict the oldest queued batch for that model to admit the new one —
    /// freshest telemetry wins, the eviction is counted in
    /// [`PipelineStats::shed`].
    DropOldest,
}

/// Tuning for a [`RefitPipeline`]. The defaults are sized for "a few
/// dozen models, telemetry every few seconds"; every knob exists because
/// a test or an operator needs to turn it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Refit worker threads. `0` is legal (nothing drains — useful for
    /// tests that inspect the queue, useless in production).
    pub workers: usize,
    /// Max queued batches per model before the shed policy engages.
    /// Retries re-enter the queue outside this bound (they were already
    /// admitted once).
    pub queue_capacity: usize,
    /// What to do with a batch that finds the queue full.
    pub shed: ShedPolicy,
    /// ALS sweeps per refit job — the work budget.
    pub sweep_budget: usize,
    /// Wall-clock budget per fit; a slower fit is declared failed.
    pub deadline: Duration,
    /// Fraction of each batch reserved for the holdout gate (never
    /// trained on). `0.0` disables reservation — refits then swap
    /// ungated.
    pub holdout_frac: f64,
    /// Max holdout samples retained per model (oldest evicted first).
    pub holdout_cap: usize,
    /// Gate tolerance: a candidate passes iff its holdout MLogQ is at
    /// most `(1 + gate_slack) ×` the live plan's. Negative slack demands
    /// strict improvement (and `<= -1.0` rejects everything — a test
    /// lever).
    pub gate_slack: f64,
    /// Retries after a failed attempt (panic, timeout, corrupt install,
    /// lost swap race). Gate rejections are terminal — refitting the same
    /// data would lose the same gate.
    pub max_retries: u32,
    /// Backoff before retry `n` (0-based) is `retry_backoff · 2ⁿ`…
    pub retry_backoff: Duration,
    /// …capped here.
    pub retry_backoff_max: Duration,
    /// Per-model circuit breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 4,
            shed: ShedPolicy::RejectNewest,
            sweep_budget: 8,
            deadline: Duration::from_secs(5),
            holdout_frac: 0.2,
            holdout_cap: 256,
            gate_slack: 0.05,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            retry_backoff_max: Duration::from_secs(1),
            breaker: BreakerConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// Reserve every `k`-th sample for the holdout; 0 disables.
    fn holdout_every(&self) -> usize {
        if self.holdout_frac <= 0.0 {
            0
        } else {
            // frac ≥ 0.5 clamps to "every 2nd": the first sample of a
            // batch always trains, so a job can never be all-holdout.
            ((1.0 / self.holdout_frac).round() as usize).max(2)
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u64 << attempt.min(32);
        self.retry_backoff
            .checked_mul(u32::try_from(factor).unwrap_or(u32::MAX))
            .unwrap_or(self.retry_backoff_max)
            .min(self.retry_backoff_max)
    }
}

/// What [`RefitPipeline::submit`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// Job index assigned to this submission — the coordinate fault
    /// injection and logs refer to. Every submission consumes an index,
    /// including ones that queue nothing.
    pub job: u64,
    /// Samples accepted after quarantine.
    pub accepted: usize,
    /// Samples quarantined (non-finite parameter or measurement,
    /// non-positive measurement, wrong dimension).
    pub quarantined: usize,
    /// Queued batches evicted to admit this one (`DropOldest` only).
    pub shed: usize,
}

/// What [`RefitPipeline::replay`] did with the recovered WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid WAL batches re-submitted to tracked models.
    pub replayed: u64,
    /// Valid batches whose model is not tracked (or whose key did not
    /// decode) — left in the log, not lost.
    pub orphaned: u64,
    /// Batches refused by a full queue under `RejectNewest` — left in
    /// the log; they replay again on the next start.
    pub rejected: u64,
    /// Whether a torn/corrupt tail was discarded (and truncated away).
    pub torn: bool,
}

/// Counters over the pipeline's lifetime plus a point-in-time queue view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Batches submitted (including fully quarantined ones).
    pub submitted: u64,
    /// Samples quarantined at submission.
    pub quarantined: u64,
    /// Batches shed (evicted under `DropOldest`, refused under
    /// `RejectNewest`).
    pub shed: u64,
    /// Candidates gated and hot-swapped into the registry.
    pub swapped: u64,
    /// Swaps that went through with an empty holdout (gate vacuous).
    pub ungated_swaps: u64,
    /// Candidates the quality gate refused.
    pub gate_rejected: u64,
    /// Fit panics contained.
    pub panics: u64,
    /// Fits that blew the deadline.
    pub timeouts: u64,
    /// Fit errors surfaced as `Result::Err` (not panics).
    pub fit_errors: u64,
    /// Candidate installs refused because the wire bytes failed to parse.
    pub corrupt_installs: u64,
    /// Swaps abandoned because another install won the race.
    pub lost_races: u64,
    /// Jobs re-queued for retry with backoff.
    pub retries: u64,
    /// Jobs deferred by an open circuit breaker.
    pub deferred: u64,
    /// Jobs dropped after exhausting retries (their batch data is lost).
    pub dropped_jobs: u64,
    /// Jobs abandoned because the model vanished from the registry or the
    /// tracking table mid-flight.
    pub orphaned: u64,
    /// Batches appended to the telemetry WAL before queueing (store
    /// attached only).
    pub wal_appends: u64,
    /// WAL appends that failed; the batch was queued anyway (serving
    /// and refitting degrade gracefully, durability is what's lost).
    pub wal_append_failed: u64,
    /// Gated swaps whose model reached the durable snapshot store.
    /// With a store attached, `swapped == persisted + persist_failed`
    /// once idle.
    pub persisted: u64,
    /// Gated swaps whose snapshot persist failed — the swap still
    /// serves; its batches stay in the WAL for the next persist or a
    /// post-restart replay.
    pub persist_failed: u64,
    /// WAL batches re-submitted by [`RefitPipeline::replay`] after a
    /// restart.
    pub replayed: u64,
    /// WAL entries removed by compaction after their data reached a
    /// durable snapshot (or was terminally dropped).
    pub compacted: u64,
    /// Batches currently queued.
    pub queued: usize,
    /// Jobs currently being refit.
    pub in_flight: usize,
    /// Models currently tracked.
    pub tracked: usize,
}

struct Job {
    id: ModelId,
    index: u64,
    attempt: u32,
    /// Training samples (post-quarantine; post-holdout-split once a
    /// worker has picked the job up).
    batch: Vec<(Vec<f64>, f64)>,
    /// Whether the holdout slice was already carved out (first pickup
    /// does it; retries must not re-donate samples).
    split: bool,
    /// Logical time (since the pipeline epoch) before which no worker
    /// may run this job — retry backoff and breaker deferral.
    not_before: Duration,
    /// WAL sequence number of this batch's entry (`None` when no store
    /// is attached or the append failed). Compacted away once the batch
    /// is reflected in a durable snapshot or terminally dropped.
    wal_seq: Option<u64>,
}

struct Tracked {
    /// The committed trainer: advanced only by gated swaps (factors) and
    /// absorbed batches (statistics). Workers refit a clone.
    trainer: StreamingCpr,
    /// Reserved holdout samples, never trained on. Bounded ring.
    holdout: VecDeque<(Vec<f64>, f64)>,
    breaker: CircuitBreaker,
    queued: usize,
    swaps: u64,
    gate_rejections: u64,
    last_swap: Option<Duration>,
    /// WAL sequence numbers whose data is already reflected in the
    /// committed trainer (absorbed or swapped but not yet durably
    /// persisted) or terminally abandoned — compacted at the next
    /// successful persist.
    pending_compaction: Vec<u64>,
    /// Snapshot generation this model was last durably persisted in.
    durable_gen: Option<u64>,
}

impl Tracked {
    fn new(trainer: StreamingCpr, breaker: BreakerConfig, durable_gen: Option<u64>) -> Self {
        Self {
            trainer,
            holdout: VecDeque::new(),
            breaker: CircuitBreaker::new(breaker),
            queued: 0,
            swaps: 0,
            gate_rejections: 0,
            last_swap: None,
            pending_compaction: Vec::new(),
            durable_gen,
        }
    }
}

struct PipeState {
    queue: VecDeque<Job>,
    in_flight: HashSet<ModelId>,
    tracked: HashMap<ModelId, Tracked>,
    shutdown: bool,
}

/// Pipeline lifetime counters — handles into the shared observability
/// hub ([`ModelRegistry::obs`]), exported as `cpr_pipeline_*_total`.
/// [`PipelineStats`] reads these same cells, so the stats struct and a
/// `/metrics` scrape can never disagree.
struct Counters {
    submitted: Counter,
    quarantined: Counter,
    shed: Counter,
    swapped: Counter,
    ungated_swaps: Counter,
    gate_rejected: Counter,
    panics: Counter,
    timeouts: Counter,
    fit_errors: Counter,
    corrupt_installs: Counter,
    lost_races: Counter,
    retries: Counter,
    deferred: Counter,
    dropped_jobs: Counter,
    orphaned: Counter,
    wal_appends: Counter,
    wal_append_failed: Counter,
    persisted: Counter,
    persist_failed: Counter,
    replayed: Counter,
    compacted: Counter,
}

impl Counters {
    fn new(obs: &MetricsRegistry) -> Self {
        Self {
            submitted: obs.counter("cpr_pipeline_submitted_total"),
            quarantined: obs.counter("cpr_pipeline_quarantined_total"),
            shed: obs.counter("cpr_pipeline_shed_total"),
            swapped: obs.counter("cpr_pipeline_swapped_total"),
            ungated_swaps: obs.counter("cpr_pipeline_ungated_swaps_total"),
            gate_rejected: obs.counter("cpr_pipeline_gate_rejected_total"),
            panics: obs.counter("cpr_pipeline_panics_total"),
            timeouts: obs.counter("cpr_pipeline_timeouts_total"),
            fit_errors: obs.counter("cpr_pipeline_fit_errors_total"),
            corrupt_installs: obs.counter("cpr_pipeline_corrupt_installs_total"),
            lost_races: obs.counter("cpr_pipeline_lost_races_total"),
            retries: obs.counter("cpr_pipeline_retries_total"),
            deferred: obs.counter("cpr_pipeline_deferred_total"),
            dropped_jobs: obs.counter("cpr_pipeline_dropped_jobs_total"),
            orphaned: obs.counter("cpr_pipeline_orphaned_total"),
            wal_appends: obs.counter("cpr_pipeline_wal_appends_total"),
            wal_append_failed: obs.counter("cpr_pipeline_wal_append_failed_total"),
            persisted: obs.counter("cpr_pipeline_persisted_total"),
            persist_failed: obs.counter("cpr_pipeline_persist_failed_total"),
            replayed: obs.counter("cpr_pipeline_replayed_total"),
            compacted: obs.counter("cpr_pipeline_compacted_total"),
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: PipelineConfig,
    faults: FaultInjector,
    /// Durability: snapshot store + telemetry WAL. `None` runs the
    /// pipeline memory-only (the pre-durability behavior, bit for bit).
    store: Option<Arc<FleetStore>>,
    /// Zero point of the pipeline's logical clock (breaker schedule,
    /// retry deadlines, staleness).
    epoch: Instant,
    state: Mutex<PipeState>,
    /// Signaled when work arrives or shutdown begins.
    work: Condvar,
    /// Signaled when a job reaches a terminal state (for `wait_idle`).
    done: Condvar,
    next_job: AtomicU64,
    counters: Counters,
    /// Wall-clock refit duration (the fit itself, gated or not).
    refit_us: Histogram,
    /// Point-in-time levels, republished whenever they change under the
    /// state lock.
    queue_depth: Gauge,
    in_flight_gauge: Gauge,
}

impl Shared {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().expect("pipeline state poisoned")
    }

    /// Republish the queue/in-flight gauges from the locked state. Call
    /// before releasing the lock at any site that moved jobs.
    fn publish_gauges(&self, st: &PipeState) {
        self.queue_depth.set(st.queue.len() as i64);
        self.in_flight_gauge.set(st.in_flight.len() as i64);
    }

    /// Record a breaker failure, tracing the closed→open transition.
    fn breaker_failure(&self, t: &mut Tracked, id: &ModelId, now: Duration) {
        let before = t.breaker.state();
        t.breaker.record_failure(now);
        if before != BreakerState::Open && t.breaker.state() == BreakerState::Open {
            self.registry
                .obs()
                .events()
                .record(EventKind::BreakerTrip, id.to_string());
        }
    }

    /// Record a breaker success, tracing the reopen→closed transition.
    fn breaker_success(&self, t: &mut Tracked, id: &ModelId) {
        let before = t.breaker.state();
        t.breaker.record_success();
        if before != BreakerState::Closed && t.breaker.state() == BreakerState::Closed {
            self.registry
                .obs()
                .events()
                .record(EventKind::BreakerClose, id.to_string());
        }
    }
}

/// How one refit attempt ended (before terminal bookkeeping).
enum Attempt {
    /// Candidate fit, gated, swapped. Carries the new committed trainer,
    /// whether the gate was vacuous (empty holdout), and the swapped
    /// model's clean wire bytes (what a post-swap persist writes —
    /// exactly what the registry now serves).
    Swapped {
        trainer: Box<StreamingCpr>,
        ungated: bool,
        bytes: Vec<u8>,
    },
    /// Candidate lost the holdout gate — terminal, data absorbed.
    GateRejected,
    /// Retryable failures.
    Panicked,
    TimedOut,
    FitError,
    CorruptInstall,
    LostRace,
    /// The model vanished (registry entry or tracking table) — job
    /// abandoned.
    Orphaned,
}

/// The background refit-and-swap subsystem over a shared
/// [`ModelRegistry`]. See the module docs for the failure-containment
/// contract. Dropping the pipeline stops the workers (queued jobs are
/// abandoned); the registry keeps serving whatever was last installed.
pub struct RefitPipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl RefitPipeline {
    /// Start `cfg.workers` refit workers over `registry`.
    pub fn new(registry: Arc<ModelRegistry>, cfg: PipelineConfig) -> Self {
        Self::with_parts(registry, cfg, FaultInjector::none(), None)
    }

    /// Start a pipeline with a fault injector armed (tests; the injector
    /// is shared, so faults can also be armed after construction).
    pub fn with_faults(
        registry: Arc<ModelRegistry>,
        cfg: PipelineConfig,
        faults: FaultInjector,
    ) -> Self {
        Self::with_parts(registry, cfg, faults, None)
    }

    /// Start a pipeline with a durability store attached: every accepted
    /// telemetry batch is write-ahead logged before it queues, and every
    /// gated swap is persisted to the snapshot store (then its WAL
    /// entries compacted). Store failures degrade — counted, never fatal
    /// to serving or refitting.
    pub fn with_store(
        registry: Arc<ModelRegistry>,
        cfg: PipelineConfig,
        store: Arc<FleetStore>,
    ) -> Self {
        Self::with_parts(registry, cfg, FaultInjector::none(), Some(store))
    }

    fn with_parts(
        registry: Arc<ModelRegistry>,
        cfg: PipelineConfig,
        faults: FaultInjector,
        store: Option<Arc<FleetStore>>,
    ) -> Self {
        // Everything in the stack reports into the registry's hub — the
        // store included, so WAL/snapshot activity shows up on the same
        // `/metrics` page as the serving and refit counters.
        if let Some(store) = &store {
            store.attach_obs(registry.obs().clone());
        }
        let obs = registry.obs().clone();
        let shared = Arc::new(Shared {
            counters: Counters::new(&obs),
            refit_us: obs.histogram("cpr_pipeline_refit_us"),
            queue_depth: obs.gauge("cpr_pipeline_queue_depth"),
            in_flight_gauge: obs.gauge("cpr_pipeline_in_flight"),
            registry,
            cfg,
            faults,
            store,
            epoch: Instant::now(),
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                in_flight: HashSet::new(),
                tracked: HashMap::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next_job: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cpr-refit-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn refit worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The registry this pipeline installs into.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The attached durability store, if any.
    pub fn store(&self) -> Option<&Arc<FleetStore>> {
        self.shared.store.as_ref()
    }

    /// Track `id`: install the trainer's current model as the serving
    /// baseline and start accepting telemetry for it. Re-tracking an id
    /// replaces its trainer and drops its queued jobs.
    pub fn track(&self, id: ModelId, trainer: StreamingCpr) {
        self.shared
            .registry
            .insert(id.clone(), trainer.model().clone());
        let mut st = self.shared.lock();
        st.queue.retain(|j| j.id != id);
        st.tracked
            .insert(id, Tracked::new(trainer, self.shared.cfg.breaker, None));
    }

    /// Track a model recovered by [`ModelRegistry::restore`] **without**
    /// touching its registry entry: the restored durable plan keeps
    /// serving; `trainer` (typically [`StreamingCpr::resume`] on the
    /// restored model) only defines where refits warm-start. The model's
    /// durable generation is taken from the attached store's snapshot
    /// index when it holds this id.
    pub fn track_restored(&self, id: ModelId, trainer: StreamingCpr) {
        let durable_gen = self.shared.store.as_deref().and_then(|s| {
            s.snapshots()
                .keys()
                .contains(&id.store_key())
                .then(|| s.snapshots().generation())
        });
        let mut st = self.shared.lock();
        st.queue.retain(|j| j.id != id);
        st.tracked.insert(
            id,
            Tracked::new(trainer, self.shared.cfg.breaker, durable_gen),
        );
    }

    /// Stop tracking `id` and drop its queued jobs. The registry entry is
    /// left serving its last-good plan (graceful degradation, not an
    /// outage). Returns whether the id was tracked.
    pub fn untrack(&self, id: &ModelId) -> bool {
        let mut st = self.shared.lock();
        st.queue.retain(|j| &j.id != id);
        st.tracked.remove(id).is_some()
    }

    /// Submit a telemetry batch for a tracked model. Non-finite or
    /// non-positive measurements, non-finite parameters, and
    /// wrong-dimension configurations are quarantined (counted, not
    /// fatal). A full queue engages the shed policy: `RejectNewest`
    /// returns [`RegistryError::QueueFull`] (backpressure), `DropOldest`
    /// evicts the oldest queued batch for this model.
    /// When a store is attached, the accepted (post-quarantine) batch is
    /// appended to the telemetry WAL **before** it queues — durable
    /// first, scheduled second — so a crash between acceptance and the
    /// refit's persisted swap loses nothing: [`Self::replay`] re-submits
    /// it on the next start. A failed append degrades (counted in
    /// [`PipelineStats::wal_append_failed`], batch queued anyway).
    pub fn submit(&self, id: &ModelId, batch: &Dataset) -> Result<SubmitReceipt, RegistryError> {
        let samples: Vec<(Vec<f64>, f64)> = batch.iter().map(|(x, y)| (x.to_vec(), y)).collect();
        self.submit_samples(id, samples, None)
    }

    /// Shared core of [`Self::submit`] and [`Self::replay`]. A replayed
    /// batch carries its original WAL sequence in `replay_seq` and is
    /// *not* re-appended (its entry is already on the medium).
    fn submit_samples(
        &self,
        id: &ModelId,
        mut samples: Vec<(Vec<f64>, f64)>,
        replay_seq: Option<u64>,
    ) -> Result<SubmitReceipt, RegistryError> {
        let shared = &self.shared;
        let index = shared.next_job.fetch_add(1, Ordering::Relaxed);
        shared.counters.submitted.inc();
        shared.faults.take_poison(index, &mut samples);

        let mut st = shared.lock();
        let Some(tracked) = st.tracked.get(id) else {
            return Err(RegistryError::Untracked(id.clone()));
        };
        let dim = tracked.trainer.model().space().dim();
        let before = samples.len();
        samples.retain(|(x, y)| {
            x.len() == dim && x.iter().all(|v| v.is_finite()) && y.is_finite() && *y > 0.0
        });
        let quarantined = before - samples.len();
        shared.counters.quarantined.add(quarantined as u64);
        if samples.is_empty() {
            return Ok(SubmitReceipt {
                job: index,
                accepted: 0,
                quarantined,
                shed: 0,
            });
        }

        let mut shed = 0;
        if tracked.queued >= shared.cfg.queue_capacity {
            match shared.cfg.shed {
                ShedPolicy::RejectNewest => {
                    shared.counters.shed.inc();
                    shared
                        .registry
                        .obs()
                        .events()
                        .record(EventKind::Shed, format!("pipeline reject {id}"));
                    return Err(RegistryError::QueueFull(id.clone()));
                }
                ShedPolicy::DropOldest => {
                    if let Some(pos) = st.queue.iter().position(|j| &j.id == id) {
                        let evicted = st.queue.remove(pos).expect("position just found");
                        let t = st
                            .tracked
                            .get_mut(id)
                            .expect("tracked entry vanished under lock");
                        t.queued -= 1;
                        // The evicted batch is deliberately lost; its WAL
                        // entry is redundant and compacts at the next
                        // persist (until then a crash resurrects it —
                        // conservative, not wrong).
                        if let Some(seq) = evicted.wal_seq {
                            t.pending_compaction.push(seq);
                        }
                        shared.counters.shed.inc();
                        shared
                            .registry
                            .obs()
                            .events()
                            .record(EventKind::Shed, format!("pipeline evict {id}"));
                        shed = 1;
                    }
                }
            }
        }
        let accepted = samples.len();
        // Write-ahead: the batch hits the WAL before the queue (under the
        // state lock, so log order is admission order). Only then can the
        // crash story hold — everything queued is either durable in the
        // log or explicitly counted as not.
        let wal_seq = match replay_seq {
            Some(seq) => Some(seq),
            None => shared.store.as_deref().and_then(|store| {
                let rows: Vec<Vec<f64>> = samples
                    .iter()
                    .map(|(x, y)| x.iter().copied().chain(std::iter::once(*y)).collect())
                    .collect();
                match store.wal().append(&id.store_key(), index, &rows) {
                    Ok(()) => {
                        shared.counters.wal_appends.inc();
                        Some(index)
                    }
                    Err(_) => {
                        shared.counters.wal_append_failed.inc();
                        None
                    }
                }
            }),
        };
        st.queue.push_back(Job {
            id: id.clone(),
            index,
            attempt: 0,
            batch: samples,
            split: false,
            not_before: Duration::ZERO,
            wal_seq,
        });
        st.tracked
            .get_mut(id)
            .expect("tracked entry vanished under lock")
            .queued += 1;
        shared.publish_gauges(&st);
        drop(st);
        shared.work.notify_one();
        Ok(SubmitReceipt {
            job: index,
            accepted,
            quarantined,
            shed,
        })
    }

    /// Re-submit un-absorbed write-ahead telemetry after a restart: the
    /// valid prefix of the WAL (a torn tail from a mid-append crash is
    /// truncated, not an error) is fed back through the normal submit
    /// path under each entry's original sequence number. Entries for
    /// untracked models are left in the log and counted as orphaned;
    /// entries refused by a full queue also stay in the log (they will
    /// replay again next start). Replayed batches compact away like live
    /// ones once a gated swap persists.
    ///
    /// Call after [`ModelRegistry::restore`] + [`Self::track_restored`],
    /// before accepting live traffic. Requires an attached store.
    pub fn replay(&self) -> Result<ReplayReport, RegistryError> {
        let store = self
            .shared
            .store
            .clone()
            .expect("replay requires a pipeline built with_store");
        let log = store.wal().replay()?;
        if log.torn {
            // Trim the torn tail so future appends extend valid history.
            store.wal().truncate_to_valid()?;
        }
        let mut report = ReplayReport {
            replayed: 0,
            orphaned: 0,
            rejected: 0,
            torn: log.torn,
        };
        for entry in log.entries {
            let Some(id) = ModelId::from_store_key(&entry.key) else {
                report.orphaned += 1;
                continue;
            };
            let samples: Vec<(Vec<f64>, f64)> = entry
                .samples
                .iter()
                .filter(|row| !row.is_empty())
                .map(|row| (row[..row.len() - 1].to_vec(), row[row.len() - 1]))
                .collect();
            match self.submit_samples(&id, samples, Some(entry.seq)) {
                Ok(_) => {
                    self.shared.counters.replayed.inc();
                    report.replayed += 1;
                }
                Err(RegistryError::Untracked(_)) => report.orphaned += 1,
                Err(RegistryError::QueueFull(_)) => report.rejected += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Block until no job is queued, scheduled for retry, or in flight.
    /// Covers breaker cooldowns and retry backoffs: a deferred job counts
    /// as pending until it terminally resolves.
    pub fn wait_idle(&self) {
        let mut st = self.shared.lock();
        while !st.queue.is_empty() || !st.in_flight.is_empty() {
            st = self
                .shared
                .done
                .wait_timeout(st, Duration::from_millis(20))
                .expect("pipeline state poisoned")
                .0;
        }
    }

    /// Lifetime counters plus a point-in-time queue snapshot.
    pub fn stats(&self) -> PipelineStats {
        let c = &self.shared.counters;
        let st = self.shared.lock();
        PipelineStats {
            submitted: c.submitted.get(),
            quarantined: c.quarantined.get(),
            shed: c.shed.get(),
            swapped: c.swapped.get(),
            ungated_swaps: c.ungated_swaps.get(),
            gate_rejected: c.gate_rejected.get(),
            panics: c.panics.get(),
            timeouts: c.timeouts.get(),
            fit_errors: c.fit_errors.get(),
            corrupt_installs: c.corrupt_installs.get(),
            lost_races: c.lost_races.get(),
            retries: c.retries.get(),
            deferred: c.deferred.get(),
            dropped_jobs: c.dropped_jobs.get(),
            orphaned: c.orphaned.get(),
            wal_appends: c.wal_appends.get(),
            wal_append_failed: c.wal_append_failed.get(),
            persisted: c.persisted.get(),
            persist_failed: c.persist_failed.get(),
            replayed: c.replayed.get(),
            compacted: c.compacted.get(),
            queued: st.queue.len(),
            in_flight: st.in_flight.len(),
            tracked: st.tracked.len(),
        }
    }

    /// Health snapshot for one tracked model; `None` if untracked.
    pub fn health(&self, id: &ModelId) -> Option<ModelHealth> {
        let now = self.shared.now();
        let st = self.shared.lock();
        let t = st.tracked.get(id)?;
        Some(ModelHealth {
            breaker: t.breaker.state(),
            consecutive_failures: t.breaker.consecutive_failures(),
            queued: t.queued,
            holdout_reserved: t.holdout.len(),
            swaps: t.swaps,
            gate_rejections: t.gate_rejections,
            last_swap_age: t.last_swap.map(|at| now.saturating_sub(at)),
            durable_generation: t.durable_gen,
        })
    }

    /// The committed trainer's current model for `id` — what the registry
    /// serves after the last gated swap (the invariant the fault tests
    /// pin bitwise).
    pub fn tracked_model(&self, id: &ModelId) -> Option<CprModel> {
        let st = self.shared.lock();
        st.tracked.get(id).map(|t| t.trainer.model().clone())
    }

    /// Stop the workers. Queued jobs are abandoned; the registry keeps
    /// serving. (Also runs on drop.)
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RefitPipeline {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let Some(mut job) = next_job(shared) else {
            return; // shutdown
        };
        match admit(shared, &mut job) {
            Admission::Deferred => {}
            Admission::Orphaned => {
                finish_job(shared, job, Attempt::Orphaned);
            }
            Admission::Run {
                trainer,
                holdout,
                train,
            } => {
                let outcome = fit_gate_install(shared, &job, *trainer, &holdout, &train);
                // A swapped job with a store attached stays in flight
                // through its persist, which runs store IO outside the
                // state lock; `wait_idle` covers it.
                if let Some(task) = finish_job(shared, job, outcome) {
                    run_persist(shared, task);
                }
            }
        }
    }
}

/// Deferred work of a gated swap: write the swapped model to the
/// snapshot store and compact the WAL entries its data made redundant.
/// Runs on the worker thread *outside* the state lock (store IO can be a
/// real fsync).
struct PersistTask {
    id: ModelId,
    bytes: Vec<u8>,
    /// WAL sequences reflected in `bytes` (this job's batch plus every
    /// previously absorbed/abandoned batch awaiting compaction).
    seqs: Vec<u64>,
}

fn run_persist(shared: &Shared, task: PersistTask) {
    let store = shared.store.as_deref().expect("persist task without store");
    let key = task.id.store_key();
    let persisted = store.snapshots().persist(&key, &task.bytes);
    if let Ok(generation) = &persisted {
        shared.counters.persisted.inc();
        // Best-effort: a failed (or crashed) compaction leaves redundant
        // entries whose replay is idempotent — duplicate absorption
        // cannot move a sum/count mean.
        if !task.seqs.is_empty() {
            if let Ok(removed) = store.wal().compact(&key, &task.seqs) {
                shared.counters.compacted.add(removed as u64);
            }
        }
        let mut st = shared.lock();
        if let Some(t) = st.tracked.get_mut(&task.id) {
            t.durable_gen = Some(*generation);
        }
        st.in_flight.remove(&task.id);
        shared.publish_gauges(&st);
    } else {
        shared.counters.persist_failed.inc();
        let mut st = shared.lock();
        if let Some(t) = st.tracked.get_mut(&task.id) {
            // Not durable: these batches must survive in the WAL until a
            // later persist succeeds (or a restart replays them).
            t.pending_compaction.extend(task.seqs);
        }
        st.in_flight.remove(&task.id);
        shared.publish_gauges(&st);
    }
    shared.work.notify_all();
    shared.done.notify_all();
}

/// Pop the first runnable job: past its `not_before`, model not already
/// in flight (per-model serialization is what makes the half-open probe
/// singular and the trainer commit race-free). Blocks until one exists or
/// shutdown.
fn next_job(shared: &Shared) -> Option<Job> {
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return None;
        }
        let now = shared.now();
        let ready = st
            .queue
            .iter()
            .position(|j| j.not_before <= now && !st.in_flight.contains(&j.id));
        if let Some(pos) = ready {
            let job = st.queue.remove(pos).expect("position just found");
            match st.tracked.get_mut(&job.id) {
                Some(t) => {
                    t.queued -= 1;
                    st.in_flight.insert(job.id.clone());
                    shared.publish_gauges(&st);
                    return Some(job);
                }
                None => {
                    // Untracked while queued (should have been purged;
                    // belt and braces): abandon.
                    shared.counters.orphaned.inc();
                    shared.publish_gauges(&st);
                    shared.done.notify_all();
                    continue;
                }
            }
        }
        // Nothing runnable: sleep until the earliest scheduled wake-up,
        // bounded so in-flight completions and shutdowns are never missed.
        let wait = st
            .queue
            .iter()
            .map(|j| j.not_before.saturating_sub(now))
            .min()
            .filter(|d| !d.is_zero())
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        st = shared
            .work
            .wait_timeout(st, wait)
            .expect("pipeline state poisoned")
            .0;
    }
}

/// What the admission step (breaker + holdout split) decided.
enum Admission {
    /// Breaker open: the job went back on the queue, scheduled for the
    /// breaker's probe time, no attempt consumed. `in_flight` cleared.
    Deferred,
    /// The model is no longer tracked.
    Orphaned,
    /// Cleared to refit: a clone of the committed trainer, a snapshot of
    /// the holdout slice, and the training dataset.
    Run {
        trainer: Box<StreamingCpr>,
        holdout: Vec<(Vec<f64>, f64)>,
        train: Dataset,
    },
}

/// Admission for a picked-up job, under the state lock: consult the
/// circuit breaker, carve out the holdout slice (first pickup only —
/// retries must not donate twice), and snapshot what the unlocked fit
/// needs.
fn admit(shared: &Shared, job: &mut Job) -> Admission {
    let mut st = shared.lock();
    let now = shared.now();
    let Some(t) = st.tracked.get_mut(&job.id) else {
        return Admission::Orphaned;
    };
    if !t.breaker.allow(now) {
        // Re-queue at the breaker's probe time; no attempt consumed.
        shared.counters.deferred.inc();
        let requeue = Job {
            id: job.id.clone(),
            index: job.index,
            attempt: job.attempt,
            batch: std::mem::take(&mut job.batch),
            split: job.split,
            not_before: t.breaker.retry_at().unwrap_or(now),
            wal_seq: job.wal_seq,
        };
        t.queued += 1;
        st.in_flight.remove(&requeue.id);
        st.queue.push_back(requeue);
        shared.publish_gauges(&st);
        drop(st);
        shared.work.notify_all();
        shared.done.notify_all();
        return Admission::Deferred;
    }
    if !job.split {
        job.split = true;
        let k = shared.cfg.holdout_every();
        if k > 0 {
            let mut train = Vec::with_capacity(job.batch.len());
            for (i, sample) in job.batch.drain(..).enumerate() {
                // The first sample never lands here (i+1 ≥ k ≥ 2), so a
                // non-empty batch always keeps at least one train sample.
                if (i + 1) % k == 0 {
                    if t.holdout.len() >= shared.cfg.holdout_cap {
                        t.holdout.pop_front();
                    }
                    t.holdout.push_back(sample);
                } else {
                    train.push(sample);
                }
            }
            job.batch = train;
        }
    }
    Admission::Run {
        trainer: Box::new(t.trainer.clone()),
        holdout: t.holdout.iter().cloned().collect(),
        train: Dataset::from_pairs(job.batch.iter().cloned()),
    }
}

fn fit_gate_install(
    shared: &Shared,
    job: &Job,
    trainer: StreamingCpr,
    holdout: &[(Vec<f64>, f64)],
    train: &Dataset,
) -> Attempt {
    let cfg = &shared.cfg;
    // Injected timeout: the fit is treated as having hung past the
    // deadline (skipped entirely — a real hang would be abandoned).
    if shared.faults.take_timeout(job.index, job.attempt) {
        return Attempt::TimedOut;
    }
    let started = Instant::now();
    let fit = {
        let faults = shared.faults.clone();
        let (index, attempt, sweeps) = (job.index, job.attempt, cfg.sweep_budget);
        let mut candidate = trainer;
        catch_unwind(AssertUnwindSafe(move || {
            if faults.take_fit_panic(index, attempt) {
                panic!("injected refit panic (job {index} attempt {attempt})");
            }
            candidate.update(train, sweeps).map(|_| candidate)
        }))
    };
    shared.refit_us.record_duration(started.elapsed());
    let candidate = match fit {
        Err(_) => return Attempt::Panicked,
        Ok(Err(_)) => return Attempt::FitError,
        Ok(Ok(candidate)) => {
            if started.elapsed() > cfg.deadline {
                return Attempt::TimedOut;
            }
            candidate
        }
    };

    // Quality gate: candidate vs live plan on the reserved holdout.
    let Some(live) = shared.registry.plan(&job.id) else {
        return Attempt::Orphaned;
    };
    let ungated = holdout.is_empty();
    if !ungated
        && !gate_passes(
            holdout,
            &candidate.model().shared_plan(),
            &live,
            cfg.gate_slack,
        )
    {
        return Attempt::GateRejected;
    }

    // Install through the wire format — the same parse a cold load gets,
    // so a corrupt candidate is rejected, not served.
    let clean = serialize::to_bytes(candidate.model()).into_vec();
    let mut bytes = clean.clone();
    shared.faults.corrupt(job.index, job.attempt, &mut bytes);
    let loaded = match serialize::from_bytes(&bytes) {
        Ok(m) => m,
        Err(_) => return Attempt::CorruptInstall,
    };
    match shared.registry.swap_if_current(&job.id, loaded, &live) {
        SwapOutcome::Swapped => Attempt::Swapped {
            trainer: Box::new(candidate),
            ungated,
            bytes: clean,
        },
        SwapOutcome::Raced => Attempt::LostRace,
        SwapOutcome::Missing => Attempt::Orphaned,
    }
}

/// Candidate-vs-live residual comparison on the holdout slice.
fn gate_passes(
    holdout: &[(Vec<f64>, f64)],
    candidate: &PredictPlan,
    live: &PredictPlan,
    slack: f64,
) -> bool {
    let pairs = || holdout.iter().map(|(x, y)| (x.as_slice(), *y));
    let cand =
        holdout_metrics(|x| candidate.predict(x), pairs()).expect("holdout checked non-empty");
    let live = holdout_metrics(|x| live.predict(x), pairs()).expect("holdout checked non-empty");
    cand.mlogq <= live.mlogq * (1.0 + slack) + 1e-12
}

/// Terminal bookkeeping for one attempt: breaker, counters, retry
/// scheduling, trainer commit/absorb. Always signals both condvars.
/// Clears `in_flight` — except when it returns a [`PersistTask`] (gated
/// swap with a store attached): the job then stays in flight until
/// [`run_persist`] completes it.
fn finish_job(shared: &Shared, mut job: Job, outcome: Attempt) -> Option<PersistTask> {
    let now = shared.now();
    let c = &shared.counters;
    let job_id = job.id.clone();
    let mut task = None;
    let mut st = shared.lock();
    match outcome {
        Attempt::Swapped {
            trainer,
            ungated,
            bytes,
        } => {
            c.swapped.inc();
            if ungated {
                c.ungated_swaps.inc();
            }
            if let Some(t) = st.tracked.get_mut(&job.id) {
                t.trainer = *trainer;
                t.swaps += 1;
                t.last_swap = Some(now);
                shared.breaker_success(t, &job_id);
                if shared.store.is_some() {
                    // The swapped model reflects this batch and everything
                    // absorbed before it; a successful persist makes all
                    // those WAL entries redundant.
                    let mut seqs = std::mem::take(&mut t.pending_compaction);
                    seqs.extend(job.wal_seq);
                    task = Some(PersistTask {
                        id: job.id.clone(),
                        bytes,
                        seqs,
                    });
                }
            }
        }
        Attempt::GateRejected => {
            // Terminal, not retried: refitting the same data would lose
            // the same gate.
            c.gate_rejected.inc();
            shared
                .registry
                .obs()
                .events()
                .record(EventKind::GateReject, job_id.to_string());
            if let Some(t) = st.tracked.get_mut(&job.id) {
                t.gate_rejections += 1;
                shared.breaker_failure(t, &job_id, now);
                // Keep the data: statistics advance, factors don't — the
                // next (gated) refit trains on everything seen.
                let batch = Dataset::from_pairs(job.batch.drain(..));
                let _ = t.trainer.absorb(&batch);
                // Absorbed into the committed trainer: the WAL entry
                // becomes redundant at the next persisted swap.
                t.pending_compaction.extend(job.wal_seq);
            }
        }
        Attempt::Panicked | Attempt::TimedOut | Attempt::FitError | Attempt::CorruptInstall => {
            match &outcome {
                Attempt::Panicked => c.panics.inc(),
                Attempt::TimedOut => c.timeouts.inc(),
                Attempt::FitError => c.fit_errors.inc(),
                Attempt::CorruptInstall => c.corrupt_installs.inc(),
                _ => unreachable!(),
            }
            let tracked = st.tracked.contains_key(&job.id);
            if tracked {
                if let Some(t) = st.tracked.get_mut(&job.id) {
                    shared.breaker_failure(t, &job_id, now);
                }
                retry_or_drop(shared, &mut st, job, now);
            } else {
                c.orphaned.inc();
            }
        }
        Attempt::LostRace => {
            // No breaker penalty: nothing is wrong with this model, the
            // candidate just gated against a plan that moved. Retry
            // re-gates against the new live plan.
            c.lost_races.inc();
            if st.tracked.contains_key(&job.id) {
                retry_or_drop(shared, &mut st, job, now);
            } else {
                c.orphaned.inc();
            }
        }
        Attempt::Orphaned => c.orphaned.inc(),
    }
    if task.is_none() {
        st.in_flight.remove(&job_id);
    }
    shared.publish_gauges(&st);
    drop(st);
    shared.work.notify_all();
    shared.done.notify_all();
    task
}

/// Re-queue `job` with exponential backoff, or drop it once retries are
/// exhausted. Caller holds the state lock and already cleared
/// `in_flight`.
fn retry_or_drop(shared: &Shared, st: &mut PipeState, mut job: Job, now: Duration) {
    let cfg = &shared.cfg;
    if job.attempt < cfg.max_retries {
        shared.counters.retries.inc();
        job.not_before = now + cfg.backoff(job.attempt);
        job.attempt += 1;
        if let Some(t) = st.tracked.get_mut(&job.id) {
            t.queued += 1;
        }
        st.queue.push_back(job);
    } else {
        shared.counters.dropped_jobs.inc();
        // The batch data is lost by policy; its WAL entry is redundant
        // and compacts at the next persist.
        if let Some(t) = st.tracked.get_mut(&job.id) {
            t.pending_compaction.extend(job.wal_seq);
        }
    }
}
