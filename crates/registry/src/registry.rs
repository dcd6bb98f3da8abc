//! The sharded concurrent model registry.
//!
//! Concurrency design (see DESIGN.md "Serving"):
//!
//! * **Shards.** A fixed array of [`SHARD_COUNT`] `RwLock<HashMap>` shards,
//!   keyed by [`ModelId`] through its stable FNV shard hash. Readers take
//!   one shard read lock just long enough to clone an `Arc` to the entry;
//!   inserts/removes take one shard write lock just long enough to move a
//!   pointer. No global lock sits on the read path.
//! * **Hot-swap.** Each entry serves through an [`ArcCell`]: replacing a
//!   plan (rebake, tier change) or a whole entry (reload from bytes)
//!   publishes a new `Arc` while in-flight readers finish on the value
//!   they loaded. Readers never see a partially-built plan — the cell
//!   moves a pointer, never plan bytes.
//! * **Tiering.** Dense corner-value tables dominate the footprint of a
//!   small-grid plan that expands corners (MLogQ² CP, Tucker; CP
//!   log-least-squares plans serve separably and carry none), so the
//!   registry budgets them globally: under memory pressure the
//!   least-recently-used resident table is dropped
//!   ([`cpr_core::PredictPlan::without_dense_cache`], the per-corner
//!   fallback — bitwise-identical output) and promotion rebakes it. All
//!   residency transitions serialize through one tier mutex (they are rare
//!   next to reads); the documented invariant is that resident dense bytes
//!   never exceed the budget.
//!
//! Lock order: tier mutex → shard lock. Readers take only a shard read
//! lock; tier transitions take the tier mutex first and shard locks under
//! it; nothing acquires the tier mutex while holding a shard lock.

use crate::batch::group_by_model;
use crate::error::RegistryError;
use crate::id::ModelId;
use crate::swap::ArcCell;
use cpr_core::{serialize, CprModel, PredictPlan};
use cpr_obs::{Counter, EventKind, Histogram, MetricsRegistry};
use cpr_store::FleetStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Number of map shards. Fixed at build time: shard selection must stay a
/// mask, and 64 shards keep write contention negligible for fleets far
/// larger than the paper's per-machine model counts.
pub const SHARD_COUNT: usize = 64;

/// How many queries a deadline-aware batch serves between deadline
/// re-checks. Small enough that an expired budget sheds within a few
/// microseconds of work, large enough that the `Instant::now()` syscall
/// is amortized to nothing on the hot path.
pub const DEADLINE_CHECK_CHUNK: usize = 512;

/// Latency-histogram sampling rate when timing is on: one in this many
/// timed operations pays the `Instant::now()` pair and records into the
/// `cpr_registry_{lookup,serve}_us` histograms. A dense-table serve runs
/// in a few hundred nanoseconds, so timing *every* query would cost more
/// than the serve itself (~20% measured by the `obs_overhead` perf
/// stage); deterministic round-robin sampling keeps full instrumentation
/// under the 5% overhead budget while the counters — which are never
/// sampled — stay exact. The histograms are distribution estimates over
/// an unbiased 1-in-N slice of the stream, not per-query ledgers.
pub const LATENCY_SAMPLE: u64 = 16;

/// One served entry: the model (kept for promotion rebakes and metadata)
/// plus the hot-swappable plan actually answering queries. The model is
/// itself behind an [`ArcCell`] so a background refit can replace it
/// *without* replacing the entry — the entry (and with it the LRU recency
/// and tier history) survives a [`ModelRegistry::swap_if_current`].
struct ServableModel {
    model: ArcCell<CprModel>,
    plan: ArcCell<PredictPlan>,
    /// Bytes of this entry's dense corner-value table while resident, 0
    /// when demoted (or never cacheable). Mutated only under the tier
    /// mutex.
    resident_bytes: AtomicUsize,
    /// LRU clock value of the last serve (or insert). Relaxed: eviction
    /// order tolerates approximate recency; predictions never depend on it.
    last_used: AtomicU64,
    /// Nanoseconds (since the registry epoch) when this entry's *model*
    /// was last installed or swapped — tier changes and rebakes of the
    /// same model do not reset it. Feeds the staleness figure in
    /// [`RegistryStats`].
    installed_ns: AtomicU64,
}

type Shard = RwLock<HashMap<ModelId, Arc<ServableModel>>>;

/// Aggregate registry counters, cheap enough to sample per bench stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registered models.
    pub models: usize,
    /// Entries whose dense corner-value table is currently resident.
    pub dense_resident: usize,
    /// Total resident dense-table bytes (≤ `budget` always).
    pub dense_bytes: usize,
    /// The registry-wide dense-table budget in bytes.
    pub budget: usize,
    /// Queries served off a resident dense table.
    pub dense_hits: u64,
    /// Queries served from the factors: the separable kernel of CP
    /// log-least-squares plans, or the per-corner fallback of a plan
    /// without a resident table.
    pub gather_hits: u64,
    /// Lookups that found no model.
    pub misses: u64,
    /// Deadline-aware serves shed because the budget expired before (or
    /// while) computing — see [`ModelRegistry::serve_batch_deadline`]. One
    /// count per shed call.
    pub deadline_shed: u64,
    /// Queries rejected at the validation boundary (wrong dimension or
    /// non-finite coordinates) before any plan ran. One count per
    /// rejected call.
    pub malformed: u64,
    /// Model hot-swaps: background-refit installs
    /// ([`ModelRegistry::swap_if_current`]) plus whole-entry replacements
    /// (an [`ModelRegistry::insert`]/[`ModelRegistry::load`] over an
    /// existing id). Fresh inserts don't count.
    pub swaps: u64,
    /// Age of the *stalest* model in the fleet — time since the entry
    /// whose model was installed/swapped longest ago. `None` for an empty
    /// registry. The health signal a refit pipeline watches: a fleet under
    /// healthy churn keeps this bounded, a wedged pipeline lets it grow.
    pub oldest_model_age: Option<Duration>,
}

/// What [`ModelRegistry::restore`] recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Snapshot-store generation the fleet was recovered from (0 for an
    /// empty store).
    pub generation: u64,
    /// Models now registered and serving, sorted by id.
    pub restored: Vec<ModelId>,
    /// Snapshot entries that could not be restored (undecodable key or
    /// unparseable bytes), with reasons. The rest of the fleet serves.
    pub skipped: Vec<String>,
}

/// What a [`ModelRegistry::swap_if_current`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The expected plan was live; the new model now serves.
    Swapped,
    /// Another install landed first — the caller's gate comparison is
    /// stale. Retryable: re-gate against the new live plan.
    Raced,
    /// The id has no entry (removed since the caller looked it up).
    Missing,
}

/// A sharded, concurrently readable fleet of servable models. See the
/// module docs for the locking design; the serving guarantees are:
///
/// * predictions are **bitwise identical** to serving the same query
///   through the model's own [`PredictPlan`] directly, whatever the tier
///   state and whatever swaps run concurrently (a swap installs a rebake
///   of the same model, and demotion only drops the dense table — both
///   bitwise-neutral by the plan's determinism contract);
/// * a load from malformed bytes fails before any entry is touched;
/// * resident dense-table bytes never exceed the configured budget.
pub struct ModelRegistry {
    shards: [Shard; SHARD_COUNT],
    /// Registry-wide dense-table budget in bytes.
    budget: usize,
    /// Serializes residency transitions and the byte ledger behind them.
    tier: Mutex<TierLedger>,
    /// Monotone LRU clock; each serve/insert takes a tick.
    clock: AtomicU64,
    /// The observability hub this registry (and every layer stacked on it
    /// — pipeline, store, server) reports into. The counters below are
    /// handles into it, so [`RegistryStats`] is a *view* over the same
    /// cells `render()` exports: the two can never disagree.
    obs: Arc<MetricsRegistry>,
    /// Whether serve/lookup latency timing is on. Counters are always
    /// exact; only the `Instant::now()` pairs feeding the latency
    /// histograms are gated, so an untimed registry pays nothing for them
    /// and serves bitwise-identically to a timed one.
    timed: AtomicBool,
    /// Round-robin tick behind [`LATENCY_SAMPLE`]: a timed operation pays
    /// the clock pair only when its tick lands on the sample.
    sample_tick: AtomicU64,
    lookup_us: Histogram,
    serve_us: Histogram,
    dense_hits: Counter,
    gather_hits: Counter,
    misses: Counter,
    swaps: Counter,
    deadline_shed: Counter,
    malformed: Counter,
    /// Zero point for entry install timestamps (staleness accounting).
    epoch: Instant,
}

struct TierLedger {
    dense_bytes: usize,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An unbounded registry: every cacheable plan keeps its dense table.
    pub fn new() -> Self {
        Self::with_budget(usize::MAX)
    }

    /// A registry whose resident dense corner-value tables may total at
    /// most `budget_bytes`. Plans over budget serve through the
    /// factor-gather fallback — same results, more work per corner.
    ///
    /// Owns a private [`MetricsRegistry`] with latency timing *off* (the
    /// counters still count); use [`Self::with_obs`] to share a hub
    /// across layers, or [`Self::enable_timing`] to turn timing on here.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self::build(budget_bytes, Arc::new(MetricsRegistry::new()), false)
    }

    /// A registry reporting into a shared observability hub, with
    /// serve/lookup latency timing on.
    pub fn with_obs(budget_bytes: usize, obs: Arc<MetricsRegistry>) -> Self {
        Self::build(budget_bytes, obs, true)
    }

    fn build(budget_bytes: usize, obs: Arc<MetricsRegistry>, timed: bool) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            budget: budget_bytes,
            tier: Mutex::new(TierLedger { dense_bytes: 0 }),
            clock: AtomicU64::new(0),
            timed: AtomicBool::new(timed),
            sample_tick: AtomicU64::new(0),
            lookup_us: obs.histogram("cpr_registry_lookup_us"),
            serve_us: obs.histogram("cpr_registry_serve_us"),
            dense_hits: obs.counter("cpr_registry_dense_hits_total"),
            gather_hits: obs.counter("cpr_registry_gather_hits_total"),
            misses: obs.counter("cpr_registry_misses_total"),
            swaps: obs.counter("cpr_registry_swaps_total"),
            deadline_shed: obs.counter("cpr_registry_deadline_shed_total"),
            malformed: obs.counter("cpr_registry_malformed_total"),
            obs,
            epoch: Instant::now(),
        }
    }

    /// The observability hub this registry reports into. The refit
    /// pipeline, fleet store, and HTTP front end all publish into the
    /// same hub, and the server's `GET /metrics` renders it.
    pub fn obs(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Turn on serve/lookup latency timing (see [`Self::with_budget`]).
    pub fn enable_timing(&self) {
        self.timed.store(true, Ordering::Relaxed);
    }

    /// Start a latency timer iff timing is on *and* this operation's tick
    /// lands on the 1-in-[`LATENCY_SAMPLE`] sample. Timing feeds
    /// histograms only — never values — so the bitwise-identical serving
    /// contract holds with it on or off.
    #[inline]
    fn timer(&self) -> Option<Instant> {
        if !self.timed.load(Ordering::Relaxed) {
            return None;
        }
        (self
            .sample_tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(LATENCY_SAMPLE))
        .then(Instant::now)
    }

    #[inline]
    fn observe(t: Option<Instant>, hist: &Histogram) {
        if let Some(t) = t {
            hist.record_duration(t.elapsed());
        }
    }

    /// Nanoseconds since the registry epoch, saturating (u64 nanoseconds
    /// cover ~584 years of uptime).
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn shard(&self, id: &ModelId) -> &Shard {
        &self.shards[(id.shard_hash() as usize) & (SHARD_COUNT - 1)]
    }

    fn entry(&self, id: &ModelId) -> Option<Arc<ServableModel>> {
        self.shard(id)
            .read()
            .expect("shard poisoned")
            .get(id)
            .cloned()
    }

    fn touch(&self, entry: &ServableModel) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(tick, Ordering::Relaxed);
    }

    fn count_serve(&self, plan: &PredictPlan, queries: u64) {
        if plan.has_dense_cache() {
            self.dense_hits.add(queries);
        } else {
            self.gather_hits.add(queries);
        }
    }

    /// Register (or hot-replace) a model. The entry starts dense-resident
    /// when its table fits the budget after LRU demotions of colder
    /// entries, demoted otherwise. Replacing an existing id swaps the
    /// whole entry; readers that already looked the old one up finish on
    /// its old plan. Returns `true` if an existing entry was replaced.
    pub fn insert(&self, id: ModelId, model: CprModel) -> bool {
        let mut tier = self.tier.lock().expect("tier poisoned");
        let plan = model.shared_plan();
        let need = plan.dense_cache_bytes();
        let (plan, resident) = if need == 0 {
            (plan, 0)
        } else {
            // An outgoing same-id entry is an eviction candidate like any
            // other: it is leaving anyway.
            self.make_room(&mut tier, need);
            if tier.dense_bytes + need <= self.budget {
                tier.dense_bytes += need;
                (plan, need)
            } else {
                (Arc::new(plan.without_dense_cache()), 0)
            }
        };
        let entry = Arc::new(ServableModel {
            model: ArcCell::new(Arc::new(model)),
            plan: ArcCell::new(plan),
            resident_bytes: AtomicUsize::new(resident),
            last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed) + 1),
            installed_ns: AtomicU64::new(self.now_ns()),
        });
        // One `HashMap::insert` replaces the entry in place: readers see
        // the old model or the new one, never a missing id mid-swap.
        let detail = id.to_string();
        let old = self
            .shard(&id)
            .write()
            .expect("shard poisoned")
            .insert(id, entry);
        match old {
            Some(old) => {
                // Retire the outgoing entry's ledger share; its table
                // frees once in-flight readers drop their handles.
                tier.dense_bytes -= old.resident_bytes.swap(0, Ordering::Relaxed);
                self.swaps.inc();
                self.obs.events().record(EventKind::Swap, detail);
                true
            }
            None => false,
        }
    }

    /// Load a model from its serialized wire bytes (v1 or v2) and register
    /// it — deserialization bakes the plan; nothing is re-fit. Malformed
    /// bytes return [`RegistryError::Load`] with the registry untouched:
    /// parsing completes before any entry is created or replaced.
    ///
    /// # Atomicity when replacing a live entry
    ///
    /// The precise guarantee — no more, no less — when `id` already has an
    /// entry that concurrent readers are serving from:
    ///
    /// * **Replacement is a single pointer move.** The new entry is fully
    ///   built (parsed, plan baked, tier decided) before one `HashMap`
    ///   insert publishes it. A concurrent lookup observes either the old
    ///   entry or the new one, never a missing id and never a
    ///   partially-built entry.
    /// * **Held handles are immortal snapshots.** A reader that obtained
    ///   the old entry's plan (via [`Self::plan`], or internally during
    ///   [`Self::predict`]/[`Self::serve_batch`]) keeps serving that exact
    ///   plan, bitwise-stable, for as long as it holds the `Arc` — the
    ///   load does not wait for it, invalidate it, or mutate it. Memory is
    ///   reclaimed only when the last handle drops.
    /// * **What is *not* guaranteed:** any ordering between the load and
    ///   in-flight reads (a query racing the load may be answered by
    ///   either model), and any cross-entry atomicity (a multi-id bulk
    ///   load is per-id atomic only). A batch served through
    ///   [`Self::serve_batch`] resolves each distinct id exactly once, so
    ///   one batch never mixes old and new predictions *for the same id*,
    ///   but two ids may straddle a concurrent two-id reload.
    pub fn load(&self, id: ModelId, bytes: &[u8]) -> Result<bool, RegistryError> {
        let model = serialize::from_bytes(bytes)?;
        Ok(self.insert(id, model))
    }

    /// Drop a model. Readers that already hold its plan finish on it.
    pub fn remove(&self, id: &ModelId) -> bool {
        let mut tier = self.tier.lock().expect("tier poisoned");
        let removed = self.shard(id).write().expect("shard poisoned").remove(id);
        match removed {
            Some(entry) => {
                tier.dense_bytes -= entry.resident_bytes.swap(0, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Rebake `id`'s plan from its stored model and hot-swap it in,
    /// preserving the entry's tier (a demoted entry stays demoted, with
    /// the fresh bake's table stripped). In-flight readers finish on the
    /// old plan; the rebake is bitwise-neutral, so no caller can tell
    /// *which* plan served it. Returns `false` for unknown ids.
    pub fn rebake(&self, id: &ModelId) -> bool {
        let tier = self.tier.lock().expect("tier poisoned");
        let Some(entry) = self.entry(id) else {
            return false;
        };
        let fresh = entry.model.load().bake_plan();
        let resident = entry.resident_bytes.load(Ordering::Relaxed) > 0;
        let fresh = if resident {
            fresh
        } else {
            fresh.without_dense_cache()
        };
        entry.plan.store(Arc::new(fresh));
        drop(tier);
        true
    }

    /// Demote `id`: drop its resident dense table, freeing budget; the
    /// entry serves through the factor-gather fallback from here (bitwise
    /// the same results). Returns `true` if a table was actually dropped.
    pub fn demote(&self, id: &ModelId) -> bool {
        let mut tier = self.tier.lock().expect("tier poisoned");
        match self.entry(id) {
            Some(entry) => Self::demote_entry(&mut tier, &entry),
            None => false,
        }
    }

    /// Promote `id`: rebake its dense table and make it resident, demoting
    /// LRU entries as needed to fit the budget. Returns `false` when the
    /// id is unknown, the model's grid is beyond the dense cap, or the
    /// table cannot fit the budget even alone.
    pub fn promote(&self, id: &ModelId) -> bool {
        let mut tier = self.tier.lock().expect("tier poisoned");
        let Some(entry) = self.entry(id) else {
            return false;
        };
        if entry.resident_bytes.load(Ordering::Relaxed) > 0 {
            return true; // already resident
        }
        let fresh = entry.model.load().bake_plan();
        let need = fresh.dense_cache_bytes();
        if need == 0 {
            return false; // grid beyond the dense cap: nothing to promote
        }
        self.make_room(&mut tier, need);
        if tier.dense_bytes + need > self.budget {
            return false; // cannot fit even after demoting everyone else
        }
        tier.dense_bytes += need;
        entry.resident_bytes.store(need, Ordering::Relaxed);
        entry.plan.store(Arc::new(fresh));
        self.touch(&entry);
        true
    }

    /// Demote one entry under the tier mutex; returns whether bytes moved.
    fn demote_entry(tier: &mut TierLedger, entry: &ServableModel) -> bool {
        let bytes = entry.resident_bytes.swap(0, Ordering::Relaxed);
        if bytes == 0 {
            return false;
        }
        tier.dense_bytes -= bytes;
        let stripped = entry.plan.load().without_dense_cache();
        entry.plan.store(Arc::new(stripped));
        true
    }

    /// Demote least-recently-used resident entries until `need` more bytes
    /// fit the budget or no victims remain. (Callers' targets are never
    /// candidates: an incoming insert isn't registered yet, and a
    /// promotion target isn't resident.)
    fn make_room(&self, tier: &mut TierLedger, need: usize) {
        while tier.dense_bytes > 0 && tier.dense_bytes + need > self.budget {
            let mut victim: Option<(u64, Arc<ServableModel>)> = None;
            for shard in &self.shards {
                for entry in shard.read().expect("shard poisoned").values() {
                    if entry.resident_bytes.load(Ordering::Relaxed) == 0 {
                        continue;
                    }
                    let used = entry.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(best, _)| used < *best) {
                        victim = Some((used, entry.clone()));
                    }
                }
            }
            match victim {
                Some((_, entry)) => {
                    Self::demote_entry(tier, &entry);
                }
                None => break,
            }
        }
    }

    /// Install `model` over `id`'s entry **iff** the plan the caller gated
    /// against is still the live one (pointer identity on the `Arc` from
    /// [`Self::plan`]). The conditional-swap primitive behind the
    /// background refit pipeline: a candidate was quality-gated against a
    /// snapshot of the live plan, and installing it after someone else
    /// already swapped would publish a model vetted against stale
    /// competition.
    ///
    /// On success the *entry* survives — LRU recency, miss counters, and
    /// id identity are untouched; only the model and its plan move, and
    /// the fresh plan goes through the same budget admission as an insert
    /// (demoted if its dense table cannot fit). In-flight readers finish
    /// on the old plan.
    pub fn swap_if_current(
        &self,
        id: &ModelId,
        model: CprModel,
        expected: &Arc<PredictPlan>,
    ) -> SwapOutcome {
        let mut tier = self.tier.lock().expect("tier poisoned");
        let Some(entry) = self.entry(id) else {
            return SwapOutcome::Missing;
        };
        // Decide the raced case before touching the ledger. The tier mutex
        // serializes all plan installs, so between this check and the CAS
        // below nothing else can move the cell.
        if !Arc::ptr_eq(&entry.plan.load(), expected) {
            return SwapOutcome::Raced;
        }
        let plan = model.shared_plan();
        let need = plan.dense_cache_bytes();
        // Free the outgoing plan's residency first: the incoming plan
        // competes for the budget like a fresh insert would.
        tier.dense_bytes -= entry.resident_bytes.swap(0, Ordering::Relaxed);
        let (plan, resident) = if need == 0 {
            (plan, 0)
        } else {
            self.make_room(&mut tier, need);
            if tier.dense_bytes + need <= self.budget {
                tier.dense_bytes += need;
                (plan, need)
            } else {
                (Arc::new(plan.without_dense_cache()), 0)
            }
        };
        entry
            .plan
            .compare_and_swap(expected, plan)
            .expect("plan moved under the tier mutex");
        entry.resident_bytes.store(resident, Ordering::Relaxed);
        entry.model.store(Arc::new(model));
        entry.installed_ns.store(self.now_ns(), Ordering::Relaxed);
        self.touch(&entry);
        self.swaps.inc();
        self.obs.events().record(EventKind::Swap, id.to_string());
        SwapOutcome::Swapped
    }

    /// The plan currently serving `id` — a shared handle that stays valid
    /// (and bitwise-stable) however long the caller holds it, across any
    /// concurrent swap, demotion, or removal.
    pub fn plan(&self, id: &ModelId) -> Option<Arc<PredictPlan>> {
        let t = self.timer();
        let out = match self.entry(id) {
            Some(entry) => {
                self.touch(&entry);
                Some(entry.plan.load())
            }
            None => {
                self.misses.inc();
                None
            }
        };
        Self::observe(t, &self.lookup_us);
        out
    }

    /// Serve one query. Bitwise-identical to `model.plan().predict(x)` on
    /// the model registered under `id`.
    pub fn predict(&self, id: &ModelId, x: &[f64]) -> Result<f64, RegistryError> {
        let t = self.timer();
        let Some(entry) = self.entry(id) else {
            self.misses.inc();
            return Err(RegistryError::UnknownModel(id.clone()));
        };
        self.touch(&entry);
        let plan = entry.plan.load();
        self.count_serve(&plan, 1);
        let y = plan.predict(x);
        Self::observe(t, &self.serve_us);
        Ok(y)
    }

    /// Serve a mixed query stream: group by [`ModelId`] (one lookup and
    /// one plan load per distinct model), ride each group through
    /// [`PredictPlan::predict_into`]'s chunked pipeline, and scatter
    /// results back to input order. Output `i` is bitwise-identical to
    /// `predict(&queries[i].0, &queries[i].1)` — independent of grouping,
    /// batch composition, and thread count. Any unknown id fails the whole
    /// batch (the stream is then not a fleet the caller controls).
    pub fn serve_batch<X: AsRef<[f64]> + Sync>(
        &self,
        queries: &[(ModelId, X)],
    ) -> Result<Vec<f64>, RegistryError> {
        let t = self.timer();
        let groups = group_by_model(queries.iter().map(|(id, _)| id));
        let mut out = vec![0.0; queries.len()];
        let mut gathered: Vec<&[f64]> = Vec::new();
        let mut scratch: Vec<f64> = Vec::new();
        for (id, indices) in groups {
            let Some(entry) = self.entry(id) else {
                self.misses.inc();
                return Err(RegistryError::UnknownModel(id.clone()));
            };
            self.touch(&entry);
            let plan = entry.plan.load();
            self.count_serve(&plan, indices.len() as u64);
            gathered.clear();
            gathered.extend(indices.iter().map(|&i| queries[i as usize].1.as_ref()));
            scratch.clear();
            scratch.resize(indices.len(), 0.0);
            plan.predict_into(&gathered, &mut scratch);
            for (&i, &y) in indices.iter().zip(scratch.iter()) {
                out[i as usize] = y;
            }
        }
        Self::observe(t, &self.serve_us);
        Ok(out)
    }

    /// Reject a query the plan must never run: wrong dimension for the
    /// model's parameter space, or a non-finite coordinate. This is the
    /// trust boundary the network front end leans on — everything past it
    /// may assume well-formed input.
    fn validate_query(plan: &PredictPlan, x: &[f64]) -> Result<(), RegistryError> {
        if x.len() != plan.order() {
            return Err(RegistryError::MalformedQuery(format!(
                "query has {} coordinates, model has order {}",
                x.len(),
                plan.order()
            )));
        }
        if let Some(bad) = x.iter().position(|v| !v.is_finite()) {
            return Err(RegistryError::MalformedQuery(format!(
                "non-finite coordinate at index {bad}"
            )));
        }
        Ok(())
    }

    /// [`Self::serve_batch`] with validation and a hard time budget. Every
    /// query in the batch is validated before any prediction runs (one
    /// malformed query fails the whole batch with no work done), and the
    /// deadline is re-checked between [`DEADLINE_CHECK_CHUNK`]-query
    /// chunks so a large batch cannot blow far past its budget — an
    /// expired deadline sheds the *rest* of the batch and returns
    /// [`RegistryError::DeadlineExceeded`] with no partial results. A
    /// completed batch is bitwise-identical to [`Self::serve_batch`]
    /// (chunking never changes per-query results, by the plan's
    /// determinism contract).
    pub fn serve_batch_deadline<X: AsRef<[f64]> + Sync>(
        &self,
        queries: &[(ModelId, X)],
        deadline: Instant,
    ) -> Result<Vec<f64>, RegistryError> {
        let t = self.timer();
        let groups = group_by_model(queries.iter().map(|(id, _)| id));
        // Validate the whole batch up front: a malformed query must shed
        // the request before any compute, not halfway through.
        for (id, indices) in &groups {
            let Some(entry) = self.entry(id) else {
                self.misses.inc();
                return Err(RegistryError::UnknownModel((**id).clone()));
            };
            let plan = entry.plan.load();
            for &i in indices.iter() {
                if let Err(e) = Self::validate_query(&plan, queries[i as usize].1.as_ref()) {
                    self.malformed.inc();
                    return Err(e);
                }
            }
        }
        let mut out = vec![0.0; queries.len()];
        let mut gathered: Vec<&[f64]> = Vec::new();
        let mut scratch: Vec<f64> = Vec::new();
        for (id, indices) in groups {
            let Some(entry) = self.entry(id) else {
                self.misses.inc();
                return Err(RegistryError::UnknownModel(id.clone()));
            };
            self.touch(&entry);
            let plan = entry.plan.load();
            for chunk in indices.chunks(DEADLINE_CHECK_CHUNK) {
                if Instant::now() >= deadline {
                    self.deadline_shed.inc();
                    return Err(RegistryError::DeadlineExceeded);
                }
                self.count_serve(&plan, chunk.len() as u64);
                gathered.clear();
                gathered.extend(chunk.iter().map(|&i| queries[i as usize].1.as_ref()));
                scratch.clear();
                scratch.resize(chunk.len(), 0.0);
                plan.predict_into(&gathered, &mut scratch);
                for (&i, &y) in chunk.iter().zip(scratch.iter()) {
                    out[i as usize] = y;
                }
            }
        }
        Self::observe(t, &self.serve_us);
        Ok(out)
    }

    /// Whether `id` currently serves off a resident dense table.
    pub fn is_dense_resident(&self, id: &ModelId) -> Option<bool> {
        self.entry(id)
            .map(|e| e.resident_bytes.load(Ordering::Relaxed) > 0)
    }

    pub fn contains(&self, id: &ModelId) -> bool {
        self.shard(id)
            .read()
            .expect("shard poisoned")
            .contains_key(id)
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All registered ids, sorted (stable regardless of shard layout).
    pub fn ids(&self) -> Vec<ModelId> {
        let mut ids: Vec<ModelId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("shard poisoned")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// Persist the whole fleet into `store` as one snapshot generation:
    /// every registered model's wire bytes, checksummed and committed
    /// behind a single atomic manifest rename. A crash anywhere inside
    /// leaves the store on its previous generation, complete. Returns
    /// the committed generation.
    pub fn snapshot_into(&self, store: &FleetStore) -> Result<u64, RegistryError> {
        let mut models = Vec::new();
        for id in self.ids() {
            if let Some(entry) = self.entry(&id) {
                let bytes = serialize::to_bytes(&entry.model.load()).into_vec();
                models.push((id.store_key(), bytes));
            }
        }
        Ok(store.snapshots().commit_fleet(models)?)
    }

    /// Recover the fleet from `store`'s newest durable generation: every
    /// model in the snapshot is loaded through the same wire parse as a
    /// cold [`Self::load`] (a model that fails to parse is skipped and
    /// reported, never served). Existing entries under restored ids are
    /// hot-replaced; readers in flight finish on what they hold —
    /// restore never stops serving. Store keys that don't decode to a
    /// [`ModelId`], and models whose bytes don't parse, land in
    /// [`RestoreReport::skipped`].
    pub fn restore(&self, store: &FleetStore) -> Result<RestoreReport, RegistryError> {
        let fleet = store.snapshots().load()?;
        let mut report = RestoreReport {
            generation: fleet.generation,
            restored: Vec::new(),
            skipped: Vec::new(),
        };
        for (key, bytes) in &fleet.models {
            let Some(id) = ModelId::from_store_key(key) else {
                report
                    .skipped
                    .push(format!("undecodable store key {key:?}"));
                continue;
            };
            match self.load(id.clone(), bytes) {
                Ok(_) => report.restored.push(id),
                Err(e) => report.skipped.push(format!("{id}: {e}")),
            }
        }
        Ok(report)
    }

    /// Snapshot the registry counters and tier ledger.
    pub fn stats(&self) -> RegistryStats {
        let (models, dense_resident, stalest_ns) =
            self.shards
                .iter()
                .fold((0, 0, u64::MAX), |(n, r, stale), s| {
                    let shard = s.read().expect("shard poisoned");
                    let resident = shard
                        .values()
                        .filter(|e| e.resident_bytes.load(Ordering::Relaxed) > 0)
                        .count();
                    let oldest = shard
                        .values()
                        .map(|e| e.installed_ns.load(Ordering::Relaxed))
                        .min()
                        .unwrap_or(u64::MAX);
                    (n + shard.len(), r + resident, stale.min(oldest))
                });
        let oldest_model_age = (stalest_ns != u64::MAX)
            .then(|| Duration::from_nanos(self.now_ns().saturating_sub(stalest_ns)));
        RegistryStats {
            models,
            dense_resident,
            dense_bytes: self.tier.lock().expect("tier poisoned").dense_bytes,
            budget: self.budget,
            dense_hits: self.dense_hits.get(),
            gather_hits: self.gather_hits.get(),
            misses: self.misses.get(),
            swaps: self.swaps.get(),
            deadline_shed: self.deadline_shed.get(),
            malformed: self.malformed.get(),
            oldest_model_age,
        }
    }
}

// The whole point: one registry shared across serving threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelRegistry>();
};
