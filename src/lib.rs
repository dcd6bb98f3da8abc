//! # cpr — Application Performance Modeling via Tensor Completion
//!
//! Umbrella crate re-exporting the full CPR stack, a Rust reproduction of
//! Hutter & Solomonik, *"Application Performance Modeling via Tensor
//! Completion"*, SC 2023 (arXiv:2210.10184).
//!
//! The pieces:
//!
//! * [`tensor`] — dense matrices, decompositions (Cholesky/QR/SVD), dense and
//!   sparse (partially observed) tensors, and the CP factor model.
//! * [`completion`] — tensor-completion optimizers: ALS, the interior-point
//!   alternating Newton method (AMN) for positive models, and Tucker-ALS.
//! * [`grid`] — discretization of an application's parameter space onto
//!   regular grids plus multilinear interpolation (Eq. 5 of the paper).
//! * [`core`] — the paper's contribution: the `CprModel` interpolation model
//!   (§5.2), the `CprExtrapolator` (§5.3), error metrics (Table 1), datasets.
//! * [`baselines`] — the nine comparison models of §6.0.4.
//! * [`apps`] — six synthetic application benchmarks standing in for the
//!   paper's Stampede2 measurements (see `DESIGN.md` for the substitution
//!   argument).
//! * [`registry`] — model-fleet serving: a sharded concurrent
//!   `ModelRegistry` keyed by (application × machine × metric), with
//!   hot-swap under live readers, LRU tiering of dense plan caches, and a
//!   fault-tolerant background refit-and-swap pipeline (quality gates,
//!   circuit breakers, deterministic fault injection).
//! * [`store`] — crash-safe durability for the fleet: a checksummed
//!   snapshot store with atomic generation commits, a telemetry
//!   write-ahead log, and a virtual filesystem with deterministic fault
//!   injection (`FaultFs`) that pins the recovery guarantees.
//! * [`server`] — the overload-safe network front end: an HTTP/1.1
//!   server over the registry with admission control, per-request
//!   deadlines, load shedding, exact accounting, graceful drain, and a
//!   deterministic chaos harness (scripted misbehaving clients +
//!   exact-index server fault injection).
//!
//! ## Quickstart
//!
//! One builder, any optimizer, one serving surface. A `CprBuilder` carries
//! a [`core::FitSpec`] (cells, rank, λ, sweeps, seed, loss, optimizer) and
//! fits with any of three optimizers — the paper's ALS (§5.2) and AMN
//! (§5.3), or Tucker-ALS; every fitted model (and every baseline family,
//! through the [`core::BaselineModel`] bridge) serves through the same
//! [`core::PerfModel`] trait and round-trips through the versioned binary
//! format.
//!
//! ```
//! use cpr::core::{serialize, CprBuilder, Optimizer, PerfModel};
//! use cpr::apps::{Benchmark, mm::MatMul};
//!
//! // Generate observations of a synthetic GEMM benchmark.
//! let app = MatMul::default();
//! let train = app.sample_dataset(2048, 7);
//! let test = app.sample_dataset(256, 11);
//!
//! // Discretize (m, n, k) onto an 8x8x8 logarithmic grid and fit a rank-4
//! // CP decomposition by ALS tensor completion (the default optimizer).
//! let builder = CprBuilder::new(app.space())
//!     .cells_per_dim(8)
//!     .rank(4)
//!     .regularization(1e-5);
//! let cp_model = builder.fit(&train).unwrap();
//!
//! // The same builder fits the Tucker model class instead — still a
//! // first-class servable, serializable model.
//! let tucker_model = builder
//!     .clone()
//!     .optimizer(Optimizer::TuckerAls)
//!     .fit(&train)
//!     .unwrap();
//!
//! // Both serve through the generic `PerfModel` surface...
//! let models: Vec<Box<dyn PerfModel>> =
//!     vec![Box::new(cp_model), Box::new(tucker_model)];
//! for model in &models {
//!     let mlogq = model.evaluate(&test).mlogq;
//!     assert!(mlogq < 1.0, "{} should fit GEMM well, got {mlogq}", model.name());
//! }
//!
//! // ...and round-trip through the versioned binary format (v2 stores the
//! // optimizer and decomposition tags; v1 files still load).
//! let bytes = models[0].to_bytes().unwrap();
//! let restored = serialize::from_bytes(&bytes).unwrap();
//! let probe = [512.0, 512.0, 512.0];
//! assert_eq!(restored.predict(&probe), models[0].predict(&probe));
//!
//! // Deployment: a fleet registry serves many such models by id, loading
//! // wire bytes without re-fitting — predictions bitwise-equal to serving
//! // the model directly.
//! use cpr::registry::{ModelId, ModelRegistry};
//! let fleet = ModelRegistry::new();
//! let id = ModelId::new("gemm", "stampede2", "time");
//! fleet.load(id.clone(), &bytes).unwrap();
//! assert_eq!(
//!     fleet.predict(&id, &probe).unwrap().to_bits(),
//!     models[0].predict(&probe).to_bits(),
//! );
//! ```
//!
//! Incremental settings keep the same builder: the streaming updater is
//! `core::StreamingCpr::fit(&builder, &data)` (the builder owns its
//! `ParamSpace`; there is no separate `space` argument), then
//! `update(&more)` folds new measurements in with warm-started sweeps.
//!
//! ## Background refit: the self-healing fleet
//!
//! In production the telemetry keeps coming. [`registry::RefitPipeline`]
//! closes the loop: submitted batches are quarantined, refit on worker
//! threads through the streaming warm-start path, **quality-gated**
//! against the live plan on a reserved holdout slice, and hot-swapped
//! atomically — while the registry keeps serving the last-good plan
//! through every failure (panics, timeouts, corrupt candidates, repeated
//! failures tripping a per-model circuit breaker).
//!
//! ```
//! use cpr::apps::{Benchmark, mm::MatMul};
//! use cpr::core::{CprBuilder, StreamingCpr};
//! use cpr::registry::{ModelId, ModelRegistry, PipelineConfig, RefitPipeline};
//! use std::sync::Arc;
//!
//! let app = MatMul::default();
//! let builder = CprBuilder::new(app.space())
//!     .cells_per_dim(6)
//!     .rank(2)
//!     .regularization(1e-6);
//! let trainer = StreamingCpr::fit(&builder, &app.sample_dataset(256, 7)).unwrap();
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let pipeline = RefitPipeline::new(registry.clone(), PipelineConfig::default());
//! let id = ModelId::new("gemm", "stampede2", "time");
//! pipeline.track(id.clone(), trainer); // installs the baseline, accepts telemetry
//!
//! // Telemetry arrives; the refit, holdout gate, and swap happen in the
//! // background while `registry.predict` keeps serving uninterrupted.
//! pipeline.submit(&id, &app.sample_dataset(200, 8)).unwrap();
//! pipeline.wait_idle();
//!
//! let stats = pipeline.stats();
//! assert_eq!(stats.swapped + stats.gate_rejected, 1); // terminally resolved
//! // Whatever the gate decided, serving is bitwise the committed model.
//! let committed = pipeline.tracked_model(&id).unwrap();
//! let probe = [512.0, 512.0, 512.0];
//! assert_eq!(
//!     registry.predict(&id, &probe).unwrap().to_bits(),
//!     committed.predict(&probe).to_bits(),
//! );
//! ```
//!
//! ## Durability: the fleet survives a crash
//!
//! [`store::FleetStore`] makes the fleet outlive its process.
//! `snapshot_into` commits every model as a checksummed record under a
//! generation-numbered manifest (each record written to a temp file, read
//! back and verified, then atomically renamed — so a crash at **any**
//! filesystem operation leaves a complete older generation, never a torn
//! one), and `restore` recovers it into a fresh registry. Here the store
//! runs on [`store::MemFs`]; production uses `FleetStore::open_dir` on a
//! real directory.
//!
//! ```
//! use cpr::apps::{Benchmark, mm::MatMul};
//! use cpr::core::CprBuilder;
//! use cpr::registry::{ModelId, ModelRegistry};
//! use cpr::store::{FleetStore, MemFs};
//! use std::sync::Arc;
//!
//! let app = MatMul::default();
//! let model = CprBuilder::new(app.space())
//!     .cells_per_dim(6)
//!     .rank(2)
//!     .regularization(1e-6)
//!     .fit(&app.sample_dataset(256, 7))
//!     .unwrap();
//!
//! let fleet = ModelRegistry::new();
//! let id = ModelId::new("gemm", "stampede2", "time");
//! fleet.insert(id.clone(), model.clone());
//!
//! // Commit one durable generation, then lose the process.
//! let store = FleetStore::open(Arc::new(MemFs::new())).unwrap();
//! let generation = fleet.snapshot_into(&store).unwrap();
//! assert!(generation >= 1);
//! drop(fleet);
//!
//! // Restart: recover the committed generation and serve it, bitwise.
//! let revived = ModelRegistry::new();
//! let report = revived.restore(&store).unwrap();
//! assert_eq!(report.restored.len(), 1);
//! let probe = [512.0, 512.0, 512.0];
//! assert_eq!(
//!     revived.predict(&id, &probe).unwrap().to_bits(),
//!     model.predict(&probe).to_bits(),
//! );
//! ```
//!
//! The full crash-safety contract — the telemetry write-ahead log, the
//! pipeline's persist-on-gated-swap and [`registry::RefitPipeline::replay`],
//! and the fault-injected kill-point matrices that pin all of it — is
//! documented in `DESIGN.md` ("Durability & recovery").
//!
//! ## Serving over the wire: the network front end
//!
//! [`server::CprServer`] puts the whole stack behind a socket: bounded
//! accept loop, fixed worker pool, an admission controller with explicit
//! shed policies, per-request deadlines (`x-cpr-deadline-ms`) propagated
//! into chunked batch prediction, and a strict accounting identity
//! (`accepted + shed_queue_full + shed_deadline + rejected_malformed ==
//! received`) at every stats snapshot. Answers over the wire are
//! **bitwise equal** to direct registry serving, and
//! [`server::CprServer::drain`] flushes a final durable generation on
//! the way out.
//!
//! ```
//! use cpr::apps::{Benchmark, mm::MatMul};
//! use cpr::core::CprBuilder;
//! use cpr::registry::{ModelId, ModelRegistry};
//! use cpr::server::{chaos::ChaosClient, CprServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let app = MatMul::default();
//! let model = CprBuilder::new(app.space())
//!     .cells_per_dim(6)
//!     .rank(2)
//!     .regularization(1e-6)
//!     .fit(&app.sample_dataset(256, 7))
//!     .unwrap();
//!
//! let registry = Arc::new(ModelRegistry::new());
//! let id = ModelId::new("gemm", "stampede2", "time");
//! registry.insert(id.clone(), model.clone());
//!
//! // Serve on an ephemeral loopback port; one prediction over the wire.
//! let server = CprServer::bind("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default())
//!     .unwrap();
//! let client = ChaosClient::new(server.local_addr());
//! let probe = vec![512.0, 512.0, 512.0];
//! let resp = client.predict(("gemm", "stampede2", "time"), &[probe.clone()], None).unwrap();
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.predictions()[0].to_bits(), model.predict(&probe).to_bits());
//!
//! // Graceful drain: the accounting identity held, nothing in flight.
//! let report = server.drain();
//! assert!(report.final_stats.identity_holds());
//! assert_eq!(report.final_stats.in_flight, 0);
//! ```
//!
//! ## Observability: one hub, scraped over the wire
//!
//! Every layer — registry, refit pipeline, store, server — reports into
//! one [`obs::MetricsRegistry`]: lock-free counters and log₂-bucket
//! latency histograms, plus a bounded trace of lifecycle events
//! (`swap`, `shed`, `breaker_trip`, `wal_rotate`, `drain`, …). The
//! server exports it as Prometheus text exposition on `GET /metrics`
//! and replays the trace on `GET /events?since=<seq>` — both
//! [`server::admission::Priority::Critical`], answered even under full
//! shed and during drain. Exported `cpr_server_*` totals satisfy the
//! accounting identity in every scrape. See `DESIGN.md`
//! ("Observability").
//!
//! ```
//! use cpr::apps::{Benchmark, mm::MatMul};
//! use cpr::core::CprBuilder;
//! use cpr::registry::{ModelId, ModelRegistry};
//! use cpr::server::{chaos::ChaosClient, CprServer, ServerConfig};
//! use std::sync::Arc;
//!
//! let app = MatMul::default();
//! let model = CprBuilder::new(app.space())
//!     .cells_per_dim(6)
//!     .rank(2)
//!     .regularization(1e-6)
//!     .fit(&app.sample_dataset(256, 7))
//!     .unwrap();
//! let registry = Arc::new(ModelRegistry::new());
//! registry.insert(ModelId::new("gemm", "stampede2", "time"), model);
//!
//! let server = CprServer::bind("127.0.0.1:0", Arc::clone(&registry), ServerConfig::default())
//!     .unwrap();
//! let client = ChaosClient::new(server.local_addr());
//! client.predict(("gemm", "stampede2", "time"), &[vec![512.0, 512.0, 512.0]], None).unwrap();
//!
//! // Scrape the whole stack over the wire.
//! let text = client.metrics().unwrap();
//! assert!(text.contains("# TYPE cpr_server_received_total counter"));
//! assert!(text.contains("# TYPE cpr_registry_serve_us histogram"));
//! assert!(text.contains("cpr_server_accepted_total 1"));
//!
//! // The exported cells ARE the stats cells (a scrape counts itself,
//! // so the predict plus the scrape above have both been accepted).
//! assert_eq!(server.stats().accepted, 2);
//! server.drain();
//! ```

pub use cpr_apps as apps;
pub use cpr_baselines as baselines;
pub use cpr_completion as completion;
pub use cpr_core as core;
pub use cpr_grid as grid;
pub use cpr_obs as obs;
pub use cpr_registry as registry;
pub use cpr_server as server;
pub use cpr_store as store;
pub use cpr_tensor as tensor;
