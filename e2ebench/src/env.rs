//! Set-up: everything a run builds before its first timed operation —
//! inputs, the six app fits, the served fleet, request bytes with their
//! expected responses, the bound server, the durable store, the refit
//! pipeline, and warm-up traffic.

use crate::inputs::{self, derive, tag, AppData};
use crate::wire::{Client, WireReq};
use cpr_bench::fixtures;
use cpr_core::{serialize, StreamingCpr};
use cpr_registry::{ModelId, ModelRegistry, PipelineConfig, RefitPipeline};
use cpr_server::{CprServer, ServerConfig};
use cpr_store::FleetStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Models in the served fleet besides the six apps.
pub const FLEET_SIZE: usize = 240;
/// Client connections (= client threads) of the wire loop.
pub const CONNECTIONS: usize = 2;
/// Distinct requests per connection, replayed cyclically.
pub const WIRE_POOL: usize = 4096;
/// Every `BATCH_EVERY`-th request carries `WIRE_BATCH` test configurations
/// of the MM model (an autotuner scoring candidates of one kernel); the
/// rest carry one configuration for a model drawn from the whole fleet.
/// The batch class (1/16 of requests) is slower than every single, so p50
/// falls inside the singles and p99 inside the one-model batch class,
/// never on a class boundary.
pub const BATCH_EVERY: usize = 16;
pub const WIRE_BATCH: usize = 64;
/// Requests per connection sent during set-up warm-up.
pub const WARMUP_REQUESTS: usize = 512;
/// In-process reads the refit reader cycles through.
pub const READ_POOL: usize = 1 << 16;

pub struct App {
    pub data: AppData,
    pub id: ModelId,
    /// Streaming trainer fitted at set-up; its model is the reference fit.
    pub tracker: StreamingCpr,
    /// `serialize::to_bytes` of the reference fit.
    pub reference_bytes: Vec<u8>,
    /// The reference fit's predictions on the test set.
    pub expected_test: Vec<f64>,
}

pub struct WireEnv {
    pub registry: Arc<ModelRegistry>,
    /// Taken (and drained) by the wire phase.
    pub server: Option<CprServer>,
    /// One request pool per connection.
    pub pools: Vec<Vec<WireReq>>,
}

/// One refit episode's stack: a fresh registry, a one-worker pipeline and
/// a `FleetStore` on its own directory, tracking the six set-up trainers.
pub struct RefitEnv {
    pub dir: PathBuf,
    pub registry: Arc<ModelRegistry>,
    pub pipeline: Option<RefitPipeline>,
}

impl RefitEnv {
    pub fn open(apps: &[App], dir: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(FleetStore::open_dir(&dir).expect("open store directory"));
        let registry = Arc::new(ModelRegistry::new());
        let pipeline = RefitPipeline::with_store(
            Arc::clone(&registry),
            PipelineConfig {
                workers: 1,
                ..PipelineConfig::default()
            },
            store,
        );
        for a in apps {
            pipeline.track(a.id.clone(), a.tracker.clone());
        }
        Self {
            dir,
            registry,
            pipeline: Some(pipeline),
        }
    }

    /// Stop the pipeline's worker, then delete the store directory.
    pub fn close(&mut self) {
        if let Some(p) = self.pipeline.take() {
            p.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Env {
    pub apps: Vec<App>,
    pub wire: WireEnv,
    /// The current refit episode (the next one replaces it).
    pub refit: RefitEnv,
    /// (app index, configuration) pairs the refit reader cycles through.
    pub reads: Vec<(usize, Vec<f64>)>,
    /// Wall time of each set-up step, seconds.
    pub steps: Vec<(&'static str, f64)>,
}

impl Env {
    pub fn close(mut self) {
        self.refit.close();
        if let Some(server) = self.wire.server.take() {
            let _ = server.drain();
        }
    }
}

pub fn app_id(name: &str) -> ModelId {
    ModelId::new(name, "stampede2", "time")
}

/// Build a complete run environment under `scratch` (a fresh store
/// directory named by `rep`).
pub fn setup(seed: u64, scratch: &Path, rep: usize) -> Env {
    let mut steps = Vec::new();
    let mut clock = Instant::now();
    let mut step = |name: &'static str, steps: &mut Vec<(&'static str, f64)>| {
        steps.push((name, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };

    let data = inputs::apps(seed);
    let fleet = fixtures::fleet(FLEET_SIZE, derive(seed, tag::FLEET));
    step("inputs", &mut steps);

    let apps: Vec<App> = data
        .into_iter()
        .map(|d| {
            let tracker = StreamingCpr::fit(&d.builder, &d.train).expect("app fit");
            let model = tracker.model();
            let mut expected_test = vec![0.0; d.test_x.len()];
            model.plan().predict_into(&d.test_x, &mut expected_test);
            App {
                id: app_id(d.name),
                reference_bytes: serialize::to_bytes(model).as_ref().to_vec(),
                expected_test,
                tracker,
                data: d,
            }
        })
        .collect();
    step("fits", &mut steps);

    // Wire: the six app models plus the fleet, under a dense-table budget
    // that holds about half of the fleet's tables.
    let fleet_dense: usize = fleet
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .sum();
    let registry = Arc::new(ModelRegistry::with_budget(fleet_dense / 2));
    let mut targets: Vec<ModelId> = Vec::with_capacity(apps.len() + fleet.len());
    for a in &apps {
        registry.insert(a.id.clone(), a.tracker.model().clone());
        targets.push(a.id.clone());
    }
    for f in &fleet {
        let id = ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone());
        registry.insert(id.clone(), f.model.clone());
        targets.push(id);
    }
    let pools: Vec<Vec<WireReq>> = (0..CONNECTIONS)
        .map(|c| wire_pool(seed, c, &apps, &targets, &registry))
        .collect();
    step("wire_inputs", &mut steps);

    let server = CprServer::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    step("bind", &mut steps);

    let refit = RefitEnv::open(&apps, scratch.join(format!("store-{rep}-0")));
    let reads = read_pool(seed, &apps);
    step("store_pipeline", &mut steps);

    // Warm-up: every connection's first requests, checked byte for byte.
    for pool in &pools {
        let mut client = Client::connect(server.local_addr()).expect("warm-up connect");
        for req in pool.iter().take(WARMUP_REQUESTS) {
            let (status, ok) = client.roundtrip(req).expect("warm-up request");
            assert!(
                status == 200 && ok,
                "warm-up response differs from serve_batch"
            );
        }
    }
    for (i, x) in reads.iter().take(4096) {
        refit
            .registry
            .predict(&apps[*i].id, x)
            .expect("warm-up read");
    }
    step("warmup", &mut steps);

    Env {
        apps,
        wire: WireEnv {
            registry,
            server: Some(server),
            pools,
        },
        refit,
        reads,
        steps,
    }
}

/// One connection's request pool: seeded targets over the whole fleet,
/// app models queried at their test configurations, fleet models at
/// `fixtures::fleet_queries` probes (over and slightly beyond their
/// mixed-axis domain). Expected bodies come from direct `serve_batch`.
fn wire_pool(
    seed: u64,
    conn: usize,
    apps: &[App],
    targets: &[ModelId],
    registry: &ModelRegistry,
) -> Vec<WireReq> {
    let stream = derive(seed, (tag::WIRE << 8) | conn as u64);
    let mut rng = StdRng::seed_from_u64(stream);
    let fleet_size = targets.len() - apps.len();
    let fleet_probes = fixtures::fleet_queries(fleet_size, WIRE_POOL, derive(stream, 1));
    (0..WIRE_POOL)
        .map(|k| {
            let (t, xs) = if k % BATCH_EVERY == BATCH_EVERY - 1 {
                (0, test_configs(&apps[0], WIRE_BATCH, &mut rng))
            } else {
                match rng.gen_range(0..targets.len()) {
                    t if t < apps.len() => (t, test_configs(&apps[t], 1, &mut rng)),
                    _ => {
                        let (who, x) = &fleet_probes[k];
                        (apps.len() + who, vec![x.clone()])
                    }
                }
            };
            let queries: Vec<(ModelId, Vec<f64>)> =
                xs.into_iter().map(|x| (targets[t].clone(), x)).collect();
            let expected = registry
                .serve_batch(&queries)
                .expect("fleet ids are loaded");
            WireReq::new(&targets[t], queries, &expected)
        })
        .collect()
}

/// `n` test configurations of `a`, drawn with replacement.
fn test_configs(a: &App, n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let test = &a.data.test_x;
    (0..n)
        .map(|_| test[rng.gen_range(0..test.len())].clone())
        .collect()
}

/// The refit reader's query stream over the six app models. Dense-table
/// models (MM, QR, BC) get twice the weight of factor-gather ones (FMM,
/// AMG, KRIPKE): two thirds of reads are dense, so the median falls inside
/// the dense class and p99 inside the slowest gather class, never on a
/// class boundary.
fn read_pool(seed: u64, apps: &[App]) -> Vec<(usize, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(derive(seed, tag::READS));
    let weights: Vec<usize> = apps
        .iter()
        .map(|a| {
            if a.tracker.model().plan().has_dense_cache() {
                2
            } else {
                1
            }
        })
        .collect();
    let total: usize = weights.iter().sum();
    (0..READ_POOL)
        .map(|_| {
            let mut pick = rng.gen_range(0..total);
            let mut i = 0;
            while pick >= weights[i] {
                pick -= weights[i];
                i += 1;
            }
            let xs = &apps[i].data.test_x;
            (i, xs[rng.gen_range(0..xs.len())].clone())
        })
        .collect()
}
