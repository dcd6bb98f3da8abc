//! Happy-path end-to-end: bitwise-equal serving over the wire,
//! keep-alive, probe endpoints, trust-boundary rejections with the
//! right statuses, deadline header behavior, and lossless drain with
//! restart recovery.

mod common;

use common::{assert_still_serving, id_of, key_of, registry_of, small_fleet, start, workload};
use cpr_registry::ModelRegistry;
use cpr_server::chaos::{ChaosClient, ClientConn};
use cpr_server::{CprServer, ServerConfig, DEADLINE_HEADER, RETRY_AFTER_MS_HEADER};
use cpr_store::{FleetStore, MemFs};
use std::sync::Arc;

#[test]
fn serves_bitwise_equal_to_the_registry() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    assert_still_serving(&server, &models, &workload(&models, 120, 7));
    let s = server.stats();
    assert_eq!(s.accepted, 120);
    assert_eq!(s.received, 120);
}

#[test]
fn multi_query_batches_come_back_in_order() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let client = ChaosClient::new(server.local_addr());
    let registry = server.registry();
    let f = &models[3];
    let queries: Vec<Vec<f64>> = workload(&models, 40, 11)
        .into_iter()
        .map(|(_, x)| x)
        .collect();
    let resp = client.predict(key_of(f), &queries, None).unwrap();
    assert_eq!(resp.status, 200);
    let got = resp.predictions();
    assert_eq!(got.len(), queries.len());
    for (x, y) in queries.iter().zip(&got) {
        assert_eq!(
            y.to_bits(),
            registry.predict(&id_of(f), x).unwrap().to_bits()
        );
    }
}

#[test]
fn keep_alive_reuses_one_connection() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let mut conn = ClientConn::open(server.local_addr()).unwrap();
    let registry = server.registry();
    for (who, x) in workload(&models, 50, 13) {
        let f = &models[who];
        let path = format!("/predict/{}/{}/{}", f.app, f.machine, f.metric);
        let body = x
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let resp = conn.request("POST", &path, &[], body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.predictions()[0].to_bits(),
            registry.predict(&id_of(f), &x).unwrap().to_bits()
        );
    }
    assert_eq!(server.stats().accepted, 50);

    // A deadline-zero shed answers 503 and keeps the connection: the next
    // request on it is still served bitwise.
    let f = &models[0];
    let path = format!("/predict/{}/{}/{}", f.app, f.machine, f.metric);
    let zero = [(DEADLINE_HEADER, "0".to_string())];
    let shed = conn.request("POST", &path, &zero, b"7 1 1").unwrap();
    assert_eq!(shed.status, 503);
    let resp = conn.request("POST", &path, &[], b"7 1 1").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.predictions()[0].to_bits(),
        registry
            .predict(&id_of(f), &[7.0, 1.0, 1.0])
            .unwrap()
            .to_bits()
    );
    let s = server.stats();
    assert_eq!((s.accepted, s.shed_deadline), (51, 1));
    assert!(s.identity_holds());
}

#[test]
fn health_and_stats_probes() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let client = ChaosClient::new(server.local_addr());
    assert_eq!(client.health().unwrap(), "ok");
    assert_still_serving(&server, &models, &workload(&models, 10, 3));
    let stats = client.stats().unwrap();
    // 10 predicts + the health probe + the stats call itself sees >= 11
    // received; identity over the wire too.
    assert!(stats["received"] >= 11, "{stats:?}");
    assert_eq!(
        stats["received"],
        stats["accepted"]
            + stats["shed_queue_full"]
            + stats["shed_deadline"]
            + stats["rejected_malformed"]
    );
}

#[test]
fn trust_boundary_statuses() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let client = ChaosClient::new(server.local_addr());
    let f = &models[0];

    // Unknown model → 404.
    let resp = client
        .predict(("ghost", "nowhere", "time"), &[vec![1.0, 2.0, 3.0]], None)
        .unwrap();
    assert_eq!(resp.status, 404);
    // Unknown endpoint → 404; wrong method on predict → 405.
    assert_eq!(
        client.request("GET", "/nope", &[], b"").unwrap().status,
        404
    );
    let path = format!("/predict/{}/{}/{}", f.app, f.machine, f.metric);
    assert_eq!(client.request("GET", &path, &[], b"").unwrap().status, 405);
    // Bad float body, NaN coordinate, wrong dimension → 400.
    assert_eq!(
        client
            .request("POST", &path, &[], b"1 two 3")
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .predict(key_of(f), &[vec![f64::NAN, 2.0, 3.0]], None)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client
            .predict(key_of(f), &[vec![1.0, 2.0]], None)
            .unwrap()
            .status,
        400
    );
    // Empty body → 400.
    assert_eq!(client.request("POST", &path, &[], b"").unwrap().status, 400);
    // Bad deadline header → 400.
    let resp = client
        .request("POST", &path, &[(DEADLINE_HEADER, "soon".into())], b"1 2 3")
        .unwrap();
    assert_eq!(resp.status, 400);

    let s = server.stats();
    assert_eq!(s.rejected_malformed, 8);
    assert_eq!(s.accepted, 0);
    assert!(s.identity_holds());
    // The trust boundary did not poison serving.
    assert_still_serving(&server, &models, &workload(&models, 5, 17));
}

#[test]
fn deadline_zero_sheds_with_backpressure_hints() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let client = ChaosClient::new(server.local_addr());
    let f = &models[1];
    let resp = client
        .predict(key_of(f), &[vec![100.0, 1.0, 2.0]], Some(0))
        .unwrap();
    assert_eq!(resp.status, 503);
    let retry_s: u64 = resp
        .header("retry-after")
        .expect("retry-after")
        .parse()
        .unwrap();
    let retry_ms: u64 = resp
        .header(RETRY_AFTER_MS_HEADER)
        .expect("ms header")
        .parse()
        .unwrap();
    assert!(retry_s >= 1);
    assert!((10..=5_000).contains(&retry_ms));
    let s = server.stats();
    assert_eq!(s.shed_deadline, 1);
    assert!(s.identity_holds());
}

#[test]
fn generous_deadline_header_is_honored() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let client = ChaosClient::new(server.local_addr());
    let f = &models[2];
    let x = vec![500.0, 3.0, 1.0];
    let resp = client
        .predict(key_of(f), std::slice::from_ref(&x), Some(10_000))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.predictions()[0].to_bits(),
        server.registry().predict(&id_of(f), &x).unwrap().to_bits()
    );
}

#[test]
fn drain_flushes_a_recoverable_snapshot() {
    let models = small_fleet();
    let fs = Arc::new(MemFs::new());
    let store = Arc::new(FleetStore::open(fs.clone()).unwrap());
    let registry = registry_of(&models);
    let server = CprServer::bind_with_store(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Some(Arc::clone(&store)),
        ServerConfig::default(),
    )
    .unwrap();
    let queries = workload(&models, 30, 23);
    assert_still_serving(&server, &models, &queries);
    let addr = server.local_addr();

    let report = server.drain();
    assert_eq!(report.snapshot_error, None);
    let generation = report.snapshot_generation.expect("drain must flush");
    assert!(report.final_stats.identity_holds());

    // The drained server is really gone: no new connections served.
    let client = ChaosClient::new(addr);
    assert!(client.health().is_err(), "drained server must not answer");

    // Restart: a fresh registry recovered from the drained store serves
    // bitwise-identically to the fleet the server was fronting.
    let restored = ModelRegistry::new();
    let recovered = FleetStore::open(fs).unwrap();
    let report = restored.restore(&recovered).unwrap();
    assert_eq!(report.generation, generation);
    assert_eq!(report.restored.len(), models.len());
    assert!(report.skipped.is_empty());
    for (who, x) in &queries {
        let id = id_of(&models[*who]);
        assert_eq!(
            restored.predict(&id, x).unwrap().to_bits(),
            registry.predict(&id, x).unwrap().to_bits(),
            "restart lost the drained fleet"
        );
    }
}

#[test]
fn dropping_the_server_shuts_it_down() {
    let models = small_fleet();
    let server = start(&models, ServerConfig::default());
    let addr = server.local_addr();
    drop(server);
    assert!(ChaosClient::new(addr).health().is_err());
}
