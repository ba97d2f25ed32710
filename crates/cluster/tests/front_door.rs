//! The coordinator behind the shared front door: the same backpressure,
//! per-verb accounting and remote-shutdown gate as `dar serve`, checked
//! over real TCP against a coordinator with one in-process shard.

use dar_cluster::{ClusterConfig, Coordinator, CoordinatorHandle, CoordinatorServer};
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::json::Json;
use dar_serve::{Client, ServeConfig, Server, ServerHandle};
use mining::RuleQuery;
use std::time::Duration;

fn timeout() -> Duration {
    Duration::from_secs(10)
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 5.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            let jitter = (k % 4) as f64 * 0.25;
            if k.is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

/// One shard and a coordinator over it, the front-end shaped by `front`.
fn start(front: impl FnOnce(&mut ClusterConfig)) -> (ServerHandle, CoordinatorHandle) {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let shard_config = ServeConfig {
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    };
    let engine = DarEngine::new(partitioning, engine_config()).unwrap();
    let shard = Server::start(engine, "127.0.0.1:0", shard_config).unwrap();
    let mut config = ClusterConfig {
        shards: vec![shard.addr().to_string()],
        timeout: timeout(),
        engine: engine_config(),
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ClusterConfig::default()
    };
    front(&mut config);
    let coordinator = Coordinator::connect(config).unwrap();
    (shard, CoordinatorServer::start(coordinator, "127.0.0.1:0").unwrap())
}

fn stop(shard: ServerHandle, front: CoordinatorHandle) {
    front.shutdown();
    front.join();
    shard.shutdown();
    shard.join().unwrap();
}

fn ok(response: &Json) -> Option<bool> {
    response.get("ok").and_then(Json::as_bool)
}

#[test]
fn a_full_accept_queue_refuses_with_overloaded() {
    let (shard, front) = start(|config| {
        config.threads = 1;
        config.queue_depth = 1;
    });
    let addr = front.addr();

    // Hold the only worker with an open connection it has adopted, and
    // fill the one queue slot with a second idle connection.
    let mut held = Client::connect(addr, timeout()).unwrap();
    assert_eq!(ok(&held.stats().unwrap()), Some(true));
    let queued = Client::connect(addr, timeout()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let mut refused = 0;
    for _ in 0..5 {
        let Ok(mut extra) = Client::connect(addr, timeout()) else { continue };
        if let Ok(line) = extra.round_trip_line(r#"{"verb":"stats"}"#) {
            if line.contains(r#""error":"overloaded""#) {
                refused += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(refused > 0, "a full bounded queue must refuse with a structured error");

    drop((held, queued));
    stop(shard, front);
}

/// The `dar_serve_request_ns{verb="query"}` observation count in a
/// `metrics` response.
fn query_latency_count(metrics: &Json) -> u64 {
    let Some(Json::Arr(families)) = metrics.get("registry").and_then(|r| r.get("metrics")) else {
        panic!("metrics response carries the registry");
    };
    families
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some("dar_serve_request_ns")
                && m.get("labels").and_then(|l| l.get("verb")).and_then(Json::as_str)
                    == Some("query")
        })
        .and_then(|m| m.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn coordinator_requests_land_in_its_table_and_the_registry() {
    let (shard, front) = start(|_| {});
    let mut client = Client::connect(front.addr(), timeout()).unwrap();
    let queries_before = query_latency_count(&client.metrics().unwrap());

    assert_eq!(client.ingest(rows(40)).unwrap(), 40);
    assert_eq!(ok(&client.query(RuleQuery::default()).unwrap()), Some(true));
    let bad = client.round_trip_line("{not json").unwrap();
    assert!(bad.contains(r#""error":"bad-json""#), "{bad}");

    // Each request is recorded before the next line on its connection is
    // read: metrics, ingest, query and the bad line.
    let stats = client.stats().unwrap();
    let coordinator = stats.get("coordinator").unwrap();
    assert_eq!(coordinator.get("requests").and_then(Json::as_u64), Some(4));
    assert_eq!(coordinator.get("errors").and_then(Json::as_u64), Some(1));

    // Only this test sends `query` to a front door in this process: the
    // shard never sees that verb.
    let queries_after = query_latency_count(&client.metrics().unwrap());
    assert_eq!(queries_after - queries_before, 1, "the coordinator's query was timed");

    drop(client);
    stop(shard, front);
}

#[test]
fn remote_shutdown_can_be_forbidden() {
    let (shard, front) = start(|config| config.allow_remote_shutdown = false);
    let mut client = Client::connect(front.addr(), timeout()).unwrap();
    let refused = client.round_trip_line(r#"{"verb":"shutdown"}"#).unwrap();
    assert!(refused.contains(r#""error":"forbidden""#), "{refused}");
    assert_eq!(ok(&client.stats().unwrap()), Some(true), "the connection keeps serving");
    let mut fresh = Client::connect(front.addr(), timeout()).unwrap();
    assert_eq!(ok(&fresh.stats().unwrap()), Some(true), "the server keeps accepting");

    drop((client, fresh));
    stop(shard, front);
}
