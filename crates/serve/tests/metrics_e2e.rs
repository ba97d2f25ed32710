//! End-to-end observability: a server with a Prometheus exposition
//! listener and a WAL, driven through a real ingest + query + stats
//! cycle over TCP. Asserts:
//!
//! * the `stats` verb's p50/p99 equal the quantiles derived from the
//!   server's own latency histogram (the reservoir is gone);
//! * the `metrics` verb returns the registry with families from every
//!   instrumented crate;
//! * a Prometheus scrape of `--metrics-addr` contains `# TYPE` lines and
//!   families from all five instrumented crates — including zero-valued
//!   ones that have seen no traffic (eager registration).

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{Client, ServeConfig, Server};
use mining::RuleQuery;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let k = i + offset;
            let jitter = (k % 9) as f64 * 0.01;
            match k % 2 {
                0 => vec![jitter, 100.0 + jitter],
                _ => vec![50.0 + jitter, 200.0 + jitter],
            }
        })
        .collect()
}

fn engine() -> DarEngine {
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.1;
    DarEngine::new(partitioning, config).unwrap()
}

fn timeout() -> Duration {
    Duration::from_secs(10)
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read exposition");
    out
}

#[test]
fn exposition_covers_all_crates_and_stats_match_histogram() {
    let dir = std::env::temp_dir().join("dar_serve_metrics_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("metrics.wal");
    let _ = std::fs::remove_file(&wal_path);

    let config = ServeConfig {
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        wal_path: Some(wal_path.clone()),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let handle = Server::start(engine(), "127.0.0.1:0", config).unwrap();
    let metrics_addr = handle.metrics_addr().expect("exposer bound");

    // --- drive a real workload over TCP --------------------------------
    let mut client = Client::connect(handle.addr(), timeout()).unwrap();
    assert_eq!(client.ingest(rows(60, 0)).unwrap(), 60);
    let outcome = client.query(RuleQuery::default()).unwrap();
    assert_eq!(outcome.get("ok").and_then(|v| v.as_bool()), Some(true));
    let stats_wire = client.stats().unwrap();
    // The wire snapshot was taken while the stats request itself was
    // still unrecorded, so only shape is asserted on it; exact equality
    // is checked below once the population quiesces.
    let server_json = stats_wire.get("server").expect("server stats on the wire");
    assert!(server_json.get("p50_us").and_then(|v| v.as_u64()).is_some());
    assert!(server_json.get("p99_us").and_then(|v| v.as_u64()).is_some());

    // --- metrics verb returns the registry -----------------------------
    let metrics_wire = client.metrics().unwrap();

    // --- stats verb p50/p99 equal histogram-derived quantiles ----------
    // Quiesce: latencies are recorded after each response is flushed, so
    // wait until all four requests (ingest, query, stats, metrics) have
    // landed; nothing else records after that.
    let deadline = std::time::Instant::now() + timeout();
    while handle.latency_snapshot().count < 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = handle.stats();
    let hist = handle.latency_snapshot();
    assert_eq!(snap.p50_us, hist.quantile(0.50) / 1_000, "p50 must be histogram-derived");
    assert_eq!(snap.p99_us, hist.quantile(0.99) / 1_000, "p99 must be histogram-derived");
    assert_eq!(snap.total_requests(), hist.count, "every request is recorded");
    assert_eq!(snap.total_requests(), 4, "ingest + query + stats + metrics recorded");
    let registry = metrics_wire.get("registry").expect("registry embedded");
    let families: Vec<String> = registry
        .get("metrics")
        .and_then(|m| m.as_array())
        .expect("metrics array")
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    for family in [
        "dar_birch_inserts_total",
        "dar_mining_graph_builds_total",
        "dar_engine_ingest_batches_total",
        "dar_durable_wal_appends_total",
        "dar_serve_requests_total",
    ] {
        assert!(families.iter().any(|f| f == family), "{family} missing from metrics verb");
    }
    assert!(registry.get("events").and_then(|e| e.as_array()).is_some(), "journal embedded");

    // --- Prometheus scrape covers all five crates ----------------------
    let text = scrape(metrics_addr);
    assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
    assert!(text.contains("text/plain"), "{text}");
    for family in [
        "# TYPE dar_birch_inserts_total counter",
        "# TYPE dar_birch_rebuilds_total counter", // zero-valued, eagerly registered
        "# TYPE dar_mining_cliques_total counter",
        "# TYPE dar_mining_phase2_build_ns histogram",
        "# TYPE dar_engine_phase1_insert_ns histogram",
        "# TYPE dar_engine_cache_misses_total counter",
        "# TYPE dar_durable_wal_appends_total counter",
        "# TYPE dar_serve_requests_total counter",
        "# TYPE dar_serve_request_ns histogram",
        "# TYPE dar_serve_degraded gauge",
    ] {
        assert!(text.contains(family), "scrape missing {family:?}:\n{text}");
    }
    // Labelled per-verb series with real counts.
    assert!(text.contains("dar_serve_requests_total{verb=\"ingest\"}"), "{text}");
    assert!(text.contains("dar_serve_requests_total{verb=\"query\"}"), "{text}");
    // The WAL saw the acknowledged batch.
    let wal_appends = text
        .lines()
        .find(|l| l.starts_with("dar_durable_wal_appends_total"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("wal appends line parses");
    assert!(wal_appends >= 1, "the acknowledged ingest batch reached the WAL");

    // --- graceful shutdown also stops the exposer ----------------------
    client.shutdown().unwrap();
    drop(client);
    let summary = handle.join().unwrap();
    assert!(summary.stats.total_requests() >= 4);
    assert!(
        TcpStream::connect(metrics_addr).is_err() || {
            std::thread::sleep(Duration::from_millis(100));
            TcpStream::connect(metrics_addr).is_err()
        },
        "metrics listener still accepting after shutdown"
    );
}
