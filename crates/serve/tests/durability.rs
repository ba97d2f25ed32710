//! The server's durability contract, end to end over real sockets:
//! apply-then-log ingest, sticky degraded (read-only) mode when the WAL
//! fails, counted snapshot-install failures, and restart recovery that
//! loses no acknowledged batch.

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::storage::scratch_dir;
use dar_durable::{FaultPlan, FaultyStorage};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{Backoff, Client, Request, ServeConfig, Server, ServerError};
use mining::RuleQuery;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn engine() -> DarEngine {
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    DarEngine::new(partitioning, config).unwrap()
}

fn batch(offset: usize) -> Vec<Vec<f64>> {
    (0..30)
        .map(|i| {
            let jitter = ((i + offset) % 7) as f64 * 0.01;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

fn config(dir: &Path, storage: Arc<FaultyStorage>) -> ServeConfig {
    ServeConfig {
        threads: 2,
        queue_depth: 8,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        snapshot_path: Some(dir.join("epoch.snap")),
        wal_path: Some(dir.join("ingest.wal")),
        storage,
        ..ServeConfig::default()
    }
}

/// One WAL frame's size for a `batch(...)`-shaped batch, probed against
/// healthy storage so fault budgets can aim at frame boundaries.
fn frame_len() -> u64 {
    let dir = scratch_dir("serve_probe");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut store, _) =
        dar_durable::DurableStore::open(storage, None, Some(dir.join("ingest.wal"))).unwrap();
    store.log_batch(&batch(0)).unwrap();
    let len = std::fs::read(dir.join("ingest.wal")).unwrap().len() as u64 - 8;
    std::fs::remove_dir_all(&dir).ok();
    len
}

/// A WAL append failure refuses the batch with a structured `degraded`
/// error and flips the server read-only — queries keep working, further
/// ingest is refused up front, and the flag shows in `stats`.
#[test]
fn wal_failure_degrades_to_read_only() {
    let dir = scratch_dir("serve_degraded");
    // Budget for exactly one frame: the first batch commits, the second
    // append tears mid-frame.
    let storage = FaultyStorage::new(FaultPlan {
        fail_append_after_bytes: Some(frame_len()),
        ..FaultPlan::default()
    });
    let handle = Server::start(engine(), "127.0.0.1:0", config(&dir, storage)).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();

    assert_eq!(client.ingest(batch(0)).unwrap(), 30);

    let err = client.ingest(batch(1)).unwrap_err();
    let server_error = ServerError::of(&err).expect("structured error");
    assert_eq!(server_error.code, "degraded");
    assert!(server_error.is_transient());

    // Sticky: refused before touching the engine now.
    let err = client.ingest(batch(2)).unwrap_err();
    assert_eq!(ServerError::of(&err).unwrap().code, "degraded");

    // Reads still serve; the stats verb reports the mode and counters.
    assert!(client.query(RuleQuery::default()).unwrap().get("ok").is_some());
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("degraded").and_then(dar_serve::Json::as_bool), Some(true));
    assert_eq!(server.get("wal_appends").and_then(dar_serve::Json::as_u64), Some(1));
    assert_eq!(server.get("wal_append_failures").and_then(dar_serve::Json::as_u64), Some(1));

    // Bounded retry surfaces the same degraded error, not a hang.
    let backoff = Backoff { attempts: 2, base: Duration::from_millis(1), ..Backoff::default() };
    let err =
        client.request_with_retry(&Request::Ingest { rows: batch(3) }, &backoff, None).unwrap_err();
    assert_eq!(ServerError::of(&err).unwrap().code, "degraded");

    client.shutdown().unwrap();
    let summary = handle.join();
    // The final snapshot may fail too (same broken storage) — either way
    // the join returns rather than hanging.
    drop(summary);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed snapshot install is counted, reported over the wire, and
/// leaves the server fully operational; after the fault clears, the next
/// install succeeds.
#[test]
fn snapshot_install_failures_are_counted_then_recover() {
    let dir = scratch_dir("serve_snapfail");
    let storage =
        FaultyStorage::new(FaultPlan { fail_rename_from: Some(0), ..FaultPlan::default() });
    let handle = Server::start(engine(), "127.0.0.1:0", config(&dir, storage.clone())).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    client.ingest(batch(0)).unwrap();

    let err = client.snapshot().unwrap_err();
    assert_eq!(ServerError::of(&err).unwrap().code, "io");
    let stats = client.stats().unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(server.get("snapshot_failures").and_then(dar_serve::Json::as_u64), Some(1));
    assert_eq!(server.get("snapshots_written").and_then(dar_serve::Json::as_u64), Some(0));

    storage.heal();
    let response = client.snapshot().unwrap();
    assert_eq!(response.get("ok").and_then(dar_serve::Json::as_bool), Some(true));
    assert!(dir.join("epoch.snap").exists());

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Stop a WAL-only server without a final snapshot and restart it on the
/// same WAL with a fresh engine: the restart recovers every acknowledged
/// batch and answers exactly as an uncrashed engine over the same
/// batches.
#[test]
fn restart_replays_every_acked_batch() {
    let dir = scratch_dir("serve_restart");
    let storage = FaultyStorage::new(FaultPlan::default());
    let serve_config = ServeConfig {
        snapshot_path: None, // WAL-only: nothing but the log survives
        ..config(&dir, storage.clone())
    };
    let handle = Server::start(engine(), "127.0.0.1:0", serve_config.clone()).unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    assert_eq!(client.ingest(batch(0)).unwrap(), 30);
    assert_eq!(client.ingest(batch(1)).unwrap(), 60);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // The restart recovers from the WAL itself.
    let handle = Server::start(engine(), "127.0.0.1:0", serve_config).unwrap();
    let report = handle.recovery().expect("a WAL is configured");
    assert_eq!(report.wal_batches_replayed, 2);
    assert_eq!(handle.shared().tuples(), 60);

    let mut control = engine();
    control.ingest(&batch(0)).unwrap();
    control.ingest(&batch(1)).unwrap();
    let a = handle.shared().query(&RuleQuery::default()).unwrap();
    let b = control.query(&RuleQuery::default()).unwrap();
    assert_eq!(a.rules, b.rules);
    assert!(!a.rules.is_empty());

    // The restarted server serves the recovered engine as usual.
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    let stats = client.stats().unwrap();
    let engine_stats = stats.get("engine").unwrap();
    assert_eq!(engine_stats.get("wal_batches_replayed").and_then(dar_serve::Json::as_u64), Some(2));
    assert_eq!(client.ingest(batch(2)).unwrap(), 90);
    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
