//! End-to-end over real TCP: the distributed-equality and crash-recovery
//! acceptance bars.
//!
//! * **Distributed equality** — the same batch stream through a
//!   coordinator over 1, 2, and 4 shards yields query responses
//!   **byte-identical** to a single `dar serve` instance, through the
//!   coordinator front-end's wire surface. The workload uses
//!   dyadic-fraction jitter (multiples of 0.25) over well-separated
//!   blocks, so every per-set floating-point sum is exact in any
//!   grouping and the merged forest reproduces the single-engine
//!   summaries to the bit (see DESIGN.md §12 for the general-data
//!   caveat).
//! * **Crash recovery** — killing a shard between rounds and restarting
//!   it from its write-ahead log loses no acknowledged batch: the
//!   re-merged rules still match the uncrashed control byte for byte.
//! * **SON rescan** — the fanned exact-count pass sums to the
//!   frequencies a single scan over the full relation reports.

use dar_cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{protocol, recover_backend, Client, Request, ServeConfig, Server, ServerHandle};
use mining::RuleQuery;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Two well-separated blocks, dyadic jitter (0.25 steps): exact fp sums
/// in any order, and every batch starts with a block-0 row so cluster
/// extraction order matches the single engine's.
fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let k = i + offset;
            let jitter = (k % 4) as f64 * 0.25;
            if k.is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 5.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn fresh_engine() -> DarEngine {
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    DarEngine::new(partitioning, engine_config()).unwrap()
}

fn timeout() -> Duration {
    Duration::from_secs(10)
}

fn shard_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    }
}

fn start_shards(count: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..count)
        .map(|_| Server::start(fresh_engine(), "127.0.0.1:0", shard_config()).unwrap())
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

fn cluster_config(shards: Vec<String>) -> ClusterConfig {
    ClusterConfig {
        shards,
        timeout: timeout(),
        engine: engine_config(),
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ClusterConfig::default()
    }
}

fn query_line() -> String {
    Request::Query { query: RuleQuery::default() }.to_json().encode()
}

/// Drives `batches` through a single server round by round (ingest the
/// round's batches, then query), returning one response line per round.
fn single_engine_rounds(rounds: &[Vec<Vec<Vec<f64>>>]) -> Vec<String> {
    let handle = Server::start(fresh_engine(), "127.0.0.1:0", shard_config()).unwrap();
    let mut client = Client::connect(handle.addr(), timeout()).unwrap();
    let mut lines = Vec::new();
    for round in rounds {
        for batch in round {
            client.ingest(batch.clone()).unwrap();
        }
        lines.push(client.round_trip_line(&query_line()).unwrap());
    }
    handle.shutdown();
    handle.join().unwrap();
    lines
}

#[test]
fn coordinator_rules_are_byte_identical_to_single_engine_at_1_2_4_shards() {
    // Two rounds of two batches each; a query closes each round.
    let rounds: Vec<Vec<Vec<Vec<f64>>>> =
        vec![vec![rows(40, 0), rows(40, 40)], vec![rows(40, 80), rows(40, 120)]];
    let expected = single_engine_rounds(&rounds);
    assert!(
        expected[0].contains("\"antecedent\""),
        "the planted blocks must yield rules, got: {}",
        expected[0]
    );

    for shard_count in [1usize, 2, 4] {
        let (shard_handles, addrs) = start_shards(shard_count);
        let coordinator = Coordinator::connect(cluster_config(addrs)).unwrap();
        let front = CoordinatorServer::start(coordinator, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(front.addr(), timeout()).unwrap();

        for (round, expected_line) in rounds.iter().zip(&expected) {
            for batch in round {
                client.ingest(batch.clone()).unwrap();
            }
            let got = client.round_trip_line(&query_line()).unwrap();
            assert_eq!(
                &got, expected_line,
                "distributed rules diverged from the single engine at {shard_count} shard(s)"
            );
        }

        // The ordinary read verbs work against the front-end too.
        let stats = client.stats().unwrap();
        let routed =
            stats.get("coordinator").and_then(|c| c.get("routed_tuples")).and_then(|j| j.as_u64());
        assert_eq!(routed, Some(160), "coordinator stats must count routed tuples");
        let clusters = client.request(&Request::Clusters).unwrap();
        assert_eq!(clusters.get("ok").and_then(|j| j.as_bool()), Some(true));

        // Shard verbs are refused on the coordinator surface.
        let refused = client.request(&Request::PullSnapshot).unwrap();
        assert_eq!(refused.get("ok").and_then(|j| j.as_bool()), Some(false));

        client.shutdown().unwrap();
        front.join();
        for handle in shard_handles {
            handle.shutdown();
            handle.join().unwrap();
        }
    }
}

/// Each shard's `pull_snapshot` request counter, read over the wire.
fn shard_pull_counts(addrs: &[String]) -> Vec<u64> {
    addrs
        .iter()
        .map(|addr| {
            let mut client = Client::connect(addr.as_str(), timeout()).unwrap();
            let stats = client.stats().unwrap();
            stats
                .get("server")
                .and_then(|s| s.get("pull_snapshot_requests"))
                .and_then(|j| j.as_u64())
                .unwrap_or(0)
        })
        .collect()
}

#[test]
fn steady_state_merge_reuses_unmoved_shard_snapshots() {
    let (shard_handles, addrs) = start_shards(3);
    let mut coordinator = Coordinator::connect(cluster_config(addrs.clone())).unwrap();

    // Round 1: seqs 1..=3 home on shards 0..=2; the first query pulls all.
    let round1 = [rows(40, 0), rows(40, 40), rows(40, 80)];
    for batch in &round1 {
        coordinator.ingest(batch).unwrap();
    }
    let (first, cov) = coordinator.query(&RuleQuery::default()).unwrap();
    assert!(!cov.degraded);
    assert_eq!(shard_pull_counts(&addrs), vec![1, 1, 1]);

    // A repeated query is answered from the merged view: no pulls at all.
    let (again, _) = coordinator.query(&RuleQuery::default()).unwrap();
    assert_eq!(again.rules, first.rules);
    assert_eq!(shard_pull_counts(&addrs), vec![1, 1, 1]);

    // One more batch (seq 4 → shard 0): the next merge re-pulls only the
    // shard whose acked watermark moved — shards 1 and 2 are served from
    // the coordinator's parsed-snapshot cache.
    coordinator.ingest(&rows(40, 120)).unwrap();
    let (second, cov) = coordinator.query(&RuleQuery::default()).unwrap();
    assert!(!cov.degraded, "cache reuse must not dent coverage");
    assert_eq!(cov.fraction(), 1.0);
    assert_eq!(shard_pull_counts(&addrs), vec![2, 1, 1], "unmoved shards must not be re-pulled");

    // The partially-cached merge is still byte-identical to the control
    // that saw the same batch stream.
    let mut control = fresh_engine();
    for batch in &round1 {
        control.ingest(batch).unwrap();
    }
    control.query(&RuleQuery::default()).unwrap();
    control.ingest(&rows(40, 120)).unwrap();
    let expected = control.query(&RuleQuery::default()).unwrap();
    assert_eq!(
        protocol::query_response(&second).encode(),
        protocol::query_response(&expected).encode(),
        "cached-merge rules diverged from the single engine"
    );

    drop(coordinator);
    for handle in shard_handles {
        handle.shutdown();
        handle.join().unwrap();
    }
}

#[test]
fn window_advance_invalidates_the_snapshot_cache() {
    use dar_serve::WindowSpec;

    // One windowed shard (4-batch windows: a single batch never seals on
    // its own). An explicit advance changes the shard's snapshot without
    // moving its acked watermark — exactly the case the cache must not
    // serve stale.
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let engine = DarEngine::with_window(
        partitioning,
        engine_config(),
        Some(WindowSpec { batches: 4, slots: 2 }),
    )
    .unwrap();
    let handle = Server::start(engine, "127.0.0.1:0", shard_config()).unwrap();
    let addrs = vec![handle.addr().to_string()];
    let mut coordinator = Coordinator::connect(cluster_config(addrs.clone())).unwrap();

    coordinator.ingest(&rows(40, 0)).unwrap();
    coordinator.query(&RuleQuery::default()).unwrap();
    assert_eq!(shard_pull_counts(&addrs), vec![1]);

    coordinator.advance().unwrap();
    coordinator.query(&RuleQuery::default()).unwrap();
    assert_eq!(
        shard_pull_counts(&addrs),
        vec![2],
        "a sealed window must force a re-pull despite the unmoved watermark"
    );

    drop(coordinator);
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn advance_passes_through_to_windowed_shards_and_subscribe_is_refused() {
    use dar_serve::{Json, WindowSpec};

    // Two windowed shards behind a coordinator: the `advance` verb fans
    // out to every shard in order and reports each shard's seal.
    let spec = WindowSpec { batches: 4, slots: 2 };
    let shard_handles: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let schema = Schema::interval_attrs(2);
            let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
            let engine = DarEngine::with_window(partitioning, engine_config(), Some(spec)).unwrap();
            Server::start(engine, "127.0.0.1:0", shard_config()).unwrap()
        })
        .collect();
    let addrs: Vec<String> = shard_handles.iter().map(|h| h.addr().to_string()).collect();
    let coordinator = Coordinator::connect(cluster_config(addrs.clone())).unwrap();
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(front.addr(), timeout()).unwrap();

    client.ingest(rows(40, 0)).unwrap();
    let response = client.advance().unwrap();
    let shards = match response.get("shards") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("advance response lacks a shards array: {other:?}"),
    };
    assert_eq!(shards.len(), 2, "advance must reach every shard");
    for (entry, addr) in shards.iter().zip(&addrs) {
        assert_eq!(entry.get("addr").and_then(Json::as_str), Some(addr.as_str()));
        assert_eq!(entry.get("sealed").and_then(|j| j.as_u64()), Some(0));
        assert_eq!(entry.get("opened").and_then(|j| j.as_u64()), Some(1));
    }

    // Subscriptions are refused at the coordinator with a structured
    // error pointing at the shards — never a hangup.
    let line = client.round_trip_line(r#"{"verb":"subscribe"}"#).unwrap();
    assert!(line.contains("unsupported"), "got: {line}");
    assert!(line.contains("shards directly"), "got: {line}");

    client.shutdown().unwrap();
    front.join();
    for handle in shard_handles {
        handle.shutdown();
        handle.join().unwrap();
    }

    // Against static shards, the shard's own structured `unsupported`
    // error surfaces through the coordinator verbatim.
    let (shard_handles, addrs) = start_shards(1);
    let coordinator = Coordinator::connect(cluster_config(addrs)).unwrap();
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(front.addr(), timeout()).unwrap();
    let err = client.advance().unwrap_err();
    assert_eq!(dar_serve::ServerError::of(&err).unwrap().code, "unsupported");
    client.shutdown().unwrap();
    front.join();
    for handle in shard_handles {
        handle.shutdown();
        handle.join().unwrap();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dar_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_shard_config(wal: PathBuf) -> ServeConfig {
    ServeConfig { wal_path: Some(wal), ..shard_config() }
}

#[test]
fn shard_crash_recovery_loses_no_acked_batch_and_rules_still_match() {
    let dir = temp_dir("crash");
    let wal_paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("shard{i}.wal"))).collect();

    let mut handles: Vec<Option<ServerHandle>> = wal_paths
        .iter()
        .map(|wal| {
            Some(
                Server::start(fresh_engine(), "127.0.0.1:0", durable_shard_config(wal.clone()))
                    .unwrap(),
            )
        })
        .collect();
    let addrs: Vec<String> =
        handles.iter().map(|h| h.as_ref().unwrap().addr().to_string()).collect();

    let mut coordinator = Coordinator::connect(cluster_config(addrs.clone())).unwrap();
    let round1 = [rows(40, 0), rows(40, 40)];
    for batch in &round1 {
        coordinator.ingest(batch).unwrap();
    }
    let (before, coverage) = coordinator.query(&RuleQuery::default()).unwrap();
    assert!(!before.rules.is_empty());
    assert!(!coverage.degraded, "all shards are healthy: full coverage");
    assert_eq!(coverage.fraction(), 1.0);

    // "Crash" shard 1: tear the server down and restart on the same
    // address from its write-ahead log alone (the graceful path writes no
    // snapshot here — recovery is pure WAL replay; the CI cluster job
    // does the same dance with a real `kill -9`).
    let crashed = handles[1].take().unwrap();
    let crashed_addr = addrs[1].clone();
    crashed.shutdown();
    crashed.join().unwrap();
    let config = durable_shard_config(wal_paths[1].clone());
    let (recovered, report) =
        recover_backend(fresh_engine(), Arc::clone(&config.storage), None, Some(&wal_paths[1]))
            .unwrap();
    assert_eq!(report.wal_batches_replayed, 1, "shard 1 held one of the two round-1 batches");
    assert_eq!(recovered.tuples(), 40, "WAL replay must restore every acked tuple");
    handles[1] = Some(Server::start(recovered, &crashed_addr, config).unwrap());

    // Next round lands on both shards (the coordinator's clients
    // redial) and the re-merged rules match a
    // control engine that never crashed.
    let round2 = [rows(40, 80), rows(40, 120)];
    for batch in &round2 {
        coordinator.ingest(batch).unwrap();
    }
    let (after, after_coverage) = coordinator.query(&RuleQuery::default()).unwrap();
    assert!(!after_coverage.degraded, "the restarted shard serves again: full coverage");

    // The uncrashed control mirrors the coordinator's two ingest→query
    // rounds, so the epochs (and hence the encoded responses) line up.
    let mut control = fresh_engine();
    for batch in &round1 {
        control.ingest(batch).unwrap();
    }
    control.query(&RuleQuery::default()).unwrap();
    for batch in &round2 {
        control.ingest(batch).unwrap();
    }
    let expected = control.query(&RuleQuery::default()).unwrap();

    assert_eq!(
        protocol::query_response(&after).encode(),
        protocol::query_response(&expected).encode(),
        "post-crash merged rules must match the uncrashed control"
    );

    // Drop the coordinator first so its shard connections close and the
    // shards' worker threads exit without waiting out the read timeout.
    drop(coordinator);
    for handle in handles.into_iter().flatten() {
        handle.shutdown();
        handle.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn son_rescan_sums_to_exact_global_frequencies() {
    let dir = temp_dir("rescan");
    let wal_paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("shard{i}.wal"))).collect();
    let handles: Vec<ServerHandle> = wal_paths
        .iter()
        .map(|wal| {
            Server::start(fresh_engine(), "127.0.0.1:0", durable_shard_config(wal.clone())).unwrap()
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    let mut config = cluster_config(addrs);
    config.rescan = true;
    let mut coordinator = Coordinator::connect(config).unwrap();
    let batches = [rows(40, 0), rows(40, 40), rows(40, 80)];
    for batch in &batches {
        coordinator.ingest(batch).unwrap();
    }
    let (outcome, _) = coordinator.query(&RuleQuery::default()).unwrap();
    assert!(!outcome.rules.is_empty());
    let (rows_rescanned, counts) = coordinator.rescan(&outcome).unwrap();

    assert_eq!(rows_rescanned, 120, "the shards' WALs jointly cover the whole relation");
    assert_eq!(counts.len(), outcome.rules.len());
    // The planted workload has two clean blocks of 60 tuples each; every
    // mined rule's cluster combination is one of the blocks, so its exact
    // frequency is the block population.
    for (rule, count) in outcome.rules.iter().zip(&counts) {
        assert_eq!(
            *count, 60,
            "rule {:?} => {:?} should match exactly one 60-tuple block",
            rule.antecedent, rule.consequent
        );
    }

    drop(coordinator);
    for handle in handles {
        handle.shutdown();
        handle.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
