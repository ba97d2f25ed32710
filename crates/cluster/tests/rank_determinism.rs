//! Ranked answers through the coordinator — the distributed half of the
//! rule-quality acceptance bar.
//!
//! A query carrying non-default rank knobs (measure, top-k, redundancy
//! pruning) must come back **byte-identical** whether it is served by a
//! single `dar serve` instance or by a coordinator over 1, 2, or 4
//! shards: the merged summary reproduces the single engine's clusters to
//! the bit (dyadic workload, see `cluster_e2e.rs`), and ranking is a
//! deterministic function of the rule statistics with identity
//! tie-breaks, so shard layout cannot reorder the answer. A generously
//! budgeted (anytime) query through the same front-end converges to the
//! exact bytes — full coverage is never annotated.

use dar_cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{Client, Request, ServeConfig, Server, ServerHandle};
use mining::{Measure, RuleQuery};
use std::time::Duration;

/// Two well-separated blocks, dyadic jitter (0.25 steps): exact fp sums
/// in any grouping, so shard merges reproduce the single engine's
/// summaries byte for byte.
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

fn ranked_query() -> RuleQuery {
    RuleQuery { measure: Measure::Lift, top_k: 10, prune_redundant: true, ..RuleQuery::default() }
}

fn query_line(query: &RuleQuery) -> String {
    Request::Query { query: query.clone() }.to_json().encode()
}

/// Ingests `batches` into a single server, then runs each query line once
/// (in order), returning the raw response lines.
fn single_engine_lines(batches: &[Vec<Vec<f64>>], lines: &[String]) -> Vec<String> {
    let handle = Server::start(fresh_engine(), "127.0.0.1:0", shard_config()).unwrap();
    let mut client = Client::connect(handle.addr(), timeout()).unwrap();
    for batch in batches {
        client.ingest(batch.clone()).unwrap();
    }
    let responses = lines.iter().map(|l| client.round_trip_line(l).unwrap()).collect();
    handle.shutdown();
    handle.join().unwrap();
    responses
}

#[test]
fn ranked_answers_are_byte_identical_at_1_2_4_shards() {
    let batches = vec![rows(40, 0), rows(40, 40)];
    // Exact ranked query, then the same knobs under a generous anytime
    // budget — served back to back so both sides age the same way.
    let exact_line = query_line(&ranked_query());
    let budgeted_line = query_line(&RuleQuery { budget_ms: 60_000, ..ranked_query() });
    let expected = single_engine_lines(&batches, &[exact_line.clone(), budgeted_line.clone()]);

    assert!(
        expected[0].contains("\"antecedent\""),
        "the planted blocks must yield rules, got: {}",
        expected[0]
    );
    assert!(expected[0].contains("\"measure\":\"lift\""), "got: {}", expected[0]);
    assert!(
        !expected[1].contains("\"approx\""),
        "full-coverage anytime answers are never annotated, got: {}",
        expected[1]
    );

    for shard_count in [1usize, 2, 4] {
        let shard_handles: Vec<ServerHandle> = (0..shard_count)
            .map(|_| Server::start(fresh_engine(), "127.0.0.1:0", shard_config()).unwrap())
            .collect();
        let addrs = shard_handles.iter().map(|h| h.addr().to_string()).collect();
        let config = ClusterConfig {
            shards: addrs,
            timeout: timeout(),
            engine: engine_config(),
            threads: 2,
            read_timeout: timeout(),
            write_timeout: timeout(),
            ..ClusterConfig::default()
        };
        let coordinator = Coordinator::connect(config).unwrap();
        let front = CoordinatorServer::start(coordinator, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(front.addr(), timeout()).unwrap();

        for batch in &batches {
            client.ingest(batch.clone()).unwrap();
        }
        for (line, expected_line) in [&exact_line, &budgeted_line].into_iter().zip(&expected) {
            let got = client.round_trip_line(line).unwrap();
            assert_eq!(
                &got, expected_line,
                "ranked answer diverged from the single engine at {shard_count} shard(s)"
            );
        }

        client.shutdown().unwrap();
        front.join();
        for handle in shard_handles {
            handle.shutdown();
            handle.join().unwrap();
        }
    }
}
