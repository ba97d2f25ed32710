//! End-to-end over real TCP: K concurrent clients mining through the
//! server get **byte-identical** rule sets to an in-process `DarEngine`
//! on the same data, with `ServerStats` showing cache hits and zero
//! rejected connections under the bounded queue — then a graceful
//! shutdown that writes the final snapshot.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{protocol, Client, Request, ServeConfig, Server, Verb};
use mining::RuleQuery;
use std::time::Duration;

const K: usize = 8;

fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let k = i + offset;
            let jitter = (k % 9) as f64 * 0.01;
            match k % 2 {
                0 => vec![jitter, 100.0 + jitter, 5.0 + jitter * 0.1],
                _ => vec![50.0 + jitter, 200.0 + jitter, 9.0 + jitter * 0.1],
            }
        })
        .collect()
}

fn engine() -> (Partitioning, EngineConfig, DarEngine) {
    let schema = Schema::interval_attrs(3);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.1;
    let engine = DarEngine::new(partitioning.clone(), config.clone()).unwrap();
    (partitioning, config, engine)
}

fn timeout() -> Duration {
    Duration::from_secs(10)
}

#[test]
fn k_tcp_clients_get_byte_identical_rules_then_graceful_shutdown() {
    let dir = std::env::temp_dir().join("dar_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("final.snap");
    let _ = std::fs::remove_file(&snapshot_path);

    let (partitioning, engine_config, served_engine) = engine();
    let config = ServeConfig {
        threads: 4,
        queue_depth: 64,
        snapshot_path: Some(snapshot_path.clone()),
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    };
    let handle = Server::start(served_engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // --- one writer client ingests two batches -------------------------
    let batches = [rows(60, 0), rows(60, 60)];
    let mut writer = Client::connect(addr, timeout()).unwrap();
    assert_eq!(writer.ingest(batches[0].clone()).unwrap(), 60);
    assert_eq!(writer.ingest(batches[1].clone()).unwrap(), 120);

    // Prime the epoch + cache once so the K clients race on the cached
    // read path.
    let query = RuleQuery { degree_factor: 2.5, ..RuleQuery::default() };
    let primed = writer.query(query.clone()).unwrap();
    assert_eq!(primed.get("cached").unwrap().as_bool(), Some(false));

    // --- K concurrent clients send the identical query ------------------
    let query_line = Request::Query { query: query.clone() }.to_json().encode();
    let client_threads: Vec<_> = (0..K)
        .map(|_| {
            let line = query_line.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, timeout()).unwrap();
                client.round_trip_line(&line).unwrap()
            })
        })
        .collect();
    let answers: Vec<String> = client_threads.into_iter().map(|t| t.join().unwrap()).collect();

    // --- ground truth: an in-process engine on the same data ------------
    let mut local = DarEngine::new(partitioning, engine_config).unwrap();
    for batch in &batches {
        local.ingest(batch).unwrap();
    }
    let expected_outcome = local.query(&query).unwrap();
    assert!(!expected_outcome.rules.is_empty(), "the planted blocks must yield rules");
    // The served answers came from the cache; encode the expectation the
    // same way the server does.
    let expected_line = {
        let mut outcome = expected_outcome;
        outcome.cached = true;
        protocol::query_response(&outcome).encode()
    };
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(answer, &expected_line, "client {i} diverged");
    }

    // --- server-side counters: shared cache, bounded queue never dropped -
    let stats_response = writer.stats().unwrap();
    let server = stats_response.get("server").unwrap();
    let engine_block = stats_response.get("engine").unwrap();
    let shared_hits = engine_block.get("shared_read_hits").unwrap().as_u64().unwrap();
    let engine_hits = engine_block.get("cache_hits").unwrap().as_u64().unwrap();
    assert!(shared_hits + engine_hits > 0, "K identical queries must hit the cache");
    assert!(shared_hits >= (K - 1) as u64, "most reads must be lock-free, got {shared_hits}");
    assert_eq!(server.get("rejected_connections").unwrap().as_u64(), Some(0));
    assert_eq!(
        server.get("query_requests").unwrap().as_u64(),
        Some(K as u64 + 1),
        "every query served, none dropped"
    );
    assert_eq!(server.get("connections").unwrap().as_u64(), Some(K as u64 + 1));
    assert!(server.get("p99_us").unwrap().as_u64().unwrap() > 0);

    // --- malformed input gets a structured error, not a hangup ----------
    let bad = writer.round_trip_line("{not json").unwrap();
    assert_eq!(dar_serve::json::parse(&bad).unwrap().get("ok").unwrap().as_bool(), Some(false));
    let unknown = writer.round_trip_line(r#"{"verb":"frobnicate"}"#).unwrap();
    assert!(unknown.contains("frobnicate"));
    // A ragged ingest batch is rejected by engine validation, atomically.
    let ragged = Request::Ingest { rows: vec![vec![1.0, 2.0, 3.0], vec![4.0]] };
    let rejected = writer.request(&ragged).unwrap();
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(rejected.get("error").unwrap().as_str(), Some("rejected"));

    // --- graceful shutdown over the wire --------------------------------
    writer.shutdown().unwrap();
    let summary = handle.join().unwrap();
    assert!(snapshot_path.exists(), "shutdown must write the final snapshot");
    assert_eq!(summary.stats.requests(Verb::Shutdown), 1);
    assert_eq!(summary.stats.rejected_connections, 0);

    // The snapshot is a valid engine state for the next process: a
    // restored engine answers the same query with the same rules.
    let bytes = std::fs::read(&snapshot_path).unwrap();
    let (_, restore_config, _) = engine();
    let mut restored = DarEngine::restore(&bytes, restore_config, false).unwrap();
    assert_eq!(restored.tuples(), 120);
    let after_restart = restored.query(&query).unwrap();
    assert_eq!(after_restart.rules, local.query(&query).unwrap().rules);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_refuses_with_structured_error_not_unbounded_queueing() {
    let (_, _, served_engine) = engine();
    // One worker, a queue of one: the third simultaneous connection must
    // be refused.
    let config = ServeConfig {
        threads: 1,
        queue_depth: 1,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    };
    let handle = Server::start(served_engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.addr();

    // Occupy the single worker with a held-open connection…
    let mut held = Client::connect(addr, timeout()).unwrap();
    held.ingest(rows(10, 0)).unwrap(); // ensures the worker has adopted it
                                       // …fill the queue with a second idle connection…
    let _queued = Client::connect(addr, timeout()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // …then expect refusals among a burst of further connects.
    let mut refused = 0;
    for _ in 0..5 {
        let mut c = match Client::connect(addr, timeout()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.round_trip_line(r#"{"verb":"stats"}"#) {
            Ok(line) if line.contains("overloaded") => refused += 1,
            Ok(_) | Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(refused > 0, "a full bounded queue must refuse with a structured error");
    assert!(handle.stats().rejected_connections > 0);

    // The held and queued clients stay connected: shutdown ends both
    // without waiting out the read timeout.
    handle.shutdown();
    handle.join().unwrap();
    drop((held, _queued));
}

#[test]
fn graceful_shutdown_does_not_wait_out_idle_connections() {
    let (_, _, served_engine) = engine();
    let config = ServeConfig {
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    };
    let handle = Server::start(served_engine, "127.0.0.1:0", config).unwrap();
    // One client mid-session (a worker has served it and reads its next
    // line) and one that never sent a byte (queued or adopted: shutdown
    // must end either promptly).
    let mut idle = Client::connect(handle.addr(), timeout()).unwrap();
    idle.ingest(rows(10, 0)).unwrap();
    let silent = Client::connect(handle.addr(), timeout()).unwrap();

    let started = std::time::Instant::now();
    handle.shutdown();
    handle.join().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown waited {took:?} on idle clients");
    // The server hung up on the idle client.
    assert!(idle.round_trip_line(r#"{"verb":"stats"}"#).is_err());
    drop(silent);
}
