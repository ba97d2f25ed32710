//! Request lines are bounded on both server surfaces — a `dar serve`
//! shard and the coordinator front-end. A line longer than
//! `MAX_REQUEST_LINE` gets a structured `line-too-long` error and the
//! connection closes; the server keeps serving new connections, and a
//! multi-megabyte ingest below the bound still goes through (on the
//! coordinator it is also re-sent to the shard as one `shard_ingest` line).

use dar_cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::json;
use dar_serve::protocol::{Request, MAX_REQUEST_LINE};
use dar_serve::{Client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn timeout() -> Duration {
    Duration::from_secs(30)
}

fn engine_config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 5.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn start_shard() -> dar_serve::ServerHandle {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let engine = DarEngine::new(partitioning, engine_config()).unwrap();
    let config = ServeConfig {
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ServeConfig::default()
    };
    Server::start(engine, "127.0.0.1:0", config).unwrap()
}

/// Two blocks with thirds as jitter, so every value prints with about 17
/// significant digits and the ingest line runs to megabytes.
fn long_rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            let jitter = (k % 1000) as f64 / 3000.0;
            if k.is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

/// Sends `MAX_REQUEST_LINE + 1` bytes with no newline: the server must
/// answer `line-too-long` and then close the connection.
fn oversized_line_is_refused(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(timeout())).unwrap();
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = json::parse(line.trim_end()).unwrap();
    assert_eq!(response.get("ok").and_then(|j| j.as_bool()), Some(false), "{line}");
    assert_eq!(response.get("error").and_then(|j| j.as_str()), Some("line-too-long"), "{line}");
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "the server closes after the error");
}

/// After an oversized line: `stats` answers on a new connection and a
/// multi-megabyte ingest is accepted whole.
fn server_still_serves(addr: SocketAddr, rows: usize) {
    let mut client = Client::connect(addr, timeout()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("ok").and_then(|j| j.as_bool()), Some(true));
    let batch = long_rows(rows);
    let line = Request::Ingest { rows: batch.clone() }.to_json().encode();
    assert!(line.len() > 2 << 20, "the ingest line is multi-megabyte: {} bytes", line.len());
    assert_eq!(client.ingest(batch).unwrap(), rows as u64);
}

#[test]
fn shard_server_bounds_request_lines() {
    let shard = start_shard();
    oversized_line_is_refused(shard.addr());
    server_still_serves(shard.addr(), 100_000);
    shard.shutdown();
    shard.join().unwrap();
}

#[test]
fn coordinator_bounds_request_lines() {
    let shard = start_shard();
    let config = ClusterConfig {
        shards: vec![shard.addr().to_string()],
        timeout: timeout(),
        engine: engine_config(),
        threads: 2,
        read_timeout: timeout(),
        write_timeout: timeout(),
        ..ClusterConfig::default()
    };
    let front =
        CoordinatorServer::start(Coordinator::connect(config).unwrap(), "127.0.0.1:0").unwrap();
    oversized_line_is_refused(front.addr());
    server_still_serves(front.addr(), 100_000);
    front.shutdown();
    front.join();
    shard.shutdown();
    shard.join().unwrap();
}
