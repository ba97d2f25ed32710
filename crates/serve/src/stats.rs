//! Per-server request accounting: one table indexed by [`Verb`], exposed
//! over the wire via the `stats` verb.
//!
//! The front door records every request once, after its response is
//! written: its verb (or none, for a line that never resolved to one),
//! its latency, the bytes it read and wrote, and whether the response was
//! a structured error. That one record updates this server's own table
//! and the process-global `dar_serve_requests_total{verb=…}` /
//! `dar_serve_request_ns{verb=…}` / `dar_serve_bytes_*_total{verb=…}`
//! series for Prometheus exposition.
//!
//! The table stays per server rather than registry-only: several servers
//! can share one process (in-process shards in the cluster tests), and
//! each `stats` verb must report its own traffic exactly. Latencies land
//! in a per-server `dar-obs` log2-bucket [`Histogram`]: every request is
//! counted, with no sampling window and no lock on the hot path, and
//! p50/p99 are derived from the full population at snapshot time.

use crate::json::{Json, Key};
use crate::protocol::Verb;
use dar_obs::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The table slot of a request: its verb's index, or the slot past the
/// last verb for a line that never resolved to one.
pub(crate) fn slot(verb: Option<Verb>) -> usize {
    verb.map_or(Verb::ALL.len(), |v| v as usize)
}

/// Shared, thread-safe request accounting for one server. Every update is
/// lock-free, including latency recording (relaxed atomics into
/// histogram buckets).
#[derive(Default)]
pub struct ServerStats {
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    /// Requests per [`slot`].
    requests: [AtomicU64; Verb::ALL.len() + 1],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    error_responses: AtomicU64,
    latency: Histogram,
}

impl ServerStats {
    /// Counts a connection handed to the worker pool.
    pub(crate) fn count_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        crate::metrics::metrics().connections.inc();
    }

    /// Counts a connection refused by the full accept queue.
    pub(crate) fn count_rejected(&self) {
        self.rejected_connections.fetch_add(1, Ordering::Relaxed);
        crate::metrics::metrics().rejected_connections.inc();
    }

    /// Counts one structured error response.
    pub(crate) fn count_error(&self) {
        self.error_responses.fetch_add(1, Ordering::Relaxed);
        crate::metrics::metrics().errors.inc();
    }

    /// Records one request: its verb (`None` when the line never resolved
    /// to one), wall-clock latency, the request line read and response
    /// line written (newlines included), and whether the response was a
    /// structured error.
    pub(crate) fn record(
        &self,
        verb: Option<Verb>,
        elapsed: Duration,
        bytes_read: u64,
        bytes_written: u64,
        error: bool,
    ) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.requests[slot(verb)].fetch_add(1, Ordering::Relaxed);
        self.latency.observe(ns);
        self.bytes_read.fetch_add(bytes_read, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes_written, Ordering::Relaxed);
        if error {
            self.count_error();
        }
        let m = crate::metrics::metrics().verb(verb);
        m.requests.inc();
        m.request_ns.observe(ns);
        m.bytes_read.add(bytes_read);
        m.bytes_written.add(bytes_written);
    }

    /// A point-in-time copy of this server's latency histogram — the
    /// exact population `snapshot()` derives p50/p99 from.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let latency = self.latency.snapshot();
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: get(&self.connections),
            rejected_connections: get(&self.rejected_connections),
            requests: std::array::from_fn(|i| get(&self.requests[i])),
            bytes_read: get(&self.bytes_read),
            bytes_written: get(&self.bytes_written),
            error_responses: get(&self.error_responses),
            p50_us: latency.quantile(0.50) / 1_000,
            p99_us: latency.quantile(0.99) / 1_000,
        }
    }
}

/// A plain-value copy of [`ServerStats`], ready to assert on or encode.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Connections accepted and handed to the worker pool.
    pub connections: u64,
    /// Connections refused by the bounded accept queue (each received a
    /// structured `overloaded` error before close).
    pub rejected_connections: u64,
    requests: [u64; Verb::ALL.len() + 1],
    /// Request-line bytes read across all verbs (newline included).
    pub bytes_read: u64,
    /// Response-line bytes written across all verbs (newline included).
    pub bytes_written: u64,
    /// Structured error responses sent (parse errors, unknown verbs,
    /// engine rejections, oversized lines).
    pub error_responses: u64,
    /// Median request latency over all recorded requests, microseconds
    /// (histogram-derived).
    pub p50_us: u64,
    /// 99th-percentile request latency over all recorded requests,
    /// microseconds (histogram-derived).
    pub p99_us: u64,
}

impl StatsSnapshot {
    /// Requests that resolved to `verb`, whether they succeeded or got a
    /// structured error.
    pub fn requests(&self, verb: Verb) -> u64 {
        self.requests[verb as usize]
    }

    /// Every request recorded, including lines that never resolved to a
    /// verb: the population of the latency histogram, which has no
    /// sampling window (refused connections never reach a worker and are
    /// not counted).
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// The front door's half of a server's `stats` response: connection
    /// counts, one `<verb>_requests` key per verb, traffic, errors and
    /// latency percentiles.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(Key, Json)> = vec![
            ("connections".into(), Json::Num(self.connections as f64)),
            ("rejected_connections".into(), Json::Num(self.rejected_connections as f64)),
        ];
        for verb in Verb::ALL {
            let key = format!("{}_requests", verb.as_str());
            pairs.push((key.into(), Json::Num(self.requests(verb) as f64)));
        }
        for (key, value) in [
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("error_responses", self.error_responses),
            ("p50_us", self.p50_us),
            ("p99_us", self.p99_us),
        ] {
            pairs.push((key.into(), Json::Num(value as f64)));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(stats: &ServerStats, verb: Verb, elapsed: Duration) {
        stats.record(Some(verb), elapsed, 0, 0, false);
    }

    #[test]
    fn latency_percentiles_track_samples() {
        let stats = ServerStats::default();
        assert_eq!(stats.snapshot().p99_us, 0, "empty histogram reports zeros");
        for ms in 1..=100u64 {
            latency(&stats, Verb::Query, Duration::from_millis(ms));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.total_requests(), 100);
        assert!((49_000..=52_000).contains(&snap.p50_us), "p50 = {}", snap.p50_us);
        assert!((98_000..=100_000).contains(&snap.p99_us), "p99 = {}", snap.p99_us);
        assert!(snap.p50_us <= snap.p99_us);
    }

    #[test]
    fn histogram_has_no_sampling_window() {
        // The old reservoir overwrote past 8192 samples; the histogram
        // counts every request and stays exact.
        let stats = ServerStats::default();
        for _ in 0..8_692u64 {
            latency(&stats, Verb::Ingest, Duration::from_micros(7));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.total_requests(), 8_692);
        assert_eq!(snap.p50_us, 7);
        assert_eq!(snap.p99_us, 7);
    }

    #[test]
    fn wire_percentiles_match_histogram_quantiles() {
        let stats = ServerStats::default();
        for ms in [3u64, 14, 159, 26, 5] {
            latency(&stats, Verb::Query, Duration::from_millis(ms));
        }
        let snap = stats.snapshot();
        let hist = stats.latency_snapshot();
        assert_eq!(snap.p50_us, hist.quantile(0.50) / 1_000);
        assert_eq!(snap.p99_us, hist.quantile(0.99) / 1_000);
        assert_eq!(snap.total_requests(), hist.count);
    }

    #[test]
    fn one_record_feeds_the_table_totals_and_wire_keys() {
        let stats = ServerStats::default();
        for _ in 0..3 {
            latency(&stats, Verb::Query, Duration::ZERO);
        }
        latency(&stats, Verb::Ingest, Duration::ZERO);
        stats.record(Some(Verb::ShardIngest), Duration::ZERO, 0, 0, true);
        stats.record(Some(Verb::ShardIngest), Duration::ZERO, 0, 0, false);
        stats.record(Some(Verb::ShardStats), Duration::ZERO, 0, 0, false);
        stats.record(None, Duration::ZERO, 0, 0, true);
        let snap = stats.snapshot();
        assert_eq!(snap.requests(Verb::Query), 3);
        assert_eq!(snap.requests(Verb::ShardIngest), 2, "an error response still counts");
        assert_eq!(snap.total_requests(), 8, "unresolved lines count as requests");
        assert_eq!(snap.error_responses, 2);
        let json = snap.to_json();
        assert_eq!(json.get("query_requests").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("shard_ingest_requests").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("shard_stats_requests").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("stats_requests").unwrap().as_u64(), Some(0));
        assert_eq!(json.get("error_responses").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn io_bytes_accumulate_per_verb_and_in_aggregate() {
        let stats = ServerStats::default();
        stats.record(Some(Verb::Query), Duration::ZERO, 120, 4_500, false);
        stats.record(Some(Verb::Query), Duration::ZERO, 80, 1_500, false);
        stats.record(Some(Verb::Ingest), Duration::ZERO, 10_000, 60, false);
        let snap = stats.snapshot();
        assert_eq!(snap.bytes_read, 10_200);
        assert_eq!(snap.bytes_written, 6_060);
        let json = snap.to_json();
        assert_eq!(json.get("bytes_read").unwrap().as_u64(), Some(10_200));
        assert_eq!(json.get("bytes_written").unwrap().as_u64(), Some(6_060));
        // The per-verb global series saw the same traffic (cumulative
        // across tests sharing the process-global registry, so ≥).
        let m = crate::metrics::metrics().verb(Some(Verb::Query));
        assert!(m.bytes_read.get() >= 200);
        assert!(m.bytes_written.get() >= 6_000);
    }
}
