//! Global observability handles for the serving layer (`dar_serve_*`).
//!
//! Per-verb request counters, latency histograms, and byte counters are
//! resolved once into a fixed table indexed like a server's own
//! [`ServerStats`](crate::ServerStats) table: one row per
//! [`Verb`], plus an `error` row for lines that never resolved to a verb.
//! The per-request path is an index plus relaxed atomics — no registry
//! lookup, no mutex.

use crate::protocol::Verb;
use crate::stats::slot;
use dar_obs::{global, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// One verb's metric handles.
pub(crate) struct VerbMetrics {
    /// `dar_serve_requests_total{verb=…}`.
    pub requests: Counter,
    /// `dar_serve_request_ns{verb=…}`.
    pub request_ns: Histogram,
    /// `dar_serve_bytes_read_total{verb=…}`: request-line bytes received,
    /// attributed to the verb they decoded into.
    pub bytes_read: Counter,
    /// `dar_serve_bytes_written_total{verb=…}`: response-line bytes sent.
    pub bytes_written: Counter,
}

/// The serving-layer metric family.
pub(crate) struct ServeMetrics {
    /// `dar_serve_connections_total`: connections accepted.
    pub connections: Counter,
    /// `dar_serve_rejected_connections_total`: connections refused by the
    /// bounded accept queue.
    pub rejected_connections: Counter,
    /// `dar_serve_errors_total`: structured error responses sent.
    pub errors: Counter,
    /// `dar_serve_degraded`: 0/1 read-only mode flag.
    pub degraded: Gauge,
    /// The per-verb series, in [`Verb::ALL`] order, then `error`.
    verbs: [VerbMetrics; Verb::ALL.len() + 1],
}

impl ServeMetrics {
    /// The metric handles for a request's verb (`None`: the `error` row).
    pub fn verb(&self, verb: Option<Verb>) -> &VerbMetrics {
        &self.verbs[slot(verb)]
    }
}

/// The cached handles.
pub(crate) fn metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        ServeMetrics {
            connections: r.counter("dar_serve_connections_total"),
            rejected_connections: r.counter("dar_serve_rejected_connections_total"),
            errors: r.counter("dar_serve_errors_total"),
            degraded: r.gauge("dar_serve_degraded"),
            verbs: std::array::from_fn(|i| {
                let verb = Verb::ALL.get(i).map_or("error", |v| v.as_str());
                VerbMetrics {
                    requests: r.counter_with("dar_serve_requests_total", &[("verb", verb)]),
                    request_ns: r.histogram_with("dar_serve_request_ns", &[("verb", verb)]),
                    bytes_read: r.counter_with("dar_serve_bytes_read_total", &[("verb", verb)]),
                    bytes_written: r
                        .counter_with("dar_serve_bytes_written_total", &[("verb", verb)]),
                }
            }),
        }
    })
}
