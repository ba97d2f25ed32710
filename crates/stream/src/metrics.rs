//! Global observability handles for the streaming layer (`dar_stream_*`).
//!
//! The window/retire counters are incremented by this crate; the
//! subscription counters are public so `dar-serve`'s churn feed — which
//! owns the sockets — can account events against the same family.

use dar_obs::{global, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// The streaming-layer metric family.
pub struct StreamMetrics {
    /// `dar_stream_windows_advanced_total`: window boundaries crossed
    /// (auto or explicit).
    pub windows_advanced: Counter,
    /// `dar_stream_windows_retired_total`: windows expired out of the ring.
    pub windows_retired: Counter,
    /// `dar_stream_subscribers`: live churn subscribers.
    pub subscribers: Gauge,
    /// `dar_stream_events_pushed_total`: churn frames handed to subscriber
    /// queues.
    pub events_pushed: Counter,
    /// `dar_stream_events_dropped_total`: churn frames dropped because a
    /// subscriber's bounded queue was full (the subscriber is lagged and
    /// cut, never the server).
    pub events_dropped: Counter,
    /// `dar_stream_diff_ns`: wall time of one rule-set diff.
    pub diff_ns: Histogram,
}

/// The cached handles.
pub fn metrics() -> &'static StreamMetrics {
    static METRICS: OnceLock<StreamMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        StreamMetrics {
            windows_advanced: r.counter("dar_stream_windows_advanced_total"),
            windows_retired: r.counter("dar_stream_windows_retired_total"),
            subscribers: r.gauge("dar_stream_subscribers"),
            events_pushed: r.counter("dar_stream_events_pushed_total"),
            events_dropped: r.counter("dar_stream_events_dropped_total"),
            diff_ns: r.histogram("dar_stream_diff_ns"),
        }
    })
}
