//! Global observability handles for the long-lived engine
//! (`dar_engine_*`). Handles are cached in a `OnceLock`; the family
//! registers eagerly on first use so zero-valued series are visible in
//! exposition before any traffic arrives.

use dar_obs::{global, Counter, Gauge, Histogram};
use std::sync::OnceLock;
use std::time::Instant;

/// The engine metric family.
pub(crate) struct EngineMetrics {
    /// `dar_engine_ingest_batches_total`: accepted ingest batches.
    pub ingest_batches: Counter,
    /// `dar_engine_tuples_total`: tuples inserted into the live forest.
    pub tuples: Counter,
    /// `dar_engine_rejected_batches_total`: batches rejected by
    /// validation (arity mismatch, non-finite values).
    pub rejected_batches: Counter,
    /// `dar_engine_epochs_total`: epochs closed.
    pub epochs: Counter,
    /// `dar_engine_cache_hits_total`: Phase II artifact cache hits.
    pub cache_hits: Counter,
    /// `dar_engine_cache_misses_total`: Phase II artifact cache misses.
    pub cache_misses: Counter,
    /// `dar_engine_wal_batches_replayed_total`: batches re-applied from
    /// the WAL during recovery.
    pub wal_batches_replayed: Counter,
    /// `dar_engine_phase1_insert_ns`: wall-clock of each batch's Phase I
    /// insert loop.
    pub phase1_insert_ns: Histogram,
    /// `dar_engine_epoch_close_ns`: wall-clock of each epoch close
    /// (cluster extraction + optional refinement).
    pub epoch_close_ns: Histogram,
}

/// The cached handles.
pub(crate) fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        EngineMetrics {
            ingest_batches: r.counter("dar_engine_ingest_batches_total"),
            tuples: r.counter("dar_engine_tuples_total"),
            rejected_batches: r.counter("dar_engine_rejected_batches_total"),
            epochs: r.counter("dar_engine_epochs_total"),
            cache_hits: r.counter("dar_engine_cache_hits_total"),
            cache_misses: r.counter("dar_engine_cache_misses_total"),
            wal_batches_replayed: r.counter("dar_engine_wal_batches_replayed_total"),
            phase1_insert_ns: r.histogram("dar_engine_phase1_insert_ns"),
            epoch_close_ns: r.histogram("dar_engine_epoch_close_ns"),
        }
    })
}

/// The snapshot-persistence metric family (`dar_persist_*`). Shared by
/// name with the coordinator's pull path — the registry is global, so
/// every encoder/decoder in the process lands in the same series.
pub(crate) struct PersistMetrics {
    /// `dar_persist_encode_ns`: wall-clock of each snapshot serialization.
    pub encode_ns: Histogram,
    /// `dar_persist_decode_ns`: wall-clock of each snapshot parse.
    pub decode_ns: Histogram,
    /// `dar_persist_snapshot_bytes`: size of the last snapshot body
    /// encoded or decoded.
    pub snapshot_bytes: Gauge,
}

/// Records one snapshot serialization of `len` bytes begun at `started`.
pub(crate) fn record_encode(started: Instant, len: usize) {
    let m = persist_metrics();
    m.encode_ns.observe_duration(started.elapsed());
    m.snapshot_bytes.set(len as i64);
}

/// Records one snapshot parse of `len` bytes begun at `started`.
pub(crate) fn record_decode(started: Instant, len: usize) {
    let m = persist_metrics();
    m.decode_ns.observe_duration(started.elapsed());
    m.snapshot_bytes.set(len as i64);
}

/// The cached persistence handles.
fn persist_metrics() -> &'static PersistMetrics {
    static METRICS: OnceLock<PersistMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        PersistMetrics {
            encode_ns: r.histogram("dar_persist_encode_ns"),
            decode_ns: r.histogram("dar_persist_decode_ns"),
            snapshot_bytes: r.gauge("dar_persist_snapshot_bytes"),
        }
    })
}
