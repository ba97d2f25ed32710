//! A windowed engine's snapshots are visible to the persist metrics: a
//! ring snapshot records one `dar_persist_encode_ns` observation and sets
//! `dar_persist_snapshot_bytes` to its size, and a ring restore records
//! one `dar_persist_decode_ns` observation. The only test in its binary,
//! so nothing else moves the process-global series under it.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_stream::WindowSpec;

#[test]
fn windowed_snapshot_and_restore_move_each_persist_series() {
    let registry = dar_obs::global();
    let encode = || registry.histogram("dar_persist_encode_ns").snapshot().count;
    let decode = || registry.histogram("dar_persist_decode_ns").snapshot().count;
    let bytes = || registry.gauge("dar_persist_snapshot_bytes").get();

    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let spec = WindowSpec { batches: 2, slots: 2 };
    let mut engine = DarEngine::with_window(partitioning, config.clone(), Some(spec)).unwrap();
    for offset in 0..3 {
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![((i + offset) % 2) as f64 * 50.0, i as f64]).collect();
        engine.ingest(&rows).unwrap();
    }

    let (encoded, decoded) = (encode(), decode());
    let ring = engine.snapshot().unwrap();
    assert_eq!(encode(), encoded + 1, "a ring snapshot records one encode");
    assert_eq!(bytes(), ring.len() as i64, "the gauge holds the ring snapshot's size");
    assert_eq!(decode(), decoded);

    registry.gauge("dar_persist_snapshot_bytes").set(0);
    let restored = DarEngine::restore(&ring, config, true).unwrap();
    assert_eq!(decode(), decoded + 1, "a ring restore records one decode");
    assert_eq!(bytes(), ring.len() as i64, "the gauge holds the restored body's size");
    assert_eq!(encode(), encoded + 1);
    assert_eq!(restored.window_span(), engine.window_span());
}
