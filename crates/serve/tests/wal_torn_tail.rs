//! Torn-tail recovery of the *window-tagged* WAL: a crash mid-append
//! leaves a partial tagged frame — possibly cut inside the length/CRC
//! header, inside the `u32::MAX` tagged-frame sentinel, inside the window
//! sequence, or anywhere in the row body. For **every** byte offset,
//! [`dar_serve::recover_backend`] must drop exactly the partial frame
//! (reported in `wal_tail_dropped_bytes`), keep every committed frame,
//! and rebuild the same window ring the committed history produced.

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::{encode_tagged_batch, wal, DiskStorage};
use dar_engine::EngineConfig;
use dar_serve::{protocol, Client, EngineBackend, ServeConfig, Server, WindowSpec};
use mining::RuleQuery;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn partitioning() -> Partitioning {
    Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean)
}

/// Dyadic jitter (0.25 steps): exact fp sums in any grouping, so every
/// recovered ring mines byte-identical rules.
fn dyadic_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let jitter = ((i + offset) % 4) as f64 * 0.25;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

fn fresh_backend(spec: WindowSpec) -> EngineBackend {
    EngineBackend::new(partitioning(), config(), Some(spec)).unwrap()
}

fn recover(spec: WindowSpec, wal_path: &Path) -> (EngineBackend, dar_durable::RecoveryReport) {
    dar_serve::recover_backend(fresh_backend(spec), Arc::new(DiskStorage), None, Some(wal_path))
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dar_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn torn_tagged_frame_is_dropped_at_every_byte_and_the_ring_rebuilds() {
    let dir = temp_dir("wal_torn_tail");
    let wal_path = dir.join("stream.wal");
    let spec = WindowSpec { batches: 2, slots: 2 };

    // A real windowed server writes the committed prefix, so the log
    // interleaves tagged batches with an explicit-advance marker exactly
    // as production does: batch(win 0), advance, batch(win 1), batch(win
    // 1) — four committed records.
    let serve_config = ServeConfig {
        threads: 2,
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
        wal_path: Some(wal_path.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::start(
        EngineBackend::new(partitioning(), config(), Some(spec)).unwrap(),
        "127.0.0.1:0",
        serve_config,
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), Duration::from_secs(10)).unwrap();
    client.ingest(dyadic_rows(40, 0)).unwrap();
    client.advance().unwrap();
    client.ingest(dyadic_rows(40, 3)).unwrap();
    client.ingest(dyadic_rows(40, 5)).unwrap();
    drop(client);
    handle.shutdown();
    handle.join().unwrap();

    // The torn frame: a fifth tagged batch, appended whole and then cut
    // at every offset below. Its byte range is found by diffing the file.
    let committed = std::fs::read(&wal_path).unwrap();
    wal::append_record(&DiskStorage, &wal_path, 5, &encode_tagged_batch(1, &dyadic_rows(40, 9)))
        .unwrap();
    let full = std::fs::read(&wal_path).unwrap();
    let torn = full[committed.len()..].to_vec();
    assert!(torn.len() > 28, "the frame must span header, sentinel, window seq, and body");

    // Control: recovery of the committed prefix alone.
    std::fs::write(&wal_path, &committed).unwrap();
    let (mut control, control_report) = recover(spec, &wal_path);
    assert_eq!(control_report.wal_records, 4, "3 tagged batches + 1 advance marker");
    assert_eq!(control_report.wal_tail_dropped_bytes, 0);
    let control_span = control.window_span().expect("windowed backend");
    let control_tuples = control.engine().tuples();
    assert_eq!(control_span, (1, 2), "two-slot ring: window 0 retired when window 1 sealed");
    assert_eq!(control_tuples, 80);
    let control_rules =
        protocol::query_response(&control.query(&RuleQuery::default()).unwrap()).encode();
    assert!(control_rules.contains("\"antecedent\""), "the planted blocks must yield rules");

    // Sanity: the whole fifth frame, untorn, does change the state — so
    // the per-cut equality below is not vacuous.
    std::fs::write(&wal_path, &full).unwrap();
    let (whole, whole_report) = recover(spec, &wal_path);
    assert_eq!(whole_report.wal_records, 5);
    assert_eq!(whole.engine().tuples(), 120);

    // Frame layout: len[0..4) crc[4..8) seq[8..16) sentinel[16..20)
    // window-seq[20..28) body[28..). Mine rules at cuts landing in each
    // region (plus the last byte); cheap ring/tuple checks at every cut.
    let rule_check_cuts = [3usize, 6, 12, 18, 24, 40, torn.len() / 2, torn.len() - 1];
    for cut in 0..torn.len() {
        let mut bytes = committed.clone();
        bytes.extend_from_slice(&torn[..cut]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (mut backend, report) = recover(spec, &wal_path);
        assert_eq!(
            report.wal_tail_dropped_bytes, cut,
            "cut at {cut}: exactly the partial frame must be dropped"
        );
        assert_eq!(report.wal_records, 4, "cut at {cut}: every committed record must survive");
        assert_eq!(backend.window_span(), Some(control_span), "cut at {cut}: ring shape diverged");
        assert_eq!(backend.engine().tuples(), control_tuples, "cut at {cut}: live tuples diverged");
        if rule_check_cuts.contains(&cut) {
            let rules =
                protocol::query_response(&backend.query(&RuleQuery::default()).unwrap()).encode();
            assert_eq!(rules, control_rules, "cut at {cut}: recovered rules diverged");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
