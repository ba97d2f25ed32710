//! Snapshot-format migration: pre-binary (v1 text) artifacts written
//! before the persist-v2 rollout must keep restoring under the
//! v2-writing engine — byte-equal rules from v1 fixture files (sealed
//! and unsealed), and a kill-9 recovery that crosses the version
//! boundary (v1 snapshot on disk, newer WAL tail on top).

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::storage::scratch_dir;
use dar_durable::{DiskStorage, FaultPlan, FaultyStorage};
use dar_engine::snapshot::{parse_snapshot_bytes, write_snapshot};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::recover_backend;
use mining::RuleQuery;

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn engine() -> DarEngine {
    let schema = Schema::interval_attrs(2);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    DarEngine::new(partitioning, config()).unwrap()
}

/// Dyadic jitter: exact fp sums in any grouping, so restored rules are
/// byte-equal, not merely close.
fn batch(offset: usize) -> Vec<Vec<f64>> {
    (0..30)
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

/// Re-frames a live engine's state in the pre-PR v1 text layout using the
/// retained v1 writer — the exact bytes a pre-binary build would have put
/// on disk.
fn v1_text_of(e: &mut DarEngine) -> String {
    let v2 = e.snapshot().unwrap();
    let snap = parse_snapshot_bytes(&v2, &dar_par::ThreadPool::serial()).unwrap();
    write_snapshot(snap.epoch, snap.tuples, &snap.partitioning, &snap.thresholds, &snap.clusters)
        .unwrap()
}

/// v1 fixture files — sealed with the checksum footer and raw unsealed —
/// restore under the v2-writing engine with byte-equal rule artifacts.
#[test]
fn v1_snapshot_fixtures_restore_byte_equal_rules() {
    let mut original = engine();
    original.ingest(&batch(0)).unwrap();
    original.ingest(&batch(1)).unwrap();
    let want = original.query(&RuleQuery::default()).unwrap();
    assert!(!want.rules.is_empty(), "the planted blocks must yield rules");
    let v1 = v1_text_of(&mut original);
    assert!(v1.starts_with("dar-engine"), "the retained v1 writer emits the text format: {v1}");

    let dir = scratch_dir("serve_migration_fixtures");
    let sealed_path = dir.join("sealed_v1.snap");
    let unsealed_path = dir.join("unsealed_v1.snap");
    dar_durable::snapshot::install(&DiskStorage, &sealed_path, v1.as_bytes(), 7).unwrap();
    std::fs::write(&unsealed_path, &v1).unwrap();

    for path in [&sealed_path, &unsealed_path] {
        let bytes = std::fs::read(path).unwrap();
        let mut restored = DarEngine::restore(&bytes, config()).unwrap();
        assert_eq!(restored.tuples(), 60, "{}", path.display());
        let got = restored.query(&RuleQuery::default()).unwrap();
        assert_eq!(got.rules, want.rules, "{}: rules diverged", path.display());
        assert_eq!(got.values, want.values, "{}: measure values diverged", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed fixture — a sealed v1 snapshot written by the pre-binary
/// format, checked into `tests/fixtures/` — must keep restoring with rules
/// byte-equal to an engine rebuilt from the same rows. Regenerate it (only
/// if the v1 writer itself changes, which it should not) with
/// `DAR_WRITE_V1_FIXTURE=1 cargo test -p dar-serve --test migration`.
#[test]
fn committed_v1_fixture_restores_byte_equal_rules() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_engine.snap");
    let mut control = engine();
    control.ingest(&batch(0)).unwrap();
    control.ingest(&batch(1)).unwrap();
    if std::env::var_os("DAR_WRITE_V1_FIXTURE").is_some() {
        let v1 = v1_text_of(&mut control);
        std::fs::create_dir_all(fixture.parent().unwrap()).unwrap();
        dar_durable::snapshot::install(&DiskStorage, &fixture, v1.as_bytes(), 3).unwrap();
    }
    let bytes = std::fs::read(&fixture).unwrap();
    let mut restored = DarEngine::restore(&bytes, config()).unwrap();
    assert_eq!(restored.tuples(), 60);
    let got = restored.query(&RuleQuery::default()).unwrap();
    let want = control.query(&RuleQuery::default()).unwrap();
    assert_eq!(got.rules, want.rules);
    assert_eq!(got.values, want.values);
    assert!(!got.rules.is_empty());
}

/// Kill-9 across the version boundary: a v1 snapshot sealed at WAL seq 1
/// plus a WAL holding seqs 1 and 2. Recovery must load the v1 body,
/// replay only the newer tail, and answer exactly like an uncrashed
/// engine over the same batches.
#[test]
fn v1_snapshot_with_newer_wal_tail_recovers_exactly() {
    let dir = scratch_dir("serve_migration_boundary");
    let snap_path = dir.join("epoch.snap");
    let wal_path = dir.join("ingest.wal");
    let storage = FaultyStorage::new(FaultPlan::default());

    // The pre-upgrade process: batch 1 snapshotted (v1 text), both
    // batches on the WAL, then kill -9 — no final snapshot of batch 2.
    let mut before = engine();
    before.ingest(&batch(0)).unwrap();
    let v1 = v1_text_of(&mut before);
    dar_durable::snapshot::install(&*storage, &snap_path, v1.as_bytes(), 1).unwrap();
    let (mut store, _) =
        dar_durable::DurableStore::open(storage.clone(), None, Some(wal_path.clone())).unwrap();
    store.log_batch(&batch(0)).unwrap();
    store.log_batch(&batch(1)).unwrap();
    drop(store);

    // The upgraded (v2-writing) process boots over the old artifacts.
    let (mut recovered, report) =
        recover_backend(engine().into(), storage, Some(&snap_path), Some(&wal_path)).unwrap();
    assert!(report.snapshot_source.is_some(), "the v1 snapshot must load");
    assert_eq!(report.wal_batches_replayed, 1, "only the post-snapshot tail replays");
    assert_eq!(recovered.engine().tuples(), 60);

    let mut control = engine();
    control.ingest(&batch(0)).unwrap();
    control.ingest(&batch(1)).unwrap();
    let got = recovered.query(&RuleQuery::default()).unwrap();
    let want = control.query(&RuleQuery::default()).unwrap();
    assert_eq!(got.rules, want.rules);
    assert_eq!(got.values, want.values);
    assert!(!got.rules.is_empty());

    // And the recovered engine snapshots forward in v2: the next restart
    // reads binary.
    let next = recovered.snapshot().unwrap();
    assert_eq!(&next[..4], b"DARS", "post-recovery snapshots are v2 binary");
    std::fs::remove_dir_all(&dir).ok();
}
