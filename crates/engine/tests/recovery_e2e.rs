//! End-to-end crash recovery: an engine host committing every batch
//! through `dar-durable` (apply, then WAL-log, then ack) is killed at
//! injected fault points, recovered, and compared against uncrashed
//! mining over the acknowledged batches. Per Theorem 6.1 the engine's
//! answers are a pure function of its ingest history, so recovery is
//! correct iff the recovered history equals the acknowledged one — which
//! these tests check through the strictest observable: the mined rules.

use dar_core::{Metric, Partitioning, Schema};
use dar_durable::storage::scratch_dir;
use dar_durable::{DurableStore, FaultPlan, FaultyStorage};
use dar_engine::{DarEngine, EngineConfig};
use mining::RuleQuery;
use std::path::Path;
use std::sync::Arc;

fn partitioning() -> Partitioning {
    let schema = Schema::interval_attrs(2);
    Partitioning::per_attribute(&schema, Metric::Euclidean)
}

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config
}

fn batch(offset: usize) -> Vec<Vec<f64>> {
    (0..30)
        .map(|i| {
            let jitter = ((i + offset) % 7) as f64 * 0.01;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

/// An engine host running the serve-layer commit protocol: apply to the
/// engine, then WAL-log; a batch is acknowledged only when both succeed.
struct Host {
    store: DurableStore,
    engine: DarEngine,
}

impl Host {
    fn boot(storage: Arc<FaultyStorage>, dir: &Path) -> (Self, dar_durable::Recovered) {
        let (store, recovered) =
            DurableStore::open(storage, Some(dir.join("epoch.snap")), Some(dir.join("ingest.wal")))
                .unwrap();
        let mut engine = match &recovered.snapshot {
            Some(body) => DarEngine::restore(body, config(), false).unwrap(),
            None => DarEngine::new(partitioning(), config()).unwrap(),
        };
        for (_, _, rows) in &recovered.frames {
            engine.replay_frame(None, rows).unwrap();
        }
        (Host { store, engine }, recovered)
    }

    fn ingest(&mut self, rows: &[Vec<f64>]) -> bool {
        self.engine.ingest(rows).unwrap();
        self.store.log_batch(rows).is_ok()
    }

    fn snapshot(&mut self) -> bool {
        let text = self.engine.snapshot().unwrap();
        self.store.install_snapshot(&text).is_ok()
    }
}

/// Both engines must answer the default query identically: same rules,
/// same frequency threshold, same tuple count.
fn assert_same_answers(recovered: &mut DarEngine, control: &mut DarEngine) {
    assert_eq!(recovered.tuples(), control.tuples());
    let a = recovered.query(&RuleQuery::default()).unwrap();
    let b = control.query(&RuleQuery::default()).unwrap();
    assert_eq!(a.s0, b.s0);
    assert_eq!(a.rules, b.rules);
    assert!(!a.rules.is_empty(), "test data should actually mine rules");
}

/// Crash the WAL append at several byte budgets: the recovered engine
/// mines exactly the rules a one-shot engine over the acked batches does.
#[test]
fn wal_crash_recovery_equals_one_shot_mining() {
    // Probe one frame's size to aim budgets at frame boundaries ± a tear.
    let probe = scratch_dir("eng_probe");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut host, _) = Host::boot(storage.clone(), &probe);
    host.ingest(&batch(0));
    let frame = std::fs::read(probe.join("ingest.wal")).unwrap().len() as u64 - 8;
    drop(host);
    std::fs::remove_dir_all(&probe).ok();

    for budget in [0, frame / 2, frame, frame + 7, 2 * frame, 3 * frame - 1] {
        let dir = scratch_dir(&format!("eng_wal_{budget}"));
        let storage = FaultyStorage::new(FaultPlan {
            fail_append_after_bytes: Some(budget),
            ..FaultPlan::default()
        });
        let (mut host, _) = Host::boot(storage.clone(), &dir);
        let mut acked = Vec::new();
        for b in 0..4 {
            let rows = batch(b);
            if host.ingest(&rows) {
                acked.push(rows);
            } else {
                break;
            }
        }
        drop(host); // crash

        storage.heal();
        let (mut host, recovered) = Host::boot(storage, &dir);
        assert_eq!(recovered.frames.len(), acked.len());
        let mut control = DarEngine::new(partitioning(), config()).unwrap();
        for rows in &acked {
            control.ingest(rows).unwrap();
        }
        if !acked.is_empty() {
            assert_same_answers(&mut host.engine, &mut control);
        }
        assert_eq!(host.engine.stats().wal_batches_replayed, acked.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Corrupt the newest snapshot: recovery falls back to the previous good
/// one and replays the WAL suffix, answering exactly as "restore that
/// snapshot, then ingest the suffix" does.
#[test]
fn corrupt_newest_snapshot_falls_back_and_replays() {
    let dir = scratch_dir("eng_fallback");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut host, _) = Host::boot(storage.clone(), &dir);
    host.ingest(&batch(0));
    host.ingest(&batch(1));
    assert!(host.snapshot()); // seq 2 → becomes .prev
    let prev_text = host.engine.snapshot().unwrap();
    host.ingest(&batch(2));
    assert!(host.snapshot()); // seq 3 → primary
    host.ingest(&batch(3));
    drop(host); // crash

    // Bit-rot the primary snapshot on disk.
    let path = dir.join("epoch.snap");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let (mut host, recovered) = Host::boot(storage, &dir);
    assert_eq!(recovered.report.corrupt_snapshots_skipped, 1);
    assert_eq!(recovered.snapshot_seq, 2);
    // batch(2) was pruned from the WAL only up to the *previous* install's
    // seq, so the fallback still finds everything it needs: seq 3 and 4.
    assert_eq!(recovered.frames.len(), 2);

    let mut control = DarEngine::restore(&prev_text, config(), false).unwrap();
    control.ingest(&batch(2)).unwrap();
    control.ingest(&batch(3)).unwrap();
    assert_same_answers(&mut host.engine, &mut control);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash mid-snapshot-install at each protocol step: no acknowledged
/// batch is ever lost, whatever state the install left behind.
#[test]
fn snapshot_install_crashes_lose_nothing() {
    let plans: &[FaultPlan] = &[
        FaultPlan { fail_write_from: Some(0), ..FaultPlan::default() },
        FaultPlan { fail_sync_from: Some(0), ..FaultPlan::default() },
        FaultPlan { fail_rename_from: Some(0), ..FaultPlan::default() },
        FaultPlan { fail_rename_from: Some(1), ..FaultPlan::default() },
    ];
    for (i, plan) in plans.iter().enumerate() {
        let dir = scratch_dir(&format!("eng_install_{i}"));
        let storage = FaultyStorage::new(FaultPlan::default());
        let (mut host, _) = Host::boot(storage.clone(), &dir);
        host.ingest(&batch(0));
        host.ingest(&batch(1));
        assert!(host.snapshot());
        host.ingest(&batch(2));
        storage.set_plan(plan.clone());
        host.snapshot(); // may fail — the host just keeps serving
        drop(host); // crash

        storage.heal();
        let (mut host, _) = Host::boot(storage, &dir);
        let mut control = DarEngine::restore(
            &{
                let mut c = DarEngine::new(partitioning(), config()).unwrap();
                c.ingest(&batch(0)).unwrap();
                c.ingest(&batch(1)).unwrap();
                c.snapshot().unwrap()
            },
            config(),
            false,
        )
        .unwrap();
        control.ingest(&batch(2)).unwrap();
        // All three acked batches are present...
        assert_eq!(host.engine.tuples(), 90);
        // ...but the recovered forest may sit at either granularity: the
        // first snapshot's (install failed → replayed batch 2) or the
        // second's (install landed → no replay). Both answer queries; the
        // replayed shape must equal its restore+ingest control.
        let replayed = host.engine.stats().wal_batches_replayed;
        if replayed > 0 {
            assert_same_answers(&mut host.engine, &mut control);
        } else {
            host.engine.query(&RuleQuery::default()).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
