//! The crash matrix: inject a fault at every reachable point of the WAL
//! append path and the snapshot install protocol, "crash" (drop the
//! store), recover, and assert the recovered state is exactly the
//! acknowledged prefix — nothing lost, nothing double-applied.
//!
//! The model under test is deliberately tiny: the durable state is the
//! list of acknowledged batches, and a snapshot body is `acked=<n>`
//! (the engine analogue: a snapshot is a fold over all ingested batches).

use dar_durable::storage::scratch_dir;
use dar_durable::{DurableStore, FaultPlan, FaultyStorage, SnapshotSource, Storage as _};
use std::path::Path;
use std::sync::Arc;

fn batch(tag: u64) -> Vec<Vec<f64>> {
    vec![vec![tag as f64, 0.5], vec![-(tag as f64)]]
}

fn open(storage: Arc<FaultyStorage>, dir: &Path) -> (DurableStore, dar_durable::Recovered) {
    DurableStore::open(storage, Some(dir.join("epoch.snap")), Some(dir.join("ingest.wal"))).unwrap()
}

/// Parses `acked=<n>` back out of a recovered snapshot body.
fn snapshot_count(body: &[u8]) -> u64 {
    std::str::from_utf8(body)
        .expect("test snapshot bodies are text")
        .trim()
        .strip_prefix("acked=")
        .expect("snapshot body shape")
        .parse()
        .unwrap()
}

/// Asserts that recovery reconstructed exactly `acked` batches: the
/// snapshot's fold plus the replayed WAL suffix, with replayed batches
/// matching what was acknowledged after the snapshot point.
fn assert_recovers_exactly(recovered: &dar_durable::Recovered, acked: u64) {
    let base = match &recovered.snapshot {
        Some(body) => {
            let n = snapshot_count(body);
            assert_eq!(n, recovered.snapshot_seq, "snapshot body vs footer seq");
            n
        }
        None => 0,
    };
    assert_eq!(
        base + recovered.frames.len() as u64,
        acked,
        "snapshot covers {base}, WAL replays {}, but {acked} were acknowledged",
        recovered.frames.len()
    );
    for (offset, (_, _, rows)) in recovered.frames.iter().enumerate() {
        assert_eq!(rows, &batch(base + 1 + offset as u64), "replayed batch content");
    }
}

/// Crash mid-append at every byte offset: the torn tail is dropped and
/// exactly the acknowledged batches come back.
#[test]
fn torn_append_at_every_byte_recovers_the_acked_prefix() {
    // One batch's frame is fixed-size here; cover several records' worth
    // of budgets so tears land in every field of every frame.
    let probe = scratch_dir("faults_probe");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut store, _) = open(storage.clone(), &probe);
    store.log_batch(&batch(1)).unwrap();
    let frame_len = storage.read(&probe.join("ingest.wal")).unwrap().len() - 8;
    drop(store);
    std::fs::remove_dir_all(&probe).ok();

    for budget in 0..(3 * frame_len as u64) {
        let dir = scratch_dir(&format!("faults_tear_{budget}"));
        let storage = FaultyStorage::new(FaultPlan {
            fail_append_after_bytes: Some(budget),
            ..FaultPlan::default()
        });
        let (mut store, _) = open(storage.clone(), &dir);
        let mut acked = 0u64;
        for tag in 1..=4u64 {
            match store.log_batch(&batch(tag)) {
                Ok(_) => acked += 1,
                Err(_) => break, // unacked: the client saw the failure
            }
        }
        assert_eq!(acked, budget / frame_len as u64, "acks stop at the torn frame");
        drop(store); // crash

        storage.heal();
        let (mut store, recovered) = open(storage.clone(), &dir);
        assert_recovers_exactly(&recovered, acked);
        assert_eq!(recovered.report.wal_tail_dropped_bytes as u64, budget % frame_len as u64);
        // Life goes on: the next batch gets the next sequence and survives.
        store.log_batch(&batch(acked + 1)).unwrap();
        let (_, recovered) = open(storage, &dir);
        assert_recovers_exactly(&recovered, acked + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash at every step of the snapshot install protocol; the fallback
/// chain plus seq-filtered replay always reconstructs the acked state.
#[test]
fn snapshot_install_crash_points_all_recover() {
    // Step indices within install(): write tmp (write #0), sync tmp
    // (sync #0), rename path→prev (only when path exists), rename
    // tmp→path, sync dir. Each plan kills one step.
    let plans: &[(&str, FaultPlan)] = &[
        ("torn tmp write", FaultPlan { fail_write_from: Some(0), ..FaultPlan::default() }),
        ("tmp fsync", FaultPlan { fail_sync_from: Some(0), ..FaultPlan::default() }),
        ("first rename", FaultPlan { fail_rename_from: Some(0), ..FaultPlan::default() }),
        ("second rename", FaultPlan { fail_rename_from: Some(1), ..FaultPlan::default() }),
        ("dir fsync", FaultPlan { fail_sync_from: Some(1), ..FaultPlan::default() }),
    ];
    for (label, plan) in plans {
        let dir = scratch_dir(&format!("faults_snap_{}", label.replace(' ', "_")));
        let storage = FaultyStorage::new(FaultPlan::default());
        let (mut store, _) = open(storage.clone(), &dir);
        // An older installed snapshot so the rotation path (rename #0 =
        // path→prev, rename #1 = tmp→path) is exercised.
        store.log_batch(&batch(1)).unwrap();
        store.install_snapshot(b"acked=1\n").unwrap();
        store.log_batch(&batch(2)).unwrap();
        store.log_batch(&batch(3)).unwrap();

        storage.set_plan(plan.clone());
        let result = store.install_snapshot(b"acked=3\n");
        drop(store); // crash wherever the fault left us

        storage.heal();
        let (_, recovered) = open(storage, &dir);
        // Acked batches: 3, regardless of whether the install made it.
        assert_recovers_exactly(&recovered, 3);
        if result.is_err() {
            // The new snapshot may or may not have landed, but recovery
            // must have found *some* verifiable snapshot: the old one is
            // never destroyed before the new one is in place.
            assert!(recovered.snapshot.is_some(), "{label}: lost every snapshot");
        } else {
            assert_eq!(recovered.snapshot_seq, 3, "{label}: install acked but not durable");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Crash after a fully-synced tmp but before its rename: recovery trusts
/// the tmp slot (it is newer than the primary and verifies).
#[test]
fn fresh_install_crash_before_rename_recovers_from_tmp() {
    let dir = scratch_dir("faults_tmp_slot");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut store, _) = open(storage.clone(), &dir);
    store.log_batch(&batch(1)).unwrap();
    storage.set_plan(FaultPlan { fail_rename_from: Some(0), ..FaultPlan::default() });
    assert!(store.install_snapshot(b"acked=1\n").is_err());
    drop(store);

    storage.heal();
    let (_, recovered) = open(storage, &dir);
    assert_recovers_exactly(&recovered, 1);
    assert_eq!(recovered.report.snapshot_source, Some(SnapshotSource::Tmp));
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash between "snapshot installed" and "WAL truncated": the stale WAL
/// records are filtered by sequence, never double-replayed.
#[test]
fn crash_between_install_and_truncate_never_double_replays() {
    let dir = scratch_dir("faults_no_truncate");
    let storage = FaultyStorage::new(FaultPlan::default());
    let (mut store, _) = open(storage.clone(), &dir);
    store.log_batch(&batch(1)).unwrap();
    store.log_batch(&batch(2)).unwrap();
    // Install's only rename on a fresh chain is #0 (tmp→path); the prune
    // rewrite's rename is #1. Failing from #1 means the snapshot lands
    // but the WAL keeps records 1 and 2.
    storage.set_plan(FaultPlan { fail_rename_from: Some(1), ..FaultPlan::default() });
    store.install_snapshot(b"acked=2\n").unwrap();
    store.log_batch(&batch(3)).unwrap();
    drop(store);

    storage.heal();
    let (_, recovered) = open(storage.clone(), &dir);
    // The full WAL survived (prune failed), but only seq 3 replays.
    assert_eq!(recovered.report.wal_records, 3);
    assert_eq!(recovered.frames.len(), 1);
    assert_recovers_exactly(&recovered, 3);
    std::fs::remove_dir_all(&dir).ok();
}
