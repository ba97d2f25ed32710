//! [`DurableStore`]: the one object engine hosts hold — a snapshot slot
//! chain plus a WAL, coordinated through sequence numbers.
//!
//! The invariants, spelled out once:
//!
//! * every logged batch gets a strictly increasing sequence number,
//!   committed (fsynced) before the batch is acknowledged;
//! * an installed snapshot records the last sequence it includes;
//! * recovery = newest verifiable snapshot + replay of WAL records with
//!   `seq > snapshot.seq`, so a crash *anywhere* — mid-append,
//!   mid-snapshot-write, between the install and the WAL truncation —
//!   yields exactly the acknowledged state, never a double-replayed or
//!   half-applied batch;
//! * WAL truncation after an install keeps every record newer than the
//!   *previous* snapshot, so falling back to `<path>.prev` still has all
//!   the records it needs.

use crate::batch::{decode_frame, encode_batch, encode_tagged_batch};
use crate::error::DurableError;
use crate::snapshot::{self, SnapshotSource};
use crate::storage::Storage;
use crate::wal::{self, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One committed WAL record, decoded: `(wal seq, window tag, rows)`.
/// Untagged frames come from all-history engines; an empty tagged frame
/// marks an explicit window advance.
pub type WalFrame = (u64, Option<u64>, Vec<Vec<f64>>);

/// What [`DurableStore::open`] reconstructed from disk.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The verified snapshot body to restore from, if any slot verified.
    pub snapshot: Option<Vec<u8>>,
    /// The WAL sequence the snapshot includes (0 when none).
    pub snapshot_seq: u64,
    /// Committed records newer than the snapshot, in log order, including
    /// empty advance markers — replay these into the restored engine. A
    /// windowed engine replays the tags to rebuild its ring exactly; an
    /// all-history engine ignores them and skips the empty markers, so it
    /// loses nothing recovering a windowed log.
    pub frames: Vec<WalFrame>,
    /// Diagnostics for operators and tests.
    pub report: RecoveryReport,
}

/// How recovery went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Which snapshot slot verified (None = fresh start).
    pub snapshot_source: Option<SnapshotSource>,
    /// Snapshot slots that existed but failed verification.
    pub corrupt_snapshots_skipped: u32,
    /// Committed WAL records found (including ones the snapshot already
    /// covers).
    pub wal_records: usize,
    /// Non-empty records replayed on top of the snapshot (`seq >` filter;
    /// empty advance markers carry no batch).
    pub wal_batches_replayed: usize,
    /// Bytes dropped from the WAL's torn tail.
    pub wal_tail_dropped_bytes: usize,
}

impl RecoveryReport {
    /// Whether recovery had to route around damage (torn tail bytes or a
    /// corrupt snapshot slot).
    pub fn degraded_artifacts(&self) -> bool {
        self.corrupt_snapshots_skipped > 0 || self.wal_tail_dropped_bytes > 0
    }
}

/// A snapshot slot chain plus a WAL over an injectable [`Storage`].
/// Either half is optional: snapshot-only gives atomic persisted epochs,
/// WAL-only gives batch-level crash safety; together they give both with
/// bounded replay.
#[derive(Debug)]
pub struct DurableStore {
    storage: Arc<dyn Storage>,
    snapshot_path: Option<PathBuf>,
    wal_path: Option<PathBuf>,
    /// The sequence the next logged batch receives (1-based).
    next_seq: u64,
    /// The sequence recorded in the currently-installed snapshot.
    installed_seq: u64,
}

impl DurableStore {
    /// Opens the store, scanning disk once: verifies the snapshot chain,
    /// replays the WAL's committed records, and positions the sequence
    /// counter after everything found. Returns the store and what it
    /// recovered.
    ///
    /// # Errors
    /// I/O failures, or a WAL whose *header* is damaged (a torn tail is
    /// tolerated and reported instead).
    pub fn open(
        storage: Arc<dyn Storage>,
        snapshot_path: Option<PathBuf>,
        wal_path: Option<PathBuf>,
    ) -> Result<(Self, Recovered), DurableError> {
        let mut report = RecoveryReport::default();
        let (snapshot, snapshot_seq) = match &snapshot_path {
            Some(path) => match snapshot::load_latest(storage.as_ref(), path)? {
                Some(loaded) => {
                    report.snapshot_source = Some(loaded.source);
                    report.corrupt_snapshots_skipped = loaded.corrupt_slots_skipped;
                    (Some(loaded.body), loaded.seq)
                }
                None => (None, 0),
            },
            None => (None, 0),
        };

        let mut frames = Vec::new();
        let mut last_seq = snapshot_seq;
        if let Some(path) = &wal_path {
            let (records, wal_report) = wal::read_records(storage.as_ref(), path)?;
            report.wal_records = wal_report.records;
            report.wal_tail_dropped_bytes = wal_report.tail_dropped_bytes;
            if wal_report.tail_dropped_bytes > 0 {
                // Self-heal: cut the torn tail off now, or the next append
                // would land after unreachable garbage. Not best-effort —
                // appending to a log we could not repair is unsafe.
                wal::rewrite(storage.as_ref(), path, &records)?;
            }
            last_seq = records.iter().fold(last_seq, |last, record| last.max(record.seq));
            frames = decode_frames(path, &records, snapshot_seq)?;
        }
        report.wal_batches_replayed = frames.iter().filter(|(_, _, rows)| !rows.is_empty()).count();

        let store = DurableStore {
            storage,
            snapshot_path,
            wal_path,
            next_seq: last_seq + 1,
            installed_seq: snapshot_seq,
        };
        Ok((store, Recovered { snapshot, snapshot_seq, frames, report }))
    }

    /// The WAL path, if batch logging is configured.
    pub fn wal_path(&self) -> Option<&Path> {
        self.wal_path.as_deref()
    }

    /// The snapshot path, if snapshot installation is configured.
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// Re-reads the WAL and decodes its committed records with sequence
    /// above `after_seq`, in log order, as [`DurableStore::open`] does past
    /// the snapshot it found — for a host that restores some other
    /// snapshot later, or scans the whole log. Empty without a WAL.
    ///
    /// # Errors
    /// I/O failures, a damaged WAL header, or a record that passes its
    /// checksum but does not decode.
    pub fn frames_after(&self, after_seq: u64) -> Result<Vec<WalFrame>, DurableError> {
        let Some(path) = &self.wal_path else {
            return Ok(Vec::new());
        };
        let (records, _) = wal::read_records(self.storage.as_ref(), path)?;
        decode_frames(path, &records, after_seq)
    }

    /// The sequence number the last logged batch received (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Commits one ingest batch to the WAL (encode, frame, append,
    /// fsync). When this returns `Ok`, the batch survives any crash.
    ///
    /// # Errors
    /// I/O failures (the caller should treat the batch as *not*
    /// committed and refuse to acknowledge it), or no WAL configured.
    pub fn log_batch(&mut self, rows: &[Vec<f64>]) -> Result<u64, DurableError> {
        self.append(&encode_batch(rows))
    }

    /// Commits one window-tagged ingest batch to the WAL — the sliding-
    /// window variant of [`DurableStore::log_batch`]. `window_seq` is the
    /// window the rows landed in; an empty `rows` is an explicit-advance
    /// marker (logged with the newly opened window's sequence). Recovery
    /// surfaces these as [`Recovered::frames`].
    ///
    /// # Errors
    /// As [`DurableStore::log_batch`].
    pub fn log_tagged_batch(
        &mut self,
        window_seq: u64,
        rows: &[Vec<f64>],
    ) -> Result<u64, DurableError> {
        self.append(&encode_tagged_batch(window_seq, rows))
    }

    /// Appends one encoded frame under the next sequence number.
    fn append(&mut self, frame: &[u8]) -> Result<u64, DurableError> {
        let Some(path) = &self.wal_path else {
            return Err(DurableError::io(
                "append",
                PathBuf::new(),
                std::io::Error::other("no WAL configured"),
            ));
        };
        let seq = self.next_seq;
        wal::append_record(self.storage.as_ref(), path, seq, frame)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Seals `body` with the last logged sequence and installs it
    /// atomically, then prunes WAL records the *previous* snapshot
    /// already covered (keeping everything the fallback chain could still
    /// need). Truncation is best-effort: replay is seq-filtered, so a
    /// crash — or a failure — between install and truncation costs bytes,
    /// never correctness.
    ///
    /// # Errors
    /// I/O failures during the install protocol; the previously-installed
    /// snapshot (plus the WAL) remains recoverable.
    pub fn install_snapshot(&mut self, body: &[u8]) -> Result<u64, DurableError> {
        let Some(path) = self.snapshot_path.clone() else {
            return Err(DurableError::io(
                "write",
                PathBuf::new(),
                std::io::Error::other("no snapshot path configured"),
            ));
        };
        let seq = self.next_seq - 1;
        snapshot::install(self.storage.as_ref(), &path, body, seq)?;
        let retired = self.installed_seq;
        self.installed_seq = seq;
        if let Some(wal_path) = self.wal_path.clone() {
            let _ = self.prune_wal(&wal_path, retired);
        }
        Ok(seq)
    }

    fn prune_wal(&mut self, path: &Path, keep_after: u64) -> Result<(), DurableError> {
        let (records, _) = wal::read_records(self.storage.as_ref(), path)?;
        let kept: Vec<_> = records.into_iter().filter(|r| r.seq > keep_after).collect();
        wal::rewrite(self.storage.as_ref(), path, &kept)
    }
}

/// Decodes the records with sequence above `after_seq` into frames.
///
/// # Errors
/// A record whose checksum passed but whose payload does not decode: an
/// encoder/decoder version skew, not a torn tail.
fn decode_frames(
    path: &Path,
    records: &[WalRecord],
    after_seq: u64,
) -> Result<Vec<WalFrame>, DurableError> {
    records
        .iter()
        .filter(|record| record.seq > after_seq)
        .map(|record| {
            let (tag, rows) = decode_frame(&record.body).map_err(|detail| {
                DurableError::corrupt(path, format!("record seq={}: {detail}", record.seq))
            })?;
            Ok((record.seq, tag, rows))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{scratch_dir, DiskStorage};

    fn batch(tag: f64, rows: usize) -> Vec<Vec<f64>> {
        (0..rows).map(|i| vec![tag, i as f64]).collect()
    }

    fn open_disk(dir: &Path) -> (DurableStore, Recovered) {
        DurableStore::open(
            Arc::new(DiskStorage),
            Some(dir.join("epoch.snap")),
            Some(dir.join("ingest.wal")),
        )
        .unwrap()
    }

    #[test]
    fn log_recover_log_again_round_trips() {
        let dir = scratch_dir("store_rt");
        let (mut store, recovered) = open_disk(&dir);
        assert!(recovered.snapshot.is_none());
        assert!(recovered.frames.is_empty());
        assert_eq!(store.log_batch(&batch(1.0, 3)).unwrap(), 1);
        assert_eq!(store.log_batch(&batch(2.0, 2)).unwrap(), 2);
        drop(store); // "crash"

        let (mut store, recovered) = open_disk(&dir);
        assert_eq!(recovered.frames, vec![(1, None, batch(1.0, 3)), (2, None, batch(2.0, 2))]);
        assert_eq!(recovered.report.wal_batches_replayed, 2);
        // Sequences continue where they left off.
        assert_eq!(store.log_batch(&batch(3.0, 1)).unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_bounds_replay_and_prunes_the_wal() {
        let dir = scratch_dir("store_snap");
        let (mut store, _) = open_disk(&dir);
        store.log_batch(&batch(1.0, 2)).unwrap();
        store.log_batch(&batch(2.0, 2)).unwrap();
        assert_eq!(store.install_snapshot(b"state after two batches\n").unwrap(), 2);
        store.log_batch(&batch(3.0, 2)).unwrap();
        drop(store);

        let (_, recovered) = open_disk(&dir);
        assert_eq!(recovered.snapshot.as_deref(), Some(b"state after two batches\n".as_slice()));
        assert_eq!(recovered.snapshot_seq, 2);
        assert_eq!(recovered.frames, vec![(3, None, batch(3.0, 2))], "only seq>2 replays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_install_retains_records_the_prev_snapshot_needs() {
        let dir = scratch_dir("store_prev");
        let (mut store, _) = open_disk(&dir);
        store.log_batch(&batch(1.0, 1)).unwrap();
        store.install_snapshot(b"snap A\n").unwrap(); // seq 1
        store.log_batch(&batch(2.0, 1)).unwrap();
        store.log_batch(&batch(3.0, 1)).unwrap();
        store.install_snapshot(b"snap B\n").unwrap(); // seq 3; prunes ≤1
        store.log_batch(&batch(4.0, 1)).unwrap();
        drop(store);

        // Corrupt the primary: recovery must fall back to snap A and
        // still find batches 2..4 in the WAL.
        let path = dir.join("epoch.snap");
        let sealed = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, sealed.replacen("snap B", "snap X", 1)).unwrap();
        let (_, recovered) = open_disk(&dir);
        assert_eq!(recovered.snapshot.as_deref(), Some(b"snap A\n".as_slice()));
        assert_eq!(recovered.snapshot_seq, 1);
        assert_eq!(
            recovered.frames,
            vec![(2, None, batch(2.0, 1)), (3, None, batch(3.0, 1)), (4, None, batch(4.0, 1))]
        );
        assert_eq!(recovered.report.corrupt_snapshots_skipped, 1);
        assert!(recovered.report.degraded_artifacts());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tagged_and_plain_records_recover_with_their_tags() {
        let dir = scratch_dir("store_tagged");
        let (mut store, _) = open_disk(&dir);
        store.log_batch(&batch(1.0, 2)).unwrap();
        store.log_tagged_batch(7, &batch(2.0, 3)).unwrap();
        store.log_tagged_batch(8, &[]).unwrap(); // explicit-advance marker
        drop(store);

        let (_, recovered) = open_disk(&dir);
        assert_eq!(
            recovered.frames,
            vec![(1, None, batch(1.0, 2)), (2, Some(7), batch(2.0, 3)), (3, Some(8), Vec::new())]
        );
        // The replay count skips the empty marker but keeps the data.
        assert_eq!(recovered.report.wal_batches_replayed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_only_and_snapshot_only_configurations_work() {
        let dir = scratch_dir("store_halves");
        // WAL only.
        let (mut store, _) =
            DurableStore::open(Arc::new(DiskStorage), None, Some(dir.join("only.wal"))).unwrap();
        store.log_batch(&batch(1.0, 1)).unwrap();
        assert!(store.install_snapshot(b"nope").is_err());
        // Snapshot only.
        let (mut store, _) =
            DurableStore::open(Arc::new(DiskStorage), Some(dir.join("only.snap")), None).unwrap();
        assert!(store.log_batch(&batch(1.0, 1)).is_err());
        store.install_snapshot(b"fine\n").unwrap();
        let (_, recovered) =
            DurableStore::open(Arc::new(DiskStorage), Some(dir.join("only.snap")), None).unwrap();
        assert_eq!(recovered.snapshot.as_deref(), Some(b"fine\n".as_slice()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
