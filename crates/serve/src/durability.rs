//! Crash-safety wiring between the server and `dar-durable`.
//!
//! The server's commit protocol: apply the batch to the engine, append it
//! to the WAL, and acknowledge only after the append succeeds. If the
//! append fails, the server flips to a sticky *degraded* (read-only) mode
//! — queries keep being served from memory, but further ingest is refused
//! with a structured `degraded` error, because acknowledging writes the
//! log cannot hold would silently lose them on the next crash.
//!
//! Lock ordering: the durable store's mutex is acquired **before** the
//! engine's `RwLock` on every path that touches both (ingest and
//! snapshot-install). That serializes WAL order with engine apply order —
//! the recovered replay sequence is exactly the acknowledged sequence —
//! and makes deadlock impossible by construction.

use crate::json::Json;
use crate::shared::SharedEngine;
use dar_durable::{DurableError, DurableStore, RecoveryReport, Storage};
use dar_engine::DarEngine;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The server's handle on the durable artifacts: the [`DurableStore`]
/// under the mutex that defines the store-before-engine lock order, and
/// the counters of what went through it.
pub struct Durability {
    store: Mutex<DurableStore>,
    counters: Counters,
}

/// What went through a durable store, reported in `stats.server`.
#[derive(Default)]
struct Counters {
    /// Snapshots installed (periodic, `snapshot` verb, final).
    snapshots_written: AtomicU64,
    /// Snapshot installs that failed (the previous good snapshot stays).
    snapshot_failures: AtomicU64,
    /// Batches (and advance markers) committed to the write-ahead log.
    wal_appends: AtomicU64,
    /// WAL appends that failed; each flips the server to degraded mode.
    wal_append_failures: AtomicU64,
    /// Whether the server is in degraded (read-only) mode. Sticky — once
    /// the WAL refuses a committed batch, acknowledging further ingest
    /// would silently lose data on the next crash, so ingest stays
    /// refused until an operator restarts with healthy storage.
    degraded: AtomicBool,
}

impl Durability {
    /// Opens the durable store for the given paths. The recovered state is
    /// discarded — callers recover the engine separately (see
    /// [`recover_backend`]) before the server starts; this open only
    /// re-derives the next WAL sequence number from disk.
    ///
    /// # Errors
    /// Unreadable/unrepairable artifacts, as [`DurableStore::open`].
    pub fn open(
        storage: Arc<dyn Storage>,
        snapshot_path: Option<&Path>,
        wal_path: Option<&Path>,
    ) -> io::Result<Durability> {
        let (store, _) = DurableStore::open(
            storage,
            snapshot_path.map(Path::to_path_buf),
            wal_path.map(Path::to_path_buf),
        )
        .map_err(io::Error::other)?;
        Ok(Durability { store: Mutex::new(store), counters: Counters::default() })
    }

    /// Locks the store. Callers must take this lock *before* any engine
    /// lock they intend to hold concurrently.
    pub fn lock(&self) -> MutexGuard<'_, DurableStore> {
        self.store.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Whether the server is refusing ingest in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.counters.degraded.load(Ordering::SeqCst)
    }

    /// Counts one WAL append's outcome; a failure flips the server into
    /// degraded (read-only) mode for good.
    pub(crate) fn count_append(
        &self,
        appended: Result<u64, DurableError>,
    ) -> Result<u64, DurableError> {
        if appended.is_ok() {
            self.counters.wal_appends.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            self.counters.degraded.store(true, Ordering::SeqCst);
            crate::metrics::metrics().degraded.set(1);
            dar_obs::event("serve.degraded", &[("mode", "read-only")]);
        }
        appended
    }

    /// The durability keys of `dar serve`'s `stats.server` response, all
    /// zero (and not degraded) for a server without a durable store.
    pub(crate) fn stats_json(durability: Option<&Durability>) -> [(&'static str, Json); 5] {
        let none = Counters::default();
        let c = durability.map_or(&none, |d| &d.counters);
        let count = |n: &AtomicU64| Json::Num(n.load(Ordering::Relaxed) as f64);
        [
            ("snapshots_written", count(&c.snapshots_written)),
            ("snapshot_failures", count(&c.snapshot_failures)),
            ("wal_appends", count(&c.wal_appends)),
            ("wal_append_failures", count(&c.wal_append_failures)),
            ("degraded", Json::Bool(c.degraded.load(Ordering::SeqCst))),
        ]
    }
}

/// Recovers a [`DarEngine`] from the durable artifacts at boot:
/// loads the newest verifiable snapshot (falling back past corrupt ones),
/// restores it — or keeps `fresh` when no snapshot survives — and replays
/// the WAL suffix *frame by frame* ([`DarEngine::replay_frame`]):
/// tagged frames fast-forward a window ring to the sequence they carry
/// (empty tagged frames are explicit-advance markers), so a crash-restart
/// rebuilds the exact ring the acknowledged history produced.
///
/// # Errors
/// Unrepairable artifacts, an unparseable (but checksum-valid) snapshot,
/// a snapshot kind (windowed or all-history) mismatching `fresh`'s window
/// configuration, or replay failures — all conditions where silently
/// starting empty would masquerade as data loss.
pub fn recover_backend(
    fresh: DarEngine,
    storage: Arc<dyn Storage>,
    snapshot_path: Option<&Path>,
    wal_path: Option<&Path>,
) -> io::Result<(DarEngine, RecoveryReport)> {
    let (_, recovered) = DurableStore::open(
        storage,
        snapshot_path.map(Path::to_path_buf),
        wal_path.map(Path::to_path_buf),
    )
    .map_err(io::Error::other)?;
    let invalid =
        |e: dar_core::CoreError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let mut engine = match &recovered.snapshot {
        Some(body) => DarEngine::restore(body, fresh.config().clone(), fresh.is_windowed())
            .map_err(invalid)?,
        None => fresh,
    };
    for (_, tag, rows) in &recovered.frames {
        engine.replay_frame(*tag, rows).map_err(invalid)?;
    }
    Ok((engine, recovered.report))
}

/// Closes the current epoch and installs it through the atomic snapshot
/// protocol, returning `(epoch, tuples)`. Counts the outcome in the
/// store's `snapshots_written` / `snapshot_failures`.
///
/// # Errors
/// Serialization or install failures; the previous good snapshot (and the
/// WAL records it needs) remain untouched on disk.
pub fn persist_snapshot(shared: &SharedEngine, durability: &Durability) -> io::Result<(u64, u64)> {
    // Store lock before engine lock — same order as the ingest path.
    let mut store = durability.lock();
    let outcome = (|| {
        let (text, epoch, tuples) = shared
            .snapshot()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        store.install_snapshot(&text).map_err(io::Error::other)?;
        Ok((epoch, tuples))
    })();
    match &outcome {
        Ok(_) => durability.counters.snapshots_written.fetch_add(1, Ordering::Relaxed),
        Err(_) => durability.counters.snapshot_failures.fetch_add(1, Ordering::Relaxed),
    };
    outcome
}
