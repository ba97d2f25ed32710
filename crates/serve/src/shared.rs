//! The epoch-aware concurrency wrapper around an [`EngineBackend`].
//!
//! Theorem 6.1 makes the engine naturally read-concurrent: once an epoch
//! is closed, a query is a pure function of the cached ACF summaries and
//! Phase II artifacts. [`SharedEngine`] turns that into an `RwLock`
//! discipline — many readers answer re-tuned queries from the cached
//! cliques in parallel through [`dar_engine::DarEngine::query_cached`];
//! the write lock is taken only to ingest, advance a window, close an
//! epoch, build a missing density setting, or snapshot. The backend mines
//! all history or, with a window ring, a sliding window; the lock
//! discipline is identical.

use dar_core::{ClusterSummary, CoreError};
use dar_engine::{EngineStats, QueryOutcome};
use dar_stream::{AdvanceOutcome, EngineBackend, WindowedIngest};
use mining::RuleQuery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An [`EngineBackend`] shared between one writer path and many reader
/// threads.
pub struct SharedEngine {
    engine: RwLock<EngineBackend>,
    /// Queries answered entirely under the read lock (the engine's own
    /// counters need `&mut`, so the read path keeps its tally here).
    read_hits: AtomicU64,
}

impl SharedEngine {
    /// Wraps an engine for shared use. Accepts a plain
    /// [`dar_engine::DarEngine`] (all history) or an [`EngineBackend`].
    pub fn new(engine: impl Into<EngineBackend>) -> Self {
        SharedEngine { engine: RwLock::new(engine.into()), read_hits: AtomicU64::new(0) }
    }

    fn read(&self) -> RwLockReadGuard<'_, EngineBackend> {
        self.engine.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, EngineBackend> {
        self.engine.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Answers a rule query, preferring the concurrent read path: when the
    /// epoch is closed and this density setting is cached, any number of
    /// threads answer in parallel without blocking each other (or the
    /// writer's next batch). Only an open epoch or an unseen density
    /// setting takes the write lock to build — after which every later
    /// query at that setting is a shared read again.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query(&self, query: &RuleQuery) -> Result<QueryOutcome, CoreError> {
        {
            let engine = self.read();
            if let Some(outcome) = engine.engine().query_cached(query)? {
                self.read_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(outcome);
            }
        }
        // Between dropping the read lock and acquiring the write lock the
        // world may change (another builder, another ingest) — the full
        // query path handles every interleaving and re-checks its cache.
        self.write().query(query)
    }

    /// Ingests a batch (single-writer path), returning the engine's total
    /// tuple count after the batch plus, for a windowed backend, what the
    /// batch did to the window ring (the serving layer tags the WAL frame
    /// and publishes rule churn from it).
    ///
    /// # Errors
    /// Validation errors from ingest; the batch is rejected whole and the
    /// engine is untouched.
    pub fn ingest(&self, rows: &[Vec<f64>]) -> Result<(u64, Option<WindowedIngest>), CoreError> {
        let mut engine = self.write();
        let windowed = engine.ingest(rows)?;
        Ok((engine.engine().tuples(), windowed))
    }

    /// Seals the open window explicitly (windowed backend only).
    ///
    /// # Errors
    /// The static backend has no windows to advance.
    pub fn advance(&self) -> Result<AdvanceOutcome, CoreError> {
        self.write().advance()
    }

    /// Whether the backend mines a sliding window.
    pub fn is_windowed(&self) -> bool {
        self.read().is_windowed()
    }

    /// The live window horizon `(oldest seq, open seq)`, if windowed.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.read().window_span()
    }

    /// Closes the current epoch (if open) and serializes it, returning
    /// `(bytes, epoch, tuples)`.
    ///
    /// # Errors
    /// Serialization errors from the backend snapshot.
    pub fn snapshot(&self) -> Result<(Vec<u8>, u64, u64), CoreError> {
        let mut engine = self.write();
        let bytes = engine.snapshot()?;
        Ok((bytes, engine.engine().epoch(), engine.engine().tuples()))
    }

    /// The backend's *mergeable* serialization for a coordinator's
    /// `pull_snapshot` — a plain engine-v2 body even on a windowed
    /// backend (live horizon only, no ring framing), returning
    /// `(bytes, epoch, tuples)`.
    ///
    /// # Errors
    /// Serialization errors from the backend snapshot.
    pub fn pull_snapshot(&self) -> Result<(Vec<u8>, u64, u64), CoreError> {
        let mut engine = self.write();
        let bytes = engine.pull_snapshot()?;
        Ok((bytes, engine.engine().epoch(), engine.engine().tuples()))
    }

    /// The current epoch's cluster summaries (closing the epoch if
    /// needed), with the epoch number they belong to.
    pub fn clusters(&self) -> (u64, Vec<ClusterSummary>) {
        let mut engine = self.write();
        let clusters = engine.clusters().to_vec();
        (engine.engine().epoch(), clusters)
    }

    /// Engine counters plus the read-path hit tally.
    pub fn stats(&self) -> (EngineStats, u64) {
        (self.read().engine().stats(), self.read_hits.load(Ordering::Relaxed))
    }

    /// Tuples in the mining horizon (read lock only) — lifetime count for
    /// an all-history backend, live-window count for a windowed one.
    pub fn tuples(&self) -> u64 {
        self.read().engine().tuples()
    }

    /// Shard-identity summary for the `shard_stats` verb: `(epoch,
    /// tuples, required row width)` under one read lock.
    pub fn meta(&self) -> (u64, u64, usize) {
        let engine = self.read();
        let engine = engine.engine();
        (engine.epoch(), engine.tuples(), engine.required_row_width())
    }

    /// A clone of the engine's partitioning (read lock only) — the
    /// `shard_rescan` verb assigns WAL rows to coordinator-supplied
    /// clusters under it.
    pub fn partitioning(&self) -> dar_core::Partitioning {
        self.read().engine().partitioning().clone()
    }

    /// The engine's configured worker-thread count (read lock only) —
    /// `shard_rescan` parallelizes its WAL re-scan with the same budget
    /// the engine mines under.
    pub fn engine_threads(&self) -> usize {
        self.read().engine().config().threads
    }

    /// Cache hits served entirely under the read lock.
    pub fn read_hits(&self) -> u64 {
        self.read_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Metric, Partitioning, Schema};
    use dar_engine::{DarEngine, EngineConfig};
    use dar_stream::{EngineBackend, WindowSpec};

    fn config() -> EngineConfig {
        let mut config = EngineConfig::default();
        config.birch.initial_threshold = 1.0;
        config.min_support_frac = 0.2;
        config
    }

    fn partitioning() -> Partitioning {
        Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean)
    }

    fn shared() -> SharedEngine {
        SharedEngine::new(DarEngine::new(partitioning(), config()).unwrap())
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let block = if i % 2 == 0 { 0.0 } else { 50.0 };
                vec![block, block + 10.0]
            })
            .collect()
    }

    #[test]
    fn first_query_builds_then_readers_hit() {
        let shared = shared();
        assert_eq!(shared.ingest(&rows(40)).unwrap(), (40, None));
        let q = RuleQuery::default();
        let first = shared.query(&q).unwrap();
        assert!(!first.cached);
        assert_eq!(shared.read_hits(), 0);
        let again = shared.query(&q).unwrap();
        assert!(again.cached);
        assert_eq!(again.rules, first.rules);
        assert_eq!(shared.read_hits(), 1);
        let (stats, read_hits) = shared.stats();
        assert_eq!(stats.queries, 1, "the read path bypasses engine counters");
        assert_eq!(read_hits, 1);
    }

    #[test]
    fn ingest_reopens_the_epoch_for_everyone() {
        let shared = shared();
        shared.ingest(&rows(40)).unwrap();
        let q = RuleQuery::default();
        let before = shared.query(&q).unwrap();
        shared.ingest(&rows(40)).unwrap();
        let after = shared.query(&q).unwrap();
        assert!(after.epoch > before.epoch);
        assert!(!after.cached);
    }

    #[test]
    fn windowed_backend_reports_window_movement() {
        let engine =
            EngineBackend::new(partitioning(), config(), Some(WindowSpec { batches: 1, slots: 2 }))
                .unwrap();
        let windowed = SharedEngine::new(engine);
        assert!(windowed.is_windowed());
        assert_eq!(windowed.window_span(), Some((0, 0)));
        let (total, info) = windowed.ingest(&rows(40)).unwrap();
        let info = info.expect("windowed backend reports window movement");
        assert_eq!(total, 40, "one-batch windows: the batch fills window 0");
        assert!(info.advanced);
        assert_eq!(info.window_seq, 0);
        let out = windowed.advance().unwrap();
        assert_eq!(out.retired_seq, Some(0), "two slots overflow on the second seal");
        assert_eq!(windowed.tuples(), 0, "window 0's rows left the horizon");

        let fixed = shared();
        assert!(!fixed.is_windowed());
        assert!(fixed.advance().is_err(), "static backend refuses advance");
    }
}
