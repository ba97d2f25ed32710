//! Engine observability counters.

use std::time::Duration;

/// Cumulative counters and timings over the engine's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Total tuples ingested (including those replayed from a snapshot).
    pub tuples_ingested: u64,
    /// Ingest batches accepted.
    pub batches: u64,
    /// Ingest batches rejected by validation (ragged row width or
    /// non-finite values) before touching the forest.
    pub rejected_batches: u64,
    /// Epochs closed (cluster extractions from the live forest).
    pub epochs: u64,
    /// Ingest batches applied from write-ahead-log replay during crash
    /// recovery (each also counts in [`EngineStats::batches`]).
    pub wal_batches_replayed: u64,
    /// Phase I tree rebuilds across all sets so far (threshold raises under
    /// memory pressure).
    pub forest_rebuilds: usize,
    /// Queries answered.
    pub queries: u64,
    /// Queries answered from a cached clustering graph + clique set.
    pub cache_hits: u64,
    /// Queries that had to build Phase II artifacts.
    pub cache_misses: u64,
    /// Bytes of `assoc` distances the current epoch's Phase II artifacts
    /// keep between queries (sampled live; see
    /// [`Phase2Artifacts::assoc_bytes`](mining::Phase2Artifacts::assoc_bytes)).
    pub assoc_bytes: u64,
    /// Time spent ingesting tuples into the forest (incremental Phase I).
    pub ingest_time: Duration,
    /// Time spent closing epochs (cluster extraction + refinement).
    pub epoch_time: Duration,
    /// Time spent building Phase II artifacts (graph + cliques) on cache
    /// misses.
    pub phase2_build_time: Duration,
    /// Time spent generating rules from artifacts (both hit and miss
    /// paths).
    pub rule_time: Duration,
}

impl EngineStats {
    /// Fraction of queries served from cache, or 0.0 before any query.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_queries() {
        assert_eq!(EngineStats::default().cache_hit_rate(), 0.0);
        let s = EngineStats { queries: 4, cache_hits: 3, ..EngineStats::default() };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
