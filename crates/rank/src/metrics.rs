//! Global observability handles for the ranking layer (`dar_rank_*`).
//!
//! Handles are cached in a `OnceLock`; the whole family registers eagerly
//! on first use so every `dar_rank_*` series is visible in exposition (at
//! zero) before the first ranked query.

use dar_obs::{global, Counter, Histogram};
use std::sync::OnceLock;

/// The ranking metric family.
pub(crate) struct RankMetrics {
    /// `dar_rank_rank_ns`: wall-clock per ranking pass (evaluate + sort +
    /// prune + top-k).
    pub rank_ns: Histogram,
    /// `dar_rank_rules_in_total`: rules entering the ranking pipeline.
    pub rules_in: Counter,
    /// `dar_rank_rules_out_total`: rules surviving filter/prune/top-k.
    pub rules_out: Counter,
    /// `dar_rank_pruned_rules_total`: rules dropped as redundant.
    pub pruned_rules: Counter,
    /// `dar_rank_prune_clusters_total`: redundancy clusters that absorbed
    /// at least one duplicate rule.
    pub prune_clusters: Counter,
    /// `dar_rank_anytime_queries_total`: budgeted (sampled) mining passes.
    pub anytime_queries: Counter,
    /// `dar_rank_anytime_pairs_total`: clique pairs examined by the
    /// anytime sampler.
    pub anytime_pairs: Counter,
    /// `dar_rank_anytime_coverage_permille`: coverage fraction × 1000 per
    /// budgeted pass (1000 = the sampler saw every pair).
    pub anytime_coverage_permille: Histogram,
    /// `dar_rank_topk_queries_total`: top-k search passes.
    pub topk_queries: Counter,
    /// `dar_rank_topk_triples_emitted_total`: triples the top-k search
    /// emitted.
    pub topk_triples_emitted: Counter,
    /// `dar_rank_topk_triples_skipped_total`: scanned triples the top-k
    /// search skipped, their bound worse than the k-th rule.
    pub topk_triples_skipped: Counter,
    /// `dar_rank_topk_fallbacks_total`: top-k passes that fell back to
    /// exhaustive emission because `max_rules` could bind.
    pub topk_fallbacks: Counter,
}

/// The cached handles.
pub(crate) fn metrics() -> &'static RankMetrics {
    static METRICS: OnceLock<RankMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        RankMetrics {
            rank_ns: r.histogram("dar_rank_rank_ns"),
            rules_in: r.counter("dar_rank_rules_in_total"),
            rules_out: r.counter("dar_rank_rules_out_total"),
            pruned_rules: r.counter("dar_rank_pruned_rules_total"),
            prune_clusters: r.counter("dar_rank_prune_clusters_total"),
            anytime_queries: r.counter("dar_rank_anytime_queries_total"),
            anytime_pairs: r.counter("dar_rank_anytime_pairs_total"),
            anytime_coverage_permille: r.histogram("dar_rank_anytime_coverage_permille"),
            topk_queries: r.counter("dar_rank_topk_queries_total"),
            topk_triples_emitted: r.counter("dar_rank_topk_triples_emitted_total"),
            topk_triples_skipped: r.counter("dar_rank_topk_triples_skipped_total"),
            topk_fallbacks: r.counter("dar_rank_topk_fallbacks_total"),
        }
    })
}
