//! Global observability handles for Phase II (`dar_mining_*`).
//!
//! Handles are cached in a `OnceLock`; the whole family registers eagerly
//! on first use so every `dar_mining_*` series is visible in exposition
//! (at zero) before the first query. Recording is relaxed atomics only.

use dar_obs::{global, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// The Phase II metric family.
pub(crate) struct MiningMetrics {
    /// `dar_mining_graph_builds_total`: clustering graphs built.
    pub graph_builds: Counter,
    /// `dar_mining_graph_edges_total`: edges across all built graphs.
    pub graph_edges: Counter,
    /// `dar_mining_graph_comparisons_total`: cluster-pair distance
    /// comparisons performed.
    pub comparisons: Counter,
    /// `dar_mining_pruned_images_total`: poor-density images pruned
    /// during graph builds (Section 6.2 leniency knob at work).
    pub pruned_images: Counter,
    /// `dar_mining_cliques_total`: maximal cliques enumerated.
    pub cliques: Counter,
    /// `dar_mining_cliques_truncated_total`: builds whose clique
    /// enumeration hit its cap.
    pub cliques_truncated: Counter,
    /// `dar_mining_rules_emitted_total`: DARs returned to callers.
    pub rules_emitted: Counter,
    /// `dar_mining_rules_truncated_total`: queries whose rule generation
    /// hit a budget.
    pub rules_truncated: Counter,
    /// `dar_mining_assoc_distances_total`: `assoc` distances evaluated
    /// (one per cross-set node pair of each matrix built).
    pub assoc_distances: Counter,
    /// `dar_mining_assoc_retained_bytes`: bytes of `assoc` distance
    /// matrices artifact sets currently keep between queries.
    pub assoc_retained_bytes: Gauge,
    /// `dar_mining_phase2_build_ns`: wall-clock per `Phase2Artifacts`
    /// build (graph + cliques).
    pub phase2_build_ns: Histogram,
    /// `dar_mining_rule_gen_ns`: wall-clock per rule-generation pass.
    pub rule_gen_ns: Histogram,
}

/// The cached handles.
pub(crate) fn metrics() -> &'static MiningMetrics {
    static METRICS: OnceLock<MiningMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        MiningMetrics {
            graph_builds: r.counter("dar_mining_graph_builds_total"),
            graph_edges: r.counter("dar_mining_graph_edges_total"),
            comparisons: r.counter("dar_mining_graph_comparisons_total"),
            pruned_images: r.counter("dar_mining_pruned_images_total"),
            cliques: r.counter("dar_mining_cliques_total"),
            cliques_truncated: r.counter("dar_mining_cliques_truncated_total"),
            rules_emitted: r.counter("dar_mining_rules_emitted_total"),
            rules_truncated: r.counter("dar_mining_rules_truncated_total"),
            assoc_distances: r.counter("dar_mining_assoc_distances_total"),
            assoc_retained_bytes: r.gauge("dar_mining_assoc_retained_bytes"),
            phase2_build_ns: r.histogram("dar_mining_phase2_build_ns"),
            rule_gen_ns: r.histogram("dar_mining_rule_gen_ns"),
        }
    })
}
