//! The re-tunable half of Phase II, split out of the one-shot pipeline
//! configuration.
//!
//! Theorem 6.1 means everything after the data scan is a function of the
//! ACF summaries alone, and Section 6.2 observes that the interesting knobs
//! — density leniency, the degree-of-association threshold `D0`, rule arity
//! — are exactly the ones an analyst wants to sweep *without* re-scanning.
//! This module makes that split explicit:
//!
//! * [`RuleQuery`] holds the re-tunable parameters of one rule-mining
//!   request (what used to be loose fields on `DarConfig`);
//! * [`Phase2Artifacts`] is the expensive intermediate — clustering graph +
//!   maximal cliques at one density setting, plus the `assoc` distances
//!   once a query needs them — that a long-lived engine can cache and
//!   answer many [`RuleQuery`]s from (see the `dar-engine` crate).

use crate::assoc::{matrix_bytes, AssocDistances, Retained, ASSOC_RETAIN_BYTES};
use crate::clique::non_trivial;
use crate::graph::{ClusterDistance, ClusteringGraph, GraphConfig};
use crate::pipeline::auto_density_thresholds;
use crate::rules::{needs_assoc, Dar, RuleConfig, RuleKernel};
use dar_core::{ClusterSummary, CoreError};
use dar_par::ThreadPool;
use std::sync::OnceLock;

/// How Phase II derives its per-set density thresholds `d0^X` (Dfn 4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum DensitySpec {
    /// Auto-derive from the Phase I output, scaled by a leniency factor
    /// ("using a more lenient (higher) threshold in Phase II produces a
    /// better set of rules", Section 6.2).
    Auto {
        /// Multiplier on the per-set Phase I base scale.
        factor: f64,
    },
    /// Explicit per-set thresholds.
    Explicit(Vec<f64>),
}

impl Default for DensitySpec {
    fn default() -> Self {
        DensitySpec::Auto { factor: 1.5 }
    }
}

impl DensitySpec {
    /// Resolves to concrete per-set thresholds given the Phase I output.
    ///
    /// # Errors
    /// Explicit thresholds with the wrong arity are rejected.
    pub fn resolve(
        &self,
        clusters: &[ClusterSummary],
        tree_thresholds: &[f64],
        num_sets: usize,
    ) -> Result<Vec<f64>, CoreError> {
        match self {
            DensitySpec::Auto { factor } => {
                Ok(auto_density_thresholds(clusters, tree_thresholds, num_sets, *factor))
            }
            DensitySpec::Explicit(thresholds) => {
                if thresholds.len() != num_sets {
                    return Err(CoreError::InvalidPartitioning(format!(
                        "explicit density thresholds have {} entries but the partitioning has \
                         {num_sets} sets",
                        thresholds.len()
                    )));
                }
                Ok(thresholds.clone())
            }
        }
    }
}

/// The interestingness measure a query ranks its rules by.
///
/// `Degree` is the paper's own degree of association (Section 5) and the
/// default: ranking by it reproduces the engine's historical output order
/// exactly (ascending degree, then rule identity). The classical measures
/// are evaluated by the `dar-rank` crate from per-rule support statistics;
/// this enum is plain data so it can travel on a [`RuleQuery`] without
/// `mining` depending on the ranking layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Measure {
    /// The paper's normalized degree of association (lower degree is
    /// stronger; ranked ascending).
    #[default]
    Degree,
    /// Lift: `P(X ∧ Y) / (P(X)·P(Y))`.
    Lift,
    /// Conviction: `(1 − P(Y)) / (1 − conf(X ⇒ Y))`, capped at a finite
    /// constant so it survives JSON encoding.
    Conviction,
    /// Leverage (Piatetsky-Shapiro): `P(X ∧ Y) − P(X)·P(Y)`.
    Leverage,
    /// Jaccard: `P(X ∧ Y) / P(X ∨ Y)`.
    Jaccard,
}

/// Every measure, in wire-name order (useful for CLI help and sweeps).
pub const MEASURES: &[Measure] =
    &[Measure::Degree, Measure::Lift, Measure::Conviction, Measure::Leverage, Measure::Jaccard];

impl Measure {
    /// The wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            Measure::Degree => "degree",
            Measure::Lift => "lift",
            Measure::Conviction => "conviction",
            Measure::Leverage => "leverage",
            Measure::Jaccard => "jaccard",
        }
    }

    /// Parses a wire/CLI name.
    pub fn parse(name: &str) -> Option<Measure> {
        MEASURES.iter().copied().find(|m| m.as_str() == name)
    }

    /// A stable small integer for cache keys.
    pub fn discriminant(self) -> u64 {
        match self {
            Measure::Degree => 0,
            Measure::Lift => 1,
            Measure::Conviction => 2,
            Measure::Leverage => 3,
            Measure::Jaccard => 4,
        }
    }
}

impl std::fmt::Display for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule-mining request: the parameters an analyst re-tunes between
/// queries over the same clustered data.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleQuery {
    /// Density thresholds for the clustering graph.
    pub density: DensitySpec,
    /// Degree-of-association leniency: `D0` per set is this factor times
    /// the set's density threshold.
    pub degree_factor: f64,
    /// Maximum antecedent arity.
    pub max_antecedent: usize,
    /// Maximum consequent arity.
    pub max_consequent: usize,
    /// Rule-count cap (0 = unbounded).
    pub max_rules: usize,
    /// Budget on clique-pair work during rule generation (0 = unbounded).
    pub max_pair_work: u64,
    /// The interestingness measure rules are ranked by.
    pub measure: Measure,
    /// Drop rules whose measure value falls below this floor.
    pub min_measure: Option<f64>,
    /// Keep only the best `top_k` ranked rules (0 = all).
    pub top_k: usize,
    /// Collapse near-identical rules (same attribute sets, overlapping
    /// cluster bounding boxes) to one representative per cluster.
    pub prune_redundant: bool,
    /// Anytime mode: sample clique pairs under this wall-clock budget in
    /// milliseconds and report an honest coverage fraction (0 = exact).
    pub budget_ms: u64,
}

impl Default for RuleQuery {
    fn default() -> Self {
        RuleQuery {
            density: DensitySpec::default(),
            degree_factor: 2.0,
            max_antecedent: 3,
            max_consequent: 2,
            max_rules: 100_000,
            max_pair_work: 10_000_000,
            measure: Measure::Degree,
            min_measure: None,
            top_k: 0,
            prune_redundant: false,
            budget_ms: 0,
        }
    }
}

impl RuleQuery {
    /// The per-set `D0` thresholds implied by this query at the given
    /// density thresholds.
    pub fn degree_thresholds(&self, density: &[f64]) -> Vec<f64> {
        density.iter().map(|d| d * self.degree_factor).collect()
    }

    /// The [`RuleConfig`] this query induces.
    pub fn rule_config(&self, metric: ClusterDistance, density: &[f64]) -> RuleConfig {
        RuleConfig {
            metric,
            degree_thresholds: self.degree_thresholds(density),
            max_antecedent: self.max_antecedent,
            max_consequent: self.max_consequent,
            max_rules: self.max_rules,
            max_pair_work: self.max_pair_work,
        }
    }
}

/// The cacheable intermediate of Phase II: the clustering graph over the
/// frequent clusters and its maximal cliques, at one density setting, plus
/// the `assoc` distances of Dfn 5.1 once a query has needed them.
///
/// Building the graph and cliques is the expensive part of Phase II
/// (all-pairs distances + Bron–Kerbosch). The `assoc` distances depend on
/// the clusters and the metric, not on `D0`, so the first query that can
/// yield rules evaluates them and every later query compares them against
/// its own `D0`: a retune evaluates no distance. A long-lived engine
/// memoizes one of these per density setting per epoch.
#[derive(Debug)]
pub struct Phase2Artifacts {
    /// The density thresholds the graph was built at.
    pub density_thresholds: Vec<f64>,
    /// The clustering graph over the frequent clusters.
    pub graph: ClusteringGraph,
    /// Maximal cliques (indices into `graph.clusters()`).
    pub cliques: Vec<Vec<usize>>,
    /// Whether clique enumeration hit its cap.
    pub cliques_truncated: bool,
    /// The inter-cluster distance the graph was built with; every query
    /// mines under it.
    metric: ClusterDistance,
    /// The `assoc` distances, filled by the first query that needs them
    /// when the matrix fits [`ASSOC_RETAIN_BYTES`].
    assoc: OnceLock<Retained>,
}

impl Phase2Artifacts {
    /// Builds the graph and enumerates its maximal cliques on the calling
    /// thread.
    pub fn build(
        frequent: Vec<ClusterSummary>,
        density_thresholds: Vec<f64>,
        metric: ClusterDistance,
        prune_poor_density: bool,
        max_cliques: usize,
    ) -> Self {
        Self::build_pooled(
            frequent,
            density_thresholds,
            metric,
            prune_poor_density,
            max_cliques,
            &ThreadPool::serial(),
        )
    }

    /// [`Phase2Artifacts::build`] with the graph's all-pairs distances and
    /// the per-component clique enumeration spread across `pool`. Both
    /// stages use deterministic ordered reductions, so the artifacts are
    /// byte-identical to the serial build at every worker count — which is
    /// what lets an engine cache built at one thread setting answer queries
    /// interchangeably with any other.
    pub fn build_pooled(
        frequent: Vec<ClusterSummary>,
        density_thresholds: Vec<f64>,
        metric: ClusterDistance,
        prune_poor_density: bool,
        max_cliques: usize,
        pool: &ThreadPool,
    ) -> Self {
        let m = crate::metrics::metrics();
        let _t = dar_obs::Span::new(m.phase2_build_ns.clone());
        let graph = ClusteringGraph::build_pooled(
            frequent,
            &GraphConfig {
                metric,
                density_thresholds: density_thresholds.clone(),
                prune_poor_density,
            },
            pool,
        );
        let (cliques, cliques_truncated) =
            crate::clique::maximal_cliques_pooled(graph.adjacency(), max_cliques, pool);
        m.graph_builds.inc();
        m.graph_edges.add(graph.edges as u64);
        m.comparisons.add(graph.comparisons);
        m.pruned_images.add(graph.pruned_images as u64);
        m.cliques.add(cliques.len() as u64);
        if cliques_truncated {
            m.cliques_truncated.inc();
        }
        Self::new(density_thresholds, metric, graph, cliques, cliques_truncated)
    }

    /// Artifacts over a graph and cliques built elsewhere (for instance a
    /// [`MineResult`](crate::MineResult)'s), built with `metric` at
    /// `density_thresholds`.
    pub fn new(
        density_thresholds: Vec<f64>,
        metric: ClusterDistance,
        graph: ClusteringGraph,
        cliques: Vec<Vec<usize>>,
        cliques_truncated: bool,
    ) -> Self {
        Phase2Artifacts {
            density_thresholds,
            graph,
            cliques,
            cliques_truncated,
            metric,
            assoc: OnceLock::new(),
        }
    }

    /// Number of cliques of size ≥ 2.
    pub fn nontrivial_cliques(&self) -> usize {
        non_trivial(&self.cliques)
    }

    /// Bytes of `assoc` distances these artifacts keep: 0 until a query
    /// that can yield rules has run, and 0 when the matrix exceeds
    /// [`ASSOC_RETAIN_BYTES`].
    pub fn assoc_bytes(&self) -> usize {
        self.assoc.get().map_or(0, |retained| retained.0.bytes())
    }

    /// Mines the rules a query asks for from the cached graph, cliques and
    /// `assoc` distances, under the metric the graph was built with. Only
    /// the first query that can yield rules evaluates distances (see
    /// [`Phase2Artifacts::with_kernel`]).
    ///
    /// Returns the rules and whether generation hit a budget.
    pub fn mine(&self, query: &RuleQuery) -> (Vec<Dar>, bool) {
        self.mine_pooled(query, &ThreadPool::serial())
    }

    /// [`Phase2Artifacts::mine`] with rule generation parallelized over
    /// consequent cliques on `pool`. Byte-identical to the serial path at
    /// every worker count (see
    /// [`generate_dars_capped_pooled`](crate::rules::generate_dars_capped_pooled)).
    pub fn mine_pooled(&self, query: &RuleQuery, pool: &ThreadPool) -> (Vec<Dar>, bool) {
        self.mine_with(query, pool, |kernel| kernel.generate(pool))
    }

    /// Runs `generate` over the query's [`RuleKernel`]
    /// ([`Phase2Artifacts::with_kernel`]), timed and counted as one
    /// rule-generation pass. `generate` returns the rules it emitted and
    /// whether a budget truncated them.
    pub fn mine_with(
        &self,
        query: &RuleQuery,
        pool: &ThreadPool,
        generate: impl FnOnce(&RuleKernel<'_>) -> (Vec<Dar>, bool),
    ) -> (Vec<Dar>, bool) {
        let m = crate::metrics::metrics();
        let _t = dar_obs::Span::new(m.rule_gen_ns.clone());
        let (rules, truncated) = self.with_kernel(query, pool, generate);
        m.rules_emitted.add(rules.len() as u64);
        if truncated {
            m.rules_truncated.inc();
        }
        (rules, truncated)
    }

    /// Builds the query's [`RuleKernel`] and runs `f` over it.
    ///
    /// A query that can yield rules needs the `assoc` distances. The first
    /// one evaluates them on `pool` and keeps them when the matrix fits
    /// [`ASSOC_RETAIN_BYTES`]; later ones read the kept matrix. Above the
    /// bound every such query evaluates its own and drops it afterwards.
    pub fn with_kernel<R>(
        &self,
        query: &RuleQuery,
        pool: &ThreadPool,
        f: impl FnOnce(&RuleKernel<'_>) -> R,
    ) -> R {
        self.with_kernel_within(ASSOC_RETAIN_BYTES, query, pool, f)
    }

    /// [`Phase2Artifacts::with_kernel`] under a retention bound of `limit`
    /// bytes.
    pub(crate) fn with_kernel_within<R>(
        &self,
        limit: usize,
        query: &RuleQuery,
        pool: &ThreadPool,
        f: impl FnOnce(&RuleKernel<'_>) -> R,
    ) -> R {
        let config = query.rule_config(self.metric, &self.density_thresholds);
        if !needs_assoc(&config, &self.cliques) {
            return f(&RuleKernel::new(&self.graph, &self.cliques, &config, None));
        }
        if matrix_bytes(self.graph.len()) <= limit {
            let retained = self.assoc.get_or_init(|| {
                Retained::new(AssocDistances::build(&self.graph, self.metric, pool))
            });
            return f(&RuleKernel::new(&self.graph, &self.cliques, &config, Some(&retained.0)));
        }
        let distances = AssocDistances::build(&self.graph, self.metric, pool);
        f(&RuleKernel::new(&self.graph, &self.cliques, &config, Some(&distances)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    fn cluster(id: u32, set: usize, x: f64, y: f64, n: usize) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        for k in 0..n {
            let jitter = 0.05 * (k as f64 / n.max(1) as f64 - 0.5);
            acf.add_row(&[x + jitter, y + jitter]);
        }
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    fn two_block_clusters() -> Vec<ClusterSummary> {
        vec![
            cluster(0, 0, 0.0, 5.0, 10),
            cluster(1, 1, 0.0, 5.0, 10),
            cluster(2, 0, 50.0, 9.0, 10),
            cluster(3, 1, 50.0, 9.0, 10),
        ]
    }

    #[test]
    fn explicit_density_resolves_and_validates() {
        let spec = DensitySpec::Explicit(vec![1.0, 2.0]);
        assert_eq!(spec.resolve(&[], &[], 2).unwrap(), vec![1.0, 2.0]);
        assert!(spec.resolve(&[], &[], 3).is_err());
    }

    #[test]
    fn auto_density_matches_pipeline_helper() {
        let clusters = two_block_clusters();
        let spec = DensitySpec::Auto { factor: 1.5 };
        let resolved = spec.resolve(&clusters, &[1.0, 1.0], 2).unwrap();
        assert_eq!(resolved, auto_density_thresholds(&clusters, &[1.0, 1.0], 2, 1.5));
    }

    #[test]
    fn artifacts_mine_same_rules_for_same_query() {
        let artifacts = Phase2Artifacts::build(
            two_block_clusters(),
            vec![1.0, 1.0],
            ClusterDistance::D2,
            true,
            0,
        );
        assert_eq!(artifacts.graph.edges, 2, "one edge per block");
        assert_eq!(artifacts.nontrivial_cliques(), 2);
        let query = RuleQuery { degree_factor: 2.0, ..RuleQuery::default() };
        let (rules_a, truncated) = artifacts.mine(&query);
        assert!(!truncated);
        assert!(!rules_a.is_empty());
        let (rules_b, _) = artifacts.mine(&query);
        assert_eq!(rules_a, rules_b, "mining from cached artifacts is pure");
    }

    /// Above the retention bound every query evaluates its own distances
    /// through the same builder and keeps none: the rules (degree bits
    /// included) equal the kept-matrix path's and the one-shot
    /// generator's, at every worker count.
    #[test]
    fn over_bound_queries_mine_the_kept_path_rules_and_keep_nothing() {
        use crate::rules::generate_dars_capped_pooled;
        use proptest::TestRng;
        let bits = |(rules, truncated): (Vec<Dar>, bool)| {
            let rules: Vec<_> = rules
                .into_iter()
                .map(|r| (r.antecedent, r.consequent, r.degree.to_bits(), r.min_cluster_support))
                .collect();
            (rules, truncated)
        };
        for seed in 0..24 {
            let mut rng = TestRng::with_seed(seed);
            let layout = AcfLayout::new(vec![1, 1, 1]);
            let clusters: Vec<ClusterSummary> = (0..4 + rng.index(12) as usize)
                .map(|id| {
                    let set = rng.index(3) as usize;
                    let mut acf = Acf::empty(&layout, set);
                    for _ in 0..1 + rng.index(4) {
                        let row: Vec<f64> = (0..3).map(|_| 4.0 * rng.unit()).collect();
                        acf.add_row(&row);
                    }
                    ClusterSummary { id: ClusterId(id as u32), set, acf }
                })
                .collect();
            let density = vec![3.0; 3];
            for workers in [1, 2, 4, 8] {
                let pool = ThreadPool::new(workers);
                let build = || {
                    Phase2Artifacts::build_pooled(
                        clusters.clone(),
                        density.clone(),
                        ClusterDistance::D2,
                        false,
                        0,
                        &pool,
                    )
                };
                let (over, kept) = (build(), build());
                for degree_factor in [1.0, 0.0, 0.4, 2.5] {
                    let query = RuleQuery { degree_factor, max_rules: 0, ..RuleQuery::default() };
                    let fresh = over.with_kernel_within(0, &query, &pool, |k| k.generate(&pool));
                    let config = query.rule_config(ClusterDistance::D2, &density);
                    let one_shot =
                        generate_dars_capped_pooled(&over.graph, &over.cliques, &config, &pool);
                    let want = bits(kept.mine_pooled(&query, &pool));
                    assert_eq!(bits(fresh), want, "seed {seed} workers {workers} {query:?}");
                    assert_eq!(bits(one_shot), want, "seed {seed} workers {workers} {query:?}");
                    assert_eq!(over.assoc_bytes(), 0, "over the bound nothing is kept");
                }
            }
        }
    }

    #[test]
    fn degree_thresholds_scale_density() {
        let query = RuleQuery { degree_factor: 3.0, ..RuleQuery::default() };
        assert_eq!(query.degree_thresholds(&[1.0, 2.0]), vec![3.0, 6.0]);
        let rc = query.rule_config(ClusterDistance::D1, &[1.0, 2.0]);
        assert_eq!(rc.metric, ClusterDistance::D1);
        assert_eq!(rc.degree_thresholds, vec![3.0, 6.0]);
    }
}
