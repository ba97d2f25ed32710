//! The end-to-end DAR miner: Phase I (adaptive clustering) + Phase II
//! (clustering graph → cliques → rules), with instrumentation for every
//! number reported in the paper's Section 7.

use crate::assign::CentroidIndex;
use crate::graph::{ClusterDistance, ClusteringGraph};
use crate::query::{DensitySpec, Phase2Artifacts, RuleQuery};
use crate::rules::Dar;
use birch::{refine_forest_output, AcfForest, BirchConfig, ForestStats};
use dar_core::{Cf, ClusterSummary, CoreError, Partitioning, Relation, SetId};
use std::time::{Duration, Instant};

/// Configuration of a full mining run: the Phase I scan parameters plus one
/// embedded [`RuleQuery`] holding the re-tunable Phase II parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DarConfig {
    /// Phase I clustering engine configuration (per-tree).
    pub birch: BirchConfig,
    /// Per-set initial diameter thresholds, overriding
    /// `birch.initial_threshold` — use when attribute sets live on
    /// different scales (the paper selects a threshold per `X_i`,
    /// Section 4.3.1). `None` applies `birch.initial_threshold` uniformly.
    pub initial_thresholds: Option<Vec<f64>>,
    /// Frequency threshold `s0` as a fraction of the relation size
    /// (the paper's experiments used 3%).
    pub min_support_frac: f64,
    /// Inter-cluster distance used for the graph and rules.
    pub metric: ClusterDistance,
    /// Enable the Section 6.2 poor-density pruning heuristic.
    pub prune_poor_density: bool,
    /// Clique-count cap (0 = unbounded).
    pub max_cliques: usize,
    /// The re-tunable Phase II parameters: density spec, degree factor,
    /// rule arity and budgets (see [`RuleQuery`]).
    pub query: RuleQuery,
    /// Rescan the data once to count exact candidate-rule frequencies
    /// (Section 6.2's optional post-processing step).
    pub rescan_candidate_frequency: bool,
    /// Run the global refinement pass (BIRCH "Phase 3") after the scan:
    /// agglomeratively merge leaf clusters whose union still satisfies the
    /// per-tree diameter threshold, undoing order-dependent splits — the
    /// "non-optimal clustering strategy" drift the paper measures in
    /// Section 7.2.
    pub refine_clusters: bool,
    /// Worker threads for the data-parallel regions (Phase I tree fan-out,
    /// Phase II graph rows and clique components). `0` means the host's
    /// available parallelism. The mined rules are byte-identical at every
    /// setting — both phases decompose into independent shards (Dfn 4.2
    /// partitions; Theorem 6.1 summary-only distances) recombined by
    /// deterministic ordered reductions — so this knob trades wall-clock
    /// only, never output.
    pub threads: usize,
}

impl Default for DarConfig {
    fn default() -> Self {
        DarConfig {
            birch: BirchConfig::default(),
            initial_thresholds: None,
            min_support_frac: 0.03,
            metric: ClusterDistance::D2,
            prune_poor_density: true,
            max_cliques: 100_000,
            query: RuleQuery::default(),
            rescan_candidate_frequency: false,
            refine_clusters: false,
            threads: 0,
        }
    }
}

/// Instrumentation collected across a mining run — every quantity the
/// paper's evaluation section reports.
#[derive(Debug, Clone)]
pub struct MineStats {
    /// Wall-clock time of Phase I (scan + tree maintenance).
    pub phase1: Duration,
    /// Wall-clock time of Phase II (graph + cliques + rules).
    pub phase2: Duration,
    /// Tuples scanned.
    pub tuples: usize,
    /// Clusters found by Phase I (all, before the frequency filter).
    pub clusters_total: usize,
    /// Clusters meeting the frequency threshold (the graph's nodes).
    pub clusters_frequent: usize,
    /// The absolute frequency threshold `s0` used.
    pub s0: u64,
    /// Edges in the clustering graph.
    pub graph_edges: usize,
    /// Cluster-pair distance evaluations performed.
    pub graph_comparisons: u64,
    /// Node–set combinations skipped by the pruning heuristic.
    pub graph_pruned_images: usize,
    /// Maximal cliques found.
    pub cliques: usize,
    /// Cliques of size ≥ 2.
    pub nontrivial_cliques: usize,
    /// Whether clique enumeration hit the cap.
    pub cliques_truncated: bool,
    /// Rules emitted.
    pub rules: usize,
    /// Whether rule generation hit a budget (`max_rules`/`max_pair_work`).
    pub rules_truncated: bool,
    /// Per-set density thresholds actually used in Phase II.
    pub density_thresholds: Vec<f64>,
    /// Phase I tree diagnostics.
    pub forest: ForestStats,
}

/// The complete result of a mining run.
#[derive(Debug, Clone)]
pub struct MineResult {
    /// All Phase I clusters (frequent and not), with ids.
    pub clusters: Vec<ClusterSummary>,
    /// The clustering graph over the frequent clusters.
    pub graph: ClusteringGraph,
    /// Maximal cliques (indices into `graph.clusters()`).
    pub cliques: Vec<Vec<usize>>,
    /// The mined distance-based association rules.
    pub rules: Vec<Dar>,
    /// Exact rule frequencies from the optional rescan; parallel to
    /// `rules`. Empty when the rescan is disabled.
    pub rule_frequencies: Vec<u64>,
    /// Run statistics.
    pub stats: MineStats,
}

/// The two-phase distance-based association rule miner.
#[derive(Debug, Clone)]
pub struct DarMiner {
    config: DarConfig,
}

impl DarMiner {
    /// Creates a miner with the given configuration.
    pub fn new(config: DarConfig) -> Self {
        DarMiner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DarConfig {
        &self.config
    }

    /// Runs both phases over `relation` under `partitioning`.
    ///
    /// # Errors
    /// Returns [`CoreError`] when the partitioning references attributes
    /// outside the relation's schema, or when configured threshold vectors
    /// have the wrong arity.
    pub fn mine(
        &self,
        relation: &Relation,
        partitioning: &Partitioning,
    ) -> Result<MineResult, CoreError> {
        self.validate(relation, partitioning)?;
        let mut result =
            self.mine_rows((0..relation.len()).map(|row| relation.row(row)), partitioning)?;
        if self.config.rescan_candidate_frequency {
            result.rule_frequencies = rescan_frequencies_pooled(
                relation,
                partitioning,
                result.graph.clusters(),
                &result.rules,
                &dar_par::ThreadPool::resolve(self.config.threads),
            );
        }
        Ok(result)
    }

    /// Single-pass streaming variant: mines from an iterator of full tuples
    /// (indexed by attribute, matching the partitioning's id space) without
    /// materializing a relation. The optional candidate-frequency rescan is
    /// unavailable in this mode (it would need a second pass over the
    /// data), so `rule_frequencies` is always empty.
    ///
    /// # Errors
    /// Returns [`CoreError`] on threshold-arity mismatches; rows shorter
    /// than the partitioning's attribute space panic in debug builds.
    pub fn mine_rows(
        &self,
        rows: impl IntoIterator<Item = Vec<f64>>,
        partitioning: &Partitioning,
    ) -> Result<MineResult, CoreError> {
        self.validate_thresholds(partitioning)?;
        let pool = dar_par::ThreadPool::resolve(self.config.threads);
        // ---------------- Phase I ----------------
        let t0 = Instant::now();
        let mut forest = match &self.config.initial_thresholds {
            Some(t) => {
                AcfForest::with_initial_thresholds(partitioning.clone(), &self.config.birch, t)
            }
            None => AcfForest::new(partitioning.clone(), &self.config.birch),
        };
        // Buffer the stream into batches and fan each batch across the
        // per-set trees. Every tree still sees every row in stream order,
        // so the forest is bit-identical to the row-at-a-time serial scan.
        const SCAN_BATCH: usize = 4096;
        let mut tuples = 0usize;
        let mut batch: Vec<Vec<f64>> = Vec::with_capacity(SCAN_BATCH);
        for row in rows {
            batch.push(row);
            if batch.len() == SCAN_BATCH {
                forest.insert_batch(&batch, &pool);
                tuples += batch.len();
                batch.clear();
            }
        }
        forest.insert_batch(&batch, &pool);
        tuples += batch.len();
        drop(batch);
        let forest_stats = forest.stats();
        let tree_thresholds: Vec<f64> = forest_stats.trees.iter().map(|t| t.threshold).collect();
        let mut per_set = forest.finish();
        if self.config.refine_clusters {
            per_set = refine_forest_output(per_set, &tree_thresholds);
        }
        let phase1 = t0.elapsed();

        // Assign ids; keep every cluster for inspection.
        let clusters = ClusterSummary::number(per_set);

        // ---------------- Phase II ----------------
        let t1 = Instant::now();
        let s0 = ((self.config.min_support_frac * tuples as f64).ceil() as u64).max(1);
        let frequent: Vec<ClusterSummary> =
            clusters.iter().filter(|c| c.is_frequent(s0)).cloned().collect();

        let density = self.config.query.density.resolve(
            &clusters,
            &tree_thresholds,
            partitioning.num_sets(),
        )?;
        let artifacts = Phase2Artifacts::build_pooled(
            frequent,
            density,
            self.config.metric,
            self.config.prune_poor_density,
            self.config.max_cliques,
            &pool,
        );
        let (rules, rules_truncated) = artifacts.mine(&self.config.query);
        let phase2 = t1.elapsed();

        let Phase2Artifacts { density_thresholds, graph, cliques, cliques_truncated, .. } =
            artifacts;
        let stats = MineStats {
            phase1,
            phase2,
            tuples,
            clusters_total: clusters.len(),
            clusters_frequent: graph.len(),
            s0,
            graph_edges: graph.edges,
            graph_comparisons: graph.comparisons,
            graph_pruned_images: graph.pruned_images,
            cliques: cliques.len(),
            nontrivial_cliques: crate::clique::non_trivial(&cliques),
            cliques_truncated,
            rules: rules.len(),
            rules_truncated,
            density_thresholds,
            forest: forest_stats,
        };
        Ok(MineResult { clusters, graph, cliques, rules, rule_frequencies: Vec::new(), stats })
    }

    fn validate(&self, relation: &Relation, partitioning: &Partitioning) -> Result<(), CoreError> {
        let arity = relation.schema().arity();
        for set in partitioning.sets() {
            if let Some(&bad) = set.attrs.iter().find(|&&a| a >= arity) {
                return Err(CoreError::UnknownAttribute(bad));
            }
        }
        self.validate_thresholds(partitioning)
    }

    fn validate_thresholds(&self, partitioning: &Partitioning) -> Result<(), CoreError> {
        let num_sets = partitioning.num_sets();
        if let Some(t) = &self.config.initial_thresholds {
            if t.len() != num_sets {
                return Err(CoreError::InvalidPartitioning(format!(
                    "initial_thresholds has {} entries but the partitioning has {num_sets} sets",
                    t.len()
                )));
            }
        }
        if let DensitySpec::Explicit(t) = &self.config.query.density {
            if t.len() != num_sets {
                return Err(CoreError::InvalidPartitioning(format!(
                    "density thresholds have {} entries but the partitioning has {num_sets} sets",
                    t.len()
                )));
            }
        }
        Ok(())
    }
}

/// Auto-derives per-set Phase II density thresholds from the Phase I
/// output: per set, the base scale is the largest of (a) the final tree
/// threshold, (b) the median diameter of the set's clusters, and (c) 10% of
/// the column's RMS radius (a floor for the fully-precise case where every
/// cluster is a single value and both (a) and (b) are 0); the threshold is
/// `factor ×` that base. Pass *all* Phase I clusters, not only the frequent
/// ones, so the column statistics stay meaningful at high support
/// thresholds.
pub fn auto_density_thresholds(
    frequent: &[ClusterSummary],
    tree_thresholds: &[f64],
    num_sets: usize,
    factor: f64,
) -> Vec<f64> {
    (0..num_sets)
        .map(|set| {
            let mut diameters: Vec<f64> =
                frequent.iter().filter(|c| c.set == set).map(ClusterSummary::diameter).collect();
            diameters.sort_by(f64::total_cmp);
            let median = diameters.get(diameters.len() / 2).copied().unwrap_or(0.0);
            // Column RMS radius from the union of the set's clusters.
            let column_radius = column_cf(frequent, set).map_or(0.0, |cf| cf.view().radius());
            let base = tree_thresholds
                .get(set)
                .copied()
                .unwrap_or(0.0)
                .max(median)
                .max(0.1 * column_radius);
            factor * base
        })
        .collect()
}

/// Sum of the home CFs of a set's clusters = the CF of the whole column
/// restricted to clustered tuples.
fn column_cf(clusters: &[ClusterSummary], set: SetId) -> Option<Cf> {
    let mut iter = clusters.iter().filter(|c| c.set == set);
    let first = iter.next()?;
    let mut cf = first.acf.home_cf().to_owned();
    for c in iter {
        cf.merge(c.acf.home_cf());
    }
    Some(cf)
}

/// The optional Section 6.2 post-processing: one extra scan counting, for
/// each candidate rule, the tuples assigned (by nearest centroid) to every
/// one of its clusters.
///
/// `clusters` is the slice the rules' antecedent/consequent positions
/// index into — a graph's [`ClusteringGraph::clusters`] in the one-shot
/// pipeline, or a deserialized `mining::persist` shipment in the
/// distributed SON-style verify pass (`dar-cluster`), where each shard
/// rescans only its own partition of the data and the coordinator sums
/// the per-shard counts (exact, because the partitions are disjoint).
pub fn rescan_frequencies(
    relation: &Relation,
    partitioning: &Partitioning,
    clusters: &[ClusterSummary],
    rules: &[Dar],
) -> Vec<u64> {
    rescan_frequencies_pooled(
        relation,
        partitioning,
        clusters,
        rules,
        &dar_par::ThreadPool::serial(),
    )
}

/// [`rescan_frequencies`] with the row scan partitioned across `pool`.
/// Each worker counts a disjoint row range against the shared centroid
/// indexes and the per-range `u64` vectors are summed element-wise — an
/// exact, associative reduction, so the counts are identical to the
/// serial scan at any worker count.
pub fn rescan_frequencies_pooled(
    relation: &Relation,
    partitioning: &Partitioning,
    clusters: &[ClusterSummary],
    rules: &[Dar],
    pool: &dar_par::ThreadPool,
) -> Vec<u64> {
    const ROW_CHUNK: usize = 1024;
    let indexes: Vec<CentroidIndex> = (0..partitioning.num_sets())
        .map(|set| CentroidIndex::new(clusters, set, partitioning.set(set).metric))
        .collect();
    let chunks = relation.len().div_ceil(ROW_CHUNK);
    let partials = pool.map_indexed("rescan", chunks, 1, |ci| {
        let mut counts = vec![0u64; rules.len()];
        let mut buf = Vec::new();
        // assigned[set] = graph position of the row's nearest cluster on
        // `set`.
        let mut assigned: Vec<Option<usize>> = vec![None; partitioning.num_sets()];
        for row in ci * ROW_CHUNK..((ci + 1) * ROW_CHUNK).min(relation.len()) {
            for (set, index) in indexes.iter().enumerate() {
                relation.project_into(row, &partitioning.set(set).attrs, &mut buf);
                assigned[set] = index.nearest(&buf).map(|(pos, _)| pos);
            }
            for (rule, count) in rules.iter().zip(&mut counts) {
                let holds = rule
                    .antecedent
                    .iter()
                    .chain(&rule.consequent)
                    .all(|&pos| assigned[clusters[pos].set] == Some(pos));
                if holds {
                    *count += 1;
                }
            }
        }
        counts
    });
    let mut counts = vec![0u64; rules.len()];
    for partial in partials {
        for (total, part) in counts.iter_mut().zip(partial) {
            *total += part;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Metric, RelationBuilder, Schema};

    /// Three attributes with two co-occurring value blocks: rows are either
    /// (≈0, ≈100, ≈5) or (≈50, ≈200, ≈9).
    fn blocks(n_per: usize) -> Relation {
        let mut b = RelationBuilder::new(Schema::interval_attrs(3));
        for i in 0..n_per {
            let j = (i % 7) as f64 * 0.01;
            b.push_row(&[j, 100.0 + j, 5.0 + j * 0.1]).unwrap();
            b.push_row(&[50.0 + j, 200.0 + j, 9.0 + j * 0.1]).unwrap();
        }
        b.finish()
    }

    fn miner() -> DarMiner {
        DarMiner::new(DarConfig {
            birch: BirchConfig {
                initial_threshold: 1.0,
                memory_budget: usize::MAX,
                ..BirchConfig::default()
            },
            min_support_frac: 0.1,
            rescan_candidate_frequency: true,
            ..DarConfig::default()
        })
    }

    #[test]
    fn embedded_query_matches_standalone_artifacts() {
        // The pipeline's Phase II must be exactly "build artifacts, mine
        // query" — the contract the caching engine relies on.
        let r = blocks(50);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.rescan_candidate_frequency = false;
        let m = DarMiner::new(config.clone());
        let result = m.mine(&r, &p).expect("valid partitioning");
        let frequent: Vec<ClusterSummary> =
            result.clusters.iter().filter(|c| c.is_frequent(result.stats.s0)).cloned().collect();
        let artifacts = Phase2Artifacts::build(
            frequent,
            result.stats.density_thresholds.clone(),
            config.metric,
            config.prune_poor_density,
            config.max_cliques,
        );
        let (rules, truncated) = artifacts.mine(&config.query);
        assert_eq!(rules, result.rules);
        assert_eq!(truncated, result.stats.rules_truncated);
        assert_eq!(artifacts.cliques, result.cliques);
    }

    #[test]
    fn parallel_mining_is_byte_identical_to_serial() {
        let r = blocks(300);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.rescan_candidate_frequency = false;
        config.threads = 1;
        let serial = DarMiner::new(config.clone()).mine(&r, &p).expect("serial mine");
        for threads in [2usize, 4, 8] {
            config.threads = threads;
            let par = DarMiner::new(config.clone()).mine(&r, &p).expect("parallel mine");
            assert_eq!(par.rules, serial.rules, "threads={threads}");
            assert_eq!(par.cliques, serial.cliques, "threads={threads}");
            assert_eq!(par.stats.clusters_total, serial.stats.clusters_total);
            assert_eq!(par.stats.graph_edges, serial.stats.graph_edges);
            assert_eq!(par.stats.graph_comparisons, serial.stats.graph_comparisons);
            assert_eq!(par.stats.density_thresholds, serial.stats.density_thresholds);
        }
    }

    #[test]
    fn parallel_rescan_counts_are_identical_to_serial() {
        let r = blocks(700); // several 1024-row chunks with a ragged tail
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let result = miner().mine(&r, &p).expect("valid partitioning");
        let clusters = result.graph.clusters();
        let serial = rescan_frequencies(&r, &p, clusters, &result.rules);
        assert_eq!(serial, result.rule_frequencies, "mine's pooled rescan matches serial");
        for workers in [1usize, 2, 4, 8] {
            let pool = dar_par::ThreadPool::new(workers);
            let pooled = rescan_frequencies_pooled(&r, &p, clusters, &result.rules, &pool);
            assert_eq!(pooled, serial, "workers={workers}");
        }
    }

    #[test]
    fn end_to_end_finds_block_rules() {
        let r = blocks(50);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let result = miner().mine(&r, &p).expect("valid partitioning");

        // Phase I: two clusters per attribute (6 total), all frequent.
        assert_eq!(result.stats.clusters_total, 6, "{:?}", result.stats);
        assert_eq!(result.stats.clusters_frequent, 6);
        assert_eq!(result.stats.s0, 10);
        // Graph: each block forms a triangle across the three sets.
        assert_eq!(result.stats.graph_edges, 6);
        assert_eq!(result.stats.nontrivial_cliques, 2);
        assert!(!result.stats.cliques_truncated);
        // Rules exist, and some N:1 rule spans a whole block.
        assert!(result.stats.rules > 0);
        assert!(result.rules.iter().any(|r| r.antecedent.len() == 2 && r.consequent.len() == 1));
        // The rescan says every block rule is backed by ~half the tuples.
        assert_eq!(result.rule_frequencies.len(), result.rules.len());
        let max_freq = result.rule_frequencies.iter().copied().max().unwrap();
        assert_eq!(max_freq, 50);
        // Degrees are within the normalized threshold.
        assert!(result.rules.iter().all(|r| r.degree <= 1.0 + 1e-9));
    }

    #[test]
    fn infrequent_clusters_are_excluded_from_the_graph() {
        // Add a tiny third block below the support threshold.
        let mut b = RelationBuilder::new(Schema::interval_attrs(3));
        for i in 0..50 {
            let j = (i % 7) as f64 * 0.01;
            b.push_row(&[j, 100.0 + j, 5.0 + j * 0.1]).unwrap();
        }
        for _ in 0..2 {
            b.push_row(&[999.0, 999.0, 999.0]).unwrap();
        }
        let r = b.finish();
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let result = miner().mine(&r, &p).expect("valid partitioning");
        assert_eq!(result.stats.clusters_total, 6);
        assert_eq!(result.stats.clusters_frequent, 3, "the 999-block is infrequent");
    }

    #[test]
    fn explicit_density_thresholds_are_respected() {
        let r = blocks(50);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.query.density = DensitySpec::Explicit(vec![1e-9, 1e-9, 1e-9]);
        let result = DarMiner::new(config).mine(&r, &p).expect("valid partitioning");
        assert_eq!(result.stats.graph_edges, 0, "tiny thresholds forbid edges");
        assert_eq!(result.stats.rules, 0);
        assert_eq!(result.stats.density_thresholds, vec![1e-9, 1e-9, 1e-9]);
    }

    #[test]
    fn auto_thresholds_fall_back_to_column_scale() {
        // Fully precise clustering (threshold 0, singleton clusters) must
        // still produce positive density thresholds via the column floor.
        let r = blocks(50);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.birch.initial_threshold = 0.0;
        let result = DarMiner::new(config).mine(&r, &p).expect("valid partitioning");
        assert!(result.stats.density_thresholds.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn empty_relation_mines_nothing() {
        let r = RelationBuilder::new(Schema::interval_attrs(2)).finish();
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let result = miner().mine(&r, &p).expect("valid partitioning");
        assert_eq!(result.stats.clusters_total, 0);
        assert_eq!(result.stats.rules, 0);
    }

    #[test]
    fn mine_rows_streaming_matches_batch_mining() {
        let r = blocks(50);
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.rescan_candidate_frequency = false;
        let m = DarMiner::new(config);
        let batch = m.mine(&r, &p).expect("valid partitioning");
        let streamed = m.mine_rows((0..r.len()).map(|i| r.row(i)), &p).expect("valid thresholds");
        assert_eq!(batch.rules, streamed.rules);
        assert_eq!(batch.stats.clusters_total, streamed.stats.clusters_total);
        assert_eq!(batch.stats.graph_edges, streamed.stats.graph_edges);
        assert_eq!(batch.stats.tuples, streamed.stats.tuples);
        // Streaming never has frequencies.
        assert!(streamed.rule_frequencies.is_empty());
    }

    #[test]
    fn mine_validates_partitioning_and_threshold_arity() {
        use dar_core::AttrSet;
        let r = blocks(10);
        // Partitioning built against a *wider* schema references attr 5.
        let wide = Schema::interval_attrs(6);
        let p =
            Partitioning::new(&wide, vec![AttrSet { attrs: vec![5], metric: Metric::Euclidean }])
                .unwrap();
        let err = miner().mine(&r, &p).unwrap_err();
        assert_eq!(err, dar_core::CoreError::UnknownAttribute(5));

        // Wrong-arity threshold vectors are rejected up front.
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut config = miner().config().clone();
        config.initial_thresholds = Some(vec![1.0]); // needs 3
        assert!(DarMiner::new(config).mine(&r, &p).is_err());
        let mut config = miner().config().clone();
        config.query.density = DensitySpec::Explicit(vec![1.0, 1.0]); // needs 3
        assert!(DarMiner::new(config).mine(&r, &p).is_err());
    }
}
