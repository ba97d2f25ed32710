//! One ACF-tree per attribute set: the full Phase I scan.

use crate::config::BirchConfig;
use crate::tree::{AcfTree, TreeStats};
use dar_core::{Acf, AcfLayout, AttrId, Partitioning, Relation};

/// A forest of [`AcfTree`]s, one per attribute set of a [`Partitioning`]
/// ("a separate tree is maintained for each attribute that can be grouped",
/// Section 3). Feeding every tuple of a relation through the forest is the
/// single data scan of Phase I.
///
/// ```
/// use birch::{AcfForest, BirchConfig};
/// use dar_core::{Metric, Partitioning, Schema};
/// let schema = Schema::interval_attrs(2);
/// let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
/// let config = BirchConfig { initial_threshold: 1.0, ..BirchConfig::default() };
/// let mut forest = AcfForest::new(partitioning, &config);
/// for i in 0..100 {
///     let block = if i % 2 == 0 { 0.0 } else { 50.0 };
///     forest.insert_values(&[block, block + 10.0]);
/// }
/// let per_set = forest.finish();
/// assert_eq!(per_set.len(), 2);          // one cluster list per attribute
/// assert_eq!(per_set[0].len(), 2);       // the two value blocks
/// assert_eq!(per_set[0][0].n() + per_set[0][1].n(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct AcfForest {
    trees: Vec<AcfTree>,
    partitioning: Partitioning,
    /// Reusable flat-row buffer (every set's projection, in set order).
    scratch: Vec<f64>,
}

/// Aggregate diagnostics across all trees of a forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestStats {
    /// Per-tree snapshots, indexed by set id.
    pub trees: Vec<TreeStats>,
}

impl ForestStats {
    /// Total clusters (leaf entries) across all trees.
    pub fn total_clusters(&self) -> usize {
        self.trees.iter().map(|t| t.leaf_entries).sum()
    }

    /// Total estimated memory across all trees.
    pub fn total_memory_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.memory_bytes).sum()
    }

    /// Total rebuilds across all trees.
    pub fn total_rebuilds(&self) -> usize {
        self.trees.iter().map(|t| t.rebuilds).sum()
    }
}

impl AcfForest {
    /// Creates a forest for `partitioning`, one tree per attribute set,
    /// sharing `config`.
    pub fn new(partitioning: Partitioning, config: &BirchConfig) -> Self {
        let thresholds = vec![config.initial_threshold; partitioning.num_sets()];
        Self::with_initial_thresholds(partitioning, config, &thresholds)
    }

    /// Creates a forest with a *per-set* initial diameter threshold —
    /// attribute sets on different scales (ages vs. dollar amounts) need
    /// different density thresholds `d0^{X_i}` (Dfn 4.2); the paper selects
    /// "an initial diameter threshold ... for each X_i" (Section 4.3.1).
    ///
    /// # Panics
    /// Panics if `thresholds.len()` differs from the number of sets.
    pub fn with_initial_thresholds(
        partitioning: Partitioning,
        config: &BirchConfig,
        thresholds: &[f64],
    ) -> Self {
        assert_eq!(
            thresholds.len(),
            partitioning.num_sets(),
            "one initial threshold per attribute set"
        );
        let trees = thresholds
            .iter()
            .enumerate()
            .map(|(set, &t)| {
                let cfg = BirchConfig { initial_threshold: t, ..config.clone() };
                // A layout per tree, so the per-tree tasks of
                // `insert_batch` never bump a shared reference count.
                AcfTree::new(AcfLayout::from_partitioning(&partitioning), set, cfg)
            })
            .collect();
        let scratch = Vec::with_capacity(partitioning.total_dims());
        AcfForest { trees, partitioning, scratch }
    }

    /// The partitioning this forest clusters.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The shared ACF layout.
    pub fn layout(&self) -> AcfLayout {
        AcfLayout::from_partitioning(&self.partitioning)
    }

    /// Inserts one tuple of `relation` (by row index) into every tree.
    pub fn insert_row(&mut self, relation: &Relation, row: usize) {
        self.scratch.clear();
        push_flat_row(&self.partitioning, |a| relation.value(row, a), &mut self.scratch);
        for tree in &mut self.trees {
            tree.insert_point(&self.scratch);
        }
    }

    /// Inserts a full tuple given by value (streaming ingestion without a
    /// materialized relation).
    pub fn insert_values(&mut self, row: &[f64]) {
        self.scratch.clear();
        push_flat_row(&self.partitioning, |a| row[a], &mut self.scratch);
        for tree in &mut self.trees {
            tree.insert_point(&self.scratch);
        }
    }

    /// Scans an entire relation — the Phase I pass.
    pub fn scan(&mut self, relation: &Relation) {
        for row in 0..relation.len() {
            self.insert_row(relation, row);
        }
    }

    /// Inserts a batch of full tuples, fanning the per-set trees out across
    /// `pool` — one tree per task, zero contention, since the attribute
    /// partitions are independent by construction (Dfn 4.2). Every tree
    /// sees the batch's rows in their original order, exactly as a serial
    /// [`AcfForest::insert_values`] loop would feed it, so the resulting
    /// forest is bit-identical to the serial scan at any worker count.
    ///
    /// Small batches (or a serial pool) take the one-thread path directly:
    /// the output is identical either way, the fan-out just isn't worth a
    /// scope spawn.
    pub fn insert_batch(&mut self, rows: &[Vec<f64>], pool: &dar_par::ThreadPool) {
        const PARALLEL_BATCH_MIN: usize = 64;
        if pool.is_serial() || self.trees.len() <= 1 || rows.len() < PARALLEL_BATCH_MIN {
            for row in rows {
                self.insert_values(row);
            }
            return;
        }
        // Project every row onto every set once, up front, into one flat
        // buffer: `insert_point` needs the full flat row (ACFs track images
        // on all sets), and sharing one projection table keeps the per-tree
        // tasks read-only with respect to everything but their own tree.
        let width = self.partitioning.total_dims();
        let mut projections = Vec::with_capacity(rows.len() * width);
        for row in rows {
            push_flat_row(&self.partitioning, |a| row[a], &mut projections);
        }
        pool.run_mut("phase1_batch", &mut self.trees, |_, tree| {
            for projection in projections.chunks_exact(width) {
                tree.insert_point(projection);
            }
        });
    }

    /// Merges another forest built over a disjoint shard of the data into
    /// this one: each of `other`'s finished clusters is re-inserted as a
    /// pre-aggregated ACF entry. ACF additivity (Theorem 6.1 / Eq. 7) makes
    /// the merge exact in aggregate — per set, the merged forest's total
    /// `N`, `LS`, `SS` and every image's moment vectors equal those of a
    /// single forest fed the concatenated shards — though cluster
    /// *boundaries* may differ, as they do for any insertion-order change.
    ///
    /// # Panics
    /// Panics if the two forests were built over different partitionings.
    pub fn merge(&mut self, other: AcfForest) {
        assert_eq!(
            self.partitioning, other.partitioning,
            "merge requires forests over the same partitioning"
        );
        for (set, acfs) in other.finish().into_iter().enumerate() {
            for acf in acfs {
                self.insert_entry(set, acf);
            }
        }
    }

    /// Subtracts a forest previously merged into this one — the inverse of
    /// [`AcfForest::merge`] at the moment level, the retirement path of a
    /// sliding-window forest. `other` is finished (outliers re-inserted)
    /// exactly as `merge` would have, and each of its clusters is unmerged
    /// from the closest live entry with enough mass; CF additivity (Theorem
    /// 6.1 / Eq. 7) runs both ways, so per set the surviving total `N` is
    /// exact and every moment matches a forest that never saw `other`'s
    /// rows, up to floating-point summation order. Cluster *boundaries* may
    /// differ, as with any insertion-order change; the subtraction itself
    /// is deterministic.
    ///
    /// # Panics
    /// Panics if the two forests were built over different partitionings,
    /// or if `other` holds more tuples on some set than this forest does
    /// (i.e. `other` was never merged into this forest).
    pub fn subtract(&mut self, other: AcfForest) {
        assert_eq!(
            self.partitioning, other.partitioning,
            "subtract requires forests over the same partitioning"
        );
        for (set, acfs) in other.finish().into_iter().enumerate() {
            self.trees[set].subtract_entries(&acfs);
        }
    }

    /// Finishes every tree (re-inserting outliers) and returns the clusters
    /// grouped by attribute set.
    pub fn finish(self) -> Vec<Vec<Acf>> {
        self.trees.into_iter().map(AcfTree::finish).collect()
    }

    /// Extracts the current clusters *without consuming the forest*: each
    /// tree is cloned and finished (outliers re-inserted into the copy), so
    /// the live trees keep accepting insertions. This is what lets a
    /// long-lived engine close an epoch — snapshot the clustering as of now
    /// — and continue ingesting into the same Phase I state. By
    /// construction the result is identical to what [`AcfForest::finish`]
    /// would have returned at this point.
    pub fn extract_clusters(&self) -> Vec<Vec<Acf>> {
        self.trees.iter().map(|tree| tree.clone().finish()).collect()
    }

    /// Inserts a pre-aggregated ACF entry into one set's tree — the restore
    /// path: a snapshot's cluster summaries are replayed into a fresh forest
    /// (ACF additivity, Equation 7, makes the merge exact). Empty entries
    /// are ignored.
    pub fn insert_entry(&mut self, set: usize, acf: Acf) {
        self.trees[set].insert_entry(acf);
    }

    /// The current per-set diameter thresholds (these rise over the scan as
    /// trees rebuild to stay within their memory budgets).
    pub fn thresholds(&self) -> Vec<f64> {
        self.trees.iter().map(AcfTree::threshold).collect()
    }

    /// Diagnostic snapshot of all trees.
    pub fn stats(&self) -> ForestStats {
        ForestStats { trees: self.trees.iter().map(AcfTree::stats).collect() }
    }

    /// Access a single tree (read-only), e.g. for nearest-centroid lookups.
    pub fn tree(&self, set: usize) -> &AcfTree {
        &self.trees[set]
    }
}

/// Appends one tuple's flat row — its projection onto every set of
/// `partitioning`, in set order — to `out`; `value` reads an attribute.
fn push_flat_row(partitioning: &Partitioning, value: impl Fn(AttrId) -> f64, out: &mut Vec<f64>) {
    for set in partitioning.sets() {
        out.extend(set.attrs.iter().map(|&a| value(a)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Metric, RelationBuilder, Schema};

    fn two_cluster_relation() -> Relation {
        // Attribute 0 has clusters near 0 and near 100; attribute 1 has
        // clusters near 5 and near 50.
        let mut b = RelationBuilder::new(Schema::interval_attrs(2));
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.01;
            b.push_row(&[jitter, 5.0 + jitter]).unwrap();
            b.push_row(&[100.0 + jitter, 50.0 + jitter]).unwrap();
        }
        b.finish()
    }

    fn forest_for(relation: &Relation, threshold: f64) -> AcfForest {
        let p = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
        let config = BirchConfig {
            initial_threshold: threshold,
            memory_budget: usize::MAX,
            ..BirchConfig::default()
        };
        AcfForest::new(p, &config)
    }

    #[test]
    fn scan_finds_the_planted_clusters() {
        let r = two_cluster_relation();
        let mut f = forest_for(&r, 1.0);
        f.scan(&r);
        let stats = f.stats();
        assert_eq!(stats.trees.len(), 2);
        assert_eq!(stats.total_clusters(), 4, "two clusters per attribute");
        let per_set = f.finish();
        assert_eq!(per_set.len(), 2);
        for clusters in &per_set {
            assert_eq!(clusters.len(), 2);
            let total: u64 = clusters.iter().map(Acf::n).sum();
            assert_eq!(total, 40);
        }
        // Images: the cluster near 0 on attr0 must have its attr1 image near 5.
        let c0 = per_set[0].iter().find(|c| c.centroid_on(0).unwrap()[0] < 1.0).unwrap();
        let img = c0.centroid_on(1).unwrap()[0];
        assert!((img - 5.0).abs() < 0.1, "image centroid {img} should be ~5");
    }

    #[test]
    fn insert_values_matches_insert_row() {
        let r = two_cluster_relation();
        let mut f1 = forest_for(&r, 1.0);
        f1.scan(&r);
        let mut f2 = forest_for(&r, 1.0);
        for row in 0..r.len() {
            let vals = r.row(row);
            f2.insert_values(&vals);
        }
        let s1 = f1.stats();
        let s2 = f2.stats();
        assert_eq!(s1.total_clusters(), s2.total_clusters());
    }

    #[test]
    fn extract_clusters_matches_finish_and_preserves_the_forest() {
        let r = two_cluster_relation();
        let mut f = forest_for(&r, 1.0);
        f.scan(&r);
        let extracted = f.extract_clusters();
        // The forest is still usable: more insertions and a final finish.
        f.insert_values(&[0.01, 5.01]);
        let finished = f.finish();
        assert_eq!(extracted.len(), finished.len());
        let n = |per_set: &[Vec<Acf>]| -> u64 { per_set[0].iter().map(Acf::n).sum() };
        assert_eq!(n(&extracted), 40);
        assert_eq!(n(&finished), 41);
    }

    #[test]
    fn insert_entry_replays_extracted_clusters() {
        let r = two_cluster_relation();
        let mut f = forest_for(&r, 1.0);
        f.scan(&r);
        let thresholds = f.thresholds();
        let extracted = f.extract_clusters();

        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let config = BirchConfig { memory_budget: usize::MAX, ..BirchConfig::default() };
        let mut replayed = AcfForest::with_initial_thresholds(p, &config, &thresholds);
        for (set, acfs) in extracted.iter().enumerate() {
            for acf in acfs {
                replayed.insert_entry(set, acf.clone());
            }
        }
        let out = replayed.finish();
        for (set, acfs) in extracted.iter().enumerate() {
            let total: u64 = acfs.iter().map(Acf::n).sum();
            let replayed_total: u64 = out[set].iter().map(Acf::n).sum();
            assert_eq!(total, replayed_total, "set {set} lost tuples in replay");
        }
    }

    #[test]
    fn insert_batch_is_bit_identical_to_serial_at_any_worker_count() {
        let r = two_cluster_relation();
        let rows: Vec<Vec<f64>> = (0..r.len()).map(|i| r.row(i)).collect();
        // Pad the batch past the parallel threshold with jittered copies.
        let rows: Vec<Vec<f64>> = (0..3).flat_map(|_| rows.iter().cloned()).collect();
        let mut serial = forest_for(&r, 1.0);
        for row in &rows {
            serial.insert_values(row);
        }
        let want = serial.extract_clusters();
        for workers in [1usize, 2, 4, 8] {
            let pool = dar_par::ThreadPool::new(workers);
            let mut f = forest_for(&r, 1.0);
            f.insert_batch(&rows, &pool);
            assert_eq!(f.extract_clusters(), want, "workers={workers}");
            assert_eq!(f.thresholds(), serial.thresholds(), "workers={workers}");
        }
    }

    #[test]
    fn merge_of_disjoint_shards_preserves_totals() {
        let r = two_cluster_relation();
        let rows: Vec<Vec<f64>> = (0..r.len()).map(|i| r.row(i)).collect();
        let (left, right) = rows.split_at(rows.len() / 2);
        let mut a = forest_for(&r, 1.0);
        for row in left {
            a.insert_values(row);
        }
        let mut b = forest_for(&r, 1.0);
        for row in right {
            b.insert_values(row);
        }
        a.merge(b);
        let merged = a.finish();
        for (set, clusters) in merged.iter().enumerate() {
            let total: u64 = clusters.iter().map(Acf::n).sum();
            assert_eq!(total, rows.len() as u64, "set {set} lost tuples in merge");
        }
    }

    #[test]
    #[should_panic(expected = "same partitioning")]
    fn merge_rejects_mismatched_partitionings() {
        let r = two_cluster_relation();
        let a = forest_for(&r, 1.0);
        let schema = Schema::interval_attrs(3);
        let p = Partitioning::per_attribute(&schema, Metric::Euclidean);
        let config = BirchConfig { memory_budget: usize::MAX, ..BirchConfig::default() };
        let b = AcfForest::new(p, &config);
        let mut a = a;
        a.merge(b);
    }

    #[test]
    fn stats_aggregates() {
        let r = two_cluster_relation();
        let mut f = forest_for(&r, 1.0);
        f.scan(&r);
        let s = f.stats();
        assert!(s.total_memory_bytes() > 0);
        assert_eq!(s.total_rebuilds(), 0);
        assert_eq!(f.tree(0).points_inserted(), r.len() as u64);
    }
}
