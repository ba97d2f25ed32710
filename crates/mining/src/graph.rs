//! The clustering graph (Definition 6.1).
//!
//! Nodes are the frequent clusters of Phase I. An edge joins clusters
//! `C_X` (on set `X`) and `C_Y` (on set `Y ≠ X`) iff the two are mutually
//! close on **both** projections:
//!
//! ```text
//! D(C_X[X], C_Y[X]) ≤ d0_X   and   D(C_X[Y], C_Y[Y]) ≤ d0_Y
//! ```
//!
//! Every distance is computed from ACF summaries alone (Theorem 6.1). The
//! optional pruning pass implements Section 6.2's cost reduction: under the
//! RMS D2, `D2² = r_a² + r_b² + ‖c_a − c_b‖²`, so a cluster whose *image*
//! radius on some set exceeds that set's threshold can never satisfy the
//! edge condition there — the node's comparisons on that set are skipped
//! without evaluating any pair.

use dar_core::{Acf, ClusterSummary, CoreError, SetId};

/// Which summary-computable inter-cluster distance `D` to use (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterDistance {
    /// Centroid Euclidean distance.
    D0,
    /// Centroid Manhattan distance (paper Eq. 5).
    D1,
    /// RMS average inter-cluster distance (paper Eq. 6 in moment form).
    #[default]
    D2,
}

impl ClusterDistance {
    /// Distance between the images of two clusters on `set`.
    pub fn between(self, a: &Acf, b: &Acf, set: SetId) -> Result<f64, CoreError> {
        match self {
            ClusterDistance::D0 => a.d0_on(set, b),
            ClusterDistance::D1 => a.d1_on(set, b),
            ClusterDistance::D2 => a.d2_on(set, b),
        }
    }
}

/// Configuration of the clustering-graph construction.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// The inter-cluster distance `D`.
    pub metric: ClusterDistance,
    /// Per-set density thresholds `d0^X` (Phase II may use more lenient
    /// values than Phase I; Section 6.2).
    pub density_thresholds: Vec<f64>,
    /// Enable the poor-density image pruning heuristic. Only exact for
    /// [`ClusterDistance::D2`]; ignored otherwise.
    pub prune_poor_density: bool,
}

/// The clustering graph over a set of clusters, with instrumentation for
/// the pruning ablation.
#[derive(Debug, Clone)]
pub struct ClusteringGraph {
    clusters: Vec<ClusterSummary>,
    /// Bitset adjacency rows, `⌈n/64⌉` words each.
    adj: Vec<Vec<u64>>,
    /// Pairs whose distances were actually evaluated.
    pub comparisons: u64,
    /// Undirected edge count.
    pub edges: usize,
    /// Node–set combinations skipped by the pruning heuristic.
    pub pruned_images: usize,
}

impl ClusteringGraph {
    /// Builds the graph over `clusters` (typically the frequent clusters of
    /// Phase I) on the calling thread.
    ///
    /// # Panics
    /// Panics if a cluster references a set with no density threshold.
    pub fn build(clusters: Vec<ClusterSummary>, config: &GraphConfig) -> Self {
        Self::build_pooled(clusters, config, &dar_par::ThreadPool::serial())
    }

    /// Builds the graph with the O(k²) distance computation partitioned by
    /// matrix row across `pool`. Every inter-cluster distance is a pure
    /// function of the two ACF summaries (Theorem 6.1), so row tasks share
    /// nothing; the per-row results are folded in ascending row order — a
    /// deterministic ordered reduction — making the adjacency, edge count,
    /// and comparison count bit-identical to [`ClusteringGraph::build`] at
    /// every worker count.
    ///
    /// # Panics
    /// Panics if a cluster references a set with no density threshold.
    pub fn build_pooled(
        clusters: Vec<ClusterSummary>,
        config: &GraphConfig,
        pool: &dar_par::ThreadPool,
    ) -> Self {
        /// Rows are claimed in chunks this size; small enough that the
        /// shrinking upper-triangle rows still balance across workers.
        const ROW_CHUNK: usize = 8;
        /// Below this node count the fan-out costs more than the matrix.
        const PARALLEL_MIN_NODES: usize = 96;

        let n = clusters.len();
        let words = n.div_ceil(64);
        let mut comparisons = 0u64;
        let mut edges = 0usize;
        let mut pruned_images = 0usize;

        // Pruning pass: image_ok[i][s] ⇔ cluster i's image on set s could
        // still satisfy D2 ≤ d0_s (its image radius does not already exceed
        // the threshold).
        let num_sets = config.density_thresholds.len();
        let use_prune = config.prune_poor_density && config.metric == ClusterDistance::D2;
        let image_ok: Vec<Vec<bool>> = clusters
            .iter()
            .map(|c| {
                (0..num_sets)
                    .map(|s| {
                        if !use_prune {
                            return true;
                        }
                        let ok = c.acf.image(s).radius() <= config.density_thresholds[s];
                        if !ok {
                            pruned_images += 1;
                        }
                        ok
                    })
                    .collect()
            })
            .collect();

        // One task per matrix row `i`: the distances to every `j > i`, as
        // (upper-triangle bit words, comparison count, adjacent js). Pure
        // reads of `clusters`/`image_ok`; no shared writes.
        let scan_row = |i: usize| -> (Vec<u64>, u64, Vec<usize>) {
            let mut row_words = vec![0u64; words];
            let mut row_comparisons = 0u64;
            let mut neighbors = Vec::new();
            let a = &clusters[i];
            for j in (i + 1)..n {
                let b = &clusters[j];
                if a.set == b.set {
                    continue; // rules need pairwise disjoint attribute sets
                }
                let (x, y) = (a.set, b.set);
                // Edge needs: D on X ≤ d0_X (uses b's image on X) and
                // D on Y ≤ d0_Y (uses a's image on Y).
                if !(image_ok[j][x] && image_ok[i][y]) {
                    continue;
                }
                row_comparisons += 1;
                let dx = config
                    .metric
                    .between(&a.acf, &b.acf, x)
                    .expect("frequent clusters are non-empty");
                if dx > config.density_thresholds[x] {
                    continue;
                }
                let dy = config
                    .metric
                    .between(&a.acf, &b.acf, y)
                    .expect("frequent clusters are non-empty");
                if dy > config.density_thresholds[y] {
                    continue;
                }
                row_words[j / 64] |= 1 << (j % 64);
                neighbors.push(j);
            }
            (row_words, row_comparisons, neighbors)
        };
        let serial = dar_par::ThreadPool::serial();
        let pool = if n < PARALLEL_MIN_NODES { &serial } else { pool };
        let rows = pool.map_indexed("graph_rows", n, ROW_CHUNK, scan_row);

        // Ordered reduction: fold rows in ascending index order, OR-ing the
        // upper triangle in and mirroring each edge — byte-for-byte the
        // matrix the serial double loop writes.
        let mut adj = vec![vec![0u64; words]; n];
        for (i, (row_words, row_comparisons, neighbors)) in rows.into_iter().enumerate() {
            comparisons += row_comparisons;
            edges += neighbors.len();
            for (w, word) in row_words.into_iter().enumerate() {
                adj[i][w] |= word;
            }
            for j in neighbors {
                adj[j][i / 64] |= 1 << (i % 64);
            }
        }
        ClusteringGraph { clusters, adj, comparisons, edges, pruned_images }
    }

    /// The graph's nodes.
    pub fn clusters(&self) -> &[ClusterSummary] {
        &self.clusters
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Whether nodes `i` and `j` are adjacent.
    pub fn adjacent(&self, i: usize, j: usize) -> bool {
        self.adj[i][j / 64] & (1 << (j % 64)) != 0
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw bitset adjacency (for the clique finder).
    pub fn adjacency(&self) -> &[Vec<u64>] {
        &self.adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    /// Builds a 2-set cluster: `n_points` points at `(x, y)` with ±spread
    /// jitter on both sets.
    fn cluster(
        id: u32,
        set: SetId,
        x: f64,
        y: f64,
        n_points: usize,
        spread: f64,
    ) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        for k in 0..n_points {
            let jitter = spread * (k as f64 / n_points.max(1) as f64 - 0.5);
            acf.add_row(&[x + jitter, y + jitter]);
        }
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    fn config(d0: f64) -> GraphConfig {
        GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![d0, d0],
            prune_poor_density: false,
        }
    }

    #[test]
    fn mutually_close_clusters_get_an_edge() {
        // c0 on set 0 at (0, 5); c1 on set 1 at (0, 5): same tuples, so
        // their images coincide → distance ~0 on both sets.
        let clusters = vec![cluster(0, 0, 0.0, 5.0, 10, 0.1), cluster(1, 1, 0.0, 5.0, 10, 0.1)];
        let g = ClusteringGraph::build(clusters, &config(1.0));
        assert!(g.adjacent(0, 1));
        assert!(g.adjacent(1, 0));
        assert_eq!(g.edges, 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.comparisons, 1);
    }

    #[test]
    fn distant_images_get_no_edge() {
        // Same x location, but the set-1 images are far apart.
        let clusters = vec![cluster(0, 0, 0.0, 5.0, 10, 0.1), cluster(1, 1, 0.0, 500.0, 10, 0.1)];
        let g = ClusteringGraph::build(clusters, &config(1.0));
        assert!(!g.adjacent(0, 1));
        assert_eq!(g.edges, 0);
    }

    #[test]
    fn same_set_clusters_never_join() {
        let clusters = vec![cluster(0, 0, 0.0, 5.0, 10, 0.1), cluster(1, 0, 0.0, 5.0, 10, 0.1)];
        let g = ClusteringGraph::build(clusters, &config(1e9));
        assert_eq!(g.edges, 0);
        assert_eq!(g.comparisons, 0);
    }

    #[test]
    fn pruning_skips_poor_density_images_without_changing_the_graph() {
        // c_bad has a huge image spread on set 1, so no edge can use it.
        let mut clusters = vec![cluster(0, 0, 0.0, 5.0, 10, 0.1), cluster(1, 1, 0.0, 5.0, 10, 0.1)];
        // A set-0 cluster whose set-1 image is scattered over ±500.
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, 0);
        for k in 0..10 {
            acf.add_row(&[0.3, -500.0 + 100.0 * k as f64]);
        }
        clusters.push(ClusterSummary { id: ClusterId(2), set: 0, acf });

        let mut cfg = config(1.0);
        let unpruned = ClusteringGraph::build(clusters.clone(), &cfg);
        cfg.prune_poor_density = true;
        let pruned = ClusteringGraph::build(clusters, &cfg);
        assert_eq!(unpruned.edges, pruned.edges, "pruning must be lossless");
        assert!(pruned.comparisons < unpruned.comparisons);
        assert!(pruned.pruned_images > 0);
        for i in 0..pruned.len() {
            for j in 0..pruned.len() {
                if i != j {
                    assert_eq!(unpruned.adjacent(i, j), pruned.adjacent(i, j));
                }
            }
        }
    }

    #[test]
    fn pooled_build_is_bit_identical_to_serial() {
        // Enough nodes to clear the parallel threshold, spread over two
        // sets with a mix of near and far placements so the graph has
        // structure (some edges, some non-edges, same-set skips).
        let clusters: Vec<ClusterSummary> = (0..150)
            .map(|i| {
                let set = i % 2;
                let x = (i % 5) as f64 * 0.3;
                let y = 5.0 + (i % 7) as f64 * 0.2;
                cluster(i as u32, set, x, y, 8, 0.1)
            })
            .collect();
        let mut cfg = config(1.0);
        cfg.prune_poor_density = true;
        let serial = ClusteringGraph::build(clusters.clone(), &cfg);
        for workers in [2usize, 4, 8] {
            let pool = dar_par::ThreadPool::new(workers);
            let pooled = ClusteringGraph::build_pooled(clusters.clone(), &cfg, &pool);
            assert_eq!(pooled.adjacency(), serial.adjacency(), "workers={workers}");
            assert_eq!(pooled.edges, serial.edges);
            assert_eq!(pooled.comparisons, serial.comparisons);
            assert_eq!(pooled.pruned_images, serial.pruned_images);
        }
    }

    #[test]
    fn d1_metric_uses_centroids() {
        let clusters = vec![cluster(0, 0, 0.0, 5.0, 4, 0.0), cluster(1, 1, 3.0, 5.0, 4, 0.0)];
        let cfg = GraphConfig {
            metric: ClusterDistance::D1,
            density_thresholds: vec![2.0, 2.0],
            prune_poor_density: false,
        };
        // Centroid distance on set 0 is 3 > 2 → no edge.
        let g = ClusteringGraph::build(clusters, &cfg);
        assert_eq!(g.edges, 0);
    }
}
