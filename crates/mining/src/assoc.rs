//! The `assoc` distances of Definition 5.1, computed once per artifact
//! set.
//!
//! Whether cluster `C_x` is in `assoc(C_y)` turns on
//! `D(C_y[set(y)], C_x[set(y)]) ≤ D0[set(y)]`. The distance is a function
//! of the two cluster summaries and the metric alone (Theorem 6.1); only
//! the threshold `D0` changes between retunes of one artifact set. So the
//! distances are evaluated once, into a dense matrix, and every query's
//! `assoc` pass compares them against its own `D0`.

use crate::graph::{ClusterDistance, ClusteringGraph};
use dar_par::ThreadPool;

/// The largest matrix, in bytes (`n² · 8` for `n` nodes), an artifact set
/// keeps between queries: 16 MiB, 1,448 nodes. Above it every query
/// builds its own matrix and drops it after the query.
pub const ASSOC_RETAIN_BYTES: usize = 16 << 20;

/// The bytes of the matrix over `nodes` clusters.
pub(crate) fn matrix_bytes(nodes: usize) -> usize {
    nodes.saturating_mul(nodes).saturating_mul(std::mem::size_of::<f64>())
}

/// The dense `n × n` matrix of `D(C_y[set(y)], C_x[set(y)])` over a
/// clustering graph's nodes, row `y`, column `x`. Same-set entries are
/// NaN (never evaluated): no comparison against a threshold admits them.
pub struct AssocDistances {
    nodes: usize,
    metric: ClusterDistance,
    distances: Vec<f64>,
}

impl AssocDistances {
    /// Evaluates every cross-set pair of `graph`'s nodes under `metric`,
    /// one matrix row per task on `pool`. Each entry is the same call with
    /// the same arguments at every worker count, so the matrix is too.
    pub fn build(graph: &ClusteringGraph, metric: ClusterDistance, pool: &ThreadPool) -> Self {
        /// Below this node count the fan-out costs more than the matrix.
        const PARALLEL_MIN_NODES: usize = 96;

        let clusters = graph.clusters();
        let nodes = clusters.len();
        let serial = ThreadPool::serial();
        let pool = if nodes < PARALLEL_MIN_NODES { &serial } else { pool };
        let mut distances = vec![f64::NAN; nodes * nodes];
        let mut rows: Vec<&mut [f64]> = distances.chunks_mut(nodes.max(1)).collect();
        let pairs: usize = pool
            .run_mut("assoc_rows", &mut rows, |y, row| {
                let (cy, yset) = (&clusters[y], clusters[y].set);
                let mut pairs = 0;
                for (d, cx) in row.iter_mut().zip(clusters) {
                    if cx.set != yset {
                        *d = metric
                            .between(&cy.acf, &cx.acf, yset)
                            .expect("graph clusters are non-empty");
                        pairs += 1;
                    }
                }
                pairs
            })
            .into_iter()
            .sum();
        crate::metrics::metrics().assoc_distances.add(pairs as u64);
        AssocDistances { nodes, metric, distances }
    }

    /// The metric the distances were evaluated under.
    pub fn metric(&self) -> ClusterDistance {
        self.metric
    }

    /// The node count `n`.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the matrix has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Row `y`: `D(C_y[set(y)], C_x[set(y)])` for every node `x`.
    pub fn row(&self, y: usize) -> &[f64] {
        &self.distances[y * self.nodes..(y + 1) * self.nodes]
    }

    /// `D(C_y[set(y)], C_x[set(y)])`, NaN when the two share a set.
    pub fn get(&self, y: usize, x: usize) -> f64 {
        self.distances[y * self.nodes + x]
    }

    /// The matrix's size in bytes.
    pub fn bytes(&self) -> usize {
        matrix_bytes(self.nodes)
    }
}

impl std::fmt::Debug for AssocDistances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssocDistances")
            .field("nodes", &self.nodes)
            .field("metric", &self.metric)
            .finish_non_exhaustive()
    }
}

/// A matrix an artifact set keeps, counted in the
/// `dar_mining_assoc_retained_bytes` gauge while it lives.
#[derive(Debug)]
pub(crate) struct Retained(pub(crate) AssocDistances);

impl Retained {
    pub(crate) fn new(distances: AssocDistances) -> Self {
        crate::metrics::metrics().assoc_retained_bytes.add(distances.bytes() as i64);
        Retained(distances)
    }
}

impl Drop for Retained {
    fn drop(&mut self) {
        crate::metrics::metrics().assoc_retained_bytes.add(-(self.0.bytes() as i64));
    }
}
