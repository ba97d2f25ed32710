//! Point-to-cluster assignment by nearest centroid.
//!
//! Birch discovers summaries rather than tuple sets, so to use clusters as
//! items (Dfn 4.4) or to recount candidate-rule frequencies, each tuple must
//! be mapped to a cluster: "we can find the centroid closest to the point
//! ... and define the tuple to be in the cluster represented by this
//! centroid" (Section 4.3.2).

use dar_core::{ClusterSummary, Metric, SetId};

/// A nearest-centroid index over the clusters of one attribute set.
#[derive(Debug, Clone)]
pub struct CentroidIndex {
    set: SetId,
    metric: Metric,
    /// `(cluster position in the caller's slice, centroid)`.
    centroids: Vec<(usize, Vec<f64>)>,
}

impl CentroidIndex {
    /// Builds an index over the clusters of attribute set `set` found in
    /// `clusters` (clusters of other sets are skipped). `positions` refer to
    /// indices into the given slice.
    pub fn new(clusters: &[ClusterSummary], set: SetId, metric: Metric) -> Self {
        let centroids = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.set == set && !c.acf.is_empty())
            .map(|(i, c)| (i, c.acf.centroid_on(set).expect("non-empty cluster")))
            .collect();
        CentroidIndex { set, metric, centroids }
    }

    /// The attribute set this index covers.
    pub fn set(&self) -> SetId {
        self.set
    }

    /// Number of indexed clusters.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Whether the index holds no clusters.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// The position (into the original slice) of the cluster whose centroid
    /// is nearest to `point`, with the distance. `None` when empty.
    pub fn nearest(&self, point: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (pos, c) in &self.centroids {
            let d = self.metric.distance(c, point);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((*pos, d));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    fn cluster(id: u32, set: SetId, value: f64) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        let mut projection = vec![0.0, 0.0];
        projection[set] = value;
        acf.add_row(&projection);
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    #[test]
    fn nearest_picks_the_closest_centroid_of_the_right_set() {
        let clusters = vec![
            cluster(0, 0, 0.0),
            cluster(1, 0, 10.0),
            cluster(2, 1, 4.9), // different set: must be ignored
        ];
        let idx = CentroidIndex::new(&clusters, 0, Metric::Euclidean);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.set(), 0);
        let (pos, d) = idx.nearest(&[4.0]).unwrap();
        assert_eq!(pos, 0);
        assert!((d - 4.0).abs() < 1e-12);
        let (pos, _) = idx.nearest(&[7.0]).unwrap();
        assert_eq!(pos, 1);
    }

    #[test]
    fn empty_index() {
        let idx = CentroidIndex::new(&[], 0, Metric::Euclidean);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(&[1.0]), None);
    }
}
