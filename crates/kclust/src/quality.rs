//! Shared clustering result type and quality metrics.

use dar_core::Metric;

/// A hard clustering of a point set.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// `assignments[i]` is the cluster of point `i`.
    pub assignments: Vec<usize>,
    /// Cluster representatives (centroids for k-means, medoids for
    /// CLARANS), indexed by cluster id.
    pub centers: Vec<Vec<f64>>,
    /// Total cost at convergence: sum over points of the squared Euclidean
    /// distance to the center (k-means) or the plain distance (CLARANS).
    pub cost: f64,
    /// Iterations (k-means) or examined neighbors (CLARANS) spent.
    pub work: usize,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Per-cluster population.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centers.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Sum of squared Euclidean distances from each point to its cluster's
/// centroid (recomputed from the assignment, not the stored centers).
pub fn sse(points: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let dims = points[0].len();
    let mut sums = vec![vec![0.0; dims]; k];
    let mut counts = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        counts[a] += 1;
        for (s, &v) in sums[a].iter_mut().zip(p) {
            *s += v;
        }
    }
    let centroids: Vec<Vec<f64>> = sums
        .into_iter()
        .zip(&counts)
        .map(|(s, &c)| if c == 0 { s } else { s.into_iter().map(|v| v / c as f64).collect() })
        .collect();
    points
        .iter()
        .zip(assignments)
        .map(|(p, &a)| Metric::Euclidean.distance_sq(p, &centroids[a]))
        .sum()
}

/// Mean RMS diameter over non-singleton clusters (the paper's Dfn 4.2
/// density measure, averaged).
pub fn mean_diameter(points: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    use dar_core::Cf;
    if points.is_empty() {
        return 0.0;
    }
    let dims = points[0].len();
    let mut cfs = vec![Cf::empty(dims); k];
    for (p, &a) in points.iter().zip(assignments) {
        cfs[a].add_point(p);
    }
    let diameters: Vec<f64> =
        cfs.iter().filter(|c| c.n() >= 2).map(|c| c.view().diameter()).collect();
    if diameters.is_empty() {
        0.0
    } else {
        diameters.iter().sum::<f64>() / diameters.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<Vec<f64>> {
        vec![vec![0.0], vec![2.0], vec![10.0], vec![12.0]]
    }

    #[test]
    fn sse_of_perfect_assignment() {
        // Clusters {0,2} and {10,12}: centroids 1 and 11, SSE = 4·1 = 4.
        let assignments = vec![0, 0, 1, 1];
        assert!((sse(&pts(), &assignments, 2) - 4.0).abs() < 1e-12);
        // Collapsing everything into one cluster is much worse.
        let one = vec![0, 0, 0, 0];
        assert!(sse(&pts(), &one, 1) > 100.0);
        assert_eq!(sse(&[], &[], 1), 0.0);
    }

    #[test]
    fn mean_diameter_ignores_singletons() {
        let assignments = vec![0, 0, 1, 2];
        // Cluster 0 = {0,2}: diameter 2; clusters 1 and 2 are singletons.
        assert!((mean_diameter(&pts(), &assignments, 3) - 2.0).abs() < 1e-12);
        assert_eq!(mean_diameter(&[], &[], 1), 0.0);
    }

    #[test]
    fn clustering_sizes() {
        let c = Clustering {
            assignments: vec![0, 1, 1, 1],
            centers: vec![vec![0.0], vec![11.0]],
            cost: 0.0,
            work: 1,
        };
        assert_eq!(c.k(), 2);
        assert_eq!(c.sizes(), vec![1, 3]);
    }
}
