//! Exact (tuple-level) cluster statistics.
//!
//! These are the *literal* Definitions 4.1 and Equations 4–6 of the paper,
//! evaluated over materialized point sets with an arbitrary [`Metric`]. They
//! are O(N²)/O(N₁N₂) and exist for three reasons:
//!
//! 1. to state and test Theorems 5.1 and 5.2, which are phrased over exact
//!    averages under the discrete metric;
//! 2. to validate the moment-based (RMS) forms in [`crate::cf`] against
//!    ground truth in tests;
//! 3. to let small examples (Figures 1, 2, 4 of the paper) be reproduced with
//!    the paper's own arithmetic.

use crate::distance::Metric;
use crate::error::CoreError;

/// A set of points, each a row of `dims` values. Thin wrapper so the exact
/// statistics read like the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    points: Vec<Vec<f64>>,
    dims: usize,
}

impl PointSet {
    /// Builds a point set; all points must share a dimensionality.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        let dims = points.first().map_or(0, Vec::len);
        if let Some(bad) = points.iter().find(|p| p.len() != dims) {
            return Err(CoreError::LayoutMismatch(format!(
                "point with {} dims in a {}-dim set",
                bad.len(),
                dims
            )));
        }
        Ok(PointSet { points, dims })
    }

    /// Builds a 1-D point set from scalars.
    pub fn from_scalars(values: &[f64]) -> Self {
        PointSet { points: values.iter().map(|&v| vec![v]).collect(), dims: 1 }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Exact diameter (Dfn 4.1): the average pairwise distance
    /// `Σ_i Σ_j δ(t_i, t_j) / (N(N−1))` under `metric`.
    ///
    /// Singletons and empty sets have diameter 0 by convention.
    pub fn diameter(&self, metric: Metric) -> f64 {
        let n = self.points.len();
        if n < 2 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                acc += metric.distance(&self.points[i], &self.points[j]);
            }
        }
        // The double sum in Dfn 4.1 counts each unordered pair twice and the
        // denominator is N(N−1), so the mean over unordered pairs with
        // denominator N(N−1)/2 is identical.
        2.0 * acc / (n as f64 * (n as f64 - 1.0))
    }

    /// Exact centroid (Eq. 4).
    pub fn centroid(&self) -> Result<Vec<f64>, CoreError> {
        if self.points.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        let mut c = vec![0.0; self.dims];
        for p in &self.points {
            for (ci, &v) in c.iter_mut().zip(p) {
                *ci += v;
            }
        }
        let inv = 1.0 / self.points.len() as f64;
        for ci in &mut c {
            *ci *= inv;
        }
        Ok(c)
    }

    /// Exact D1 (Eq. 5): Manhattan distance between centroids.
    pub fn d1(&self, other: &PointSet) -> Result<f64, CoreError> {
        let a = self.centroid()?;
        let b = other.centroid()?;
        Ok(Metric::Manhattan.distance(&a, &b))
    }

    /// Exact D2 (Eq. 6): the average inter-cluster distance
    /// `Σ_i Σ_j δ(t_i¹, t_j²) / (N₁N₂)` under `metric`.
    pub fn d2(&self, other: &PointSet, metric: Metric) -> Result<f64, CoreError> {
        if self.points.is_empty() || other.points.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        let mut acc = 0.0;
        for a in &self.points {
            for b in &other.points {
                acc += metric.distance(a, b);
            }
        }
        Ok(acc / (self.points.len() * other.points.len()) as f64)
    }

    /// RMS D2 — the moment-computable form used by the summaries; provided
    /// here for direct comparison in tests.
    pub fn d2_rms(&self, other: &PointSet) -> Result<f64, CoreError> {
        if self.points.is_empty() || other.points.is_empty() {
            return Err(CoreError::EmptyCluster);
        }
        let mut acc = 0.0;
        for a in &self.points {
            for b in &other.points {
                acc += Metric::Euclidean.distance_sq(a, b);
            }
        }
        Ok((acc / (self.points.len() * other.points.len()) as f64).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::Cf;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn rejects_ragged_points() {
        assert!(PointSet::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn diameter_of_pair_is_distance() {
        let s = PointSet::from_scalars(&[0.0, 6.0]);
        assert!(close(s.diameter(Metric::Euclidean), 6.0));
        assert_eq!(PointSet::from_scalars(&[3.0]).diameter(Metric::Euclidean), 0.0);
        assert_eq!(PointSet::from_scalars(&[]).diameter(Metric::Euclidean), 0.0);
    }

    #[test]
    fn diameter_discrete_counts_distinct_pairs() {
        // {a,a,b}: 3 unordered pairs, 2 of them distinct → 2·2/(3·2) = 2/3.
        let s = PointSet::from_scalars(&[1.0, 1.0, 2.0]);
        assert!(close(s.diameter(Metric::Discrete), 2.0 / 3.0));
        // All identical → 0 (Theorem 5.1 forward direction).
        let t = PointSet::from_scalars(&[5.0, 5.0, 5.0]);
        assert_eq!(t.diameter(Metric::Discrete), 0.0);
    }

    #[test]
    fn centroid_and_d1() {
        let a = PointSet::new(vec![vec![0.0, 0.0], vec![2.0, 2.0]]).unwrap();
        let b = PointSet::new(vec![vec![4.0, 5.0]]).unwrap();
        assert_eq!(a.centroid().unwrap(), vec![1.0, 1.0]);
        assert!(close(a.d1(&b).unwrap(), 3.0 + 4.0));
        assert!(PointSet::new(vec![]).unwrap().centroid().is_err());
    }

    #[test]
    fn exact_d2_euclidean_vs_manhattan() {
        let a = PointSet::from_scalars(&[0.0, 2.0]);
        let b = PointSet::from_scalars(&[10.0]);
        // Distances 10 and 8 → mean 9 under both metrics in 1-D.
        assert!(close(a.d2(&b, Metric::Euclidean).unwrap(), 9.0));
        assert!(close(a.d2(&b, Metric::Manhattan).unwrap(), 9.0));
    }

    #[test]
    fn rms_d2_matches_cf_d2() {
        let pa = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![1.0, 1.0]];
        let pb = vec![vec![5.0, 5.0], vec![7.0, 2.0]];
        let sa = PointSet::new(pa.clone()).unwrap();
        let sb = PointSet::new(pb.clone()).unwrap();
        let mut ca = Cf::empty(2);
        for p in &pa {
            ca.add_point(p);
        }
        let mut cb = Cf::empty(2);
        for p in &pb {
            cb.add_point(p);
        }
        assert!(close(sa.d2_rms(&sb).unwrap(), ca.view().d2(cb.view()).unwrap()));
    }

    #[test]
    fn rms_diameter_matches_cf_diameter() {
        let pts = vec![vec![0.0], vec![1.0], vec![5.0], vec![2.5]];
        let s = PointSet::new(pts.clone()).unwrap();
        let mut cf = Cf::empty(1);
        for p in &pts {
            cf.add_point(p);
        }
        // Exact average pairwise *squared* distance equals cf.diameter_sq().
        let n = pts.len();
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                acc += (pts[i][0] - pts[j][0]).powi(2);
            }
        }
        let exact_sq = acc / (n as f64 * (n as f64 - 1.0));
        assert!(close(exact_sq, cf.view().diameter_sq()));
        // RMS diameter ≥ arithmetic diameter (Jensen).
        assert!(cf.view().diameter() >= s.diameter(Metric::Euclidean) - 1e-12);
    }
}
