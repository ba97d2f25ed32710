//! Clustering Features (Equation 3) and the cluster statistics derived from
//! them.
//!
//! A CF summarizes a set of tuples projected onto one attribute set:
//! `CF(C_X) = (N, Σ t_i[X], Σ t_i[X]²)` where the square sum is kept
//! per-dimension. The *Additivity Theorem* (Zhang et al., BIRCH) makes CFs
//! closed under union — [`Cf::merge`] — which is what lets the tree cluster
//! incrementally and Phase II run entirely on summaries.
//!
//! From the moments we derive, without touching the data again:
//!
//! * the **centroid** (paper Eq. 4);
//! * the **diameter** — average pairwise distance (paper Eq. 2), in its
//!   moment-computable root-mean-square form;
//! * the **radius** — RMS distance to the centroid;
//! * inter-cluster distances **D0** (centroid Euclidean), **D1** (centroid
//!   Manhattan, paper Eq. 5), **D2** (average inter-cluster distance, paper
//!   Eq. 6, RMS form), **D3** (diameter of the union) and **D4** (variance
//!   increase), following BIRCH's numbering.
//!
//! ## RMS vs. arithmetic averages
//!
//! Equations 2 and 6 of the paper average *distances*; a `(N, LS, SS)` summary
//! can only produce the average of *squared* Euclidean distances, i.e. the
//! RMS average. This is the standard BIRCH reading (the paper adopts BIRCH's
//! metrics by reference, and Theorem 6.1 asserts all of them are computable
//! from ACFs — which is only true of the RMS forms). The exact arithmetic
//! averages over materialized tuple sets live in [`crate::exact`] and are used
//! in tests and in the statements of Theorems 5.1/5.2.

use crate::error::CoreError;

/// A borrowed clustering feature: tuple count plus per-dimension linear and
/// square sums, viewed in place. Every CF statistic is written once, here:
/// an [`Acf`](crate::Acf) lends one per attribute set straight out of its
/// flat moment buffer, and an owned [`Cf`] lends one via [`Cf::view`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfRef<'a> {
    n: u64,
    ls: &'a [f64],
    ss: &'a [f64],
}

impl<'a> CfRef<'a> {
    /// Views raw moments. `ls` and `ss` must have equal lengths.
    pub(crate) fn new(n: u64, ls: &'a [f64], ss: &'a [f64]) -> Self {
        debug_assert_eq!(ls.len(), ss.len());
        CfRef { n, ls, ss }
    }

    /// Number of tuples summarized.
    pub fn n(self) -> u64 {
        self.n
    }

    /// Whether the CF summarizes no tuples.
    pub fn is_empty(self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the summarized projection.
    pub fn dims(self) -> usize {
        self.ls.len()
    }

    /// Per-dimension linear sum `Σ t_i`.
    pub fn linear_sum(self) -> &'a [f64] {
        self.ls
    }

    /// Per-dimension square sum `Σ t_i²`.
    pub fn square_sum(self) -> &'a [f64] {
        self.ss
    }

    /// Total square sum `Σ ‖t_i‖²`.
    pub fn square_sum_total(self) -> f64 {
        self.ss.iter().sum()
    }

    /// An owned copy of the moments.
    pub fn to_owned(self) -> Cf {
        let mut moments = Vec::with_capacity(2 * self.dims());
        moments.extend_from_slice(self.ls);
        moments.extend_from_slice(self.ss);
        Cf { n: self.n, moments: moments.into_boxed_slice() }
    }

    /// Writes the centroid (Eq. 4) into `out`.
    ///
    /// Returns [`CoreError::EmptyCluster`] for an empty CF.
    pub fn centroid_into(self, out: &mut Vec<f64>) -> Result<(), CoreError> {
        if self.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        out.clear();
        let inv = 1.0 / self.n as f64;
        out.extend(self.ls.iter().map(|l| l * inv));
        Ok(())
    }

    /// The centroid (Eq. 4) as a fresh vector.
    pub fn centroid(self) -> Result<Vec<f64>, CoreError> {
        let mut out = Vec::with_capacity(self.dims());
        self.centroid_into(&mut out)?;
        Ok(out)
    }

    /// Squared diameter: average pairwise squared Euclidean distance,
    /// `Σ_{i,j}‖t_i − t_j‖² / (N(N−1)) = (2N·SS − 2‖LS‖²) / (N(N−1))`.
    ///
    /// A singleton (or empty) cluster has diameter 0 by convention.
    pub fn diameter_sq(self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let ss = self.square_sum_total();
        let ls2: f64 = self.ls.iter().map(|l| l * l).sum();
        // Floating-point cancellation can push the value a hair below zero.
        ((2.0 * n * ss - 2.0 * ls2) / (n * (n - 1.0))).max(0.0)
    }

    /// Diameter (RMS form of paper Eq. 2).
    pub fn diameter(self) -> f64 {
        self.diameter_sq().sqrt()
    }

    /// Squared radius: average squared distance from the centroid,
    /// `SS/N − ‖LS/N‖²`.
    pub fn radius_sq(self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let ss = self.square_sum_total();
        let ls2: f64 = self.ls.iter().map(|l| l * l).sum();
        (ss / n - ls2 / (n * n)).max(0.0)
    }

    /// Radius (RMS distance to centroid).
    pub fn radius(self) -> f64 {
        self.radius_sq().sqrt()
    }

    /// The squared diameter the union of `self` and `other` *would* have —
    /// the merge test used during tree insertion, without materializing the
    /// merged CF.
    pub fn merged_diameter_sq(self, other: CfRef<'_>) -> f64 {
        let n = (self.n + other.n) as f64;
        if n < 2.0 {
            return 0.0;
        }
        let ss = self.square_sum_total() + other.square_sum_total();
        let ls2: f64 = self
            .ls
            .iter()
            .zip(other.ls)
            .map(|(a, b)| {
                let s = a + b;
                s * s
            })
            .sum();
        ((2.0 * n * ss - 2.0 * ls2) / (n * (n - 1.0))).max(0.0)
    }

    /// The squared diameter the cluster would have after absorbing a single
    /// point — the leaf threshold test of the CF-tree, allocation-free.
    pub fn merged_diameter_sq_with_point(self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        let n = (self.n + 1) as f64;
        if n < 2.0 {
            return 0.0;
        }
        let ss = self.square_sum_total() + p.iter().map(|v| v * v).sum::<f64>();
        let ls2: f64 = self
            .ls
            .iter()
            .zip(p)
            .map(|(a, b)| {
                let s = a + b;
                s * s
            })
            .sum();
        ((2.0 * n * ss - 2.0 * ls2) / (n * (n - 1.0))).max(0.0)
    }

    /// Squared Euclidean distance from this cluster's centroid to a point —
    /// the descent criterion of the CF-tree, allocation-free.
    pub fn centroid_distance_sq_to_point(self, p: &[f64]) -> Result<f64, CoreError> {
        if self.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let n = self.n as f64;
        Ok(self
            .ls
            .iter()
            .zip(p)
            .map(|(l, v)| {
                let d = l / n - v;
                d * d
            })
            .sum())
    }

    /// D0: Euclidean distance between centroids.
    pub fn d0(self, other: CfRef<'_>) -> Result<f64, CoreError> {
        if self.n == 0 || other.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        Ok(self
            .ls
            .iter()
            .zip(other.ls)
            .map(|(a, b)| {
                let d = a / na - b / nb;
                d * d
            })
            .sum::<f64>()
            .sqrt())
    }

    /// D1 (paper Eq. 5): Manhattan distance between centroids.
    pub fn d1(self, other: CfRef<'_>) -> Result<f64, CoreError> {
        if self.n == 0 || other.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        Ok(self.ls.iter().zip(other.ls).map(|(a, b)| (a / na - b / nb).abs()).sum())
    }

    /// Squared D2 (paper Eq. 6, RMS form): average inter-cluster squared
    /// Euclidean distance
    /// `(N2·SS1 + N1·SS2 − 2·LS1·LS2) / (N1·N2)`.
    pub fn d2_sq(self, other: CfRef<'_>) -> Result<f64, CoreError> {
        if self.n == 0 || other.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let dot: f64 = self.ls.iter().zip(other.ls).map(|(a, b)| a * b).sum();
        Ok(((nb * self.square_sum_total() + na * other.square_sum_total() - 2.0 * dot) / (na * nb))
            .max(0.0))
    }

    /// D2: RMS average inter-cluster distance.
    pub fn d2(self, other: CfRef<'_>) -> Result<f64, CoreError> {
        Ok(self.d2_sq(other)?.sqrt())
    }

    /// D3: diameter of the union of the two clusters.
    pub fn d3(self, other: CfRef<'_>) -> f64 {
        self.merged_diameter_sq(other).sqrt()
    }

    /// D4: variance increase of merging —
    /// `Σ‖t − c_merged‖² − Σ‖t − c_1‖² − Σ‖t − c_2‖²`, all from moments.
    pub fn d4(self, other: CfRef<'_>) -> Result<f64, CoreError> {
        if self.n == 0 || other.n == 0 {
            return Err(CoreError::EmptyCluster);
        }
        let sse = |cf: CfRef<'_>| -> f64 {
            let n = cf.n as f64;
            let ls2: f64 = cf.ls.iter().map(|l| l * l).sum();
            cf.square_sum_total() - ls2 / n
        };
        let mut merged = self.to_owned();
        merged.merge(other);
        Ok((sse(merged.view()) - sse(self) - sse(other)).max(0.0))
    }
}

/// An owned clustering feature: tuple count plus per-dimension linear and
/// square sums, held in one buffer (`LS` then `SS`). The statistics live on
/// the borrowed view, [`Cf::view`].
///
/// ```
/// use dar_core::Cf;
/// let mut a = Cf::from_point(&[0.0, 0.0]);
/// a.add_point(&[2.0, 0.0]);
/// let b = Cf::from_point(&[2.0, 4.0]);
/// // Additivity: merging summaries equals summarizing the union.
/// let mut merged = a.clone();
/// merged.merge(b.view());
/// assert_eq!(merged.n(), 3);
/// assert_eq!(merged.view().centroid().unwrap(), vec![4.0 / 3.0, 4.0 / 3.0]);
/// // Distances come straight from the moments (Theorem 6.1's substrate).
/// assert!((a.view().d0(b.view()).unwrap() - (1.0f64 + 16.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cf {
    n: u64,
    /// `LS` in the first half, `SS` in the second.
    moments: Box<[f64]>,
}

impl Cf {
    /// An empty CF of the given dimensionality.
    pub fn empty(dims: usize) -> Self {
        Cf { n: 0, moments: vec![0.0; 2 * dims].into_boxed_slice() }
    }

    /// The CF of a single point.
    pub fn from_point(p: &[f64]) -> Self {
        let mut moments = Vec::with_capacity(2 * p.len());
        moments.extend_from_slice(p);
        moments.extend(p.iter().map(|v| v * v));
        Cf { n: 1, moments: moments.into_boxed_slice() }
    }

    /// The borrowed view every statistic is computed on.
    pub fn view(&self) -> CfRef<'_> {
        let (ls, ss) = self.moments.split_at(self.moments.len() / 2);
        CfRef { n: self.n, ls, ss }
    }

    /// Number of tuples summarized.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether the CF summarizes no tuples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality of the summarized projection.
    pub fn dims(&self) -> usize {
        self.moments.len() / 2
    }

    /// Absorbs a single point (additivity with a singleton CF, minus the
    /// allocation).
    pub fn add_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dims());
        self.n += 1;
        let (ls, ss) = self.moments.split_at_mut(p.len());
        for ((l, s), &v) in ls.iter_mut().zip(ss).zip(p) {
            *l += v;
            *s += v * v;
        }
    }

    /// Additivity Theorem: `CF(C1 ∪ C2) = CF(C1) + CF(C2)` for disjoint
    /// clusters.
    pub fn merge(&mut self, other: CfRef<'_>) {
        debug_assert_eq!(self.dims(), other.dims());
        self.n += other.n;
        let (ls, ss) = self.moments.split_at_mut(other.dims());
        for (a, b) in ls.iter_mut().zip(other.ls) {
            *a += b;
        }
        for (a, b) in ss.iter_mut().zip(other.ss) {
            *a += b;
        }
    }

    /// Subtracts `other` from `self` (the inverse of [`merge`](Self::merge)),
    /// used when relocating a subtree's summary during rebuilds.
    pub fn unmerge(&mut self, other: CfRef<'_>) {
        debug_assert_eq!(self.dims(), other.dims());
        debug_assert!(self.n >= other.n);
        self.n -= other.n;
        let (ls, ss) = self.moments.split_at_mut(other.dims());
        for (a, b) in ls.iter_mut().zip(other.ls) {
            *a -= b;
        }
        for (a, b) in ss.iter_mut().zip(other.ss) {
            *a -= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn singleton_statistics() {
        let cf = Cf::from_point(&[3.0, 4.0]);
        assert_eq!(cf.n(), 1);
        assert_eq!(cf.dims(), 2);
        assert_eq!(cf.view().centroid().unwrap(), vec![3.0, 4.0]);
        assert_eq!(cf.view().diameter(), 0.0);
        assert_eq!(cf.view().radius(), 0.0);
    }

    #[test]
    fn empty_cluster_errors() {
        let cf = Cf::empty(2);
        assert!(cf.is_empty());
        assert_eq!(cf.view().centroid(), Err(CoreError::EmptyCluster));
        assert_eq!(cf.view().d0(Cf::from_point(&[0.0, 0.0]).view()), Err(CoreError::EmptyCluster));
        assert_eq!(cf.view().diameter(), 0.0);
        assert_eq!(cf.view().radius(), 0.0);
    }

    #[test]
    fn two_point_diameter_is_their_distance() {
        // Points 0 and 6 on a line: diameter must be 6, radius 3.
        let mut cf = Cf::from_point(&[0.0]);
        cf.add_point(&[6.0]);
        assert!(close(cf.view().diameter(), 6.0));
        assert!(close(cf.view().radius(), 3.0));
        assert_eq!(cf.view().centroid().unwrap(), vec![3.0]);
    }

    #[test]
    fn additivity() {
        let pts_a = [[1.0, 2.0], [3.0, 1.0]];
        let pts_b = [[5.0, 5.0], [6.0, 4.0], [4.0, 6.0]];
        let mut a = Cf::empty(2);
        for p in &pts_a {
            a.add_point(p);
        }
        let mut b = Cf::empty(2);
        for p in &pts_b {
            b.add_point(p);
        }
        let mut all = Cf::empty(2);
        for p in pts_a.iter().chain(&pts_b) {
            all.add_point(p);
        }
        let mut merged = a.clone();
        merged.merge(b.view());
        assert_eq!(merged.n(), all.n());
        assert!(merged
            .view()
            .linear_sum()
            .iter()
            .zip(all.view().linear_sum())
            .all(|(x, y)| close(*x, *y)));
        assert!(merged
            .view()
            .square_sum()
            .iter()
            .zip(all.view().square_sum())
            .all(|(x, y)| close(*x, *y)));
        // unmerge restores the original.
        merged.unmerge(b.view());
        assert_eq!(merged.n(), a.n());
        assert!(merged
            .view()
            .linear_sum()
            .iter()
            .zip(a.view().linear_sum())
            .all(|(x, y)| close(*x, *y)));
    }

    #[test]
    fn merged_diameter_matches_materialized_merge() {
        let mut a = Cf::from_point(&[0.0, 0.0]);
        a.add_point(&[1.0, 1.0]);
        let mut b = Cf::from_point(&[5.0, 5.0]);
        b.add_point(&[6.0, 4.0]);
        let predicted = a.view().merged_diameter_sq(b.view());
        let mut m = a.clone();
        m.merge(b.view());
        assert!(close(predicted, m.view().diameter_sq()));
        assert!(close(a.view().d3(b.view()), m.view().diameter()));
    }

    #[test]
    fn centroid_distances() {
        let mut a = Cf::from_point(&[0.0, 0.0]);
        a.add_point(&[2.0, 0.0]); // centroid (1, 0)
        let b = Cf::from_point(&[4.0, 4.0]); // centroid (4, 4)
        assert!(close(a.view().d0(b.view()).unwrap(), 5.0));
        assert!(close(a.view().d1(b.view()).unwrap(), 7.0));
    }

    #[test]
    fn d2_matches_brute_force_rms() {
        let pa = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
        let pb = [[3.0, 3.0], [4.0, 2.0]];
        let mut a = Cf::empty(2);
        for p in &pa {
            a.add_point(p);
        }
        let mut b = Cf::empty(2);
        for p in &pb {
            b.add_point(p);
        }
        let mut acc = 0.0;
        for x in &pa {
            for y in &pb {
                acc += (x[0] - y[0]).powi(2) + (x[1] - y[1]).powi(2);
            }
        }
        let brute = acc / (pa.len() * pb.len()) as f64;
        assert!(close(a.view().d2_sq(b.view()).unwrap(), brute));
        assert!(close(a.view().d2(b.view()).unwrap(), brute.sqrt()));
    }

    #[test]
    fn d4_variance_increase_nonnegative_and_zero_for_identical_centroids() {
        let mut a = Cf::from_point(&[0.0]);
        a.add_point(&[2.0]);
        let mut b = Cf::from_point(&[0.0]);
        b.add_point(&[2.0]);
        // Same centroid & spread: merging adds no between-cluster variance.
        assert!(close(a.view().d4(b.view()).unwrap(), 0.0));
        let c = Cf::from_point(&[10.0]);
        assert!(a.view().d4(c.view()).unwrap() > 0.0);
    }

    #[test]
    fn point_variants_match_singleton_cf_variants() {
        let mut a = Cf::from_point(&[1.0, 2.0]);
        a.add_point(&[3.0, 0.0]);
        let p = [10.0, -4.0];
        let as_cf = Cf::from_point(&p);
        assert!(close(
            a.view().merged_diameter_sq_with_point(&p),
            a.view().merged_diameter_sq(as_cf.view())
        ));
        assert!(close(
            a.view().centroid_distance_sq_to_point(&p).unwrap(),
            a.view().d0(as_cf.view()).unwrap().powi(2)
        ));
        assert!(Cf::empty(2).view().centroid_distance_sq_to_point(&p).is_err());
    }

    #[test]
    fn diameter_sq_never_negative_under_cancellation() {
        // Large offsets provoke catastrophic cancellation; the clamp holds.
        let mut cf = Cf::empty(1);
        for _ in 0..1000 {
            cf.add_point(&[1e9]);
        }
        assert!(cf.view().diameter_sq() >= 0.0);
        assert!(cf.view().radius_sq() >= 0.0);
    }
}
