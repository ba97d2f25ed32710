//! Association Clustering Features (Section 6.1, Equation 7).
//!
//! An ACF extends the CF of a cluster `C_X` (kept on its *home* attribute set
//! `X`) with the moment pair `(Σ t_i[Y], Σ t_i[Y]²)` for **every other
//! attribute set** `Y` of the partitioning. With that, the *image* of the
//! cluster on any set — its centroid, diameter, and the inter-cluster
//! distances D1/D2 between images — can be computed from summaries alone.
//! This is the paper's ACF Representativity Theorem (Thm 6.1): the clustering
//! graph of Phase II never rescans the data.
//!
//! ACFs inherit CF additivity set-wise, so the BIRCH tree can merge and split
//! them exactly like CFs.

use crate::bbox::BoundingBox;
use crate::cf::CfRef;
use crate::error::CoreError;
use crate::schema::{Partitioning, SetId};
use std::ops::Range;
use std::sync::Arc;

/// What the memory charge counts for an ACF's fixed part: the
/// `size_of::<Acf>()` of the per-set `Vec<Cf>` layout the budgets were
/// calibrated on. The charge is the clustering's memory model, not the
/// allocator's bill — it decides when trees rebuild — so it stays pinned
/// while the struct itself changes shape.
const ACF_STRUCT_CHARGE: usize = 56;

/// The shape of the ACFs for one [`Partitioning`]: how many dimensions each
/// attribute set has. All ACFs in one mining run share a layout, and clones
/// share its storage.
///
/// The layout also fixes the *flat row* an ACF absorbs: a tuple's
/// projections onto every set, concatenated in set order, with set `s` at
/// [`AcfLayout::span`]`(s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcfLayout {
    /// `offsets[s]` is the first flat dimension of set `s`; the last entry
    /// is the total dimension count.
    offsets: Arc<[usize]>,
}

impl AcfLayout {
    /// Derives the layout from a partitioning.
    pub fn from_partitioning(p: &Partitioning) -> Self {
        AcfLayout::new(p.sets().iter().map(|s| s.dims()).collect())
    }

    /// Builds a layout from explicit per-set dimensionalities.
    pub fn new(dims: Vec<usize>) -> Self {
        let offsets = std::iter::once(0)
            .chain(dims.iter().scan(0, |end, &d| {
                *end += d;
                Some(*end)
            }))
            .collect();
        AcfLayout { offsets }
    }

    /// Number of attribute sets.
    pub fn num_sets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Per-set dimensionalities, in set order.
    pub fn dims(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// Dimensionality of set `set`.
    pub fn dims_of(&self, set: SetId) -> usize {
        self.offsets[set + 1] - self.offsets[set]
    }

    /// Total dimensions across all sets.
    pub fn total_dims(&self) -> usize {
        self.offsets[self.num_sets()]
    }

    /// Where set `set`'s projection sits in a flat row.
    pub fn span(&self, set: SetId) -> Range<usize> {
        self.offsets[set]..self.offsets[set + 1]
    }

    /// Approximate heap bytes one ACF of this layout occupies — used by the
    /// clustering engine's memory accounting.
    pub fn acf_heap_bytes(&self) -> usize {
        // Per set: one CF = two f64 vectors (LS, SS), each charged 8 bytes
        // per f64 plus a 24-byte vector header (len/cap/ptr on 64-bit);
        // plus the home bounding box and the fixed struct part.
        let moment_bytes: usize = self.dims().map(|d| 2 * 8 * d + 2 * 24).sum();
        let bbox_bytes = self.dims().max().unwrap_or(0) * 16 + 24;
        moment_bytes + bbox_bytes + ACF_STRUCT_CHARGE
    }
}

/// An association clustering feature: one tuple count and the moments of
/// every set's image, plus the smallest bounding box on the home set (used
/// to describe clusters to users, Section 7.2).
///
/// The moments live in one flat buffer — the `LS` of every set, in set
/// order, then the `SS` of every set, each half laid out like a flat row —
/// so an ACF owns two heap allocations (moments and box) whatever the set
/// count; [`Acf::image`] views a set's two slices in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Acf {
    home: SetId,
    n: u64,
    moments: Box<[f64]>,
    bbox: BoundingBox,
    layout: AcfLayout,
}

impl Acf {
    /// An empty ACF clustered on `home`.
    pub fn empty(layout: &AcfLayout, home: SetId) -> Self {
        Acf {
            home,
            n: 0,
            moments: vec![0.0; 2 * layout.total_dims()].into_boxed_slice(),
            bbox: BoundingBox::empty(layout.dims_of(home)),
            layout: layout.clone(),
        }
    }

    /// The ACF of a single tuple given its flat row (see [`AcfLayout`]).
    pub fn from_row(layout: &AcfLayout, home: SetId, row: &[f64]) -> Self {
        let mut acf = Acf::empty(layout, home);
        acf.add_row(row);
        acf
    }

    /// Reassembles an ACF from its parts (the deserialization path):
    /// `moments` yields, per set in set order, that set's `LS` then its
    /// `SS`, and the bounding box must have the home set's dimensionality.
    pub fn from_moments(
        layout: &AcfLayout,
        home: SetId,
        n: u64,
        moments: impl IntoIterator<Item = f64>,
        bbox: BoundingBox,
    ) -> Result<Self, CoreError> {
        if home >= layout.num_sets() {
            return Err(CoreError::LayoutMismatch(format!(
                "home set {home} outside the {} sets of the layout",
                layout.num_sets()
            )));
        }
        let total = layout.total_dims();
        let mut buffer = vec![0.0; 2 * total].into_boxed_slice();
        let (ls, ss) = buffer.split_at_mut(total);
        let mut values = moments.into_iter();
        let mut got = 0;
        for span in (0..layout.num_sets()).map(|s| layout.span(s)) {
            for (slot, v) in ls[span.clone()].iter_mut().chain(&mut ss[span]).zip(&mut values) {
                *slot = v;
                got += 1;
            }
        }
        let got = got + values.count();
        if got != 2 * total {
            return Err(CoreError::LayoutMismatch(format!(
                "{got} moments for a layout of {total} dims (expected {})",
                2 * total
            )));
        }
        if bbox.dims() != layout.dims_of(home) {
            return Err(CoreError::LayoutMismatch(format!(
                "bbox has {} dims but the home set has {}",
                bbox.dims(),
                layout.dims_of(home)
            )));
        }
        Ok(Acf { home, n, moments: buffer, bbox, layout: layout.clone() })
    }

    /// The home attribute set (the one this cluster is "defined on").
    pub fn home(&self) -> SetId {
        self.home
    }

    /// Number of tuples summarized (`|C_X|`).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether no tuples have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The CF of the cluster's image on `set` (`C[Y]` in the paper; for
    /// `set == home` this is the clustering CF itself).
    pub fn image(&self, set: SetId) -> CfRef<'_> {
        let span = self.layout.span(set);
        let (ls, ss) = self.moments.split_at(self.layout.total_dims());
        CfRef::new(self.n, &ls[span.clone()], &ss[span])
    }

    /// The clustering CF on the home set.
    pub fn home_cf(&self) -> CfRef<'_> {
        self.image(self.home)
    }

    /// Smallest bounding box of the absorbed points on the home set.
    pub fn bbox(&self) -> &BoundingBox {
        &self.bbox
    }

    /// Number of attribute sets in the layout.
    pub fn num_sets(&self) -> usize {
        self.layout.num_sets()
    }

    /// Absorbs one tuple, given its flat row (see [`AcfLayout`]): one pass
    /// over the moment buffer.
    pub fn add_row(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.layout.total_dims());
        self.n += 1;
        let (ls, ss) = self.moments.split_at_mut(row.len());
        for ((l, s), &v) in ls.iter_mut().zip(ss).zip(row) {
            *l += v;
            *s += v * v;
        }
        self.bbox.extend(&row[self.layout.span(self.home)]);
    }

    /// Checks that `other` shares this ACF's home set and layout.
    fn check_compatible(&self, other: &Acf, verb: &str) -> Result<(), CoreError> {
        if self.home != other.home {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot {verb} ACFs with different home sets ({} vs {})",
                self.home, other.home
            )));
        }
        if self.layout != other.layout {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot {verb} ACFs over different partitionings ({} vs {} sets)",
                self.num_sets(),
                other.num_sets()
            )));
        }
        Ok(())
    }

    /// ACF additivity (extension of the BIRCH Additivity Theorem): merges a
    /// disjoint cluster defined on the same home set.
    pub fn merge(&mut self, other: &Acf) -> Result<(), CoreError> {
        self.check_compatible(other, "merge")?;
        self.n += other.n;
        for (a, b) in self.moments.iter_mut().zip(other.moments.iter()) {
            *a += b;
        }
        self.bbox.merge(&other.bbox);
        Ok(())
    }

    /// The inverse of [`merge`](Self::merge): removes a disjoint sub-cluster
    /// that was previously folded into this ACF, image by image (CF
    /// additivity runs both ways). The bounding box is left untouched — a
    /// bounding box cannot shrink from summaries alone, so subtraction is
    /// exact at the *moment* level (N, ΣY, ΣY², which is everything Phase II
    /// distances read) while the box stays a conservative cover.
    ///
    /// # Errors
    /// Rejects mismatched home sets or partitionings, and an `other` whose
    /// tuple count exceeds this cluster's (it cannot be a sub-cluster).
    pub fn unmerge(&mut self, other: &Acf) -> Result<(), CoreError> {
        self.check_compatible(other, "unmerge")?;
        if self.n < other.n {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot unmerge {} tuples from a cluster of {}",
                other.n, self.n
            )));
        }
        self.n -= other.n;
        for (a, b) in self.moments.iter_mut().zip(other.moments.iter()) {
            *a -= b;
        }
        Ok(())
    }

    /// Diameter (RMS average pairwise distance) of the home-set cluster —
    /// the density criterion `d(C_X[X]) ≤ d0^X` of Definition 4.2.
    pub fn diameter(&self) -> f64 {
        self.home_cf().diameter()
    }

    /// Diameter of the cluster's image on an arbitrary set — used by the
    /// Phase II pruning heuristic ("image clusters with large diameters are
    /// unlikely to contribute edges", Section 6.2).
    pub fn diameter_on(&self, set: SetId) -> f64 {
        self.image(set).diameter()
    }

    /// Centroid of the image on `set` (Eq. 4 applied to `C[Y]`).
    pub fn centroid_on(&self, set: SetId) -> Result<Vec<f64>, CoreError> {
        self.image(set).centroid()
    }

    /// D1 (Eq. 5) between this cluster's image and `other`'s image on `set`.
    pub fn d1_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d1(other.image(set))
    }

    /// D2 (Eq. 6, RMS form) between the two clusters' images on `set`.
    pub fn d2_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d2(other.image(set))
    }

    /// D0 (centroid Euclidean) between the two clusters' images on `set`.
    pub fn d0_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d0(other.image(set))
    }

    /// The home-set diameter the merged cluster would have — the threshold
    /// test used by the tree before absorbing a point or entry.
    pub fn merged_home_diameter_sq(&self, other: &Acf) -> f64 {
        self.home_cf().merged_diameter_sq(other.home_cf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::schema::{AttrSet, Schema};

    fn layout2() -> AcfLayout {
        // Two sets: set 0 = {attr0} (1-D), set 1 = {attr1, attr2} (2-D).
        let schema = Schema::interval_attrs(3);
        let p = Partitioning::new(
            &schema,
            vec![
                AttrSet { attrs: vec![0], metric: Metric::Euclidean },
                AttrSet { attrs: vec![1, 2], metric: Metric::Euclidean },
            ],
        )
        .unwrap();
        AcfLayout::from_partitioning(&p)
    }

    fn proj(a: f64, b: f64, c: f64) -> Vec<f64> {
        vec![a, b, c]
    }

    #[test]
    fn layout_shape() {
        let l = layout2();
        assert_eq!(l.num_sets(), 2);
        assert_eq!(l.dims_of(0), 1);
        assert_eq!(l.dims_of(1), 2);
        assert_eq!(l.total_dims(), 3);
        assert_eq!(l.span(1), 1..3);
    }

    #[test]
    fn heap_charge_keeps_the_per_vec_model() {
        // The values the per-set `Vec<Cf>` layout charged: budgets and
        // rebuild points depend on them, so the flat layout keeps them.
        for (dims, charge) in [
            (vec![1, 1], 224),
            (vec![1, 2], 256),
            (vec![3, 1, 4], 416),
            (vec![1; 30], 2016),
            (vec![2; 5], 512),
        ] {
            assert_eq!(AcfLayout::new(dims.clone()).acf_heap_bytes(), charge, "{dims:?}");
        }
    }

    #[test]
    fn images_view_the_flat_buffer_in_set_order() {
        let l = layout2();
        let acf = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        assert_eq!(acf.image(0).linear_sum(), &[1.0]);
        assert_eq!(acf.image(0).square_sum(), &[1.0]);
        assert_eq!(acf.image(1).linear_sum(), &[2.0, 3.0]);
        assert_eq!(acf.image(1).square_sum(), &[4.0, 9.0]);
        assert_eq!(acf.home_cf(), acf.image(1));
        // Per set, LS then SS.
        let moments = [1.0, 1.0, 2.0, 3.0, 4.0, 9.0];
        let rebuilt = Acf::from_moments(&l, 1, 1, moments, acf.bbox().clone());
        assert_eq!(rebuilt.unwrap(), acf);
        assert!(Acf::from_moments(&l, 2, 1, moments, acf.bbox().clone()).is_err());
        assert!(Acf::from_moments(&l, 1, 1, [0.0; 5], acf.bbox().clone()).is_err());
        assert!(Acf::from_moments(&l, 1, 1, [0.0; 7], acf.bbox().clone()).is_err());
        assert!(Acf::from_moments(&l, 0, 1, moments, acf.bbox().clone()).is_err());
    }

    #[test]
    fn add_row_updates_all_images_and_bbox() {
        let l = layout2();
        let mut acf = Acf::empty(&l, 0);
        acf.add_row(&proj(1.0, 10.0, 100.0));
        acf.add_row(&proj(3.0, 20.0, 200.0));
        assert_eq!(acf.n(), 2);
        assert_eq!(acf.home(), 0);
        assert_eq!(acf.centroid_on(0).unwrap(), vec![2.0]);
        assert_eq!(acf.centroid_on(1).unwrap(), vec![15.0, 150.0]);
        assert_eq!(acf.bbox().interval(0).lo, 1.0);
        assert_eq!(acf.bbox().interval(0).hi, 3.0);
        // Home diameter of two points 1 and 3 is 2.
        assert!((acf.diameter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_requires_same_home_and_layout() {
        let l = layout2();
        let a = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        let mut b = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        assert!(b.merge(&a).is_err());
        let other_layout = AcfLayout::new(vec![1]);
        let mut c = Acf::empty(&other_layout, 0);
        assert!(c.merge(&a).is_err());
    }

    #[test]
    fn merge_is_additive() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 1, &proj(1.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 1, &proj(3.0, 2.0, 2.0));
        a.merge(&b).unwrap();
        assert_eq!(a.n(), 2);
        assert_eq!(a.centroid_on(0).unwrap(), vec![2.0]);
        assert_eq!(a.centroid_on(1).unwrap(), vec![1.0, 1.0]);
        // Home bbox covers both points on set 1.
        assert_eq!(a.bbox().interval(0).hi, 2.0);
        assert_eq!(a.bbox().interval(1).hi, 2.0);
    }

    #[test]
    fn unmerge_inverts_merge_at_the_moment_level() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(1.0, 10.0, 100.0));
        a.add_row(&proj(3.0, 20.0, 200.0));
        let before = a.clone();
        let b = Acf::from_row(&l, 0, &proj(7.0, 30.0, 300.0));
        a.merge(&b).unwrap();
        a.unmerge(&b).unwrap();
        assert_eq!(a.n(), before.n());
        for set in 0..2 {
            assert_eq!(a.image(set).linear_sum(), before.image(set).linear_sum());
            assert_eq!(a.image(set).square_sum(), before.image(set).square_sum());
        }
    }

    #[test]
    fn unmerge_rejects_mismatches_and_oversized_subtrahends() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        let other_home = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        assert!(a.unmerge(&other_home).is_err());
        let other_layout = AcfLayout::new(vec![1]);
        assert!(a.unmerge(&Acf::empty(&other_layout, 0)).is_err());
        let mut big = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        big.add_row(&proj(2.0, 3.0, 4.0));
        assert!(a.unmerge(&big).is_err(), "subtrahend larger than the cluster");
    }

    #[test]
    fn image_distances_match_cf_distances() {
        let l = layout2();
        let a = Acf::from_row(&l, 0, &proj(0.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 0, &proj(5.0, 3.0, 4.0));
        assert!((a.d0_on(1, &b).unwrap() - 5.0).abs() < 1e-12);
        assert!((a.d1_on(1, &b).unwrap() - 7.0).abs() < 1e-12);
        assert!((a.d2_on(0, &b).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merged_home_diameter_predicts_merge() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(0.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 0, &proj(4.0, 0.0, 0.0));
        let predicted = a.merged_home_diameter_sq(&b);
        a.merge(&b).unwrap();
        assert!((predicted - a.home_cf().diameter_sq()).abs() < 1e-12);
    }
}
