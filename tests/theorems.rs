//! Property-based tests for the paper's formal claims: Theorems 5.1 and
//! 5.2, and the consistency of the moment-based (CF/ACF) statistics with
//! their exact tuple-level definitions.

use interval_rules::core::exact::PointSet;
use interval_rules::core::{Acf, AcfLayout, Cf, Metric, RelationBuilder, Schema};
use interval_rules::mining::interest::theorem_5_2_pair;
use proptest::prelude::*;

/// Theorem 5.1: a non-empty cluster has diameter 0 under the discrete
/// metric iff all its members agree on the attribute.
#[test]
fn theorem_5_1_property() {
    proptest!(|(values in prop::collection::vec(0u8..5, 1..40))| {
        let set = PointSet::from_scalars(
            &values.iter().map(|&v| v as f64).collect::<Vec<_>>(),
        );
        let all_equal = values.iter().all(|&v| v == values[0]);
        let diameter = set.diameter(Metric::Discrete);
        prop_assert_eq!(diameter == 0.0, all_equal,
            "diameter {} for values {:?}", diameter, values);
    });
}

/// Theorem 5.2: for nominal clusters `C_A = σ_{A=a}(r)`, `C_B = σ_{B=b}(r)`
/// under the discrete metric, the rule `A=a ⇒ B=b` holds with confidence
/// `c0` iff the DAR `C_A ⇒ C_B` holds with degree `1 − c0`.
#[test]
fn theorem_5_2_property() {
    proptest!(|(rows in prop::collection::vec((0u8..3, 0u8..3), 1..60),
                a_val in 0u8..3, b_val in 0u8..3)| {
        let mut builder = RelationBuilder::new(Schema::interval_attrs(2));
        for (a, b) in &rows {
            builder.push_row(&[*a as f64, *b as f64]).unwrap();
        }
        let relation = builder.finish();
        match theorem_5_2_pair(&relation, 0, a_val as f64, 1, b_val as f64) {
            Ok((degree, confidence)) => {
                prop_assert!((degree - (1.0 - confidence)).abs() < 1e-9,
                    "degree {} vs 1-conf {}", degree, 1.0 - confidence);
            }
            Err(_) => {
                // One of the clusters was empty; the theorem does not apply.
                let has_a = rows.iter().any(|(a, _)| *a == a_val);
                let has_b = rows.iter().any(|(_, b)| *b == b_val);
                prop_assert!(!has_a || !has_b);
            }
        }
    });
}

/// CF diameter equals the exact average pairwise *squared* Euclidean
/// distance (its moment-computable RMS form), and the CF D2 equals the
/// exact RMS inter-cluster distance.
#[test]
fn cf_statistics_match_exact_definitions() {
    proptest!(|(pa in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..25),
                pb in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..25))| {
        let to_points = |v: &Vec<(f64, f64)>| -> Vec<Vec<f64>> {
            v.iter().map(|&(x, y)| vec![x, y]).collect()
        };
        let (pa, pb) = (to_points(&pa), to_points(&pb));
        let mut ca = Cf::empty(2);
        for p in &pa { ca.add_point(p); }
        let mut cb = Cf::empty(2);
        for p in &pb { cb.add_point(p); }
        let sa = PointSet::new(pa.clone()).unwrap();
        let sb = PointSet::new(pb.clone()).unwrap();

        // Diameter²: brute force over ordered pairs.
        if pa.len() >= 2 {
            let n = pa.len() as f64;
            let mut acc = 0.0;
            for x in &pa {
                for y in &pa {
                    acc += Metric::Euclidean.distance_sq(x, y);
                }
            }
            let exact = acc / (n * (n - 1.0));
            prop_assert!((ca.view().diameter_sq() - exact).abs() < 1e-6 * (1.0 + exact));
        }
        // D2 RMS.
        let d2_exact = sa.d2_rms(&sb).unwrap();
        let d2_cf = ca.view().d2(cb.view()).unwrap();
        prop_assert!((d2_cf - d2_exact).abs() < 1e-6 * (1.0 + d2_exact));
        // D1: Manhattan centroid distance.
        let d1_exact = sa.d1(&sb).unwrap();
        let d1_cf = ca.view().d1(cb.view()).unwrap();
        prop_assert!((d1_cf - d1_exact).abs() < 1e-6 * (1.0 + d1_exact));
    });
}

/// ACF additivity (the extension of BIRCH's Additivity Theorem that makes
/// Theorem 6.1 work): merging the ACFs of a partition of the rows equals
/// the ACF of all rows, on every image.
#[test]
fn acf_additivity_property() {
    proptest!(|(rows in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0), 2..30),
                split in 1usize..29)| {
        prop_assume!(split < rows.len());
        let layout = AcfLayout::new(vec![1, 2]);
        let project = |r: &(f64, f64, f64)| vec![r.0, r.1, r.2];

        let mut all = Acf::empty(&layout, 0);
        for r in &rows { all.add_row(&project(r)); }

        let mut left = Acf::empty(&layout, 0);
        for r in &rows[..split] { left.add_row(&project(r)); }
        let mut right = Acf::empty(&layout, 0);
        for r in &rows[split..] { right.add_row(&project(r)); }
        left.merge(&right).unwrap();

        prop_assert_eq!(left.n(), all.n());
        for set in 0..2 {
            let ca = left.centroid_on(set).unwrap();
            let cb = all.centroid_on(set).unwrap();
            for (x, y) in ca.iter().zip(&cb) {
                prop_assert!((x - y).abs() < 1e-9, "set {}: {} vs {}", set, x, y);
            }
            prop_assert!((left.diameter_on(set) - all.diameter_on(set)).abs() < 1e-6);
        }
        // Bounding boxes agree too.
        prop_assert_eq!(left.bbox(), all.bbox());
    });
}

/// The RMS (moment) diameter upper-bounds the exact arithmetic-mean
/// diameter (Jensen's inequality) — the precise sense in which the
/// summary-based density test is conservative.
#[test]
fn rms_diameter_dominates_arithmetic_diameter() {
    proptest!(|(values in prop::collection::vec(-100.0f64..100.0, 2..40))| {
        let set = PointSet::from_scalars(&values);
        let mut cf = Cf::empty(1);
        for v in &values { cf.add_point(&[*v]); }
        prop_assert!(cf.view().diameter() + 1e-9 >= set.diameter(Metric::Euclidean));
    });
}
