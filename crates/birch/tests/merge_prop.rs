//! Property test for the ACF-additivity merge path (Theorem 6.1 / Eq. 7):
//! merging two forests built over disjoint row-shards must preserve every
//! aggregate moment a single forest over the concatenation holds — per
//! home set, the total `N` exactly, and every image projection's ΣY and
//! ΣY² within floating-point summation tolerance. Cluster *boundaries* may
//! legitimately differ (insertion is order-sensitive); the moments, which
//! are what Phase II distances are computed from, may not.

use birch::{AcfForest, BirchConfig};
use dar_core::{Acf, Metric, Partitioning, Schema};
use proptest::prelude::*;

const NUM_ATTRS: usize = 2;

fn forest() -> AcfForest {
    let schema = Schema::interval_attrs(NUM_ATTRS);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let config =
        BirchConfig { initial_threshold: 5.0, memory_budget: usize::MAX, ..BirchConfig::default() };
    AcfForest::new(partitioning, &config)
}

/// Per home set: (total N, per image set (ΣY per dim, ΣY² per dim)).
type Aggregate = Vec<(u64, Vec<(Vec<f64>, Vec<f64>)>)>;

fn aggregate(per_set: &[Vec<Acf>]) -> Aggregate {
    per_set
        .iter()
        .map(|clusters| {
            let n: u64 = clusters.iter().map(Acf::n).sum();
            let images = (0..NUM_ATTRS)
                .map(|s| {
                    let mut ls = vec![0.0; 1];
                    let mut ss = vec![0.0; 1];
                    for acf in clusters {
                        let cf = acf.image(s);
                        for (d, v) in cf.linear_sum().iter().enumerate() {
                            ls[d] += v;
                        }
                        for (d, v) in cf.square_sum().iter().enumerate() {
                            ss[d] += v;
                        }
                    }
                    (ls, ss)
                })
                .collect();
            (n, images)
        })
        .collect()
}

/// Equal within accumulated-rounding tolerance: the two sides sum the same
/// per-tuple moments in different orders, so they can differ by a few ULPs
/// per addition but nothing more.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn build(rows: &[Vec<f64>]) -> AcfForest {
    let mut f = forest();
    for row in rows {
        f.insert_values(row);
    }
    f
}

/// `N` must agree exactly and every moment within [`close`] tolerance.
fn check_close(got: &Aggregate, want: &Aggregate, label: &str) -> TestCaseResult {
    prop_assert_eq!(got.len(), want.len(), "{}: home-set count diverged", label);
    for (set, ((n_got, img_got), (n_want, img_want))) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(n_got, n_want, "{}: set {}: N diverged", label, set);
        for (s, ((ls_got, ss_got), (ls_want, ss_want))) in img_got.iter().zip(img_want).enumerate()
        {
            for d in 0..ls_got.len() {
                prop_assert!(
                    close(ls_got[d], ls_want[d]),
                    "{}: set {} image {} dim {}: ΣY {} vs {}",
                    label,
                    set,
                    s,
                    d,
                    ls_got[d],
                    ls_want[d]
                );
                prop_assert!(
                    close(ss_got[d], ss_want[d]),
                    "{}: set {} image {} dim {}: ΣY² {} vs {}",
                    label,
                    set,
                    s,
                    d,
                    ss_got[d],
                    ss_want[d]
                );
            }
        }
    }
    Ok(())
}

/// Three-shard associativity: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` hold the
/// same aggregate moments as each other *and* as a single forest over
/// the concatenation — the property the `dar-cluster` coordinator
/// depends on to merge any number of shard snapshots in shard order
/// without caring how earlier rounds grouped them.
#[test]
fn merge_is_associative_across_three_shards() {
    proptest!(|(rows in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..120),
                cut1 in 0.0f64..1.0, cut2 in 0.0f64..1.0)| {
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|(a, b)| vec![a, b]).collect();
        let (lo, hi) = if cut1 <= cut2 { (cut1, cut2) } else { (cut2, cut1) };
        let i = ((rows.len() as f64) * lo) as usize;
        let j = (((rows.len() as f64) * hi) as usize).max(i);
        let (a_rows, rest) = rows.split_at(i.min(rows.len()));
        let (b_rows, c_rows) = rest.split_at((j - i).min(rest.len()));

        // (a ⊕ b) ⊕ c
        let mut left = build(a_rows);
        left.merge(build(b_rows));
        left.merge(build(c_rows));
        // a ⊕ (b ⊕ c)
        let mut bc = build(b_rows);
        bc.merge(build(c_rows));
        let mut right = build(a_rows);
        right.merge(bc);

        let want = aggregate(&build(&rows).finish());
        let left = aggregate(&left.finish());
        let right = aggregate(&right.finish());
        check_close(&left, &want, "(a⊕b)⊕c vs concat")?;
        check_close(&right, &want, "a⊕(b⊕c) vs concat")?;
        check_close(&left, &right, "(a⊕b)⊕c vs a⊕(b⊕c)")?;
    });
}

/// The empty forest is a merge identity. `a ⊕ ∅` must be *bit-exact*
/// (nothing is inserted, so no summation reorders); `∅ ⊕ a` re-inserts
/// `a`'s clusters into a fresh forest, so `N` is exact and the moments
/// agree within summation tolerance.
#[test]
fn merging_with_the_empty_forest_is_the_identity() {
    proptest!(|(rows in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..120))| {
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|(a, b)| vec![a, b]).collect();

        // Insertion is deterministic, so two builds of the same rows are
        // identical — the untouched twin is the exact baseline.
        let baseline = aggregate(&build(&rows).finish());

        let mut right_identity = build(&rows);
        right_identity.merge(forest());
        prop_assert_eq!(
            aggregate(&right_identity.finish()),
            baseline.clone(),
            "a ⊕ ∅ must leave every moment bit-identical"
        );

        let mut left_identity = forest();
        left_identity.merge(build(&rows));
        check_close(&aggregate(&left_identity.finish()), &baseline, "∅ ⊕ a")?;
    });
}

#[test]
fn merge_of_disjoint_shards_equals_the_concatenated_build() {
    proptest!(|(rows in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..120),
                split_frac in 0.0f64..1.0)| {
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|(a, b)| vec![a, b]).collect();
        let split = ((rows.len() as f64) * split_frac) as usize;
        let (left, right) = rows.split_at(split.min(rows.len()));

        let mut whole = forest();
        for row in &rows {
            whole.insert_values(row);
        }

        let mut a = forest();
        for row in left {
            a.insert_values(row);
        }
        let mut b = forest();
        for row in right {
            b.insert_values(row);
        }
        a.merge(b);

        let want = aggregate(&whole.finish());
        let got = aggregate(&a.finish());
        prop_assert_eq!(got.len(), want.len());
        for (set, ((n_got, img_got), (n_want, img_want))) in
            got.iter().zip(&want).enumerate()
        {
            prop_assert_eq!(n_got, n_want, "set {}: N diverged", set);
            for (s, ((ls_got, ss_got), (ls_want, ss_want))) in
                img_got.iter().zip(img_want).enumerate()
            {
                for d in 0..ls_got.len() {
                    prop_assert!(close(ls_got[d], ls_want[d]),
                        "set {} image {} dim {}: ΣY {} vs {}",
                        set, s, d, ls_got[d], ls_want[d]);
                    prop_assert!(close(ss_got[d], ss_want[d]),
                        "set {} image {} dim {}: ΣY² {} vs {}",
                        set, s, d, ss_got[d], ss_want[d]);
                }
            }
        }
    });
}
