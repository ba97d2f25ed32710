//! Property: an ACF's per-set image, viewed in place in its flat moment
//! buffer, is bit for bit the CF a standalone [`Cf`] builds from the same
//! projections in the same order — its `N`, ΣY, ΣY², centroid, diameter,
//! radius and the D0–D4 distances to another cluster's image. The ledger
//! and the golden suites only exercise one-dimensional sets; here the
//! partitionings are random with 1–4 dimensions per set and the points
//! are real-valued (not dyadic), so any mis-sliced offset or reordered
//! float operation shows. The property must survive `merge` and a persist
//! round trip.

use dar_core::{Acf, AcfLayout, Cf, CfRef, ClusterId, ClusterSummary};
use mining::persist::{decode_clusters, encode_clusters};
use proptest::prelude::*;
use proptest::TestRng;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Draws `count` flat rows of `width` real values: thirds of dyadic draws,
/// spread over several magnitudes, so sums round.
fn rows(rng: &mut TestRng, count: usize, width: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| {
            (0..width)
                .map(|_| {
                    let scale = [1.0, 37.0, 1e3][rng.index(3) as usize];
                    (rng.unit() - 0.25) * scale / 3.0
                })
                .collect()
        })
        .collect()
}

/// The ACF of `rows` on `home`, and one standalone CF per set fed the
/// same projections in the same order.
fn summarize(layout: &AcfLayout, home: usize, rows: &[Vec<f64>]) -> (Acf, Vec<Cf>) {
    let mut acf = Acf::empty(layout, home);
    let mut cfs: Vec<Cf> = layout.dims().map(Cf::empty).collect();
    for row in rows {
        acf.add_row(row);
        for (set, cf) in cfs.iter_mut().enumerate() {
            cf.add_point(&row[layout.span(set)]);
        }
    }
    (acf, cfs)
}

/// Every statistic of `view` equals `cf`'s, bit for bit.
fn same_stats(view: CfRef<'_>, cf: &Cf, label: &str) -> TestCaseResult {
    let want = cf.view();
    prop_assert_eq!(view.n(), want.n(), "{}: n", label);
    prop_assert_eq!(bits(view.linear_sum()), bits(want.linear_sum()), "{}: LS", label);
    prop_assert_eq!(bits(view.square_sum()), bits(want.square_sum()), "{}: SS", label);
    if !want.is_empty() {
        let (got, exp) = (view.centroid().unwrap(), want.centroid().unwrap());
        prop_assert_eq!(bits(&got), bits(&exp), "{}: centroid", label);
    }
    prop_assert_eq!(view.diameter().to_bits(), want.diameter().to_bits(), "{}: diameter", label);
    prop_assert_eq!(view.radius().to_bits(), want.radius().to_bits(), "{}: radius", label);
    Ok(())
}

/// D0–D4 between two views equal those between two standalone CFs.
fn same_distances(a: CfRef<'_>, b: CfRef<'_>, ca: &Cf, cb: &Cf, label: &str) -> TestCaseResult {
    let bits_of = |r: Result<f64, _>| r.map(f64::to_bits).ok();
    let (ca, cb) = (ca.view(), cb.view());
    prop_assert_eq!(bits_of(a.d0(b)), bits_of(ca.d0(cb)), "{}: D0", label);
    prop_assert_eq!(bits_of(a.d1(b)), bits_of(ca.d1(cb)), "{}: D1", label);
    prop_assert_eq!(bits_of(a.d2(b)), bits_of(ca.d2(cb)), "{}: D2", label);
    prop_assert_eq!(a.d3(b).to_bits(), ca.d3(cb).to_bits(), "{}: D3", label);
    prop_assert_eq!(bits_of(a.d4(b)), bits_of(ca.d4(cb)), "{}: D4", label);
    Ok(())
}

/// Every image of `acf` matches its standalone CF.
fn same_images(acf: &Acf, cfs: &[Cf], label: &str) -> TestCaseResult {
    for (set, cf) in cfs.iter().enumerate() {
        same_stats(acf.image(set), cf, &format!("{label} set {set}"))?;
    }
    same_stats(acf.home_cf(), &cfs[acf.home()], &format!("{label} home"))
}

#[test]
fn acf_images_match_standalone_cfs_bit_for_bit() {
    let pool = dar_par::ThreadPool::new(2);
    proptest!(|(dims in prop::collection::vec(1usize..5, 1..6),
                home in 0usize..64,
                counts in (1usize..12, 1usize..12),
                seed in 0u64..u64::MAX)| {
        let layout = AcfLayout::new(dims.clone());
        let home = home % dims.len();
        let mut rng = TestRng::with_seed(seed);
        let rows_a = rows(&mut rng, counts.0, layout.total_dims());
        let rows_b = rows(&mut rng, counts.1, layout.total_dims());
        let (a, cfs_a) = summarize(&layout, home, &rows_a);
        let (b, cfs_b) = summarize(&layout, home, &rows_b);
        same_images(&a, &cfs_a, "a")?;
        same_images(&b, &cfs_b, "b")?;
        for set in 0..dims.len() {
            same_distances(a.image(set), b.image(set), &cfs_a[set], &cfs_b[set],
                &format!("a-b set {set}"))?;
        }

        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        let mut cfs_m = cfs_a.clone();
        for (cf, other) in cfs_m.iter_mut().zip(&cfs_b) {
            cf.merge(other.view());
        }
        same_images(&merged, &cfs_m, "merged")?;
        for set in 0..dims.len() {
            same_distances(merged.image(set), a.image(set), &cfs_m[set], &cfs_a[set],
                &format!("merged-a set {set}"))?;
        }

        let clusters = vec![
            ClusterSummary { id: ClusterId(0), set: home, acf: a.clone() },
            ClusterSummary { id: ClusterId(1), set: home, acf: merged.clone() },
        ];
        let binary = decode_clusters(&encode_clusters(&clusters, &pool).unwrap(), &pool).unwrap();
        prop_assert_eq!(&binary[0].acf, &a, "v2: a changed in the round trip");
        prop_assert_eq!(&binary[1].acf, &merged, "v2: merged changed");
        same_images(&binary[0].acf, &cfs_a, "v2 a")?;
        same_images(&binary[1].acf, &cfs_m, "v2 merged")?;
    });
}
