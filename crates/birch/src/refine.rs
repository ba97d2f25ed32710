//! Global cluster refinement — BIRCH's "Phase 3" applied to ACFs.
//!
//! The incremental, order-dependent tree can split what is really one
//! cluster across several leaf entries (the paper observes "a small
//! difference ... in the centroid of the clusters due to the use of a
//! non-optimal clustering strategy", Section 7.2). This pass runs a global
//! agglomerative merge over the final leaf entries: while the closest pair
//! of clusters (by merged home diameter) still fits under the threshold,
//! merge it. ACF additivity makes the merge exact — no data rescan.

use dar_core::Acf;

/// Agglomeratively merges clusters whose union's home diameter stays at or
/// below `threshold`. Greedy closest-pair; `O(k²)` per merge with `k`
/// clusters — Phase I has already reduced `k` to a summary-sized set.
///
/// Returns the refined clusters; total tuple count is preserved.
pub fn refine_clusters(mut clusters: Vec<Acf>, threshold: f64) -> Vec<Acf> {
    let threshold_sq = threshold * threshold;
    loop {
        let k = clusters.len();
        if k < 2 {
            return clusters;
        }
        // Find the pair with the smallest merged diameter.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..k {
            for j in (i + 1)..k {
                let d = clusters[i].merged_home_diameter_sq(&clusters[j]);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, d)) = best else { return clusters };
        if d > threshold_sq {
            return clusters;
        }
        let absorbed = clusters.swap_remove(j); // j > i, so i stays valid
        clusters[i].merge(&absorbed).expect("clusters of one tree share home set and layout");
    }
}

/// Convenience: refine every per-set cluster list of a forest output with
/// per-set thresholds.
pub fn refine_forest_output(per_set: Vec<Vec<Acf>>, thresholds: &[f64]) -> Vec<Vec<Acf>> {
    per_set
        .into_iter()
        .enumerate()
        .map(|(set, clusters)| {
            let t = thresholds.get(set).copied().unwrap_or(0.0);
            refine_clusters(clusters, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::AcfLayout;

    fn acf(values: &[f64]) -> Acf {
        let layout = AcfLayout::new(vec![1]);
        let mut a = Acf::empty(&layout, 0);
        for &v in values {
            a.add_row(&[v]);
        }
        a
    }

    #[test]
    fn close_fragments_merge_distant_ones_do_not() {
        // Three fragments of one cluster around 10, one far cluster at 100.
        let clusters =
            vec![acf(&[9.8, 10.0]), acf(&[10.1, 10.2]), acf(&[10.4]), acf(&[100.0, 100.1])];
        let refined = refine_clusters(clusters, 2.0);
        assert_eq!(refined.len(), 2);
        let mut counts: Vec<u64> = refined.iter().map(Acf::n).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![2, 5]);
        // The merged cluster's centroid is the mean of all five values.
        let big = refined.iter().find(|c| c.n() == 5).unwrap();
        let c = big.centroid_on(0).unwrap()[0];
        assert!((c - 10.1).abs() < 1e-9, "centroid {c}");
        // And its bounding box covers all fragments.
        assert_eq!(big.bbox().interval(0).lo, 9.8);
        assert_eq!(big.bbox().interval(0).hi, 10.4);
    }

    #[test]
    fn zero_threshold_only_merges_identical_points() {
        let clusters = vec![acf(&[1.0]), acf(&[1.0]), acf(&[2.0])];
        let refined = refine_clusters(clusters, 0.0);
        assert_eq!(refined.len(), 2);
    }

    #[test]
    fn preserves_total_population() {
        let clusters: Vec<Acf> = (0..20).map(|i| acf(&[i as f64 * 0.1])).collect();
        let refined = refine_clusters(clusters, 5.0);
        let total: u64 = refined.iter().map(Acf::n).sum();
        assert_eq!(total, 20);
        assert_eq!(refined.len(), 1, "everything within diameter 5 merges");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(refine_clusters(Vec::new(), 1.0).is_empty());
        let one = refine_clusters(vec![acf(&[3.0])], 1.0);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn forest_output_uses_per_set_thresholds() {
        let per_set = vec![
            vec![acf(&[0.0]), acf(&[0.5])], // set 0: merges at t=1
            vec![acf(&[0.0]), acf(&[0.5])], // set 1: stays at t=0.1
        ];
        let refined = refine_forest_output(per_set, &[1.0, 0.1]);
        assert_eq!(refined[0].len(), 1);
        assert_eq!(refined[1].len(), 2);
    }
}
