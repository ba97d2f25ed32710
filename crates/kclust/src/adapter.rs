//! Converting hard assignments into the ACF cluster representation, so any
//! clusterer can drive the Phase II rule machinery.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary, Partitioning, Relation, SetId};

/// Builds [`ClusterSummary`] ACFs from a per-tuple cluster assignment on
/// one attribute set: cluster `c` of set `set` absorbs every tuple with
/// `assignments[row] == c`, accumulating its projections on *all* sets (so
/// the full Theorem 6.1 machinery works downstream).
///
/// `next_id` supplies the first cluster id and is advanced.
pub fn assignments_to_summaries(
    relation: &Relation,
    partitioning: &Partitioning,
    set: SetId,
    assignments: &[usize],
    k: usize,
    next_id: &mut u32,
) -> Vec<ClusterSummary> {
    let layout = AcfLayout::from_partitioning(partitioning);
    let mut acfs: Vec<Acf> = (0..k).map(|_| Acf::empty(&layout, set)).collect();
    let mut projection = Vec::with_capacity(layout.total_dims());
    for (row, &a) in assignments.iter().enumerate() {
        projection.clear();
        for set in partitioning.sets() {
            projection.extend(set.attrs.iter().map(|&attr| relation.value(row, attr)));
        }
        acfs[a].add_row(&projection);
    }
    acfs.into_iter()
        .filter(|acf| !acf.is_empty())
        .map(|acf| {
            let id = ClusterId(*next_id);
            *next_id += 1;
            ClusterSummary { id, set, acf }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Metric, RelationBuilder, Schema};

    #[test]
    fn summaries_match_the_assignment() {
        let mut b = RelationBuilder::new(Schema::interval_attrs(2));
        b.push_row(&[0.0, 10.0]).unwrap();
        b.push_row(&[1.0, 11.0]).unwrap();
        b.push_row(&[50.0, 60.0]).unwrap();
        let r = b.finish();
        let p = Partitioning::per_attribute(r.schema(), Metric::Euclidean);
        let mut next_id = 5;
        // Cluster on set 0: rows {0,1} together, row 2 alone; cluster id 1
        // of the assignment is empty and must be dropped.
        let summaries = assignments_to_summaries(&r, &p, 0, &[0, 0, 2], 3, &mut next_id);
        assert_eq!(summaries.len(), 2);
        assert_eq!(next_id, 7);
        let big = &summaries[0];
        assert_eq!(big.id, ClusterId(5));
        assert_eq!(big.support(), 2);
        assert_eq!(big.acf.centroid_on(0).unwrap(), vec![0.5]);
        // The image on the *other* set accumulated too (Theorem 6.1 data).
        assert_eq!(big.acf.centroid_on(1).unwrap(), vec![10.5]);
        assert_eq!(summaries[1].support(), 1);
    }
}
