//! Clustering-based redundancy pruning.
//!
//! Overlapping maximal cliques emit families of near-identical rules: same
//! antecedent/consequent *attribute sets*, cluster bounding boxes that
//! overlap interval-by-interval — to a consumer these are one insight
//! stated several times. Following the pruning-by-clustering literature,
//! rules are grouped into redundancy clusters (same attribute-set
//! signature, pairwise-overlapping member bounding boxes) and only the
//! best-ranked representative of each cluster is kept.
//!
//! The pass is greedy over the already-ranked rule list, so which rule
//! represents a cluster is exactly the one the active measure ranks
//! highest — and the output is a deterministic function of the ranked
//! input, preserving byte-identity across worker counts and shards.

use dar_core::{BoundingBox, ClusterSummary};
use mining::Dar;
use std::collections::HashMap;

/// The rules a pruning pass kept, plus its bookkeeping.
#[derive(Debug)]
pub struct PruneOutcome {
    /// Indices (into the ranked input) of the representatives, in input
    /// order.
    pub kept: Vec<usize>,
    /// Rules dropped as redundant.
    pub pruned: usize,
    /// Redundancy clusters that absorbed at least one duplicate.
    pub clusters: usize,
}

/// Whether two bounding boxes overlap in every dimension.
fn overlaps(a: &BoundingBox, b: &BoundingBox) -> bool {
    let (ia, ib) = (a.intervals(), b.intervals());
    ia.len() == ib.len() && ia.iter().zip(ib).all(|(x, y)| x.lo <= y.hi && y.lo <= x.hi)
}

/// Greedy redundancy pruning over a ranked rule list: a rule that is
/// redundant with an earlier (better-ranked) representative is dropped,
/// otherwise it becomes a representative itself.
///
/// A rule's signature is the attribute sets of each side, members ordered
/// by set; clique adjacency guarantees a side's member sets are pairwise
/// distinct, so the ordering is total. Two same-signature rules are
/// redundant when corresponding members (matched by attribute set) have
/// overlapping bounding boxes on both sides. Signatures partition the
/// rules, so only same-signature pairs are ever compared. Each rule's
/// set-ordered members and signature are computed once.
pub fn prune(ranked: &[&Dar], clusters: &[ClusterSummary]) -> PruneOutcome {
    // Rule `i`'s antecedent then consequent, each ordered by set, and its
    // signature: the antecedent length, then those members' sets.
    let (mut members, mut sets) = (Vec::new(), Vec::new());
    let (mut member_starts, mut set_starts) = (vec![0], vec![0]);
    for rule in ranked {
        let from = members.len();
        push_set_ordered(rule, clusters, &mut members);
        push_signature(rule, &members[from..], clusters, &mut sets);
        member_starts.push(members.len());
        set_starts.push(sets.len());
    }
    let rule_members = |i: usize| &members[member_starts[i]..member_starts[i + 1]];
    let signature = |i: usize| &sets[set_starts[i]..set_starts[i + 1]];

    // Representative indices per signature.
    let mut reps: HashMap<&[usize], Vec<usize>> = HashMap::new();
    let mut kept = Vec::with_capacity(ranked.len());
    let mut absorbed = vec![false; ranked.len()];
    let mut pruned = 0;
    for i in 0..ranked.len() {
        let group = reps.entry(signature(i)).or_default();
        let redundant = |rep: usize| {
            rule_members(rep)
                .iter()
                .zip(rule_members(i))
                .all(|(&x, &y)| overlaps(clusters[x].bbox(), clusters[y].bbox()))
        };
        match group.iter().copied().find(|&rep| redundant(rep)) {
            Some(rep) => {
                pruned += 1;
                absorbed[rep] = true;
            }
            None => {
                group.push(i);
                kept.push(i);
            }
        }
    }
    PruneOutcome { kept, pruned, clusters: absorbed.iter().filter(|&&a| a).count() }
}

/// Appends `rule`'s antecedent, then its consequent, each side's members
/// ordered by attribute set.
fn push_set_ordered(rule: &Dar, clusters: &[ClusterSummary], members: &mut Vec<usize>) {
    for side in [&rule.antecedent, &rule.consequent] {
        let from = members.len();
        members.extend_from_slice(side);
        members[from..].sort_unstable_by_key(|&i| clusters[i].set);
    }
}

/// Appends `rule`'s signature, given its set-ordered members: the
/// antecedent length, then those members' sets.
fn push_signature(
    rule: &Dar,
    set_ordered: &[usize],
    clusters: &[ClusterSummary],
    sets: &mut Vec<usize>,
) {
    sets.push(rule.antecedent.len());
    sets.extend(set_ordered.iter().map(|&i| clusters[i].set));
}

/// The signature [`prune`] groups `rule` by.
pub(crate) fn signature(rule: &Dar, clusters: &[ClusterSummary]) -> Vec<usize> {
    let (mut members, mut sets) = (Vec::new(), Vec::new());
    push_set_ordered(rule, clusters, &mut members);
    push_signature(rule, &members, clusters, &mut sets);
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    /// One single-attribute cluster per set, centered at `x` with ±0.5
    /// spread.
    fn cluster(id: u32, set: usize, x: f64) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        acf.add_row(&[x - 0.5, x - 0.5]);
        acf.add_row(&[x + 0.5, x + 0.5]);
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    fn rule(ant: Vec<usize>, cons: Vec<usize>, degree: f64) -> Dar {
        Dar { antecedent: ant, consequent: cons, degree, min_cluster_support: 2 }
    }

    #[test]
    fn overlapping_same_signature_rules_collapse_to_the_best() {
        // Clusters 0/2 (set 0) overlap; clusters 1/3 (set 1) overlap.
        let clusters = vec![
            cluster(0, 0, 10.0),
            cluster(1, 1, 20.0),
            cluster(2, 0, 10.4),
            cluster(3, 1, 20.4),
        ];
        let rules =
            [rule(vec![0], vec![1], 0.1), rule(vec![2], vec![3], 0.5), rule(vec![1], vec![0], 0.9)];
        let out = prune(&[&rules[0], &rules[1], &rules[2]], &clusters);
        // Rule 1 is redundant with rule 0; rule 2 has a different
        // signature (sides swapped) and survives.
        assert_eq!(out.kept, vec![0, 2]);
        assert_eq!(out.pruned, 1);
        assert_eq!(out.clusters, 1);
    }

    #[test]
    fn disjoint_boxes_are_not_redundant() {
        let clusters = vec![cluster(0, 0, 10.0), cluster(1, 1, 20.0), cluster(2, 0, 99.0)];
        let rules = [rule(vec![0], vec![1], 0.1), rule(vec![2], vec![1], 0.5)];
        let out = prune(&[&rules[0], &rules[1]], &clusters);
        assert_eq!(out.kept, vec![0, 1]);
        assert_eq!(out.pruned, 0);
        assert_eq!(out.clusters, 0);
    }
}
