//! Redundancy pruning against a plain greedy pass written from DESIGN
//! §15, on seeded random ranked lists.
//!
//! The oracle walks the ranked rules once. A rule is redundant with a
//! representative when both sides have the same attribute sets and, set
//! by set, the member clusters' bounding boxes overlap; a redundant rule
//! is dropped and counted against the first such representative, any
//! other rule becomes a representative. No grouping, no member ordering.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use dar_rank::prune::prune;
use mining::Dar;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;

const SETS: usize = 4;

/// 1–3 clusters per set, each a one-dimensional interval on its set.
fn clusters(rng: &mut TestRng) -> Vec<ClusterSummary> {
    let layout = AcfLayout::new(vec![1; SETS]);
    let mut out = Vec::new();
    for set in 0..SETS {
        for _ in 0..1 + rng.index(3) {
            let (lo, width) = (10.0 * rng.unit(), 4.0 * rng.unit());
            let mut acf = Acf::empty(&layout, set);
            for x in [lo, lo + width] {
                acf.add_row(&[x; SETS]);
            }
            out.push(ClusterSummary { id: ClusterId(out.len() as u32), set, acf });
        }
    }
    out
}

/// A rule over 1–2 antecedent sets and 1–2 other consequent sets, one
/// cluster per set, members in index order (as generated rules are).
fn random_rule(rng: &mut TestRng, clusters: &[ClusterSummary]) -> Dar {
    let mut sets: Vec<usize> = (0..SETS).collect();
    for i in (1..SETS).rev() {
        sets.swap(i, rng.index(i as u128 + 1) as usize);
    }
    let ant_len = 1 + rng.index(2) as usize;
    let cons_len = 1 + rng.index(2) as usize;
    let mut pick = |sets: &[usize]| {
        let mut members: Vec<usize> = sets
            .iter()
            .map(|&s| {
                let on_set: Vec<usize> =
                    (0..clusters.len()).filter(|&i| clusters[i].set == s).collect();
                on_set[rng.index(on_set.len() as u128) as usize]
            })
            .collect();
        members.sort_unstable();
        members
    };
    let antecedent = pick(&sets[..ant_len]);
    let consequent = pick(&sets[ant_len..ant_len + cons_len]);
    Dar { antecedent, consequent, degree: rng.unit(), min_cluster_support: 2 }
}

fn side_sets(members: &[usize], clusters: &[ClusterSummary]) -> BTreeSet<usize> {
    members.iter().map(|&i| clusters[i].set).collect()
}

/// The member of `members` on `set`.
fn on_set(members: &[usize], set: usize, clusters: &[ClusterSummary]) -> usize {
    *members.iter().find(|&&i| clusters[i].set == set).expect("signature matched")
}

fn redundant(a: &Dar, b: &Dar, clusters: &[ClusterSummary]) -> bool {
    let sides = [(&a.antecedent, &b.antecedent), (&a.consequent, &b.consequent)];
    sides.iter().all(|(xs, ys)| {
        let sets = side_sets(xs, clusters);
        sets == side_sets(ys, clusters)
            && sets.iter().all(|&s| {
                let (bx, by) = (
                    clusters[on_set(xs, s, clusters)].bbox().intervals()[0],
                    clusters[on_set(ys, s, clusters)].bbox().intervals()[0],
                );
                bx.lo <= by.hi && by.lo <= bx.hi
            })
    })
}

/// `(kept, pruned, clusters)` of the greedy pass.
fn oracle(ranked: &[Dar], clusters: &[ClusterSummary]) -> (Vec<usize>, usize, usize) {
    let mut kept: Vec<usize> = Vec::new();
    let mut absorbing = BTreeSet::new();
    for (i, rule) in ranked.iter().enumerate() {
        match kept.iter().find(|&&rep| redundant(&ranked[rep], rule, clusters)) {
            Some(&rep) => {
                absorbing.insert(rep);
            }
            None => kept.push(i),
        }
    }
    let pruned = ranked.len() - kept.len();
    (kept, pruned, absorbing.len())
}

#[test]
fn prune_equals_the_greedy_definition() {
    proptest!(|(seed in 0u64..u64::MAX, len in 0usize..60)| {
        let mut rng = TestRng::with_seed(seed);
        let clusters = clusters(&mut rng);
        let ranked: Vec<Dar> = (0..len).map(|_| random_rule(&mut rng, &clusters)).collect();
        let refs: Vec<&Dar> = ranked.iter().collect();
        let outcome = prune(&refs, &clusters);
        let (kept, pruned, absorbing) = oracle(&ranked, &clusters);
        prop_assert_eq!(outcome.kept, kept, "seed {seed}");
        prop_assert_eq!(outcome.pruned, pruned, "seed {seed}");
        prop_assert_eq!(outcome.clusters, absorbing, "seed {seed}");
    });
}
