//! Soundness of rule generation against Definition 5.3: every emitted DAR
//! must satisfy, by direct recomputation from the summaries,
//!
//! 1. `D(C_Yj[Yj], C_Xi[Yj]) ≤ D0_Yj` for every antecedent–consequent pair
//!    (the degree condition);
//! 2. mutual closeness among antecedent clusters and among consequent
//!    clusters on both projections (the clique/edge conditions);
//! 3. pairwise-disjoint attribute sets across the whole rule.

use interval_rules::core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use interval_rules::datagen::SeededRng;
use interval_rules::mining::clique::maximal_cliques;
use interval_rules::mining::graph::{ClusterDistance, ClusteringGraph, GraphConfig};
use interval_rules::mining::rules::{generate_dars, RuleConfig};

/// Random cluster population over `num_sets` attribute sets: each cluster
/// picks a latent component; within a component images coincide, across
/// components they are far — plus fully random "noise" clusters.
fn random_clusters(seed: u64, num_sets: usize, per_set: usize) -> Vec<ClusterSummary> {
    let mut rng = SeededRng::new(seed);
    let layout = AcfLayout::new(vec![1; num_sets]);
    let mut out = Vec::new();
    let mut id = 0u32;
    for set in 0..num_sets {
        for _ in 0..per_set {
            let component = rng.index(3) as f64;
            let noise = rng.uniform() < 0.3;
            let mut acf = Acf::empty(&layout, set);
            for _ in 0..20 {
                let projections: Vec<f64> = (0..num_sets)
                    .map(|_| {
                        let base =
                            if noise { rng.uniform_in(-50.0, 50.0) } else { 10.0 * component };
                        let sd = 0.4 + 2.0 * rng.uniform();
                        base + rng.normal(0.0, sd)
                    })
                    .collect();
                acf.add_row(&projections);
            }
            out.push(ClusterSummary { id: ClusterId(id), set, acf });
            id += 1;
        }
    }
    out
}

#[test]
fn every_emitted_rule_satisfies_definition_5_3() {
    for seed in 0..12u64 {
        let num_sets = 3 + (seed as usize % 2);
        let clusters = random_clusters(seed, num_sets, 4);
        let density = vec![4.0; num_sets];
        let degree: Vec<f64> = density.iter().map(|d| d * 1.5).collect();
        let metric = if seed % 2 == 0 { ClusterDistance::D2 } else { ClusterDistance::D1 };

        let graph = ClusteringGraph::build(
            clusters,
            &GraphConfig {
                metric,
                density_thresholds: density.clone(),
                prune_poor_density: metric == ClusterDistance::D2,
            },
        );
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rules = generate_dars(
            &graph,
            &cliques,
            &RuleConfig {
                metric,
                degree_thresholds: degree.clone(),
                max_antecedent: 2,
                max_consequent: 2,
                max_rules: 0,
                max_pair_work: 0,
            },
        );
        let nodes = graph.clusters();
        for rule in &rules {
            let members: Vec<usize> =
                rule.antecedent.iter().chain(&rule.consequent).copied().collect();
            // (3) pairwise disjoint attribute sets.
            let mut sets: Vec<usize> = members.iter().map(|&m| nodes[m].set).collect();
            sets.sort_unstable();
            sets.dedup();
            assert_eq!(sets.len(), members.len(), "seed {seed}: sets repeat in {rule:?}");

            // (1) degree condition, recomputed.
            for &y in &rule.consequent {
                let yset = nodes[y].set;
                for &x in &rule.antecedent {
                    let d = metric
                        .between(&nodes[y].acf, &nodes[x].acf, yset)
                        .expect("non-empty clusters");
                    assert!(
                        d <= degree[yset] + 1e-9,
                        "seed {seed}: degree violated ({d} > {}) in {rule:?}",
                        degree[yset]
                    );
                }
            }

            // (2) mutual closeness: antecedents pairwise, consequents
            // pairwise — both projections within the density thresholds
            // (they came from cliques, but re-verify from first principles).
            let check_mutual = |ids: &[usize]| {
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        for side in [a, b] {
                            let s = nodes[side].set;
                            let d = metric
                                .between(&nodes[a].acf, &nodes[b].acf, s)
                                .expect("non-empty clusters");
                            assert!(
                                d <= density[s] + 1e-9,
                                "seed {seed}: mutual closeness violated on set {s} \
                                 ({d} > {}) in {rule:?}",
                                density[s]
                            );
                        }
                    }
                }
            };
            check_mutual(&rule.antecedent);
            check_mutual(&rule.consequent);

            // Reported degree is the normalized worst pair, within [0, 1].
            assert!(rule.degree <= 1.0 + 1e-9, "seed {seed}: {rule:?}");
        }
    }
}

#[test]
fn degree_ranking_is_consistent_with_raw_distances() {
    let clusters = random_clusters(99, 3, 4);
    let density = vec![4.0; 3];
    let graph = ClusteringGraph::build(
        clusters,
        &GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: density.clone(),
            prune_poor_density: true,
        },
    );
    let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
    let rules = generate_dars(
        &graph,
        &cliques,
        &RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: density.iter().map(|d| d * 2.0).collect(),
            max_antecedent: 1,
            max_consequent: 1,
            max_rules: 0,
            max_pair_work: 0,
        },
    );
    // For 1:1 rules, the normalized degree must equal the raw distance
    // divided by the consequent set's threshold.
    let nodes = graph.clusters();
    for rule in &rules {
        let (x, y) = (rule.antecedent[0], rule.consequent[0]);
        let yset = nodes[y].set;
        let raw = ClusterDistance::D2.between(&nodes[y].acf, &nodes[x].acf, yset).unwrap();
        let expected = raw / (density[yset] * 2.0);
        assert!((rule.degree - expected).abs() < 1e-9);
    }
}
