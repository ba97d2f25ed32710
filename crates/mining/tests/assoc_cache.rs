//! The `assoc` distance matrix against direct evaluation, on seeded
//! random real-valued clusters.
//!
//! * Every entry of [`AssocDistances`], built at 1/2/4/8 workers, has the
//!   bits of the metric evaluated directly on the pair (NaN for pairs on
//!   one set).
//! * Rules mined through an artifact set's kept matrix, over a series of
//!   retunes, equal a brute-force enumeration from Dfn 5.1–5.3 that
//!   evaluates every distance directly, bit for bit, degrees included:
//!   at `D0` exactly equal to a pair's distance (ratio 1), at `D0 = 0`
//!   (only coincident images associate, ratio ∞) and at random `D0`.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use dar_par::ThreadPool;
use mining::{
    maximal_cliques, sort_rules, AssocDistances, ClusterDistance, ClusteringGraph, Dar,
    DensitySpec, GraphConfig, Phase2Artifacts, RuleQuery,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;

const WORKERS: [usize; 4] = [1, 2, 4, 8];
const METRICS: [ClusterDistance; 3] =
    [ClusterDistance::D0, ClusterDistance::D1, ClusterDistance::D2];

/// Up to `max` clusters on 2–4 sets of one or two dimensions, drawn
/// around a few shared locations. One cluster in five is a single row
/// copied from another set's single-row cluster, so some cross-set images
/// coincide (distance 0). Returns the clusters and the set count.
fn clusters(rng: &mut TestRng, max: usize) -> (Vec<ClusterSummary>, usize) {
    let sets = 2 + rng.index(3) as usize;
    let layout = AcfLayout::new((0..sets).map(|_| 1 + rng.index(2) as usize).collect());
    let width = layout.total_dims();
    let centers: Vec<Vec<f64>> =
        (0..1 + rng.index(3)).map(|_| (0..width).map(|_| 10.0 * rng.unit()).collect()).collect();
    let count = rng.index(max as u128 + 1) as usize;
    let mut out: Vec<ClusterSummary> = Vec::new();
    let mut singles: Vec<Vec<f64>> = Vec::new();
    for _ in 0..count {
        let set = rng.index(sets as u128) as usize;
        let mut acf = Acf::empty(&layout, set);
        if !singles.is_empty() && rng.index(5) == 0 {
            acf.add_row(&singles[rng.index(singles.len() as u128) as usize]);
        } else {
            let center = &centers[rng.index(centers.len() as u128) as usize];
            let rows = 1 + rng.index(4);
            for _ in 0..rows {
                let row: Vec<f64> = center.iter().map(|c| c + 2.0 * rng.unit() - 1.0).collect();
                if rows == 1 {
                    singles.push(row.clone());
                }
                acf.add_row(&row);
            }
        }
        out.push(ClusterSummary { id: ClusterId(out.len() as u32), set, acf });
    }
    (out, sets)
}

fn graph(
    clusters: Vec<ClusterSummary>,
    metric: ClusterDistance,
    density: &[f64],
) -> ClusteringGraph {
    ClusteringGraph::build(
        clusters,
        &GraphConfig { metric, density_thresholds: density.to_vec(), prune_poor_density: false },
    )
}

/// The distance of Dfn 5.1, evaluated directly.
fn direct(graph: &ClusteringGraph, metric: ClusterDistance, y: usize, x: usize) -> f64 {
    let clusters = graph.clusters();
    metric.between(&clusters[y].acf, &clusters[x].acf, clusters[y].set).unwrap()
}

#[test]
fn matrix_entries_are_direct_evaluations_at_every_worker_count() {
    proptest!(|(seed in 0u64..u64::MAX)| {
        let mut rng = TestRng::with_seed(seed);
        let metric = METRICS[rng.index(3) as usize];
        // Up to 160 nodes: past the row fan-out's 96-node floor.
        let (clusters, sets) = clusters(&mut rng, 160);
        let graph = graph(clusters, metric, &vec![1.0; sets]);
        for workers in WORKERS {
            let matrix = AssocDistances::build(&graph, metric, &ThreadPool::new(workers));
            prop_assert_eq!(matrix.len(), graph.len());
            prop_assert_eq!(matrix.metric(), metric);
            prop_assert_eq!(matrix.bytes(), graph.len() * graph.len() * 8);
            let clusters = graph.clusters();
            for y in 0..graph.len() {
                for x in 0..graph.len() {
                    let got = matrix.get(y, x);
                    if clusters[x].set == clusters[y].set {
                        prop_assert!(got.is_nan(), "seed {seed}: same-set ({y}, {x}) = {got}");
                    } else {
                        let want = direct(&graph, metric, y, x);
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} ({y}, {x})");
                    }
                }
            }
        }
    });
}

/// Non-empty subsets of `items` (sorted) with at most `max_len` members.
fn subsets(items: &[usize], max_len: usize) -> Vec<Vec<usize>> {
    fn walk(
        items: &[usize],
        start: usize,
        max_len: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        for i in start..items.len() {
            cur.push(items[i]);
            out.push(cur.clone());
            if cur.len() < max_len {
                walk(items, i + 1, max_len, cur, out);
            }
            cur.pop();
        }
    }
    let mut sorted = items.to_vec();
    sorted.sort_unstable();
    let mut out = Vec::new();
    walk(&sorted, 0, max_len, &mut Vec::new(), &mut out);
    out
}

/// Every rule of Dfn 5.3 over `cliques`, each distance evaluated directly.
fn brute_force(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    metric: ClusterDistance,
    d0: &[f64],
    query: &RuleQuery,
) -> Vec<Dar> {
    let clusters = graph.clusters();
    let ratio = |y: usize, x: usize| -> Option<f64> {
        let yset = clusters[y].set;
        if clusters[x].set == yset {
            return None;
        }
        let (d, d0) = (direct(graph, metric, y, x), d0[yset]);
        (d <= d0).then_some(if d0 > 0.0 { d / d0 } else { f64::INFINITY })
    };
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for q1 in cliques {
        for q2 in cliques {
            for cons in subsets(q2, query.max_consequent) {
                'ant: for ant in subsets(q1, query.max_antecedent) {
                    let mut degree = 0.0f64;
                    for &y in &cons {
                        for &x in &ant {
                            match ratio(y, x) {
                                Some(r) => degree = degree.max(r),
                                None => continue 'ant,
                            }
                        }
                    }
                    if seen.insert((ant.clone(), cons.clone())) {
                        let support =
                            ant.iter().chain(&cons).map(|&i| clusters[i].support()).min().unwrap();
                        out.push(Dar {
                            antecedent: ant,
                            consequent: cons.clone(),
                            degree,
                            min_cluster_support: support,
                        });
                    }
                }
            }
        }
    }
    sort_rules(&mut out);
    out
}

/// Rules with their degrees as bits, so `-0.0`/`0.0` or NaN would differ.
fn bits(rules: &[Dar]) -> Vec<(Vec<usize>, Vec<usize>, u64, u64)> {
    rules
        .iter()
        .map(|r| {
            (r.antecedent.clone(), r.consequent.clone(), r.degree.to_bits(), r.min_cluster_support)
        })
        .collect()
}

#[test]
fn retunes_from_the_kept_matrix_equal_direct_evaluation() {
    // Rules whose degree is exactly 1 (a pair on the boundary) and
    // infinite (`D0 = 0`), to show the cases are reached.
    let (mut boundary, mut infinite) = (0, 0);
    proptest!(|(seed in 0u64..u64::MAX)| {
        let mut rng = TestRng::with_seed(seed);
        let metric = METRICS[rng.index(3) as usize];
        let (clusters, sets) = clusters(&mut rng, 12);
        let mut density: Vec<f64> = (0..sets).map(|_| 1.0 + 5.0 * rng.unit()).collect();
        // One set's threshold is exactly some cross-set pair's distance on
        // it, so at degree factor 1 that pair sits on `D ≤ D0`'s boundary.
        let probe = graph(clusters.clone(), metric, &density);
        let cross: Vec<(usize, usize)> = (0..probe.len())
            .flat_map(|y| (0..probe.len()).map(move |x| (y, x)))
            .filter(|&(y, x)| probe.clusters()[y].set != probe.clusters()[x].set)
            .collect();
        if !cross.is_empty() {
            let (y, x) = cross[rng.index(cross.len() as u128) as usize];
            density[probe.clusters()[y].set] = direct(&probe, metric, y, x);
        }
        let max_antecedent = 1 + rng.index(3) as usize;
        let max_consequent = 1 + rng.index(3) as usize;
        let retunes: Vec<RuleQuery> = [1.0, 0.0, 0.5 + 2.5 * rng.unit(), 1.0]
            .into_iter()
            .map(|degree_factor| RuleQuery {
                density: DensitySpec::Explicit(density.clone()),
                degree_factor,
                max_antecedent,
                max_consequent,
                max_rules: 0,
                max_pair_work: 0,
                ..RuleQuery::default()
            })
            .collect();
        let reference = graph(clusters.clone(), metric, &density);
        let (cliques, _) = maximal_cliques(reference.adjacency(), 0);
        for workers in WORKERS {
            let pool = ThreadPool::new(workers);
            let artifacts =
                Phase2Artifacts::build_pooled(clusters.clone(), density.clone(), metric, false, 0, &pool);
            prop_assert_eq!(&artifacts.cliques, &cliques, "seed {seed}");
            for query in &retunes {
                let d0 = query.degree_thresholds(&density);
                let want = brute_force(&reference, &cliques, metric, &d0, query);
                let (got, truncated) = artifacts.mine_pooled(query, &pool);
                prop_assert!(!truncated);
                prop_assert_eq!(bits(&got), bits(&want), "seed {seed} workers {workers} {query:?}");
                boundary += got.iter().filter(|r| r.degree == 1.0).count();
                infinite += got.iter().filter(|r| r.degree == f64::INFINITY).count();
                let kept = if cliques.is_empty() { 0 } else { artifacts.graph.len().pow(2) * 8 };
                prop_assert_eq!(artifacts.assoc_bytes(), kept, "seed {seed}");
            }
        }
    });
    assert!(boundary > 0 && infinite > 0, "boundary {boundary}, infinite {infinite}");
}

#[test]
fn unproductive_queries_keep_no_matrix() {
    let mut rng = TestRng::with_seed(7);
    let (clusters, sets) = clusters(&mut rng, 12);
    let artifacts =
        Phase2Artifacts::build(clusters, vec![6.0; sets], ClusterDistance::D2, false, 0);
    for (max_antecedent, max_consequent) in [(0, 2), (3, 0), (0, 0)] {
        let query = RuleQuery { max_antecedent, max_consequent, ..RuleQuery::default() };
        assert_eq!(artifacts.mine(&query), (Vec::new(), false));
        assert_eq!(artifacts.assoc_bytes(), 0, "{max_antecedent}/{max_consequent}");
    }
}
