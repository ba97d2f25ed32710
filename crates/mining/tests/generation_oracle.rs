//! Rule generation against definition-level oracles on seeded random
//! cluster sets.
//!
//! * Without budgets, the generator's rules — identity, degree and
//!   `min_cluster_support` — equal a brute-force enumeration written from
//!   Dfn 5.1–5.3: every antecedent subset of one clique and consequent
//!   subset of another whose every antecedent–consequent pair is
//!   associated on the consequent's set.
//! * With `max_rules` / `max_pair_work`, the generator equals the serial
//!   definition of those budgets: consequent cliques in order, then
//!   antecedent cliques, then consequent subsets (each pass counting one
//!   unit of pair work), the first occurrence of each rule kept, stopping
//!   at the `max_rules`-th distinct rule.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use dar_par::ThreadPool;
use mining::rules::{generate_dars, generate_dars_capped, generate_dars_capped_pooled};
use mining::RuleConfig;
use mining::{maximal_cliques, sort_rules, ClusterDistance, ClusteringGraph, Dar, GraphConfig};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;

/// A random Phase II input: clusters on 2–4 one-dimensional sets, drawn
/// around a few shared locations so cliques overlap, plus per-set
/// thresholds.
struct Case {
    graph: ClusteringGraph,
    cliques: Vec<Vec<usize>>,
    config: RuleConfig,
}

fn case(seed: u64) -> Case {
    let mut rng = TestRng::with_seed(seed);
    let sets = 2 + rng.index(3) as usize;
    let layout = AcfLayout::new(vec![1; sets]);
    let centers: Vec<Vec<f64>> =
        (0..1 + rng.index(3)).map(|_| (0..sets).map(|_| 10.0 * rng.unit()).collect()).collect();
    let mut clusters = Vec::new();
    for set in 0..sets {
        for _ in 0..1 + rng.index(3) {
            let center = &centers[rng.index(centers.len() as u128) as usize];
            let mut acf = Acf::empty(&layout, set);
            for _ in 0..1 + rng.index(4) {
                let row: Vec<f64> = center.iter().map(|c| c + 2.0 * rng.unit() - 1.0).collect();
                acf.add_row(&row);
            }
            let id = ClusterId(clusters.len() as u32);
            clusters.push(ClusterSummary { id, set, acf });
        }
    }
    let density: Vec<f64> = (0..sets).map(|_| 1.0 + 5.0 * rng.unit()).collect();
    let graph = ClusteringGraph::build(
        clusters,
        &GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: density,
            prune_poor_density: false,
        },
    );
    let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
    // One set in ten gets D0 = 0: its ratios are infinite.
    let degree_thresholds =
        (0..sets).map(|_| if rng.index(10) == 0 { 0.0 } else { 1.0 + 5.0 * rng.unit() }).collect();
    let config = RuleConfig {
        metric: ClusterDistance::D2,
        degree_thresholds,
        max_antecedent: 1 + rng.index(3) as usize,
        max_consequent: 1 + rng.index(3) as usize,
        max_rules: 0,
        max_pair_work: 0,
    };
    Case { graph, cliques, config }
}

/// Non-empty subsets of `items` (sorted) with at most `max_len` members,
/// depth first: each subset followed by its extensions.
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

/// `D(C_y[Y], C_x[Y]) / D0_Y`, or `None` when `x` is not associated with
/// `y` (Dfn 5.1: same set, or farther than `D0_Y`).
fn ratio(graph: &ClusteringGraph, config: &RuleConfig, y: usize, x: usize) -> Option<f64> {
    let clusters = graph.clusters();
    let yset = clusters[y].set;
    if clusters[x].set == yset {
        return None;
    }
    let d = config.metric.between(&clusters[y].acf, &clusters[x].acf, yset).unwrap();
    let d0 = config.degree_thresholds[yset];
    (d <= d0).then_some(if d0 > 0.0 { d / d0 } else { f64::INFINITY })
}

/// The rule `A ⇒ S` if Dfn 5.3 holds: its degree is the worst ratio over
/// consequent (outer) × antecedent (inner) pairs.
fn rule(
    graph: &ClusteringGraph,
    config: &RuleConfig,
    ant: &[usize],
    cons: &[usize],
) -> Option<Dar> {
    let mut degree = 0.0f64;
    for &y in cons {
        for &x in ant {
            degree = degree.max(ratio(graph, config, y, x)?);
        }
    }
    let support = ant.iter().chain(cons).map(|&i| graph.clusters()[i].support()).min()?;
    Some(Dar {
        antecedent: ant.to_vec(),
        consequent: cons.to_vec(),
        degree,
        min_cluster_support: support,
    })
}

fn brute_force(case: &Case) -> Vec<Dar> {
    let Case { graph, cliques, config } = case;
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for q1 in cliques {
        for q2 in cliques {
            for cons in subsets(q2, config.max_consequent) {
                for ant in subsets(q1, config.max_antecedent) {
                    if let Some(dar) = rule(graph, config, &ant, &cons) {
                        if seen.insert((ant, cons.clone())) {
                            out.push(dar);
                        }
                    }
                }
            }
        }
    }
    sort_rules(&mut out);
    out
}

/// The serial definition of the budgets.
fn serial_budgeted(case: &Case) -> (Vec<Dar>, bool) {
    let Case { graph, cliques, config } = case;
    let consequents: Vec<Vec<Vec<usize>>> =
        cliques.iter().map(|q| subsets(q, config.max_consequent)).collect();
    let total: u64 = consequents.iter().map(|c| (c.len() * cliques.len()) as u64).sum();
    let mut truncated = config.max_pair_work != 0 && total > config.max_pair_work;
    let mut used = 0u64;
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    'all: for cons_list in &consequents {
        // Each consequent clique's work starts at its fixed offset.
        let mut remaining = if config.max_pair_work == 0 {
            u64::MAX
        } else {
            config.max_pair_work.saturating_sub(used)
        };
        used += (cons_list.len() * cliques.len()) as u64;
        'task: for q1 in cliques {
            for cons in cons_list {
                if remaining == 0 {
                    break 'task;
                }
                remaining -= 1;
                let candidates: Vec<usize> = q1
                    .iter()
                    .copied()
                    .filter(|&x| cons.iter().all(|&y| ratio(graph, config, y, x).is_some()))
                    .collect();
                for ant in subsets(&candidates, config.max_antecedent) {
                    let dar = rule(graph, config, &ant, cons).expect("candidates associate");
                    if seen.insert((ant, cons.clone())) {
                        out.push(dar);
                        if config.max_rules != 0 && out.len() >= config.max_rules {
                            truncated = true;
                            break 'all;
                        }
                    }
                }
            }
        }
    }
    sort_rules(&mut out);
    (out, truncated)
}

#[test]
fn unbudgeted_generation_equals_the_definition() {
    let pool = ThreadPool::new(3);
    proptest!(|(seed in 0u64..u64::MAX)| {
        let case = case(seed);
        let want = brute_force(&case);
        prop_assert_eq!(generate_dars(&case.graph, &case.cliques, &case.config), want.clone(), "seed {seed}");
        let pooled = generate_dars_capped_pooled(&case.graph, &case.cliques, &case.config, &pool);
        prop_assert_eq!(pooled, (want, false), "seed {seed}");
    });
}

#[test]
fn budgeted_generation_equals_the_serial_definition() {
    let pool = ThreadPool::new(3);
    proptest!(|(seed in 0u64..u64::MAX, max_rules in 0usize..40, max_pair_work in 0u64..300)| {
        let mut case = case(seed);
        case.config.max_rules = max_rules;
        case.config.max_pair_work = max_pair_work;
        let want = serial_budgeted(&case);
        prop_assert_eq!(generate_dars_capped(&case.graph, &case.cliques, &case.config), want.clone(), "seed {seed}");
        let pooled = generate_dars_capped_pooled(&case.graph, &case.cliques, &case.config, &pool);
        prop_assert_eq!(pooled, want, "seed {seed}");
    });
}
