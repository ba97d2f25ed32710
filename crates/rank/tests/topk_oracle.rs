//! The bound-and-skip top-k search against post-hoc ranking of the
//! exhaustive generator, on seeded random cluster sets.
//!
//! For every measure, `prune_redundant` on and off, `top_k` of 1, 3 and
//! 25, and `min_measure` unset or set at the median value, the search's
//! rules, value bits and truncation flag must equal
//! `rank(generate_dars_capped(..))`. Cluster supports are small integers,
//! so value ties (conviction at `CONVICTION_CAP` above all) are common.
//! A second property adds random `max_rules` / `max_pair_work` budgets,
//! where the search must fall back to exhaustive emission whenever the
//! rule cap could bind.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use dar_par::ThreadPool;
use dar_rank::{mine_top_k, rank, RankSpec, Ranked, CONVICTION_CAP};
use mining::rules::generate_dars_capped;
use mining::{ClusterDistance, Dar, DensitySpec, Measure, Phase2Artifacts, RuleQuery, MEASURES};
use proptest::prelude::*;
use proptest::TestRng;

/// A random Phase II input: clusters on 2–4 one-dimensional sets around a
/// few shared locations (so cliques overlap), its artifacts, a base query
/// and the relation size.
struct Case {
    artifacts: Phase2Artifacts,
    query: RuleQuery,
    n: u64,
}

fn case(seed: u64) -> Case {
    let mut rng = TestRng::with_seed(seed);
    let sets = 2 + rng.index(3) as usize;
    let layout = AcfLayout::new(vec![1; sets]);
    let centers: Vec<Vec<f64>> =
        (0..1 + rng.index(3)).map(|_| (0..sets).map(|_| 10.0 * rng.unit()).collect()).collect();
    let mut clusters = Vec::new();
    let mut per_set = vec![0u64; sets];
    for (set, total) in per_set.iter_mut().enumerate() {
        for _ in 0..1 + rng.index(4) {
            let center = &centers[rng.index(centers.len() as u128) as usize];
            let mut acf = Acf::empty(&layout, set);
            let rows = 1 + rng.index(6) as u64;
            for _ in 0..rows {
                let row: Vec<f64> = center.iter().map(|c| c + 2.0 * rng.unit() - 1.0).collect();
                acf.add_row(&row);
            }
            *total += rows;
            let id = ClusterId(clusters.len() as u32);
            clusters.push(ClusterSummary { id, set, acf });
        }
    }
    let density: Vec<f64> = (0..sets).map(|_| 1.0 + 5.0 * rng.unit()).collect();
    let artifacts =
        Phase2Artifacts::build(clusters, density.clone(), ClusterDistance::D2, false, 0);
    let query = RuleQuery {
        density: DensitySpec::Explicit(density),
        degree_factor: 0.3 + 1.5 * rng.unit(),
        max_antecedent: 1 + rng.index(3) as usize,
        max_consequent: 1 + rng.index(3) as usize,
        max_rules: 0,
        max_pair_work: 0,
        ..RuleQuery::default()
    };
    let n = per_set.iter().copied().max().unwrap_or(1) + rng.index(5) as u64;
    Case { artifacts, query, n }
}

/// The exhaustive generator's rules for `query` (whose rank knobs it
/// ignores), and whether a budget truncated them.
fn exhaustive(case: &Case, query: &RuleQuery) -> (Vec<Dar>, bool) {
    let config = query.rule_config(ClusterDistance::D2, &case.artifacts.density_thresholds);
    generate_dars_capped(&case.artifacts.graph, &case.artifacts.cliques, &config)
}

fn post_hoc(case: &Case, rules: &[Dar], query: &RuleQuery) -> Ranked {
    rank(rules.to_vec(), &RankSpec::from_query(query, case.artifacts.graph.clusters(), case.n))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The search equals post-hoc ranking of `exhaustive` on `query`; returns
/// whether it scored fewer rules than the exhaustive walk generated.
fn check(
    case: &Case,
    (rules, truncated): &(Vec<Dar>, bool),
    query: &RuleQuery,
    pool: &ThreadPool,
) -> Result<bool, TestCaseError> {
    let want = post_hoc(case, rules, query);
    let (got, got_truncated) = mine_top_k(&case.artifacts, query, pool, case.n);
    prop_assert_eq!(&got.rules, &want.rules, "{:?}", query);
    prop_assert_eq!(bits(&got.values), bits(&want.values), "{:?}", query);
    prop_assert_eq!(got_truncated, *truncated, "{:?}", query);
    prop_assert!(got.rules_in <= want.rules_in, "{:?}", query);
    Ok(got.rules_in < want.rules_in)
}

/// The median value of the full ranking of `rules` under `query`'s
/// measure and pruning, as a `min_measure` that keeps about half of them.
fn median_floor(case: &Case, rules: &[Dar], query: &RuleQuery) -> Option<f64> {
    let full = RuleQuery { top_k: 0, min_measure: None, ..query.clone() };
    let values = post_hoc(case, rules, &full).values;
    values.get(values.len() / 2).copied()
}

#[test]
fn top_k_equals_post_hoc_ranking() {
    let pool = ThreadPool::new(2);
    let (mut skipped, mut capped_ties) = (0, 0);
    proptest!(|(seed in 0u64..u64::MAX)| {
        let case = case(seed);
        let generated = exhaustive(&case, &case.query);
        for &measure in MEASURES {
            for prune_redundant in [false, true] {
                for top_k in [1, 3, 25] {
                    let query =
                        RuleQuery { measure, prune_redundant, top_k, ..case.query.clone() };
                    for min_measure in [None, median_floor(&case, &generated.0, &query)] {
                        let query = RuleQuery { min_measure, ..query.clone() };
                        skipped += usize::from(check(&case, &generated, &query, &pool)?);
                    }
                }
            }
        }
        let conviction = RuleQuery { measure: Measure::Conviction, ..case.query.clone() };
        let values = post_hoc(&case, &generated.0, &conviction).values;
        if values.iter().filter(|&&v| v == CONVICTION_CAP).count() > 1 {
            capped_ties += 1;
        }
    });
    assert!(skipped > 0, "no case skipped a triple");
    assert!(capped_ties > 0, "no case tied at CONVICTION_CAP");
}

#[test]
fn budgeted_top_k_equals_post_hoc_ranking() {
    let pool = ThreadPool::new(2);
    let mut capped = 0;
    proptest!(|(seed in 0u64..u64::MAX, max_rules in 0usize..40, max_pair_work in 0u64..300)| {
        let case = case(seed);
        let mut rng = TestRng::with_seed(seed ^ 0x5eed);
        let query = RuleQuery {
            measure: MEASURES[rng.index(MEASURES.len() as u128) as usize],
            top_k: [1, 3, 25][rng.index(3) as usize],
            prune_redundant: rng.index(2) == 1,
            max_rules,
            max_pair_work: if rng.index(2) == 1 { max_pair_work } else { 0 },
            ..case.query.clone()
        };
        let generated = exhaustive(&case, &query);
        let query = RuleQuery {
            min_measure: if rng.index(2) == 1 {
                median_floor(&case, &generated.0, &query)
            } else {
                None
            },
            ..query
        };
        check(&case, &generated, &query, &pool)?;
        let uncapped = exhaustive(&case, &RuleQuery { max_rules: 0, ..query });
        capped += usize::from(max_rules != 0 && uncapped.0.len() > max_rules);
    });
    assert!(capped > 0, "no case had a binding max_rules");
}
