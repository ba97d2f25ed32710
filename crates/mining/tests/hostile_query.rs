//! A query whose subset spaces are astronomically large must still
//! answer promptly and in bounded memory.
//!
//! 200 identical 30-attribute rows cluster into one 30-member clique.
//! With consequents and antecedents of up to 12 members, one clique pair
//! has Σ_{k≤12} C(30, k) ≈ 1.9·10⁸ consequent subsets, and a single
//! one-member consequent has ≈ 1.1·10⁸ antecedents. Enumerating either
//! before a budget applies exhausts memory; the generator must count the
//! work instead, enumerate lazily, and stop at `max_rules` (exact path)
//! or at the deadline (anytime path).

use dar_core::{Metric, Partitioning, Schema};
use mining::{DarConfig, DarMiner, DensitySpec, Phase2Artifacts, RuleQuery};
use std::time::{Duration, Instant};

const ATTRS: usize = 30;

fn hostile_query() -> RuleQuery {
    RuleQuery {
        density: DensitySpec::Explicit(vec![1.0; ATTRS]),
        max_consequent: 12,
        max_antecedent: 12,
        max_pair_work: 1000,
        max_rules: 100,
        ..RuleQuery::default()
    }
}

fn mine() -> (mining::MineResult, Duration) {
    let partitioning =
        Partitioning::per_attribute(&Schema::interval_attrs(ATTRS), Metric::Euclidean);
    let rows = (0..200).map(|_| (0..ATTRS).map(|a| a as f64).collect::<Vec<f64>>());
    let miner =
        DarMiner::new(DarConfig { query: hostile_query(), threads: 1, ..DarConfig::default() });
    let start = Instant::now();
    let result = miner.mine_rows(rows, &partitioning).expect("mine");
    (result, start.elapsed())
}

#[test]
fn exact_path_stops_at_max_rules() {
    let (result, elapsed) = mine();
    assert_eq!(result.cliques.iter().map(Vec::len).max(), Some(ATTRS), "one 30-member clique");
    assert!(result.stats.rules_truncated, "the budgets must report truncation");
    assert_eq!(result.rules.len(), 100);
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}

#[test]
fn anytime_path_stops_at_the_deadline() {
    let (result, _) = mine();
    let stats = result.stats;
    let artifacts = Phase2Artifacts::new(
        stats.density_thresholds,
        mining::ClusterDistance::D2,
        result.graph,
        result.cliques,
        stats.cliques_truncated,
    );
    let query = RuleQuery { budget_ms: 50, ..hostile_query() };
    let start = Instant::now();
    let outcome =
        dar_rank::mine_budgeted(&artifacts, &query, Duration::from_millis(query.budget_ms));
    let elapsed = start.elapsed();
    assert!(outcome.truncated);
    assert_eq!(outcome.coverage, 0.0, "the only pair was cut short");
    assert_eq!(outcome.rules.len(), 100, "the best max_rules of those sampled");
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}
