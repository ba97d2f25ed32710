//! Golden wire bytes: a full `query` answer and a rule-churn `event`
//! frame, encoded by the tree-per-rule codec before the streaming rule
//! writer replaced it, and committed under `tests/fixtures/`. The
//! byte-equality suites elsewhere compare the current encoder with
//! itself; these pin it to bytes it did not write.

use birch::BirchConfig;
use dar_core::{Metric, Partitioning};
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use dar_serve::protocol::{event_frame, query_response, rule_json};
use datagen::wbcd::wbcd_relation;
use mining::{DensitySpec, RuleQuery};

/// The unranked answer of a small seeded WBCD-shaped engine (the
/// `parallel_determinism` configuration, 2,000 tuples), capped at 240
/// rules so the fixture stays small.
fn seeded_outcome() -> QueryOutcome {
    let relation = wbcd_relation(2_000, 0.1, 20260707);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let mut config = EngineConfig {
        min_support_frac: 0.03,
        max_cliques: 10_000,
        threads: 1,
        ..EngineConfig::default()
    };
    config.birch =
        BirchConfig { initial_threshold: 0.0, ..BirchConfig::with_total_budget(5 << 20, 30) };
    let mut engine = DarEngine::new(partitioning, config).expect("valid config");
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    for batch in rows.chunks(500) {
        engine.ingest(batch).expect("ingest");
    }
    let query = RuleQuery {
        density: DensitySpec::Auto { factor: 4.0 },
        max_antecedent: 2,
        max_consequent: 1,
        max_pair_work: 1_000_000,
        max_rules: 240,
        ..RuleQuery::default()
    };
    engine.query(&query).expect("query")
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn query_answer_and_event_frame_match_the_golden_bytes() {
    let outcome = seeded_outcome();
    assert_eq!(outcome.rules.len(), 240, "the fixture's rule count");
    let line = query_response(&outcome).encode() + "\n";
    assert!(line == fixture("golden_query_response.json"), "query answer bytes diverged");

    // The event frame mixes measure values the answer lacks: negative
    // fractions, large exact integers and negative zero.
    let pairs: Vec<_> = outcome.rules.iter().zip(&outcome.values).collect();
    let half = pairs.len() / 2;
    let added = pairs[..half].iter().map(|(r, &v)| rule_json(r, v)).collect();
    let dropped = pairs[half..]
        .iter()
        .step_by(3)
        .enumerate()
        .map(|(i, (r, &v))| {
            let value = match i % 3 {
                0 => -v / 3.0,
                1 => i as f64 * 1e6,
                _ => -0.0,
            };
            rule_json(r, value)
        })
        .collect();
    let frame = event_frame(7, Some((3, 6)), added, dropped, false).encode() + "\n";
    assert!(frame == fixture("golden_event_frame.json"), "event frame bytes diverged");
}
