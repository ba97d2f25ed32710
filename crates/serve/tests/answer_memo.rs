//! The rank cache's encode memo: a cached answer's `rules` array is
//! encoded once per epoch and reused by every later response of that
//! answer. These tests pin that the memo is invisible on the wire: a
//! memoized answer encodes to the same bytes as a fresh
//! [`json::rule_array`] (and as the `ranked_golden` fixtures), an
//! outcome that no longer holds the cached answer's own rules and values
//! encodes its own, and an anytime answer is never memoized.

use birch::BirchConfig;
use dar_core::{Metric, Partitioning};
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use dar_serve::json::{self, Json};
use dar_serve::protocol::query_response;
use datagen::wbcd::wbcd_relation;
use mining::{DensitySpec, Measure, RuleQuery, MEASURES};

/// The `ranked_golden` engine: 2,000 seeded WBCD-shaped tuples.
fn engine() -> DarEngine {
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
    engine
}

/// The `ranked_golden` base query.
fn base_query() -> RuleQuery {
    RuleQuery {
        density: DensitySpec::Auto { factor: 3.0 },
        max_antecedent: 2,
        max_consequent: 2,
        max_pair_work: 1_000_000,
        max_rules: 20_000,
        top_k: 25,
        prune_redundant: true,
        ..RuleQuery::default()
    }
}

/// The `ranked_golden` queries, in its order, with their fixture names.
fn golden_queries() -> Vec<(String, RuleQuery)> {
    let mut queries: Vec<(String, RuleQuery)> = MEASURES
        .iter()
        .map(|&measure| {
            (
                format!("golden_top25_{}.json", measure.as_str()),
                RuleQuery { measure, ..base_query() },
            )
        })
        .collect();
    queries.push((
        "golden_work_truncated.json".into(),
        RuleQuery { measure: Measure::Lift, max_pair_work: 2_000, ..base_query() },
    ));
    queries.push((
        "golden_anytime.json".into(),
        RuleQuery { measure: Measure::Leverage, budget_ms: 60_000, ..base_query() },
    ));
    queries
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `rules` array of an outcome, encoded afresh (no memo).
fn fresh_rules(rules: &[mining::Dar], values: &[f64]) -> String {
    json::rule_array(rules.iter().zip(values.iter().copied())).encode()
}

/// The `rules` array `query_response` puts on the wire for `outcome`.
fn wire_rules(outcome: &QueryOutcome) -> String {
    query_response(outcome).get("rules").expect("a rules key").encode()
}

/// How many times `encoded_rules` runs `query_response`'s encoder over
/// `calls` calls.
fn encoder_runs(outcome: &QueryOutcome, calls: usize) -> usize {
    let mut runs = 0;
    for _ in 0..calls {
        outcome.encoded_rules(|rules, values| {
            runs += 1;
            json::rule_array(rules.iter().zip(values.iter().copied()))
        });
    }
    runs
}

#[test]
fn cached_answers_encode_like_a_fresh_rule_array_and_the_goldens() {
    let mut engine = engine();
    for (name, query) in golden_queries() {
        let first = engine.query(&query).expect("query");
        let fresh = fresh_rules(&first.rules, &first.values);
        // Encoded twice from the first outcome: both lines are the golden
        // one. (A repeat query may differ in its `cached` flag.)
        for what in ["first", "memo"] {
            assert_eq!(wire_rules(&first), fresh, "{name}: {what} rules array");
            let line = query_response(&first).encode() + "\n";
            assert!(line == fixture(&name), "{name}: {what} answer bytes diverged");
        }
        // A cache hit shares the answer, and with it the memo.
        let again = engine.query(&query).expect("repeat query");
        assert_eq!(wire_rules(&again), fresh, "{name}: hit rules array");
        let anytime = query.budget_ms > 0;
        let runs = encoder_runs(&again, 3);
        assert_eq!(runs, if anytime { 3 } else { 0 }, "{name}: encoder runs on a warm answer");
    }
}

#[test]
fn a_struct_updated_outcome_encodes_its_own_rules_and_values() {
    let mut engine = engine();
    let query = RuleQuery { top_k: 0, max_rules: 2_000, ..base_query() };
    let cached = engine.query(&query).expect("query");
    assert!(cached.rules.len() > 2, "need a few rules to reorder");
    // Fill the memo first, so every outcome below could wrongly hit it.
    let memo = wire_rules(&cached);
    assert_eq!(memo, fresh_rules(&cached.rules, &cached.values));

    // Other rules, the cached answer's values.
    let mut reversed = cached.rules.to_vec();
    reversed.reverse();
    let other_rules = QueryOutcome { rules: reversed.clone().into(), ..cached.clone() };
    assert_eq!(wire_rules(&other_rules), fresh_rules(&reversed, &cached.values));

    // The cached answer's own (shared) rules, other values: one changed,
    // then all shifted, then one dropped.
    let mut one_changed = cached.values.clone();
    one_changed[1] += 1.0;
    let mut shifted = cached.values.clone();
    shifted.rotate_left(1);
    let shorter = cached.values[..cached.values.len() - 1].to_vec();
    for values in [one_changed, shifted, shorter] {
        let other_values = QueryOutcome { values: values.clone(), ..cached.clone() };
        assert_ne!(wire_rules(&other_values), memo);
        assert_eq!(wire_rules(&other_values), fresh_rules(&cached.rules, &values));
    }

    // Neither lives in the memo: the cached answer still encodes as before.
    assert_eq!(wire_rules(&cached), memo);
    assert_eq!(wire_rules(&engine.query(&query).expect("hit")), memo);
}

#[test]
fn a_budgeted_answer_encodes_directly() {
    let mut engine = engine();
    let (_, query) = golden_queries().pop().expect("the anytime query");
    assert!(query.budget_ms > 0);
    let outcome = engine.query(&query).expect("query");
    assert_eq!(outcome.coverage, Some(1.0), "a generous budget finishes");
    assert_eq!(encoder_runs(&outcome, 2), 2, "an anytime answer is never memoized");
    assert_eq!(wire_rules(&outcome), fresh_rules(&outcome.rules, &outcome.values));
    // The same knobs without a budget are cached, and then memoized.
    let exact = engine.query(&RuleQuery { budget_ms: 0, ..query.clone() }).expect("exact query");
    assert_eq!(encoder_runs(&exact, 2), 1, "a cached answer encodes once");
    assert!(matches!(query_response(&exact).get("rules"), Some(Json::Raw(_))));
}
