//! Golden ranked answers: the `query_response` bytes of ranked, pruned,
//! work-truncated and anytime answers on the `wire_golden` engine,
//! written by the rule generator and ranker that preceded the
//! bitset-based generation kernel and the index-based rank/prune pass,
//! and committed under `tests/fixtures/`. Any rewrite of generation,
//! ranking or pruning must reproduce them byte for byte.

use birch::BirchConfig;
use dar_core::{Metric, Partitioning};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::protocol::query_response;
use datagen::wbcd::wbcd_relation;
use mining::{DensitySpec, Measure, RuleQuery, MEASURES};

/// The `wire_golden` engine: 2,000 seeded WBCD-shaped tuples.
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

/// 28,784 rules uncapped: `max_rules` cuts the generation merge before
/// ranking, so the answers also pin where that cut falls.
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

/// The golden queries, in the order they run against one engine (the
/// order fixes each answer's `cached` flag), with their fixture names.
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

#[test]
fn ranked_answers_match_the_golden_bytes() {
    let mut engine = engine();
    for (name, query) in golden_queries() {
        let outcome = engine.query(&query).expect("query");
        assert!(!outcome.rules.is_empty(), "{name}: empty answer");
        if name == "golden_work_truncated.json" {
            assert!(outcome.truncated, "{name}: max_pair_work must truncate");
        }
        let line = query_response(&outcome).encode() + "\n";
        assert!(line == fixture(&name), "{name}: ranked answer bytes diverged");
    }
}
