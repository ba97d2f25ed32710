//! Ranked-artifact determinism and anytime honesty — the rule-quality
//! acceptance bars.
//!
//! * **Ranked determinism** — a query with non-default rank knobs
//!   (measure, top-k, redundancy pruning) must produce **byte-identical**
//!   wire responses at every worker count, exactly like the plain-degree
//!   path: ranking is a deterministic function of the rule statistics,
//!   with ties broken on rule identity, so no thread schedule can flip a
//!   byte.
//! * **Anytime honesty** — a budgeted query that sees every clique pair
//!   converges to the exact answer (no `approx`/`coverage` keys, same
//!   bytes); a cut-short one says so explicitly (`approx: true` plus the
//!   examined fraction in `(0, 1)`), and its rules are a subset of the
//!   exact rule set.

use birch::BirchConfig;
use dar_core::{Metric, Partitioning, Relation};
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use dar_rank::RankSpec;
use dar_serve::protocol::query_response;
use dar_serve::{json, Json};
use datagen::wbcd::wbcd_relation;
use mining::{DensitySpec, Measure, RuleQuery};
use std::time::Duration;

const TUPLES: usize = 4_000;
const BATCH: usize = 500;

fn wbcd_engine_config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig {
        min_support_frac: 0.03,
        max_cliques: 10_000,
        threads,
        ..EngineConfig::default()
    };
    config.birch =
        BirchConfig { initial_threshold: 0.0, ..BirchConfig::with_total_budget(5 << 20, 30) };
    config
}

/// A query that exercises the whole ranking pipeline: lift scoring, a
/// measure floor, redundancy pruning, and top-k truncation.
fn ranked_query() -> RuleQuery {
    RuleQuery {
        density: DensitySpec::Auto { factor: 4.0 },
        max_antecedent: 2,
        max_consequent: 1,
        max_pair_work: 1_000_000,
        measure: Measure::Lift,
        min_measure: Some(1.0),
        top_k: 25,
        prune_redundant: true,
        ..RuleQuery::default()
    }
}

/// Ingests the relation batch-by-batch at the given worker count and
/// returns the warm engine.
fn engine_at(threads: usize, relation: &Relation, partitioning: &Partitioning) -> DarEngine {
    let mut engine =
        DarEngine::new(partitioning.clone(), wbcd_engine_config(threads)).expect("valid config");
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    for batch in rows.chunks(BATCH) {
        engine.ingest(batch).expect("ingest");
    }
    engine
}

fn encoded_response(engine: &mut DarEngine, query: &RuleQuery) -> String {
    query_response(&engine.query(query).expect("query")).encode()
}

#[test]
fn ranked_artifacts_are_byte_identical_across_thread_counts() {
    let relation = wbcd_relation(TUPLES, 0.1, 20260707);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let query = ranked_query();

    let serial = encoded_response(&mut engine_at(1, &relation, &partitioning), &query);
    // Sanity: the ranked pipeline actually ran — rules exist and the
    // response names the measure they are ordered by.
    assert!(serial.contains("\"antecedent\""), "expected rules, got: {serial}");
    assert!(serial.contains("\"measure\":\"lift\""), "got: {serial}");

    for threads in [2, 4, 8] {
        let parallel = encoded_response(&mut engine_at(threads, &relation, &partitioning), &query);
        assert_eq!(serial, parallel, "ranked artifact diverged from serial at threads={threads}");
    }
}

#[test]
fn anytime_converges_to_exact_and_marks_partial_answers() {
    let relation = wbcd_relation(TUPLES, 0.1, 20260707);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);

    // Exact baseline on a fresh engine: no coverage annotation at all.
    let mut exact_engine = engine_at(2, &relation, &partitioning);
    let exact = exact_engine.query(&ranked_query()).expect("exact query");
    let exact_line = query_response(&exact).encode();
    assert!(!exact_line.contains("\"approx\""), "exact answers carry no approx key: {exact_line}");

    // A generous budget sees every clique pair, so the anytime answer is
    // byte-identical to the exact one — coverage 1.0 is not annotated.
    let mut anytime_engine = engine_at(2, &relation, &partitioning);
    let full_query = RuleQuery { budget_ms: 60_000, ..ranked_query() };
    let full_line = encoded_response(&mut anytime_engine, &full_query);
    assert_eq!(exact_line, full_line, "full-budget anytime must converge to the exact answer");

    // A near-zero budget may or may not finish on a fast machine; either
    // way the answer must be honest — identical rules, or an explicit
    // `approx` marker with the examined fraction and a subset of the
    // exact rules. Top-k and pruning are dropped here: the best-25 of a
    // sample need not be a subset of the best-25 of the whole, so the
    // subset bar is only meaningful against the unpruned exact set.
    let flat_query =
        RuleQuery { top_k: 0, prune_redundant: false, min_measure: None, ..ranked_query() };
    let exact_flat = exact_engine.query(&flat_query).expect("flat exact query");
    let exact_flat_rules =
        json::parse(&query_response(&exact_flat).encode()).unwrap().get("rules").unwrap().encode();
    let tiny_query = RuleQuery { budget_ms: 1, ..flat_query };
    let tiny_line =
        query_response(&anytime_engine.query(&tiny_query).expect("tiny query")).encode();
    let tiny = json::parse(&tiny_line).unwrap();
    match tiny.get("approx") {
        None => {
            assert_eq!(tiny.get("rules").unwrap().encode(), exact_flat_rules, "got: {tiny_line}");
        }
        Some(flag) => {
            assert_eq!(flag.as_bool(), Some(true), "got: {tiny_line}");
            let coverage = tiny.get("coverage").and_then(Json::as_f64).expect("coverage key");
            assert!(
                coverage > 0.0 && coverage < 1.0,
                "partial coverage must sit in (0, 1), got {coverage}"
            );
            assert_eq!(tiny.get("truncated").and_then(Json::as_bool), Some(true));
            let indices = |rule: &Json, key: &str| -> Vec<usize> {
                rule.get(key)
                    .and_then(Json::as_array)
                    .expect(key)
                    .iter()
                    .map(|j| j.as_u64().unwrap() as usize)
                    .collect()
            };
            for rule in tiny.get("rules").unwrap().as_array().unwrap() {
                let (ant, cons) = (indices(rule, "antecedent"), indices(rule, "consequent"));
                assert!(
                    exact_flat.rules.iter().any(|r| r.antecedent == ant && r.consequent == cons),
                    "sampled rule {ant:?} ⇒ {cons:?} missing from the exact set"
                );
            }
        }
    }
}

#[test]
fn zero_budget_sampler_reports_partial_coverage_on_the_wire() {
    let relation = wbcd_relation(TUPLES, 0.1, 20260707);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let mut engine = engine_at(2, &relation, &partitioning);
    let query = ranked_query();
    let exact = engine.query(&query).expect("exact query");
    assert!(
        exact.artifacts.cliques.len() >= 2,
        "need at least two cliques for a >1 pair space, got {}",
        exact.artifacts.cliques.len()
    );

    // A zero budget still examines exactly one pair — deterministically
    // partial, so the wire response must carry the honesty keys.
    let sampled = dar_rank::mine_budgeted(&exact.artifacts, &query, Duration::ZERO);
    assert!(
        sampled.coverage > 0.0 && sampled.coverage < 1.0,
        "one pair of many must be a strict fraction, got {}",
        sampled.coverage
    );
    assert!(sampled.truncated);

    let spec = RankSpec::from_query(&query, exact.artifacts.graph.clusters(), TUPLES as u64);
    let ranked = dar_rank::rank(sampled.rules, &spec);
    let outcome = QueryOutcome {
        rules: ranked.rules.into(),
        values: ranked.values,
        truncated: true,
        rules_in: ranked.rules_in,
        pruned: ranked.pruned,
        coverage: Some(sampled.coverage),
        ..exact.clone()
    };
    let line = query_response(&outcome).encode();
    let parsed = json::parse(&line).unwrap();
    assert_eq!(parsed.get("approx").and_then(Json::as_bool), Some(true), "got: {line}");
    let wire_coverage = parsed.get("coverage").and_then(Json::as_f64).expect("coverage key");
    assert!((wire_coverage - sampled.coverage).abs() < 1e-12, "got: {line}");
}
