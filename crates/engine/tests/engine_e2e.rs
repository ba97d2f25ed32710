//! The engine's correctness contract, end to end: batched ingest + epoch
//! snapshots + cached Phase II must be *observationally identical* to a
//! fresh one-shot `DarMiner::mine_rows` over the concatenated data — while
//! demonstrably skipping the clique re-enumeration on re-tuned queries.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use mining::{DarMiner, DensitySpec, Measure, RuleQuery};

/// Three attributes, two co-occurring value blocks plus a sprinkle of
/// drifting values so batches are not identical.
fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let k = i + offset;
            let jitter = (k % 9) as f64 * 0.01;
            match k % 2 {
                0 => vec![jitter, 100.0 + jitter, 5.0 + jitter * 0.1],
                _ => vec![50.0 + jitter, 200.0 + jitter, 9.0 + jitter * 0.1],
            }
        })
        .collect()
}

fn setup() -> (Partitioning, EngineConfig) {
    let schema = Schema::interval_attrs(3);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.1;
    (partitioning, config)
}

#[test]
fn batched_ingest_snapshot_restore_matches_one_shot_mining() {
    let (partitioning, config) = setup();

    // --- live engine: three ingest batches ------------------------------
    let batches = [rows(40, 0), rows(30, 40), rows(50, 70)];
    let mut engine = DarEngine::new(partitioning.clone(), config.clone()).unwrap();
    for batch in &batches {
        engine.ingest(batch).unwrap();
    }
    assert_eq!(engine.tuples(), 120);
    assert_eq!(engine.stats().batches, 3);

    // --- snapshot, then restore into a second engine --------------------
    let text = engine.snapshot().unwrap();
    let mut restored = DarEngine::restore(&text, config.clone(), false).unwrap();
    assert_eq!(restored.tuples(), 120);
    assert_eq!(restored.partitioning().num_sets(), 3);

    // --- queries: cold, then re-tuned D0 (must hit the clique cache) ----
    let q_cold = RuleQuery::default();
    let q_retuned = RuleQuery { degree_factor: 3.0, ..RuleQuery::default() };

    let cold = restored.query(&q_cold).unwrap();
    assert!(!cold.cached, "first query on a restored epoch builds the graph");
    let retuned = restored.query(&q_retuned).unwrap();
    assert!(retuned.cached, "changed D0 must not re-enumerate cliques");
    let stats = restored.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);

    // --- ground truth: fresh one-shot mining over the concatenation -----
    let all: Vec<Vec<f64>> = batches.iter().flatten().cloned().collect();
    for (query, outcome) in [(&q_cold, &cold), (&q_retuned, &retuned)] {
        let miner = DarMiner::new(config.dar_config(query));
        let fresh = miner.mine_rows(all.iter().cloned(), &partitioning).unwrap();
        assert_eq!(
            outcome.rules, fresh.rules,
            "engine answer diverged from one-shot mining (degree_factor {})",
            query.degree_factor
        );
        assert_eq!(outcome.s0, fresh.stats.s0);
        assert_eq!(outcome.artifacts.cliques, fresh.cliques);
        assert!(!outcome.rules.is_empty(), "the planted blocks must yield rules");
    }

    // The re-tuned query is strictly more lenient, so it found at least as
    // many rules from the same cached cliques.
    assert!(retuned.rules.len() >= cold.rules.len());

    // --- the live (never-snapshotted) engine agrees too ------------------
    let live = engine.query(&q_cold).unwrap();
    assert_eq!(live.rules, cold.rules);
}

#[test]
fn ingest_after_restore_keeps_mining() {
    let (partitioning, config) = setup();
    let mut engine = DarEngine::new(partitioning, config.clone()).unwrap();
    engine.ingest(&rows(60, 0)).unwrap();
    let text = engine.snapshot().unwrap();

    let mut restored = DarEngine::restore(&text, config, false).unwrap();
    let before = restored.query(&RuleQuery::default()).unwrap();
    restored.ingest(&rows(60, 60)).unwrap();
    let after = restored.query(&RuleQuery::default()).unwrap();
    assert_eq!(restored.tuples(), 120);
    assert!(after.epoch > before.epoch, "ingest must advance the epoch");
    assert!(!after.cached, "new epoch starts with a cold cache");
    assert!(!after.rules.is_empty());
    assert!(after.s0 > before.s0, "s0 scales with the ingested total");
}

#[test]
fn explicit_density_is_cached_by_resolved_thresholds() {
    let (partitioning, config) = setup();
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    engine.ingest(&rows(80, 0)).unwrap();

    // Resolve the auto density, then ask for the same thresholds
    // explicitly: the cache key is the resolved values, so this must hit.
    let auto = engine.query(&RuleQuery::default()).unwrap();
    let explicit = engine
        .query(&RuleQuery {
            density: DensitySpec::Explicit(auto.artifacts.density_thresholds.clone()),
            ..RuleQuery::default()
        })
        .unwrap();
    assert!(explicit.cached);
    assert_eq!(explicit.rules, auto.rules);
}

#[test]
fn ragged_and_non_finite_batches_are_rejected_atomically() {
    let (partitioning, config) = setup();
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    assert_eq!(engine.required_row_width(), 3);
    engine.ingest(&rows(40, 0)).unwrap();
    let baseline = engine.query(&RuleQuery::default()).unwrap();

    // A batch with one short row is rejected whole: no tuple of it lands.
    let mut ragged = rows(10, 40);
    ragged[7] = vec![1.0, 2.0];
    let err = engine.ingest(&ragged).unwrap_err();
    assert!(err.to_string().contains('2'), "{err}");

    // Same for a NaN hiding mid-batch.
    let mut poisoned = rows(10, 40);
    poisoned[3][1] = f64::NAN;
    assert!(engine.ingest(&poisoned).is_err());

    let stats = engine.stats();
    assert_eq!(stats.rejected_batches, 2);
    assert_eq!(stats.tuples_ingested, 40, "rejected batches must not count");
    assert_eq!(engine.tuples(), 40);

    // The epoch survived the rejects: the same query still answers from
    // cache, identically.
    let after = engine.query(&RuleQuery::default()).unwrap();
    assert!(after.cached, "rejected ingest must not invalidate the epoch");
    assert_eq!(after.rules, baseline.rules);
}

#[test]
fn query_cached_answers_readers_only_after_a_mut_query_built_the_graph() {
    let (partitioning, config) = setup();
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    engine.ingest(&rows(60, 0)).unwrap();

    // Open epoch: the read path cannot close it and must decline.
    let q = RuleQuery::default();
    assert!(engine.query_cached(&q).unwrap().is_none());

    // A &mut query closes the epoch and caches this density setting …
    let built = engine.query(&q).unwrap();

    // … after which the &self path answers identically, as would any
    // number of concurrent readers.
    let cached = engine.query_cached(&q).unwrap().expect("artifacts are cached now");
    assert!(cached.cached);
    assert_eq!(cached.rules, built.rules);
    assert_eq!(cached.epoch, built.epoch);

    // A re-tuned D0 at the same density is also a read-path hit; an unseen
    // density setting is not.
    let retuned = RuleQuery { degree_factor: 3.0, ..RuleQuery::default() };
    assert!(engine.query_cached(&retuned).unwrap().is_some());
    let new_density =
        RuleQuery { density: DensitySpec::Auto { factor: 9.0 }, ..RuleQuery::default() };
    assert!(engine.query_cached(&new_density).unwrap().is_none());

    // The read path never bumps engine counters.
    assert_eq!(engine.stats().queries, 1);
}

/// Clique-cache reuse across the knobs that leave the graph alone: an
/// unseen density setting builds its graph once and then hits, and
/// re-ranking the cached cliques by another measure, with redundancy
/// pruning and a top-k cut, hits as well.
#[test]
fn new_density_misses_once_and_reranking_reuses_cached_cliques() {
    let (partitioning, config) = setup();
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    engine.ingest(&rows(80, 0)).unwrap();
    let base = RuleQuery { max_antecedent: 2, max_consequent: 1, ..RuleQuery::default() };
    assert!(!engine.query(&base).unwrap().cached);
    let density = RuleQuery { density: DensitySpec::Auto { factor: 2.5 }, ..base.clone() };
    assert!(!engine.query(&density).unwrap().cached, "an unseen density builds its graph");
    assert!(engine.query(&density).unwrap().cached, "and reuses it on the next ask");
    let ranked = RuleQuery { measure: Measure::Lift, prune_redundant: true, top_k: 25, ..base };
    let ranked = engine.query(&ranked).unwrap();
    assert!(ranked.cached, "ranking reuses the cached cliques");
    assert!(!ranked.rules.is_empty() && ranked.rules.len() <= 25);
}
