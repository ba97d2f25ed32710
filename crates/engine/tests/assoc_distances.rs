//! Retunes evaluate no distance: the epoch's first query that can yield
//! rules evaluates one `assoc` distance per cross-set pair of frequent
//! clusters, and every later exact, top-k or anytime retune on the same
//! artifacts evaluates none.
//!
//! The counters are process-wide, so this binary holds one test.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use mining::{Measure, RuleQuery};

/// Three attributes, four co-occurring value blocks with jitter.
fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let k = i + offset;
            let (block, jitter) = ((k % 4) as f64, (k % 9) as f64 * 0.01);
            vec![block * 50.0 + jitter, 100.0 * (block + 1.0) + jitter, 5.0 + block + jitter * 0.1]
        })
        .collect()
}

#[test]
fn only_the_epochs_first_productive_query_evaluates_assoc_distances() {
    let schema = Schema::interval_attrs(3);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.05;
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    engine.ingest(&rows(200, 0)).unwrap();

    let registry = dar_obs::global();
    let distances = registry.counter("dar_mining_assoc_distances_total");
    let retained = registry.gauge("dar_mining_assoc_retained_bytes");
    let evaluated = |query: &RuleQuery, engine: &mut DarEngine| {
        let before = distances.get();
        let outcome = engine.query(query).unwrap();
        (distances.get() - before, outcome)
    };

    // A query that cannot yield a rule builds no matrix.
    let (added, unproductive) =
        evaluated(&RuleQuery { max_antecedent: 0, ..RuleQuery::default() }, &mut engine);
    assert_eq!(added, 0);
    assert!(unproductive.rules.is_empty());
    assert_eq!(engine.stats().assoc_bytes, 0);

    let (added, outcome) = evaluated(&RuleQuery::default(), &mut engine);
    let clusters = outcome.artifacts.graph.clusters();
    let cross_set_pairs = clusters
        .iter()
        .map(|y| clusters.iter().filter(|x| x.set != y.set).count() as u64)
        .sum::<u64>();
    assert!(cross_set_pairs > 0 && !outcome.rules.is_empty(), "the blocks must yield rules");
    assert_eq!(added, cross_set_pairs, "the first productive query evaluates each pair once");
    let bytes = (clusters.len() * clusters.len() * 8) as u64;
    assert_eq!(engine.stats().assoc_bytes, bytes);
    assert_eq!(retained.get(), bytes as i64);

    let retunes = [
        RuleQuery { degree_factor: 0.5, ..RuleQuery::default() },
        RuleQuery { degree_factor: 4.0, max_antecedent: 2, ..RuleQuery::default() },
        RuleQuery { degree_factor: 3.0, top_k: 5, ..RuleQuery::default() },
        RuleQuery {
            measure: Measure::Lift,
            top_k: 3,
            prune_redundant: true,
            ..RuleQuery::default()
        },
        RuleQuery { degree_factor: 1.5, budget_ms: 60_000, ..RuleQuery::default() },
        RuleQuery { degree_factor: 0.0, budget_ms: 60_000, ..RuleQuery::default() },
    ];
    for query in &retunes {
        let (added, outcome) = evaluated(query, &mut engine);
        assert!(outcome.cached, "{query:?}: the same artifacts");
        assert_eq!(added, 0, "{query:?} evaluated distances");
    }
    // The read-only serving path reads the same matrix.
    let before = distances.get();
    let query = RuleQuery { degree_factor: 2.5, top_k: 4, ..RuleQuery::default() };
    assert!(engine.query_cached(&query).unwrap().is_some());
    assert_eq!(distances.get(), before);
    assert_eq!(engine.stats().assoc_bytes, bytes);

    // A new epoch starts over; the old matrix is released with its
    // artifacts once no outcome holds them.
    drop((unproductive, outcome));
    engine.ingest(&rows(40, 200)).unwrap();
    assert_eq!(engine.stats().assoc_bytes, 0);
    assert_eq!(retained.get(), 0);
    let (added, outcome) = evaluated(&RuleQuery::default(), &mut engine);
    let n = outcome.artifacts.graph.len();
    assert!(added > 0 && added < (n * n) as u64);
}
