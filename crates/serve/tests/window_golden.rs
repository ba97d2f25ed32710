//! Golden sliding-window answers on real-valued data. The
//! windowed-equals-one-shot suites stream dyadic rows, where any grouping
//! of the sums is exact; on WBCD-shaped rows the summaries depend on the
//! order the per-window columns are folded in, so committed bytes pin what
//! the windowed engine answers. `tests/fixtures/golden_window.jsonl` was
//! written by the one-forest engine whose leaf entries carry a column per
//! live window and whose retirement drops the retired window's columns;
//! any rework of window retirement must reproduce it byte for byte, at
//! every thread count.

use dar_core::{Metric, Partitioning};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::protocol::query_response;
use dar_stream::WindowSpec;
use datagen::wbcd::wbcd_relation;
use mining::{Measure, RuleQuery};

/// Two batches per window, three live windows: with 16 batches the ring
/// seals 8 windows and retires 6.
const SPEC: WindowSpec = WindowSpec { batches: 2, slots: 3 };

/// The ledger's engine knobs (the paper's §7.2 setup): 3% support, 170 KB
/// per tree, initial threshold 0.
fn config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig { min_support_frac: 0.03, threads, ..EngineConfig::default() };
    config.birch.memory_budget = 170 << 10;
    config.birch.initial_threshold = 0.0;
    config
}

/// The window base query: lift, top 25, redundancy-pruned.
fn base_query() -> RuleQuery {
    RuleQuery { measure: Measure::Lift, top_k: 25, prune_redundant: true, ..RuleQuery::default() }
}

/// What one windowed run leaves behind.
struct Run {
    /// One `query_response` line per window advance.
    answers: String,
    /// FNV-64 of the final ring snapshot.
    snapshot_digest: u64,
    /// `(tuples_ingested, batches, epochs, forest_rebuilds)` at the end.
    stats: (u64, u64, u64, usize),
}

/// FNV-64 of the final ring snapshot.
const DIGEST: u64 = 0xa5b5_d923_ceb3_e005;

/// The final `(tuples_ingested, batches, epochs, forest_rebuilds)`.
const STATS: (u64, u64, u64, usize) = (1000, 0, 1, 214);

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Streams 4,000 seeded WBCD-shaped tuples in 250-row batches through a
/// windowed engine, asking the base query after every advance.
fn run(threads: usize) -> Run {
    let relation = wbcd_relation(4_000, 0.1, 1997);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let mut engine =
        DarEngine::with_window(partitioning, config(threads), Some(SPEC)).expect("valid config");
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    let mut answers = String::new();
    for batch in rows.chunks(250) {
        if engine.ingest(batch).expect("ingest").expect("windowed").advanced {
            let outcome = engine.query(&base_query()).expect("query");
            answers.push_str(&query_response(&outcome).encode());
            answers.push('\n');
        }
    }
    let snapshot_digest = fnv64(&engine.snapshot().expect("snapshot"));
    let s = engine.stats();
    Run {
        answers,
        snapshot_digest,
        stats: (s.tuples_ingested, s.batches, s.epochs, s.forest_rebuilds),
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn windowed_answers_match_the_golden_bytes() {
    let name = "golden_window.jsonl";
    let want = fixture(name);
    assert_eq!(want.lines().count(), 8, "{name}: one answer per window advance");
    for threads in [1, 2] {
        let got = run(threads);
        assert!(got.answers == want, "{name} threads {threads}: windowed answer bytes diverged");
        assert_eq!(got.snapshot_digest, DIGEST, "{name} threads {threads}: ring snapshot bytes");
        assert_eq!(got.stats, STATS, "{name} threads {threads}: engine stats");
    }
}
