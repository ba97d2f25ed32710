//! Golden sliding-window answers on real-valued data. The
//! windowed-equals-one-shot suites stream dyadic rows, where CF
//! subtraction cancels exactly; on WBCD-shaped rows a retired window
//! leaves rounding residue behind, so only committed bytes pin what the
//! subtract path answers. The fixtures under `tests/fixtures/` were written
//! by the windowed engine that still fed a separate running-total forest
//! beside the inner engine's; any rework of window retirement must
//! reproduce them byte for byte, at every thread count.

use dar_core::{Metric, Partitioning};
use dar_engine::EngineConfig;
use dar_serve::protocol::query_response;
use dar_stream::{RetirePolicy, WindowSpec, WindowedEngine};
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

fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Streams 4,000 seeded WBCD-shaped tuples in 250-row batches through a
/// windowed engine, asking the base query after every advance.
fn run(policy: RetirePolicy, threads: usize) -> Run {
    let relation = wbcd_relation(4_000, 0.1, 1997);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let mut engine =
        WindowedEngine::new(partitioning, config(threads), SPEC, policy).expect("valid config");
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    let mut answers = String::new();
    for batch in rows.chunks(250) {
        if engine.ingest(batch).expect("ingest").advanced {
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

fn check(policy: RetirePolicy, digest: u64, stats: (u64, u64, u64, usize)) {
    let name = format!("golden_window_{}.jsonl", policy.name());
    let want = fixture(&name);
    assert_eq!(want.lines().count(), 8, "{name}: one answer per window advance");
    for threads in [1, 2] {
        let got = run(policy, threads);
        assert!(got.answers == want, "{name} threads {threads}: windowed answer bytes diverged");
        assert_eq!(got.snapshot_digest, digest, "{name} threads {threads}: ring snapshot bytes");
        assert_eq!(got.stats, stats, "{name} threads {threads}: engine stats");
    }
}

#[test]
fn subtract_retirement_matches_the_golden_bytes() {
    check(RetirePolicy::Subtract, 0xcac4_2205_064e_49b4, (1000, 0, 1, 186));
}

#[test]
fn remerge_retirement_matches_the_golden_bytes() {
    check(RetirePolicy::Remerge, 0x71d3_358c_0a9d_84f3, (1000, 0, 1, 0));
}
