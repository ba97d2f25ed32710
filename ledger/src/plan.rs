//! What each workload sends: the data, the server flags, the knob sets and
//! the seeded op sequences — all pure functions of `--seed` and the run
//! size, so the untraced run, its reference and the traced replay send
//! identical requests.

use datagen::SeededRng;
use mining::{Measure, RuleQuery};
use std::path::Path;

/// The four workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 4] = ["ingest-durable", "query-mix", "cluster-rounds", "window-churn"];

/// Run size: `--seconds` scales the measured work (with a floor, see
/// [`Size::ops`]), `smoke` shrinks every size to a few thousand tuples and
/// about ten operations.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// The `--seconds` budget the work is scaled to.
    pub seconds: u64,
    /// Tiny sizes for the smoke check.
    pub smoke: bool,
}

impl Size {
    /// Rows per ingest batch.
    pub fn batch(self) -> usize {
        if self.smoke {
            250
        } else {
            1000
        }
    }

    /// `per_second × seconds` operations of `requests` measured requests
    /// each, but never fewer than [`MIN_REQUESTS`] requests; or `smoke`
    /// operations.
    pub fn ops(self, per_second: u64, requests: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            (per_second * self.seconds).max(MIN_REQUESTS.div_ceil(requests))
        }
    }
}

/// The fewest measured requests an untraced pass makes: what the declared
/// `latency_ms_p90` needs (ten samples beyond it), whatever `--seconds`.
pub const MIN_REQUESTS: u64 = 100;

/// Seed of the WBCD-like relation every workload streams. The relation is
/// fixed, as the paper mines one dataset: a new relation per `--seed`
/// would move Phase II costs by up to 2× (its clique and rule counts vary
/// that much between samples), drowning any change under test. `--seed`
/// draws the request stream instead.
const DATA_SEED: u64 = 1997;

/// Ingest batches, each a list of rows.
pub type Batches = Vec<Vec<Vec<f64>>>;

/// The first `n` batches of `batch` tuples of the relation (30
/// attributes, 10% outliers — the paper's Fig. 6 method).
pub fn batches(n: usize, batch: usize) -> Batches {
    let relation = datagen::wbcd::wbcd_relation(n * batch, 0.1, DATA_SEED);
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|i| relation.row(i)).collect();
    rows.chunks(batch).map(<[Vec<f64>]>::to_vec).collect()
}

/// The request-stream generator for stream `stream` of a run.
fn rng(seed: u64, stream: u64) -> SeededRng {
    SeededRng::new(seed ^ 0x6c65_6467_6572_0000 ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle under `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut SeededRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// `n` top-25 knob sets over `base`: the four measures in equal shares
/// and degree factors stratified over `[lo, hi)` (one jittered draw per
/// stratum), in seeded order — a fresh knob set each time, with the same
/// cost distribution under every seed.
pub fn top25_draws(
    seed: u64,
    stream: u64,
    n: usize,
    base: &RuleQuery,
    (lo, hi): (f64, f64),
) -> Vec<RuleQuery> {
    let mut rng = rng(seed, stream);
    let mut draws: Vec<RuleQuery> = (0..n)
        .map(|i| RuleQuery {
            measure: MEASURES[i % MEASURES.len()],
            degree_factor: lo + (hi - lo) * (i as f64 + rng.uniform()) / n as f64,
            top_k: 25,
            prune_redundant: true,
            ..base.clone()
        })
        .collect();
    shuffle(&mut draws, &mut rng);
    draws
}

/// Engine flags for the paper's §7.2 setup (3% support, 5 MB over 30
/// trees, initial threshold 0) plus `extra` — what a coordinator takes.
pub fn engine_flags(extra: &[&str]) -> Vec<String> {
    ["--support", "0.03", "--memory-kb", "170", "--initial-threshold", "0"]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
}

/// `dar serve` flags: 30 attributes under [`engine_flags`].
pub fn serve_flags(extra: &[&str]) -> Vec<String> {
    let mut flags = vec!["--attrs".to_string(), "30".to_string()];
    flags.extend(engine_flags(extra));
    flags
}

/// `extra` flags naming a WAL (and optionally a snapshot) under `dir`.
pub fn durable_flags(dir: &Path, name: &str, snapshot: bool) -> Vec<String> {
    let mut flags =
        vec!["--wal-path".to_string(), dir.join(format!("{name}.wal")).display().to_string()];
    if snapshot {
        flags.push("--snapshot-path".into());
        flags.push(dir.join(format!("{name}.snap")).display().to_string());
    }
    flags
}

/// The paper-density query (`dar_bench::wbcd_config`: density factor 4.0,
/// antecedents ≤ 2, consequents ≤ 1, pair work ≤ 1M).
pub fn paper() -> RuleQuery {
    dar_bench::wbcd_config(5 << 20).query
}

/// Paper density, top 25 by lift with redundancy pruning, at degree
/// factor 1.5 (≈20K rules generated per query on 100K tuples).
pub fn paper_top25() -> RuleQuery {
    RuleQuery {
        degree_factor: 1.5,
        measure: Measure::Lift,
        top_k: 25,
        prune_redundant: true,
        ..paper()
    }
}

/// The unranked, uncapped paper-density answer (≈70–80K rules, ≈8 MB).
pub fn paper_full() -> RuleQuery {
    RuleQuery { max_rules: 0, ..paper() }
}

const MEASURES: [Measure; 4] =
    [Measure::Lift, Measure::Leverage, Measure::Conviction, Measure::Degree];

/// The eight fixed top-25 knob sets `query-mix` repeats.
pub fn repeat_sets() -> Vec<RuleQuery> {
    MEASURES
        .iter()
        .flat_map(|&measure| {
            [1.4, 1.5].map(|degree_factor| RuleQuery { measure, degree_factor, ..paper_top25() })
        })
        .collect()
}

/// The kinds of query `query-mix` draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A top-25 knob set never asked before: rank-cache miss, Phase II hit.
    Retune,
    /// One of the eight fixed top-25 sets: rank-cache hit.
    Repeat(usize),
    /// The unranked full answer.
    Full,
}

/// One `query-mix` client's `n` queries: 40% retunes (paper density,
/// degree factors over [1.3, 1.5)), 40% repeats (the eight sets in turn)
/// and 20% full answers, in blocks of five — two retunes, two repeats, one
/// full answer — each in seeded order. Every stretch of a pass carries the
/// same mix, so how often the two clients' heavy answers overlap varies
/// little from seed to seed.
pub fn query_mix(seed: u64, client: u64, n: usize) -> Vec<(Mix, RuleQuery)> {
    let sets = repeat_sets();
    let draws = top25_draws(seed, 2 * client + 1, n.div_ceil(5) * 2, &paper(), (1.3, 1.5));
    let mut rng = rng(seed, 2 * client + 2);
    let (mut retunes, mut repeats) = (0, 0);
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut block = [Mix::Retune, Mix::Retune, Mix::Repeat(0), Mix::Repeat(0), Mix::Full];
        shuffle(&mut block, &mut rng);
        for mix in block.into_iter().take(n - ops.len()) {
            ops.push(match mix {
                Mix::Retune => {
                    retunes += 1;
                    (mix, draws[retunes - 1].clone())
                }
                Mix::Repeat(_) => {
                    repeats += 1;
                    let set = (repeats - 1) % sets.len();
                    (Mix::Repeat(set), sets[set].clone())
                }
                Mix::Full => (mix, paper_full()),
            });
        }
    }
    ops
}

/// The `window-churn` base query (`--measure lift --top-k 25
/// --prune-redundant` over the default density): what churn events score
/// and what the client asks after each seal.
pub fn window_base() -> RuleQuery {
    RuleQuery { measure: Measure::Lift, top_k: 25, prune_redundant: true, ..RuleQuery::default() }
}
