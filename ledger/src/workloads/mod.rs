//! The four workloads and what they share: the run context, set-up
//! repetition, answer comparison, served-side registry reads, and turning
//! a trace into the per-layer table.

pub mod cluster_rounds;
pub mod ingest_durable;
pub mod query_mix;
pub mod window_churn;

use crate::model::Funnel;
use crate::plan::Size;
use crate::report::{self, Counts, Measured, Outcome, Row, SpanTable};
use crate::stats::{self, HistDelta};
use crate::trace::Tracer;
use dar_serve::Json;
use std::path::{Path, PathBuf};

/// Set-ups per untraced pass; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Everything a pass needs to know.
#[derive(Clone)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// The run size.
    pub size: Size,
    /// The `dar` binary.
    pub dar: PathBuf,
    /// Work directory of this pass (WALs, snapshots, stderr logs).
    pub work: PathBuf,
    /// Where traced passes write `trace-<workload>.json`.
    pub traces: PathBuf,
}

impl Ctx {
    /// The context of pass `pass` (from 0) of `workload`: seed
    /// `seed + pass` and a work directory of its own.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn pass(&self, workload: &str, pass: usize, traced: bool) -> Result<Ctx, String> {
        let mode = if traced { "traced" } else { "untraced" };
        let work = self.work.join(format!("{workload}-{pass}-{mode}"));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Ctx { seed: self.seed + pass as u64, work, ..self.clone() })
    }

    /// A fresh subdirectory of the pass's work directory.
    ///
    /// # Errors
    /// Filesystem failures.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// `serve`/`cluster-coordinator` flags with `--addr` for a real process.
pub fn process_args(command: &str, flags: &[String]) -> Vec<String> {
    let mut args = vec![command.to_string(), "--addr".into(), "127.0.0.1:0".into()];
    args.extend(flags.iter().cloned());
    args
}

/// `flags` for an untimed in-process model: without the durability pairs
/// (the engine's state does not depend on them, and skipping the fsyncs
/// keeps it cheap) and on every core (`--threads 0`: answers are
/// byte-identical at every thread count, and nothing else runs meanwhile).
pub fn plain(flags: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        if matches!(
            flags[i].as_str(),
            "--wal-path" | "--snapshot-path" | "--snapshot-secs" | "--threads"
        ) {
            i += 2;
        } else {
            out.push(flags[i].clone());
            i += 1;
        }
    }
    out.extend(["--threads".to_string(), "0".to_string()]);
    out
}

/// Answers that differ from the reference (a missing or extra answer
/// counts as one mismatch each).
pub fn mismatches(expected: &[u64], got: &[u64]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

/// The digest of a sequence of answer digests.
pub fn fold(digests: &[u64]) -> u64 {
    digests.iter().fold(report::FNV_START, |h, d| report::fnv(h, &d.to_le_bytes()))
}

/// Registry families read over the `metrics` verb before and after the
/// measured phase: `(row name, family, verb label)`.
const SERVED: &[(&str, &str, Option<&str>)] = &[
    ("served.ingest_ms", "dar_serve_request_ns", Some("ingest")),
    ("served.shard_ingest_ms", "dar_serve_request_ns", Some("shard_ingest")),
    ("served.query_ms", "dar_serve_request_ns", Some("query")),
    ("served.pull_snapshot_ms", "dar_serve_request_ns", Some("pull_snapshot")),
    ("served.birch_insert_ms", "dar_engine_phase1_insert_ns", None),
    ("served.epoch_close_ms", "dar_engine_epoch_close_ns", None),
    ("served.graph_cliques_ms", "dar_mining_phase2_build_ns", None),
    ("served.rulegen_ms", "dar_mining_rule_gen_ns", None),
    ("served.rank_ms", "dar_rank_rank_ns", None),
    ("served.persist_encode_ms", "dar_persist_encode_ns", None),
    ("served.persist_decode_ms", "dar_persist_decode_ns", None),
    ("served.cluster_merge_ms", "dar_cluster_merge_ns", None),
    ("served.stream_diff_ms", "dar_stream_diff_ns", None),
];

/// Mean per observation of each served-side family that moved between
/// two `metrics` reads of one process (`who` prefixes the row names).
pub fn served_rows(who: &str, before: &Json, after: &Json) -> Vec<Row> {
    SERVED
        .iter()
        .filter_map(|&(name, family, verb)| {
            let delta = HistDelta::between(
                stats::wire_hist(before, family, verb),
                stats::wire_hist(after, family, verb),
            );
            let mean = delta.mean_ms()?;
            Some(Row::new(format!("{who}{name}"), mean, "ms", delta.count as usize))
        })
        .collect()
}

/// Closes an untraced pass: the declared end-to-end rows, the per-kind
/// breakdown and the workload's own detail rows.
///
/// # Errors
/// A sample too small for the declared tail.
pub fn finish_untraced(
    measured: &Measured,
    attempted: u64,
    failed: u64,
    mut detail: Vec<Row>,
    digest: u64,
) -> Result<Outcome, String> {
    let metrics = measured.end_to_end()?;
    report::check_declared(&metrics, report::END_TO_END)?;
    let (mut rows, kinds) = measured.by_kind();
    rows.push(Row::new(
        "error_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    ));
    // Peak RSS moves ±20% between identical runs with the allocator's
    // arena reuse, too noisy to gate on; it is printed, not declared.
    rows.push(Row::new("server_rss_mb", measured.rss_mb, "MB", 1));
    rows.append(&mut detail);
    Ok(Outcome { attempted, failed, metrics, detail: rows, digest, kinds })
}

/// `dar_birch_rebuilds_total` right now.
pub fn rebuilds() -> u64 {
    dar_obs::global().counter("dar_birch_rebuilds_total").get()
}

/// Closes a traced pass: writes the trace, derives the declared
/// per-layer rows, the per-layer self-time shares and the per-op-type
/// breakdown. `failed` counts the replay's own consistency failures.
///
/// # Errors
/// Trace I/O failures or a declared metric without a sample.
pub fn finish_traced(
    ctx: &Ctx,
    workload: &str,
    t: &Tracer,
    counts: &Counts,
    funnels: &[Funnel],
    mut detail: Vec<Row>,
    (digest, failed): (u64, u64),
) -> Result<Outcome, String> {
    write_trace(&ctx.traces, workload, t)?;
    let table = SpanTable::new(t);
    let metrics = report::per_layer(&table, counts, funnels)?;
    report::check_declared(&metrics, report::PER_LAYER)?;
    let queries = table.total("engine.query", |_| true).1;
    let ratio = |name: &str| 1.0 - table.total(name, |_| true).1 as f64 / queries.max(1) as f64;
    detail.push(Row::new(
        "engine.phase2_hit_ratio",
        ratio("mining.graph_cliques"),
        "ratio",
        queries as usize,
    ));
    detail.push(Row::new("rank.cache_hit_ratio", ratio("rank.rank"), "ratio", queries as usize));
    let by_layer = table.self_by_layer();
    let total: u64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        let share = *ns as f64 / total.max(1) as f64;
        detail.push(Row::new(format!("self.{layer}_share"), share, "ratio", 1));
    }
    Ok(Outcome {
        attempted: t.spans().iter().filter(|s| s.parent.is_none()).count() as u64,
        failed,
        metrics,
        detail,
        digest,
        kinds: table.by_kind(),
    })
}

fn write_trace(dir: &Path, workload: &str, t: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, t.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Mean duration (ms) of spans named `name` under roots matching `under`,
/// as a detail row (omitted when no such span exists).
pub fn span_row(t: &Tracer, row: &str, name: &str, under: impl Fn(&str) -> bool) -> Option<Row> {
    let table = SpanTable::new(t);
    let (_, n) = table.total(name, &under);
    table.mean_ms(name, under).map(|ms| Row::new(row, ms, "ms", n as usize))
}
