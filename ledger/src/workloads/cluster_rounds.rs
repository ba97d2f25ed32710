//! `cluster-rounds`: a coordinator over two WAL-backed shards, preloaded
//! with 40K tuples, then rounds of ingest one batch → cold paper-density
//! top-25 query (seeded knobs) → the same query again.
//!
//! Each cold query re-merges: it pulls the one shard the batch went to
//! (persist encode, base64, decode) and reuses the other's cached
//! snapshot, merges in shard order, closes an epoch and runs Phase II.
//! Phase I happens on the shards, off the query path. Requests: the
//! ingests and both queries of every round.

use super::{fold, mismatches, plain, process_args, Ctx, SETUPS};
use crate::model::Coordinator;
use crate::plan::{self, Batches, Size};
use crate::procs::Proc;
use crate::report::{Measured, Outcome, Row};
use crate::target::{digest, Kind, Local, Remote, Target};
use crate::trace::Tracer;
use crate::wire::Wire;
use dar_serve::protocol::Request;
use std::path::Path;
use std::time::Instant;

/// Rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: u64 = 4;
/// Preloaded batches (40K tuples at 1000 rows).
const PRELOAD_BATCHES: usize = 40;
const SHARDS: usize = 2;

fn shard_flags(dir: &Path, i: usize) -> Vec<String> {
    let mut flags = plan::serve_flags(&["--threads", "1"]);
    flags.extend(plan::durable_flags(dir, &format!("shard{i}"), false));
    flags
}

/// The coordinator's flags: the shards' engine flags (it mines the merged
/// summary under them) and the shard list.
fn coordinator_flags(shards: &str) -> Vec<String> {
    plan::engine_flags(&["--threads", "1", "--shards", shards])
}

/// `(preload, measured)` batches.
fn data(size: Size) -> (Batches, Batches) {
    let preload = if size.smoke { 8 } else { PRELOAD_BATCHES };
    let mut batches =
        plan::batches(preload + size.ops(ROUNDS_PER_SECOND, 3, 3) as usize, size.batch());
    let measured = batches.split_off(preload);
    (batches, measured)
}

/// Each round's cold query: seeded paper-density top-25 knob sets.
fn cold_queries(ctx: &Ctx, rounds: usize) -> Vec<mining::RuleQuery> {
    plan::top25_draws(ctx.seed, 1, rounds, &plan::paper(), (1.4, 1.6))
}

fn setup(target: &mut impl Target, batches: &[Vec<Vec<f64>>]) -> Result<Vec<u64>, String> {
    batches
        .iter()
        .map(|rows| {
            target
                .call(Kind::Preload, &Request::Ingest { rows: rows.clone() })
                .map(|l| digest(l.as_deref()))
        })
        .collect()
}

fn rounds(
    target: &mut impl Target,
    batches: &[Vec<Vec<f64>>],
    queries: &[mining::RuleQuery],
) -> Result<Vec<u64>, String> {
    target.start_measuring();
    let mut digests = Vec::new();
    for (rows, query) in batches.iter().zip(queries) {
        let query = Request::Query { query: query.clone() };
        let line = target.call(Kind::IngestAck, &Request::Ingest { rows: rows.clone() })?;
        digests.push(digest(line.as_deref()));
        let cold = target.call(Kind::QueryCold, &query)?;
        digests.push(digest(cold.as_deref()));
        let repeat = target.call(Kind::QueryRepeat, &query)?;
        digests.push(digest(repeat.as_deref()));
    }
    Ok(digests)
}

/// The in-process cluster: as the processes run it (`durable`, the traced
/// replay) or as the untimed reference ([`plain`]).
fn model(t: &mut Tracer, dir: &Path, durable: bool) -> Result<Coordinator, String> {
    let as_run = |flags: Vec<String>| if durable { flags } else { plain(&flags) };
    let shards: Vec<Vec<String>> = (0..SHARDS).map(|i| as_run(shard_flags(dir, i))).collect();
    Coordinator::start(t, &shards, &as_run(coordinator_flags("shard0,shard1")))
}

/// The running processes of one set-up: shards, then the coordinator.
struct Cluster {
    shards: Vec<Proc>,
    coordinator: Proc,
}

impl Cluster {
    fn spawn(ctx: &Ctx, dir: &Path) -> Result<Cluster, String> {
        let shards = (0..SHARDS)
            .map(|i| {
                Proc::spawn(
                    &ctx.dar,
                    &process_args("serve", &shard_flags(dir, i)),
                    dir,
                    &format!("shard{i}"),
                )
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let list: Vec<String> = shards.iter().map(|p| p.addr.to_string()).collect();
        let args = process_args("cluster-coordinator", &coordinator_flags(&list.join(",")));
        let coordinator =
            Proc::spawn(&ctx.dar, &args, dir, "coordinator").map_err(|e| e.to_string())?;
        Ok(Cluster { shards, coordinator })
    }

    fn peak_rss_mb(&self) -> f64 {
        self.shards.iter().map(Proc::peak_rss_mb).sum::<f64>() + self.coordinator.peak_rss_mb()
    }
}

/// The untraced pass over two real shards and a real coordinator.
///
/// # Errors
/// Process, transport or model failures.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let (preload, measured_batches) = data(ctx.size);
    let queries = cold_queries(ctx, measured_batches.len());
    let mut t = Tracer::new(false);
    let coordinator = model(&mut t, Path::new("."), false)?;
    let mut reference = Local::new(&mut t, coordinator, false);
    let expected_setup = setup(&mut reference, &preload)?;
    let expected = rounds(&mut reference, &measured_batches, &queries)?;
    drop(reference);

    let mut measured = Measured::default();
    let mut failed = 0;
    let mut running = None;
    for k in 0..SETUPS {
        drop(running.take());
        let dir = ctx.dir(&format!("setup{k}"))?;
        let start = Instant::now();
        let cluster = Cluster::spawn(ctx, &dir)?;
        let mut remote = Remote::new(Wire::connect(cluster.coordinator.addr)?, None);
        failed += mismatches(&expected_setup, &setup(&mut remote, &preload)?);
        measured.setups.push(start.elapsed().as_secs_f64());
        running = Some((cluster, remote));
    }
    let (cluster, mut remote) = running.ok_or("no set-up ran")?;
    // Served-side figures come from the coordinator only: each
    // single-threaded shard's one worker is held by the coordinator's
    // connection.
    let before = remote.wire().metrics()?;
    let got = rounds(&mut remote, &measured_batches, &queries)?;
    measured.wall_s = remote.started.map_or(0.0, |s| s.elapsed().as_secs_f64());
    let after = remote.wire().metrics()?;
    measured.rss_mb = cluster.peak_rss_mb();
    drop(cluster);
    measured.requests = std::mem::take(&mut remote.requests);
    failed += mismatches(&expected, &got);

    let detail = super::served_rows("coordinator.", &before, &after);
    let attempted = (got.len() + expected_setup.len() * SETUPS) as u64;
    super::finish_untraced(&measured, attempted, failed, detail, fold(&got))
}

/// The traced replay over in-process shards (with their WALs).
///
/// # Errors
/// Model or trace failures.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (preload, measured_batches) = data(ctx.size);
    let queries = cold_queries(ctx, measured_batches.len());
    let dir = ctx.dir("traced")?;
    let rebuilds = super::rebuilds();
    let mut t = Tracer::new(true);
    let coordinator = t.request("op.setup", |t| model(t, &dir, true))?;
    let mut local = Local::new(&mut t, coordinator, false);
    setup(&mut local, &preload)?;
    let digests = rounds(&mut local, &measured_batches, &queries)?;
    // Each round's repeat must return the cold answer's rules.
    let failed = digests.chunks(3).filter(|round| round[1] != round[2]).count() as u64;
    let mut counts = std::mem::take(&mut local.counts);
    counts.clusters = local.handler.clusters();
    counts.rebuilds = super::rebuilds() - rebuilds;
    let funnels = local.handler.funnels.clone();
    let (pulls, reuses) = (local.handler.pulls, local.handler.reuses);
    drop(local);

    let merges = measured_batches.len() as f64;
    let mut detail: Vec<Row> = [
        super::span_row(&t, "cluster.route_ms", "cluster.route", |_| true),
        super::span_row(&t, "cluster.pull_ms", "cluster.pull", |_| true),
        super::span_row(&t, "birch.merge_ms", "birch.merge", |_| true),
        super::span_row(&t, "persist.encode_ms", "persist.encode", |_| true),
        super::span_row(&t, "persist.decode_ms", "persist.decode", |_| true),
        super::span_row(&t, "durable.wal_append_ms", "durable.wal_append", |_| true),
    ]
    .into_iter()
    .flatten()
    .collect();
    detail.push(Row::new(
        "cluster.pulls_per_query",
        pulls as f64 / merges,
        "count",
        pulls as usize,
    ));
    let reuse = reuses as f64 / (pulls + reuses).max(1) as f64;
    detail.push(Row::new("cluster.reuse_ratio", reuse, "ratio", (pulls + reuses) as usize));
    super::finish_traced(
        ctx,
        "cluster-rounds",
        &t,
        &counts,
        &funnels,
        detail,
        (fold(&digests), failed),
    )
}
