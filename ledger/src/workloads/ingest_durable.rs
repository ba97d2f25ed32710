//! `ingest-durable`: one writer streams WBCD-like batches into a durable
//! server (fsync per acknowledged batch, a periodic seal every 5 s); then
//! one cold paper-density top-25 query on the live server, `kill -9`, a
//! restart on the same WAL and snapshot, and the restarted server's first
//! answer to the same query.
//!
//! Requests: the batch acks. The live query and the recovery are checked
//! and timed after the measured phase.

use super::{fold, mismatches, plain, process_args, Ctx, SETUPS};
use crate::model::Node;
use crate::plan::{self, Batches, Size};
use crate::procs::Proc;
use crate::report::{Measured, Outcome, Row, SpanTable};
use crate::target::{digest, Kind, Local, Remote, Target};
use crate::trace::Tracer;
use crate::wire::Wire;
use dar_serve::protocol::Request;
use std::path::Path;
use std::time::Instant;

/// Measured batches per second of `--seconds` (525K tuples at 15 s).
const BATCHES_PER_SECOND: u64 = 35;
/// Set-up preload: the server holds 20K tuples before the stream starts.
const PRELOAD_BATCHES: usize = 20;

fn flags(dir: &Path) -> Vec<String> {
    let mut flags = plan::serve_flags(&["--threads", "2", "--snapshot-secs", "5"]);
    flags.extend(plan::durable_flags(dir, "ingest", true));
    flags
}

/// The cold query asked after the stream and after the restart.
fn query() -> Request {
    Request::Query { query: plan::paper_top25() }
}

/// Sends each batch as one ingest; one digest per answer.
fn stream(
    target: &mut impl Target,
    kind: Kind,
    batches: &[Vec<Vec<f64>>],
) -> Result<Vec<u64>, String> {
    batches
        .iter()
        .map(|rows| {
            Ok(digest(target.call(kind, &Request::Ingest { rows: rows.clone() })?.as_deref()))
        })
        .collect()
}

/// `(preload, stream)` batches.
fn data(size: Size) -> (Batches, Batches) {
    let preload = if size.smoke { 2 } else { PRELOAD_BATCHES };
    let stream = size.ops(BATCHES_PER_SECOND, 1, 12) as usize;
    let mut batches = plan::batches(preload + stream, size.batch());
    let stream = batches.split_off(preload);
    (batches, stream)
}

fn tuples(batches: &[&Batches]) -> u64 {
    batches.iter().flat_map(|b| b.iter()).map(Vec::len).sum::<usize>() as u64
}

/// Copies the files a killed server left in `dir` into `to`.
fn copy_files(dir: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if let (true, Some(name)) = (path.is_file(), path.file_name()) {
            std::fs::copy(&path, to.join(name)).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// The untraced pass over the real `dar serve`.
///
/// # Errors
/// Process or model failures (failed calls and answer mismatches are
/// counted, not raised).
pub fn untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_data, data) = data(ctx.size);
    // The reference runs without durability: the answers do not depend
    // on it.
    let mut t = Tracer::new(false);
    let reference = Node::start(&mut t, &plain(&flags(Path::new("."))))?;
    let mut reference = Local::new(&mut t, reference, false);
    let expected_setup = stream(&mut reference, Kind::Preload, &setup_data)?;
    let mut expected = stream(&mut reference, Kind::IngestAck, &data)?;
    expected.push(digest(reference.call(Kind::QueryCold, &query())?.as_deref()));
    drop(reference);

    let mut measured = Measured::default();
    let mut failed = 0;
    let mut server = None;
    for k in 0..SETUPS {
        drop(server.take());
        let dir = ctx.dir(&format!("setup{k}"))?;
        let start = Instant::now();
        let proc = Proc::spawn(&ctx.dar, &process_args("serve", &flags(&dir)), &dir, "serve")
            .map_err(|e| e.to_string())?;
        let mut remote = Remote::new(Wire::connect(proc.addr)?, None);
        failed += mismatches(&expected_setup, &stream(&mut remote, Kind::Preload, &setup_data)?);
        measured.setups.push(start.elapsed().as_secs_f64());
        server = Some((proc, remote, dir));
    }
    let (proc, mut remote, dir) = server.ok_or("no set-up ran")?;
    let before = remote.wire().metrics()?;
    remote.start_measuring();
    let mut got = stream(&mut remote, Kind::IngestAck, &data)?;
    measured.wall_s = remote.started.map_or(0.0, |s| s.elapsed().as_secs_f64());
    measured.requests = std::mem::take(&mut remote.requests);
    let after = remote.wire().metrics()?;
    let (live, _) = remote.wire().call(&query())?;
    got.push(digest(live.as_deref()));
    measured.rss_mb = proc.peak_rss_mb();
    proc.kill();
    failed += mismatches(&expected, &got);

    // Recovery. A copy of the killed server's files is kept first: the
    // restart repairs a torn WAL tail in place and may seal anew.
    let killed = ctx.dir("killed")?;
    copy_files(&dir, &killed)?;
    let start = Instant::now();
    let proc = Proc::spawn(&ctx.dar, &process_args("serve", &flags(&dir)), &dir, "restart")
        .map_err(|e| e.to_string())?;
    let (first, _) = Wire::connect(proc.addr)?.call(&query())?;
    let recovery_s = start.elapsed().as_secs_f64();
    proc.kill();
    // The model recovers the copy (the server's engine flags, no periodic
    // seal): it must hold every acknowledged tuple and give the restarted
    // server's answer. Not the live answer: once a seal has run, recovery
    // replays the WAL tail into the sealed clusters, which summarise it
    // differently from the uninterrupted trees.
    let mut recovery = plain(&flags(&killed));
    recovery.extend(plan::durable_flags(&killed, "ingest", true));
    let mut t = Tracer::new(false);
    let node = Node::start(&mut t, &recovery)?;
    let recovered_tuples = node.tuples();
    let want = Local::new(&mut t, node, false).call(Kind::QueryCold, &query())?;
    failed += u64::from(recovered_tuples != tuples(&[&setup_data, &data]));
    failed += u64::from(first.is_none() || digest(first.as_deref()) != digest(want.as_deref()));

    let mut detail = vec![
        Row::new(
            "ingest_tuples_per_s",
            tuples(&[&data]) as f64 / measured.wall_s,
            "1/s",
            data.len(),
        ),
        Row::new("recovery_s", recovery_s, "s", 1),
        Row::new("recovered_tuples", recovered_tuples as f64, "count", 1),
    ];
    detail.extend(super::served_rows("", &before, &after));
    let attempted = (got.len() + expected_setup.len() * SETUPS) as u64 + 2;
    super::finish_untraced(&measured, attempted, failed, detail, fold(&got))
}

/// The traced in-process replay (durable: real WAL fsyncs and snapshot
/// installs in the pass's work directory, seals every 5 s of replay time),
/// the live query, then recovery from those files and the query again.
///
/// # Errors
/// Model or trace failures.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_data, data) = data(ctx.size);
    let dir = ctx.dir("traced")?;
    let rebuilds = super::rebuilds();
    let wal_bytes = dar_obs::global().counter("dar_durable_wal_bytes_total").get();
    let mut t = Tracer::new(true);
    let node = t.request("op.setup", |t| Node::start(t, &flags(&dir)))?;
    let mut local = Local::new(&mut t, node, false);
    stream(&mut local, Kind::Preload, &setup_data)?;
    let mut digests = stream(&mut local, Kind::IngestAck, &data)?;
    let live = local.call(Kind::QueryCold, &query())?;
    digests.push(digest(live.as_deref()));
    let mut counts = std::mem::take(&mut local.counts);
    let mut funnels = local.handler.funnels.clone();
    drop(local);

    let node = t.request("op.recover", |t| Node::start(t, &flags(&dir)))?;
    let failed = u64::from(node.tuples() != tuples(&[&setup_data, &data]));
    let mut local = Local::new(&mut t, node, false);
    local.call(Kind::QueryCold, &query())?;
    counts.decoded_bytes += local.counts.decoded_bytes;
    counts.query_responses.0 += local.counts.query_responses.0;
    counts.query_responses.1 += local.counts.query_responses.1;
    funnels.extend(local.handler.funnels.iter().copied());
    counts.clusters = local.handler.clusters();
    drop(local);
    counts.rebuilds = super::rebuilds() - rebuilds;

    let user_bytes = counts.tuples as f64 * 30.0 * 8.0;
    let wal = dar_obs::global().counter("dar_durable_wal_bytes_total").get() - wal_bytes;
    let mut detail: Vec<Row> = [
        super::span_row(&t, "durable.wal_append_ms", "durable.wal_append", |_| true),
        super::span_row(&t, "durable.seal_ms", "durable.install", |_| true),
        super::span_row(&t, "durable.recover_ms", "durable.recover", |r| r == "op.recover"),
        super::span_row(&t, "persist.encode_ms", "persist.encode", |_| true),
        super::span_row(&t, "persist.decode_ms", "persist.decode", |_| true),
    ]
    .into_iter()
    .flatten()
    .collect();
    let seals = SpanTable::new(&t).total("durable.install", |_| true).1;
    detail.push(Row::new("durable.seals", seals as f64, "count", 1));
    detail.push(Row::new("durable.wal_bytes_per_user_byte", wal as f64 / user_bytes, "ratio", 1));
    let snapshot_bytes = dar_obs::global().gauge("dar_persist_snapshot_bytes").get();
    detail.push(Row::new("persist.snapshot_kb", snapshot_bytes as f64 / 1024.0, "KB", 1));
    if let Some(linearity) = linearity(&t, ctx.size.batch()) {
        detail.push(linearity);
    }
    super::finish_traced(
        ctx,
        "ingest-durable",
        &t,
        &counts,
        &funnels,
        detail,
        (fold(&digests), failed),
    )
}

/// Phase I µs/tuple over the last 100K tuples ÷ the first 100K (the
/// paper's linear-in-N claim reads ≈ 1); needs 200K streamed tuples.
fn linearity(t: &Tracer, batch: usize) -> Option<Row> {
    let spans = t.spans();
    let inserts: Vec<u64> = spans
        .iter()
        .filter(|s| {
            s.name == "birch.insert"
                && s.parent
                    .and_then(|p| spans[p].parent)
                    .is_some_and(|r| spans[r].name == "op.ingest_ack")
        })
        .map(|s| s.end - s.start)
        .collect();
    let window = 100_000 / batch;
    if inserts.len() < 2 * window {
        return None;
    }
    let first: u64 = inserts[..window].iter().sum();
    let last: u64 = inserts[inserts.len() - window..].iter().sum();
    Some(Row::new("birch.linearity", last as f64 / first as f64, "ratio", inserts.len()))
}
