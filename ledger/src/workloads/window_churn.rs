//! `window-churn`: a sliding-window server (`--window-batches 2
//! --window-slots 4 --window-policy subtract`, base query lift top-25 with
//! pruning) with one `subscribe` connection. Set-up fills the ring; every
//! measured window then retires one: ingest two batches, wait for the
//! churn event the sealing batch publishes, ask a top-25 of the window.
//!
//! The only workload that runs subtract retirement, the churn diff and
//! the subscriber path. Queries stay at the base density: paper density
//! under subtract grows without bound as windows retire (see the crate
//! docs). Requests: both ingests and the query of every window.

use super::{fold, mismatches, plain, process_args, Ctx, SETUPS};
use crate::model::Node;
use crate::plan::{self, Batches, Size};
use crate::procs::Proc;
use crate::report::{Measured, Outcome, Row};
use crate::stats;
use crate::target::{digest, Kind, Local, Remote, Target};
use crate::trace::Tracer;
use crate::wire::{self, Wire};
use dar_serve::protocol::Request;
use mining::RuleQuery;
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Windows per second of `--seconds`.
const WINDOWS_PER_SECOND: u64 = 4;
/// Batches per window and live windows: the server's window flags.
const WINDOW_BATCHES: usize = 2;
const SLOTS: usize = 4;

fn flags(dir: &Path) -> Vec<String> {
    let mut flags = plan::serve_flags(&[
        "--threads",
        "2",
        "--window-batches",
        "2",
        "--window-slots",
        "4",
        "--window-policy",
        "subtract",
        "--measure",
        "lift",
        "--top-k",
        "25",
        "--prune-redundant",
    ]);
    flags.extend(plan::durable_flags(dir, "window", false));
    flags
}

/// `(ring fill, measured)` batches.
fn data(size: Size) -> (Batches, Batches) {
    let windows = SLOTS + size.ops(WINDOWS_PER_SECOND, 3, 3) as usize;
    let mut batches = plan::batches(windows * WINDOW_BATCHES, size.batch());
    let rest = batches.split_off(SLOTS * WINDOW_BATCHES);
    (batches, rest)
}

/// The query after each measured window's event: base density and
/// degree factor, top 25 with pruning, the measure in seeded turns — lift
/// is the server's own base query (a rank-cache hit after the publish),
/// the other three re-rank the window's rules.
fn window_queries(ctx: &Ctx, windows: usize) -> Vec<RuleQuery> {
    let base = plan::window_base();
    plan::top25_draws(ctx.seed, 1, windows, &base, (base.degree_factor, base.degree_factor))
}

/// Drives windows of batches, asking `queries[w]` after window `w`;
/// `expect[w]` says whether window `w`'s seal publishes an event (the
/// reference learns it, the real run waits for it). Returns the answer
/// digests and, per window, whether an event came.
fn windows(
    target: &mut impl Target,
    batches: &[Vec<Vec<f64>>],
    queries: &[RuleQuery],
    expect: &[bool],
    kinds: (Kind, Kind),
) -> Result<(Vec<u64>, Vec<bool>), String> {
    let (ingest, query) = kinds;
    let mut digests = Vec::new();
    let mut events = Vec::new();
    for ((w, window), knobs) in batches.chunks(WINDOW_BATCHES).enumerate().zip(queries) {
        for rows in window {
            let line = target.call(ingest, &Request::Ingest { rows: rows.clone() })?;
            digests.push(digest(line.as_deref()));
        }
        let event = target.next_event(expect.get(w).copied().unwrap_or(true))?;
        if let Some(line) = &event {
            digests.push(digest(Some(line)));
        }
        events.push(event.is_some());
        let line = target.call(query, &Request::Query { query: knobs.clone() })?;
        digests.push(digest(line.as_deref()));
    }
    Ok((digests, events))
}

/// Fills the ring, asking the base query after each window.
fn setup(
    target: &mut impl Target,
    fill: &[Vec<Vec<f64>>],
    expect: &[bool],
) -> Result<(Vec<u64>, Vec<bool>), String> {
    let queries = vec![plan::window_base(); fill.len() / WINDOW_BATCHES];
    windows(target, fill, &queries, expect, (Kind::Preload, Kind::Warm))
}

fn measure(
    target: &mut impl Target,
    rest: &[Vec<Vec<f64>>],
    queries: &[RuleQuery],
    expect: &[bool],
) -> Result<(Vec<u64>, Vec<bool>), String> {
    target.start_measuring();
    windows(target, rest, queries, expect, (Kind::IngestAck, Kind::QueryWindow))
}

/// One running windowed server with its subscriber thread.
struct Running {
    proc: Proc,
    remote: Remote,
    subscriber: JoinHandle<()>,
}

impl Running {
    fn spawn(ctx: &Ctx, dir: &Path) -> Result<Running, String> {
        let proc = Proc::spawn(&ctx.dar, &process_args("serve", &flags(dir)), dir, "serve")
            .map_err(|e| e.to_string())?;
        let writer = Wire::connect(proc.addr)?;
        let mut subscription = wire::subscribe(proc.addr)?;
        let (tx, rx) = mpsc::channel();
        let subscriber = std::thread::spawn(move || loop {
            match subscription.next_event() {
                Ok(frame) => {
                    if tx.send((Instant::now(), frame.encode())).is_err() {
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return,
            }
        });
        Ok(Running { proc, remote: Remote::new(writer, Some(rx)), subscriber })
    }

    /// Kills the server, which ends the subscription, and joins the
    /// subscriber thread.
    fn stop(self) -> Remote {
        self.proc.kill();
        let _ = self.subscriber.join();
        self.remote
    }
}

/// The untraced pass: one writer connection and one subscriber.
///
/// # Errors
/// Process, transport or model failures.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let (fill, rest) = data(ctx.size);
    let queries = window_queries(ctx, rest.len() / WINDOW_BATCHES);
    let mut t = Tracer::new(false);
    let node = Node::start(&mut t, &plain(&flags(Path::new("."))))?;
    let mut reference = Local::new(&mut t, node, false);
    let (expected_setup, setup_events) = setup(&mut reference, &fill, &[])?;
    let (expected, events) = measure(&mut reference, &rest, &queries, &[])?;
    drop(reference);

    let mut measured = Measured::default();
    let mut failed = 0;
    let mut running: Option<Running> = None;
    for k in 0..SETUPS {
        if let Some(previous) = running.take() {
            previous.stop();
        }
        let dir = ctx.dir(&format!("setup{k}"))?;
        let start = Instant::now();
        let mut run = Running::spawn(ctx, &dir)?;
        failed += mismatches(&expected_setup, &setup(&mut run.remote, &fill, &setup_events)?.0);
        measured.setups.push(start.elapsed().as_secs_f64());
        running = Some(run);
    }
    let mut run = running.ok_or("no set-up ran")?;
    let before = run.remote.wire().metrics()?;
    let (got, _) = measure(&mut run.remote, &rest, &queries, &events)?;
    measured.wall_s = run.remote.started.map_or(0.0, |s| s.elapsed().as_secs_f64());
    let after = run.remote.wire().metrics()?;
    measured.rss_mb = run.proc.peak_rss_mb();
    let mut remote = run.stop();
    let unexpected = remote.unexpected_events() as u64;
    failed += mismatches(&expected, &got) + unexpected;
    measured.requests = std::mem::take(&mut remote.requests);

    let mut detail = Vec::new();
    let lags = stats::sorted(std::mem::take(&mut remote.churn_lag_ms));
    if !lags.is_empty() {
        detail.push(Row::new(
            "churn_lag_ms_p50",
            stats::nearest_rank(&lags, 50.0),
            "ms",
            lags.len(),
        ));
        if let Some(p) = stats::supported_tail(lags.len()) {
            let tail = stats::nearest_rank(&lags, f64::from(p));
            detail.push(Row::new(format!("churn_lag_ms_p{p}"), tail, "ms", lags.len()));
        }
    }
    detail.push(Row::new("churn_events", lags.len() as f64, "count", rest.len() / WINDOW_BATCHES));
    detail.extend(super::served_rows("", &before, &after));
    let attempted = (got.len() + expected_setup.len() * SETUPS) as u64 + unexpected;
    super::finish_untraced(&measured, attempted, failed, detail, fold(&got))
}

/// The traced replay (windowed engine, tagged WAL, churn publish).
///
/// # Errors
/// Model or trace failures.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (fill, rest) = data(ctx.size);
    let queries = window_queries(ctx, rest.len() / WINDOW_BATCHES);
    let dir = ctx.dir("traced")?;
    let rebuilds = super::rebuilds();
    let mut t = Tracer::new(true);
    let node = t.request("op.setup", |t| Node::start(t, &flags(&dir)))?;
    let mut local = Local::new(&mut t, node, false);
    setup(&mut local, &fill, &[])?;
    let (digests, events) = measure(&mut local, &rest, &queries, &[])?;
    let mut counts = std::mem::take(&mut local.counts);
    counts.clusters = local.handler.clusters();
    counts.rebuilds = super::rebuilds() - rebuilds;
    let funnels = local.handler.funnels.clone();
    drop(local);

    let mut detail: Vec<Row> = [
        super::span_row(&t, "stream.ingest_ms", "stream.ingest", |_| true),
        super::span_row(&t, "stream.publish_ms", "stream.publish", |_| true),
        super::span_row(&t, "stream.diff_ms", "stream.diff", |_| true),
        super::span_row(&t, "durable.wal_append_ms", "durable.wal_append", |_| true),
    ]
    .into_iter()
    .flatten()
    .collect();
    let published = events.iter().filter(|e| **e).count();
    detail.push(Row::new("stream.events", published as f64, "count", events.len()));
    detail.push(Row::new("stream.horizon_clusters", counts.clusters as f64, "count", 1));
    super::finish_traced(ctx, "window-churn", &t, &counts, &funnels, detail, (fold(&digests), 0))
}
