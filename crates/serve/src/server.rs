//! The multi-threaded TCP server: a fixed worker pool behind a bounded
//! accept queue, serving the newline-delimited JSON protocol over a
//! [`SharedEngine`].
//!
//! Concurrency model (`std::net` + `std::thread` only):
//!
//! * one **acceptor** thread pushes accepted sockets into a bounded
//!   `sync_channel`; when the queue is full the connection is *refused
//!   with a structured error* rather than queued unboundedly
//!   (backpressure, counted in
//!   [`ServerStats::rejected_connections`](crate::ServerStats));
//! * `threads` **workers** pop connections and serve requests line by
//!   line under per-connection read/write timeouts — `query`/`stats`
//!   answer under the engine's read lock (cached Phase II), `ingest`/
//!   `snapshot` take the write lock;
//! * an optional **snapshotter** thread persists the epoch to disk every
//!   `snapshot_interval`;
//! * **graceful shutdown** via a shutdown pipe (an atomic flag plus a
//!   self-connection to unblock `accept`): triggered by
//!   [`ServerHandle::shutdown`] or the wire verb `shutdown`, it stops
//!   accepting, drains queued connections, joins every thread, closes the
//!   epoch, and writes a final snapshot.

use crate::churn::{ChurnFeed, SubscriptionRx};
use crate::durability::{persist_snapshot, Durability};
use crate::json::{self, Json};
use crate::protocol::{self, Request, RequestLine};
use crate::shared::SharedEngine;
use crate::stats::{ServerStats, StatsSnapshot};
use dar_durable::{DiskStorage, Storage};
use dar_stream::{EngineBackend, WindowedIngest};
use mining::RuleQuery;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size.
    pub threads: usize,
    /// Bounded accept queue depth; a full queue refuses new connections
    /// with a structured `overloaded` error.
    pub queue_depth: usize,
    /// Per-connection read timeout (an idle client is disconnected).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Where `snapshot` requests, the periodic snapshotter, and the final
    /// shutdown snapshot write the epoch.
    pub snapshot_path: Option<PathBuf>,
    /// Periodic snapshot-to-disk interval (requires `snapshot_path`).
    pub snapshot_interval: Option<Duration>,
    /// Write-ahead log path. When set, every acknowledged ingest batch is
    /// appended (checksummed, fsynced) *before* the acknowledgement; a
    /// failed append flips the server to degraded read-only mode.
    pub wal_path: Option<PathBuf>,
    /// The storage backend the WAL and snapshot installs go through —
    /// [`DiskStorage`] in production, a fault-injecting double in tests.
    pub storage: Arc<dyn Storage>,
    /// Whether the wire verb `shutdown` may stop the server (on by
    /// default; operators driving the server from scripts need it).
    pub allow_remote_shutdown: bool,
    /// Optional Prometheus exposition address (e.g. `"127.0.0.1:9100"`).
    /// When set, a plain-TCP listener serves the global `dar-obs`
    /// registry in Prometheus text format to any scraper (or `nc`).
    pub metrics_addr: Option<String>,
    /// The server's default rule query: knobs a `query` request does not
    /// send fall back to these (set from CLI flags like `--measure` and
    /// `--top-k`), and rule-churn events mine and score the live horizon
    /// with them.
    pub base_query: RuleQuery,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            snapshot_path: None,
            snapshot_interval: None,
            wal_path: None,
            storage: Arc::new(DiskStorage),
            allow_remote_shutdown: true,
            metrics_addr: None,
            base_query: RuleQuery::default(),
        }
    }
}

/// The shutdown pipe: an atomic flag plus the listener's own address, so
/// `trigger` can unblock the acceptor's blocking `accept` with a
/// self-connection (the SIGINT-equivalent in a std-only server).
struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl ShutdownSignal {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the acceptor out of accept(2).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// Everything a worker needs to serve one connection.
struct WorkerCtx {
    shared: Arc<SharedEngine>,
    stats: Arc<ServerStats>,
    shutdown: Arc<ShutdownSignal>,
    durability: Option<Arc<Durability>>,
    churn: Arc<ChurnFeed>,
    config: ServeConfig,
}

/// What a request line asks the connection loop to do after the response.
enum Action {
    /// Keep serving this connection.
    Continue,
    /// Trigger server shutdown (the `shutdown` verb).
    Shutdown,
    /// Hand the connection to the churn feed as a long-lived subscriber.
    Subscribe {
        /// The resume point from the `subscribe` request.
        from_epoch: Option<u64>,
    },
}

/// The running server's entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
    /// starts the acceptor, the worker pool, and (if configured) the
    /// snapshotter. Returns immediately with a handle; the server runs on
    /// background threads until [`ServerHandle::shutdown`] or a wire
    /// `shutdown` request.
    ///
    /// # Errors
    /// Propagates bind failures and unrepairable durability artifacts.
    ///
    /// Note: the engine passed in should already be recovered (see
    /// [`crate::recover_engine`] / [`crate::recover_backend`]); this
    /// constructor only reopens the durable store to position the WAL
    /// sequence counter. Accepts a plain [`dar_engine::DarEngine`], a sliding-window
    /// [`dar_stream::WindowedEngine`], or an [`EngineBackend`].
    pub fn start(
        engine: impl Into<EngineBackend>,
        addr: &str,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(SharedEngine::new(engine));
        let stats = Arc::new(ServerStats::default());
        let churn = Arc::new(ChurnFeed::new());
        let shutdown = Arc::new(ShutdownSignal { flag: AtomicBool::new(false), addr: local_addr });
        let durability = if config.snapshot_path.is_some() || config.wal_path.is_some() {
            Some(Arc::new(Durability::open(
                Arc::clone(&config.storage),
                config.snapshot_path.as_deref(),
                config.wal_path.as_deref(),
            )?))
        } else {
            None
        };

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.threads.max(1));
        for worker_id in 0..config.threads.max(1) {
            let rx = Arc::clone(&rx);
            let ctx = WorkerCtx {
                shared: Arc::clone(&shared),
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                durability: durability.clone(),
                churn: Arc::clone(&churn),
                config: config.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dar-serve-worker-{worker_id}"))
                    .spawn(move || worker_loop(&rx, &ctx))?,
            );
        }

        let acceptor = {
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let write_timeout = config.write_timeout;
            std::thread::Builder::new().name("dar-serve-acceptor".into()).spawn(move || {
                accept_loop(&listener, &tx, &stats, &shutdown, write_timeout);
                // Dropping `tx` here lets workers drain the queue and exit.
            })?
        };

        let snapshotter = match (&durability, &config.snapshot_path, config.snapshot_interval) {
            (Some(durability), Some(_), Some(interval)) => {
                let shared = Arc::clone(&shared);
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let durability = Arc::clone(durability);
                Some(std::thread::Builder::new().name("dar-serve-snapshotter".into()).spawn(
                    move || {
                        let mut last = Instant::now();
                        while !shutdown.is_set() {
                            std::thread::sleep(Duration::from_millis(25));
                            if last.elapsed() >= interval {
                                let _ = persist_snapshot(&shared, &durability, &stats);
                                last = Instant::now();
                            }
                        }
                    },
                )?)
            }
            _ => None,
        };

        let exposer = match &config.metrics_addr {
            Some(metrics_addr) => Some(dar_obs::MetricsExposer::bind(metrics_addr.as_str())?),
            None => None,
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            stats,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            snapshotter,
            durability,
            churn,
            snapshot_path: config.snapshot_path,
            exposer,
        })
    }
}

/// A handle to a running server: its address, shared state for
/// inspection, and the shutdown/join lifecycle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<SharedEngine>,
    stats: Arc<ServerStats>,
    shutdown: Arc<ShutdownSignal>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
    durability: Option<Arc<Durability>>,
    churn: Arc<ChurnFeed>,
    snapshot_path: Option<PathBuf>,
    exposer: Option<dar_obs::MetricsExposer>,
}

/// What a graceful shutdown left behind.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final server counters.
    pub stats: StatsSnapshot,
    /// Where the final epoch snapshot was written, if a path was
    /// configured.
    pub snapshot_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine, for in-process inspection alongside the server.
    pub fn shared(&self) -> &Arc<SharedEngine> {
        &self.shared
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// This server's latency histogram — the exact population the `stats`
    /// verb derives p50/p99 from.
    pub fn latency_snapshot(&self) -> dar_obs::HistogramSnapshot {
        self.stats.latency_snapshot()
    }

    /// Where the Prometheus exposition listener is bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exposer.as_ref().map(dar_obs::MetricsExposer::addr)
    }

    /// Triggers graceful shutdown (idempotent): stop accepting, drain the
    /// queue, let in-flight connections finish.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Waits for every thread to exit, closes the epoch, writes the final
    /// snapshot (if a path is configured), and returns the final
    /// counters. Call [`ServerHandle::shutdown`] first — or let a wire
    /// `shutdown` request arrive — or this blocks until one happens.
    ///
    /// # Errors
    /// Propagates final-snapshot I/O failures (the threads are already
    /// down by then).
    pub fn join(mut self) -> io::Result<ServeSummary> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(snapshotter) = self.snapshotter.take() {
            let _ = snapshotter.join();
        }
        // Disconnect every churn subscriber and join their threads.
        self.churn.close();
        if let Some(mut exposer) = self.exposer.take() {
            exposer.shutdown();
        }
        if self.snapshot_path.is_some() {
            if let Some(durability) = &self.durability {
                persist_snapshot(&self.shared, durability, &self.stats)?;
            }
        }
        Ok(ServeSummary { stats: self.stats.snapshot(), snapshot_path: self.snapshot_path })
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &std::sync::mpsc::SyncSender<TcpStream>,
    stats: &ServerStats,
    shutdown: &ShutdownSignal,
    write_timeout: Duration,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.is_set() {
                    break;
                }
                continue;
            }
        };
        if shutdown.is_set() {
            break; // the wake-up self-connection (or a late client)
        }
        // Every frame goes out in one write; don't hold its tail for an ACK.
        let _ = stream.set_nodelay(true);
        match tx.try_send(stream) {
            Ok(()) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                crate::metrics::metrics().connections.inc();
            }
            Err(TrySendError::Full(stream)) => {
                stats.rejected_connections.fetch_add(1, Ordering::Relaxed);
                crate::metrics::metrics().rejected_connections.inc();
                refuse(stream, write_timeout);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

/// Backpressure: tell the refused client why, then hang up.
fn refuse(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let line = protocol::error_response("overloaded", "accept queue is full, retry later").encode();
    let _ = protocol::write_frame(&mut stream, line);
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &WorkerCtx) {
    loop {
        // Hold the lock only for the pop, never while serving.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match stream {
            Ok(stream) => {
                let _ = serve_connection(stream, ctx);
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(mut stream: TcpStream, ctx: &WorkerCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(ctx.config.read_timeout))?;
    stream.set_write_timeout(Some(ctx.config.write_timeout))?;
    let mut lines = protocol::RequestLines::new(stream.try_clone()?);
    loop {
        let line = match lines.next_line() {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let (code, message) = protocol::LINE_TOO_LONG;
                protocol::write_frame(&mut stream, error(ctx, code, message).encode())?;
                break;
            }
            // EOF, timeout, reset, or a line that is not UTF-8.
            Ok(RequestLine::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let (response, verb, action) = handle_line(line, ctx);
        if let Action::Subscribe { from_epoch } = action {
            // The connection stops being request/response: register with
            // the churn feed (handshake + catch-up under the feed's lock,
            // so no event falls in between), then hand the socket to a
            // dedicated pusher thread and free this worker.
            let subscription = ctx.churn.subscribe(from_epoch);
            let handshake =
                protocol::subscribe_response(subscription.epoch, subscription.window_span).encode();
            let written = protocol::write_frame(&mut stream, handshake)?;
            ctx.stats.record_latency(verb, started.elapsed());
            ctx.stats.record_io(verb, line.len() as u64 + 1, written);
            let handle = std::thread::Builder::new()
                .name("dar-serve-subscriber".into())
                .spawn(move || subscriber_loop(stream, subscription))?;
            ctx.churn.track(handle);
            return Ok(());
        }
        let written = protocol::write_frame(&mut stream, response.encode())?;
        ctx.stats.record_latency(verb, started.elapsed());
        // Both sides count the newline framing the codec strips/adds.
        ctx.stats.record_io(verb, line.len() as u64 + 1, written);
        if matches!(action, Action::Shutdown) {
            ctx.shutdown.trigger();
            break;
        }
    }
    Ok(())
}

/// The long-lived half of a `subscribe` connection: pushes event lines as
/// the feed delivers them; a disconnect means either a server shutdown
/// (hang up silently) or a lagged cut (write the structured final frame
/// first). A client that stopped reading fails the write and is reaped by
/// the publisher on its next fan-out.
fn subscriber_loop(mut stream: TcpStream, subscription: SubscriptionRx) {
    loop {
        match subscription.rx.recv() {
            Ok(line) => {
                if protocol::write_frame(&mut stream, line).is_err() {
                    return;
                }
            }
            Err(_) => {
                if subscription.cut.is_lagged() {
                    let line = protocol::lagged_frame(subscription.cut.epoch()).encode();
                    let _ = protocol::write_frame(&mut stream, line);
                }
                return;
            }
        }
    }
}

/// Dispatches one request line; returns the response, the verb label the
/// request's latency is recorded under (`"error"` when it never resolved
/// to a verb), and what the connection loop should do after the response
/// is written.
fn handle_line(line: &str, ctx: &WorkerCtx) -> (Json, &'static str, Action) {
    let request = match json::parse(line) {
        Ok(value) => match Request::from_json_with(&value, &ctx.config.base_query) {
            Ok(request) => request,
            Err(message) => {
                return (error(ctx, "bad-request", &message), "error", Action::Continue)
            }
        },
        Err(e) => return (error(ctx, "bad-json", &e.to_string()), "error", Action::Continue),
    };
    let verb = match &request {
        Request::Ingest { .. } => "ingest",
        Request::Query { .. } => "query",
        Request::Clusters => "clusters",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Snapshot => "snapshot",
        Request::Shutdown => "shutdown",
        Request::Advance => "advance",
        Request::Subscribe { .. } => "subscribe",
        Request::ShardIngest { .. } => "shard_ingest",
        Request::PullSnapshot => "pull_snapshot",
        Request::ShardStats => "shard_stats",
        Request::ShardRescan { .. } => "shard_rescan",
    };
    let count = |counter: &std::sync::atomic::AtomicU64| {
        counter.fetch_add(1, Ordering::Relaxed);
    };
    let (response, action) = match request {
        Request::Ingest { rows } => match commit_batch(ctx, &rows) {
            Ok((total, _)) => {
                count(&ctx.stats.ingest_requests);
                (protocol::ingest_response(rows.len() as u64, total), Action::Continue)
            }
            Err(response) => (response, Action::Continue),
        },
        Request::Advance => match advance_window(ctx) {
            Ok(response) => {
                count(&ctx.stats.advance_requests);
                (response, Action::Continue)
            }
            Err(response) => (response, Action::Continue),
        },
        Request::Subscribe { from_epoch } => {
            if ctx.shared.is_windowed() {
                count(&ctx.stats.subscribe_requests);
                // The handshake is written by the connection loop, under
                // the feed's lock, so no event can slip in between.
                (Json::Null, Action::Subscribe { from_epoch })
            } else {
                (
                    error(
                        ctx,
                        "unsupported",
                        "subscriptions require a windowed server (--window-batches)",
                    ),
                    Action::Continue,
                )
            }
        }
        Request::ShardIngest { seq, rows } => {
            count(&ctx.stats.shard_ingest_requests);
            // Duplicate suppression: the coordinator retries at-least-once,
            // so a sequence at or below the watermark was already applied
            // (and, when a WAL is configured, committed) — acknowledge it
            // without touching the engine.
            if seq <= ctx.stats.shard_last_seq.load(Ordering::SeqCst) {
                count(&ctx.stats.shard_dup_batches);
                let total = ctx.shared.tuples();
                (
                    protocol::shard_ingest_response(seq, false, rows.len() as u64, total),
                    Action::Continue,
                )
            } else {
                match commit_batch(ctx, &rows) {
                    Ok((total, _)) => {
                        ctx.stats.shard_last_seq.fetch_max(seq, Ordering::SeqCst);
                        (
                            protocol::shard_ingest_response(seq, true, rows.len() as u64, total),
                            Action::Continue,
                        )
                    }
                    Err(response) => (response, Action::Continue),
                }
            }
        }
        Request::PullSnapshot => match ctx.shared.pull_snapshot() {
            Ok((bytes, epoch, tuples)) => {
                count(&ctx.stats.pull_snapshot_requests);
                let sealed = dar_durable::seal_bytes(
                    &bytes,
                    ctx.stats.shard_last_seq.load(Ordering::SeqCst),
                );
                (protocol::pull_snapshot_response(epoch, tuples, &sealed), Action::Continue)
            }
            Err(e) => (error(ctx, "snapshot", &e.to_string()), Action::Continue),
        },
        Request::ShardStats => {
            count(&ctx.stats.stats_requests);
            let (epoch, tuples, width) = ctx.shared.meta();
            (
                protocol::shard_stats_response(
                    epoch,
                    tuples,
                    width,
                    ctx.stats.is_degraded(),
                    ctx.stats.shard_last_seq.load(Ordering::SeqCst),
                ),
                Action::Continue,
            )
        }
        Request::ShardRescan { clusters, rules } => match shard_rescan(ctx, &clusters, &rules) {
            Ok(response) => {
                count(&ctx.stats.shard_rescan_requests);
                (response, Action::Continue)
            }
            Err((code, message)) => (error(ctx, code, &message), Action::Continue),
        },
        Request::Query { query } => match ctx.shared.query(&query) {
            Ok(outcome) => {
                count(&ctx.stats.query_requests);
                (protocol::query_response(&outcome), Action::Continue)
            }
            Err(e) => (error(ctx, "bad-query", &e.to_string()), Action::Continue),
        },
        Request::Clusters => {
            count(&ctx.stats.clusters_requests);
            let (epoch, clusters) = ctx.shared.clusters();
            (protocol::clusters_response(epoch, &clusters), Action::Continue)
        }
        Request::Metrics => {
            count(&ctx.stats.metrics_requests);
            (protocol::metrics_response(), Action::Continue)
        }
        Request::Stats => {
            count(&ctx.stats.stats_requests);
            let (engine_stats, read_hits) = ctx.shared.stats();
            let response = Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::Str("stats".into())),
                ("server", ctx.stats.snapshot().to_json()),
                ("engine", protocol::engine_stats_json(&engine_stats, read_hits)),
            ]);
            (response, Action::Continue)
        }
        Request::Snapshot => match (&ctx.durability, &ctx.config.snapshot_path) {
            (Some(durability), Some(path)) => {
                match persist_snapshot(&ctx.shared, durability, &ctx.stats) {
                    Ok((epoch, tuples)) => {
                        count(&ctx.stats.snapshot_requests);
                        let shown = path.display().to_string();
                        (protocol::snapshot_response(epoch, tuples, Some(&shown)), Action::Continue)
                    }
                    Err(e) => (error(ctx, "io", &e.to_string()), Action::Continue),
                }
            }
            _ => match ctx.shared.snapshot() {
                Ok((_, epoch, tuples)) => {
                    count(&ctx.stats.snapshot_requests);
                    (protocol::snapshot_response(epoch, tuples, None), Action::Continue)
                }
                Err(e) => (error(ctx, "snapshot", &e.to_string()), Action::Continue),
            },
        },
        Request::Shutdown => {
            if ctx.config.allow_remote_shutdown {
                count(&ctx.stats.shutdown_requests);
                (protocol::shutdown_response(), Action::Shutdown)
            } else {
                (error(ctx, "forbidden", "remote shutdown is disabled"), Action::Continue)
            }
        }
    };
    (response, verb, action)
}

/// The shared writer-path commit protocol for `ingest` and
/// `shard_ingest`: refuse in degraded mode, apply to the engine under
/// store-before-engine lock order, append to the WAL, and acknowledge
/// only after the append. A windowed backend's batches are logged as
/// *tagged* frames carrying the window sequence they landed in, so
/// recovery rebuilds the ring exactly; a batch that sealed a window also
/// publishes rule churn to subscribers (after the store lock drops).
/// Returns the engine's post-batch tuple total plus the window movement,
/// or the structured error response to send instead.
fn commit_batch(ctx: &WorkerCtx, rows: &[Vec<f64>]) -> Result<(u64, Option<WindowedIngest>), Json> {
    if ctx.stats.is_degraded() {
        return Err(error(
            ctx,
            "degraded",
            "write-ahead log unavailable; serving reads only — \
             restart with healthy storage to resume ingest",
        ));
    }
    // Store lock before engine lock: WAL commit order must equal engine
    // apply order, or recovery replays a different history than the one
    // that was acknowledged.
    let mut store =
        ctx.durability.as_ref().filter(|_| ctx.config.wal_path.is_some()).map(|d| d.lock());
    let (total, windowed) = match ctx.shared.ingest(rows) {
        Ok(outcome) => outcome,
        Err(e) => return Err(error(ctx, "rejected", &e.to_string())),
    };
    if let Some(store) = store.as_deref_mut() {
        // Apply-then-log: acknowledge only once the batch is both
        // in memory and on the log.
        let logged = match &windowed {
            Some(w) => store.log_tagged_batch(w.window_seq, rows),
            None => store.log_batch(rows),
        };
        if let Err(e) = logged {
            ctx.stats.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            ctx.stats.set_degraded();
            return Err(error(
                ctx,
                "degraded",
                &format!(
                    "batch applied in memory but not committed to the \
                     write-ahead log ({e}); entering read-only mode"
                ),
            ));
        }
        ctx.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    }
    drop(store);
    if windowed.as_ref().is_some_and(|w| w.advanced) {
        publish_churn(ctx);
    }
    Ok((total, windowed))
}

/// The `advance` verb: seal the open window explicitly (windowed backend
/// only), log an empty tagged frame as the advance marker so recovery
/// replays the seal at the same point in the batch order, and publish the
/// resulting rule churn.
fn advance_window(ctx: &WorkerCtx) -> Result<Json, Json> {
    if !ctx.shared.is_windowed() {
        return Err(error(
            ctx,
            "unsupported",
            "advance requires a windowed server (--window-batches)",
        ));
    }
    if ctx.stats.is_degraded() {
        return Err(error(
            ctx,
            "degraded",
            "write-ahead log unavailable; serving reads only — \
             restart with healthy storage to resume ingest",
        ));
    }
    // Same store-before-engine order as commit_batch: the advance marker
    // must land in the log exactly where the seal happened.
    let mut store =
        ctx.durability.as_ref().filter(|_| ctx.config.wal_path.is_some()).map(|d| d.lock());
    let outcome = match ctx.shared.advance() {
        Ok(outcome) => outcome,
        Err(e) => return Err(error(ctx, "rejected", &e.to_string())),
    };
    if let Some(store) = store.as_deref_mut() {
        // An empty frame tagged with the freshly-opened window: replay
        // fast-forwards `open_seq` past the sealed window and ingests
        // nothing.
        if let Err(e) = store.log_tagged_batch(outcome.opened_seq, &[]) {
            ctx.stats.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            ctx.stats.set_degraded();
            return Err(error(
                ctx,
                "degraded",
                &format!(
                    "window advanced in memory but not committed to the \
                     write-ahead log ({e}); entering read-only mode"
                ),
            ));
        }
        ctx.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    }
    drop(store);
    publish_churn(ctx);
    let span = ctx.shared.window_span().unwrap_or((0, outcome.opened_seq));
    Ok(protocol::advance_response(
        outcome.sealed_seq,
        outcome.opened_seq,
        outcome.retired_seq,
        span,
    ))
}

/// Mines the live horizon at the server's base query and hands the
/// encoded rule set to the churn feed, which diffs it against the
/// previous epoch and fans events out to subscribers. Each event rule
/// carries its value under the base query's measure, so downstream
/// consumers can filter on quality without re-querying. Called after a
/// window seal, with no locks held — the query takes the engine lock,
/// the feed its own.
fn publish_churn(ctx: &WorkerCtx) {
    let Ok(outcome) = ctx.shared.query(&ctx.config.base_query) else {
        return; // a failed base query leaves subscribers at the old epoch
    };
    let rules: Vec<String> = outcome
        .rules
        .iter()
        .zip(&outcome.values)
        .map(|(rule, &value)| protocol::rule_json(rule, value).encode())
        .collect();
    ctx.churn.publish(outcome.epoch, ctx.shared.window_span(), rules);
}

/// The `shard_rescan` verb: re-read this shard's write-ahead log, assign
/// every retained tuple to its nearest coordinator-supplied cluster per
/// set, and count the tuples matching every position of each rule. The
/// scan is exact over the rows the WAL retains; `rows_scanned` lets the
/// coordinator detect a shard whose WAL no longer covers its whole
/// history (e.g. pruned by a snapshot install).
fn shard_rescan(
    ctx: &WorkerCtx,
    clusters: &str,
    rules: &[Vec<usize>],
) -> Result<Json, (&'static str, String)> {
    let Some(wal_path) = &ctx.config.wal_path else {
        return Err(("no-wal", "shard_rescan needs a write-ahead log to re-read".into()));
    };
    let pool = dar_par::ThreadPool::resolve(ctx.shared.engine_threads());
    // Base64 persist-v2 is the wire format; raw v1 text (which contains
    // spaces, so it can never decode as base64) is the legacy fallback.
    let clusters = match crate::b64::decode(clusters) {
        Ok(bytes) => mining::persist::decode_clusters(&bytes, &pool)
            .map_err(|e| ("bad-request", format!("clusters: {e}")))?,
        Err(_) => mining::persist::read_clusters(clusters)
            .map_err(|e| ("bad-request", format!("clusters: {e}")))?,
    };
    for (i, rule) in rules.iter().enumerate() {
        if let Some(&pos) = rule.iter().find(|&&pos| pos >= clusters.len()) {
            return Err((
                "bad-request",
                format!("rule {i} references cluster {pos} of {}", clusters.len()),
            ));
        }
    }
    let (records, _) = dar_durable::wal::read_records(&*ctx.config.storage, wal_path)
        .map_err(|e| ("io", e.to_string()))?;
    let partitioning = ctx.shared.partitioning();
    let width =
        partitioning.sets().iter().flat_map(|s| s.attrs.iter()).copied().max().map_or(0, |m| m + 1);
    let mut builder = dar_core::RelationBuilder::new(dar_core::Schema::interval_attrs(width));
    for record in &records {
        let (_, rows) = dar_durable::decode_frame(&record.body)
            .map_err(|e| ("io", format!("WAL record {}: {e}", record.seq)))?;
        for row in &rows {
            builder.push_row(row).map_err(|e| ("io", format!("WAL record {}: {e}", record.seq)))?;
        }
    }
    let relation = builder.finish();
    // Each rule re-shaped as a candidate `Dar` (only the positions
    // matter to the rescan); degree/support are placeholders.
    let candidates: Vec<mining::Dar> = rules
        .iter()
        .map(|positions| mining::Dar {
            antecedent: positions.clone(),
            consequent: Vec::new(),
            degree: 0.0,
            min_cluster_support: 0,
        })
        .collect();
    let counts = mining::pipeline::rescan_frequencies_pooled(
        &relation,
        &partitioning,
        &clusters,
        &candidates,
        &pool,
    );
    Ok(protocol::shard_rescan_response(relation.len() as u64, &counts))
}

fn error(ctx: &WorkerCtx, code: &str, message: &str) -> Json {
    ctx.stats.error_responses.fetch_add(1, Ordering::Relaxed);
    crate::metrics::metrics().errors.inc();
    protocol::error_response(code, message)
}
