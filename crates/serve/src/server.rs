//! `dar serve`: the engine's handler behind the shared [front
//! door](crate::front), serving the newline-delimited JSON protocol over
//! a [`SharedEngine`]. A durable server recovers its engine from the
//! store it then keeps, before it binds (see [`Server::start`]).
//!
//! The front door owns the sockets, the worker pool, request parsing,
//! `metrics`/`shutdown` and per-request accounting. The handler here
//! answers the rest: `query`/`clusters`/`stats` under the engine's read
//! lock (cached Phase II), `ingest`/`snapshot` under the write lock
//! behind the durable store's lock, the shard verbs, and the streaming
//! verbs `advance` and `subscribe` (which hands its socket to a pusher
//! thread). An optional **snapshotter** thread persists the epoch to
//! disk every `snapshot_interval`. Graceful shutdown ([`ServerHandle::
//! shutdown`] or the wire verb `shutdown`) stops accepting, drains
//! queued connections, joins every thread, closes the epoch, and writes
//! a final snapshot.

use crate::churn::{ChurnFeed, SubscriptionRx, MAX_SUBSCRIBERS};
use crate::durability::{persist_snapshot, Durability};
use crate::front::{FrontConfig, FrontDoor, Handler, Reply};
use crate::json::Json;
use crate::protocol::{self, Request};
use crate::shared::SharedEngine;
use crate::stats::{ServerStats, StatsSnapshot};
use dar_core::CoreError;
use dar_durable::{DiskStorage, DurableError, DurableStore, RecoveryReport, Storage};
use dar_engine::DarEngine;
use dar_stream::WindowedIngest;
use mining::RuleQuery;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// What `dar serve` puts behind the front door: the engine, its durable
/// store, the churn feed, and the shard duplicate-suppression watermark.
struct ServeHandler {
    shared: Arc<SharedEngine>,
    durability: Option<Durability>,
    churn: Arc<ChurnFeed>,
    config: ServeConfig,
    /// Highest coordinator batch sequence applied via `shard_ingest` —
    /// the duplicate-suppression watermark. In-memory only: a restarted
    /// shard starts at 0, so a (single) coordinator must not retry
    /// batches it has already seen acknowledged across a shard restart.
    shard_last_seq: AtomicU64,
    /// `shard_ingest` requests acknowledged as duplicates (sequence at or
    /// below the watermark) without re-applying the batch.
    shard_dup_batches: AtomicU64,
}

/// The running server's entry point.
pub struct Server;

impl Server {
    /// Recovers, then binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for
    /// ephemeral) and starts the front door and (if configured) the
    /// snapshotter. Returns immediately with a handle; the server runs on
    /// background threads until [`ServerHandle::shutdown`] or a wire
    /// `shutdown` request.
    ///
    /// `engine` is the fresh engine the server mines with: all history
    /// or, built with a window, a sliding window. With a snapshot path or
    /// a WAL configured, the server first opens its durable store once,
    /// restores the newest verifiable snapshot into `engine`'s
    /// configuration and replays the WAL suffix (as
    /// [`crate::recover_backend`] does), keeps that store for its appends, and
    /// reports the outcome in [`ServerHandle::recovery`]. So a restart on
    /// the same paths serves every acknowledged batch exactly once.
    ///
    /// # Errors
    /// Unrepairable durability artifacts (prefixed `recovery: `), then
    /// bind failures (prefixed `bind <addr>: `).
    pub fn start(engine: DarEngine, addr: &str, config: ServeConfig) -> io::Result<ServerHandle> {
        let context = |what: &str, e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
        let (engine, durability, recovery) =
            if config.snapshot_path.is_some() || config.wal_path.is_some() {
                let (durability, engine, report) = Durability::recover(
                    engine,
                    Arc::clone(&config.storage),
                    config.snapshot_path.as_deref(),
                    config.wal_path.as_deref(),
                )
                .map_err(|e| context("recovery", e))?;
                (engine, Some(durability), Some(report))
            } else {
                (engine, None, None)
            };
        let front_config = FrontConfig {
            threads: config.threads,
            queue_depth: config.queue_depth,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            allow_remote_shutdown: config.allow_remote_shutdown,
            metrics_addr: config.metrics_addr.clone(),
            base_query: config.base_query.clone(),
        };
        let handler = Arc::new(ServeHandler {
            shared: Arc::new(SharedEngine::new(engine)),
            durability,
            churn: Arc::new(ChurnFeed::new()),
            config,
            shard_last_seq: AtomicU64::new(0),
            shard_dup_batches: AtomicU64::new(0),
        });
        let front = FrontDoor::start(addr, front_config, handler.clone())
            .map_err(|e| context(&format!("bind {addr}"), e))?;

        let snapshotter = match (&handler.config.snapshot_path, handler.config.snapshot_interval) {
            (Some(_), Some(interval)) => {
                let handler = Arc::clone(&handler);
                let shutdown = front.shutdown_signal();
                Some(std::thread::Builder::new().name("dar-serve-snapshotter".into()).spawn(
                    move || {
                        let mut last = Instant::now();
                        while !shutdown.is_set() {
                            std::thread::sleep(Duration::from_millis(25));
                            if last.elapsed() >= interval {
                                let _ = handler.persist();
                                last = Instant::now();
                            }
                        }
                    },
                )?)
            }
            _ => None,
        };
        Ok(ServerHandle { front, handler, snapshotter, recovery })
    }
}

/// A handle to a running server: its address, shared state for
/// inspection, and the shutdown/join lifecycle.
pub struct ServerHandle {
    front: FrontDoor,
    handler: Arc<ServeHandler>,
    snapshotter: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
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
        self.front.addr()
    }

    /// The shared engine, for in-process inspection alongside the server.
    pub fn shared(&self) -> &Arc<SharedEngine> {
        &self.handler.shared
    }

    /// How boot recovery went; `None` without a snapshot path or WAL.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.front.stats().snapshot()
    }

    /// This server's latency histogram — the exact population the `stats`
    /// verb derives p50/p99 from.
    pub fn latency_snapshot(&self) -> dar_obs::HistogramSnapshot {
        self.front.stats().latency_snapshot()
    }

    /// Where the Prometheus exposition listener is bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.front.metrics_addr()
    }

    /// Triggers graceful shutdown (idempotent): stop accepting, drain the
    /// queue, let in-flight connections finish.
    pub fn shutdown(&self) {
        self.front.shutdown();
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
        self.front.join();
        if let Some(snapshotter) = self.snapshotter.take() {
            let _ = snapshotter.join();
        }
        // Disconnect every churn subscriber and join their threads.
        self.handler.churn.close();
        self.handler.persist().transpose()?;
        let snapshot_path = self.handler.config.snapshot_path.clone();
        Ok(ServeSummary { stats: self.stats(), snapshot_path })
    }
}

/// The long-lived half of a `subscribe` connection: pushes event lines as
/// the feed delivers them; a disconnect means either a server shutdown
/// (hang up silently) or a lagged cut (write the structured final frame
/// first). A client that hung up is noticed before the next event is
/// written, and the thread ends, which unregisters the subscription.
fn subscriber_loop(mut stream: TcpStream, subscription: SubscriptionRx) {
    loop {
        match subscription.rx.recv() {
            Ok(line) => {
                if peer_hung_up(&stream) || protocol::write_frame(&mut stream, line).is_err() {
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

/// Whether a subscriber's peer has closed its side: a subscriber sends
/// nothing after `subscribe`, so a readable end-of-stream (or a reset)
/// means it is gone. A write to such a peer can still succeed once, so
/// the write alone would notice only at the second event.
fn peer_hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    };
    gone || stream.set_nonblocking(false).is_err()
}

impl Handler for ServeHandler {
    fn handle(&self, request: Request, stats: &ServerStats) -> Reply {
        let response = match request {
            Request::Ingest { rows } => match self.commit_batch(&rows) {
                Ok((total, _)) => protocol::ingest_response(rows.len() as u64, total),
                Err(response) => response,
            },
            Request::Advance => self.advance_window().unwrap_or_else(|response| response),
            Request::Subscribe { from_epoch } => return self.subscribe(from_epoch),
            Request::ShardIngest { seq, rows } => {
                // Duplicate suppression: the coordinator retries
                // at-least-once, so a sequence at or below the watermark
                // was already applied (and, when a WAL is configured,
                // committed) — acknowledge it without touching the engine.
                if seq <= self.shard_last_seq.load(Ordering::SeqCst) {
                    self.shard_dup_batches.fetch_add(1, Ordering::Relaxed);
                    let total = self.shared.tuples();
                    protocol::shard_ingest_response(seq, false, rows.len() as u64, total)
                } else {
                    match self.commit_batch(&rows) {
                        Ok((total, _)) => {
                            self.shard_last_seq.fetch_max(seq, Ordering::SeqCst);
                            protocol::shard_ingest_response(seq, true, rows.len() as u64, total)
                        }
                        Err(response) => response,
                    }
                }
            }
            Request::PullSnapshot => match self.shared.pull_snapshot() {
                Ok((bytes, epoch, tuples)) => {
                    let sealed =
                        dar_durable::seal_bytes(&bytes, self.shard_last_seq.load(Ordering::SeqCst));
                    protocol::pull_snapshot_response(epoch, tuples, &sealed)
                }
                Err(e) => protocol::error_response("snapshot", &e.to_string()),
            },
            Request::ShardStats => {
                let (epoch, tuples, width) = self.shared.meta();
                protocol::shard_stats_response(
                    epoch,
                    tuples,
                    width,
                    self.is_degraded(),
                    self.shard_last_seq.load(Ordering::SeqCst),
                )
            }
            Request::ShardRescan { clusters, rules } => {
                match self.shard_rescan(&clusters, &rules) {
                    Ok(response) => response,
                    Err((code, message)) => protocol::error_response(code, &message),
                }
            }
            Request::Query { query } => match self.shared.query(&query) {
                Ok(outcome) => protocol::query_response(&outcome),
                Err(e) => protocol::error_response("bad-query", &e.to_string()),
            },
            Request::Clusters => {
                let (epoch, clusters) = self.shared.clusters();
                protocol::clusters_response(epoch, &clusters)
            }
            Request::Stats => {
                let (engine_stats, read_hits) = self.shared.stats();
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::Str("stats".into())),
                    ("server", self.server_stats_json(stats)),
                    ("engine", protocol::engine_stats_json(&engine_stats, read_hits)),
                ])
            }
            Request::Snapshot => match self.persist() {
                Some(Ok((epoch, tuples))) => {
                    let shown = self.config.snapshot_path.as_ref().map(|p| p.display().to_string());
                    protocol::snapshot_response(epoch, tuples, shown.as_deref())
                }
                Some(Err(e)) => protocol::error_response("io", &e.to_string()),
                None => match self.shared.snapshot() {
                    Ok((_, epoch, tuples)) => protocol::snapshot_response(epoch, tuples, None),
                    Err(e) => protocol::error_response("snapshot", &e.to_string()),
                },
            },
            // The front door answers these itself.
            Request::Metrics | Request::Shutdown => {
                protocol::error_response("internal", "verb is served by the front door")
            }
        };
        Reply::Respond(response)
    }
}

impl ServeHandler {
    /// Closes the epoch and installs it at the snapshot path; `None`
    /// when no snapshot path is configured.
    fn persist(&self) -> Option<io::Result<(u64, u64)>> {
        let durability =
            self.durability.as_ref().filter(|_| self.config.snapshot_path.is_some())?;
        Some(persist_snapshot(&self.shared, durability))
    }

    fn is_degraded(&self) -> bool {
        self.durability.as_ref().is_some_and(Durability::is_degraded)
    }

    /// The durable store when a write-ahead log is configured: the one
    /// `ingest`, `shard_ingest` and `advance` commit through.
    fn wal(&self) -> Option<&Durability> {
        self.durability.as_ref().filter(|_| self.config.wal_path.is_some())
    }

    /// The `server` half of the `stats` response: the front door's
    /// request table plus the shard watermark and the durability
    /// counters (zero without a durable store).
    fn server_stats_json(&self, stats: &ServerStats) -> Json {
        let mut server = stats.snapshot().to_json();
        if let Json::Obj(pairs) = &mut server {
            let watermark = |n: &AtomicU64| Json::Num(n.load(Ordering::SeqCst) as f64);
            pairs.push(("shard_dup_batches".into(), watermark(&self.shard_dup_batches)));
            pairs.push(("shard_last_seq".into(), watermark(&self.shard_last_seq)));
            for (key, value) in Durability::stats_json(self.durability.as_ref()) {
                pairs.push((key.into(), value));
            }
        }
        server
    }

    /// The `subscribe` verb (windowed servers only): registers with the
    /// churn feed — catch-up frames enqueue under the feed's lock, so no
    /// event falls in between — answers with the handshake, and hands the
    /// socket to a dedicated pusher thread. Past [`MAX_SUBSCRIBERS`]
    /// registered subscribers the request is refused with `overloaded`
    /// and the connection keeps serving requests.
    fn subscribe(&self, from_epoch: Option<u64>) -> Reply {
        if !self.shared.is_windowed() {
            return protocol::error_response(
                "unsupported",
                "subscriptions require a windowed server (--window-batches)",
            )
            .into();
        }
        let Some(subscription) = self.churn.subscribe(from_epoch) else {
            return protocol::error_response(
                "overloaded",
                &format!("{MAX_SUBSCRIBERS} subscribers already registered, retry later"),
            )
            .into();
        };
        let handshake = protocol::subscribe_response(subscription.epoch, subscription.window_span);
        let churn = Arc::clone(&self.churn);
        Reply::HandOver(
            handshake,
            Box::new(move |stream| {
                let handle = std::thread::Builder::new()
                    .name("dar-serve-subscriber".into())
                    .spawn(move || subscriber_loop(stream, subscription))?;
                churn.track(handle);
                Ok(())
            }),
        )
    }

    /// The writer-path commit protocol `ingest`, `shard_ingest` and
    /// `advance` share: refuse in degraded mode, `apply` to the engine
    /// under store-before-engine lock order, `log` the change to the WAL,
    /// and acknowledge only after the append. `what` names the change in
    /// the error a failed append answers with.
    fn commit<T>(
        &self,
        what: &str,
        apply: impl FnOnce(&SharedEngine) -> Result<T, CoreError>,
        log: impl FnOnce(&mut DurableStore, &T) -> Result<u64, DurableError>,
    ) -> Result<T, Json> {
        if self.is_degraded() {
            return Err(protocol::error_response(
                "degraded",
                "write-ahead log unavailable; serving reads only — \
                 restart with healthy storage to resume ingest",
            ));
        }
        // Store lock before engine lock: WAL commit order must equal engine
        // apply order, or recovery replays a different history than the one
        // that was acknowledged.
        let wal = self.wal();
        let mut store = wal.map(Durability::lock);
        let applied = apply(&self.shared)
            .map_err(|e| protocol::error_response("rejected", &e.to_string()))?;
        if let (Some(wal), Some(store)) = (wal, store.as_deref_mut()) {
            // Apply-then-log: acknowledge only once the change is both in
            // memory and on the log.
            if let Err(e) = wal.count_append(log(store, &applied)) {
                return Err(protocol::error_response(
                    "degraded",
                    &format!(
                        "{what} in memory but not committed to the \
                         write-ahead log ({e}); entering read-only mode"
                    ),
                ));
            }
        }
        Ok(applied)
    }

    /// Commits an `ingest`/`shard_ingest` batch. A windowed engine's
    /// batches are logged as *tagged* frames carrying the window sequence
    /// they landed in, so recovery rebuilds the ring exactly; a batch that
    /// sealed a window also publishes rule churn to subscribers (after the
    /// store lock drops). Returns the engine's post-batch tuple total plus
    /// the window movement, or the structured error response to send
    /// instead.
    fn commit_batch(&self, rows: &[Vec<f64>]) -> Result<(u64, Option<WindowedIngest>), Json> {
        let (total, windowed) = self.commit(
            "batch applied",
            |shared| shared.ingest(rows),
            |store, (_, windowed)| match windowed {
                Some(w) => store.log_tagged_batch(w.window_seq, rows),
                None => store.log_batch(rows),
            },
        )?;
        if windowed.as_ref().is_some_and(|w| w.advanced) {
            self.publish_churn();
        }
        Ok((total, windowed))
    }

    /// The `advance` verb: seal the open window explicitly (windowed engine
    /// only), log an empty tagged frame as the advance marker so recovery
    /// replays the seal at the same point in the batch order, and publish the
    /// resulting rule churn.
    fn advance_window(&self) -> Result<Json, Json> {
        if !self.shared.is_windowed() {
            return Err(protocol::error_response(
                "unsupported",
                "advance requires a windowed server (--window-batches)",
            ));
        }
        // The empty frame is tagged with the freshly-opened window: replay
        // fast-forwards `open_seq` past the sealed window and ingests
        // nothing.
        let outcome = self.commit("window advanced", SharedEngine::advance, |store, outcome| {
            store.log_tagged_batch(outcome.opened_seq, &[])
        })?;
        self.publish_churn();
        let span = self.shared.window_span().unwrap_or((0, outcome.opened_seq));
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
    fn publish_churn(&self) {
        let Ok(outcome) = self.shared.query(&self.config.base_query) else {
            return; // a failed base query leaves subscribers at the old epoch
        };
        let rules: Vec<String> = outcome
            .rules
            .iter()
            .zip(&outcome.values)
            .map(|(rule, &value)| protocol::rule_json(rule, value).encode())
            .collect();
        self.churn.publish(outcome.epoch, self.shared.window_span(), rules);
    }

    /// The `shard_rescan` verb: re-read this shard's write-ahead log, assign
    /// every retained tuple to its nearest coordinator-supplied cluster per
    /// set, and count the tuples matching every position of each rule. The
    /// scan is exact over the rows the WAL retains; `rows_scanned` lets the
    /// coordinator detect a shard whose WAL no longer covers its whole
    /// history (e.g. pruned by a snapshot install).
    fn shard_rescan(
        &self,
        clusters: &str,
        rules: &[Vec<usize>],
    ) -> Result<Json, (&'static str, String)> {
        let Some(wal) = self.wal() else {
            return Err(("no-wal", "shard_rescan needs a write-ahead log to re-read".into()));
        };
        let pool = dar_par::ThreadPool::resolve(self.shared.engine_threads());
        // The clusters travel as base64 persist-v2.
        let clusters = crate::b64::decode(clusters)
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                mining::persist::decode_clusters(&bytes, &pool).map_err(|e| e.to_string())
            })
            .map_err(|e| ("bad-request", format!("clusters: {e}")))?;
        for (i, rule) in rules.iter().enumerate() {
            if let Some(&pos) = rule.iter().find(|&&pos| pos >= clusters.len()) {
                return Err((
                    "bad-request",
                    format!("rule {i} references cluster {pos} of {}", clusters.len()),
                ));
            }
        }
        // Under the store lock, so no append lands mid-read.
        let frames = wal.lock().frames_after(0).map_err(|e| ("io", e.to_string()))?;
        let partitioning = self.shared.partitioning();
        let (_, _, width) = self.shared.meta();
        let mut builder = dar_core::RelationBuilder::new(dar_core::Schema::interval_attrs(width));
        for (seq, _, rows) in &frames {
            for row in rows {
                builder.push_row(row).map_err(|e| ("io", format!("WAL record {seq}: {e}")))?;
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
}
