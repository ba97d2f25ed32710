//! The coordinator front-end: a std-only threaded TCP server speaking the
//! ordinary `dar-serve` client protocol, so existing clients point at a
//! coordinator unchanged.
//!
//! Same shape as `dar_serve::Server` — one acceptor behind a bounded
//! `sync_channel`, a fixed worker pool, refuse-not-queue backpressure,
//! graceful shutdown via an atomic flag plus a self-connection — but each
//! request resolves against the [`Coordinator`] (under a mutex: the
//! coordinator's own work per request is a round trip or two; the heavy
//! lifting happens on the shards and inside the merged engine).

use crate::coordinator::Coordinator;
use dar_serve::json::{self, Json};
use dar_serve::protocol::{self, Request, RequestLine};
use dar_serve::ServerError;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
            return;
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

struct WorkerCtx {
    coordinator: Arc<Mutex<Coordinator>>,
    shutdown: Arc<ShutdownSignal>,
    requests: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    read_timeout: Duration,
    write_timeout: Duration,
    allow_remote_shutdown: bool,
    base_query: mining::RuleQuery,
}

/// The coordinator front-end's entry point.
pub struct CoordinatorServer;

impl CoordinatorServer {
    /// Binds `addr` and starts serving the client protocol over
    /// `coordinator` (which must already be connected to its shards).
    /// Returns immediately with a handle; the server runs on background
    /// threads until [`CoordinatorHandle::shutdown`] or a wire `shutdown`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(coordinator: Coordinator, addr: &str) -> io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cfg = coordinator.config();
        let threads = cfg.threads.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        let read_timeout = cfg.read_timeout;
        let write_timeout = cfg.write_timeout;
        let allow_remote_shutdown = cfg.allow_remote_shutdown;
        let metrics_addr = cfg.metrics_addr.clone();
        let base_query = cfg.base_query.clone();
        let coordinator = Arc::new(Mutex::new(coordinator));
        let shutdown = Arc::new(ShutdownSignal { flag: AtomicBool::new(false), addr: local_addr });
        let requests = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let rx = Arc::clone(&rx);
            let ctx = WorkerCtx {
                coordinator: Arc::clone(&coordinator),
                shutdown: Arc::clone(&shutdown),
                requests: Arc::clone(&requests),
                errors: Arc::clone(&errors),
                read_timeout,
                write_timeout,
                allow_remote_shutdown,
                base_query: base_query.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dar-cluster-worker-{worker_id}"))
                    .spawn(move || worker_loop(&rx, &ctx))?,
            );
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new().name("dar-cluster-acceptor".into()).spawn(move || {
                accept_loop(&listener, &tx, &shutdown, write_timeout);
            })?
        };

        let exposer = match &metrics_addr {
            Some(addr) => Some(dar_obs::MetricsExposer::bind(addr.as_str())?),
            None => None,
        };

        Ok(CoordinatorHandle {
            addr: local_addr,
            coordinator,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            exposer,
        })
    }
}

/// A handle to a running coordinator front-end.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    coordinator: Arc<Mutex<Coordinator>>,
    shutdown: Arc<ShutdownSignal>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    exposer: Option<dar_obs::MetricsExposer>,
}

impl CoordinatorHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator, for in-process driving alongside the server.
    pub fn coordinator(&self) -> &Arc<Mutex<Coordinator>> {
        &self.coordinator
    }

    /// Triggers graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Waits for every thread to exit. Call [`CoordinatorHandle::shutdown`]
    /// first — or let a wire `shutdown` arrive — or this blocks.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(mut exposer) = self.exposer.take() {
            exposer.shutdown();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &std::sync::mpsc::SyncSender<TcpStream>,
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
            break;
        }
        // Every frame goes out in one write; don't hold its tail for an ACK.
        let _ = stream.set_nodelay(true);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => refuse(stream, write_timeout),
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn refuse(mut stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let line = protocol::error_response("overloaded", "accept queue is full, retry later").encode();
    let _ = protocol::write_frame(&mut stream, line);
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &WorkerCtx) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match stream {
            Ok(stream) => {
                let _ = serve_connection(stream, ctx);
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(mut stream: TcpStream, ctx: &WorkerCtx) -> io::Result<()> {
    stream.set_read_timeout(Some(ctx.read_timeout))?;
    stream.set_write_timeout(Some(ctx.write_timeout))?;
    let mut lines = protocol::RequestLines::new(stream.try_clone()?);
    loop {
        let line = match lines.next_line() {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let (code, message) = protocol::LINE_TOO_LONG;
                protocol::write_frame(&mut stream, error(ctx, code, message).encode())?;
                break;
            }
            Ok(RequestLine::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown_after) = handle_line(line, ctx);
        protocol::write_frame(&mut stream, response.encode())?;
        if shutdown_after {
            ctx.shutdown.trigger();
            break;
        }
    }
    Ok(())
}

fn handle_line(line: &str, ctx: &WorkerCtx) -> (Json, bool) {
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    let request = match json::parse(line) {
        Ok(value) => match Request::from_json_with(&value, &ctx.base_query) {
            Ok(request) => request,
            Err(message) => return (error(ctx, "bad-request", &message), false),
        },
        Err(e) => return (error(ctx, "bad-json", &e.to_string()), false),
    };
    match request {
        Request::Ingest { rows } => {
            let count = rows.len() as u64;
            let result = lock(&ctx.coordinator).ingest(&rows);
            match result {
                Ok(total) => (protocol::ingest_response(count, total), false),
                Err(e) => (shard_error(ctx, &e), false),
            }
        }
        Request::Query { query } => {
            let mut coordinator = lock(&ctx.coordinator);
            match coordinator.query(&query) {
                Ok((outcome, coverage)) => {
                    let mut response = protocol::query_response(&outcome);
                    // The rescan rides along as *extra* keys so the base
                    // response stays byte-compatible with a single server
                    // when rescan is off. A degraded answer skips it: the
                    // SON pass needs every shard to be exact.
                    if coordinator.rescan_enabled() && !coverage.degraded {
                        match coordinator.rescan(&outcome) {
                            Ok((rows_rescanned, counts)) => {
                                if let Json::Obj(pairs) = &mut response {
                                    pairs.push((
                                        "rescan_rows".into(),
                                        Json::Num(rows_rescanned as f64),
                                    ));
                                    pairs.push((
                                        "rescan_counts".into(),
                                        Json::Arr(
                                            counts.iter().map(|&c| Json::Num(c as f64)).collect(),
                                        ),
                                    ));
                                }
                            }
                            Err(e) => return (shard_error(ctx, &e), false),
                        }
                    }
                    annotate(&mut response, &coverage);
                    (response, false)
                }
                Err(e) => (shard_error(ctx, &e), false),
            }
        }
        Request::Clusters => match lock(&ctx.coordinator).clusters() {
            Ok((epoch, clusters, coverage)) => {
                let mut response = protocol::clusters_response(epoch, &clusters);
                annotate(&mut response, &coverage);
                (response, false)
            }
            Err(e) => (shard_error(ctx, &e), false),
        },
        Request::Snapshot => match lock(&ctx.coordinator).snapshot() {
            Ok((_, epoch, tuples, coverage)) => {
                let mut response = protocol::snapshot_response(epoch, tuples, None);
                annotate(&mut response, &coverage);
                (response, false)
            }
            Err(e) => (shard_error(ctx, &e), false),
        },
        Request::Stats => {
            let mut coordinator = lock(&ctx.coordinator);
            let (routed_batches, routed_tuples) = coordinator.routed();
            let rounds = coordinator.rounds();
            let live_shards = coordinator.live_shards();
            let shards = coordinator.shard_infos();
            drop(coordinator);
            let shard_items: Vec<Json> = shards
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("addr", Json::Str(s.addr.clone())),
                        ("health", Json::Str(s.health.as_str().into())),
                        ("live", Json::Bool(s.live)),
                        ("tuples", Json::Num(s.tuples as f64)),
                        ("last_seq", Json::Num(s.last_seq as f64)),
                        ("degraded", Json::Bool(s.degraded)),
                        ("last_acked_seq", Json::Num(s.last_acked_seq as f64)),
                        ("expected_tuples", Json::Num(s.expected_tuples as f64)),
                    ])
                })
                .collect();
            let response = Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::Str("stats".into())),
                (
                    "coordinator",
                    Json::obj(vec![
                        ("shards", Json::Num(shard_items.len() as f64)),
                        ("live_shards", Json::Num(live_shards as f64)),
                        ("rounds", Json::Num(rounds as f64)),
                        ("routed_batches", Json::Num(routed_batches as f64)),
                        ("routed_tuples", Json::Num(routed_tuples as f64)),
                        ("requests", Json::Num(ctx.requests.load(Ordering::Relaxed) as f64)),
                        ("errors", Json::Num(ctx.errors.load(Ordering::Relaxed) as f64)),
                    ]),
                ),
                ("shards", Json::Arr(shard_items)),
            ]);
            (response, false)
        }
        Request::Advance => match lock(&ctx.coordinator).advance() {
            Ok(responses) => {
                let shard_items: Vec<Json> = responses
                    .into_iter()
                    .map(|(addr, mut response)| {
                        if let Json::Obj(pairs) = &mut response {
                            pairs.insert(0, ("addr".into(), Json::Str(addr)));
                        }
                        response
                    })
                    .collect();
                let response = Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::Str("advance".into())),
                    ("shards", Json::Arr(shard_items)),
                ]);
                (response, false)
            }
            Err(e) => (shard_error(ctx, &e), false),
        },
        Request::Subscribe { .. } => (
            error(
                ctx,
                "unsupported",
                "subscriptions attach to shards directly; the coordinator serves merged queries",
            ),
            false,
        ),
        Request::Metrics => (protocol::metrics_response(), false),
        Request::Shutdown => {
            if ctx.allow_remote_shutdown {
                (protocol::shutdown_response(), true)
            } else {
                (error(ctx, "forbidden", "remote shutdown is disabled"), false)
            }
        }
        Request::ShardIngest { .. }
        | Request::PullSnapshot
        | Request::ShardStats
        | Request::ShardRescan { .. } => (
            error(ctx, "bad-request", "shard verbs are spoken by shards; this is a coordinator"),
            false,
        ),
    }
}

fn lock(coordinator: &Mutex<Coordinator>) -> std::sync::MutexGuard<'_, Coordinator> {
    coordinator.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Adds the coverage annotation to a degraded response; full-coverage
/// responses are left untouched (byte-identical to a healthy cluster's).
fn annotate(response: &mut Json, coverage: &crate::coordinator::Coverage) {
    if coverage.degraded {
        protocol::annotate_degraded(
            response,
            coverage.live_shards as u64,
            coverage.total_shards as u64,
            coverage.covered_tuples,
            coverage.expected_tuples,
        );
    }
}

/// Re-emits a shard's structured error verbatim (so a client sees the
/// same `degraded`/`rejected` codes it would talking to the shard
/// directly); wraps transport failures as `shard`.
fn shard_error(ctx: &WorkerCtx, e: &io::Error) -> Json {
    ctx.errors.fetch_add(1, Ordering::Relaxed);
    match ServerError::of(e) {
        Some(se) => protocol::error_response(&se.code, &se.message),
        None => protocol::error_response("shard", &e.to_string()),
    }
}

fn error(ctx: &WorkerCtx, code: &str, message: &str) -> Json {
    ctx.errors.fetch_add(1, Ordering::Relaxed);
    protocol::error_response(code, message)
}
