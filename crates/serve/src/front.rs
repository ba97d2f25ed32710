//! The front door both servers share: `dar serve` and the cluster
//! coordinator differ only in the [`Handler`] they pass in.
//!
//! Concurrency model (`std::net` + `std::thread` only):
//!
//! * one **acceptor** thread pushes accepted sockets into a bounded
//!   `sync_channel`; when the queue is full the connection is *refused
//!   with a structured `overloaded` error* rather than queued
//!   unboundedly (backpressure, counted in `rejected_connections`);
//! * `threads` **workers** pop connections and serve requests line by
//!   line under per-connection read/write timeouts. Each line is bounded
//!   ([`protocol::RequestLines`]: an oversized one gets `line-too-long`
//!   and the connection closes), parsed (`bad-json`/`bad-request` on
//!   failure), and answered: `metrics` and `shutdown` here, every other
//!   verb by the handler;
//! * every request is recorded once, after its response is written, in
//!   the server's [`ServerStats`] table and the global per-verb series;
//! * **graceful shutdown** via a shutdown pipe (an atomic flag plus a
//!   self-connection to unblock `accept`): triggered by
//!   [`FrontDoor::shutdown`] or the wire verb `shutdown` (when
//!   `allow_remote_shutdown` permits), it stops accepting, shuts the read
//!   half of every connection a worker is serving, and lets the workers
//!   drain the queue and exit. A request already read is answered; an
//!   idle client reads end-of-stream at once instead of holding its
//!   worker for the rest of the read timeout.

use crate::json::{self, Json};
use crate::protocol::{self, Request, RequestLine, Verb};
use crate::stats::ServerStats;
use mining::RuleQuery;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The front door's knobs: the fields `ServeConfig` and `ClusterConfig`
/// share.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Worker pool size.
    pub threads: usize,
    /// Bounded accept queue depth.
    pub queue_depth: usize,
    /// Per-connection read timeout (an idle client is disconnected).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Whether the wire verb `shutdown` may stop the server.
    pub allow_remote_shutdown: bool,
    /// Optional Prometheus exposition address for the global registry.
    pub metrics_addr: Option<String>,
    /// Query knobs a `query` request does not send fall back to these.
    pub base_query: RuleQuery,
}

/// A handler's answer to one request.
pub enum Reply {
    /// Write the response and keep serving the connection.
    Respond(Json),
    /// Write the response, then give the socket to the closure and free
    /// the worker: the connection stops being request/response.
    HandOver(Json, Box<dyn FnOnce(TcpStream) -> io::Result<()> + Send>),
}

impl From<Json> for Reply {
    fn from(response: Json) -> Reply {
        Reply::Respond(response)
    }
}

/// What a server puts behind the front door: a map from a parsed request
/// to its reply. `metrics` and `shutdown` never reach it. `stats` is this
/// server's request table, for the `stats` verb.
pub trait Handler: Send + Sync + 'static {
    /// Answers one request.
    fn handle(&self, request: Request, stats: &ServerStats) -> Reply;
}

/// The shutdown pipe: an atomic flag plus the listener's own address, so
/// `trigger` can unblock the acceptor's blocking `accept` with a
/// self-connection (the SIGINT-equivalent in a std-only server), and the
/// connections the workers are serving, so `trigger` can end their
/// blocking reads.
pub(crate) struct ShutdownSignal {
    flag: AtomicBool,
    addr: SocketAddr,
    /// A handle on each connection a worker is serving, by serial number.
    serving: Mutex<HashMap<u64, TcpStream>>,
    next_serial: AtomicU64,
}

impl ShutdownSignal {
    fn new(addr: SocketAddr) -> ShutdownSignal {
        ShutdownSignal {
            flag: AtomicBool::new(false),
            addr,
            serving: Mutex::new(HashMap::new()),
            next_serial: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    fn trigger(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the acceptor out of accept(2).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        for stream in self.serving().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Tracks `stream` until the returned guard drops. A stream tracked
    /// after the flag is set has its read half shut at once: the flag is
    /// read under the same lock `trigger` walks the streams under, so no
    /// stream escapes both.
    fn track(&self, stream: &TcpStream) -> io::Result<Serving<'_>> {
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let mut serving = self.serving();
        if self.is_set() {
            stream.shutdown(Shutdown::Read)?;
        }
        serving.insert(serial, stream.try_clone()?);
        Ok(Serving { signal: self, serial })
    }

    fn serving(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.serving.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A connection [`ShutdownSignal::track`] follows, until this drops.
struct Serving<'a> {
    signal: &'a ShutdownSignal,
    serial: u64,
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        self.signal.serving().remove(&self.serial);
    }
}

/// What the acceptor and every worker share.
struct Door {
    handler: Arc<dyn Handler>,
    stats: ServerStats,
    shutdown: Arc<ShutdownSignal>,
    config: FrontConfig,
}

/// A running front door: the bound address, the request table, and the
/// shutdown/join lifecycle of its threads.
pub struct FrontDoor {
    addr: SocketAddr,
    door: Arc<Door>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    exposer: Option<dar_obs::MetricsExposer>,
}

impl FrontDoor {
    /// Binds `addr` (port 0 for ephemeral), the optional metrics
    /// listener, and starts the acceptor and the worker pool. Returns
    /// immediately; the door serves until [`FrontDoor::shutdown`] or a
    /// wire `shutdown`.
    ///
    /// # Errors
    /// Bind and thread-spawn failures.
    pub fn start(
        addr: &str,
        config: FrontConfig,
        handler: Arc<dyn Handler>,
    ) -> io::Result<FrontDoor> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let exposer = match &config.metrics_addr {
            Some(metrics_addr) => Some(dar_obs::MetricsExposer::bind(metrics_addr.as_str())?),
            None => None,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let threads = config.threads.max(1);
        let door = Arc::new(Door {
            handler,
            stats: ServerStats::default(),
            shutdown: Arc::new(ShutdownSignal::new(local_addr)),
            config,
        });

        let mut workers = Vec::with_capacity(threads);
        for worker_id in 0..threads {
            let (rx, door) = (Arc::clone(&rx), Arc::clone(&door));
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dar-front-worker-{worker_id}"))
                    .spawn(move || worker_loop(&rx, &door))?,
            );
        }
        let acceptor = {
            let door = Arc::clone(&door);
            // Dropping `tx` when the loop ends lets workers drain the queue
            // and exit.
            std::thread::Builder::new()
                .name("dar-front-acceptor".into())
                .spawn(move || accept_loop(&listener, &tx, &door))?
        };
        Ok(FrontDoor { addr: local_addr, door, acceptor: Some(acceptor), workers, exposer })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's request table.
    pub fn stats(&self) -> &ServerStats {
        &self.door.stats
    }

    /// Where the Prometheus exposition listener is bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exposer.as_ref().map(dar_obs::MetricsExposer::addr)
    }

    /// The shutdown flag, for background threads that live as long as
    /// the door.
    pub(crate) fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.door.shutdown)
    }

    /// Triggers graceful shutdown (idempotent): stop accepting, end every
    /// connection after the request it is serving (if any), drain the
    /// queue.
    pub fn shutdown(&self) {
        self.door.shutdown.trigger();
    }

    /// Waits for the acceptor and every worker to exit, then stops the
    /// metrics listener. Call [`FrontDoor::shutdown`] first — or let a
    /// wire `shutdown` arrive — or this blocks until one happens.
    pub fn join(&mut self) {
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

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, door: &Door) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if door.shutdown.is_set() {
                    break;
                }
                continue;
            }
        };
        if door.shutdown.is_set() {
            break; // the wake-up self-connection (or a late client)
        }
        // Every frame goes out in one write; don't hold its tail for an ACK.
        let _ = stream.set_nodelay(true);
        match tx.try_send(stream) {
            Ok(()) => door.stats.count_connection(),
            Err(TrySendError::Full(stream)) => {
                door.stats.count_rejected();
                refuse(stream, door.config.write_timeout);
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

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, door: &Door) {
    loop {
        // Hold the lock only for the pop, never while serving.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match stream {
            Ok(stream) => {
                let _ = serve_connection(stream, door);
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(mut stream: TcpStream, door: &Door) -> io::Result<()> {
    stream.set_read_timeout(Some(door.config.read_timeout))?;
    stream.set_write_timeout(Some(door.config.write_timeout))?;
    let _serving = door.shutdown.track(&stream)?;
    let mut lines = protocol::RequestLines::new(stream.try_clone()?);
    loop {
        let line = match lines.next_line() {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let (code, message) = protocol::LINE_TOO_LONG;
                door.stats.count_error();
                protocol::write_frame(
                    &mut stream,
                    protocol::error_response(code, message).encode(),
                )?;
                break;
            }
            // EOF, timeout, reset, or a line that is not UTF-8.
            Ok(RequestLine::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let (verb, reply) = dispatch(line, door);
        let (response, hand_over) = match reply {
            Reply::Respond(response) => (response, None),
            Reply::HandOver(response, take) => (response, Some(take)),
        };
        let error = response.get("ok").and_then(Json::as_bool) == Some(false);
        let written = protocol::write_frame(&mut stream, response.encode())?;
        // Both sides count the newline framing the codec strips/adds.
        door.stats.record(verb, started.elapsed(), line.len() as u64 + 1, written, error);
        if let Some(take) = hand_over {
            return take(stream);
        }
        if verb == Some(Verb::Shutdown) && !error {
            door.shutdown.trigger();
            break;
        }
    }
    Ok(())
}

/// Parses one request line and answers it: `metrics` and `shutdown`
/// here, everything else through the handler. Returns the verb the
/// request resolved to (`None` for a line that did not parse).
fn dispatch(line: &str, door: &Door) -> (Option<Verb>, Reply) {
    let request = match json::parse(line) {
        Ok(value) => match Request::from_json_with(&value, &door.config.base_query) {
            Ok(request) => request,
            Err(message) => {
                return (None, protocol::error_response("bad-request", &message).into())
            }
        },
        Err(e) => return (None, protocol::error_response("bad-json", &e.to_string()).into()),
    };
    let verb = request.verb();
    let reply = match request {
        Request::Metrics => protocol::metrics_response().into(),
        Request::Shutdown if door.config.allow_remote_shutdown => {
            protocol::shutdown_response().into()
        }
        Request::Shutdown => {
            protocol::error_response("forbidden", "remote shutdown is disabled").into()
        }
        request => door.handler.handle(request, &door.stats),
    };
    (Some(verb), reply)
}
