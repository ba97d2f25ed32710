//! The coordinator front-end: the coordinator's handler behind `dar-serve`'s
//! shared front door, speaking the ordinary client protocol, so existing
//! clients point at a coordinator unchanged.
//!
//! The front door (one acceptor behind a bounded `sync_channel`, a fixed
//! worker pool, refuse-not-queue backpressure, bounded request lines,
//! `metrics`/`shutdown`, graceful shutdown, per-verb accounting) is the
//! one `dar serve` uses; each request resolves against the
//! [`Coordinator`] (under a mutex: the coordinator's own work per request
//! is a round trip or two; the heavy lifting happens on the shards and
//! inside the merged engine).

use crate::coordinator::Coordinator;
use dar_serve::front::{FrontConfig, FrontDoor, Handler, Reply};
use dar_serve::json::Json;
use dar_serve::protocol::{self, Request};
use dar_serve::{ServerError, ServerStats};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// What the coordinator puts behind the front door.
struct CoordinatorHandler {
    coordinator: Arc<Mutex<Coordinator>>,
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
        let cfg = coordinator.config();
        let front_config = FrontConfig {
            threads: cfg.threads,
            queue_depth: cfg.queue_depth,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            allow_remote_shutdown: cfg.allow_remote_shutdown,
            metrics_addr: cfg.metrics_addr.clone(),
            base_query: cfg.base_query.clone(),
        };
        let coordinator = Arc::new(Mutex::new(coordinator));
        let handler = CoordinatorHandler { coordinator: Arc::clone(&coordinator) };
        let front = FrontDoor::start(addr, front_config, Arc::new(handler))?;
        Ok(CoordinatorHandle { front, coordinator })
    }
}

/// A handle to a running coordinator front-end.
pub struct CoordinatorHandle {
    front: FrontDoor,
    coordinator: Arc<Mutex<Coordinator>>,
}

impl CoordinatorHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The coordinator, for in-process driving alongside the server.
    pub fn coordinator(&self) -> &Arc<Mutex<Coordinator>> {
        &self.coordinator
    }

    /// Triggers graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// Waits for every thread to exit. Call [`CoordinatorHandle::shutdown`]
    /// first — or let a wire `shutdown` arrive — or this blocks.
    pub fn join(mut self) {
        self.front.join();
    }
}

impl Handler for CoordinatorHandler {
    fn handle(&self, request: Request, stats: &ServerStats) -> Reply {
        let response = match request {
            Request::Ingest { rows } => {
                let count = rows.len() as u64;
                let result = lock(&self.coordinator).ingest(&rows);
                match result {
                    Ok(total) => protocol::ingest_response(count, total),
                    Err(e) => shard_error(&e),
                }
            }
            Request::Query { query } => self.query(&query),
            Request::Clusters => match lock(&self.coordinator).clusters() {
                Ok((epoch, clusters, coverage)) => {
                    let mut response = protocol::clusters_response(epoch, &clusters);
                    annotate(&mut response, &coverage);
                    response
                }
                Err(e) => shard_error(&e),
            },
            Request::Snapshot => match lock(&self.coordinator).snapshot() {
                Ok((_, epoch, tuples, coverage)) => {
                    let mut response = protocol::snapshot_response(epoch, tuples, None);
                    annotate(&mut response, &coverage);
                    response
                }
                Err(e) => shard_error(&e),
            },
            Request::Stats => self.stats(stats),
            Request::Advance => match lock(&self.coordinator).advance() {
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
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("verb", Json::Str("advance".into())),
                        ("shards", Json::Arr(shard_items)),
                    ])
                }
                Err(e) => shard_error(&e),
            },
            Request::Subscribe { .. } => protocol::error_response(
                "unsupported",
                "subscriptions attach to shards directly; the coordinator serves merged queries",
            ),
            Request::ShardIngest { .. }
            | Request::PullSnapshot
            | Request::ShardStats
            | Request::ShardRescan { .. } => protocol::error_response(
                "bad-request",
                "shard verbs are spoken by shards; this is a coordinator",
            ),
            // The front door answers these itself.
            Request::Metrics | Request::Shutdown => {
                protocol::error_response("internal", "verb is served by the front door")
            }
        };
        Reply::Respond(response)
    }
}

impl CoordinatorHandler {
    fn query(&self, query: &mining::RuleQuery) -> Json {
        let mut coordinator = lock(&self.coordinator);
        let (outcome, coverage) = match coordinator.query(query) {
            Ok(answer) => answer,
            Err(e) => return shard_error(&e),
        };
        let mut response = protocol::query_response(&outcome);
        // The rescan rides along as *extra* keys so the base response
        // stays byte-compatible with a single server when rescan is off.
        // A degraded answer skips it: the SON pass needs every shard to
        // be exact.
        if coordinator.rescan_enabled() && !coverage.degraded {
            match coordinator.rescan(&outcome) {
                Ok((rows_rescanned, counts)) => {
                    if let Json::Obj(pairs) = &mut response {
                        pairs.push(("rescan_rows".into(), Json::Num(rows_rescanned as f64)));
                        pairs.push((
                            "rescan_counts".into(),
                            Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()),
                        ));
                    }
                }
                Err(e) => return shard_error(&e),
            }
        }
        annotate(&mut response, &coverage);
        response
    }

    /// The `stats` verb: the coordinator's routing and shard health, with
    /// `requests`/`errors` read from the front door's request table.
    fn stats(&self, stats: &ServerStats) -> Json {
        let mut coordinator = lock(&self.coordinator);
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
        let table = stats.snapshot();
        Json::obj(vec![
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
                    ("requests", Json::Num(table.total_requests() as f64)),
                    ("errors", Json::Num(table.error_responses as f64)),
                ]),
            ),
            ("shards", Json::Arr(shard_items)),
        ])
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
fn shard_error(e: &io::Error) -> Json {
    match ServerError::of(e) {
        Some(se) => protocol::error_response(&se.code, &se.message),
        None => protocol::error_response("shard", &e.to_string()),
    }
}
