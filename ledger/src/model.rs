//! The in-process model of the serving stack: the engine, store, wire
//! codec and coordinator logic the `dar` binaries run, called directly
//! with a span around each layer.
//!
//! The model is the traced run, and — with tracing off — the reference
//! every untraced answer is checked against. It builds its engines
//! through `dar_cli::commands::{serve, coordinator}::build` from the very
//! flags the real processes get, so configuration cannot drift between
//! the two. Request handling mirrors the server's `handle_line` for the
//! verbs the workloads use, the coordinator's routing and shard-order
//! merge, and the churn feed's publish step.

use crate::trace::{Tracer, INGEST_STAGES, QUERY_STAGES, RECOVER_STAGES, SNAPSHOT_STAGES};
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use dar_serve::json::{self, Json};
use dar_serve::protocol::{self, Request};
use dar_serve::{Durability, SharedEngine};
use mining::RuleQuery;
use std::sync::Arc;

/// The Phase II funnel of one query that built its artifacts (paper
/// §7.2: frequent clusters → graph edges → cliques → rules).
#[derive(Debug, Clone, Copy)]
pub struct Funnel {
    /// Frequent clusters (graph nodes).
    pub frequent: usize,
    /// Clustering-graph edges.
    pub edges: usize,
    /// Maximal cliques of size ≥ 2.
    pub cliques: usize,
    /// Rules generated (entering the ranking).
    pub rules_in: usize,
    /// Rules returned.
    pub rules_out: usize,
    /// Rules dropped by redundancy pruning.
    pub pruned: usize,
}

impl Funnel {
    fn of(outcome: &QueryOutcome) -> Funnel {
        Funnel {
            frequent: outcome.artifacts.graph.clusters().len(),
            edges: outcome.artifacts.graph.edges,
            cliques: outcome.artifacts.nontrivial_cliques(),
            rules_in: outcome.rules_in,
            rules_out: outcome.rules.len(),
            pruned: outcome.pruned,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn parse_flags(flags: &[String]) -> Result<dar_cli::args::Args, String> {
    dar_cli::args::parse(flags).map_err(err)
}

/// One `dar serve` process, in-process.
pub struct Node {
    shared: SharedEngine,
    store: Option<Durability>,
    wal: bool,
    base: RuleQuery,
    /// The shard duplicate-suppression watermark.
    watermark: u64,
    churn: Option<Churn>,
    /// The periodic snapshotter's interval and last run.
    sealing: Option<(std::time::Duration, std::time::Instant)>,
    /// Funnels of the queries that built Phase II artifacts.
    pub funnels: Vec<Funnel>,
}

/// The churn feed's publish state, and the event lines a subscriber would
/// have received.
#[derive(Default)]
struct Churn {
    prev_rules: Vec<String>,
    prev_epoch: u64,
    events: Vec<String>,
}

impl Node {
    /// Builds the node from `dar serve` flags, recovering from the WAL
    /// and snapshot they name (the `durable.recover` span).
    ///
    /// # Errors
    /// Bad flags or unrecoverable artifacts.
    pub fn start(t: &mut Tracer, flags: &[String]) -> Result<Node, String> {
        let (backend, config) =
            dar_cli::commands::serve::build(&parse_flags(flags)?).map_err(err)?;
        let durable = config.snapshot_path.is_some() || config.wal_path.is_some();
        let (backend, store) = if durable {
            let snapshot = config.snapshot_path.as_deref();
            let wal = config.wal_path.as_deref();
            let (backend, _) = t
                .span_staged("durable.recover", RECOVER_STAGES, |_| {
                    dar_serve::recover_backend(backend, Arc::clone(&config.storage), snapshot, wal)
                })
                .map_err(err)?;
            let store =
                Durability::open(Arc::clone(&config.storage), snapshot, wal).map_err(err)?;
            (backend, Some(store))
        } else {
            (backend, None)
        };
        Ok(Node {
            churn: backend.is_windowed().then(Churn::default),
            shared: SharedEngine::new(backend),
            store,
            wal: config.wal_path.is_some(),
            base: config.base_query,
            watermark: 0,
            sealing: config.snapshot_interval.map(|every| (every, std::time::Instant::now())),
            funnels: Vec::new(),
        })
    }

    /// The periodic snapshotter, run between requests: seals (as a
    /// `bg.seal` request) once its interval has passed.
    ///
    /// # Errors
    /// As [`Node::seal`].
    pub fn tick(&mut self, t: &mut Tracer) -> Result<(), String> {
        match self.sealing {
            Some((every, last)) if last.elapsed() >= every => {
                t.request("bg.seal", |t| self.seal(t))?;
                self.sealing = Some((every, std::time::Instant::now()));
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Serves one request line and returns the response line.
    ///
    /// # Errors
    /// Malformed requests, engine rejections, WAL failures, or a verb the
    /// model does not cover.
    pub fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<String, String> {
        let base = &self.base;
        let request = t.span("serve.decode", |_| {
            json::parse(line).map_err(err).and_then(|v| Request::from_json_with(&v, base))
        })?;
        match request {
            Request::Ingest { rows } => {
                let total = self.commit(t, &rows)?;
                Ok(encode(t, || protocol::ingest_response(rows.len() as u64, total)))
            }
            Request::ShardIngest { seq, rows } => {
                let (applied, total) = if seq <= self.watermark {
                    (false, self.shared.tuples())
                } else {
                    let total = self.commit(t, &rows)?;
                    self.watermark = seq;
                    (true, total)
                };
                Ok(encode(t, || {
                    protocol::shard_ingest_response(seq, applied, rows.len() as u64, total)
                }))
            }
            Request::Query { query } => {
                let outcome = self.query(t, &query)?;
                Ok(encode(t, || protocol::query_response(&outcome)))
            }
            Request::PullSnapshot => {
                let (bytes, epoch, tuples) = t
                    .span_staged("engine.snapshot", SNAPSHOT_STAGES, |_| {
                        self.shared.pull_snapshot()
                    })
                    .map_err(err)?;
                let sealed = dar_durable::seal_bytes(&bytes, self.watermark);
                Ok(encode(t, || protocol::pull_snapshot_response(epoch, tuples, &sealed)))
            }
            other => Err(format!("the model does not serve {other:?}")),
        }
    }

    fn query(&mut self, t: &mut Tracer, query: &RuleQuery) -> Result<QueryOutcome, String> {
        let outcome = t
            .span_staged("engine.query", QUERY_STAGES, |_| self.shared.query(query))
            .map_err(err)?;
        if !outcome.cached {
            self.funnels.push(Funnel::of(&outcome));
        }
        Ok(outcome)
    }

    /// The server's commit protocol: store lock, apply, log, then (on a
    /// window seal) publish rule churn.
    fn commit(&mut self, t: &mut Tracer, rows: &[Vec<f64>]) -> Result<u64, String> {
        let windowed = self.churn.is_some();
        let (total, moved) = {
            let mut store = self.store.as_ref().filter(|_| self.wal).map(Durability::lock);
            let shared = &self.shared;
            let name = if windowed { "stream.ingest" } else { "engine.ingest" };
            let (total, moved) =
                t.span_staged(name, INGEST_STAGES, |_| shared.ingest(rows)).map_err(err)?;
            if let Some(store) = store.as_deref_mut() {
                t.span("durable.wal_append", |_| match &moved {
                    Some(w) => store.log_tagged_batch(w.window_seq, rows),
                    None => store.log_batch(rows),
                })
                .map_err(err)?;
            }
            (total, moved)
        };
        if moved.is_some_and(|w| w.advanced) {
            self.publish(t)?;
        }
        Ok(total)
    }

    /// The churn feed's publish: mine the base query, encode each rule,
    /// diff against the previous epoch, queue an event when it changed.
    fn publish(&mut self, t: &mut Tracer) -> Result<(), String> {
        t.span("stream.publish", |t| {
            let base = self.base.clone();
            let outcome = self.query(t, &base)?;
            let rules: Vec<String> = outcome
                .rules
                .iter()
                .zip(&outcome.values)
                .map(|(rule, &value)| protocol::rule_json(rule, value).encode())
                .collect();
            let span = self.shared.window_span();
            let churn = self.churn.as_mut().ok_or("publish on a static backend")?;
            if churn.prev_epoch != 0 && outcome.epoch <= churn.prev_epoch {
                return Ok(());
            }
            let diff = t.span("stream.diff", |_| dar_stream::diff(&churn.prev_rules, &rules));
            churn.prev_rules = rules;
            churn.prev_epoch = outcome.epoch;
            if !diff.is_empty() {
                let parse = |lines: &[String]| -> Vec<Json> {
                    lines
                        .iter()
                        .map(|r| json::parse(r).unwrap_or_else(|_| Json::Str(r.clone())))
                        .collect()
                };
                let frame = protocol::event_frame(
                    outcome.epoch,
                    span,
                    parse(&diff.added),
                    parse(&diff.dropped),
                    false,
                );
                churn.events.push(frame.encode());
            }
            Ok(())
        })
    }

    /// Event lines published since the last call (what a subscriber
    /// connected from the start would read next).
    pub fn take_events(&mut self) -> Vec<String> {
        self.churn.as_mut().map(|c| std::mem::take(&mut c.events)).unwrap_or_default()
    }

    /// The server's snapshot install: store lock, close + encode the
    /// epoch, install atomically (`durable.install`).
    ///
    /// # Errors
    /// No snapshot path, or encode/install failures.
    pub fn seal(&mut self, t: &mut Tracer) -> Result<(u64, u64), String> {
        let store = self.store.as_ref().ok_or("seal without a snapshot path")?;
        let mut store = store.lock();
        let shared = &self.shared;
        let (bytes, epoch, tuples) = t
            .span_staged("engine.snapshot", SNAPSHOT_STAGES, |_| shared.snapshot())
            .map_err(err)?;
        t.span("durable.install", |_| store.install_snapshot(&bytes)).map_err(err)?;
        Ok((epoch, tuples))
    }

    /// Tuples in the mining horizon.
    pub fn tuples(&self) -> u64 {
        self.shared.tuples()
    }

    /// Clusters in the current epoch (closing it if needed).
    pub fn clusters(&self) -> usize {
        self.shared.clusters().1.len()
    }
}

/// Runs the response builder and encoder inside the `serve.encode` span.
fn encode(t: &mut Tracer, build: impl FnOnce() -> Json) -> String {
    t.span("serve.encode", |_| build().encode())
}

/// One `dar cluster-coordinator` over in-process shards: `(seq − 1) mod
/// N` routing, per-shard snapshot reuse keyed by acked watermark, and the
/// shard-order `merge_parsed_snapshots`.
pub struct Coordinator {
    /// The shards, in routing order.
    shards: Vec<Node>,
    engine: EngineConfig,
    base: RuleQuery,
    next_seq: u64,
    rounds: u64,
    routed_tuples: u64,
    acked: Vec<u64>,
    cache: Vec<Option<(u64, dar_engine::snapshot::Snapshot)>>,
    merged: Option<SharedEngine>,
    /// Ingest since the last merge: the next query re-merges.
    dirty: bool,
    /// Snapshots pulled from shards.
    pub pulls: u64,
    /// Snapshots reused from the cache.
    pub reuses: u64,
    /// Funnels of the merged engine's artifact-building queries.
    pub funnels: Vec<Funnel>,
}

impl Coordinator {
    /// Builds the shards from their `dar serve` flags and the merged
    /// engine's configuration from the coordinator's flags.
    ///
    /// # Errors
    /// Bad flags or unrecoverable shard artifacts.
    pub fn start(
        t: &mut Tracer,
        shard_flags: &[Vec<String>],
        coordinator_flags: &[String],
    ) -> Result<Coordinator, String> {
        let shards =
            shard_flags.iter().map(|f| Node::start(t, f)).collect::<Result<Vec<_>, _>>()?;
        let config =
            dar_cli::commands::coordinator::build(&parse_flags(coordinator_flags)?).map_err(err)?;
        let n = shards.len();
        Ok(Coordinator {
            shards,
            engine: config.engine,
            base: config.base_query,
            next_seq: 1,
            rounds: 0,
            routed_tuples: 0,
            acked: vec![0; n],
            cache: (0..n).map(|_| None).collect(),
            merged: None,
            dirty: true,
            pulls: 0,
            reuses: 0,
            funnels: Vec::new(),
        })
    }

    /// Serves one client request line (`ingest` or `query`).
    ///
    /// # Errors
    /// Shard failures, merge failures, or an unmodelled verb.
    pub fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<String, String> {
        let base = &self.base;
        let request = t.span("serve.decode", |_| {
            json::parse(line).map_err(err).and_then(|v| Request::from_json_with(&v, base))
        })?;
        match request {
            Request::Ingest { rows } => {
                let seq = self.next_seq;
                let home = ((seq - 1) % self.shards.len() as u64) as usize;
                let shard = &mut self.shards[home];
                let ack = t.span("cluster.route", |t| {
                    let line = Request::ShardIngest { seq, rows: rows.clone() }.to_json().encode();
                    let response = shard.handle(t, &line)?;
                    json::parse(&response).map_err(err)
                })?;
                if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("shard {home} refused batch {seq}: {}", ack.encode()));
                }
                self.acked[home] = seq;
                self.next_seq += 1;
                self.routed_tuples += rows.len() as u64;
                self.dirty = true;
                let total = self.routed_tuples;
                Ok(encode(t, || protocol::ingest_response(rows.len() as u64, total)))
            }
            Request::Query { query } => {
                if self.dirty {
                    t.span("cluster.merge", |t| self.merge(t))?;
                }
                let merged = self.merged.as_ref().ok_or("no merged engine")?;
                let outcome = t
                    .span_staged("engine.query", QUERY_STAGES, |_| merged.query(&query))
                    .map_err(err)?;
                if !outcome.cached {
                    self.funnels.push(Funnel::of(&outcome));
                }
                Ok(encode(t, || protocol::query_response(&outcome)))
            }
            other => Err(format!("the coordinator model does not serve {other:?}")),
        }
    }

    fn merge(&mut self, t: &mut Tracer) -> Result<(), String> {
        let pool = dar_par::ThreadPool::resolve(self.engine.threads);
        let mut snaps = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            if let Some((acked, snap)) = &self.cache[i] {
                if *acked == self.acked[i] {
                    self.reuses += 1;
                    snaps.push(snap.clone());
                    continue;
                }
            }
            let shard = &mut self.shards[i];
            let snap = t.span("cluster.pull", |t| {
                let line = Request::PullSnapshot.to_json().encode();
                let response = json::parse(&shard.handle(t, &line)?).map_err(err)?;
                let b64 =
                    response.get("snapshot_b64").and_then(Json::as_str).ok_or("no snapshot")?;
                let sealed = dar_serve::b64::decode(b64)?;
                let (body, _) = dar_durable::unseal_bytes(&sealed)?;
                t.span("persist.decode", |_| {
                    dar_engine::snapshot::parse_snapshot_bytes(body, &pool).map_err(err)
                })
            })?;
            self.pulls += 1;
            self.cache[i] = Some((self.acked[i], snap.clone()));
            snaps.push(snap);
        }
        let (rounds, engine) = (self.rounds, self.engine.clone());
        let merged = t
            .span("birch.merge", |_| DarEngine::merge_parsed_snapshots(snaps, rounds, engine))
            .map_err(err)?;
        self.rounds += 1;
        self.merged = Some(SharedEngine::new(merged));
        self.dirty = false;
        Ok(())
    }

    /// Clusters in the merged engine's current epoch.
    pub fn clusters(&self) -> usize {
        self.merged.as_ref().map_or(0, |m| m.clusters().1.len())
    }
}
