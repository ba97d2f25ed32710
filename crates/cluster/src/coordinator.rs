//! The coordinator: deterministic batch routing, snapshot pull-and-merge,
//! shard health tracking with partial-availability serving, and the
//! SON-style exact rescan.

use crate::config::ClusterConfig;
use crate::health::{HealthBoard, ShardHealth};
use crate::metrics::{metrics, shard_request_ns};
use dar_core::ClusterSummary;
use dar_engine::{DarEngine, QueryOutcome};
use dar_serve::protocol::{self, Request};
use dar_serve::{Client, Json, ServerError, SharedEngine};
use mining::RuleQuery;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's identity, as the coordinator last saw it.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// The shard's address, as configured.
    pub addr: String,
    /// The shard's health state on the coordinator's board.
    pub health: ShardHealth,
    /// Whether `tuples`/`last_seq`/`degraded` come from a live
    /// `shard_stats` exchange (`true`) or from the coordinator's cached
    /// watermarks because the shard is unreachable (`false`).
    pub live: bool,
    /// Tuples the shard's engine holds (or must hold, when cached).
    pub tuples: u64,
    /// The highest coordinator batch seq the shard reports committed (its
    /// in-memory watermark; resets on restart even though WAL replay
    /// restores the data).
    pub last_seq: u64,
    /// Whether the shard is in degraded (read-only) mode.
    pub degraded: bool,
    /// The highest coordinator batch seq this coordinator saw the shard
    /// acknowledge — the coordinator-side watermark, which survives shard
    /// restarts.
    pub last_acked_seq: u64,
    /// Tuples the shard must hold to cover everything it acknowledged.
    pub expected_tuples: u64,
}

/// How much of the cluster's acknowledged data an answer covers.
///
/// A full-coverage answer (`degraded == false`) saw every acknowledged
/// tuple; a degraded one ([`ClusterConfig::allow_partial`]) merged only
/// the live shards and says exactly how much it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Whether any shard's slice is missing from the answer.
    pub degraded: bool,
    /// Shards whose snapshots the answer merged.
    pub live_shards: usize,
    /// Shards configured.
    pub total_shards: usize,
    /// Acknowledged tuples on the merged shards.
    pub covered_tuples: u64,
    /// Acknowledged tuples cluster-wide.
    pub expected_tuples: u64,
}

impl Coverage {
    /// The covered fraction of acknowledged tuples (1.0 on an empty
    /// cluster).
    pub fn fraction(&self) -> f64 {
        if self.expected_tuples == 0 {
            1.0
        } else {
            self.covered_tuples as f64 / self.expected_tuples as f64
        }
    }
}

/// One configured shard. The connection is lazy: `None` until the first
/// (re)dial succeeds, dropped again on transport failure so the next
/// request starts from a clean socket.
struct Shard {
    addr: String,
    client: Option<Client>,
    request_ns: dar_obs::Histogram,
}

/// One shard's last pulled snapshot, parsed, keyed by the acked
/// watermark it was pulled at. Batches reach a shard only through this
/// coordinator, so as long as the shard's acked seq has not moved (and
/// no window advance intervened — [`Coordinator::advance`] clears the
/// cache), the shard's snapshot content is exactly what was verified at
/// pull time and the round trip plus parse can be skipped.
struct CachedSnap {
    acked_seq: u64,
    snap: dar_engine::snapshot::Snapshot,
}

/// The merged engine plus the coverage it was built under.
struct MergedView {
    shared: Arc<SharedEngine>,
    coverage: Coverage,
    /// The health-board generation at merge time: a degraded view is
    /// rebuilt when the generation moved (a shard came back or went away).
    health_epoch: u64,
}

/// The background health prober: its own thread, its own short-timeout
/// connections, stopped on coordinator drop.
struct Prober {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The cluster coordinator: owns the global batch sequence, fans ingest
/// across shards, and serves Phase II from the merged summary.
///
/// Single-threaded by design — the front-end serializes access (the
/// coordinator's work per request is one or two round trips; the heavy
/// concurrent serving happens *inside* the merged [`SharedEngine`]'s
/// cached read path and on the shards themselves). The only background
/// activity is the health prober, which shares the lock-free
/// [`HealthBoard`] and never touches the coordinator's own sockets.
pub struct Coordinator {
    shards: Vec<Shard>,
    config: ClusterConfig,
    board: Arc<HealthBoard>,
    _prober: Option<Prober>,
    /// The next batch sequence number to assign (1-based).
    next_seq: u64,
    /// Completed *full-coverage* merge rounds; doubles as the
    /// `epoch_base` of the next merge, so coordinator query epochs
    /// advance exactly like a single engine's ingest→query cycles.
    /// Degraded merges do not count — they are provisional views, and
    /// counting them would desynchronize epoch numbering from the
    /// equivalent single server the cluster re-converges with.
    rounds: u64,
    merged: Option<MergedView>,
    /// Per-shard parsed-snapshot cache for merge rounds, keyed by acked
    /// watermark (see [`CachedSnap`]).
    snap_cache: Vec<Option<CachedSnap>>,
    /// Ingest since the last merge: the next query must re-pull.
    dirty: bool,
    routed_batches: u64,
    routed_tuples: u64,
}

impl Coordinator {
    /// Connects to every shard and performs the `shard_stats` handshake:
    /// all reachable shards must agree on the expected row width (same
    /// partitioning), and the global sequence resumes above the highest
    /// watermark any reachable shard reports (a restarted coordinator
    /// must not reuse sequence numbers a shard has already committed).
    ///
    /// With [`ClusterConfig::allow_partial`], unreachable shards are
    /// marked Down instead of failing the connect (at least one shard
    /// must respond, to agree the width); the prober verifies them back
    /// in when they return. Note the sequence-resume watermark then only
    /// covers the reachable shards — routing stays safe within this
    /// coordinator's lifetime (the in-process sequence is monotone), but
    /// a coordinator *restart* while a shard holding the highest
    /// watermark is down should be followed by a check of
    /// `dar_cluster_dup_acks_total`.
    ///
    /// # Errors
    /// Connection failures (every shard, under `allow_partial`), an empty
    /// shard list, or shards whose row widths disagree.
    pub fn connect(config: ClusterConfig) -> io::Result<Coordinator> {
        if config.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shards configured"));
        }
        let board = Arc::new(HealthBoard::new(config.shards.len(), config.down_after));
        let mut shards = Vec::with_capacity(config.shards.len());
        let mut width: Option<u64> = None;
        let mut max_seq = 0u64;
        let mut first_err: Option<io::Error> = None;
        for (i, addr) in config.shards.iter().enumerate() {
            let handshake = Client::connect(addr.as_str(), config.timeout)
                .and_then(|mut client| client.shard_stats().map(|stats| (client, stats)));
            let (client, stats) = match handshake {
                Ok(pair) => pair,
                Err(e) if config.allow_partial => {
                    metrics().shard_failures.inc();
                    board.force_down(i);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    shards.push(Shard {
                        addr: addr.clone(),
                        client: None,
                        request_ns: shard_request_ns(i),
                    });
                    continue;
                }
                Err(e) => return Err(e),
            };
            let shard_width = stats.get("width").and_then(Json::as_u64).unwrap_or(0);
            match width {
                None => width = Some(shard_width),
                Some(w) if w != shard_width => {
                    return Err(io::Error::other(format!(
                        "shard {i} ({addr}) expects rows of width {shard_width}, \
                         an earlier shard expects {w}: shards must share one partitioning"
                    )));
                }
                Some(_) => {}
            }
            let last_seq = stats.get("last_seq").and_then(Json::as_u64).unwrap_or(0);
            max_seq = max_seq.max(last_seq);
            board.publish(i, last_seq, stats.get("tuples").and_then(Json::as_u64).unwrap_or(0));
            shards.push(Shard {
                addr: addr.clone(),
                client: Some(client),
                request_ns: shard_request_ns(i),
            });
        }
        let Some(width) = width else {
            return Err(first_err.unwrap_or_else(|| io::Error::other("no shard reachable")));
        };
        let prober = spawn_prober(&config, &board, width);
        let snap_cache = (0..shards.len()).map(|_| None).collect();
        Ok(Coordinator {
            shards,
            config,
            board,
            _prober: prober,
            next_seq: max_seq + 1,
            rounds: 0,
            merged: None,
            snap_cache,
            dirty: true,
            routed_batches: 0,
            routed_tuples: 0,
        })
    }

    /// Number of configured shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards not currently marked Down.
    pub fn live_shards(&self) -> usize {
        self.board.live_count()
    }

    /// The shared health board (for tests and diagnostics).
    pub fn health(&self) -> &HealthBoard {
        &self.board
    }

    /// Batches and tuples routed (and acknowledged) so far.
    pub fn routed(&self) -> (u64, u64) {
        (self.routed_batches, self.routed_tuples)
    }

    /// One request against shard `idx`, with the full fault-tolerance
    /// policy applied: fast-fail if the shard is Down (a structured
    /// `shard-down` error, no socket touched), lazy redial, the
    /// transient-retry backoff under the hard per-request deadline
    /// budget, latency recorded, and the health board updated from the
    /// outcome.
    fn shard_request(&mut self, idx: usize, request: &Request) -> io::Result<Json> {
        if self.board.state(idx) == ShardHealth::Down {
            metrics().fast_fails.inc();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                ServerError {
                    code: "shard-down".into(),
                    message: format!(
                        "shard {idx} ({}) is marked down; awaiting rejoin",
                        self.shards[idx].addr
                    ),
                },
            ));
        }
        let deadline = Instant::now() + self.config.deadline;
        let shard = &mut self.shards[idx];
        if shard.client.is_none() {
            match Client::connect(
                shard.addr.as_str(),
                self.config.timeout.min(self.config.deadline),
            ) {
                Ok(client) => shard.client = Some(client),
                Err(e) => {
                    metrics().shard_failures.inc();
                    self.board.record_failure(idx);
                    return Err(e);
                }
            }
        }
        let t = Instant::now();
        let result = shard
            .client
            .as_mut()
            .expect("client dialed above")
            .request_with_retry_deadline(request, &self.config.backoff, Some(deadline));
        shard.request_ns.observe_duration(t.elapsed());
        match &result {
            Ok(_) => {
                if self.board.record_success(idx) {
                    metrics().rejoins.inc();
                }
            }
            Err(e) if is_shard_reply(e) => {
                // The shard responded (a structured refusal): transport
                // is healthy even though the request failed.
                self.board.record_success(idx);
            }
            Err(_) => {
                metrics().shard_failures.inc();
                self.board.record_failure(idx);
                shard.client = None;
            }
        }
        result
    }

    /// Routes one batch to its deterministic home shard, `(seq - 1) mod
    /// n`, and returns the cumulative acknowledged tuple count (matching
    /// the `total` a single server's ingest response reports when every
    /// batch is acked).
    ///
    /// Transport failures (a dead, Down, or unreachable shard, after the
    /// deadline-budgeted retries) fail over to the next shard in order —
    /// availability over placement determinism, counted in
    /// `dar_cluster_degraded_routes_total`; shards already marked Down
    /// are skipped without touching a socket. Structured server errors
    /// (`rejected` rows, `degraded` shards) are returned to the caller
    /// unchanged: re-sending bad data elsewhere would just fail again,
    /// and rerouting around a *reachable* shard would double-apply when
    /// it was merely slow. The sequence number is only consumed on
    /// success, so a failed call can simply be retried.
    ///
    /// # Errors
    /// A structured shard error, or the last transport error once every
    /// shard has been tried.
    pub fn ingest(&mut self, rows: &[Vec<f64>]) -> io::Result<u64> {
        let n = self.shards.len();
        let seq = self.next_seq;
        let home = ((seq - 1) % n as u64) as usize;
        let mut last_err = None;
        for attempt in 0..n {
            let idx = (home + attempt) % n;
            let request = Request::ShardIngest { seq, rows: rows.to_vec() };
            match self.shard_request(idx, &request) {
                Ok(response) => {
                    if response.get("applied").and_then(Json::as_bool) == Some(false) {
                        metrics().dup_acks.inc();
                    }
                    if attempt > 0 {
                        metrics().degraded_routes.inc();
                    }
                    self.board.acked(idx, seq, rows.len() as u64);
                    self.next_seq += 1;
                    self.dirty = true;
                    self.routed_batches += 1;
                    self.routed_tuples += rows.len() as u64;
                    metrics().batches_routed.inc();
                    metrics().tuples_routed.add(rows.len() as u64);
                    return Ok(self.routed_tuples);
                }
                Err(e) if is_shard_reply(&e) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no shards configured")))
    }

    /// The merged engine, re-merging first if ingest has happened since
    /// the last merge (or if the last view was degraded and shard health
    /// changed since): obtain one parsed snapshot per shard *in shard
    /// order* (order shapes the merged forest and is part of the
    /// deterministic contract) and rebuild via
    /// [`DarEngine::merge_parsed_snapshots`].
    ///
    /// A shard's snapshot is **reused from cache** when its acked
    /// watermark has not moved since the last pull: batches reach shards
    /// only through this coordinator, so an unmoved watermark means
    /// unchanged content, and the pull, unseal, and parse are all
    /// skipped (`dar_cluster_snapshot_reuses_total`). In steady state —
    /// ingest touching a subset of shards between queries — only the
    /// shards that actually advanced are re-pulled. Shards actually
    /// pulled have their footer verified and must cover everything they
    /// acknowledged.
    ///
    /// With [`ClusterConfig::allow_partial`], shards that are Down or
    /// whose pull fails are skipped and the answer carries a degraded
    /// [`Coverage`]; at least one shard must contribute. Integrity
    /// failures are never waived: a *reachable* shard holding fewer
    /// tuples than it acknowledged fails the merge regardless, because a
    /// silently incomplete "full" answer is worse than no answer.
    ///
    /// # Errors
    /// Shard transport failures (with `allow_partial`: of every shard), a
    /// snapshot whose checksum footer fails, a footer proving an
    /// acknowledged batch is missing, or mismatched shard partitionings.
    pub fn ensure_merged(&mut self) -> io::Result<(Arc<SharedEngine>, Coverage)> {
        let health_epoch = self.board.epoch();
        if !self.dirty {
            if let Some(view) = &self.merged {
                // A full view stays valid until ingest dirties it; a
                // degraded one is also invalidated by any health
                // transition, so recovered shards re-enter the answer.
                if !view.coverage.degraded || view.health_epoch == health_epoch {
                    return Ok((Arc::clone(&view.shared), view.coverage.clone()));
                }
            }
        }
        let t = Instant::now();
        let total_shards = self.shards.len();
        let pool = dar_par::ThreadPool::resolve(self.config.engine.threads);
        // Shards contributing to this merge, in shard order; their parsed
        // snapshots live in `snap_cache` and are merged from there.
        let mut contributing = Vec::with_capacity(total_shards);
        let mut covered_tuples = 0u64;
        let mut expected_total = 0u64;
        let mut live = 0usize;
        let mut first_err: Option<io::Error> = None;
        for i in 0..total_shards {
            let expected = self.board.expected_tuples(i);
            expected_total += expected;
            let acked = self.board.last_acked_seq(i);
            // Reuse only for shards currently Up: the cache is a perf
            // optimization for reachable shards, not an availability
            // mechanism — serving a Suspect/Down shard's cached slice
            // would claim coverage the cluster cannot currently verify,
            // and the chaos contract requires honesty over availability.
            if self.board.state(i) == ShardHealth::Up {
                if let Some(cached) = &self.snap_cache[i] {
                    if cached.acked_seq == acked {
                        metrics().snapshot_reuses.inc();
                        contributing.push(i);
                        covered_tuples += expected;
                        live += 1;
                        continue;
                    }
                }
            }
            self.snap_cache[i] = None;
            let response = match self.shard_request(i, &Request::PullSnapshot) {
                Ok(response) => response,
                Err(e) => {
                    if !self.config.allow_partial {
                        return Err(e);
                    }
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    continue;
                }
            };
            // Binary engine snapshots ride the JSON wire base64-encoded.
            let (_, tuples, sealed) = protocol::decode_pull_snapshot(&response).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("shard {i}: {e}"))
            })?;
            // Wire-corruption check on unseal; the footer seq is
            // informational — it is the shard's *in-memory* watermark,
            // which a restart resets even when WAL recovery rebuilt
            // every batch.
            let (body, _) = dar_durable::unseal_bytes(&sealed).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("shard {i}: {e}"))
            })?;
            // The restart-proof lost-data check: the shard must hold at
            // least every tuple it ever acknowledged (WAL replay restores
            // the count after a crash; a shard that comes back lighter
            // lost an acked batch, and serving rules that silently
            // exclude it is the one thing the cluster must never do).
            if tuples < expected {
                return Err(io::Error::other(format!(
                    "shard {i} ({}) holds {tuples} tuples but acknowledged {expected}: \
                     an acknowledged batch is missing",
                    self.shards[i].addr
                )));
            }
            let snap = dar_engine::snapshot::parse_snapshot_bytes(body, &pool).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("shard {i} snapshot: {e}"))
            })?;
            metrics().snapshot_pulls.inc();
            self.snap_cache[i] = Some(CachedSnap { acked_seq: acked, snap });
            contributing.push(i);
            covered_tuples += expected;
            live += 1;
        }
        if live == 0 {
            return Err(first_err.unwrap_or_else(|| io::Error::other("no live shards")));
        }
        let degraded = live < total_shards;
        let epoch_base = self.rounds;
        let snaps: Vec<&dar_engine::snapshot::Snapshot> = contributing
            .iter()
            .map(|&i| &self.snap_cache[i].as_ref().expect("contributing shards are cached").snap)
            .collect();
        let engine =
            DarEngine::merge_parsed_snapshots(snaps, epoch_base, self.config.engine.clone())
                .map_err(|e| io::Error::other(format!("merge: {e}")))?;
        if degraded {
            metrics().partial_merges.inc();
        } else {
            self.rounds += 1;
        }
        let coverage = Coverage {
            degraded,
            live_shards: live,
            total_shards,
            covered_tuples,
            expected_tuples: expected_total,
        };
        let merged = Arc::new(SharedEngine::new(engine));
        self.merged = Some(MergedView {
            shared: Arc::clone(&merged),
            coverage: coverage.clone(),
            health_epoch,
        });
        self.dirty = false;
        metrics().merges.inc();
        metrics().merge_ns.observe_duration(t.elapsed());
        Ok((merged, coverage))
    }

    /// Answers a rule query from the merged engine (merging first if
    /// needed), plus the [`Coverage`] the answer was computed under. A
    /// full-coverage outcome is exactly what the equivalent single engine
    /// would produce from the merged summary — same deterministic rule
    /// order, same epoch numbering.
    ///
    /// # Errors
    /// Merge failures (see [`Coordinator::ensure_merged`]) or query
    /// validation errors.
    pub fn query(&mut self, query: &RuleQuery) -> io::Result<(QueryOutcome, Coverage)> {
        let (merged, coverage) = self.ensure_merged()?;
        let outcome = merged.query(query).map_err(|e| io::Error::other(format!("query: {e}")))?;
        Ok((outcome, coverage))
    }

    /// The merged epoch's cluster summaries (merging first if needed).
    ///
    /// # Errors
    /// Merge failures.
    pub fn clusters(&mut self) -> io::Result<(u64, Vec<ClusterSummary>, Coverage)> {
        let (merged, coverage) = self.ensure_merged()?;
        let (epoch, clusters) = merged.clusters();
        Ok((epoch, clusters, coverage))
    }

    /// Serializes the merged epoch (merging first if needed): `(bytes,
    /// epoch, tuples, coverage)`.
    ///
    /// # Errors
    /// Merge or serialization failures.
    pub fn snapshot(&mut self) -> io::Result<(Vec<u8>, u64, u64, Coverage)> {
        let (merged, coverage) = self.ensure_merged()?;
        let (bytes, epoch, tuples) =
            merged.snapshot().map_err(|e| io::Error::other(format!("snapshot: {e}")))?;
        Ok((bytes, epoch, tuples, coverage))
    }

    /// Passes an explicit window seal through to every shard, in shard
    /// order. The coordinator keeps no window state of its own — windows
    /// live on shards started with `--window-batches` — so this is pure
    /// pass-through; it marks the merged engine dirty because sealing
    /// changes what the shards snapshot next. Subscriptions are *not*
    /// proxied: churn subscribers attach to shards directly.
    ///
    /// Always strict, even with `allow_partial`: sealing a subset of
    /// shards would desynchronize the cluster's window positions.
    ///
    /// # Errors
    /// Shard transport failures, or a shard's structured error verbatim
    /// (e.g. `unsupported` from a shard that is not windowed).
    pub fn advance(&mut self) -> io::Result<Vec<(String, Json)>> {
        let mut responses = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let response = self.shard_request(i, &Request::Advance)?;
            responses.push((self.shards[i].addr.clone(), response));
        }
        self.dirty = true;
        // A window seal changes what a shard snapshots *without* moving
        // its acked watermark — the one event that breaks the cache key's
        // "unmoved watermark means unchanged content" invariant.
        for slot in &mut self.snap_cache {
            *slot = None;
        }
        Ok(responses)
    }

    /// The SON exact-verification pass for one query outcome: ship the
    /// merged clusters and each rule's positions to every shard, let each
    /// re-read its own WAL and count matches over its disjoint slice, and
    /// sum. Because the shards partition the relation, the sums are the
    /// *exact* global frequencies of each rule's cluster combination —
    /// the second scan of Savasere–Omiecinski–Navathe, without raw
    /// tuples ever crossing the wire.
    ///
    /// Returns `(rows_rescanned, per_rule_counts)`; `rows_rescanned` is
    /// summed across shards, so a value below the merged engine's tuple
    /// count reveals a shard whose WAL no longer retains its full history.
    ///
    /// Always strict: exactness requires every shard, so callers should
    /// skip the rescan for degraded answers.
    ///
    /// # Errors
    /// Shard failures, or a shard whose count vector does not match the
    /// rule count (a protocol violation).
    pub fn rescan(&mut self, outcome: &QueryOutcome) -> io::Result<(u64, Vec<u64>)> {
        // Shipped as base64 persist-v2 binary, the one form shards accept.
        let pool = dar_par::ThreadPool::resolve(self.config.engine.threads);
        let clusters_text =
            mining::persist::encode_clusters(outcome.artifacts.graph.clusters(), &pool)
                .map(|bytes| dar_serve::b64::encode(&bytes))
                .map_err(|e| io::Error::other(format!("clusters: {e}")))?;
        let rules: Vec<Vec<usize>> = outcome
            .rules
            .iter()
            .map(|r| {
                let mut positions: Vec<usize> =
                    r.antecedent.iter().chain(r.consequent.iter()).copied().collect();
                positions.sort_unstable();
                positions.dedup();
                positions
            })
            .collect();
        let mut total_rows = 0u64;
        let mut totals = vec![0u64; rules.len()];
        for i in 0..self.shards.len() {
            let request =
                Request::ShardRescan { clusters: clusters_text.clone(), rules: rules.clone() };
            let response = self.shard_request(i, &request)?;
            let rows_scanned = response.get("rows_scanned").and_then(Json::as_u64).unwrap_or(0);
            let counts: Vec<u64> = match response.get("counts") {
                Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
                _ => Vec::new(),
            };
            if counts.len() != totals.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {i} returned {} counts for {} rules",
                        counts.len(),
                        totals.len()
                    ),
                ));
            }
            total_rows += rows_scanned;
            for (t, c) in totals.iter_mut().zip(&counts) {
                *t += c;
            }
        }
        metrics().rescans.inc();
        Ok((total_rows, totals))
    }

    /// Whether the SON rescan is enabled for this coordinator.
    pub fn rescan_enabled(&self) -> bool {
        self.config.rescan
    }

    /// Per-shard info, in shard order — never fails: shards marked Down
    /// (and live shards whose stats request fails) report the
    /// coordinator's cached watermarks with `live == false`, so `stats`
    /// keeps working while shards are dead.
    pub fn shard_infos(&mut self) -> Vec<ShardInfo> {
        (0..self.shards.len())
            .map(|i| {
                let cached = |this: &Coordinator| ShardInfo {
                    addr: this.shards[i].addr.clone(),
                    health: this.board.state(i),
                    live: false,
                    tuples: this.board.expected_tuples(i),
                    last_seq: this.board.last_acked_seq(i),
                    degraded: false,
                    last_acked_seq: this.board.last_acked_seq(i),
                    expected_tuples: this.board.expected_tuples(i),
                };
                if self.board.state(i) == ShardHealth::Down {
                    return cached(self);
                }
                match self.shard_request(i, &Request::ShardStats) {
                    Ok(stats) => ShardInfo {
                        addr: self.shards[i].addr.clone(),
                        health: self.board.state(i),
                        live: true,
                        tuples: stats.get("tuples").and_then(Json::as_u64).unwrap_or(0),
                        last_seq: stats.get("last_seq").and_then(Json::as_u64).unwrap_or(0),
                        degraded: stats.get("degraded").and_then(Json::as_bool).unwrap_or(false),
                        last_acked_seq: self.board.last_acked_seq(i),
                        expected_tuples: self.board.expected_tuples(i),
                    },
                    Err(_) => cached(self),
                }
            })
            .collect()
    }

    /// Completed full-coverage merge rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The configuration this coordinator was connected with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

/// Whether an error is a shard's structured reply (the shard is
/// reachable and refused), as opposed to a transport failure or one of
/// the coordinator's own synthetic codes (`shard-down`, `deadline`).
fn is_shard_reply(e: &io::Error) -> bool {
    ServerError::of(e).is_some_and(|se| !matches!(se.code.as_str(), "shard-down" | "deadline"))
}

/// Starts the health prober unless disabled
/// ([`ClusterConfig::probe_interval`] of zero). The prober retests
/// non-Up shards on its own short-timeout connections: a shard rejoins
/// (Up) only when a `shard_stats` probe succeeds, agrees on the row
/// width, and reports at least every acknowledged tuple; a reachable
/// shard that lost acknowledged data is forced to stay Down.
fn spawn_prober(config: &ClusterConfig, board: &Arc<HealthBoard>, width: u64) -> Option<Prober> {
    if config.probe_interval.is_zero() {
        return None;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let ctx = ProberCtx {
        addrs: config.shards.clone(),
        board: Arc::clone(board),
        stop: Arc::clone(&stop),
        interval: config.probe_interval,
        timeout: config.probe_timeout.max(Duration::from_millis(1)),
        width,
    };
    let handle = std::thread::Builder::new()
        .name("dar-cluster-prober".into())
        .spawn(move || prober_loop(&ctx))
        .ok()?;
    Some(Prober { stop, handle: Some(handle) })
}

struct ProberCtx {
    addrs: Vec<String>,
    board: Arc<HealthBoard>,
    stop: Arc<AtomicBool>,
    interval: Duration,
    timeout: Duration,
    width: u64,
}

fn prober_loop(ctx: &ProberCtx) {
    while !ctx.stop.load(Ordering::SeqCst) {
        for (i, addr) in ctx.addrs.iter().enumerate() {
            if ctx.stop.load(Ordering::SeqCst) {
                return;
            }
            if ctx.board.state(i) == ShardHealth::Up {
                continue;
            }
            probe(ctx, i, addr);
        }
        // Sleep in short slices so drop-time shutdown stays prompt.
        let mut remaining = ctx.interval;
        while !remaining.is_zero() && !ctx.stop.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(25));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

fn probe(ctx: &ProberCtx, i: usize, addr: &str) {
    metrics().probes.inc();
    let stats = Client::connect(addr, ctx.timeout).and_then(|mut c| c.shard_stats());
    match stats {
        Ok(stats) => {
            let width = stats.get("width").and_then(Json::as_u64).unwrap_or(0);
            let tuples = stats.get("tuples").and_then(Json::as_u64).unwrap_or(0);
            // Rejoin is verified: right partitioning, and the tuple count
            // covers every batch this shard ever acknowledged (WAL replay
            // restores it across restarts). A shard that came back
            // lighter lost acked data and must stay Down.
            if width == ctx.width && tuples >= ctx.board.expected_tuples(i) {
                if ctx.board.record_success(i) {
                    metrics().rejoins.inc();
                }
            } else {
                ctx.board.force_down(i);
            }
        }
        Err(_) => {
            ctx.board.record_failure(i);
        }
    }
}
