//! The request/response vocabulary of the newline-delimited JSON protocol.
//!
//! Every request is one JSON object on one line with a `"verb"` key;
//! every response is one JSON object on one line with an `"ok"` key.
//! Verbs:
//!
//! ```text
//! {"verb":"ingest","rows_b64":"<base64>"}   → {"ok":true,"verb":"ingest","tuples":…,"total":…}
//! {"verb":"ingest","rows":[[…],…]}          → (the same)
//! {"verb":"query", …RuleQuery knobs…}       → {"ok":true,"verb":"query","epoch":…,"rules":[…]}
//! {"verb":"clusters"}                       → {"ok":true,"verb":"clusters","clusters":[…]}
//! {"verb":"stats"}                          → {"ok":true,"verb":"stats","server":{…},"engine":{…}}
//! {"verb":"metrics"}                        → {"ok":true,"verb":"metrics","registry":{…}}
//! {"verb":"snapshot"}                       → {"ok":true,"verb":"snapshot","epoch":…,"path":…}
//! {"verb":"shutdown"}                       → {"ok":true,"verb":"shutdown"}
//! ```
//!
//! An ingest batch travels in one of two forms, never both. `rows_b64` is
//! the base64 ([`crate::b64`]) of the write-ahead log's batch body
//! ([`dar_durable::encode_batch`]: `u32` row count, then per row a `u32`
//! length and its `f64` little-endian bits), so values arrive bit-exact;
//! it is what [`Request::to_json`], and with it every library client,
//! sends. `rows`, a JSON array of number arrays, stays for shells and
//! hand-written clients. A tagged WAL frame is not a batch body and is
//! refused: only the server picks a window tag.
//!
//! Streaming verbs — available when the server mines a sliding window
//! (`--window-batches`):
//!
//! ```text
//! {"verb":"advance"}                        → {"ok":true,…,"sealed":…,"opened":…,"retired":…,"window_span":[…]}
//! {"verb":"subscribe","from_epoch":…}       → {"ok":true,"verb":"subscribe","epoch":…}, then event frames
//! ```
//!
//! `subscribe` turns the connection into a long-lived push stream: after
//! the handshake, the server writes one `{"ok":true,"verb":"event",…}`
//! frame per window advance, carrying the rules `added` and `dropped`
//! relative to the previous epoch (deterministically encoded, so equal
//! diffs are byte-identical). A subscriber that cannot keep up is dropped
//! with a final structured `{"ok":false,"error":"lagged",…}` frame — the
//! server never blocks or buffers unboundedly on a slow consumer.
//! `from_epoch` resumes a reconnecting subscriber: events it has already
//! seen are not repeated, and a gap the server no longer retains is
//! bridged by a `"resync":true` event carrying the full current rule set.
//!
//! Shard verbs — the coordinator side of `dar-cluster`'s distributed
//! ingest, spoken by a `dar serve` instance acting as a shard worker:
//!
//! ```text
//! {"verb":"shard_ingest","seq":…,"rows_b64":…} → {"ok":true,…,"seq":…,"applied":…,"total":…}
//! {"verb":"pull_snapshot"}                   → {"ok":true,…,"epoch":…,"snapshot_b64":"<base64>"}
//! {"verb":"shard_stats"}                     → {"ok":true,…,"epoch":…,"width":…,"last_seq":…}
//! {"verb":"shard_rescan","clusters":…,"rules":[…]} → {"ok":true,…,"counts":[…]}
//! ```
//!
//! `shard_ingest` carries its batch in either form, like `ingest`, plus
//! the coordinator's global batch sequence number;
//! a shard remembers the highest it has applied and acknowledges
//! duplicates (`"applied":false`) without re-applying, which makes the
//! coordinator's at-least-once retries idempotent. `pull_snapshot`
//! returns the shard's binary epoch snapshot sealed with a checksum
//! footer (`dar_durable::seal_bytes`) and base64-encoded for the UTF-8
//! wire, so corruption is caught at merge time. `shard_rescan` is the
//! SON-style verify pass: the coordinator ships the merged cluster
//! summaries (base64 persist v2, with raw v1 text still accepted) plus
//! each candidate rule as a list of cluster positions, and the shard
//! counts its own WAL-retained tuples that fall in every one of the
//! rule's clusters.
//!
//! A coordinator serving with some shards down (`--allow-partial`)
//! annotates responses computed from a subset of the data with coverage
//! keys ([`annotate_degraded`]):
//!
//! ```text
//! {…,"degraded":true,"live_shards":…,"total_shards":…,
//!    "covered_tuples":…,"expected_tuples":…,"coverage":0.75}
//! ```
//!
//! `coverage` is the fraction of routed-and-acknowledged tuples the
//! answer actually saw. Full-coverage responses omit every one of these
//! keys, so a healthy cluster's lines stay byte-identical to a
//! single server's.
//!
//! Errors are structured, never a dropped connection:
//! `{"ok":false,"error":"<code>","message":"<detail>"}`. The one error
//! that also ends the connection is `line-too-long`: a request line may
//! hold at most [`MAX_REQUEST_LINE`] bytes ([`RequestLines`]).
//!
//! `query` accepts the re-tunable [`RuleQuery`] knobs by name —
//! `density_factor` *or* `density` (explicit per-set array),
//! `degree_factor`, `max_antecedent`, `max_consequent`, `max_rules`,
//! `max_pair_work` — plus the rank knobs `measure` (one of `degree`,
//! `lift`, `conviction`, `leverage`, `jaccard`), `min_measure`, `top_k`,
//! `prune_redundant`, and `budget_ms` — all optional, defaulting to the
//! server's base query (its own CLI flags over [`RuleQuery::default`]).
//! The response names the ranking `measure`, and each rule carries its
//! value under that measure. A budgeted (`budget_ms`) answer that did not
//! examine every clique pair is explicitly marked `"approx":true` with
//! the honest `"coverage"` fraction in `[0, 1)`, mirroring the degraded
//! annotation — exact answers omit both keys, so they stay byte-identical
//! across worker counts and shard layouts. Rule encoding is deterministic
//! (insertion-ordered keys, shortest round-trip floats), so equal rule
//! sets encode to equal bytes.

use crate::json::{self, Json};
use dar_core::ClusterSummary;
use dar_engine::{EngineStats, QueryOutcome};
use mining::{DensitySpec, Measure, RuleQuery};
use std::io::{self, BufRead, BufReader, Read, Write};

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Feed a batch of full tuples into the engine (writer path).
    Ingest {
        /// The tuples, one `Vec<f64>` per row, indexed by attribute.
        rows: Vec<Vec<f64>>,
    },
    /// Mine rules from the current epoch (concurrent reader path).
    Query {
        /// The re-tunable Phase II parameters.
        query: RuleQuery,
    },
    /// The current epoch's cluster summaries (reader path).
    Clusters,
    /// Server + engine counters (reader path).
    Stats,
    /// The full `dar-obs` registry — every metric across the stack plus
    /// the event journal — as deterministic JSON (reader path).
    Metrics,
    /// Close the epoch and persist it to the server's snapshot path.
    Snapshot,
    /// Seal the open window explicitly (windowed servers only).
    Advance,
    /// Turn this connection into a long-lived rule-churn push stream
    /// (windowed servers only).
    Subscribe {
        /// Resume point: the last epoch this subscriber saw (events at or
        /// below it are not repeated). `None` starts from a full baseline.
        from_epoch: Option<u64>,
    },
    /// Gracefully stop the server (responds first, then shuts down).
    Shutdown,
    /// Coordinator-routed ingest (writer path): like [`Request::Ingest`]
    /// but carrying the coordinator's global batch sequence number for
    /// duplicate suppression across retries.
    ShardIngest {
        /// The coordinator's global batch sequence number (1-based,
        /// strictly increasing per coordinator).
        seq: u64,
        /// The tuples, one `Vec<f64>` per row, indexed by attribute.
        rows: Vec<Vec<f64>>,
    },
    /// Pull this shard's epoch snapshot, sealed with a checksum footer,
    /// for coordinator-side forest merging.
    PullSnapshot,
    /// Shard health/identity summary for the coordinator's handshake.
    ShardStats,
    /// SON-style verify pass: count, per candidate rule, the tuples in
    /// this shard's write-ahead log assigned to every one of the rule's
    /// clusters (nearest-centroid, as `mining::pipeline::rescan_frequencies`).
    ShardRescan {
        /// The merged cluster summaries: base64-encoded `mining::persist`
        /// v2 binary.
        clusters: String,
        /// Each rule as its cluster positions (antecedent ∪ consequent)
        /// into the shipped cluster slice.
        rules: Vec<Vec<usize>>,
    },
}

/// The verbs of the protocol, one per [`Request`] variant: the key every
/// server's per-verb accounting is indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `ingest`.
    Ingest,
    /// `query`.
    Query,
    /// `clusters`.
    Clusters,
    /// `stats`.
    Stats,
    /// `snapshot`.
    Snapshot,
    /// `shutdown`.
    Shutdown,
    /// `metrics`.
    Metrics,
    /// `advance`.
    Advance,
    /// `subscribe`.
    Subscribe,
    /// `shard_ingest`.
    ShardIngest,
    /// `pull_snapshot`.
    PullSnapshot,
    /// `shard_stats`.
    ShardStats,
    /// `shard_rescan`.
    ShardRescan,
}

impl Verb {
    /// Every verb, in declaration order (`ALL[v as usize] == v`).
    pub const ALL: [Verb; 13] = [
        Verb::Ingest,
        Verb::Query,
        Verb::Clusters,
        Verb::Stats,
        Verb::Snapshot,
        Verb::Shutdown,
        Verb::Metrics,
        Verb::Advance,
        Verb::Subscribe,
        Verb::ShardIngest,
        Verb::PullSnapshot,
        Verb::ShardStats,
        Verb::ShardRescan,
    ];

    /// The verb's wire name (the request's `"verb"` value).
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Ingest => "ingest",
            Verb::Query => "query",
            Verb::Clusters => "clusters",
            Verb::Stats => "stats",
            Verb::Snapshot => "snapshot",
            Verb::Shutdown => "shutdown",
            Verb::Metrics => "metrics",
            Verb::Advance => "advance",
            Verb::Subscribe => "subscribe",
            Verb::ShardIngest => "shard_ingest",
            Verb::PullSnapshot => "pull_snapshot",
            Verb::ShardStats => "shard_stats",
            Verb::ShardRescan => "shard_rescan",
        }
    }
}

/// Decodes an `ingest`/`shard_ingest` batch from exactly one of its two
/// encodings: `rows`, a JSON array of number arrays, or `rows_b64`, the
/// base64 of a WAL batch body ([`dar_durable::encode_batch`]). A tagged
/// WAL frame is refused: only the server picks a window tag.
fn parse_rows(value: &Json, verb: &str) -> Result<Vec<Vec<f64>>, String> {
    match (value.get("rows"), value.get("rows_b64")) {
        (Some(_), Some(_)) => Err(format!("{verb} takes \"rows\" or \"rows_b64\", not both")),
        (None, None) => Err(format!("{verb} needs a \"rows\" array or a \"rows_b64\" string")),
        (None, Some(text)) => {
            let text =
                text.as_str().ok_or_else(|| format!("{verb} \"rows_b64\" is not a string"))?;
            crate::b64::decode(text)
                .and_then(|body| dar_durable::decode_batch(&body))
                .map_err(|e| format!("{verb} \"rows_b64\": {e}"))
        }
        (Some(rows), None) => rows
            .as_array()
            .ok_or_else(|| format!("{verb} needs a \"rows\" array"))?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.as_array()
                    .ok_or_else(|| format!("row {i} is not an array"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| format!("row {i} has a non-number")))
                    .collect()
            })
            .collect(),
    }
}

/// The `rows_b64` text of a batch: base64 of its WAL batch body, which
/// carries every `f64` bit-exact.
fn rows_b64(rows: &[Vec<f64>]) -> Json {
    Json::Str(crate::b64::encode(&dar_durable::encode_batch(rows)))
}

impl Request {
    /// Decodes a request from its wire value, with query knobs defaulting
    /// to [`RuleQuery::default`].
    ///
    /// # Errors
    /// A human-readable message naming the malformed part.
    pub fn from_json(value: &Json) -> Result<Request, String> {
        Request::from_json_with(value, &RuleQuery::default())
    }

    /// Decodes a request from its wire value; `query` knobs the client
    /// did not send fall back to `base` (the server's own configured
    /// defaults) rather than the library defaults.
    ///
    /// # Errors
    /// A human-readable message naming the malformed part.
    pub fn from_json_with(value: &Json, base: &RuleQuery) -> Result<Request, String> {
        let name = value
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| "request must be an object with a string \"verb\"".to_string())?;
        let Some(verb) = Verb::ALL.into_iter().find(|v| v.as_str() == name) else {
            return Err(format!("unknown verb {name:?}"));
        };
        match verb {
            Verb::Ingest => Ok(Request::Ingest { rows: parse_rows(value, "ingest")? }),
            Verb::Query => Ok(Request::Query { query: parse_query_with(value, base)? }),
            Verb::Clusters => Ok(Request::Clusters),
            Verb::Stats => Ok(Request::Stats),
            Verb::Metrics => Ok(Request::Metrics),
            Verb::Snapshot => Ok(Request::Snapshot),
            Verb::Advance => Ok(Request::Advance),
            Verb::Subscribe => {
                let from_epoch = match value.get("from_epoch") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "subscribe \"from_epoch\" must be a non-negative integer".to_string()
                    })?),
                };
                Ok(Request::Subscribe { from_epoch })
            }
            Verb::Shutdown => Ok(Request::Shutdown),
            Verb::ShardIngest => {
                let seq = value
                    .get("seq")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "shard_ingest needs a non-negative \"seq\"".to_string())?;
                Ok(Request::ShardIngest { seq, rows: parse_rows(value, "shard_ingest")? })
            }
            Verb::PullSnapshot => Ok(Request::PullSnapshot),
            Verb::ShardStats => Ok(Request::ShardStats),
            Verb::ShardRescan => {
                let clusters = value
                    .get("clusters")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "shard_rescan needs a \"clusters\" string".to_string())?
                    .to_string();
                let rules = value
                    .get("rules")
                    .and_then(Json::as_array)
                    .ok_or_else(|| "shard_rescan needs a \"rules\" array".to_string())?;
                let rules: Result<Vec<Vec<usize>>, String> = rules
                    .iter()
                    .enumerate()
                    .map(|(i, rule)| {
                        rule.as_array()
                            .ok_or_else(|| format!("rule {i} is not an array"))?
                            .iter()
                            .map(|v| {
                                v.as_u64().map(|p| p as usize).ok_or_else(|| {
                                    format!("rule {i} has a non-integer cluster position")
                                })
                            })
                            .collect()
                    })
                    .collect();
                Ok(Request::ShardRescan { clusters, rules: rules? })
            }
        }
    }

    /// The verb this request resolved to.
    pub fn verb(&self) -> Verb {
        match self {
            Request::Ingest { .. } => Verb::Ingest,
            Request::Query { .. } => Verb::Query,
            Request::Clusters => Verb::Clusters,
            Request::Stats => Verb::Stats,
            Request::Metrics => Verb::Metrics,
            Request::Snapshot => Verb::Snapshot,
            Request::Advance => Verb::Advance,
            Request::Subscribe { .. } => Verb::Subscribe,
            Request::Shutdown => Verb::Shutdown,
            Request::ShardIngest { .. } => Verb::ShardIngest,
            Request::PullSnapshot => Verb::PullSnapshot,
            Request::ShardStats => Verb::ShardStats,
            Request::ShardRescan { .. } => Verb::ShardRescan,
        }
    }

    /// Encodes this request as its wire value (the client side of the
    /// codec). Ingest batches travel as `rows_b64`, the exact WAL batch
    /// body; the server also reads JSON `rows`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("verb", Json::Str(self.verb().as_str().into()))];
        match self {
            Request::Ingest { rows } => pairs.push(("rows_b64", rows_b64(rows))),
            Request::Query { query } => {
                match &query.density {
                    DensitySpec::Auto { factor } => {
                        pairs.push(("density_factor", Json::Num(*factor)));
                    }
                    DensitySpec::Explicit(thresholds) => {
                        pairs.push((
                            "density",
                            Json::Arr(thresholds.iter().map(|v| Json::Num(*v)).collect()),
                        ));
                    }
                }
                pairs.push(("degree_factor", Json::Num(query.degree_factor)));
                pairs.push(("max_antecedent", Json::Num(query.max_antecedent as f64)));
                pairs.push(("max_consequent", Json::Num(query.max_consequent as f64)));
                pairs.push(("max_rules", Json::Num(query.max_rules as f64)));
                pairs.push(("max_pair_work", Json::Num(query.max_pair_work as f64)));
                pairs.push(("measure", Json::Str(query.measure.as_str().into())));
                if let Some(floor) = query.min_measure {
                    pairs.push(("min_measure", Json::Num(floor)));
                }
                pairs.push(("top_k", Json::Num(query.top_k as f64)));
                pairs.push(("prune_redundant", Json::Bool(query.prune_redundant)));
                pairs.push(("budget_ms", Json::Num(query.budget_ms as f64)));
            }
            Request::Subscribe { from_epoch } => {
                if let Some(epoch) = from_epoch {
                    pairs.push(("from_epoch", Json::Num(*epoch as f64)));
                }
            }
            Request::ShardIngest { seq, rows } => {
                pairs.push(("seq", Json::Num(*seq as f64)));
                pairs.push(("rows_b64", rows_b64(rows)));
            }
            Request::ShardRescan { clusters, rules } => {
                pairs.push(("clusters", Json::Str(clusters.clone())));
                pairs.push((
                    "rules",
                    Json::Arr(
                        rules
                            .iter()
                            .map(|r| Json::Arr(r.iter().map(|&p| Json::Num(p as f64)).collect()))
                            .collect(),
                    ),
                ));
            }
            Request::Clusters
            | Request::Stats
            | Request::Metrics
            | Request::Snapshot
            | Request::Advance
            | Request::Shutdown
            | Request::PullSnapshot
            | Request::ShardStats => {}
        }
        Json::obj(pairs)
    }
}

fn parse_query_with(value: &Json, base: &RuleQuery) -> Result<RuleQuery, String> {
    let mut query = base.clone();
    if let Some(v) = value.get("density_factor") {
        let factor = v.as_f64().ok_or("density_factor must be a number")?;
        query.density = DensitySpec::Auto { factor };
    }
    if let Some(v) = value.get("density") {
        let items = v.as_array().ok_or("density must be an array")?;
        let thresholds: Result<Vec<f64>, &str> =
            items.iter().map(|t| t.as_f64().ok_or("density entries must be numbers")).collect();
        query.density = DensitySpec::Explicit(thresholds?);
    }
    if let Some(v) = value.get("degree_factor") {
        query.degree_factor = v.as_f64().ok_or("degree_factor must be a number")?;
    }
    for (key, slot) in [
        ("max_antecedent", &mut query.max_antecedent),
        ("max_consequent", &mut query.max_consequent),
        ("max_rules", &mut query.max_rules),
    ] {
        if let Some(v) = value.get(key) {
            *slot =
                v.as_u64().ok_or_else(|| format!("{key} must be a non-negative integer"))? as usize;
        }
    }
    if let Some(v) = value.get("max_pair_work") {
        query.max_pair_work = v.as_u64().ok_or("max_pair_work must be a non-negative integer")?;
    }
    if let Some(v) = value.get("measure") {
        let name = v.as_str().ok_or("measure must be a string")?;
        query.measure = Measure::parse(name)
            .ok_or_else(|| format!("unknown measure {name:?} (try degree, lift, …)"))?;
    }
    if let Some(v) = value.get("min_measure") {
        query.min_measure = match v {
            Json::Null => None,
            _ => Some(v.as_f64().ok_or("min_measure must be a number")?),
        };
    }
    if let Some(v) = value.get("top_k") {
        query.top_k = v.as_u64().ok_or("top_k must be a non-negative integer")? as usize;
    }
    if let Some(v) = value.get("prune_redundant") {
        query.prune_redundant = v.as_bool().ok_or("prune_redundant must be a boolean")?;
    }
    if let Some(v) = value.get("budget_ms") {
        query.budget_ms = v.as_u64().ok_or("budget_ms must be a non-negative integer")?;
    }
    Ok(query)
}

/// Writes one frame — `line` plus its `\n` terminator — in a single
/// `write_all` and returns its length in bytes. Writing the newline
/// separately would send a large frame as two segments, and the second,
/// 1-byte one then waits on the peer's delayed ACK (Nagle) for tens of
/// milliseconds.
///
/// # Errors
/// The underlying write's failure.
pub fn write_frame(out: &mut impl Write, mut line: String) -> io::Result<u64> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    Ok(line.len() as u64)
}

/// The longest request line a server reads, its newline excluded: 64 MiB,
/// more than 100× the largest request the benchmark workloads send (a
/// 1,000-row, 30-attribute ingest of about 0.33 MB). A longer line is
/// answered with a `line-too-long` error ([`LINE_TOO_LONG`]) and the
/// connection closes, so a client that streams bytes without a newline
/// cannot grow server memory past this bound.
pub const MAX_REQUEST_LINE: usize = 64 << 20;

/// The error code and message a server answers an oversized request line
/// with, just before it closes the connection.
pub const LINE_TOO_LONG: (&str, &str) =
    ("line-too-long", "request line exceeds 64 MiB; closing the connection");

/// One read of [`RequestLines::next_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestLine<'a> {
    /// One request line, its `\n` (or `\r\n`) terminator stripped. A last
    /// line cut off by the peer's close is returned as read.
    Line(&'a str),
    /// The line ran past [`MAX_REQUEST_LINE`] bytes; nothing beyond
    /// `MAX_REQUEST_LINE + 1` bytes of it was read.
    TooLong,
    /// The peer closed the connection.
    Eof,
}

/// The request side of one connection: newline-framed lines, each bounded
/// by [`MAX_REQUEST_LINE`], read into one buffer reused for every line.
/// Both servers read their requests through it.
pub struct RequestLines<R> {
    reader: BufReader<R>,
    buf: Vec<u8>,
}

impl<R: Read> RequestLines<R> {
    /// Wraps a connection's read half.
    pub fn new(inner: R) -> Self {
        RequestLines { reader: BufReader::new(inner), buf: Vec::new() }
    }

    /// Reads the next request line.
    ///
    /// # Errors
    /// Read failures (timeout, reset) as the socket reports them, and
    /// `InvalidData` for a line that is not UTF-8 — what
    /// [`BufRead::lines`] reports.
    pub fn next_line(&mut self) -> io::Result<RequestLine<'_>> {
        let limit = MAX_REQUEST_LINE as u64 + 1;
        self.buf.clear();
        let read = (&mut self.reader).take(limit).read_until(b'\n', &mut self.buf)?;
        if read == 0 {
            return Ok(RequestLine::Eof);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        } else if read as u64 == limit {
            return Ok(RequestLine::TooLong);
        }
        std::str::from_utf8(&self.buf).map(RequestLine::Line).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "request line is not valid UTF-8")
        })
    }
}

/// A structured error response: `{"ok":false,"error":…,"message":…}`.
pub fn error_response(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(code.into())),
        ("message", Json::Str(message.into())),
    ])
}

/// The `ingest` success response.
pub fn ingest_response(tuples: u64, total: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("ingest".into())),
        ("tuples", Json::Num(tuples as f64)),
        ("total", Json::Num(total as f64)),
    ])
}

/// The `query` success response, including the full ranked rule set.
///
/// Rules are encoded in the ranking's deterministic order (measure value,
/// then rule identity — the historical degree order under the default
/// measure), so two equal rule sets produce byte-identical lines. An
/// anytime answer that did not examine every clique pair appends
/// `"approx":true` and its honest `"coverage"` fraction; exact answers
/// omit both keys entirely.
pub fn query_response(outcome: &QueryOutcome) -> Json {
    let rules = outcome
        .encoded_rules(|rules, values| json::rule_array(rules.iter().zip(values.iter().copied())));
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("query".into())),
        ("epoch", Json::Num(outcome.epoch as f64)),
        ("s0", Json::Num(outcome.s0 as f64)),
        ("cached", Json::Bool(outcome.cached)),
        ("truncated", Json::Bool(outcome.truncated)),
        ("measure", Json::Str(outcome.measure.as_str().into())),
        ("rules", rules),
    ];
    if let Some(coverage) = outcome.coverage {
        if coverage < 1.0 {
            pairs.push(("approx", Json::Bool(true)));
            pairs.push(("coverage", Json::Num(coverage)));
        }
    }
    Json::obj(pairs)
}

/// One rule as its wire object — the unit `query` responses and
/// rule-churn `event` frames share, so a rule encodes to the same bytes
/// everywhere it appears. `value` is the rule's score under the ranking
/// measure in force (its degree under the default measure). Pre-encoded
/// by [`json::write_rule`]: the object's keys are `antecedent`,
/// `consequent`, `degree`, `min_support` and `measure`.
pub fn rule_json(rule: &mining::Dar, value: f64) -> Json {
    json::rule(rule, value)
}

/// The `clusters` success response: the epoch's cluster summaries.
pub fn clusters_response(epoch: u64, clusters: &[ClusterSummary]) -> Json {
    let items: Vec<Json> = clusters
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("id", Json::Num(c.id.0 as f64)),
                ("set", Json::Num(c.set as f64)),
                ("support", Json::Num(c.support() as f64)),
                ("diameter", Json::Num(c.diameter())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("clusters".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("clusters", Json::Arr(items)),
    ])
}

/// The `snapshot` success response.
pub fn snapshot_response(epoch: u64, tuples: u64, path: Option<&str>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("snapshot".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("tuples", Json::Num(tuples as f64)),
        ("path", path.map_or(Json::Null, |p| Json::Str(p.into()))),
    ])
}

/// The `shutdown` acknowledgement.
pub fn shutdown_response() -> Json {
    Json::obj(vec![("ok", Json::Bool(true)), ("verb", Json::Str("shutdown".into()))])
}

/// The `advance` success response: what sealing the open window did.
pub fn advance_response(
    sealed: u64,
    opened: u64,
    retired: Option<u64>,
    window_span: (u64, u64),
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("advance".into())),
        ("sealed", Json::Num(sealed as f64)),
        ("opened", Json::Num(opened as f64)),
        ("retired", retired.map_or(Json::Null, |s| Json::Num(s as f64))),
        ("window_span", span_json(window_span)),
    ])
}

/// The `subscribe` handshake: acknowledges the stream and reports the
/// epoch the following event frames start after.
pub fn subscribe_response(epoch: u64, window_span: Option<(u64, u64)>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("subscribe".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("window_span", window_span.map_or(Json::Null, span_json)),
    ])
}

/// One rule-churn event frame: the rules `added` and `dropped` by the
/// epoch, as raw rule objects ([`rule_json`] encoding). `resync` marks a
/// baseline frame whose `added` is the *full* current rule set (sent when
/// a resuming subscriber's gap exceeds the server's retained history —
/// replaying events after a resync still reconstructs the live set).
pub fn event_frame(
    epoch: u64,
    window_span: Option<(u64, u64)>,
    added: Vec<Json>,
    dropped: Vec<Json>,
    resync: bool,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("event".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("window_span", window_span.map_or(Json::Null, span_json)),
        ("resync", Json::Bool(resync)),
        ("added", Json::Arr(added)),
        ("dropped", Json::Arr(dropped)),
    ])
}

/// The final frame a subscriber receives when its bounded queue
/// overflowed: the server dropped the subscriber (never itself) and tells
/// it the epoch to resume from (`subscribe` with `from_epoch`).
pub fn lagged_frame(epoch: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("lagged".into())),
        (
            "message",
            Json::Str("subscriber queue overflowed; resubscribe with from_epoch to resume".into()),
        ),
        ("epoch", Json::Num(epoch as f64)),
    ])
}

fn span_json((oldest, open): (u64, u64)) -> Json {
    Json::Arr(vec![Json::Num(oldest as f64), Json::Num(open as f64)])
}

/// The `shard_ingest` success response. `applied` is `false` when `seq`
/// was at or below the shard's watermark and the batch was acknowledged
/// as a duplicate without touching the engine.
pub fn shard_ingest_response(seq: u64, applied: bool, tuples: u64, total: u64) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("shard_ingest".into())),
        ("seq", Json::Num(seq as f64)),
        ("applied", Json::Bool(applied)),
        ("tuples", Json::Num(tuples as f64)),
        ("total", Json::Num(total as f64)),
    ])
}

/// The `pull_snapshot` success response: the shard's epoch snapshot
/// (binary engine-v2 body), sealed with a checksum footer (`seq` = the
/// shard's coordinator-batch watermark, so the coordinator can tell which
/// routed batches the snapshot covers) and base64-encoded to ride the
/// UTF-8 JSON wire.
pub fn pull_snapshot_response(epoch: u64, tuples: u64, sealed: &[u8]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("pull_snapshot".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("tuples", Json::Num(tuples as f64)),
        ("snapshot_b64", Json::Str(crate::b64::encode(sealed))),
    ])
}

/// Decodes a [`pull_snapshot_response`]: `(epoch, tuples, sealed)`, the
/// sealed body base64-decoded but not yet unsealed. The client's
/// `pull_snapshot` and the coordinator's merge both read pulls through it.
///
/// # Errors
/// A response without a `snapshot_b64` string, or text that is not
/// canonical base64.
pub fn decode_pull_snapshot(response: &Json) -> Result<(u64, u64, Vec<u8>), String> {
    let epoch = response.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    let tuples = response.get("tuples").and_then(Json::as_u64).unwrap_or(0);
    let text = response
        .get("snapshot_b64")
        .and_then(Json::as_str)
        .ok_or("pull_snapshot response lacks snapshot_b64")?;
    let sealed = crate::b64::decode(text).map_err(|e| format!("pull_snapshot body: {e}"))?;
    Ok((epoch, tuples, sealed))
}

/// The `shard_stats` success response: the coordinator's health/identity
/// handshake.
pub fn shard_stats_response(
    epoch: u64,
    tuples: u64,
    width: usize,
    degraded: bool,
    last_seq: u64,
) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("shard_stats".into())),
        ("epoch", Json::Num(epoch as f64)),
        ("tuples", Json::Num(tuples as f64)),
        ("width", Json::Num(width as f64)),
        ("degraded", Json::Bool(degraded)),
        ("last_seq", Json::Num(last_seq as f64)),
    ])
}

/// Appends the degraded-coverage annotation to a coordinator response
/// served from a subset of shards: `degraded:true`, the live/total shard
/// counts, the acknowledged tuples the answer covered vs. expected, and
/// their ratio as `coverage`. Callers must only invoke this on genuinely
/// partial answers — full-coverage responses omit the keys entirely so a
/// healthy cluster's lines stay byte-identical to a single server's.
pub fn annotate_degraded(
    response: &mut Json,
    live_shards: u64,
    total_shards: u64,
    covered_tuples: u64,
    expected_tuples: u64,
) {
    let Json::Obj(pairs) = response else {
        return;
    };
    let coverage =
        if expected_tuples == 0 { 1.0 } else { covered_tuples as f64 / expected_tuples as f64 };
    pairs.push(("degraded".into(), Json::Bool(true)));
    pairs.push(("live_shards".into(), Json::Num(live_shards as f64)));
    pairs.push(("total_shards".into(), Json::Num(total_shards as f64)));
    pairs.push(("covered_tuples".into(), Json::Num(covered_tuples as f64)));
    pairs.push(("expected_tuples".into(), Json::Num(expected_tuples as f64)));
    pairs.push(("coverage".into(), Json::Num(coverage)));
}

/// The `shard_rescan` success response: per-rule exact frequencies over
/// the `rows_scanned` tuples this shard retains in its write-ahead log.
pub fn shard_rescan_response(rows_scanned: u64, counts: &[u64]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("shard_rescan".into())),
        ("rows_scanned", Json::Num(rows_scanned as f64)),
        ("counts", Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect())),
    ])
}

/// The `metrics` response: the global `dar-obs` registry (every metric
/// across the stack plus the event journal), embedded by parsing the
/// registry's own deterministic JSON rendering so there is exactly one
/// encoding source.
pub fn metrics_response() -> Json {
    let registry = crate::json::parse(&dar_obs::global().render_json())
        .unwrap_or_else(|e| error_response("internal", &format!("registry rendering: {e}")));
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("verb", Json::Str("metrics".into())),
        ("registry", registry),
    ])
}

/// The engine half of the `stats` response.
pub fn engine_stats_json(stats: &EngineStats, shared_read_hits: u64) -> Json {
    Json::obj(vec![
        ("tuples_ingested", Json::Num(stats.tuples_ingested as f64)),
        ("batches", Json::Num(stats.batches as f64)),
        ("rejected_batches", Json::Num(stats.rejected_batches as f64)),
        ("epochs", Json::Num(stats.epochs as f64)),
        ("wal_batches_replayed", Json::Num(stats.wal_batches_replayed as f64)),
        ("forest_rebuilds", Json::Num(stats.forest_rebuilds as f64)),
        ("queries", Json::Num(stats.queries as f64)),
        ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ("cache_misses", Json::Num(stats.cache_misses as f64)),
        ("assoc_bytes", Json::Num(stats.assoc_bytes as f64)),
        // Cache hits served lock-free through the read path, on top of the
        // engine's own (write-path) counters.
        ("shared_read_hits", Json::Num(shared_read_hits as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn requests_round_trip_through_the_codec() {
        let requests = vec![
            Request::Ingest { rows: vec![vec![1.0, 2.5], vec![-3.0, 0.0]] },
            Request::Query {
                query: RuleQuery {
                    density: DensitySpec::Explicit(vec![1.25, 2.5]),
                    degree_factor: 3.0,
                    max_antecedent: 2,
                    max_consequent: 1,
                    max_rules: 500,
                    max_pair_work: 1_000,
                    ..RuleQuery::default()
                },
            },
            Request::Query {
                query: RuleQuery {
                    measure: mining::Measure::Lift,
                    min_measure: Some(1.5),
                    top_k: 10,
                    prune_redundant: true,
                    budget_ms: 250,
                    ..RuleQuery::default()
                },
            },
            Request::Query { query: RuleQuery::default() },
            Request::Clusters,
            Request::Stats,
            Request::Metrics,
            Request::Snapshot,
            Request::Advance,
            Request::Subscribe { from_epoch: None },
            Request::Subscribe { from_epoch: Some(17) },
            Request::Shutdown,
            Request::ShardIngest { seq: 42, rows: vec![vec![0.5, -1.0]] },
            Request::PullSnapshot,
            Request::ShardStats,
            Request::ShardRescan {
                clusters: "acf-clusters v1 sets=0 dims=\n".into(),
                rules: vec![vec![0, 3], vec![1, 2, 4]],
            },
        ];
        for request in requests {
            let line = request.to_json().encode();
            let back = Request::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, request, "{line}");
            let name = parse(&line).unwrap().get("verb").and_then(Json::as_str).map(String::from);
            assert_eq!(name.as_deref(), Some(request.verb().as_str()), "{line}");
        }
    }

    #[test]
    fn verbs_are_listed_in_declaration_order() {
        for (i, verb) in Verb::ALL.into_iter().enumerate() {
            assert_eq!(verb as usize, i, "{}", verb.as_str());
        }
    }

    #[test]
    fn malformed_requests_are_named() {
        for (line, needle) in [
            ("{}", "verb"),
            (r#"{"verb":"frobnicate"}"#, "frobnicate"),
            (r#"{"verb":"ingest"}"#, "rows"),
            (r#"{"verb":"ingest","rows":[[1],"x"]}"#, "row 1"),
            (r#"{"verb":"query","degree_factor":"big"}"#, "degree_factor"),
            (r#"{"verb":"query","max_rules":-1}"#, "max_rules"),
            (r#"{"verb":"query","measure":"pagerank"}"#, "pagerank"),
            (r#"{"verb":"query","measure":7}"#, "measure"),
            (r#"{"verb":"query","min_measure":"low"}"#, "min_measure"),
            (r#"{"verb":"query","top_k":-3}"#, "top_k"),
            (r#"{"verb":"query","prune_redundant":1}"#, "prune_redundant"),
            (r#"{"verb":"query","budget_ms":-1}"#, "budget_ms"),
            (r#"{"verb":"subscribe","from_epoch":-1}"#, "from_epoch"),
            (r#"{"verb":"subscribe","from_epoch":"x"}"#, "from_epoch"),
            (r#"{"verb":"shard_ingest","rows":[]}"#, "seq"),
            (r#"{"verb":"shard_ingest","seq":1}"#, "rows"),
            (r#"{"verb":"shard_rescan","rules":[]}"#, "clusters"),
            (r#"{"verb":"shard_rescan","clusters":"x"}"#, "rules"),
            (r#"{"verb":"shard_rescan","clusters":"x","rules":[[0.5]]}"#, "rule 0"),
        ] {
            let err = Request::from_json(&parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn unsent_query_knobs_fall_back_to_the_server_base() {
        let base = RuleQuery {
            measure: Measure::Jaccard,
            top_k: 7,
            prune_redundant: true,
            ..RuleQuery::default()
        };
        let value = parse(r#"{"verb":"query","max_rules":9}"#).unwrap();
        let Request::Query { query } = Request::from_json_with(&value, &base).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(query.max_rules, 9, "sent knobs apply");
        assert_eq!(query.measure, Measure::Jaccard, "unsent knobs keep the base");
        assert_eq!(query.top_k, 7);
        assert!(query.prune_redundant);
        // An explicit knob still overrides the base.
        let value =
            parse(r#"{"verb":"query","measure":"degree","prune_redundant":false}"#).unwrap();
        let Request::Query { query } = Request::from_json_with(&value, &base).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(query.measure, Measure::Degree);
        assert!(!query.prune_redundant);
    }

    #[test]
    fn degraded_annotation_reports_honest_coverage() {
        let mut response = Json::obj(vec![("ok", Json::Bool(true))]);
        annotate_degraded(&mut response, 3, 4, 120, 160);
        assert_eq!(response.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("live_shards").and_then(Json::as_u64), Some(3));
        assert_eq!(response.get("total_shards").and_then(Json::as_u64), Some(4));
        assert_eq!(response.get("covered_tuples").and_then(Json::as_u64), Some(120));
        assert_eq!(response.get("expected_tuples").and_then(Json::as_u64), Some(160));
        assert_eq!(response.get("coverage").and_then(Json::as_f64), Some(0.75));
        // The empty cluster degenerates to full coverage, not NaN.
        let mut empty = Json::obj(vec![("ok", Json::Bool(true))]);
        annotate_degraded(&mut empty, 1, 2, 0, 0);
        assert_eq!(empty.get("coverage").and_then(Json::as_f64), Some(1.0));
        // Non-objects are left untouched rather than panicking.
        let mut not_an_object = Json::Null;
        annotate_degraded(&mut not_an_object, 1, 2, 0, 0);
        assert_eq!(not_an_object, Json::Null);
    }

    #[test]
    fn error_responses_are_structured() {
        let e = error_response("overloaded", "accept queue is full");
        assert!(!e.get("ok").unwrap().as_bool().unwrap());
        assert_eq!(e.get("error").unwrap().as_str().unwrap(), "overloaded");
    }

    #[test]
    fn request_lines_strip_terminators_and_stop_at_the_bound() {
        let input = b"{\"verb\":\"stats\"}\r\n\nlast".to_vec();
        let mut lines = RequestLines::new(&input[..]);
        assert_eq!(lines.next_line().unwrap(), RequestLine::Line("{\"verb\":\"stats\"}"));
        assert_eq!(lines.next_line().unwrap(), RequestLine::Line(""));
        assert_eq!(lines.next_line().unwrap(), RequestLine::Line("last"), "cut off by EOF");
        assert_eq!(lines.next_line().unwrap(), RequestLine::Eof);

        let mut at_bound = vec![b'a'; MAX_REQUEST_LINE];
        at_bound.extend_from_slice(b"\nnext\n");
        let mut lines = RequestLines::new(&at_bound[..]);
        match lines.next_line().unwrap() {
            RequestLine::Line(line) => assert_eq!(line.len(), MAX_REQUEST_LINE),
            other => panic!("a line of exactly MAX_REQUEST_LINE bytes is read, got {other:?}"),
        }
        assert_eq!(lines.next_line().unwrap(), RequestLine::Line("next"));

        let over = vec![b'a'; MAX_REQUEST_LINE + 1];
        assert_eq!(RequestLines::new(&over[..]).next_line().unwrap(), RequestLine::TooLong);

        let not_utf8 = b"\xff\xfe\n".to_vec();
        let err = RequestLines::new(&not_utf8[..]).next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
