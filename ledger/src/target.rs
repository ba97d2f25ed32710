//! Where a workload's requests go: the real processes over TCP
//! ([`Remote`]) or the in-process model ([`Local`]). Each workload drives
//! its op sequence through this one interface, so the untraced run, its
//! reference and the traced replay cannot send different requests.

use crate::model::{Coordinator, Node};
use crate::report::{answer, fnv, Counts, FNV_START};
use crate::trace::Tracer;
use crate::wire::Wire;
use dar_serve::json;
use dar_serve::protocol::Request;
use mining::RuleQuery;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// What a request is, for the latency breakdown and the span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Set-up ingest.
    Preload,
    /// Set-up query.
    Warm,
    /// Measured ingest batch.
    IngestAck,
    /// Query on a new epoch (Phase II artifacts built).
    QueryCold,
    /// Query with knobs never asked before on a cached epoch.
    QueryRetune,
    /// Query repeating a knob set (rank-cache hit).
    QueryRepeat,
    /// The unranked full answer.
    QueryFull,
    /// A top-25 of the live window after its churn publish.
    QueryWindow,
}

impl Kind {
    /// The kind's name in the latency breakdown.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Preload => "preload",
            Kind::Warm => "warm",
            Kind::IngestAck => "ingest_ack",
            Kind::QueryCold => "query_cold",
            Kind::QueryRetune => "query_retune",
            Kind::QueryRepeat => "query_repeat",
            Kind::QueryFull => "query_full",
            Kind::QueryWindow => "query_window",
        }
    }

    /// The root span name of a traced request of this kind.
    pub fn op(self) -> &'static str {
        match self {
            Kind::Preload => "op.preload",
            Kind::Warm => "op.warm",
            Kind::IngestAck => "op.ingest_ack",
            Kind::QueryCold => "op.query_cold",
            Kind::QueryRetune => "op.query_retune",
            Kind::QueryRepeat => "op.query_repeat",
            Kind::QueryFull => "op.query_full",
            Kind::QueryWindow => "op.query_window",
        }
    }
}

/// The digest of a failed call: it matches no answer.
pub const ABSENT: u64 = 0;

/// The digest of one response: its compared part (see [`answer`]), or
/// [`ABSENT`] for a failed call.
pub fn digest(line: Option<&str>) -> u64 {
    line.map_or(ABSENT, |line| fnv(FNV_START, answer(line).as_bytes()))
}

/// A destination for a workload's requests.
pub trait Target {
    /// Sends one request and returns the response line, `None` when the
    /// call failed (refused, or lost in transport) — counted, not raised.
    ///
    /// # Errors
    /// A process that is gone, or a model failure.
    fn call(&mut self, kind: Kind, request: &Request) -> Result<Option<String>, String>;

    /// The next rule-churn event line, when one is expected (`expect`) or
    /// already published.
    ///
    /// # Errors
    /// An expected event that never arrived.
    fn next_event(&mut self, expect: bool) -> Result<Option<String>, String>;

    /// Marks the start of the measured phase.
    fn start_measuring(&mut self) {}
}

/// The real processes: one connection, latencies recorded once measuring.
pub struct Remote {
    wire: Wire,
    measuring: bool,
    /// `(kind, ms)` per measured request.
    pub requests: Vec<(&'static str, f64)>,
    /// When the measured phase started.
    pub started: Option<Instant>,
    events: Option<Receiver<(Instant, String)>>,
    last_sent: Instant,
    /// Sealing-ingest-sent → event-received, ms, per measured event.
    pub churn_lag_ms: Vec<f64>,
}

impl Remote {
    /// Wraps a connection, optionally with a subscriber's event channel.
    pub fn new(wire: Wire, events: Option<Receiver<(Instant, String)>>) -> Remote {
        Remote {
            wire,
            measuring: false,
            requests: Vec::new(),
            started: None,
            events,
            last_sent: Instant::now(),
            churn_lag_ms: Vec::new(),
        }
    }

    /// The underlying connection (for `metrics` reads between phases).
    pub fn wire(&mut self) -> &mut Wire {
        &mut self.wire
    }

    /// Events received but never expected.
    pub fn unexpected_events(&self) -> usize {
        self.events.as_ref().map_or(0, |rx| rx.try_iter().count())
    }
}

impl Target for Remote {
    fn call(&mut self, kind: Kind, request: &Request) -> Result<Option<String>, String> {
        self.last_sent = Instant::now();
        let (line, ms) = self.wire.call(request)?;
        if self.measuring {
            self.requests.push((kind.name(), ms));
        }
        Ok(line)
    }

    fn next_event(&mut self, expect: bool) -> Result<Option<String>, String> {
        if !expect {
            return Ok(None);
        }
        let rx = self.events.as_ref().ok_or("no subscription")?;
        let (at, line) = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "expected churn event never arrived")?;
        if self.measuring {
            self.churn_lag_ms
                .push(at.saturating_duration_since(self.last_sent).as_secs_f64() * 1e3);
        }
        Ok(Some(line))
    }

    fn start_measuring(&mut self) {
        self.measuring = true;
        self.started = Some(Instant::now());
    }
}

/// A model node or coordinator, as a request handler.
pub trait Handler {
    /// Serves one request line.
    ///
    /// # Errors
    /// As the model's `handle`.
    fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<String, String>;
    /// Churn events published since the last call.
    fn take_events(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Background work due between requests (periodic snapshot seals).
    ///
    /// # Errors
    /// As the background work's.
    fn tick(&mut self, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
}

impl Handler for Node {
    fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<String, String> {
        Node::handle(self, t, line)
    }
    fn take_events(&mut self) -> Vec<String> {
        Node::take_events(self)
    }
    fn tick(&mut self, t: &mut Tracer) -> Result<(), String> {
        Node::tick(self, t)
    }
}

impl Handler for Coordinator {
    fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<String, String> {
        Coordinator::handle(self, t, line)
    }
}

/// The in-process model as a target: each request is a traced root span
/// holding the client's encode and decode around the model's handling.
pub struct Local<'a, H: Handler> {
    /// The span recorder (disabled for the reference).
    pub t: &'a mut Tracer,
    /// The model.
    pub handler: H,
    /// Counters beside the spans.
    pub counts: Counts,
    /// Reference mode: answers of queries already asked on this epoch,
    /// reused instead of recomputed (the epoch is a pure function of the
    /// ingested data, so an identical knob set gives identical bytes).
    memo: Option<Vec<(RuleQuery, String)>>,
    pending: std::collections::VecDeque<String>,
}

impl<'a, H: Handler> Local<'a, H> {
    /// A target over `handler`; `memoize` for the untraced reference.
    pub fn new(t: &'a mut Tracer, handler: H, memoize: bool) -> Local<'a, H> {
        Local {
            t,
            handler,
            counts: Counts::default(),
            memo: memoize.then(Vec::new),
            pending: Default::default(),
        }
    }
}

impl<H: Handler> Target for Local<'_, H> {
    fn call(&mut self, kind: Kind, request: &Request) -> Result<Option<String>, String> {
        match request {
            Request::Query { query } => {
                if let Some(memo) = &self.memo {
                    if let Some((_, line)) = memo.iter().find(|(q, _)| q == query) {
                        return Ok(Some(line.clone()));
                    }
                }
            }
            Request::Ingest { rows } => {
                self.counts.tuples += rows.len() as u64;
                if let Some(memo) = &mut self.memo {
                    memo.clear();
                }
            }
            _ => {}
        }
        let handler = &mut self.handler;
        let line = self.t.request(kind.op(), |t| {
            let line = t.span("client.encode", |_| request.to_json().encode());
            let response = handler.handle(t, &line)?;
            // Decoding includes freeing the decoded tree, as in `Wire::call`.
            t.span("client.decode", |_| json::parse(&response).map(drop))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(response)
        })?;
        self.counts.decoded_bytes += line.len() as u64;
        self.pending.extend(self.handler.take_events());
        self.handler.tick(self.t)?;
        if let Request::Query { query } = request {
            self.counts.query_responses.0 += 1;
            self.counts.query_responses.1 += line.len() as u64;
            if let Some(memo) = &mut self.memo {
                memo.push((query.clone(), line.clone()));
            }
        }
        Ok(Some(line))
    }

    fn next_event(&mut self, _expect: bool) -> Result<Option<String>, String> {
        let Some(line) = self.pending.pop_front() else {
            return Ok(None);
        };
        self.t
            .request("op.event", |t| t.span("client.decode", |_| json::parse(&line).map(drop)))
            .map_err(|e| e.to_string())?;
        self.counts.decoded_bytes += line.len() as u64;
        Ok(Some(line))
    }
}
