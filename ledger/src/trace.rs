//! In-memory spans for the traced replay.
//!
//! A span is a name, a start, an end, its parent and the request it
//! belongs to. Spans are recorded around the ledger's calls into each
//! layer's public functions. Work that happens inside one public call
//! (epoch close, Phase II build, rule generation, ranking, snapshot
//! codec) is recorded as child spans sized by the exact `sum` delta of the
//! matching `dar_*` registry histogram around the call, laid out back to
//! back from the parent's start in pipeline order.

use crate::stats::{self, HistDelta};
use std::fmt::Write as _;
use std::time::Instant;

/// Registry histogram families that time stages of one public call:
/// `(span name, family)` in the order the call runs them.
pub type Stages = &'static [(&'static str, &'static str)];

/// Inside `SharedEngine::query`: epoch close, graph + cliques, rule
/// generation, ranking.
pub const QUERY_STAGES: Stages = &[
    ("engine.epoch_close", "dar_engine_epoch_close_ns"),
    ("mining.graph_cliques", "dar_mining_phase2_build_ns"),
    ("mining.rulegen", "dar_mining_rule_gen_ns"),
    ("rank.rank", "dar_rank_rank_ns"),
];
/// Inside `SharedEngine::ingest`: the Phase I forest insert.
pub const INGEST_STAGES: Stages = &[("birch.insert", "dar_engine_phase1_insert_ns")];
/// Inside `SharedEngine::snapshot`/`pull_snapshot`: epoch close, encode.
pub const SNAPSHOT_STAGES: Stages = &[
    ("engine.epoch_close", "dar_engine_epoch_close_ns"),
    ("persist.encode", "dar_persist_encode_ns"),
];
/// Inside `recover_backend`: snapshot decode, then WAL replay (Phase I).
pub const RECOVER_STAGES: Stages =
    &[("persist.decode", "dar_persist_decode_ns"), ("birch.insert", "dar_engine_phase1_insert_ns")];

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.stage` (or `op.<kind>` for a request's root).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// The span recorder. A disabled tracer runs the same calls and records
/// nothing, so the replay doubles as the untraced run's reference.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder; `on == false` makes every method a pass-through.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` as request `op` (a root span named `op`), under a fresh
    /// request id.
    pub fn request<R>(&mut self, op: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.request += 1;
        self.span(op, f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Runs `f` inside a span named `name` and adds one child span per
    /// stage whose registry histogram moved during the call.
    pub fn span_staged<R>(
        &mut self,
        name: &'static str,
        stages: Stages,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let before: Vec<(u64, u64)> = stages.iter().map(|s| stats::local_hist(s.1)).collect();
        let index = self.spans.len();
        let out = self.span(name, f);
        let parent = &self.spans[index];
        let (mut cursor, end, request) = (parent.start, parent.end, parent.request);
        for (&(stage, family), before) in stages.iter().zip(before) {
            let delta = HistDelta::between(before, stats::local_hist(family));
            if delta.count == 0 {
                continue;
            }
            let stop = (cursor + delta.sum).min(end);
            self.spans.push(Span {
                name: stage,
                start: cursor,
                end: stop,
                parent: Some(index),
                request,
            });
            cursor = stop;
        }
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus the union of its
    /// children's intervals), indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| stats::self_time((span.start, span.end), kids))
            .collect()
    }

    /// The spans as one JSON document (`{"spans":[…]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_request() {
        let mut t = Tracer::new(true);
        let v = t.request("op.query", |t| {
            t.span("serve.decode", |_| ());
            t.span("engine.query", |t| t.span("inner", |_| 7))
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 1 && s.start <= s.end));
        let self_times = t.self_times();
        let total: u64 = self_times.iter().sum();
        assert_eq!(total, spans[0].end - spans[0].start, "self times partition the root");
        assert!(t.to_json().starts_with("{\"spans\":[{\"id\":0,\"name\":\"op.query\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.request("op.x", |t| t.span_staged("y", QUERY_STAGES, |_| 3)), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn registry_stages_become_back_to_back_children() {
        let mut t = Tracer::new(true);
        const STAGES: Stages =
            &[("a.one", "dar_ledger_trace_one_ns"), ("a.two", "dar_ledger_trace_two_ns")];
        t.request("op.x", |t| {
            t.span_staged("call", STAGES, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                dar_obs::global().histogram("dar_ledger_trace_one_ns").observe(300_000);
                dar_obs::global().histogram("dar_ledger_trace_two_ns").observe(500_000);
            })
        });
        let spans = t.spans();
        let one = spans.iter().find(|s| s.name == "a.one").expect("stage one recorded");
        let two = spans.iter().find(|s| s.name == "a.two").expect("stage two recorded");
        assert_eq!(one.end - one.start, 300_000);
        assert_eq!(two.start, one.end, "stages are laid out back to back");
        assert_eq!(two.end - two.start, 500_000);
        assert_eq!(one.parent, Some(1));
    }
}
