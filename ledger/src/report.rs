//! Metric names, the numbers behind them, and how a pass prints.

use crate::model::Funnel;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced pass, with units. Every workload
/// reports all of them; "request" is each measured client request of the
/// workload (see the workload table in the crate docs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics of a traced pass, with units. Every workload
/// exercises every one of these layers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.encode_us_per_tuple", "us"),
    ("client.decode_ms_per_mb", "ms/MB"),
    ("serve.decode_us_per_tuple", "us"),
    ("serve.encode_ms", "ms"),
    ("serve.response_kb", "KB"),
    ("birch.insert_us_per_tuple", "us"),
    ("birch.rebuilds", "count"),
    ("birch.clusters", "count"),
    ("engine.epoch_close_ms", "ms"),
    ("mining.graph_cliques_ms", "ms"),
    ("mining.rulegen_ms", "ms"),
    ("mining.frequent_clusters", "count"),
    ("mining.edges_per_node", "ratio"),
    ("mining.cliques_nontrivial", "count"),
    ("mining.rules_generated", "count"),
    ("mining.rule_yield", "ratio"),
    ("rank.rank_ms", "ms"),
    ("rank.pruned_ratio", "ratio"),
];

/// One printed figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

impl Row {
    /// A row.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Row {
        Row { name: name.into(), value, unit, samples }
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (measured requests plus correctness checks).
    pub attempted: u64,
    /// Failed, refused or incorrect operations.
    pub failed: u64,
    /// The declared metrics (end-to-end or per-layer).
    pub metrics: Vec<Row>,
    /// Further figures, printed but not part of the result line.
    pub detail: Vec<Row>,
    /// Digest of every compared answer, in op order.
    pub digest: u64,
    /// Figures per op type (`ingest_ack`, `query_cold`, …).
    pub kinds: BTreeMap<String, KindStat>,
}

/// One op type's requests, their median latency (ms), and — in a traced
/// pass — the median self time (ms) each layer spends per request.
#[derive(Debug, Clone, Default)]
pub struct KindStat {
    /// Requests of this type.
    pub n: usize,
    /// Median latency (untraced) or root-span duration (traced), ms.
    pub median_ms: f64,
    /// Layer → median self time per request, ms (traced passes only).
    pub layers: BTreeMap<String, f64>,
}

/// FNV-1a, 64-bit: the answer digest.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The part of a response the ledger compares: a query's `rules` array
/// (its epoch and cache flag move with timing-driven snapshot seals and
/// client interleaving), or the whole line for every other verb.
pub fn answer(line: &str) -> &str {
    match line.find(",\"rules\":[") {
        Some(i) => &line[i + 9..line.len().saturating_sub(1).max(i + 9)],
        None => line,
    }
}

/// Checks that `rows` are exactly the `declared` metrics, in order, with
/// their units — what `BENCHMARK.json` declares.
///
/// # Errors
/// The first row that differs.
pub fn check_declared(rows: &[Row], declared: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.name.as_str(), r.unit)).collect();
    if got == declared {
        Ok(())
    } else {
        Err(format!("metrics {got:?} differ from the declared {declared:?}"))
    }
}

/// The measured requests of an untraced pass.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up, seconds.
    pub setups: Vec<f64>,
    /// `(kind, latency ms)` per measured request, kinds as
    /// `ingest_ack`, `query_cold`, … .
    pub requests: Vec<(&'static str, f64)>,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// Σ peak RSS of the server processes, MiB.
    pub rss_mb: f64,
}

impl Measured {
    /// The end-to-end rows. Fails when the sample cannot support p90.
    pub fn end_to_end(&self) -> Result<Vec<Row>, String> {
        let all = stats::sorted(self.requests.iter().map(|r| r.1).collect());
        let n = all.len();
        let p90 = stats::tail(&all, 90)
            .ok_or_else(|| format!("{n} requests cannot support a p90 (needs 100)"))?;
        Ok(vec![
            Row::new("setup_s", stats::median(&self.setups), "s", self.setups.len()),
            Row::new("latency_ms_p50", stats::nearest_rank(&all, 50.0), "ms", n),
            Row::new("latency_ms_p90", p90, "ms", n),
            Row::new("requests_per_s", n as f64 / self.wall_s, "1/s", n),
        ])
    }

    /// Per-kind medians and the highest tail each kind's sample supports.
    pub fn by_kind(&self) -> (Vec<Row>, BTreeMap<String, KindStat>) {
        let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for &(kind, ms) in &self.requests {
            kinds.entry(kind).or_default().push(ms);
        }
        let mut rows = Vec::new();
        let mut stats_by_kind = BTreeMap::new();
        for (kind, values) in kinds {
            let sorted = stats::sorted(values);
            let n = sorted.len();
            let p50 = stats::nearest_rank(&sorted, 50.0);
            stats_by_kind
                .insert(kind.to_string(), KindStat { n, median_ms: p50, ..KindStat::default() });
            rows.push(Row::new(format!("{kind}_ms_p50"), p50, "ms", n));
            if let Some(p) = stats::supported_tail(n) {
                let value = stats::nearest_rank(&sorted, f64::from(p));
                rows.push(Row::new(format!("{kind}_ms_p{p}"), value, "ms", n));
            }
        }
        (rows, stats_by_kind)
    }
}

/// Counters a traced replay keeps beside its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Tuples the client sent in ingest requests.
    pub tuples: u64,
    /// Response bytes the client decoded.
    pub decoded_bytes: u64,
    /// Query responses and their total bytes.
    pub query_responses: (u64, u64),
    /// Clusters in the final epoch.
    pub clusters: usize,
    /// `dar_birch_rebuilds_total` movement over the replay.
    pub rebuilds: u64,
}

/// Per-span aggregates of a trace: duration, self time, and the root op
/// each span belongs to.
pub struct SpanTable<'a> {
    tracer: &'a Tracer,
    self_ns: Vec<u64>,
    root: Vec<usize>,
}

impl<'a> SpanTable<'a> {
    /// Indexes a trace.
    pub fn new(tracer: &'a Tracer) -> SpanTable<'a> {
        let spans = tracer.spans();
        let mut root = Vec::with_capacity(spans.len());
        for (i, span) in spans.iter().enumerate() {
            // Parents precede children, so the parent's root is known.
            root.push(span.parent.map_or(i, |p| root[p]));
        }
        SpanTable { tracer, self_ns: tracer.self_times(), root }
    }

    fn root_name(&self, i: usize) -> &'static str {
        self.tracer.spans()[self.root[i]].name
    }

    /// Σ duration (ns) and count of spans named `name` whose root op
    /// satisfies `under`.
    pub fn total(&self, name: &str, under: impl Fn(&str) -> bool) -> (u64, u64) {
        self.tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && under(self.root_name(*i)))
            .fold((0, 0), |(sum, n), (_, s)| (sum + (s.end - s.start), n + 1))
    }

    /// Mean duration (ms) of spans named `name` under roots matching
    /// `under`, if any.
    pub fn mean_ms(&self, name: &str, under: impl Fn(&str) -> bool) -> Option<f64> {
        let (sum, n) = self.total(name, under);
        (n > 0).then(|| sum as f64 / n as f64 / 1e6)
    }

    /// Σ self time (ns) per layer (the span name's prefix), over all spans.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, &ns) in self.tracer.spans().iter().zip(&self.self_ns) {
            *out.entry(layer_of(span)).or_default() += ns;
        }
        out
    }

    /// Per root-op kind: the median root duration and the median per-op
    /// self time of each layer.
    pub fn by_kind(&self) -> BTreeMap<String, KindStat> {
        let spans = self.tracer.spans();
        // root index → (layer → self ns)
        let mut per_op: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            *per_op.entry(self.root[i]).or_default().entry(layer_of(span)).or_default() +=
                self.self_ns[i];
        }
        let mut kinds: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for &root in per_op.keys() {
            kinds
                .entry(spans[root].name.trim_start_matches("op.").to_string())
                .or_default()
                .push(root);
        }
        kinds
            .into_iter()
            .map(|(kind, roots)| {
                let durations: Vec<f64> =
                    roots.iter().map(|&r| (spans[r].end - spans[r].start) as f64 / 1e6).collect();
                let names: std::collections::BTreeSet<&str> =
                    roots.iter().flat_map(|r| per_op[r].keys().copied()).collect();
                let layers = names
                    .into_iter()
                    .map(|layer| {
                        let per_request: Vec<f64> = roots
                            .iter()
                            .map(|r| per_op[r].get(layer).copied().unwrap_or(0) as f64 / 1e6)
                            .collect();
                        (layer.to_string(), stats::median(&per_request))
                    })
                    .collect();
                let stat =
                    KindStat { n: roots.len(), median_ms: stats::median(&durations), layers };
                (kind, stat)
            })
            .collect()
    }
}

/// The layer a span's self time counts under: its name's prefix, or
/// `unattributed` for a request's root (time between the layer calls).
fn layer_of(span: &crate::trace::Span) -> &'static str {
    if span.parent.is_none() {
        "unattributed"
    } else {
        span.name.split('.').next().unwrap_or(span.name)
    }
}

fn is_ingest(root: &str) -> bool {
    matches!(root, "op.ingest_ack" | "op.preload")
}

fn is_query(root: &str) -> bool {
    root.starts_with("op.query")
}

/// The declared per-layer rows of a traced replay.
///
/// # Errors
/// A layer metric the replay produced no sample for.
pub fn per_layer(
    table: &SpanTable,
    counts: &Counts,
    funnels: &[Funnel],
) -> Result<Vec<Row>, String> {
    let tuples = counts.tuples.max(1) as f64;
    let per_tuple_us = |name: &str| table.total(name, is_ingest).0 as f64 / 1e3 / tuples;
    let mean_ms = |name: &str| {
        let n = table.total(name, |_| true).1 as usize;
        let ms = table.mean_ms(name, |_| true).ok_or_else(|| format!("no {name} span recorded"))?;
        Ok::<_, String>(Row::new(format!("{name}_ms"), ms, "ms", n))
    };
    if funnels.is_empty() {
        return Err("no query built Phase II artifacts".into());
    }
    let f = funnels.len() as f64;
    let sum = |g: fn(&Funnel) -> usize| funnels.iter().map(g).sum::<usize>() as f64;
    let (responses, response_bytes) = counts.query_responses;
    let encode_ms = {
        let spans = table.tracer.spans();
        let encodes: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.encode")
            .filter(|s| {
                s.parent.is_some_and(|p| spans[p].parent.is_none() && is_query(spans[p].name))
            })
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect();
        if encodes.is_empty() {
            return Err("no query response encoded".into());
        }
        encodes.iter().sum::<f64>() / encodes.len() as f64
    };
    let decoded_mb = counts.decoded_bytes as f64 / (1u64 << 20) as f64;
    Ok(vec![
        Row::new("client.encode_us_per_tuple", per_tuple_us("client.encode"), "us", 1),
        Row::new(
            "client.decode_ms_per_mb",
            table.total("client.decode", |_| true).0 as f64 / 1e6 / decoded_mb.max(1e-9),
            "ms/MB",
            1,
        ),
        Row::new("serve.decode_us_per_tuple", per_tuple_us("serve.decode"), "us", 1),
        Row::new("serve.encode_ms", encode_ms, "ms", responses as usize),
        Row::new(
            "serve.response_kb",
            response_bytes as f64 / responses.max(1) as f64 / 1024.0,
            "KB",
            responses as usize,
        ),
        Row::new("birch.insert_us_per_tuple", per_tuple_us("birch.insert"), "us", 1),
        Row::new("birch.rebuilds", counts.rebuilds as f64, "count", 1),
        Row::new("birch.clusters", counts.clusters as f64, "count", 1),
        mean_ms("engine.epoch_close")?,
        mean_ms("mining.graph_cliques")?,
        mean_ms("mining.rulegen")?,
        Row::new("mining.frequent_clusters", sum(|x| x.frequent) / f, "count", funnels.len()),
        Row::new(
            "mining.edges_per_node",
            sum(|x| x.edges) / sum(|x| x.frequent).max(1.0),
            "ratio",
            funnels.len(),
        ),
        Row::new("mining.cliques_nontrivial", sum(|x| x.cliques) / f, "count", funnels.len()),
        Row::new("mining.rules_generated", sum(|x| x.rules_in) / f, "count", funnels.len()),
        Row::new(
            "mining.rule_yield",
            sum(|x| x.rules_out) / sum(|x| x.rules_in).max(1.0),
            "ratio",
            funnels.len(),
        ),
        mean_ms("rank.rank")?,
        Row::new(
            "rank.pruned_ratio",
            sum(|x| x.pruned) / sum(|x| x.rules_in).max(1.0),
            "ratio",
            funnels.len(),
        ),
    ])
}

/// Renders rows as an aligned table.
pub fn table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("\n== {title} ==\n");
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0).max(6);
    let _ =
        writeln!(out, "  {:<width$}  {:>14}  {:<6}  {:>7}", "metric", "value", "unit", "samples");
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<width$}  {:>14}  {:<6}  {:>7}",
            r.name,
            format_value(r.value),
            r.unit,
            r.samples
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Row]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, r) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", r.name, r.value, r.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_compare_only_the_rules_of_a_query() {
        let query = r#"{"ok":true,"verb":"query","epoch":7,"cached":true,"rules":[{"antecedent":[1]},{"antecedent":[2]}]}"#;
        assert_eq!(answer(query), r#"[{"antecedent":[1]},{"antecedent":[2]}]"#);
        let ack = r#"{"ok":true,"verb":"ingest","tuples":3,"total":9}"#;
        assert_eq!(answer(ack), ack);
        assert_eq!(answer(r#"{"ok":true,"rules":[]}"#), "[]");
    }

    #[test]
    fn result_lines_carry_every_metric() {
        let line = result_line(true, 0, 0, &[Row::new("a_ms", 1.5, "ms", 3)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a_ms":{"value":1.5,"unit":"ms"}}}"#
        );
    }
}
