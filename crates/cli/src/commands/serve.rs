//! `dar serve` — run the network serving layer over a long-lived
//! [`dar_engine::DarEngine`]: a std-only threaded TCP server speaking
//! the newline-delimited JSON protocol (`ingest`, `query`, `clusters`,
//! `stats`, `snapshot`, `shutdown`).
//!
//! The command binds `--addr`, announces the bound address on stderr
//! (so scripts using port 0 can discover it), then blocks until a wire
//! `shutdown` request arrives; the final counters are printed on exit.
//!
//! ```text
//! dar serve --addr 127.0.0.1:7878 --attrs 3 --threads 4 \
//!     --snapshot-path epoch.snap --snapshot-secs 30 --wal-path ingest.wal
//! ```
//!
//! With `--wal-path` and/or `--snapshot-path`, boot first *recovers*:
//! the newest verifiable snapshot is restored (corrupt slots are skipped
//! for the previous good one) and the WAL suffix is replayed, so a
//! killed server restarts with every acknowledged batch intact.
//!
//! With `--window-batches N`, the server mines a **sliding window**
//! instead of all history: every `N` ingested batches seal a window, at
//! most `--window-slots` windows stay live (the open one plus the sealed
//! ring), and the oldest retires: its per-window columns leave the one
//! Phase I forest. `--window-policy remerge|subtract` is accepted only for
//! compatibility (both name that one retirement) and goes when the
//! benchmark that passes it next changes.
//! Windowed servers additionally speak `advance` (explicit seal) and
//! `subscribe` (live rule-churn events); WAL frames carry the window
//! sequence so recovery rebuilds the exact ring.

use crate::args::Args;
use crate::data::parse_cluster_metric;
use crate::CliError;
use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::{ServeConfig, ServeSummary, Server, Verb, WindowSpec};
use std::fmt::Write as _;
use std::time::Duration;

/// Runs the command: recover, serve until a wire `shutdown`, then report.
pub fn run(args: &Args) -> Result<String, CliError> {
    let addr = args.required("addr")?.to_string();
    let (engine, serve_config) = build(args)?;
    // The server recovers before it binds; its errors say which failed.
    let handle =
        Server::start(engine, &addr, serve_config).map_err(|e| CliError::new(e.to_string()))?;
    if let Some(report) = handle.recovery() {
        let shared = handle.shared();
        eprintln!(
            "dar serve: recovered {} tuples (snapshot: {}, wal batches replayed: {}{}{})",
            shared.tuples(),
            report.snapshot_source.map_or_else(|| "none".into(), |s| format!("{s:?}")),
            report.wal_batches_replayed,
            shared.window_span().map_or_else(String::new, |(oldest, open)| format!(
                ", window span {oldest}..={open}"
            )),
            if report.degraded_artifacts() {
                format!(
                    ", routed around damage: {} corrupt snapshot(s), {} torn tail byte(s)",
                    report.corrupt_snapshots_skipped, report.wal_tail_dropped_bytes
                )
            } else {
                String::new()
            },
        );
    }
    // Announce on stderr immediately — stdout is the post-shutdown report.
    eprintln!("dar serve: listening on {}", handle.addr());
    if let Some(metrics_addr) = handle.metrics_addr() {
        eprintln!("dar serve: metrics exposition on {metrics_addr}");
    }
    let summary = handle.join()?;
    Ok(report(&summary))
}

/// Parses the sliding-window flags: `None` (the default) is a classic
/// all-history server; `--window-batches` opts into windowed mining.
/// `--window-policy` takes `remerge` or `subtract` for compatibility only:
/// there is one retirement, and the flag goes when the benchmark that
/// passes it next changes.
pub fn window_options(args: &Args) -> Result<Option<WindowSpec>, CliError> {
    let batches = args.number::<u64>("window-batches", 0)?;
    let slots = args.number::<usize>("window-slots", 0)?;
    let policy = args.optional("window-policy");
    if batches == 0 {
        if slots != 0 || policy.is_some() {
            return Err(CliError::new("--window-slots/--window-policy require --window-batches"));
        }
        return Ok(None);
    }
    if let Some(name) = policy.filter(|name| !matches!(*name, "remerge" | "subtract")) {
        return Err(CliError::new(format!(
            "--window-policy: expected remerge or subtract, got {name:?}"
        )));
    }
    Ok(Some(WindowSpec { batches, slots: if slots == 0 { 2 } else { slots } }))
}

/// Builds the engine and server configuration from the flags. The
/// engine is created empty: unlike the one-shot commands there is no
/// input CSV — clients `ingest` over the wire — so the schema is fixed up
/// front by `--attrs` (interval attributes, per-attribute partitioning).
pub fn build(args: &Args) -> Result<(DarEngine, ServeConfig), CliError> {
    let attrs = args.number::<usize>("attrs", 3)?;
    if attrs == 0 {
        return Err(CliError::new("--attrs must be at least 1"));
    }
    let schema = Schema::interval_attrs(attrs);
    let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);

    // `--threads` sizes both pools: the TCP connection workers and the
    // engine's data-parallel mining regions. 0 (the default) means the
    // host's available parallelism; mining output is byte-identical at
    // every setting.
    let threads = args.number::<usize>("threads", 0)?;
    let mut config = EngineConfig {
        min_support_frac: args.number("support", 0.05)?,
        metric: parse_cluster_metric(args.optional("metric").unwrap_or("d2"))?,
        threads,
        ..EngineConfig::default()
    };
    config.birch.memory_budget = args.number::<usize>("memory-kb", 1024)? << 10;
    if let Some(raw) = args.optional("initial-threshold") {
        let threshold: f64 = raw
            .parse()
            .map_err(|_| CliError::new(format!("--initial-threshold: cannot parse {raw:?}")))?;
        config.birch.initial_threshold = threshold;
    }
    let engine = DarEngine::with_window(partitioning, config, window_options(args)?)?;

    // The server's base query: rank knobs a client's `query` does not
    // send fall back to these, and churn events score rules with them.
    let mut base_query = mining::RuleQuery::default();
    crate::commands::apply_rank_flags(args, &mut base_query)?;

    let timeout = Duration::from_millis(args.number::<u64>("timeout-ms", 30_000)?);
    let serve_config = ServeConfig {
        threads: if threads == 0 { dar_par::available_parallelism() } else { threads },
        queue_depth: args.number::<usize>("queue", 64)?.max(1),
        read_timeout: timeout,
        write_timeout: timeout,
        snapshot_path: args.optional("snapshot-path").map(std::path::PathBuf::from),
        snapshot_interval: match args.number::<u64>("snapshot-secs", 0)? {
            0 => None,
            secs => Some(Duration::from_secs(secs)),
        },
        wal_path: args.optional("wal-path").map(std::path::PathBuf::from),
        metrics_addr: args.optional("metrics-addr").map(String::from),
        base_query,
        ..ServeConfig::default()
    };
    if serve_config.snapshot_interval.is_some() && serve_config.snapshot_path.is_none() {
        return Err(CliError::new("--snapshot-secs requires --snapshot-path"));
    }
    Ok((engine, serve_config))
}

/// Formats the post-shutdown report.
fn report(summary: &ServeSummary) -> String {
    let s = &summary.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} connections ({} refused), {} requests \
         ({} ingest / {} query / {} clusters / {} stats / {} snapshot / {} shutdown), \
         {} errors, latency p50 {}µs p99 {}µs",
        s.connections,
        s.rejected_connections,
        s.total_requests(),
        s.requests(Verb::Ingest),
        s.requests(Verb::Query),
        s.requests(Verb::Clusters),
        s.requests(Verb::Stats),
        s.requests(Verb::Snapshot),
        s.requests(Verb::Shutdown),
        s.error_responses,
        s.p50_us,
        s.p99_us,
    );
    let (advance, subscribe) = (s.requests(Verb::Advance), s.requests(Verb::Subscribe));
    if advance + subscribe > 0 {
        let _ = writeln!(out, "serve: streaming — {advance} advance / {subscribe} subscribe");
    }
    if let Some(path) = &summary.snapshot_path {
        let _ = writeln!(out, "serve: final snapshot written to {}", path.display());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use dar_serve::{Client, Request};
    use mining::RuleQuery;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn build_applies_every_flag() {
        let args = parse(&argv(&[
            "--attrs",
            "4",
            "--support",
            "0.2",
            "--metric",
            "d0",
            "--threads",
            "2",
            "--queue",
            "8",
            "--timeout-ms",
            "500",
            "--initial-threshold",
            "1.5",
            "--wal-path",
            "ingest.wal",
            "--metrics-addr",
            "127.0.0.1:0",
            "--measure",
            "lift",
            "--top-k",
            "5",
            "--prune-redundant",
        ]))
        .unwrap();
        let (engine, config) = build(&args).unwrap();
        assert_eq!(engine.required_row_width(), 4);
        assert_eq!(config.threads, 2);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.read_timeout, Duration::from_millis(500));
        assert!(config.snapshot_path.is_none());
        assert_eq!(config.wal_path.as_deref(), Some(std::path::Path::new("ingest.wal")));
        assert_eq!(config.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(config.base_query.measure, mining::Measure::Lift);
        assert_eq!(config.base_query.top_k, 5);
        assert!(config.base_query.prune_redundant);
    }

    #[test]
    fn build_rejects_inconsistent_flags() {
        let args = parse(&argv(&["--attrs", "0"])).unwrap();
        assert!(build(&args).is_err());
        let args = parse(&argv(&["--snapshot-secs", "5"])).unwrap();
        let err = build(&args).err().expect("snapshot interval without a path must fail");
        assert!(err.to_string().contains("snapshot-path"));
        let args = parse(&argv(&["--metric", "d7"])).unwrap();
        assert!(build(&args).is_err());
    }

    #[test]
    fn window_flags_select_the_backend() {
        let (engine, _) = build(&parse(&argv(&["--attrs", "2"])).unwrap()).unwrap();
        assert!(!engine.is_windowed(), "no window flags: classic all-history engine");

        let args = parse(&argv(&["--attrs", "2", "--window-batches", "8", "--window-slots", "3"]))
            .unwrap();
        let (engine, _) = build(&args).unwrap();
        assert!(engine.is_windowed());
        assert_eq!(engine.window_span(), Some((0, 0)), "fresh ring: only window 0, open");

        // Default slots 2; both compatibility policy names select the
        // one retirement.
        let args = parse(&argv(&["--window-batches", "4"])).unwrap();
        let spec = window_options(&args).unwrap().unwrap();
        assert_eq!((spec.batches, spec.slots), (4, 2));
        for name in ["remerge", "subtract"] {
            let args = parse(&argv(&["--window-batches", "4", "--window-policy", name])).unwrap();
            assert_eq!(window_options(&args).unwrap(), Some(spec), "{name}");
        }

        // Window knobs without --window-batches, or a bad policy, fail.
        let err = window_options(&parse(&argv(&["--window-slots", "3"])).unwrap()).unwrap_err();
        assert!(err.to_string().contains("--window-batches"), "{err}");
        let args = parse(&argv(&["--window-batches", "4", "--window-policy", "lru"])).unwrap();
        let err = window_options(&args).unwrap_err();
        assert!(err.to_string().contains("expected remerge or subtract, got \"lru\""), "{err}");
    }

    #[test]
    fn serve_round_trips_one_client_and_reports() {
        let args =
            parse(&argv(&["--addr", "127.0.0.1:0", "--attrs", "2", "--support", "0.1"])).unwrap();
        let (engine, config) = build(&args).unwrap();
        let handle = Server::start(engine, "127.0.0.1:0", config).unwrap();
        let addr = handle.addr();

        let client = std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
            let rows: Vec<Vec<f64>> =
                (0..40).map(|i| vec![(i % 2) as f64 * 50.0, (i % 2) as f64 * 100.0]).collect();
            assert_eq!(client.ingest(rows).unwrap(), 40);
            let outcome = client.query(RuleQuery::default()).unwrap();
            assert_eq!(outcome.get("ok").and_then(dar_serve::Json::as_bool), Some(true));
            client.request(&Request::Shutdown).unwrap();
        });
        let summary = handle.join().unwrap();
        client.join().unwrap();
        let out = report(&summary);
        assert!(out.contains("1 ingest / 1 query"), "{out}");
        assert!(out.contains("1 shutdown"), "{out}");
    }
}
