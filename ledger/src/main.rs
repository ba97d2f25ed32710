//! # ledger — end-to-end and per-layer performance of the DAR serving stack
//!
//! The ledger measures the real `dar serve` and `dar cluster-coordinator`
//! processes on WBCD-like data (`datagen::wbcd::wbcd_relation(n, 0.1, _)`:
//! 30 attributes, 10% outliers, the paper's Fig. 6 method) under the
//! paper's §7.2 configuration (`--attrs 30 --support 0.03 --memory-kb 170
//! --initial-threshold 0`: 5 MB over 30 trees), and explains the time
//! layer by layer.
//!
//! The relation is one fixed sample, as the paper mines one dataset; the
//! `--seed` draws the request stream: which knob sets the queries carry
//! (measures in equal shares, degree factors stratified over a range) and
//! in what order the query kinds arrive. A fresh sample per seed would
//! move Phase II costs by up to 2× — its clique and rule counts vary that
//! much between samples — and bury any change under test.
//!
//! ## Reproducing a run
//!
//! From the repository root (`run.sh` builds `ledger` and `dar` in one
//! release build, offline, then runs the ledger):
//!
//! ```text
//! bash ledger/run.sh                       # all four workloads, untraced (≈2 min)
//! bash ledger/run.sh --traced              # + traced replay, reconciliation (≈3 min)
//! bash ledger/run.sh --workload query-mix --seed 7 --seconds 15 --trace 0
//! bash ledger/run.sh --workload query-mix --repeat 3   # median + IQR, seeds 7, 8, 9
//! cargo test --manifest-path ledger/Cargo.toml         # stats tests + `--smoke`
//! ```
//!
//! Every pass prints its metrics as a table with units and sample counts;
//! the last stdout line is `{"correct":…,"attempted":…,"failed":…,
//! "metrics":{…}}`. The exit code is 0 only when every answer checked out.
//! Times here are for the calibration machine: a virtual machine with 2
//! shared cores, loopback TCP, and fsync on virtio ext4 — virtual-disk
//! numbers, not a storage device's.
//!
//! ## Modes
//!
//! * **Untraced** (default, the end-to-end numbers): spawns `dar`
//!   processes built from this checkout (the `dar` beside the `ledger`
//!   executable) on loopback ports and drives them from this one process
//!   with at most two threads and two connections, closed loop: every
//!   caller waits for its reply before sending the next request. Each
//!   request leaves in one write on a `TCP_NODELAY` socket, so the load
//!   generator adds no Nagle / delayed-ACK stall (≈40 ms on loopback) of
//!   its own; stalls inside the system, as on coordinator → shard hops,
//!   are measured.
//! * **Traced** (`--trace 1`, the per-layer numbers): replays the same
//!   requests in-process through [`model`], which calls each layer's
//!   public functions with a span around each call ([`trace`]). Spans are
//!   written to `<target>/ledger/trace-<workload>.json`.
//! * **`--traced`**: both passes, then per request type the untraced
//!   median set against the traced layers' median self times; the rest is
//!   `serve.unexplained_ms` — wire, syscalls, scheduling and the server's
//!   own threads, which the in-process replay does not see. The two
//!   passes' answer digests must be equal.
//! * **`--smoke`**: the traced path of all four workloads at a few
//!   thousand tuples and about ten requests each, no processes.
//!
//! ## Work per pass
//!
//! `--seconds S` sets the measured *work*, not a timer: each workload
//! sends a fixed number of requests per second of `S`, calibrated so
//! that its measured phase lasts about `S` seconds on the calibration
//! machine (10–13 s at `S` = 15, as the host's speed drifts by ±15% over
//! minutes), and never fewer than 100 measured requests (what
//! `latency_ms_p90` needs), so a small `S` still yields every metric.
//! Two commits under comparison therefore do identical work —
//! a faster commit is not pushed further into a workload's drifting
//! regime (subtract retirement below) — and the traced replay reproduces
//! the untraced run's answers request for request.
//!
//! | workload | set-up (timed as `setup_s`, 5×) | measured, per second of `S` | requests |
//! |---|---|---|---|
//! | `ingest-durable` | `serve --threads 2`, WAL + snapshot (`--snapshot-secs 5`), 20 batches | 35 batches of 1000 rows; then one cold paper-density top-25 query, `kill -9`, restart, the same query | the acks |
//! | `query-mix` | `serve --threads 2`, 50 batches, the full answer and 8 repeat sets warmed | 2 clients × 12 queries, in blocks of 2 retunes, 2 repeats, 1 full answer in seeded order | every query |
//! | `cluster-rounds` | 2 × `serve --threads 1 --wal-path`, `cluster-coordinator --threads 1`, 40 batches | 4 rounds of ingest → cold paper-density top-25 → the same query | all three |
//! | `window-churn` | `serve --threads 2 --window-batches 2 --window-slots 4 --window-policy subtract --wal-path`, base query `--measure lift --top-k 25 --prune-redundant`, a subscriber, the ring filled (4 windows) | 4 windows of 2 batches; after the sealing batch, its churn event, then a base-density top-25 of the window (lift — the base query itself — or another measure, in turn) | ingests and queries |
//!
//! Flush policy: every acknowledged batch is fsynced to the WAL before its
//! ack; `ingest-durable` seals a snapshot every 5 s.
//!
//! ## Correctness
//!
//! Before measuring, the untraced pass replays its requests through the
//! model with tracing off (the model builds its engines from the very
//! flags the processes get, via `dar_cli::commands::{serve,
//! coordinator}::build`) and records a digest of every answer: the
//! `rules` array of a query (its epoch and cache flag move with
//! timing-driven seals and client interleaving), the whole line
//! otherwise. Every real answer is compared with it.
//!
//! * `query-mix`: the reference answers each distinct knob set once.
//! * `cluster-rounds`: the reference is `(seq − 1) mod N` routing with
//!   shard-order `merge_parsed_snapshots`, not one engine — real-valued
//!   data is not dyadic, so a single engine's sums differ (DESIGN §12–13).
//! * `window-churn`: churn event frames are compared byte for byte; the
//!   real run waits only for the events the reference published.
//! * `ingest-durable`: the live server's answer after the stream is
//!   checked like any other. After `kill -9` the model recovers a copy of
//!   the killed server's files (the restart repairs a torn WAL tail in
//!   place), with no periodic seal: it must hold every acknowledged tuple,
//!   and the restarted server's first answer must equal the model's over
//!   that copy. Not the live answer: once a seal has run, recovery replays
//!   the WAL tail into the sealed clusters, which summarise it differently
//!   from the uninterrupted trees, so the recovered rules depend on when
//!   the last seal ran.
//!
//! Mismatches and failed calls — refused (`"ok":false`), undecodable, or
//! lost in transport (the connection is then redialled) — count in
//! `failed` and `error_frac`, make the result line `"correct":false`, and
//! the exit code 1. Only a process that is gone ends a pass without a
//! result line.
//!
//! ## End-to-end metrics (untraced)
//!
//! Every workload reports all four; a *request* is one of the workload's
//! measured requests (table above).
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | median of five set-ups: spawn → ready to measure, preload included |
//! | `latency_ms_p50`, `latency_ms_p90` | nearest-rank percentiles of request latency, from encoding the request to having decoded (and freed) the reply |
//! | `requests_per_s` | requests ÷ measured wall time |
//!
//! Detail rows add, per request type, `<type>_ms_p50` and the highest
//! tail the sample supports (`p95` from 200 samples, `p90` from 100: ten
//! samples beyond the percentile, or none is printed), `error_frac`,
//! `ingest_tuples_per_s`, `recovery_s` (restart → first answer, checked
//! as above), `churn_lag_ms_p50` (sealing ingest sent → event received),
//! `queries_per_s`, `server_rss_mb` (Σ peak RSS of the server
//! processes — it moves ±20% between identical runs with the allocator's
//! arena reuse, so it is printed, not gated on), and `served.*`: the
//! servers' own `dar_*` histogram
//! means over the measured phase, from exact `sum`/`count` deltas of the
//! `metrics` verb read before and after it (never registry quantiles).
//!
//! ## Per-layer metrics (traced)
//!
//! Layers are crates. Work inside one public call (epoch close, graph +
//! cliques, rule generation, ranking, snapshot encode/decode, the Phase I
//! insert) becomes child spans sized by the exact `sum` delta of its
//! `dar_*` histogram around the call. Graph and cliques share one
//! histogram (`dar_mining_phase2_build_ns`), so they are one span.
//! Self time is a span's duration minus the union of its children.
//!
//! | metric | what | should move → on |
//! |---|---|---|
//! | `client.encode_us_per_tuple`, `client.decode_ms_per_mb` | the load generator's own JSON cost | share of ingest latency (`ingest-durable`), full-answer latency (`query-mix`) |
//! | `serve.decode_us_per_tuple`, `serve.encode_ms`, `serve.response_kb` | request parse, response build + encode, response size | `ingest_tuples_per_s`; `query_full` latency (`query-mix`) |
//! | `birch.insert_us_per_tuple`, `birch.rebuilds`, `birch.clusters` | Phase I | ingest latency (`ingest-durable`); cold queries (`cluster-rounds`) |
//! | `engine.epoch_close_ms` | cluster extraction on a new epoch | cold queries (`cluster-rounds`, `window-churn`) |
//! | `mining.graph_cliques_ms`, `mining.rulegen_ms` | Phase II build, rule generation | retunes (`query-mix`); cold queries (`cluster-rounds`) |
//! | `mining.frequent_clusters`, `mining.edges_per_node`, `mining.cliques_nontrivial`, `mining.rules_generated`, `mining.rule_yield` | the §7.2 funnel of the queries that built artifacts; yield = returned ÷ generated | — |
//! | `rank.rank_ms`, `rank.pruned_ratio` | ranking + pruning | retunes and repeats (`query-mix`) |
//!
//! Detail rows add the layers only some workloads run: `durable.*`
//! (WAL append, seal, recovery, WAL bytes per user byte), `persist.*`,
//! `cluster.*` (route, pull incl. base64, pulls per query, reuse ratio),
//! `birch.merge_ms`, `birch.linearity` (last-100K ÷ first-100K µs/tuple,
//! the paper's ≈1), `stream.*` (windowed ingest, publish, diff, events),
//! hit ratios, each layer's share of all self time, and per request type
//! the median self time of every layer.
//!
//! ## Reading the numbers
//!
//! * **Phase I reads ≈8–12 µs/tuple here against `BENCH_engine.json`'s
//!   ≈0.25.** That bench ingests 3 attributes; this one 30. The engine
//!   keeps one ACF tree per attribute and every ACF carries moments for
//!   every other attribute set (Eq. 7), so a row updates 30 trees × 30
//!   moment pairs instead of 3 × 3; the WBCD-like data, a zero initial
//!   threshold and the memory cap also force ≈2 rebuilds per 1000 rows.
//! * **Subtract retirement grows Phase II without bound (open, for the
//!   ROADMAP exact-accumulator item).** With `--window-policy subtract`
//!   the live horizon stays fixed (8K tuples in `window-churn`'s
//!   geometry), yet what subtraction leaves behind keeps more rules
//!   alive. Probed in-process on the calibration machine: a paper-density
//!   lift top-25 query went from 0.5 s to 12 s within 25 windows; at the
//!   base density it went from 10 ms to 0.6 s over 95 windows as rules
//!   generated per query rose from ≈500 to ≈60K, while under `remerge`
//!   the same base-density query stayed at 9–18 ms. `window-churn`
//!   therefore queries at the base density, and its
//!   `mining.rules_generated` records the growth.

mod model;
mod plan;
mod procs;
mod report;
mod stats;
mod target;
mod trace;
mod wire;
mod workloads;

use report::{Outcome, Row};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Ctx;

const USAGE: &str = "usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--repeat K] [--smoke]";

/// What the command line asked for.
struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reconcile: bool,
    repeat: usize,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: plan::WORKLOADS.to_vec(),
        seed: 20261016,
        seconds: 15,
        trace: false,
        reconcile: false,
        repeat: 1,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = || argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag {
            "--workload" => {
                let name = value()?;
                let known = plan::WORKLOADS.iter().find(|w| *w == name);
                opts.workloads = vec![*known.ok_or_else(|| format!("unknown workload {name:?}"))?];
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?.max(1),
            "--trace" => opts.trace = number(value()?)? != 0,
            "--repeat" => opts.repeat = number(value()?)?.max(1) as usize,
            "--traced" => {
                opts.reconcile = true;
                i += 1;
                continue;
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    Ok(opts)
}

/// `<target>/`, the build directory holding this executable's profile
/// directory; every file the ledger writes goes under `<target>/ledger/`.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile = exe.parent().ok_or("executable has no directory")?;
    Ok(profile.parent().unwrap_or(profile).to_path_buf())
}

fn run_pass(name: &str, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    use workloads::*;
    match (name, traced) {
        ("ingest-durable", false) => ingest_durable::untraced(ctx),
        ("ingest-durable", true) => ingest_durable::traced(ctx),
        ("query-mix", false) => query_mix::untraced(ctx),
        ("query-mix", true) => query_mix::traced(ctx),
        ("cluster-rounds", false) => cluster_rounds::untraced(ctx),
        ("cluster-rounds", true) => cluster_rounds::traced(ctx),
        ("window-churn", false) => window_churn::untraced(ctx),
        ("window-churn", true) => window_churn::traced(ctx),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// Runs `repeat` passes (seeds `seed`, `seed + 1`, …) and folds them:
/// medians of every declared metric, plus IQR and spread when repeated.
fn passes(name: &str, opts: &Opts, base: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut outcomes = Vec::new();
    for k in 0..opts.repeat {
        let ctx = base.pass(name, k, traced)?;
        let outcome = run_pass(name, &ctx, traced)?;
        let _ = std::fs::remove_dir_all(&ctx.work);
        let mode = if traced { "traced" } else { "untraced" };
        print!(
            "{}",
            report::table(&format!("{name} · {mode} · seed {}", ctx.seed), &outcome.metrics)
        );
        print!("{}", report::table("detail", &outcome.detail));
        for (kind, stat) in outcome.kinds.iter().filter(|(_, s)| !s.layers.is_empty()) {
            println!(
                "  {kind} (n={}, median {:.3} ms): {}",
                stat.n,
                stat.median_ms,
                layer_list(&stat.layers, ", ")
            );
        }
        outcomes.push(outcome);
    }
    if outcomes.len() == 1 {
        return Ok(outcomes.remove(0));
    }
    let mut folded = outcomes[0].clone();
    folded.attempted = outcomes.iter().map(|o| o.attempted).sum();
    folded.failed = outcomes.iter().map(|o| o.failed).sum();
    let mut spread = Vec::new();
    for (i, row) in folded.metrics.iter_mut().enumerate() {
        let values: Vec<f64> = outcomes.iter().map(|o| o.metrics[i].value).collect();
        row.value = stats::median(&values);
        row.samples = values.len();
        if let Some([q1, _, q3]) = stats::quartiles(&values) {
            spread.push(Row::new(format!("{}.iqr", row.name), q3 - q1, row.unit, values.len()));
            spread.push(Row::new(
                format!("{}.spread", row.name),
                (q3 - q1) / row.value,
                "ratio",
                values.len(),
            ));
        }
    }
    print!(
        "{}",
        report::table(&format!("{name} · median of {} passes", outcomes.len()), &folded.metrics)
    );
    print!("{}", report::table("run-to-run spread (IQR, IQR ÷ median)", &spread));
    Ok(folded)
}

/// `layer ms` pairs of the layers that spent time, joined by `sep`.
fn layer_list(layers: &std::collections::BTreeMap<String, f64>, sep: &str) -> String {
    let parts: Vec<String> = layers
        .iter()
        .filter(|(_, ms)| **ms > 0.0)
        .map(|(layer, ms)| format!("{layer} {ms:.3}"))
        .collect();
    parts.join(sep)
}

/// Prints, per op type present in both passes, how the traced layers'
/// median self times account for the untraced median, and whether the
/// two passes' answers were byte-equal.
fn reconcile(untraced: &Outcome, traced: &Outcome) {
    println!("\n== reconciliation: untraced median = Σ traced layer self times + serve.unexplained_ms ==");
    for (kind, e2e) in &untraced.kinds {
        let Some(layers) = traced.kinds.get(kind).map(|k| &k.layers) else {
            continue;
        };
        let sum: f64 = layers.values().sum();
        println!(
            "  {kind}: {:.3} ms = {sum:.3} ({}) + serve.unexplained_ms {:.3}",
            e2e.median_ms,
            layer_list(layers, " + "),
            e2e.median_ms - sum
        );
    }
    let verdict = if untraced.digest == traced.digest { "byte-equal" } else { "DIFFER" };
    println!(
        "  answers: untraced digest {:016x}, traced {:016x}: {verdict}",
        untraced.digest, traced.digest
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs what `opts` asks; `Ok(false)` when an answer was wrong.
fn run(opts: &Opts) -> Result<bool, String> {
    let target = target_dir()?;
    let dar = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("dar");
    if !opts.smoke && !dar.exists() {
        return Err(format!("{} not found: build it with the ledger (run.sh)", dar.display()));
    }
    let ledger = target.join("ledger");
    let base = Ctx {
        seed: opts.seed,
        size: plan::Size { seconds: opts.seconds, smoke: opts.smoke },
        dar,
        work: ledger.join(format!("work-{}", std::process::id())),
        traces: ledger.clone(),
    };
    let per_pass = if opts.smoke { 120 } else { 170 };
    let modes = if opts.reconcile { 2 } else { 1 };
    let total = per_pass * (opts.workloads.len() * opts.repeat * modes) as u64;
    procs::arm_watchdog(Duration::from_secs(total));
    println!(
        "ledger: seed {}, {} s of work per pass, {} cores available",
        opts.seed,
        opts.seconds,
        dar_par::available_parallelism()
    );
    let mut all_correct = true;
    let result = (|| {
        for name in &opts.workloads {
            let traced_only = opts.trace || opts.smoke;
            let outcome = passes(name, opts, &base, traced_only)?;
            let mut correct = outcome.failed == 0;
            if opts.reconcile && !traced_only {
                let traced = passes(name, opts, &base, true)?;
                reconcile(&outcome, &traced);
                correct &= outcome.digest == traced.digest && traced.failed == 0;
            }
            all_correct &= correct;
            println!(
                "{}",
                report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
        }
        Ok::<_, String>(())
    })();
    let _ = std::fs::remove_dir_all(&base.work);
    result.map(|()| all_correct)
}
