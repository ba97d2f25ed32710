//! # dar-cli
//!
//! The `dar` command-line tool: generate workloads, inspect columns,
//! cluster, and mine distance-based association rules over CSV files.
//!
//! ```text
//! dar generate --workload insurance --rows 10000 --seed 7 --out data.csv
//! dar stats    --input data.csv
//! dar cluster  --input data.csv --threshold-frac 0.05
//! dar mine     --input data.csv --support 0.08 --threshold-frac 0.05 --top 10
//! dar session  --script session.txt --support 0.08
//! dar serve    --addr 127.0.0.1:7878 --attrs 3 --snapshot-path epoch.snap
//! dar migrate  --input old.snap --out epoch.snap
//! ```
//!
//! All command logic lives in this library (returning the output as a
//! `String`) so it is unit-testable; `main` only parses `std::env::args`
//! and prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod data;
pub mod migrate;

use std::fmt;

/// A CLI-level error: message plus the exit code `main` should use.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl CliError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> Self {
        CliError { message: message.into() }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<dar_core::CoreError> for CliError {
    fn from(e: dar_core::CoreError) -> Self {
        CliError::new(e.to_string())
    }
}

/// Dispatches a full argument vector (excluding the program name) to the
/// matching command and returns its printable output.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "generate" => commands::generate::run(&args::parse(rest)?),
        "stats" => commands::stats::run(&args::parse(rest)?),
        "cluster" => commands::cluster::run(&args::parse(rest)?),
        "mine" => commands::mine::run(&args::parse(rest)?),
        "rules" => commands::rules::run(&args::parse(rest)?),
        "session" => commands::session::run(&args::parse(rest)?),
        "serve" => commands::serve::run(&args::parse(rest)?),
        "cluster-coordinator" => commands::coordinator::run(&args::parse(rest)?),
        "migrate" => migrate::run(&args::parse(rest)?),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::new(format!("unknown command {other:?}; run `dar help` for usage"))),
    }
}

/// The usage text.
pub fn usage() -> String {
    "dar — distance-based association rules over interval data\n\
     \n\
     USAGE: dar <command> [--flag value ...]\n\
     \n\
     COMMANDS\n\
       generate  --workload wbcd|insurance|grid --rows N [--seed S]\n\
                 [--outliers F] --out FILE.csv\n\
       stats     --input FILE.csv\n\
       cluster   --input FILE.csv [--threshold-frac F] [--memory-kb K]\n\
       mine      --input FILE.csv [--support F] [--threshold-frac F]\n\
                 [--memory-kb K] [--metric d0|d1|d2] [--density-factor F]\n\
                 [--degree-factor F] [--top N] [--rescan] [--out RULES.tsv]\n\
       session   [--script FILE] [--support F] [--threshold-frac F]\n\
                 [--memory-kb K] [--metric d0|d1|d2] [--metrics-out FILE]\n\
                 [--window-batches N] [--window-slots W]\n\
                 scripted engine: ingest/advance/snapshot/restore/query/\n\
                 stats lines from FILE (or stdin); see `dar-cli`'s session\n\
                 module docs; --metrics-out dumps the final metrics\n\
                 registry as JSON\n\
       serve     --addr HOST:PORT [--attrs N] [--threads T] [--queue Q]\n\
                 [--support F] [--memory-kb K] [--metric d0|d1|d2]\n\
                 [--initial-threshold F] [--timeout-ms MS]\n\
                 [--snapshot-path FILE.snap] [--snapshot-secs S]\n\
                 [--wal-path FILE.wal] [--metrics-addr HOST:PORT]\n\
                 [--window-batches N] [--window-slots W]\n\
                 [--window-policy remerge|subtract] (compatibility only:\n\
                 both name the one retirement; the flag will go)\n\
                 TCP server speaking newline-delimited JSON; blocks until\n\
                 a wire `shutdown` request, then prints final counters;\n\
                 --metrics-addr serves Prometheus text to any scraper;\n\
                 --window-batches mines a sliding window and adds the\n\
                 `advance` and `subscribe` (rule-churn events) verbs\n\
       cluster-coordinator\n\
                 --addr HOST:PORT --shards HOST:PORT,HOST:PORT,...\n\
                 [--threads T] [--queue Q] [--support F]\n\
                 [--memory-kb K] [--metric d0|d1|d2] [--initial-threshold F]\n\
                 [--timeout-ms MS] [--metrics-addr HOST:PORT] [--rescan]\n\
                 [--allow-partial] [--deadline-ms MS] [--down-after N]\n\
                 [--probe-interval-ms MS] [--probe-timeout-ms MS]\n\
                 distributed front-end: fans ingest across `dar serve`\n\
                 shards (round-robin by batch seq), merges their ACF\n\
                 snapshots on query, and serves rules from the merged\n\
                 summary; engine flags must match the shards'; --rescan\n\
                 adds SON-style exact frequencies from the shards' WALs;\n\
                 --allow-partial keeps queries working while shards are\n\
                 down (answers carry degraded:true and a tuple-coverage\n\
                 fraction); --deadline-ms bounds one shard request incl.\n\
                 retries; --down-after N consecutive failures fast-fail a\n\
                 shard until the prober verifies it back in\n\
       migrate   --input OLD --out NEW\n                 converts one pre-v2 text file (engine snapshot, ring\n                 snapshot or `cluster --save` file, sealed or not) to the\n                 binary v2 format every other command reads; the output\n                 keeps the input's sealed WAL seq\n       help      this text\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_and_help_print_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&argv(&["help"])).unwrap().contains("COMMANDS"));
        assert!(run(&argv(&["--help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn full_generate_stats_mine_flow() {
        let dir = std::env::temp_dir().join("dar_cli_flow_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("data.csv");
        let csv_str = csv.to_str().unwrap();

        let out = run(&argv(&[
            "generate",
            "--workload",
            "insurance",
            "--rows",
            "3000",
            "--seed",
            "7",
            "--out",
            csv_str,
        ]))
        .unwrap();
        assert!(out.contains("3000"));

        let out = run(&argv(&["stats", "--input", csv_str])).unwrap();
        assert!(out.contains("Age"));
        assert!(out.contains("Claims"));

        let out = run(&argv(&["cluster", "--input", csv_str, "--threshold-frac", "0.1"])).unwrap();
        assert!(out.contains("clusters"), "{out}");

        let out = run(&argv(&[
            "mine",
            "--input",
            csv_str,
            "--support",
            "0.1",
            "--threshold-frac",
            "0.1",
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(out.contains('⇒'), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
