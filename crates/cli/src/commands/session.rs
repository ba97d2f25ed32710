//! `dar session` — drive a long-lived [`dar_engine::DarEngine`] from a
//! script of engine commands (a file via `--script`, or stdin).
//!
//! Script syntax, one command per line (`#` starts a comment):
//!
//! ```text
//! ingest <file.csv>              # feed a CSV batch into the live forest
//! advance                        # seal the open window (windowed only)
//! snapshot <file.snap>           # close the epoch and persist it
//! restore <file.snap>            # resume an engine from a snapshot
//! query [key=value ...]          # mine rules from the (cached) epoch
//! stats                          # print engine counters
//! ```
//!
//! `query` keys: `density-factor`, `density` (explicit comma list),
//! `degree-factor`, `max-antecedent`, `max-consequent`, `top`, plus the
//! rule-quality knobs `measure` (degree, lift, conviction, leverage,
//! jaccard), `min-measure`, `top-k`, `prune-redundant` (true/false), and
//! `budget-ms` (anytime mode: sample clique pairs under a wall-clock
//! budget and report the honest coverage fraction).
//!
//! Engine-level flags (fixed for the session): `--support`,
//! `--threshold-frac`, `--memory-kb`, `--metric d0|d1|d2`, and
//! `--threads` (worker threads for batch ingest and cold Phase II
//! builds; `0`, the default, means the host's available parallelism —
//! output is byte-identical at every setting).
//!
//! With `--wal-path <file>`, every `ingest` batch is committed to a
//! checksummed write-ahead log before the command reports success, and
//! snapshots are sealed with the WAL sequence they cover. A later
//! session with the same `--wal-path` recovers: `ingest` into a fresh
//! engine first replays every committed batch, and `restore` replays
//! only the records newer than the snapshot's sealed sequence.
//!
//! With `--window-batches N` (plus optional `--window-slots`, and the
//! compatibility-only `--window-policy`, as on `dar serve`), the session
//! mines a sliding window: every `N` ingested batches seal a window, the
//! `advance` verb
//! seals one explicitly, and WAL frames carry the window sequence so a
//! later session rebuilds the exact ring.

use crate::args::Args;
use crate::commands::serve::window_options;
use crate::data::{default_partitioning, load, parse_cluster_metric};
use crate::CliError;
use dar_core::{suggest_initial_thresholds, Schema};
use dar_durable::{DiskStorage, DurableStore, Storage, WalFrame};
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::WindowSpec;
use mining::describe::describe_rule;
use mining::{DensitySpec, RuleQuery};
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::Path;
use std::sync::Arc;

/// Runs the command.
pub fn run(args: &Args) -> Result<String, CliError> {
    let script = match args.optional("script") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| CliError::new(format!("{path}: {e}")))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
    };
    run_script(&script, args)
}

/// Session state: the engine appears on the first `ingest` (which fixes the
/// partitioning from the CSV's schema) or on `restore`.
struct Session {
    engine: Option<DarEngine>,
    /// Attribute names for rule rendering; synthetic after a bare restore.
    schema: Option<Schema>,
    support: f64,
    threshold_frac: f64,
    config: EngineConfig,
    /// Sliding-window mining (`--window-batches`), if configured.
    window: Option<WindowSpec>,
    /// The write-ahead log (`--wal-path`), if configured.
    store: Option<DurableStore>,
    /// The committed frames the store's open decoded, held for the first
    /// replay so the log is read once before it. No append can precede
    /// that replay (appends need an engine, and every engine starts with
    /// one); later replays re-read the log.
    opened: Option<Vec<WalFrame>>,
    /// Where the WAL lives and snapshots are installed.
    storage: Arc<dyn Storage>,
}

impl Session {
    fn engine(&mut self) -> Result<&mut DarEngine, CliError> {
        self.engine
            .as_mut()
            .ok_or_else(|| CliError::new("no engine yet: `ingest` or `restore` first"))
    }

    /// Replays the WAL frames with sequence strictly above `after_seq`
    /// into `engine`, returning how many non-empty batches were applied.
    fn replay_into(&mut self, engine: &mut DarEngine, after_seq: u64) -> Result<u64, CliError> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let frames = match self.opened.take() {
            Some(frames) => frames,
            None => store.frames_after(after_seq).map_err(|e| CliError::new(e.to_string()))?,
        };
        let mut replayed = 0u64;
        for (_, tag, rows) in frames.iter().filter(|(seq, _, _)| *seq > after_seq) {
            engine.replay_frame(*tag, rows)?;
            if !rows.is_empty() {
                replayed += 1;
            }
        }
        Ok(replayed)
    }
}

/// Interprets a full script, returning the accumulated output.
pub fn run_script(script: &str, args: &Args) -> Result<String, CliError> {
    run_script_on(script, args, Arc::new(DiskStorage))
}

/// [`run_script`] with the WAL and snapshot installs going through
/// `storage`.
pub fn run_script_on(
    script: &str,
    args: &Args,
    storage: Arc<dyn Storage>,
) -> Result<String, CliError> {
    let mut config = EngineConfig::default();
    config.birch.memory_budget = args.number::<usize>("memory-kb", 1024)? << 10;
    config.metric = parse_cluster_metric(args.optional("metric").unwrap_or("d2"))?;
    config.threads = args.number("threads", 0)?;
    // Opening the log repairs a torn tail, positions the next sequence
    // and decodes the committed frames the first replay applies.
    let (store, opened) = match args.optional("wal-path") {
        Some(path) => {
            let (store, recovered) =
                DurableStore::open(Arc::clone(&storage), None, Some(path.into()))
                    .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            (Some(store), Some(recovered.frames))
        }
        None => (None, None),
    };
    let mut session = Session {
        engine: None,
        schema: None,
        support: args.number("support", 0.05)?,
        threshold_frac: args.number("threshold-frac", 0.05)?,
        config,
        window: window_options(args)?,
        store,
        opened,
        storage,
    };

    let mut out = String::new();
    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().expect("non-empty line");
        let rest: Vec<&str> = parts.collect();
        step(&mut session, verb, &rest, &mut out)
            .map_err(|e| CliError::new(format!("line {}: {e}", lineno + 1)))?;
    }
    if let Some(path) = args.optional("metrics-out") {
        // Final observability dump: everything the session's engine,
        // Phase I/II, and WAL recorded, as one deterministic JSON object.
        std::fs::write(path, dar_obs::global().render_json())
            .map_err(|e| CliError::new(format!("{path}: {e}")))?;
        let _ = writeln!(out, "metrics: written to {path}");
    }
    Ok(out)
}

fn step(
    session: &mut Session,
    verb: &str,
    rest: &[&str],
    out: &mut String,
) -> Result<(), CliError> {
    match verb {
        "ingest" => {
            let [path] = rest else {
                return Err(CliError::new("usage: ingest <file.csv>"));
            };
            let relation = load(path)?;
            if session.engine.is_none() {
                let partitioning = default_partitioning(&relation);
                let mut config = session.config.clone();
                config.min_support_frac = session.support;
                config.initial_thresholds = Some(suggest_initial_thresholds(
                    &relation,
                    &partitioning,
                    session.threshold_frac,
                )?);
                let mut engine = DarEngine::with_window(partitioning, config, session.window)?;
                // Crash recovery: a fresh engine first replays every batch
                // a previous session committed to this WAL.
                let replayed = session.replay_into(&mut engine, 0)?;
                if replayed > 0 {
                    let _ = writeln!(
                        out,
                        "wal: replayed {replayed} committed batches ({} tuples)",
                        engine.tuples()
                    );
                }
                session.engine = Some(engine);
            }
            let engine = session.engine.as_mut().expect("just created");
            let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
            let info = engine.ingest(&rows)?;
            session.schema = Some(relation.schema().clone());
            let logged = match session.store.as_mut() {
                // Apply-then-log: the command reports success only once the
                // batch is both in memory and on the log.
                Some(store) => {
                    // Windowed frames carry the window they landed in, so
                    // recovery rebuilds the exact ring.
                    let seq = match &info {
                        Some(w) => store.log_tagged_batch(w.window_seq, &rows),
                        None => store.log_batch(&rows),
                    }
                    .map_err(|e| CliError::new(e.to_string()))?;
                    format!(", wal seq {seq}")
                }
                None => String::new(),
            };
            let engine = session.engine.as_ref().expect("just created");
            let windowed = match &info {
                Some(w) if w.advanced => format!(", sealed window {}", w.window_seq),
                Some(w) => format!(", window {}", w.window_seq),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "ingest {path}: {} tuples (total {}{logged}){windowed}",
                rows.len(),
                engine.tuples()
            );
        }
        "advance" => {
            if !rest.is_empty() {
                return Err(CliError::new("usage: advance"));
            }
            let engine = session.engine()?;
            let outcome = engine.advance()?;
            let span = engine.window_span().unwrap_or((0, outcome.opened_seq));
            let logged = match session.store.as_mut() {
                // An explicit seal is durable too: an empty frame tagged
                // with the newly opened window.
                Some(store) => {
                    let seq = store
                        .log_tagged_batch(outcome.opened_seq, &[])
                        .map_err(|e| CliError::new(e.to_string()))?;
                    format!(", wal seq {seq}")
                }
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "advance: sealed window {}, opened {}{}, span {}..={}{logged}",
                outcome.sealed_seq,
                outcome.opened_seq,
                outcome.retired_seq.map_or_else(String::new, |s| format!(", retired {s}")),
                span.0,
                span.1,
            );
        }
        "snapshot" => {
            let [path] = rest else {
                return Err(CliError::new("usage: snapshot <file.snap>"));
            };
            let bytes = session.engine()?.snapshot()?;
            // Seal with the last committed WAL sequence (0 without a WAL)
            // and install atomically — a crash never leaves a torn file,
            // and a later `restore` replays only newer WAL records.
            let seq = session.store.as_ref().map_or(0, DurableStore::last_seq);
            dar_durable::snapshot::install(&*session.storage, Path::new(path), &bytes, seq)
                .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let engine = session.engine()?;
            let _ = writeln!(
                out,
                "snapshot {path}: epoch {} ({} tuples, sealed at wal seq {seq})",
                engine.epoch(),
                engine.tuples()
            );
        }
        "restore" => {
            let [path] = rest else {
                return Err(CliError::new("usage: restore <file.snap>"));
            };
            let bytes = std::fs::read(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
            // Lenient unseal: sealed snapshots verify their checksum,
            // legacy unsealed ones pass through with seq 0.
            let snapshot_seq = dar_durable::unseal_bytes(&bytes)
                .map_err(|e| CliError::new(format!("{path}: {e}")))?
                .1
                .unwrap_or(0);
            let mut config = session.config.clone();
            config.min_support_frac = session.support;
            let mut engine = DarEngine::restore(&bytes, config, session.window.is_some())
                .map_err(|e| CliError::new(format!("{path}: {e}")))?;
            let replayed = session.replay_into(&mut engine, snapshot_seq)?;
            let _ = writeln!(
                out,
                "restore {path}: epoch {} ({} tuples{})",
                engine.epoch(),
                engine.tuples(),
                if replayed > 0 {
                    format!(", {replayed} wal batches replayed")
                } else {
                    String::new()
                },
            );
            session.schema = None;
            session.engine = Some(engine);
        }
        "query" => {
            let query = parse_query(rest)?;
            let top: usize = kv(rest, "top=").map_or(Ok(10), |v| {
                v.parse().map_err(|_| CliError::new(format!("bad top= value {v:?}")))
            })?;
            let (outcome, partitioning, width) = {
                let engine = session.engine()?;
                let outcome = engine.query(&query)?;
                (outcome, engine.partitioning().clone(), engine.required_row_width())
            };
            let measure = outcome.measure;
            let _ = writeln!(
                out,
                "query epoch {}: {} rules (s0={}, {}{}){}{}",
                outcome.epoch,
                outcome.rules.len(),
                outcome.s0,
                if outcome.cached { "cached cliques" } else { "cold" },
                if measure == mining::Measure::Degree {
                    String::new()
                } else {
                    format!(", by {measure}")
                },
                if outcome.truncated { " [truncated]" } else { "" },
                outcome
                    .coverage
                    .map_or_else(String::new, |c| format!(" [anytime coverage {c:.3}]")),
            );
            let schema = session.schema.clone().unwrap_or_else(|| Schema::interval_attrs(width));
            for (rule, value) in outcome.rules.iter().zip(&outcome.values).take(top) {
                let suffix = match measure {
                    mining::Measure::Degree => String::new(),
                    m => format!("  [{m} {value:.4}]"),
                };
                let _ = writeln!(
                    out,
                    "  {}{suffix}",
                    describe_rule(rule, outcome.artifacts.graph.clusters(), &schema, &partitioning)
                );
            }
            if outcome.rules.len() > top {
                let _ = writeln!(out, "  … {} more rules", outcome.rules.len() - top);
            }
        }
        "stats" => {
            let s = session.engine()?.stats();
            let _ = writeln!(
                out,
                "stats: {} tuples in {} batches, {} epochs, {} rebuilds; \
                 {} queries ({} hit / {} miss); \
                 ingest {:.3}s, epoch {:.3}s, phase2 {:.3}s, rules {:.3}s",
                s.tuples_ingested,
                s.batches,
                s.epochs,
                s.forest_rebuilds,
                s.queries,
                s.cache_hits,
                s.cache_misses,
                s.ingest_time.as_secs_f64(),
                s.epoch_time.as_secs_f64(),
                s.phase2_build_time.as_secs_f64(),
                s.rule_time.as_secs_f64(),
            );
        }
        other => {
            return Err(CliError::new(format!(
                "unknown session command {other:?} \
                 (expected ingest, advance, snapshot, restore, query, stats)"
            )));
        }
    }
    Ok(())
}

/// Finds `key=`-prefixed token and returns its value.
fn kv<'a>(tokens: &[&'a str], key: &str) -> Option<&'a str> {
    tokens.iter().find_map(|t| t.strip_prefix(key))
}

fn parse_query(tokens: &[&str]) -> Result<RuleQuery, CliError> {
    let mut query = RuleQuery::default();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| CliError::new(format!("expected key=value, got {token:?}")))?;
        let bad = || CliError::new(format!("bad {key}= value {value:?}"));
        match key {
            "density-factor" => {
                query.density = DensitySpec::Auto { factor: value.parse().map_err(|_| bad())? };
            }
            "density" => {
                let thresholds: Result<Vec<f64>, _> = value.split(',').map(str::parse).collect();
                query.density = DensitySpec::Explicit(thresholds.map_err(|_| bad())?);
            }
            "degree-factor" => query.degree_factor = value.parse().map_err(|_| bad())?,
            "max-antecedent" => query.max_antecedent = value.parse().map_err(|_| bad())?,
            "max-consequent" => query.max_consequent = value.parse().map_err(|_| bad())?,
            "measure" => query.measure = mining::Measure::parse(value).ok_or_else(bad)?,
            "min-measure" => query.min_measure = Some(value.parse().map_err(|_| bad())?),
            "top-k" => query.top_k = value.parse().map_err(|_| bad())?,
            "prune-redundant" => query.prune_redundant = value.parse().map_err(|_| bad())?,
            "budget-ms" => query.budget_ms = value.parse().map_err(|_| bad())?,
            "top" => {
                value.parse::<usize>().map_err(|_| bad())?;
            }
            other => {
                return Err(CliError::new(format!("unknown query key {other:?}")));
            }
        }
    }
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn session_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dar_cli_session_{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_batches(dir: &std::path::Path, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                let path = dir.join(format!("batch{i}.csv"));
                let relation = datagen::insurance::insurance_relation(2_000, 10 + i as u64);
                datagen::csv::write_csv(&relation, &path).unwrap();
                path.to_str().unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn scripted_lifecycle_ingests_snapshots_and_queries() {
        let dir = session_dir("lifecycle");
        let batches = write_batches(&dir, 3);
        let snap = dir.join("epoch.snap");
        let script = format!(
            "# full lifecycle\n\
             ingest {}\n\
             ingest {}\n\
             ingest {}\n\
             query degree-factor=2.0 top=3\n\
             query degree-factor=3.0 top=3\n\
             snapshot {}\n\
             stats\n",
            batches[0],
            batches[1],
            batches[2],
            snap.display(),
        );
        let args = parse(&argv(&["--support", "0.1", "--threshold-frac", "0.1"])).unwrap();
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("total 6000"), "{out}");
        assert!(out.contains("cold"), "{out}");
        assert!(out.contains("cached cliques"), "re-tuned D0 must hit: {out}");
        assert!(out.contains("1 hit / 1 miss"), "{out}");
        assert!(out.contains('⇒'), "{out}");
        assert!(snap.exists());

        // A second session resumes from the snapshot and queries cold.
        let script = format!("restore {}\nquery top=2\nstats\n", snap.display());
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("restore"), "{out}");
        assert!(out.contains("6000 tuples"), "{out}");
        assert!(out.contains('⇒'), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_sessions_recover_committed_batches() {
        let dir = session_dir("wal_recovery");
        let batches = write_batches(&dir, 4);
        let wal = dir.join("ingest.wal");
        let snap = dir.join("epoch.snap");
        let args = parse(&argv(&[
            "--support",
            "0.1",
            "--threshold-frac",
            "0.1",
            "--wal-path",
            wal.to_str().unwrap(),
        ]))
        .unwrap();

        // Session 1 commits two batches, then "crashes" (no snapshot).
        let script = format!("ingest {}\ningest {}\n", batches[0], batches[1]);
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("wal seq 1"), "{out}");
        assert!(out.contains("wal seq 2"), "{out}");

        // Session 2 replays both before its own ingest, then snapshots.
        let script = format!("ingest {}\nsnapshot {}\n", batches[2], snap.display());
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("wal: replayed 2 committed batches"), "{out}");
        assert!(out.contains("total 6000"), "{out}");
        assert!(out.contains("sealed at wal seq 3"), "{out}");

        // Session 3: the snapshot covers seq 3, so restore replays nothing;
        // one more committed batch lands at seq 4.
        let script = format!("restore {}\ningest {}\n", snap.display(), batches[3]);
        let out = run_script(&script, &args).unwrap();
        assert!(!out.contains("wal batches replayed"), "{out}");
        assert!(out.contains("total 8000, wal seq 4"), "{out}");

        // Session 4: restore now replays exactly the post-snapshot suffix.
        let script = format!("restore {}\nquery top=1\n", snap.display());
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("8000 tuples, 1 wal batches replayed"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_sessions_seal_windows_and_recover_the_ring() {
        let dir = session_dir("windowed");
        let batches = write_batches(&dir, 3);
        let wal = dir.join("stream.wal");
        let args = parse(&argv(&[
            "--support",
            "0.1",
            "--threshold-frac",
            "0.1",
            "--window-batches",
            "2",
            "--window-slots",
            "2",
            "--wal-path",
            wal.to_str().unwrap(),
        ]))
        .unwrap();

        // Session 1: one batch into window 0, then an explicit seal — both
        // durable as tagged WAL frames.
        let script = format!("ingest {}\nadvance\n", batches[0]);
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains(", window 0"), "{out}");
        assert!(out.contains("advance: sealed window 0, opened 1"), "{out}");
        assert!(out.contains("wal seq 2"), "the advance marker is logged too: {out}");

        // Session 2: the tagged replay rebuilds the ring (window 0 sealed,
        // window 1 open), then two more batches seal window 1 and retire
        // window 0 out of the two-slot ring.
        let script = format!("ingest {}\ningest {}\n", batches[1], batches[2]);
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("wal: replayed 1 committed batches (2000 tuples)"), "{out}");
        assert!(out.contains("total 4000, wal seq 3), window 1"), "{out}");
        assert!(out.contains("total 4000, wal seq 4), sealed window 1"), "{out}");

        // A static session refuses `advance` and a windowed session refuses
        // a static snapshot.
        let static_args = parse(&argv(&["--support", "0.1", "--threshold-frac", "0.1"])).unwrap();
        let script = format!("ingest {}\nadvance\n", batches[0]);
        let err = run_script(&script, &static_args).unwrap_err();
        assert!(err.to_string().contains("windowed"), "{err}");

        let snap = dir.join("static.snap");
        let script = format!("ingest {}\nsnapshot {}\n", batches[0], snap.display());
        run_script(&script, &static_args).unwrap();
        let windowed_args = parse(&argv(&["--window-batches", "1"])).unwrap();
        let err = run_script(&format!("restore {}\n", snap.display()), &windowed_args).unwrap_err();
        assert!(err.to_string().contains("match --window-batches"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_rank_keys_rank_and_sample() {
        let dir = session_dir("rank");
        let batches = write_batches(&dir, 1);
        let script = format!(
            "ingest {}\n\
             query measure=lift top-k=2 prune-redundant=true top=2\n\
             query budget-ms=60000 top=1\n",
            batches[0],
        );
        let args = parse(&argv(&["--support", "0.1", "--threshold-frac", "0.1"])).unwrap();
        let out = run_script(&script, &args).unwrap();
        assert!(out.contains("by lift"), "{out}");
        assert!(out.contains("[lift"), "{out}");
        assert!(out.contains("anytime coverage 1.000"), "a generous budget sees every pair: {out}");
        let script = format!("ingest {}\nquery measure=zorp\n", batches[0]);
        let err = run_script(&script, &args).unwrap_err();
        assert!(err.to_string().contains("measure"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_name_the_line() {
        let args = parse(&[]).unwrap();
        let err = run_script("\n\nfrobnicate\n", &args).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = run_script("query top=1\n", &args).unwrap_err();
        assert!(err.to_string().contains("no engine"), "{err}");
        let err = run_script("query degree-factor=oops\n", &args).unwrap_err();
        assert!(err.to_string().contains("degree-factor"), "{err}");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let args = parse(&[]).unwrap();
        assert_eq!(run_script("# nothing\n\n   # indented\n", &args).unwrap(), "");
    }
}
