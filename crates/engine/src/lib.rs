//! # dar-engine
//!
//! A **long-lived incremental mining engine** over the two-phase DAR
//! pipeline. Where [`mining::DarMiner`] is one-shot — scan, cluster, graph,
//! rules, done — this crate keeps the Phase I state alive between requests
//! and exploits Theorem 6.1 (Phase II is a function of the ACF summaries
//! alone) to make everything after the scan incremental, snapshottable and
//! cacheable:
//!
//! * **Incremental ingest** ([`DarEngine::ingest`]): tuple batches feed the
//!   per-set adaptive [`birch::AcfForest`] without restarting Phase I — ACF
//!   additivity (Equation 7) means a batch arriving later lands in exactly
//!   the state a single concatenated scan would have produced.
//! * **Epoch snapshots** ([`DarEngine::snapshot`] / [`DarEngine::restore`]):
//!   the engine closes an *epoch* by extracting cluster summaries from the
//!   live forest (without consuming it) and can persist them — header plus
//!   the `mining::persist` v2 body ([`snapshot`]) — so a process restart
//!   resumes from the last epoch instead of rescanning history.
//! * **Sliding windows** ([`DarEngine::with_window`]): with a
//!   [`dar_stream::WindowSpec`] the horizon is only the most recent
//!   windows. The engine owns a [`dar_stream::WindowRing`]; each leaf
//!   entry keeps one ACF column per live window, and a retirement drops
//!   the retired window's columns and resets each entry to the fold of
//!   the rest, so retirement is exact (ACF additivity, Eq. 7). Ingest
//!   reports what a batch did to the ring, [`DarEngine::advance`] seals a
//!   window early, [`DarEngine::replay_frame`] replays window-tagged WAL
//!   frames, and the ring snapshot frames one engine body per window.
//! * **Cached Phase II** ([`DarEngine::query`]): the expensive clustering
//!   graph + maximal cliques ([`mining::Phase2Artifacts`]) are memoized per
//!   density setting per epoch; re-tuned queries (different `D0`, arity,
//!   rule budgets) are answered from the cache without re-enumerating
//!   cliques. Ingest invalidates the epoch and its cache.
//! * **Observability** ([`EngineStats`]): tuples/batches ingested, epochs
//!   closed, forest rebuilds, cache hits/misses, per-phase timings.
//!
//! See `DESIGN.md` ("Engine lifecycle") for the mapping of this lifecycle
//! onto the paper's Theorem 6.1 and Section 6.2.
//!
//! ```
//! use dar_engine::{DarEngine, EngineConfig};
//! use dar_core::{Metric, Partitioning, Schema};
//! use mining::RuleQuery;
//!
//! let schema = Schema::interval_attrs(2);
//! let partitioning = Partitioning::per_attribute(&schema, Metric::Euclidean);
//! let mut config = EngineConfig::default();
//! config.birch.initial_threshold = 1.0;
//! config.min_support_frac = 0.2;
//! let mut engine = DarEngine::new(partitioning, config).unwrap();
//!
//! // Two batches, same two value blocks.
//! for batch in 0..2 {
//!     let rows: Vec<Vec<f64>> = (0..30)
//!         .map(|i| {
//!             let block = if (i + batch) % 2 == 0 { 0.0 } else { 50.0 };
//!             vec![block, block + 10.0]
//!         })
//!         .collect();
//!     engine.ingest(&rows).unwrap();
//! }
//!
//! let outcome = engine.query(&RuleQuery::default()).unwrap();
//! assert!(!outcome.cached, "first query builds the graph");
//! let again = engine
//!     .query(&RuleQuery { degree_factor: 3.0, ..RuleQuery::default() })
//!     .unwrap();
//! assert!(again.cached, "re-tuned D0 reuses the cached cliques");
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
mod config;
mod engine;
mod metrics;
pub mod snapshot;
mod stats;

pub use answer::SharedRules;
pub use config::EngineConfig;
pub use engine::{DarEngine, QueryOutcome};
pub use stats::EngineStats;
