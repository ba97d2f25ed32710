//! # dar-serve
//!
//! A **concurrent network serving layer** over the long-lived
//! [`dar_engine::DarEngine`] — the step from "an engine one thread can
//! drive in-process" to "a server many clients mine against at once".
//!
//! The concurrency story is the paper's: Theorem 6.1 makes every query a
//! pure function of the ACF summaries (and the Phase II artifacts derived
//! from them), so once an epoch is closed, any number of clients can be
//! answered from one epoch's cached cliques *in parallel* while ingest
//! proceeds on the single writer path. Concretely:
//!
//! * [`SharedEngine`] — the epoch-aware `RwLock` wrapper: re-tuned
//!   [`mining::RuleQuery`]s are answered under the *read* lock via
//!   [`dar_engine::DarEngine::query_cached`]; ingest/snapshot (and cold
//!   graph builds) take the write lock.
//! * [`json`] — the hand-rolled wire codec (encoder + recursive-descent
//!   parser) for the newline-delimited JSON protocol; deterministic
//!   encoding makes equal rule sets byte-identical on the wire.
//! * [`protocol`] — the verb vocabulary: `ingest`, `query`, `clusters`,
//!   `stats`, `metrics`, `snapshot`, `shutdown`, with structured errors.
//! * [`front`] — the front door `dar serve` and the cluster coordinator
//!   share: bounded accept queue with refuse-not-queue backpressure,
//!   fixed worker pool, per-connection timeouts, bounded request lines,
//!   parsing, the `metrics`/`shutdown` verbs, and per-request
//!   accounting. Each server passes in a [`front::Handler`].
//! * [`Server`] / [`ServerHandle`] — `dar serve`'s handler plus periodic
//!   snapshot-to-disk and a graceful shutdown that drains, closes the
//!   epoch, and persists a final snapshot.
//! * [`ServerStats`] — one per-server request table indexed by
//!   [`Verb`]: connections, rejects, per-verb request counts, bytes,
//!   errors, histogram-derived p50/p99 latency; served over the wire by
//!   the `stats` verb. The `metrics` verb returns the full `dar-obs`
//!   registry (every crate's metrics plus the event journal) as JSON,
//!   and [`ServeConfig::metrics_addr`] adds a plain-TCP Prometheus
//!   text-exposition listener for scrapers.
//! * [`Client`] — a small blocking client for scripting and load
//!   generation, with one bounded-backoff retry method for `overloaded`/
//!   `degraded` responses.
//! * [`Durability`] / [`recover_backend`] — the `dar-durable` wiring:
//!   boot-time recovery inside [`Server::start`] (one store open: snapshot
//!   restore + WAL replay, window-tag-aware for sliding-window servers,
//!   and the same store kept for appends), apply-then-log
//!   ingest acknowledged only after the WAL append, atomic snapshot
//!   installs, and sticky degraded (read-only) mode when the log fails.
//! * **Streaming**: a server started over a windowed engine
//!   ([`dar_engine::DarEngine::with_window`]) additionally serves
//!   `advance` (explicit window seal, logged as a tagged WAL marker) and
//!   `subscribe` — a long-lived connection receiving newline-JSON rule-churn events (`{added,
//!   dropped, epoch, window_span}`) diffed after every window advance by
//!   the [`churn`]-feed machinery, with a bounded per-subscriber queue
//!   that cuts the laggard, never the server.
//!
//! The CLI front-end is `dar serve --addr … --threads … --snapshot-path …`;
//! the end-to-end load harness is the benchmark ledger (`ledger/`). See
//! `DESIGN.md`, "Serving layer".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b64;
pub mod churn;
pub mod client;
mod durability;
pub mod front;
pub mod json;
mod metrics;
pub mod protocol;
mod server;
mod shared;
mod stats;

pub use client::{Backoff, Client, ServerError, Subscription};
pub use durability::{recover_backend, Durability};
pub use json::{Json, JsonError};
pub use protocol::{Request, Verb};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use shared::SharedEngine;
pub use stats::{ServerStats, StatsSnapshot};

// Re-exported so server embedders don't need a direct dar-stream dep to
// name the window types a windowed engine takes and reports.
pub use dar_stream::{AdvanceOutcome, WindowSpec, WindowedIngest};
