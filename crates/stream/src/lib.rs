//! # dar-stream — sliding-window mining over the DAR engine
//!
//! The long-lived [`dar_engine::DarEngine`] mines *all* history: every
//! ingested tuple stays in the Phase I forest forever. This crate bounds
//! the mining horizon instead — rules reflect only the most recent data —
//! and reports how the rule set *churns* as that horizon slides:
//!
//! * [`WindowedForest`] keeps a ring of per-window ACF sub-forests. A
//!   window boundary falls every `W` ingested batches (or on an explicit
//!   advance), and when the ring is full the oldest window *retires*:
//!   either its slot is dropped and the survivors are re-merged
//!   ([`RetirePolicy::Remerge`]) or its summary is cancelled out of a
//!   running total by CF subtraction ([`RetirePolicy::Subtract`],
//!   `birch::AcfForest::subtract` — additivity, Theorem 6.1 / Eq. 7, runs
//!   both ways). Both paths are deterministic at any worker count.
//! * [`WindowedEngine`] wraps a [`dar_engine::DarEngine`] so Phase II
//!   queries mine only the live horizon. Each row goes into two forests:
//!   the inner engine's and the open window's. Under subtract retirement
//!   the inner engine's forest *is* the running total, and a retirement
//!   subtracts the expired window from it in place
//!   ([`dar_engine::DarEngine::subtract_retired`]); under remerge the
//!   inner engine is rebuilt from the re-merged survivors
//!   ([`dar_engine::DarEngine::with_forest`]).
//! * [`EngineBackend`] is the serving-layer switch between the classic
//!   all-history engine and the windowed one, with one API for ingest,
//!   advance, query, snapshot, and WAL-frame replay.
//! * [`diff`] computes deterministic `{added, dropped}` rule-churn diffs
//!   over already-encoded rule lines — the payload `dar-serve` pushes to
//!   `subscribe` connections after every window advance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod diff;
pub mod metrics;
mod window;
mod windowed_engine;

pub use backend::EngineBackend;
pub use diff::{diff, RuleDiff};
pub use window::{AdvanceOutcome, RetirePolicy, WindowSpec, WindowedForest};
pub use windowed_engine::{WindowedEngine, WindowedIngest};
