//! # dar-stream — sliding-window mining over the DAR engine
//!
//! The long-lived [`dar_engine::DarEngine`] mines *all* history: every
//! ingested tuple stays in the Phase I forest forever. This crate bounds
//! the mining horizon instead — rules reflect only the most recent data —
//! and reports how the rule set *churns* as that horizon slides:
//!
//! * [`WindowRing`] keeps the ring's bookkeeping: which windows are live,
//!   their tuple counts, and the open window's batch count. A window
//!   boundary falls every `W` ingested batches (or on an explicit
//!   advance), and when the ring is full the oldest window *retires*.
//! * [`EngineBackend`] is the one engine `dar-serve` drives: a
//!   [`dar_engine::DarEngine`] plus, for sliding-window mining, an optional
//!   [`WindowRing`], with one API for ingest, advance, query, snapshot,
//!   restore, and WAL-frame replay. The engine's forest is the only Phase
//!   I state: with a ring, each leaf entry also keeps one column (an ACF)
//!   per live window that put rows into it, and a retirement drops the
//!   retired window's columns and resets each entry to the fold of the
//!   rest ([`dar_engine::DarEngine::retire_through`]). ACF additivity
//!   (Theorem 6.1 / Eq. 7) makes an entry the sum of its columns, so
//!   nothing is ever subtracted and retirement is exact on real-valued
//!   rows, at any worker count. Without a ring it mines all history.
//! * [`diff`] computes deterministic `{added, dropped}` rule-churn diffs
//!   over already-encoded rule lines — the payload `dar-serve` pushes to
//!   `subscribe` connections after every window advance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod diff;
pub mod metrics;
mod window;

pub use backend::{write_ring_bytes, EngineBackend, RingHeader, WindowedIngest, RING_V2_TAG};
pub use diff::{diff, RuleDiff};
pub use window::{AdvanceOutcome, WindowRing, WindowSpec};
