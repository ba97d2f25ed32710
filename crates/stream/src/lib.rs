//! # dar-stream — sliding-window bookkeeping and rule churn
//!
//! The long-lived `dar_engine::DarEngine` mines *all* history unless it
//! is built with a window geometry; then the mining horizon is only the
//! most recent windows. This crate holds the parts of that horizon with
//! no engine in them:
//!
//! * [`WindowRing`] keeps the ring's bookkeeping: which windows are live,
//!   their tuple counts, and the open window's batch count. A window
//!   boundary falls every `W` ingested batches (or on an explicit
//!   advance), and when the ring is full the oldest window *retires*. The
//!   engine owns one ring and moves its forest's per-window columns as the
//!   ring says ([`AdvanceOutcome`]); what one ingest did to the ring is a
//!   [`WindowedIngest`].
//! * [`diff`] computes deterministic `{added, dropped}` rule-churn diffs
//!   over already-encoded rule lines — the payload `dar-serve` pushes to
//!   `subscribe` connections after every window advance.
//! * [`metrics`] is the `dar_stream_*` metric family.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
pub mod metrics;
mod window;

pub use diff::{diff, RuleDiff};
pub use window::{AdvanceOutcome, WindowRing, WindowSpec, WindowedIngest};
