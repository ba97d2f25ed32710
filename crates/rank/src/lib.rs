//! # dar-rank
//!
//! Rule quality for distance-based association rules: interestingness
//! ranking, redundancy pruning, and anytime sampled answers.
//!
//! Phase II output on wide schemas explodes combinatorially; the paper's
//! degree of association says a rule is *meaningful*, but a production
//! consumer wants the rule list ranked, deduplicated, and bounded. This
//! crate is that layer, deliberately downstream of `mining`:
//!
//! * [`measure`] evaluates classical interestingness measures (lift,
//!   conviction, leverage, Jaccard) and the paper's degree of association
//!   from per-rule support statistics — deterministically, so ranked
//!   artifacts stay byte-identical across worker counts and shards;
//! * [`rank`] is the pipeline: evaluate → filter (`min_measure`) → stable
//!   total order (measure value, then rule identity) → optional redundancy
//!   prune → `top_k`;
//! * [`prune`] collapses near-identical rules (same attribute sets,
//!   overlapping cluster bounding boxes) to one representative per
//!   redundancy cluster;
//! * [`topk`] answers a top-k query by emitting rule triples
//!   best-bound-first and stopping below the post-prune k-th rule;
//! * [`anytime`] samples clique pairs under a wall-clock budget and
//!   reports an honest coverage fraction instead of timing out.
//!
//! Everything is driven by the knobs on [`mining::RuleQuery`]
//! (`measure`, `min_measure`, `top_k`, `prune_redundant`, `budget_ms`);
//! `dar-engine` threads them through its query path and caches ranked
//! artifacts per knob-set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anytime;
pub mod measure;
mod metrics;
pub mod prune;
pub mod rank;
pub mod topk;

pub use anytime::{mine_budgeted, AnytimeOutcome};
pub use measure::{evaluate, RuleStats, CONVICTION_CAP};
pub use rank::{rank, RankSpec, Ranked};
pub use topk::mine_top_k;
