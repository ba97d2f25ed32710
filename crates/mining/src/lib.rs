//! # mining
//!
//! The two-phase **distance-based association rule** (DAR) miner — the
//! primary contribution of Miller & Yang, *Association Rules over Interval
//! Data* (SIGMOD 1997), Sections 5 and 6.
//!
//! * **Phase I** (delegated to the [`birch`] crate, driven by
//!   [`pipeline::DarMiner`]): one scan of the data builds an adaptive
//!   ACF-tree per attribute set; the frequent leaf clusters become the
//!   "1-itemsets".
//! * **Phase II** (this crate, no data rescan): the **clustering graph**
//!   ([`graph`], Dfn 6.1) joins clusters of different attribute sets that
//!   are mutually close on both projections; **maximal cliques**
//!   ([`clique`], Bron–Kerbosch) are the large itemsets; and DARs of
//!   arbitrary arity are derived from clique pairs via the `assoc` sets of
//!   Section 6.2 ([`rules`]), whose distances are evaluated once per
//!   artifact set ([`assoc`]).
//!
//! The crate also implements:
//!
//! * the **degree of association** interest measure and its exact
//!   (tuple-level) counterpart, with the classical-rule correspondence of
//!   Theorems 5.1/5.2 ([`interest`]);
//! * **generalized quantitative association rules** (Dfn 4.4): clusters as
//!   items fed to classical Apriori via nearest-centroid assignment
//!   ([`gqar`], the Section 4.3 intermediate algorithm);
//! * human-readable rule rendering by bounding box ([`describe`],
//!   Section 7.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod assoc;
pub mod clique;
pub mod describe;
pub mod gqar;
pub mod graph;
pub mod interest;
mod metrics;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod rules;

pub use assoc::{AssocDistances, ASSOC_RETAIN_BYTES};
pub use clique::{maximal_cliques, maximal_cliques_pooled, non_trivial};
pub use graph::{ClusterDistance, ClusteringGraph, GraphConfig};
pub use pipeline::{DarConfig, DarMiner, MineResult, MineStats};
pub use query::{DensitySpec, Measure, Phase2Artifacts, RuleQuery, MEASURES};
pub use rules::{
    generate_dars_capped_pooled, sort_rules, Dar, Emitter, RuleConfig, RuleKernel, Scan, Triple,
    Walker,
};
