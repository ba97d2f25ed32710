//! # dar-core
//!
//! Core data model and statistical summaries for mining **distance-based
//! association rules** (DARs) over interval data, after Miller & Yang,
//! *Association Rules over Interval Data*, SIGMOD 1997.
//!
//! This crate provides the substrate shared by the clustering engine
//! ([`birch`](https://docs.rs/birch)), the baseline miners (`classic`) and the
//! two-phase DAR miner (`mining`):
//!
//! * a typed, column-major [`Relation`](relation::Relation) over a
//!   [`Schema`](schema::Schema) of interval / ordinal / nominal attributes;
//! * user-defined [`Partitioning`](schema::Partitioning)s of the attributes
//!   into disjoint sets, each with its own [`Metric`](distance::Metric)
//!   (the paper's `X_i` sets, Section 4.3);
//! * **Clustering Features** ([`Cf`](cf::Cf), Equation 3) with the BIRCH
//!   additivity property and the derived statistics the paper uses: centroid
//!   (Eq. 4), diameter (Eq. 2), centroid-Manhattan distance D1 (Eq. 5) and the
//!   moment-computable average inter-cluster distance D2 (Eq. 6);
//! * **Association Clustering Features** ([`Acf`](acf::Acf), Equation 7):
//!   a CF on the clustering attributes extended with `(ΣY, ΣY²)` for every
//!   other attribute set, so that every distance in Section 5 of the paper can
//!   be evaluated on cluster *images* without rescanning the data
//!   (Theorem 6.1, the "ACF Representativity Theorem");
//! * exact (tuple-level) counterparts of those statistics in [`exact`], used
//!   to validate the summary algebra and to state the paper's Theorems 5.1
//!   and 5.2 precisely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod bbox;
pub mod cf;
pub mod cluster;
pub mod distance;
pub mod error;
pub mod exact;
pub mod interval;
pub mod relation;
pub mod schema;
pub mod standardize;
pub mod stats;

pub use acf::{Acf, AcfLayout};
pub use bbox::BoundingBox;
pub use cf::{Cf, CfRef};
pub use cluster::{ClusterId, ClusterSummary};
pub use distance::Metric;
pub use error::CoreError;
pub use interval::Interval;
pub use relation::{Relation, RelationBuilder};
pub use schema::{AttrId, AttrSet, Attribute, AttributeKind, Partitioning, Schema, SetId};
pub use standardize::{standardize_columns, FittedStandardization, Standardization};
pub use stats::{
    quantile, suggest_initial_thresholds, suggest_initial_thresholds_pooled, ColumnStats,
};
