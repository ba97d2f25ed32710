//! # dar-cluster
//!
//! **Sharded Phase I ingest with coordinator-merged Phase II serving** —
//! the step from "one server many clients mine against" to "one logical
//! miner whose Phase I scan is spread across machines".
//!
//! The distribution story is, once more, Theorem 6.1: a cluster feature
//! is an entry-wise sum, so the ACF forest a shard grows over *its* slice
//! of the relation summarizes that slice exactly as the single-engine
//! forest would have — and per-shard forests combine losslessly by
//! re-inserting each shard's finished clusters into one fresh forest
//! ([`dar_engine::DarEngine::merge_parsed_snapshots`]). Phase II (clustering
//! graph, cliques, rule generation) then runs **once**, on the merged
//! summary, exactly as if a single engine had scanned everything.
//!
//! Concretely:
//!
//! * a **shard** is a stock `dar serve` instance — its own engine, WAL,
//!   and snapshots, so `dar-durable` crash recovery works per shard,
//!   unchanged. Shards speak three extra verbs: `shard_ingest` (an
//!   idempotent ingest tagged with the coordinator's global batch
//!   sequence number), `pull_snapshot` (the sealed epoch snapshot), and
//!   `shard_rescan` (the SON-style exact verify pass over the shard's
//!   own WAL).
//! * the [`Coordinator`] owns the global batch sequence and routes batch
//!   `seq` to shard `(seq - 1) mod n` — deterministic, so a re-run routes
//!   identically; on query it pulls one sealed snapshot per shard (in
//!   shard order), merges, and serves rules from the merged engine with
//!   the same memoized-epoch behavior a single server has.
//! * the [`CoordinatorServer`] front-end speaks the ordinary client
//!   protocol (`ingest`, `query`, `clusters`, `stats`, `metrics`,
//!   `snapshot`, `shutdown`) over the same newline-JSON codec, so every
//!   existing client — the CLI, the bench load generator, `nc` — points
//!   at a coordinator without changes.
//! * with rescan enabled ([`ClusterConfig::rescan`]), each query's rules
//!   are verified the SON way: the candidate set is fanned back to every
//!   shard, each re-reads its WAL and reports exact per-rule frequencies
//!   over its disjoint slice, and the coordinator sums — exact global
//!   counts, no raw tuple ever crossing the wire twice.
//!
//! Fault tolerance: the coordinator tracks per-shard health
//! (Up/Suspect/Down on a lock-free [`HealthBoard`]), fast-fails requests
//! to Down shards, bounds every shard request by a hard wall-clock
//! deadline ([`ClusterConfig::deadline`], so even a blackholed shard
//! cannot stall a caller), and re-verifies recovering shards on a
//! background prober before letting them serve again. With
//! [`ClusterConfig::allow_partial`], queries keep working while shards
//! are down: the coordinator merges the live shards' snapshots and
//! annotates the response with `degraded:true` plus an honest tuple
//! coverage fraction; full-coverage responses stay byte-identical to a
//! healthy cluster's. See DESIGN.md §14 and the seeded chaos suite in
//! `dar-chaos`.
//!
//! Determinism: with healthy shards, fixed shard count, and the same
//! batch stream, the coordinator's query responses are encoded by the
//! same deterministic codec as a single server's — and for workloads
//! whose per-set sums are exact in floating point (e.g. dyadic
//! fractions), byte-identical to it. In general the merged forest equals
//! the single-engine forest up to floating-point summation order; see
//! DESIGN.md §12.
//!
//! The CLI front-end is `dar cluster-coordinator --addr … --shards
//! host:port,host:port,…`; the bench harness is `dar-bench --bin
//! cluster`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod coordinator;
mod health;
mod metrics;
mod server;

pub use config::ClusterConfig;
pub use coordinator::{Coordinator, Coverage, ShardInfo};
pub use health::{HealthBoard, ShardHealth};
pub use server::{CoordinatorHandle, CoordinatorServer};
