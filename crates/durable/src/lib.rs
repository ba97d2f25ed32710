//! # dar-durable — crash safety for the DAR mining engine
//!
//! The engine's state is a pure function of its ingest history (Theorem
//! 6.1 of Miller & Yang: Phase II is derived entirely from the ACF
//! summaries, which are themselves a fold over the tuples). That makes
//! durability a matter of persisting two artifacts:
//!
//! * a **write-ahead log** of ingest batches ([`wal`], [`batch`]) —
//!   length-prefixed, CRC32-checksummed records, fsynced before a batch
//!   is acknowledged, recovered with tolerant torn-tail semantics;
//! * **atomic snapshots** of the engine's text serialization
//!   ([`snapshot`]) — written to a tmp file, fsynced, renamed over the
//!   target, directory-fsynced, with a trailing checksum footer and a
//!   `.prev` fallback slot.
//!
//! [`DurableStore`] ties the two together with sequence numbers:
//! snapshots record the last WAL sequence they include, and recovery
//! replays only newer records, so every crash point — mid-append,
//! mid-install, between install and WAL truncation — recovers exactly
//! the acknowledged state.
//!
//! All file access goes through the [`Storage`] trait; [`FaultyStorage`]
//! implements it with injectable partial writes, torn renames, and
//! failing syncs, which is how the crash tests exercise each protocol
//! step deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod crc;
pub mod error;
mod metrics;
pub mod snapshot;
pub mod storage;
pub mod store;
pub mod wal;

pub use batch::{decode_batch, decode_frame, encode_batch, encode_tagged_batch};
pub use crc::crc32;
pub use error::DurableError;
pub use snapshot::{seal_bytes, unseal_bytes, unseal_strict_bytes, LoadedSnapshot, SnapshotSource};
pub use storage::{DiskStorage, FaultPlan, FaultyStorage, Storage};
pub use store::{DurableStore, Recovered, RecoveryReport, WalFrame};
pub use wal::{WalRecord, WalReport};
