//! Checksummed, atomically-installed snapshots.
//!
//! A sealed snapshot is the body text followed by one footer line:
//!
//! ```text
//! <body…>
//! dar-footer v1 seq=<u64> crc32=<8 hex digits> len=<body bytes>
//! ```
//!
//! `len` pins the body size (so truncation is caught even when the footer
//! itself survives), `crc32` guards the body bytes, and `seq` records the
//! last WAL sequence number the snapshot includes — the pivot of
//! seq-filtered replay.
//!
//! Installation is the classic atomic protocol, spelled out as explicit
//! storage calls so the fault harness can crash between any two of them:
//!
//! 1. write the sealed text to `<path>.tmp`
//! 2. fsync `<path>.tmp`
//! 3. if `<path>` exists, rename it to `<path>.prev` (keep the last good)
//! 4. rename `<path>.tmp` over `<path>`
//! 5. fsync the directory
//!
//! Recovery tries `<path>`, then `<path>.prev`, then `<path>.tmp`,
//! verifying the footer before trusting any of them. Every crash point
//! leaves at least one verifiable snapshot: before step 4 the old `path`
//! or (after step 3) `prev` + the fully-synced `tmp`; after step 4 the
//! new `path`. Lost suffixes are covered by WAL replay.

use crate::crc::crc32;
use crate::error::DurableError;
use crate::storage::Storage;
use crate::wal::tmp_path;
use std::path::{Path, PathBuf};

/// The footer line prefix.
pub const FOOTER_PREFIX: &str = "dar-footer v1 ";

/// Appends the checksum footer to a snapshot body of arbitrary bytes —
/// text or the persist-v2 binary formats alike. The body must be the
/// exact bytes a reader will verify; a missing trailing newline byte is
/// added so the ASCII footer sits on its own line (the binary formats
/// already terminate with `0x0A` for exactly this reason).
pub fn seal_bytes(body: &[u8], seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 64);
    out.extend_from_slice(body);
    if out.last() != Some(&b'\n') {
        out.push(b'\n');
    }
    let len = out.len();
    out.extend_from_slice(
        format!("{FOOTER_PREFIX}seq={seq} crc32={:08x} len={len}\n", crc32(&out)).as_bytes(),
    );
    out
}

/// Verifies a sealed snapshot and returns `(body, seq)`. Bytes without a
/// footer are passed through untouched with `seq = None` — pre-durability
/// snapshots stay restorable.
///
/// # Errors
/// A diagnosis when the footer is present but the body fails its length
/// or checksum — the snapshot must not be trusted.
pub fn unseal_bytes(bytes: &[u8]) -> Result<(&[u8], Option<u64>), String> {
    // The footer is the final line; everything before its line start is
    // the body (including the body's own trailing newline).
    let trimmed = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    let footer_start = match trimmed.iter().rposition(|&b| b == b'\n') {
        Some(pos) => pos + 1,
        None => 0,
    };
    // A footer line is always ASCII; anything else is a footer-less body.
    let Ok(footer) = std::str::from_utf8(&trimmed[footer_start..]) else {
        return Ok((bytes, None));
    };
    if !footer.starts_with(FOOTER_PREFIX) {
        return Ok((bytes, None));
    }
    let seq: u64 = footer_field(footer, "seq=")?;
    let crc: u32 = u32::from_str_radix(footer_field::<String>(footer, "crc32=")?.as_str(), 16)
        .map_err(|_| format!("bad crc32= field in footer {footer:?}"))?;
    let len: usize = footer_field(footer, "len=")?;
    let body = &bytes[..footer_start];
    if body.len() != len {
        return Err(format!("body is {} bytes but footer pinned {len} (truncated?)", body.len()));
    }
    let actual = crc32(body);
    if actual != crc {
        return Err(format!("body checksum {actual:08x} does not match footer {crc:08x}"));
    }
    Ok((body, Some(seq)))
}

/// Like [`unseal_bytes`], but a missing footer is an error. Used on the
/// managed snapshot chain, where every write was sealed — so "no footer"
/// can only mean truncation, and treating it as a legacy body would let
/// a torn snapshot masquerade as a valid one.
pub fn unseal_strict_bytes(bytes: &[u8]) -> Result<(&[u8], u64), String> {
    match unseal_bytes(bytes)? {
        (body, Some(seq)) => Ok((body, seq)),
        (_, None) => Err("missing checksum footer (truncated snapshot?)".into()),
    }
}

fn footer_field<T: std::str::FromStr>(footer: &str, key: &str) -> Result<T, String> {
    footer
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .ok_or_else(|| format!("footer missing {key}"))?
        .parse()
        .map_err(|_| format!("bad {key} field in footer {footer:?}"))
}

/// The `<path>.prev` sibling holding the previous good snapshot.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

/// Seals `body` with `seq` and installs it at `path` under the atomic
/// protocol, preserving the previously-installed snapshot at
/// `<path>.prev`.
///
/// # Errors
/// I/O failures at any protocol step. The caller's in-memory state is
/// unaffected; on-disk state is recoverable from whichever of
/// `path`/`prev`/`tmp` survived (plus the WAL).
pub fn install(
    storage: &dyn Storage,
    path: &Path,
    body: &[u8],
    seq: u64,
) -> Result<(), DurableError> {
    let m = crate::metrics::metrics();
    match install_protocol(storage, path, body, seq) {
        Ok(()) => {
            m.snapshot_seals.inc();
            dar_obs::event("durable.snapshot_seal", &[("seq", &seq.to_string())]);
            Ok(())
        }
        Err(e) => {
            m.snapshot_failures.inc();
            dar_obs::event(
                "durable.snapshot_failure",
                &[("seq", &seq.to_string()), ("error", &e.to_string())],
            );
            Err(e)
        }
    }
}

fn install_protocol(
    storage: &dyn Storage,
    path: &Path,
    body: &[u8],
    seq: u64,
) -> Result<(), DurableError> {
    let sealed = seal_bytes(body, seq);
    let tmp = tmp_path(path);
    storage.write(&tmp, &sealed).map_err(|e| DurableError::io("write", &tmp, e))?;
    storage.sync_file(&tmp).map_err(|e| DurableError::io("sync_file", &tmp, e))?;
    if storage.exists(path) {
        let prev = prev_path(path);
        storage.rename(path, &prev).map_err(|e| DurableError::io("rename", path, e))?;
    }
    storage.rename(&tmp, path).map_err(|e| DurableError::io("rename", &tmp, e))?;
    if let Some(dir) = path.parent() {
        storage.sync_dir(dir).map_err(|e| DurableError::io("sync_dir", dir, e))?;
    }
    Ok(())
}

/// Where a recovered snapshot came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The installed snapshot at `path` verified.
    Primary,
    /// `path` was missing or corrupt; `<path>.prev` verified.
    Previous,
    /// Only a fully-written `<path>.tmp` (crash before its rename)
    /// verified.
    Tmp,
}

/// A verified snapshot, ready to restore from.
#[derive(Debug, Clone)]
pub struct LoadedSnapshot {
    /// The verified body bytes (footer stripped).
    pub body: Vec<u8>,
    /// The last WAL sequence the snapshot includes (0 for legacy
    /// unsealed snapshots, which predate the WAL).
    pub seq: u64,
    /// Which slot it came from.
    pub source: SnapshotSource,
    /// How many candidate slots failed verification before this one.
    pub corrupt_slots_skipped: u32,
}

/// Loads the newest verifiable snapshot from the `path`/`prev`/`tmp`
/// chain. `Ok(None)` means no slot exists at all (a fresh start);
/// corrupt slots are skipped and counted.
///
/// # Errors
/// Only I/O failures *reading* an existing slot; corruption is handled by
/// falling back, not by erroring.
pub fn load_latest(
    storage: &dyn Storage,
    path: &Path,
) -> Result<Option<LoadedSnapshot>, DurableError> {
    let candidates = [
        (path.to_path_buf(), SnapshotSource::Primary),
        (prev_path(path), SnapshotSource::Previous),
        (tmp_path(path), SnapshotSource::Tmp),
    ];
    let mut skipped = 0u32;
    for (candidate, source) in candidates {
        if !storage.exists(&candidate) {
            continue;
        }
        let bytes =
            storage.read(&candidate).map_err(|e| DurableError::io("read", &candidate, e))?;
        match unseal_strict_bytes(&bytes) {
            Ok((body, seq)) => {
                return Ok(Some(LoadedSnapshot {
                    body: body.to_vec(),
                    seq,
                    source,
                    corrupt_slots_skipped: skipped,
                }));
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{scratch_dir, DiskStorage};

    #[test]
    fn seal_unseal_round_trips() {
        let body: &[u8] = b"dar-engine v1 epoch=3 tuples=100 sets=1\nthresholds 1.0\n";
        let sealed = seal_bytes(body, 42);
        let (back, seq) = unseal_bytes(&sealed).unwrap();
        assert_eq!(back, body);
        assert_eq!(seq, Some(42));
        // Legacy text without a footer passes through.
        let (legacy, seq) = unseal_bytes(body).unwrap();
        assert_eq!(legacy, body);
        assert_eq!(seq, None);
    }

    #[test]
    fn any_body_corruption_is_caught() {
        let sealed = String::from_utf8(seal_bytes(b"line one\nline two\n", 7)).unwrap();
        // Truncate the body while the footer keeps its own line: the
        // pinned length catches it even before the checksum does.
        let footer_at = sealed.rfind(FOOTER_PREFIX).unwrap();
        let truncated = format!("{}{}", &sealed[5..footer_at], &sealed[footer_at..]);
        assert!(unseal_bytes(truncated.as_bytes()).is_err());
        // Truncation that swallows the body's final newline glues the
        // footer onto the body text — lenient unsealing would wave that
        // through as a legacy snapshot, which is exactly why the managed
        // chain unseals strictly.
        let mut glued = sealed[..footer_at - 5].to_string();
        glued.push_str(&sealed[footer_at..]);
        assert!(unseal_strict_bytes(glued.as_bytes()).is_err());
        // Flip a body byte.
        let flipped = sealed.replacen("line", "lime", 1);
        assert!(unseal_bytes(flipped.as_bytes()).is_err());
        // Damage the footer's own fields.
        assert!(unseal_bytes(sealed.replace("crc32=", "crc32=f").as_bytes()).is_err());
    }

    #[test]
    fn install_rotates_and_load_prefers_primary() {
        let dir = scratch_dir("snap_rotate");
        let path = dir.join("epoch.snap");
        let s = DiskStorage;
        install(&s, &path, b"first\n", 1).unwrap();
        install(&s, &path, b"second\n", 2).unwrap();
        let loaded = load_latest(&s, &path).unwrap().unwrap();
        assert_eq!(loaded.body, b"second\n");
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.source, SnapshotSource::Primary);
        assert_eq!(loaded.corrupt_slots_skipped, 0);
        // The previous good snapshot is retained.
        let (prev_body, prev_seq) = {
            let text = std::fs::read_to_string(prev_path(&path)).unwrap();
            let (b, q) = unseal_bytes(text.as_bytes())
                .map(|(b, q)| (String::from_utf8(b.to_vec()).unwrap(), q))
                .unwrap();
            (b, q)
        };
        assert_eq!(prev_body, "first\n");
        assert_eq!(prev_seq, Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_primary_falls_back_to_previous() {
        let dir = scratch_dir("snap_fallback");
        let path = dir.join("epoch.snap");
        let s = DiskStorage;
        install(&s, &path, b"old good\n", 5).unwrap();
        install(&s, &path, b"new good\n", 9).unwrap();
        // The managed chain is strict: footer-less garbage (a torn
        // snapshot that lost its footer) is corrupt, not "legacy".
        std::fs::write(&path, "garbage that is not a snapshot").unwrap();
        let loaded = load_latest(&s, &path).unwrap().unwrap();
        assert_eq!(loaded.body, b"old good\n");
        assert_eq!(loaded.source, SnapshotSource::Previous);
        assert_eq!(loaded.corrupt_slots_skipped, 1);
        // A checksum mismatch falls back the same way.
        let tampered = String::from_utf8(seal_bytes(b"tampered\n", 9)).unwrap();
        std::fs::write(&path, tampered.replacen("tampered", "tempered", 1)).unwrap();
        let loaded = load_latest(&s, &path).unwrap().unwrap();
        assert_eq!(loaded.body, b"old good\n");
        assert_eq!(loaded.corrupt_slots_skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_bodies_seal_and_install_byte_exactly() {
        // A persist-v2-style body: magic + arbitrary non-UTF-8 bytes,
        // terminated by the format's mandatory newline byte.
        let mut body = b"DACF".to_vec();
        body.extend_from_slice(&[0xFF, 0x00, 0x80, 0x0A, 0xC3, 0x28]);
        body.push(b'\n');
        let sealed = seal_bytes(&body, 11);
        let (back, seq) = unseal_bytes(&sealed).unwrap();
        assert_eq!(back, &body[..], "seal must not alter a newline-terminated body");
        assert_eq!(seq, Some(11));
        // Corruption of a binary body is caught like any other.
        let mut flipped = sealed.clone();
        flipped[5] ^= 0x01;
        assert!(unseal_bytes(&flipped).is_err());
        // And the install/load chain carries the exact bytes.
        let dir = scratch_dir("snap_binary");
        let path = dir.join("epoch.snap");
        let s = DiskStorage;
        install(&s, &path, &body, 11).unwrap();
        let loaded = load_latest(&s, &path).unwrap().unwrap();
        assert_eq!(loaded.body, body);
        assert_eq!(loaded.seq, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_everything_is_a_fresh_start() {
        let dir = scratch_dir("snap_none");
        let s = DiskStorage;
        assert!(load_latest(&s, &dir.join("never.snap")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
