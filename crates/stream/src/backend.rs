//! The one engine `dar-serve` drives: a [`DarEngine`] plus an optional
//! sliding-window ring beside it.

use crate::window::{AdvanceOutcome, RetirePolicy, WindowSpec, WindowedForest};
use dar_core::{ClusterSummary, CoreError, Partitioning};
use dar_engine::snapshot::{parse_snapshot_bytes, write_snapshot_bytes, Snapshot};
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use mining::persist::MIGRATE_HINT;
use mining::RuleQuery;

/// What one [`EngineBackend::ingest`] did to the window ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedIngest {
    /// The window the batch's rows landed in.
    pub window_seq: u64,
    /// Whether the batch filled the window and advanced it.
    pub advanced: bool,
    /// Whether the advance retired a window (the horizon slid).
    pub retired: bool,
    /// The live horizon after the ingest, `(oldest seq, open seq)`.
    pub window_span: (u64, u64),
}

/// A [`DarEngine`] whose horizon is either all history or, with a window
/// ring, only the most recent windows — the one API `dar-serve` drives:
/// ingest, advance, query, snapshot, WAL-frame replay.
///
/// Phase I is a fold of ACF additions, and Phase II reads only the folded
/// summaries (Theorem 6.1), so a sliding window only changes which tuples
/// are in the fold. Without a ring every ingested tuple stays in the
/// engine's forest. With one, every batch also goes into the open
/// window's sub-forest ([`WindowedForest`]); the engine's forest holds
/// exactly the live rows, so queries cost what they cost on all history.
/// When a window retires, the engine moves to the slid horizon with its
/// epoch carried forward, so epochs stay monotonic across slides and `s0`
/// always reflects the live tuple count:
///
/// * under [`RetirePolicy::Subtract`] the engine's forest *is* the running
///   total — the expired window is subtracted from it in place
///   ([`DarEngine::subtract_retired`]);
/// * under [`RetirePolicy::Remerge`] the engine is rebuilt around the
///   re-merged survivors ([`DarEngine::with_forest`]).
pub struct EngineBackend {
    engine: DarEngine,
    /// The sliding-window ring; `None` mines all history.
    ring: Option<WindowedForest>,
}

impl From<DarEngine> for EngineBackend {
    /// An all-history backend: the engine with no window ring.
    fn from(engine: DarEngine) -> Self {
        EngineBackend { engine, ring: None }
    }
}

/// The per-set diameter threshold a fresh forest starts from: the
/// configured per-set values, else the BIRCH default for every set.
fn initial_thresholds(config: &EngineConfig, partitioning: &Partitioning) -> Vec<f64> {
    match &config.initial_thresholds {
        Some(t) => t.clone(),
        None => vec![config.birch.initial_threshold; partitioning.num_sets()],
    }
}

impl EngineBackend {
    /// Creates an empty backend: all-history mining when `window` is
    /// `None`, sliding-window mining under that geometry and retirement
    /// policy otherwise.
    ///
    /// # Errors
    /// Rejects threshold-arity mismatches, as [`DarEngine::new`] does.
    pub fn new(
        partitioning: Partitioning,
        config: EngineConfig,
        window: Option<(WindowSpec, RetirePolicy)>,
    ) -> Result<Self, CoreError> {
        let engine = DarEngine::new(partitioning, config)?;
        let ring = window.map(|(spec, policy)| {
            let (partitioning, config) = (engine.partitioning(), engine.config());
            let thresholds = initial_thresholds(config, partitioning);
            WindowedForest::new(partitioning.clone(), &config.birch, &thresholds, spec, policy)
        });
        Ok(EngineBackend { engine, ring })
    }

    /// True when a window ring bounds the horizon.
    pub fn is_windowed(&self) -> bool {
        self.ring.is_some()
    }

    /// The inner engine, for read-only accessors (epoch, tuples in the
    /// horizon, stats, partitioning, config, the cached-query fast path).
    pub fn engine(&self) -> &DarEngine {
        &self.engine
    }

    /// The window ring, if the horizon is windowed.
    pub fn ring(&self) -> Option<&WindowedForest> {
        self.ring.as_ref()
    }

    /// The live horizon `(oldest seq, open seq)`, if windowed.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        self.ring.as_ref().map(WindowedForest::window_span)
    }

    /// Feeds a batch into the engine, then into the ring's open window
    /// when there is one. The ring advances (and possibly retires) at the
    /// window boundary, and a retirement slides the engine to the live
    /// horizon. Empty batches are no-ops at the window layer (see
    /// [`WindowedForest::ingest`]). Returns what the batch did to the
    /// ring; `None` without one.
    ///
    /// # Errors
    /// Validation errors ([`DarEngine::ingest`]) reject the whole batch
    /// and leave both the engine and the ring untouched.
    pub fn ingest(&mut self, rows: &[Vec<f64>]) -> Result<Option<WindowedIngest>, CoreError> {
        self.engine.ingest(rows)?;
        Ok(self.ring_ingest(rows))
    }

    /// The ring half of an ingest whose rows the engine already took.
    fn ring_ingest(&mut self, rows: &[Vec<f64>]) -> Option<WindowedIngest> {
        let ring = self.ring.as_mut()?;
        let window_seq = ring.open_seq();
        let advance = ring.ingest(rows, self.engine.pool());
        let window_span = ring.window_span();
        let retired = advance.is_some_and(|a| a.retired_seq.is_some());
        if retired {
            self.retire();
        }
        Some(WindowedIngest { window_seq, advanced: advance.is_some(), retired, window_span })
    }

    /// Seals the open window explicitly (the `advance` verb), sliding the
    /// engine if the ring retired a window.
    ///
    /// # Errors
    /// An all-history backend has no windows to advance.
    pub fn advance(&mut self) -> Result<AdvanceOutcome, CoreError> {
        let ring = self.ring.as_mut().ok_or_else(|| {
            CoreError::LayoutMismatch(
                "advance requires a windowed engine (--window-batches)".into(),
            )
        })?;
        let outcome = ring.advance();
        if outcome.retired_seq.is_some() {
            self.retire();
        }
        Ok(outcome)
    }

    /// Moves the engine to the slid horizon: subtracts the expired windows
    /// from its forest in place, or stands it back up over the re-merged
    /// survivors. Either way the epoch carries over and is left open, so
    /// the next query closes a fresh one over the slid horizon.
    fn retire(&mut self) {
        let ring = self.ring.as_mut().expect("only a ring retires windows");
        let live = ring.live_tuples();
        match ring.policy() {
            RetirePolicy::Subtract => self.engine.subtract_retired(ring.take_retired(), live),
            RetirePolicy::Remerge => {
                self.engine = DarEngine::with_forest(
                    ring.merged(),
                    live,
                    self.engine.epoch(),
                    self.engine.config().clone(),
                );
            }
        }
    }

    /// Replays one recovered WAL frame — the one replay path of both
    /// modes. `tag` is the window sequence the frame was logged under: the
    /// ring advances until that window is open (reconstructing explicit
    /// advances, which are logged as empty tagged frames), then non-empty
    /// rows are ingested exactly as live and counted as replayed
    /// ([`DarEngine::replay_batch`]). Untagged frames (all-history or
    /// pre-windowing logs) ingest directly; without a ring the tag is
    /// ignored.
    ///
    /// # Errors
    /// Propagates ingest validation errors.
    pub fn replay_frame(&mut self, tag: Option<u64>, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        if let Some(seq) = tag {
            while self.ring.as_ref().is_some_and(|ring| ring.open_seq() < seq) {
                self.advance()?;
            }
        }
        if !rows.is_empty() {
            self.engine.replay_batch(rows)?;
            self.ring_ingest(rows);
        }
        Ok(())
    }

    /// Answers one rule-mining query over the horizon.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query(&mut self, query: &RuleQuery) -> Result<QueryOutcome, CoreError> {
        self.engine.query(query)
    }

    /// The cluster summaries of the current epoch, closing it if needed.
    pub fn clusters(&mut self) -> &[ClusterSummary] {
        self.engine.clusters()
    }

    /// Serializes the *mergeable* view — always a plain engine-v2
    /// snapshot of the horizon (all history, or the live windows only).
    /// This is what a cluster coordinator pulls; unlike
    /// [`EngineBackend::snapshot`], the result feeds
    /// [`DarEngine::merge_parsed_snapshots`] directly.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn pull_snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        self.engine.snapshot()
    }

    /// Serializes the backend for durability. Without a ring this is the
    /// engine-v2 binary snapshot. With one it is the full ring in the v2
    /// layout — a text header line framing one embedded engine-v2
    /// *binary* snapshot per live window, oldest first, the open window
    /// last:
    ///
    /// ```text
    /// dar-stream v2 epoch=<e> open_batches=<b> policy=<p> window_batches=<W> slots=<S> windows=<k>
    /// window seq=<s> bytes=<B>
    /// <B bytes of dar-engine v2 binary snapshot, epoch=<s> tuples=<window tuples>>
    /// …
    /// ```
    ///
    /// Each embedded body ends with the engine format's `0x0A` terminator,
    /// so the whole snapshot ends on a newline byte and the `dar-durable`
    /// seal never alters it. [`EngineBackend::restore`] sniffs the header,
    /// rebuilds each window's forest from its summaries and the engine
    /// from their merge (under either policy), so WAL replay on top
    /// reconstructs the ring exactly.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        let Some(ring) = &self.ring else {
            return self.engine.snapshot();
        };
        let header = RingHeader {
            epoch: self.engine.epoch(),
            open_batches: ring.open_batches(),
            policy: ring.policy(),
            spec: ring.spec(),
        };
        let partitioning = self.engine.partitioning();
        let mut windows = Vec::new();
        for (seq, forest, tuples) in ring.live_windows() {
            let mut clusters = Vec::new();
            let mut next_id = 0u32;
            for (set, acfs) in forest.extract_clusters().into_iter().enumerate() {
                for acf in acfs {
                    clusters.push(ClusterSummary { id: dar_core::ClusterId(next_id), set, acf });
                    next_id += 1;
                }
            }
            let body = write_snapshot_bytes(
                seq,
                tuples,
                partitioning,
                &forest.thresholds(),
                &clusters,
                self.engine.pool(),
            )?;
            windows.push((seq, body));
        }
        Ok(write_ring_bytes(&header, &windows))
    }

    /// Resumes a backend from an [`EngineBackend::snapshot`], routing on
    /// the header: a `dar-stream` header restores the engine and its
    /// window ring, anything else falls through to [`DarEngine::restore`]
    /// (which also unseals checksummed snapshots). The window geometry and
    /// policy come from the header; `config` supplies everything else.
    /// `windowed` is whether the caller is configured for a window ring; a
    /// snapshot of the other kind is refused before anything is parsed.
    ///
    /// # Errors
    /// Rejects a snapshot whose kind (windowed or all-history) differs from
    /// `windowed`, pre-v2 text snapshots (naming `dar migrate`), and
    /// malformed snapshots of either kind.
    pub fn restore(bytes: &[u8], config: EngineConfig, windowed: bool) -> Result<Self, CoreError> {
        let body = dar_durable::unseal_bytes(bytes)
            .map_err(|detail| CoreError::LayoutMismatch(format!("snapshot footer: {detail}")))?
            .0;
        let ring_snapshot = body.starts_with(b"dar-stream v");
        if ring_snapshot && !body.starts_with(RING_V2_TAG.as_bytes()) {
            return Err(CoreError::LayoutMismatch(format!(
                "not a dar-stream v2 ring snapshot; {MIGRATE_HINT}"
            )));
        }
        if ring_snapshot != windowed {
            let kind = |w: bool| if w { "windowed" } else { "static" };
            return Err(CoreError::LayoutMismatch(format!(
                "snapshot is a {} engine but the engine is configured {} — \
                 match --window-batches to the snapshot",
                kind(ring_snapshot),
                kind(windowed),
            )));
        }
        if !ring_snapshot {
            // `DarEngine::restore` unseals (and re-verifies) on its own.
            return Ok(DarEngine::restore(bytes, config)?.into());
        }
        Self::restore_ring(body, config)
    }

    fn restore_ring(bytes: &[u8], config: EngineConfig) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::LayoutMismatch(msg);
        let pool = dar_par::ThreadPool::resolve(config.threads);
        let line_end = |from: usize| -> Result<usize, CoreError> {
            bytes[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| from + p)
                .ok_or_else(|| bad("dar-stream snapshot truncated mid-line".into()))
        };
        let header_end = line_end(0)?;
        let header = std::str::from_utf8(&bytes[..header_end])
            .map_err(|_| bad("dar-stream header is not UTF-8".into()))?;
        let fields = header.strip_prefix(RING_V2_TAG).expect("restore routed on the v2 tag");
        let (header, num_windows) = RingHeader::parse(fields, bytes.len() - header_end - 1)?;
        let mut pos = header_end + 1;
        let mut snaps = Vec::with_capacity(num_windows);
        for i in 0..num_windows {
            if pos >= bytes.len() {
                return Err(bad(format!("missing window section {i}")));
            }
            let section_end = line_end(pos)?;
            let section = std::str::from_utf8(&bytes[pos..section_end])
                .map_err(|_| bad(format!("window section {i} is not UTF-8")))?;
            let seq = section_field(section, "seq=")?;
            let body_bytes = section_field(section, "bytes=")? as usize;
            pos = section_end + 1;
            if bytes.len() - pos < body_bytes {
                return Err(bad(format!("window {seq}: truncated embedded snapshot")));
            }
            snaps.push(parse_snapshot_bytes(&bytes[pos..pos + body_bytes], &pool)?);
            pos += body_bytes;
        }
        if pos != bytes.len() {
            return Err(bad(format!(
                "{} unexpected bytes after the last window section",
                bytes.len() - pos
            )));
        }
        Self::from_window_snaps(snaps, header, config)
    }

    /// Stands the ring and engine back up from parsed per-window snapshots
    /// (oldest first).
    fn from_window_snaps(
        snaps: Vec<Snapshot>,
        header: RingHeader,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let mut windows = Vec::with_capacity(snaps.len());
        let mut partitioning: Option<Partitioning> = None;
        for snap in snaps {
            match &partitioning {
                None => partitioning = Some(snap.partitioning.clone()),
                Some(p) if *p != snap.partitioning => {
                    return Err(CoreError::InvalidPartitioning(format!(
                        "window {} was built under a different partitioning",
                        snap.epoch
                    )));
                }
                Some(_) => {}
            }
            let mut forest = birch::AcfForest::with_initial_thresholds(
                snap.partitioning.clone(),
                &config.birch,
                &snap.thresholds,
            );
            for c in &snap.clusters {
                forest.insert_entry(c.set, c.acf.clone());
            }
            windows.push((snap.epoch, forest, snap.tuples));
        }
        let partitioning =
            partitioning.ok_or_else(|| CoreError::LayoutMismatch("zero windows parsed".into()))?;
        let thresholds = initial_thresholds(&config, &partitioning);
        let ring = WindowedForest::from_windows(
            partitioning,
            &config.birch,
            &thresholds,
            WindowSpec { batches: header.spec.batches.max(1), slots: header.spec.slots.max(1) },
            header.policy,
            windows,
            header.open_batches,
        );
        let engine =
            DarEngine::with_forest(ring.merged(), ring.live_tuples(), header.epoch, config);
        Ok(EngineBackend { engine, ring: Some(ring) })
    }
}

/// The version tag that opens every ring snapshot [`EngineBackend`]
/// writes and reads.
pub const RING_V2_TAG: &str = "dar-stream v2 ";

/// The shortest window section: its `window seq=…` line alone.
const MIN_SECTION_BYTES: usize = "window seq=0\n".len();

/// The header line of a `dar-stream` ring snapshot: the ring's state
/// apart from its windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingHeader {
    /// The engine epoch at snapshot time.
    pub epoch: u64,
    /// Non-empty batches already in the open window.
    pub open_batches: u64,
    /// How expired windows leave the engine.
    pub policy: RetirePolicy,
    /// The window geometry as written (restore reads a zero as one).
    pub spec: WindowSpec,
}

impl RingHeader {
    /// Parses the `key=value` fields that follow a ring header's version
    /// tag, before `rest` bytes of window sections. Returns the header and
    /// its window count.
    ///
    /// # Errors
    /// A missing or malformed field, zero windows, or a window count the
    /// `rest` bytes cannot hold (each section needs at least its
    /// `window seq=…` line), refused before anything is sized by it.
    pub fn parse(fields: &str, rest: usize) -> Result<(RingHeader, usize), CoreError> {
        let bad = |msg: String| CoreError::LayoutMismatch(msg);
        let policy_name = field(fields, "policy=")?;
        let header = RingHeader {
            epoch: number(fields, "epoch=")?,
            open_batches: number(fields, "open_batches=")?,
            policy: RetirePolicy::parse(policy_name)
                .ok_or_else(|| bad(format!("unknown retire policy {policy_name:?}")))?,
            spec: WindowSpec {
                batches: number(fields, "window_batches=")?,
                slots: number(fields, "slots=")? as usize,
            },
        };
        let num_windows = number(fields, "windows=")? as usize;
        if num_windows == 0 {
            return Err(bad("dar-stream snapshot with zero windows".into()));
        }
        if num_windows > rest / MIN_SECTION_BYTES {
            return Err(bad(format!(
                "dar-stream header claims {num_windows} windows but only {rest} bytes follow"
            )));
        }
        Ok((header, num_windows))
    }
}

/// Frames per-window engine-v2 snapshot bodies, oldest first as `(seq,
/// body)`, under a ring header — the one writer of the ring layout
/// [`EngineBackend::snapshot`] documents.
pub fn write_ring_bytes(header: &RingHeader, windows: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = format!(
        "{RING_V2_TAG}epoch={} open_batches={} policy={} window_batches={} slots={} windows={}\n",
        header.epoch,
        header.open_batches,
        header.policy.name(),
        header.spec.batches,
        header.spec.slots,
        windows.len(),
    )
    .into_bytes();
    for (seq, body) in windows {
        out.extend_from_slice(format!("window seq={seq} bytes={}\n", body.len()).as_bytes());
        out.extend_from_slice(body);
    }
    out
}

/// The number after `key` in a `window …` section line.
fn section_field(section: &str, key: &str) -> Result<u64, CoreError> {
    let rest = section.strip_prefix("window ").ok_or_else(|| {
        CoreError::LayoutMismatch(format!("expected window line, got {section:?}"))
    })?;
    number(rest, key)
}

/// The whitespace-terminated value after `key` in a header or section
/// line.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, CoreError> {
    let start = line
        .find(key)
        .ok_or_else(|| CoreError::LayoutMismatch(format!("missing {key} in {line:?}")))?
        + key.len();
    Ok(line[start..].split_whitespace().next().unwrap_or(""))
}

fn number(line: &str, key: &str) -> Result<u64, CoreError> {
    field(line, key)?
        .parse()
        .map_err(|_| CoreError::LayoutMismatch(format!("bad {key} field in {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring header claiming a trillion windows, followed by one section
    /// line: too few bytes for the claim, so restore must refuse before
    /// sizing anything by it.
    #[test]
    fn v2_ring_header_with_an_impossible_window_count_is_refused() {
        let oversized = b"dar-stream v2 epoch=1 open_batches=0 policy=subtract window_batches=1 \
             slots=1 windows=1000000000000\nwindow seq=0 bytes=0\n";
        let err = EngineBackend::restore(oversized, EngineConfig::default(), true).err();
        assert!(
            matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("1000000000000 windows")),
            "{err:?}"
        );
    }

    /// Any ring version but v2 — the v1 text rings `dar migrate` converts,
    /// or an unknown one — is refused naming the migration, whichever kind
    /// of engine the caller configured.
    #[test]
    fn non_v2_ring_snapshots_are_refused_naming_migrate() {
        let old = b"dar-stream v0 epoch=1 open_batches=0 policy=subtract window_batches=1 \
             slots=1 windows=1\nwindow seq=0 lines=0\n";
        for windowed in [true, false] {
            let err = EngineBackend::restore(old, EngineConfig::default(), windowed).err();
            assert!(
                matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("dar migrate")),
                "{err:?}"
            );
        }
    }
}
