//! A [`DarEngine`] whose Phase II queries mine only the live window
//! horizon.

use crate::window::{AdvanceOutcome, RetirePolicy, WindowSpec, WindowedForest};
use dar_core::{ClusterSummary, CoreError, Partitioning};
use dar_engine::snapshot::{parse_snapshot, parse_snapshot_bytes, write_snapshot_bytes, Snapshot};
use dar_engine::{DarEngine, EngineConfig, EngineStats, QueryOutcome};
use mining::RuleQuery;

/// What one [`WindowedEngine::ingest`] did to the window state.
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

/// A sliding-window mining engine: a [`WindowedForest`] for Phase I plus an
/// inner [`DarEngine`] that answers Phase II queries over the live horizon
/// only.
///
/// Every batch goes into two forests: the inner engine's and the open
/// window's. The inner engine's forest holds exactly the live rows, so
/// queries are as cheap as the all-history engine's. When a window
/// retires, the inner engine moves to the slid horizon with its epoch
/// carried forward, so epochs stay monotonic across slides and `s0` always
/// reflects the live tuple count:
///
/// * under [`RetirePolicy::Subtract`] the inner engine's forest *is* the
///   running total — the expired window is subtracted from it in place
///   ([`DarEngine::subtract_retired`]);
/// * under [`RetirePolicy::Remerge`] the inner engine is rebuilt around the
///   re-merged survivors ([`DarEngine::with_forest`]).
pub struct WindowedEngine {
    windows: WindowedForest,
    engine: DarEngine,
    config: EngineConfig,
    pool: dar_par::ThreadPool,
}

impl WindowedEngine {
    /// Creates an empty windowed engine.
    ///
    /// # Errors
    /// Rejects threshold-arity mismatches, as [`DarEngine::new`] does.
    pub fn new(
        partitioning: Partitioning,
        config: EngineConfig,
        spec: WindowSpec,
        policy: RetirePolicy,
    ) -> Result<Self, CoreError> {
        let engine = DarEngine::new(partitioning.clone(), config.clone())?;
        let thresholds = match &config.initial_thresholds {
            Some(t) => t.clone(),
            None => vec![config.birch.initial_threshold; partitioning.num_sets()],
        };
        let windows = WindowedForest::new(partitioning, &config.birch, &thresholds, spec, policy);
        let pool = dar_par::ThreadPool::resolve(config.threads);
        Ok(WindowedEngine { windows, engine, config, pool })
    }

    /// Feeds a batch into the open window and the inner engine. Advances
    /// (and possibly retires) automatically at the window boundary; a
    /// retirement slides the inner engine to the live horizon.
    /// Empty batches are no-ops at the window layer (see
    /// [`WindowedForest::ingest`]).
    ///
    /// # Errors
    /// Validation errors ([`DarEngine::ingest`]) reject the whole batch and
    /// leave both the window ring and the inner engine untouched.
    pub fn ingest(&mut self, rows: &[Vec<f64>]) -> Result<WindowedIngest, CoreError> {
        let window_seq = self.windows.open_seq();
        self.engine.ingest(rows)?;
        let advance = self.windows.ingest(rows, &self.pool);
        if let Some(a) = &advance {
            if a.retired_seq.is_some() {
                self.retire();
            }
        }
        Ok(WindowedIngest {
            window_seq,
            advanced: advance.is_some(),
            retired: advance.is_some_and(|a| a.retired_seq.is_some()),
            window_span: self.windows.window_span(),
        })
    }

    /// Seals the open window explicitly (the `advance` verb), sliding the
    /// inner engine if the ring retired a window.
    pub fn advance(&mut self) -> AdvanceOutcome {
        let outcome = self.windows.advance();
        if outcome.retired_seq.is_some() {
            self.retire();
        }
        outcome
    }

    /// Moves the inner engine to the slid horizon: subtracts the expired
    /// windows from its forest in place, or stands it back up over the
    /// re-merged survivors. Either way the epoch carries over and is left
    /// open, so the next query closes a fresh one over the slid horizon.
    fn retire(&mut self) {
        let live = self.windows.live_tuples();
        match self.windows.policy() {
            RetirePolicy::Subtract => {
                self.engine.subtract_retired(self.windows.take_retired(), live)
            }
            RetirePolicy::Remerge => {
                self.engine = DarEngine::with_forest(
                    self.windows.merged(),
                    live,
                    self.engine.epoch(),
                    self.config.clone(),
                );
            }
        }
    }

    /// Replays one recovered WAL frame. `tag` is the window sequence the
    /// frame was logged under: the ring advances until that window is open
    /// (reconstructing explicit advances, which are logged as empty tagged
    /// frames), then non-empty rows are ingested exactly as live. Untagged
    /// frames (pre-windowing logs) ingest directly.
    ///
    /// # Errors
    /// Propagates validation errors from [`WindowedEngine::ingest`].
    pub fn replay_frame(&mut self, tag: Option<u64>, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        if let Some(seq) = tag {
            while self.windows.open_seq() < seq {
                self.advance();
            }
        }
        if !rows.is_empty() {
            self.ingest(rows)?;
        }
        Ok(())
    }

    /// Answers one rule-mining query over the live horizon.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query(&mut self, query: &RuleQuery) -> Result<QueryOutcome, CoreError> {
        self.engine.query(query)
    }

    /// The read-only fast path (see [`DarEngine::query_cached`]).
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query_cached(&self, query: &RuleQuery) -> Result<Option<QueryOutcome>, CoreError> {
        self.engine.query_cached(query)
    }

    /// The current epoch number of the inner engine.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Tuples across the live horizon.
    pub fn tuples(&self) -> u64 {
        self.windows.live_tuples()
    }

    /// The partitioning this engine mines under.
    pub fn partitioning(&self) -> &Partitioning {
        self.engine.partitioning()
    }

    /// The row width ingest validates against (see
    /// [`DarEngine::required_row_width`]).
    pub fn required_row_width(&self) -> usize {
        self.engine.required_row_width()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.engine.config()
    }

    /// Inner-engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The cluster summaries of the current epoch, closing it if needed.
    pub fn clusters(&mut self) -> &[ClusterSummary] {
        self.engine.clusters()
    }

    /// The live horizon, `(oldest live seq, open seq)`.
    pub fn window_span(&self) -> (u64, u64) {
        self.windows.window_span()
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.windows.spec()
    }

    /// The retirement policy.
    pub fn policy(&self) -> RetirePolicy {
        self.windows.policy()
    }

    /// Serializes the full ring to the v2 layout — a text header line
    /// framing one embedded engine-v2 *binary* snapshot per live window,
    /// oldest first, the open window last:
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
    /// seal never alters it. Restoring ([`WindowedEngine::restore`])
    /// rebuilds each window's forest from its summaries and the inner
    /// engine from their merge (under either policy), so WAL replay on top
    /// reconstructs the ring exactly.
    ///
    /// # Errors
    /// Propagates serialization failures from the embedded snapshots.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        let mut out = format!(
            "dar-stream v2 epoch={} open_batches={} policy={} window_batches={} slots={} windows={}\n",
            self.engine.epoch(),
            self.windows.open_batches(),
            self.windows.policy().name(),
            self.windows.spec().batches,
            self.windows.spec().slots,
            self.windows.live_windows().count(),
        )
        .into_bytes();
        let partitioning = self.engine.partitioning().clone();
        for (seq, forest, tuples) in self.windows.live_windows() {
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
                &partitioning,
                &forest.thresholds(),
                &clusters,
                &self.pool,
            )?;
            out.extend_from_slice(format!("window seq={seq} bytes={}\n", body.len()).as_bytes());
            out.extend_from_slice(&body);
        }
        Ok(out)
    }

    /// An engine-v2 snapshot of the **live horizon only** — the mergeable
    /// view a cluster coordinator pulls ([`dar_engine::DarEngine`]'s own
    /// format, with no ring framing). The ring structure is deliberately
    /// absent: use [`WindowedEngine::snapshot`] for durability.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn horizon_snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        self.engine.snapshot()
    }

    /// Resumes a windowed engine from a [`WindowedEngine::snapshot`] body
    /// (already unsealed by the caller), sniffing the header: `dar-stream
    /// v2` frames binary engine snapshots by byte count, the pre-v2
    /// `dar-stream v1` frames text snapshots by line count. The window
    /// geometry and policy come from the header; `config` supplies
    /// everything else.
    ///
    /// # Errors
    /// Rejects malformed headers, malformed embedded snapshots, and
    /// windows whose partitionings disagree.
    pub fn restore(bytes: &[u8], config: EngineConfig) -> Result<Self, CoreError> {
        if bytes.starts_with(b"dar-stream v2 ") {
            return Self::restore_v2(bytes, config);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            CoreError::LayoutMismatch(
                "snapshot bytes are neither dar-stream v2 nor UTF-8 text".into(),
            )
        })?;
        Self::restore_v1(text, config)
    }

    fn restore_v2(bytes: &[u8], config: EngineConfig) -> Result<Self, CoreError> {
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
        let (epoch, open_batches, window_batches, slots, num_windows, policy) =
            parse_ring_header(header)?;
        let mut pos = header_end + 1;
        let mut snaps = Vec::with_capacity(num_windows);
        for i in 0..num_windows {
            if pos >= bytes.len() {
                return Err(bad(format!("missing window section {i}")));
            }
            let section_end = line_end(pos)?;
            let section = std::str::from_utf8(&bytes[pos..section_end])
                .map_err(|_| bad(format!("window section {i} is not UTF-8")))?;
            let rest = section
                .strip_prefix("window ")
                .ok_or_else(|| bad(format!("expected window line, got {section:?}")))?;
            let sfield = |key: &str| -> Result<u64, CoreError> {
                let start =
                    rest.find(key).ok_or_else(|| bad(format!("missing {key} in {section:?}")))?
                        + key.len();
                rest[start..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| bad(format!("bad {key} field in {section:?}")))
            };
            let seq = sfield("seq=")?;
            let body_bytes = sfield("bytes=")? as usize;
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
        Self::from_window_snaps(snaps, epoch, open_batches, window_batches, slots, policy, config)
    }

    fn restore_v1(text: &str, config: EngineConfig) -> Result<Self, CoreError> {
        let bad = |msg: String| CoreError::LayoutMismatch(msg);
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty dar-stream snapshot".into()))?;
        let (epoch, open_batches, window_batches, slots, num_windows, policy) =
            parse_ring_header(header)?;
        let mut snaps = Vec::with_capacity(num_windows);
        for i in 0..num_windows {
            let section = lines.next().ok_or_else(|| bad(format!("missing window section {i}")))?;
            let rest = section
                .strip_prefix("window ")
                .ok_or_else(|| bad(format!("expected window line, got {section:?}")))?;
            let sfield = |key: &str| -> Result<u64, CoreError> {
                let start =
                    rest.find(key).ok_or_else(|| bad(format!("missing {key} in {section:?}")))?
                        + key.len();
                rest[start..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| bad(format!("bad {key} field in {section:?}")))
            };
            let seq = sfield("seq=")?;
            let body_lines = sfield("lines=")? as usize;
            let mut body = String::new();
            for _ in 0..body_lines {
                let l = lines
                    .next()
                    .ok_or_else(|| bad(format!("window {seq}: truncated embedded snapshot")))?;
                body.push_str(l);
                body.push('\n');
            }
            snaps.push(parse_snapshot(&body)?);
        }
        Self::from_window_snaps(snaps, epoch, open_batches, window_batches, slots, policy, config)
    }

    /// Stands the ring and inner engine back up from parsed per-window
    /// snapshots (oldest first) — the common tail of both restore paths.
    fn from_window_snaps(
        snaps: Vec<Snapshot>,
        epoch: u64,
        open_batches: u64,
        window_batches: u64,
        slots: usize,
        policy: RetirePolicy,
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
        let thresholds = match &config.initial_thresholds {
            Some(t) => t.clone(),
            None => vec![config.birch.initial_threshold; partitioning.num_sets()],
        };
        let ring = WindowedForest::from_windows(
            partitioning.clone(),
            &config.birch,
            &thresholds,
            WindowSpec { batches: window_batches.max(1), slots: slots.max(1) },
            policy,
            windows,
            open_batches,
        );
        let engine =
            DarEngine::with_forest(ring.merged(), ring.live_tuples(), epoch, config.clone());
        let pool = dar_par::ThreadPool::resolve(config.threads);
        Ok(WindowedEngine { windows: ring, engine, config, pool })
    }
}

/// Parses the `dar-stream v1`/`v2` header line shared by both snapshot
/// layouts. Returns `(epoch, open_batches, window_batches, slots,
/// num_windows, policy)`.
fn parse_ring_header(
    header: &str,
) -> Result<(u64, u64, u64, usize, usize, RetirePolicy), CoreError> {
    let bad = |msg: String| CoreError::LayoutMismatch(msg);
    if !header.starts_with("dar-stream v1 ") && !header.starts_with("dar-stream v2 ") {
        return Err(bad(format!("not a dar-stream snapshot: {header:?}")));
    }
    let field = |key: &str| -> Result<u64, CoreError> {
        let start = header.find(key).ok_or_else(|| bad(format!("missing {key} in {header:?}")))?
            + key.len();
        header[start..]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| bad(format!("bad {key} field in {header:?}")))
    };
    let epoch = field("epoch=")?;
    let open_batches = field("open_batches=")?;
    let window_batches = field("window_batches=")?;
    let slots = field("slots=")? as usize;
    let num_windows = field("windows=")? as usize;
    let policy_start =
        header.find("policy=").ok_or_else(|| bad(format!("missing policy= in {header:?}")))?
            + "policy=".len();
    let policy_name = header[policy_start..].split_whitespace().next().unwrap_or("");
    let policy = RetirePolicy::parse(policy_name)
        .ok_or_else(|| bad(format!("unknown retire policy {policy_name:?}")))?;
    if num_windows == 0 {
        return Err(bad("dar-stream snapshot with zero windows".into()));
    }
    Ok((epoch, open_batches, window_batches, slots, num_windows, policy))
}
