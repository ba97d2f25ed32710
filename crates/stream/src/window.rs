//! The sliding-window ring of per-window ACF sub-forests.

use birch::{AcfForest, BirchConfig};
use dar_core::Partitioning;
use std::collections::VecDeque;

/// Window geometry: how often a boundary falls and how many windows stay
/// live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Non-empty ingested batches per window (an explicit advance can seal
    /// a window early). Must be ≥ 1.
    pub batches: u64,
    /// Live windows, the open one included. Must be ≥ 1; with one slot
    /// every sealed window retires immediately.
    pub slots: usize,
}

/// How a window leaves the live horizon when the ring overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetirePolicy {
    /// Drop the expired slot; the live horizon is re-merged from the
    /// surviving windows ([`WindowedForest::merged`]).
    Remerge,
    /// Cancel the expired window's summary out of a running total by CF
    /// subtraction ([`AcfForest::subtract`]). The ring keeps no total of
    /// its own: it hands the expired forest to its owner
    /// ([`WindowedForest::take_retired`]), whose live forest is the total.
    /// In a [`WindowedEngine`](crate::WindowedEngine) that is the inner
    /// engine's forest, subtracted in place.
    Subtract,
}

impl RetirePolicy {
    /// The canonical config/snapshot name.
    pub fn name(self) -> &'static str {
        match self {
            RetirePolicy::Remerge => "remerge",
            RetirePolicy::Subtract => "subtract",
        }
    }

    /// Parses a canonical name.
    pub fn parse(name: &str) -> Option<RetirePolicy> {
        match name {
            "remerge" => Some(RetirePolicy::Remerge),
            "subtract" => Some(RetirePolicy::Subtract),
            _ => None,
        }
    }
}

/// One window's Phase I state.
#[derive(Debug, Clone)]
struct WindowSlot {
    seq: u64,
    forest: AcfForest,
    tuples: u64,
}

/// What one [`WindowedForest::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvanceOutcome {
    /// The window that was just sealed.
    pub sealed_seq: u64,
    /// The newly opened window.
    pub opened_seq: u64,
    /// The window that expired out of the ring, if it overflowed.
    pub retired_seq: Option<u64>,
}

/// A ring of per-window sealed sub-forests plus the open window. Every
/// ingested batch lands in the open window; a boundary (automatic after
/// [`WindowSpec::batches`] non-empty batches, or an explicit
/// [`WindowedForest::advance`]) seals it and opens the next. When the ring
/// exceeds [`WindowSpec::slots`] live windows the oldest retires under the
/// configured [`RetirePolicy`].
///
/// The ring holds per-window state only. Under [`RetirePolicy::Subtract`]
/// the running total of the live horizon belongs to the owner, which feeds
/// it every batch and subtracts the expired forests it takes from
/// [`WindowedForest::take_retired`]; under [`RetirePolicy::Remerge`] the
/// horizon is re-merged from the live windows ([`WindowedForest::merged`]).
///
/// All paths are deterministic: windows seal and retire in sequence order,
/// per-window insertion is the forest's deterministic scan, and the merged
/// live horizon is assembled in sequence order — so at any worker count
/// the merged summary is byte-stable.
#[derive(Debug, Clone)]
pub struct WindowedForest {
    spec: WindowSpec,
    policy: RetirePolicy,
    partitioning: Partitioning,
    birch: BirchConfig,
    initial_thresholds: Vec<f64>,
    sealed: VecDeque<WindowSlot>,
    open: WindowSlot,
    /// Non-empty batches ingested into the open window so far.
    open_batches: u64,
    /// [`RetirePolicy::Subtract`] only: expired windows' forests awaiting
    /// subtraction by the owner ([`WindowedForest::take_retired`]).
    retired: Vec<AcfForest>,
}

impl WindowedForest {
    /// Creates an empty windowed forest. `initial_thresholds` is the
    /// per-set diameter threshold every fresh window's forest starts from
    /// (the same value a non-windowed engine's forest would use).
    ///
    /// # Panics
    /// Panics if `spec.batches` or `spec.slots` is zero, or if the
    /// threshold arity differs from the partitioning's set count.
    pub fn new(
        partitioning: Partitioning,
        birch: &BirchConfig,
        initial_thresholds: &[f64],
        spec: WindowSpec,
        policy: RetirePolicy,
    ) -> Self {
        assert!(spec.batches >= 1, "a window must span at least one batch");
        assert!(spec.slots >= 1, "at least one live window");
        let fresh =
            AcfForest::with_initial_thresholds(partitioning.clone(), birch, initial_thresholds);
        WindowedForest {
            spec,
            policy,
            partitioning,
            birch: birch.clone(),
            initial_thresholds: initial_thresholds.to_vec(),
            sealed: VecDeque::new(),
            open: WindowSlot { seq: 0, forest: fresh, tuples: 0 },
            open_batches: 0,
            retired: Vec::new(),
        }
    }

    fn fresh_forest(&self) -> AcfForest {
        AcfForest::with_initial_thresholds(
            self.partitioning.clone(),
            &self.birch,
            &self.initial_thresholds,
        )
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The retirement policy.
    pub fn policy(&self) -> RetirePolicy {
        self.policy
    }

    /// The open window's sequence number — the window the next batch lands
    /// in.
    pub fn open_seq(&self) -> u64 {
        self.open.seq
    }

    /// Non-empty batches the open window has absorbed.
    pub fn open_batches(&self) -> u64 {
        self.open_batches
    }

    /// The live horizon as `(oldest live seq, open seq)`, inclusive.
    pub fn window_span(&self) -> (u64, u64) {
        (self.sealed.front().map_or(self.open.seq, |w| w.seq), self.open.seq)
    }

    /// Tuples across the live horizon.
    pub fn live_tuples(&self) -> u64 {
        self.sealed.iter().map(|w| w.tuples).sum::<u64>() + self.open.tuples
    }

    /// Feeds a batch into the open window, advancing automatically when the
    /// batch fills the window. Empty batches are no-ops: they neither count
    /// toward the window boundary nor advance — so WAL replay can use empty
    /// tagged frames purely as advance markers.
    ///
    /// Rows must be pre-validated (width and finiteness) by the caller —
    /// the engine layer does this before any forest sees the batch.
    pub fn ingest(
        &mut self,
        rows: &[Vec<f64>],
        pool: &dar_par::ThreadPool,
    ) -> Option<AdvanceOutcome> {
        if rows.is_empty() {
            return None;
        }
        self.open.forest.insert_batch(rows, pool);
        self.open.tuples += rows.len() as u64;
        self.open_batches += 1;
        if self.open_batches >= self.spec.batches {
            return Some(self.advance());
        }
        None
    }

    /// Seals the open window and opens the next; retires the oldest live
    /// window if the ring overflows. Under [`RetirePolicy::Subtract`] the
    /// expired forest waits in [`WindowedForest::take_retired`] for the
    /// owner to subtract it from the running total.
    pub fn advance(&mut self) -> AdvanceOutcome {
        let next_seq = self.open.seq + 1;
        let fresh = self.fresh_forest();
        let sealed = std::mem::replace(
            &mut self.open,
            WindowSlot { seq: next_seq, forest: fresh, tuples: 0 },
        );
        let sealed_seq = sealed.seq;
        self.sealed.push_back(sealed);
        self.open_batches = 0;
        let m = crate::metrics::metrics();
        m.windows_advanced.inc();
        let mut retired_seq = None;
        // `slots` counts the open window too, so the sealed ring holds at
        // most `slots - 1` windows.
        while self.sealed.len() > self.spec.slots.saturating_sub(1) {
            let expired = self.sealed.pop_front().expect("ring just overflowed");
            retired_seq = Some(expired.seq);
            m.windows_retired.inc();
            match self.policy {
                RetirePolicy::Subtract => {
                    m.retired_subtract.inc();
                    self.retired.push(expired.forest);
                }
                RetirePolicy::Remerge => {
                    m.retired_remerge.inc();
                    // Dropping the slot is the whole retirement; the live
                    // horizon is re-merged on demand by `merged`.
                }
            }
        }
        AdvanceOutcome { sealed_seq, opened_seq: next_seq, retired_seq }
    }

    /// Hands over the forests of the windows retired under
    /// [`RetirePolicy::Subtract`] since the last call, oldest first — the
    /// owner cancels them out of its running total. Always empty under
    /// [`RetirePolicy::Remerge`].
    pub fn take_retired(&mut self) -> Vec<AcfForest> {
        std::mem::take(&mut self.retired)
    }

    /// The live windows oldest-first, the open window last: `(seq, forest,
    /// tuples)`. This is the snapshot iteration order.
    pub fn live_windows(&self) -> impl Iterator<Item = (u64, &AcfForest, u64)> {
        self.sealed.iter().chain(std::iter::once(&self.open)).map(|w| (w.seq, &w.forest, w.tuples))
    }

    /// Rebuilds a windowed forest from restored per-window state — the
    /// snapshot restore path. `windows` is the live horizon oldest-first
    /// with the open window last (at least the open window must be
    /// present); `open_batches` is the open window's batch count at
    /// snapshot time. The owner rebuilds its view of the horizon from
    /// [`WindowedForest::merged`] (moment-identical to a pre-snapshot
    /// running total by ACF additivity).
    ///
    /// # Panics
    /// Panics if `windows` is empty or the spec is degenerate.
    pub fn from_windows(
        partitioning: Partitioning,
        birch: &BirchConfig,
        initial_thresholds: &[f64],
        spec: WindowSpec,
        policy: RetirePolicy,
        windows: Vec<(u64, AcfForest, u64)>,
        open_batches: u64,
    ) -> Self {
        assert!(!windows.is_empty(), "the open window is always live");
        let mut slots: Vec<WindowSlot> = windows
            .into_iter()
            .map(|(seq, forest, tuples)| WindowSlot { seq, forest, tuples })
            .collect();
        let open = slots.pop().expect("non-empty checked");
        WindowedForest {
            spec,
            policy,
            partitioning,
            birch: birch.clone(),
            initial_thresholds: initial_thresholds.to_vec(),
            sealed: slots.into(),
            open,
            open_batches,
            retired: Vec::new(),
        }
    }

    /// The merged Phase I state of the live horizon, under either policy:
    /// the live windows' summaries, merged in sequence order into a fresh
    /// forest whose per-set thresholds are the element-wise maximum over
    /// the live windows (a summary absorbed under a threshold must not be
    /// re-split under a smaller one — the same rule
    /// `DarEngine::merge_snapshots` applies). Remerge retirement and
    /// restore use it.
    pub fn merged(&self) -> AcfForest {
        let live: Vec<&WindowSlot> =
            self.sealed.iter().chain(std::iter::once(&self.open)).collect();
        let mut thresholds = self.initial_thresholds.clone();
        for w in &live {
            for (t, s) in thresholds.iter_mut().zip(w.forest.thresholds()) {
                *t = t.max(s);
            }
        }
        let mut merged =
            AcfForest::with_initial_thresholds(self.partitioning.clone(), &self.birch, &thresholds);
        for w in live {
            for (set, acfs) in w.forest.extract_clusters().into_iter().enumerate() {
                for acf in acfs {
                    merged.insert_entry(set, acf);
                }
            }
        }
        merged
    }
}
