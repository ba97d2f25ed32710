//! The sliding-window ring: which windows are live and what they hold.

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

/// One window's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct WindowSlot {
    seq: u64,
    tuples: u64,
}

/// What one [`WindowRing::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvanceOutcome {
    /// The window that was just sealed.
    pub sealed_seq: u64,
    /// The newly opened window.
    pub opened_seq: u64,
    /// The window that expired out of the ring, if it overflowed.
    pub retired_seq: Option<u64>,
}

/// The ring of live windows: sealed windows oldest-first plus the open
/// one. Every ingested batch lands in the open window; a boundary
/// (automatic after [`WindowSpec::batches`] non-empty batches, or an
/// explicit [`WindowRing::advance`]) seals it and opens the next. When the
/// ring exceeds [`WindowSpec::slots`] live windows the oldest retires.
///
/// The ring keeps only each window's sequence number and tuple count and
/// the open window's batch count. The Phase I state of the horizon is one
/// forest whose entries carry a column per live window; the ring's owner
/// opens and retires those columns as the ring says.
#[derive(Debug, Clone)]
pub struct WindowRing {
    spec: WindowSpec,
    sealed: VecDeque<WindowSlot>,
    open: WindowSlot,
    /// Non-empty batches ingested into the open window so far.
    open_batches: u64,
}

impl WindowRing {
    /// Creates a ring with only window 0, open and empty.
    ///
    /// # Panics
    /// Panics if `spec.batches` or `spec.slots` is zero.
    pub fn new(spec: WindowSpec) -> Self {
        Self::resume(spec, vec![(0, 0)], 0)
    }

    /// Resumes a ring from restored bookkeeping — the snapshot restore
    /// path. `windows` is the live horizon as `(seq, tuples)`, oldest first
    /// with the open window last; `open_batches` is the open window's batch
    /// count at snapshot time.
    ///
    /// # Panics
    /// Panics if `windows` is empty or the spec is degenerate.
    pub(crate) fn resume(spec: WindowSpec, windows: Vec<(u64, u64)>, open_batches: u64) -> Self {
        assert!(spec.batches >= 1, "a window must span at least one batch");
        assert!(spec.slots >= 1, "at least one live window");
        let mut sealed: VecDeque<WindowSlot> =
            windows.into_iter().map(|(seq, tuples)| WindowSlot { seq, tuples }).collect();
        let open = sealed.pop_back().expect("the open window is always live");
        WindowRing { spec, sealed, open, open_batches }
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
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

    /// The live windows as `(seq, tuples)`, oldest first with the open
    /// window last. This is the snapshot iteration order.
    pub fn live_windows(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sealed.iter().chain(std::iter::once(&self.open)).map(|w| (w.seq, w.tuples))
    }

    /// Counts a batch of `rows` tuples into the open window, advancing
    /// automatically when the batch fills the window. Empty batches are
    /// no-ops: they neither count toward the window boundary nor advance —
    /// so WAL replay can use empty tagged frames purely as advance markers.
    pub fn ingest(&mut self, rows: usize) -> Option<AdvanceOutcome> {
        if rows == 0 {
            return None;
        }
        self.open.tuples += rows as u64;
        self.open_batches += 1;
        if self.open_batches >= self.spec.batches {
            return Some(self.advance());
        }
        None
    }

    /// Seals the open window and opens the next; retires the oldest live
    /// window if the ring overflows.
    pub fn advance(&mut self) -> AdvanceOutcome {
        let next_seq = self.open.seq + 1;
        let sealed = std::mem::replace(&mut self.open, WindowSlot { seq: next_seq, tuples: 0 });
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
        }
        AdvanceOutcome { sealed_seq: sealed.seq, opened_seq: next_seq, retired_seq }
    }
}
