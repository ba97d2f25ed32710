//! RAII span timers: start a [`Span`] at the top of a phase, and its
//! elapsed wall-clock nanoseconds land in a histogram when it drops —
//! including on early returns and panics.

use crate::metric::Histogram;
use std::time::Instant;

/// An RAII timing guard. Created via [`crate::span`] (registry lookup per
/// call, fine for cold paths) or [`Span::new`] with a cached histogram
/// handle (hot paths).
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    started: Instant,
}

impl Span {
    /// Starts timing now; records into `histogram` on drop.
    pub fn new(histogram: Histogram) -> Span {
        Span { histogram, started: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.observe_duration(self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_one_observation_on_drop() {
        let h = Histogram::new();
        {
            let _t = Span::new(h.clone());
            std::hint::black_box(1 + 1);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, s.max, "single observation: sum == max");
    }

    #[test]
    fn span_records_even_across_early_exit() {
        fn timed(h: &Histogram, bail: bool) -> u32 {
            let _t = Span::new(h.clone());
            if bail {
                return 0;
            }
            1
        }
        let h = Histogram::new();
        timed(&h, true);
        timed(&h, false);
        assert_eq!(h.snapshot().count, 2);
    }
}
