//! Sliding-window correctness: windowed mining must equal one-shot mining
//! of exactly the live rows, at any thread count, across snapshot/restore
//! and WAL-frame replay.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use dar_stream::WindowSpec;
use mining::RuleQuery;
use std::collections::BTreeMap;

fn config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config.threads = threads;
    config
}

fn partitioning() -> Partitioning {
    Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean)
}

/// Rows with dyadic jitter (0.25 steps): fp sums are exact in any
/// grouping, so re-merged window summaries match the direct scan to the
/// bit and rule equality is byte-equality.
fn dyadic_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let jitter = ((i + offset) % 4) as f64 * 0.25;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter]
            }
        })
        .collect()
}

fn windowed(threads: usize) -> DarEngine {
    DarEngine::with_window(
        partitioning(),
        config(threads),
        Some(WindowSpec { batches: 2, slots: 2 }),
    )
    .unwrap()
}

/// One-shot control: a fresh engine over exactly `rows`.
fn oneshot_rules(rows: &[Vec<f64>]) -> Vec<mining::rules::Dar> {
    let mut e = DarEngine::new(partitioning(), config(1)).unwrap();
    e.ingest(rows).unwrap();
    e.query(&RuleQuery::default()).unwrap().rules.to_vec()
}

#[test]
fn windowed_rules_equal_oneshot_over_live_rows() {
    for threads in [1usize, 2, 4] {
        let mut w = windowed(threads);
        let mut rows_by_window: BTreeMap<u64, Vec<Vec<f64>>> = BTreeMap::new();
        for batch in 0..6 {
            let rows = dyadic_rows(20, batch);
            let info = w.ingest(&rows).unwrap().unwrap();
            rows_by_window.entry(info.window_seq).or_default().extend(rows);
            let (oldest, newest) = info.window_span;
            let live: Vec<Vec<f64>> = (oldest..=newest)
                .flat_map(|s| rows_by_window.get(&s).cloned().unwrap_or_default())
                .collect();
            let got = w.query(&RuleQuery::default()).unwrap();
            assert_eq!(
                got.rules,
                oneshot_rules(&live),
                "threads {threads} batch {batch}: windowed \
                 rules diverge from one-shot over the live rows"
            );
            assert_eq!(w.tuples(), live.len() as u64, "live tuple count");
        }
        // The horizon really slid: early windows are gone.
        let (oldest, _) = w.window_span().unwrap();
        assert!(oldest >= 1, "no window ever retired");
    }
}

#[test]
fn explicit_advance_seals_early_and_empty_batches_are_noops() {
    let mut w = windowed(1);
    let rows = dyadic_rows(20, 0);
    let info = w.ingest(&rows).unwrap().unwrap();
    assert_eq!(info.window_seq, 0);
    assert!(!info.advanced, "one batch of two does not fill the window");
    // Empty batches change nothing.
    let noop = w.ingest(&[]).unwrap().unwrap();
    assert!(!noop.advanced);
    assert_eq!(w.window_span(), Some((0, 0)));
    // Explicit advance seals window 0 after a single batch.
    let out = w.advance().unwrap();
    assert_eq!(out.sealed_seq, 0);
    assert_eq!(out.opened_seq, 1);
    assert_eq!(out.retired_seq, None, "two slots: first seal fits the ring");
    let info = w.ingest(&dyadic_rows(20, 1)).unwrap().unwrap();
    assert_eq!(info.window_seq, 1);
    // Second explicit advance overflows the two-slot ring: window 0 retires.
    let out = w.advance().unwrap();
    assert_eq!(out.retired_seq, Some(0));
    assert_eq!(w.window_span(), Some((1, 2)));
    assert_eq!(w.tuples(), 20, "window 0's rows left the horizon");
}

#[test]
fn snapshot_restore_round_trips_ring_and_rules() {
    let mut w = windowed(1);
    for batch in 0..5 {
        w.ingest(&dyadic_rows(20, batch)).unwrap();
    }
    let want = w.query(&RuleQuery::default()).unwrap().rules;
    let span = w.window_span();
    let text = w.snapshot().unwrap();

    let mut back = DarEngine::restore(&text, config(1), true).unwrap();
    assert_eq!(back.window_span(), span, "ring shape");
    assert_eq!(back.window_spec().unwrap(), WindowSpec { batches: 2, slots: 2 });
    assert_eq!(back.tuples(), w.tuples());
    let got = back.query(&RuleQuery::default()).unwrap().rules;
    assert_eq!(got, want, "restored rules diverge");

    // The restored engine keeps sliding identically.
    let extra = dyadic_rows(20, 9);
    let a = w.ingest(&extra).unwrap();
    let b = back.ingest(&extra).unwrap();
    assert_eq!(a, b, "post-restore ingest diverges");
    assert_eq!(
        w.query(&RuleQuery::default()).unwrap().rules,
        back.query(&RuleQuery::default()).unwrap().rules,
        "post-restore rules diverge"
    );
}

#[test]
fn replaying_tagged_frames_reconstructs_the_ring() {
    // Record the frame log a windowed server would write: batches tagged
    // with the window they landed in, explicit advances as empty frames
    // tagged with the newly opened window.
    let mut live = windowed(1);
    let mut frames: Vec<(Option<u64>, Vec<Vec<f64>>)> = Vec::new();
    for batch in 0..3 {
        let rows = dyadic_rows(20, batch);
        let info = live.ingest(&rows).unwrap().unwrap();
        frames.push((Some(info.window_seq), rows));
        if batch == 1 {
            let out = live.advance().unwrap();
            frames.push((Some(out.opened_seq), Vec::new()));
        }
    }
    let mut replayed = windowed(1);
    for (tag, rows) in &frames {
        replayed.replay_frame(*tag, rows).unwrap();
    }
    assert_eq!(replayed.window_span(), live.window_span());
    assert_eq!(replayed.tuples(), live.tuples());
    assert_eq!(
        replayed.query(&RuleQuery::default()).unwrap().rules,
        live.query(&RuleQuery::default()).unwrap().rules,
    );
}

#[test]
fn backend_routes_advance_and_snapshot_by_variant() {
    let mut fixed: DarEngine = DarEngine::new(partitioning(), config(1)).unwrap();
    assert!(!fixed.is_windowed());
    assert!(fixed.window_span().is_none());
    assert!(fixed.advance().is_err(), "static backend has no windows");

    let mut windowed: DarEngine = windowed(1);
    assert!(windowed.is_windowed());
    windowed.ingest(&dyadic_rows(20, 0)).unwrap();
    windowed.advance().unwrap();
    assert_eq!(windowed.window_span(), Some((0, 1)));

    // Snapshot/restore sniffs the header and restores the right variant.
    let bytes = windowed.snapshot().unwrap();
    assert!(bytes.starts_with(b"dar-stream v2 "));
    let back = DarEngine::restore(&bytes, config(1), true).unwrap();
    assert!(back.is_windowed());
    assert_eq!(back.window_span(), Some((0, 1)));

    fixed.ingest(&dyadic_rows(20, 0)).unwrap();
    let bytes = fixed.snapshot().unwrap();
    let back = DarEngine::restore(&bytes, config(1), false).unwrap();
    assert!(!back.is_windowed());
    assert_eq!(back.tuples(), 20);
}
