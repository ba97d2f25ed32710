//! Oracles for window retirement on real-valued rows. The windowed suites
//! in `windowed.rs` stream dyadic rows, where every grouping of a sum is
//! exact; here WBCD-shaped rows make any stray or missing float operation
//! show.
//!
//! * After every advance no retired window's column is left in any entry
//!   or outlier, and each tree's `N` is the ring's live tuple count.
//! * After every retirement each entry's moments and bounding box are, bit
//!   for bit, the seq-ordered fold of its live columns.
//! * In the benchmark's window geometry the rule count a base query ranks
//!   from stays within a small factor of the first full ring's, window
//!   after window.

use dar_core::{Acf, AttrSet, Metric, Partitioning, Schema};
use dar_engine::EngineConfig;
use dar_stream::{EngineBackend, WindowSpec};
use datagen::wbcd::wbcd_relation;
use mining::{Measure, RuleQuery};

/// SplitMix64: a seeded stream of 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` WBCD-shaped rows of all 30 attributes.
fn wbcd_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let relation = wbcd_relation(n, 0.1, seed);
    (0..relation.len()).map(|r| relation.row(r)).collect()
}

/// Every bit of an ACF: `N`, each set's ΣY and ΣY², and the home box.
fn bits(acf: &Acf) -> Vec<u64> {
    let mut out = vec![acf.n()];
    for set in 0..acf.num_sets() {
        let image = acf.image(set);
        out.extend(image.linear_sum().iter().chain(image.square_sum()).map(|v| v.to_bits()));
    }
    let bbox = acf.bbox();
    out.extend(
        (0..bbox.dims())
            .flat_map(|d| [bbox.interval(d).lo.to_bits(), bbox.interval(d).hi.to_bits()]),
    );
    out
}

/// The seq-ordered fold of a non-empty column list.
fn fold(columns: &[(u64, Acf)]) -> Acf {
    let mut total = columns[0].1.clone();
    for (_, column) in &columns[1..] {
        total.merge(column).unwrap();
    }
    total
}

/// The checks that hold after every advance, plus the fold check after a
/// retirement.
fn check_forest(backend: &EngineBackend, retired: bool, what: &str) {
    let (oldest, _) = backend.window_span().unwrap();
    let live = backend.ring().unwrap().live_tuples();
    assert_eq!(backend.engine().tuples(), live, "{what}: engine tuples");
    let forest = backend.engine().forest();
    for set in 0..forest.partitioning().num_sets() {
        let tree = forest.tree(set);
        tree.check_invariants().unwrap_or_else(|e| panic!("{what}, set {set}: {e}"));
        let mut n = 0;
        for (acf, columns) in tree.entries() {
            n += acf.n();
            assert!(
                columns.iter().all(|(seq, _)| *seq >= oldest),
                "{what}, set {set}: a column of a window before {oldest} survived"
            );
            if retired {
                assert_eq!(bits(acf), bits(&fold(columns)), "{what}, set {set}: entry != fold");
            }
        }
        assert_eq!(n, live, "{what}, set {set}: tree N vs live tuples");
    }
}

#[test]
fn retirement_leaves_exactly_the_fold_of_the_live_columns() {
    for seed in 0..12u64 {
        let mut state = seed;
        let mut draw = |bound: u64| splitmix(&mut state) % bound;
        // Six of the 30 attributes, one set of two and four of one, keep
        // the debug build quick.
        let sets = vec![
            AttrSet { attrs: vec![0, 1], metric: Metric::Euclidean },
            AttrSet { attrs: vec![2], metric: Metric::Euclidean },
            AttrSet { attrs: vec![3], metric: Metric::Euclidean },
            AttrSet { attrs: vec![4], metric: Metric::Euclidean },
            AttrSet { attrs: vec![5], metric: Metric::Euclidean },
        ];
        let partitioning = Partitioning::new(&Schema::interval_attrs(6), sets).unwrap();
        let mut config = EngineConfig {
            min_support_frac: 0.05,
            threads: 1 + draw(2) as usize,
            ..EngineConfig::default()
        };
        // Small budgets force threshold rebuilds; a positive outlier limit
        // pages entries out, so outliers carry columns too.
        config.birch.memory_budget = (8 + draw(24) as usize) << 10;
        config.birch.initial_threshold = 0.0;
        config.birch.outlier_entry_limit = draw(3);
        let spec = WindowSpec { batches: 1 + draw(3), slots: 1 + draw(4) as usize };
        let mut backend = EngineBackend::new(partitioning, config, Some(spec)).unwrap();
        let rows = wbcd_rows(1_500, 1997 + seed);
        let mut rows = rows.iter().map(|r| r[..6].to_vec());
        let mut retirements = 0;
        for step in 0..40 {
            let what = format!("seed {seed} {spec:?} step {step}");
            // `Some(retired)` when the step advanced the ring.
            let advanced = if draw(5) == 0 {
                Some(backend.advance().unwrap().retired_seq.is_some())
            } else {
                let batch: Vec<Vec<f64>> = rows.by_ref().take(1 + draw(60) as usize).collect();
                let info = backend.ingest(&batch).unwrap().unwrap();
                info.advanced.then_some(info.retired)
            };
            if let Some(retired) = advanced {
                retirements += usize::from(retired);
                check_forest(&backend, retired, &what);
            }
        }
        assert!(retirements > 0, "seed {seed}: no window ever retired");
    }
}

/// The benchmark's window geometry — 2 batches × 4 slots, 170 KB per tree,
/// threshold 0, the base lift top-25 — on 30-attribute rows in 500-row
/// batches. The live horizon holds a fixed 4,000 tuples, so the rules the
/// base query ranks from (its exhaustive `rules_in`, which the top-25 is
/// the best of) must not grow without bound as windows retire.
/// Retirement by CF subtraction failed this: what it left behind kept
/// more and more rules alive (about 350 at the first full ring, over
/// 11,000 forty windows on).
#[test]
fn the_base_query_rule_count_stays_bounded_as_windows_retire() {
    const BATCH: usize = 500;
    const WINDOWS: usize = 40;
    let relation = wbcd_relation(BATCH * 2 * WINDOWS, 0.1, 20261016);
    let partitioning = Partitioning::per_attribute(relation.schema(), Metric::Euclidean);
    let mut config = EngineConfig { min_support_frac: 0.03, threads: 1, ..EngineConfig::default() };
    config.birch.memory_budget = 170 << 10;
    config.birch.initial_threshold = 0.0;
    let spec = WindowSpec { batches: 2, slots: 4 };
    let mut backend = EngineBackend::new(partitioning, config, Some(spec)).unwrap();
    let base = RuleQuery {
        measure: Measure::Lift,
        top_k: 25,
        prune_redundant: true,
        ..RuleQuery::default()
    };
    let exhaustive = RuleQuery { top_k: 0, ..base.clone() };
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|r| relation.row(r)).collect();
    let mut first_full_ring = None;
    let mut last = 0;
    for batch in rows.chunks(BATCH) {
        let info = backend.ingest(batch).unwrap().unwrap();
        if !info.advanced {
            continue;
        }
        assert_eq!(backend.query(&base).unwrap().rules.len(), 25, "window {}", info.window_seq);
        let full = info.window_seq + 1 >= spec.slots as u64;
        if full && (first_full_ring.is_none() || info.window_seq + 1 == WINDOWS as u64) {
            last = backend.query(&exhaustive).unwrap().rules_in;
            first_full_ring.get_or_insert(last);
        }
    }
    let first = first_full_ring.expect("the ring filled");
    assert!(first > 0, "the first full ring mines rules");
    assert!(
        last <= 4 * first,
        "the base query ranks {last} rules after {WINDOWS} windows, against {first} at the \
         first full ring: the live horizon's rule count grew"
    );
}
