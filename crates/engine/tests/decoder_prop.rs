//! Decoder property for the three persisted-summary readers: over valid
//! small DACF, DARS and ring bytes (from a static and a windowed engine),
//! overwrite every aligned 4- and 8-byte word with 0, 1, all-ones and a
//! seeded random value, and truncate at every byte. `decode_clusters`,
//! `parse_snapshot_bytes` and `DarEngine::restore` must answer every
//! such input with `Ok` or a structured `Err` — never a panic or an abort
//! — and whatever they accept must re-encode and decode again to the same
//! value.

use dar_core::{AttrSet, Metric, Partitioning, Schema};
use dar_engine::snapshot::{parse_snapshot_bytes, write_snapshot_bytes};
use dar_engine::{DarEngine, EngineConfig};
use dar_stream::WindowSpec;
use mining::persist::{decode_clusters, encode_clusters};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn config() -> EngineConfig {
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.birch.memory_budget = usize::MAX;
    config.min_support_frac = 0.2;
    config.threads = 1;
    config
}

/// Two blocks of three-attribute rows with dyadic jitter.
fn rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let jitter = ((i + offset) % 4) as f64 * 0.25;
            if (i + offset).is_multiple_of(2) {
                vec![jitter, 100.0 + jitter, 5.0 + jitter]
            } else {
                vec![50.0 + jitter, 200.0 + jitter, 9.0 + jitter]
            }
        })
        .collect()
}

/// A two-dimensional set then a one-dimensional one: the DARS header
/// lists its attribute ids at word-aligned offsets, so the mutations
/// reach them.
fn static_engine() -> DarEngine {
    let schema = Schema::interval_attrs(3);
    let sets = vec![
        AttrSet { attrs: vec![0, 1], metric: Metric::Euclidean },
        AttrSet { attrs: vec![2], metric: Metric::Euclidean },
    ];
    let mut engine = DarEngine::new(Partitioning::new(&schema, sets).unwrap(), config()).unwrap();
    engine.ingest(&rows(24, 0)).unwrap();
    engine
}

fn windowed_engine() -> DarEngine {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(3), Metric::Euclidean);
    let spec = WindowSpec { batches: 1, slots: 2 };
    let mut ring = DarEngine::with_window(partitioning, config(), Some(spec)).unwrap();
    for b in 0..3 {
        ring.ingest(&rows(8, b)).unwrap();
    }
    ring
}

/// SplitMix64: a seeded stream of 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every mutation of `valid`, labelled for failure messages.
fn mutations(valid: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut state = seed;
    let mut out = Vec::new();
    for width in [4usize, 8] {
        for pos in (0..valid.len().saturating_sub(width - 1)).step_by(width) {
            for value in [0u64, 1, u64::MAX, splitmix(&mut state)] {
                let mut bytes = valid.to_vec();
                bytes[pos..pos + width].copy_from_slice(&value.to_le_bytes()[..width]);
                out.push((format!("{width}-byte word {value:#x} at {pos}"), bytes));
            }
        }
    }
    for cut in 0..valid.len() {
        out.push((format!("truncated at {cut}"), valid[..cut].to_vec()));
    }
    out
}

/// Runs the three readers on `input`; each accepted value must survive
/// encode → decode → encode to the same bytes. Returns which readers
/// accepted it.
fn check(input: &[u8]) -> [bool; 3] {
    let pool = dar_par::ThreadPool::serial();
    let mut accepted = [false; 3];
    if let Ok(clusters) = decode_clusters(input, &pool) {
        accepted[0] = true;
        let once = encode_clusters(&clusters, &pool).unwrap();
        let again = decode_clusters(&once, &pool).expect("re-encoded clusters decode");
        assert_eq!(encode_clusters(&again, &pool).unwrap(), once, "clusters changed");
    }
    let encode = |s: &dar_engine::snapshot::Snapshot| {
        write_snapshot_bytes(s.epoch, s.tuples, &s.partitioning, &s.thresholds, &s.clusters, &pool)
            .unwrap()
    };
    if let Ok(snap) = parse_snapshot_bytes(input, &pool) {
        accepted[1] = true;
        let once = encode(&snap);
        let again = parse_snapshot_bytes(&once, &pool).expect("re-encoded snapshot parses");
        assert_eq!(encode(&again), once, "snapshot changed");
    }
    for windowed in [false, true] {
        if let Ok(mut backend) = DarEngine::restore(input, config(), windowed) {
            accepted[2] = true;
            let once = backend.snapshot().unwrap();
            let mut again =
                DarEngine::restore(&once, config(), windowed).expect("re-snapshot restores");
            assert_eq!(again.snapshot().unwrap(), once, "restored backend changed");
        }
    }
    accepted
}

#[test]
fn mutated_and_truncated_summaries_never_panic_and_accepted_ones_round_trip() {
    let mut engine = static_engine();
    let dars = engine.snapshot().unwrap();
    let dacf = encode_clusters(engine.clusters(), &dar_par::ThreadPool::serial()).unwrap();
    let ring = windowed_engine().snapshot().unwrap();
    assert!(dars.starts_with(b"DARS") && dacf.starts_with(b"DACF"));
    assert!(ring.starts_with(b"dar-stream v2 "));

    let mut failures = Vec::new();
    let mut accepted = [0usize; 3];
    for (name, valid, seed) in [("DACF", &dacf, 1u64), ("DARS", &dars, 2), ("ring", &ring, 3)] {
        check(valid);
        for (what, input) in mutations(valid, seed) {
            match catch_unwind(AssertUnwindSafe(|| check(&input))) {
                Ok(took) => {
                    for (count, took) in accepted.iter_mut().zip(took) {
                        *count += usize::from(took);
                    }
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    failures.push(format!("{name}, {what}: {msg}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{} inputs panicked:\n{}", failures.len(), failures.join("\n"));
    // Damaged moments and bounds still decode: each reader saw accepted
    // mutants, so the round-trip half of the property was exercised.
    assert!(accepted.iter().all(|&n| n > 0), "accepted mutants per reader: {accepted:?}");
}
