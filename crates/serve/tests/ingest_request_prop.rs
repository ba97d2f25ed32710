//! Decoder property for binary ingest requests: `ingest` and
//! `shard_ingest` lines carrying `rows_b64`. Mutate and truncate them the
//! way `frame_decoder_prop.rs` does — the batch body under the base64,
//! the base64 text inside the line, and the JSON line itself (also
//! every byte replaced by a few alphabet, digit and JSON characters) —
//! and `Request::from_json` must answer every input with `Ok` or `Err`,
//! never a panic, and every request it accepts must re-encode to the
//! value it was read from, `rows_b64` text byte-equal.
//! Plus the field's refusals, and a round trip over arbitrary `f64` bit
//! patterns, ragged rows and empty batches.

use dar_durable::{encode_batch, encode_tagged_batch};
use dar_serve::{b64, json, Json, Request};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a seeded stream of 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every aligned 4- and 8-byte word overwrite and every truncation of
/// `valid`.
fn mutations(valid: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut out = Vec::new();
    for width in [4usize, 8] {
        for pos in (0..valid.len().saturating_sub(width - 1)).step_by(width) {
            for value in [0u64, 1, u64::MAX, splitmix(&mut state)] {
                let mut bytes = valid.to_vec();
                bytes[pos..pos + width].copy_from_slice(&value.to_le_bytes()[..width]);
                out.push(bytes);
            }
        }
    }
    out.extend((0..valid.len()).map(|cut| valid[..cut].to_vec()));
    out
}

/// An ingest line (`seq: None`) or a shard_ingest line around `text`, in
/// the encoder's own key order.
fn line(seq: Option<u64>, text: &str) -> String {
    let mut pairs = vec![];
    match seq {
        None => pairs.push(("verb", Json::Str("ingest".into()))),
        Some(seq) => {
            pairs.push(("verb", Json::Str("shard_ingest".into())));
            pairs.push(("seq", Json::Num(seq as f64)));
        }
    }
    pairs.push(("rows_b64", Json::Str(text.into())));
    Json::obj(pairs).encode()
}

/// Decodes `input` as a request line; an accepted request must re-encode
/// to the value it was read from, its `rows_b64` text byte for byte (the
/// line itself may differ in JSON whitespace). Returns whether it was
/// accepted.
fn round_trips(input: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(input) else {
        return false;
    };
    let Ok(value) = json::parse(text) else {
        return false;
    };
    let Ok(request) = Request::from_json(&value) else {
        return false;
    };
    let again = json::parse(&request.to_json().encode()).unwrap();
    assert_eq!(again, value, "an accepted request re-encoded differently");
    true
}

/// Runs `round_trips` on every input, collecting panics; returns how many
/// inputs were accepted.
fn run(name: &str, inputs: Vec<Vec<u8>>) -> usize {
    let mut accepted = 0;
    let mut failures = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| round_trips(input))) {
            Ok(took) => accepted += usize::from(took),
            Err(_) => {
                failures.push(format!("{name} input {i}: {:?}", String::from_utf8_lossy(input)))
            }
        }
    }
    assert!(failures.is_empty(), "{} inputs panicked:\n{}", failures.len(), failures.join("\n"));
    accepted
}

fn batches() -> Vec<Vec<Vec<f64>>> {
    vec![
        vec![vec![1.5, -0.0, 100.25], vec![], vec![f64::MIN_POSITIVE, 7.0]],
        vec![],
        vec![vec![0.1 + 0.2; 5]; 4],
    ]
}

#[test]
fn mutated_batch_bodies_never_panic_and_accepted_lines_re_encode() {
    let mut accepted = 0;
    for (seed, rows) in (1u64..).zip(batches()) {
        for seq in [None, Some(seed)] {
            let inputs = mutations(&encode_batch(&rows), seed)
                .iter()
                .map(|body| line(seq, &b64::encode(body)).into_bytes())
                .collect();
            accepted += run("body", inputs);
        }
    }
    // Overwritten values still decode: the round-trip half was exercised.
    assert!(accepted > 0, "no mutated body was accepted");
}

#[test]
fn mutated_base64_texts_never_panic_and_accepted_lines_re_encode() {
    let mut accepted = 0;
    for (seed, rows) in (10u64..).zip(batches()) {
        let valid = b64::encode(&encode_batch(&rows)).into_bytes();
        let mut texts = mutations(&valid, seed);
        for pos in 0..valid.len() {
            for c in [b'A', b'h', b'/', b'=', b'-', b' ', b'"', b'\\'] {
                let mut text = valid.clone();
                text[pos] = c;
                texts.push(text);
            }
        }
        for seq in [None, Some(seed)] {
            let inputs = texts
                .iter()
                .filter_map(|text| std::str::from_utf8(text).ok())
                .map(|text| line(seq, text).into_bytes())
                .collect();
            accepted += run("base64", inputs);
        }
    }
    assert!(accepted > 0, "no mutated text was accepted");
}

#[test]
fn mutated_lines_never_panic_and_accepted_ones_re_encode() {
    let mut accepted = 0;
    for (seed, rows) in (20u64..).zip(batches()) {
        for request in [
            Request::Ingest { rows: rows.clone() },
            Request::ShardIngest { seq: seed, rows: rows.clone() },
        ] {
            let valid = request.to_json().encode().into_bytes();
            assert!(round_trips(&valid), "the valid line itself");
            let mut inputs = mutations(&valid, seed);
            for pos in 0..valid.len() {
                for c in [b'A', b'h', b'/', b'=', b'0', b' ', b'"', b'}'] {
                    let mut text = valid.clone();
                    text[pos] = c;
                    inputs.push(text);
                }
            }
            accepted += run("line", inputs);
        }
    }
    assert!(accepted > 0, "no mutated line was accepted");
}

fn refusal(line: &str) -> String {
    Request::from_json(&json::parse(line).unwrap()).unwrap_err()
}

#[test]
fn tagged_frames_both_fields_and_neither_are_refused() {
    let rows = vec![vec![1.0, 2.0]];
    // Only the server picks a window tag: a tagged WAL frame is not a
    // batch body.
    for tagged in [encode_tagged_batch(3, &rows), encode_tagged_batch(0, &[])] {
        for seq in [None, Some(1)] {
            refusal(&line(seq, &b64::encode(&tagged)));
        }
    }
    let both = format!(
        r#"{{"verb":"ingest","rows":[[1,2]],"rows_b64":"{}"}}"#,
        b64::encode(&encode_batch(&rows))
    );
    let err = refusal(&both);
    assert!(err.contains("rows") && err.contains("rows_b64"), "{err}");
    for neither in [r#"{"verb":"ingest"}"#, r#"{"verb":"shard_ingest","seq":1}"#] {
        assert!(refusal(neither).contains("rows"), "{neither}");
    }
    // A leading zero is not JSON: `"seq":00` must not parse as seq 0.
    let err = json::parse(r#"{"verb":"shard_ingest","seq":00,"rows":[[1,2]]}"#).unwrap_err();
    assert_eq!((err.message.as_str(), err.at), ("leading zeros are not allowed", 30));
    for (bad, needle) in [
        (r#"{"verb":"ingest","rows_b64":7}"#, "rows_b64"),
        (r#"{"verb":"ingest","rows_b64":"AAA"}"#, "base64"),
        (r#"{"verb":"ingest","rows_b64":"AAAA"}"#, "rows_b64"),
        (r#"{"verb":"ingest","rows_b64":"AQAAAA=="}"#, "rows_b64"),
    ] {
        let err = refusal(bad);
        assert!(err.contains(needle), "{bad} → {err}");
    }
}

/// Compares batches by bit pattern, so NaN payloads count too.
fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn arbitrary_bit_patterns_and_ragged_batches_round_trip() {
    proptest!(|(patterns in prop::collection::vec(prop::collection::vec(0u64..u64::MAX, 0..7), 0..9),
                seq in 0u64..u64::MAX)| {
        let rows: Vec<Vec<f64>> =
            patterns.iter().map(|r| r.iter().map(|&b| f64::from_bits(b)).collect()).collect();
        for request in [
            Request::Ingest { rows: rows.clone() },
            Request::ShardIngest { seq, rows: rows.clone() },
        ] {
            let line = request.to_json().encode();
            let back = Request::from_json(&json::parse(&line).unwrap()).unwrap();
            let (Request::Ingest { rows: back } | Request::ShardIngest { rows: back, .. }) = &back
            else {
                panic!("{line} decoded to {back:?}");
            };
            prop_assert_eq!(bits(back), bits(&rows));
            prop_assert_eq!(back.len(), rows.len());
        }
    });
    // The edges the strategy never draws.
    let edges = vec![
        vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
        vec![-0.0, f64::from_bits(u64::MAX), f64::from_bits(1), f64::MAX],
        vec![],
    ];
    for rows in [edges, vec![], vec![vec![]]] {
        let line = Request::Ingest { rows: rows.clone() }.to_json().encode();
        let Request::Ingest { rows: back } =
            Request::from_json(&json::parse(&line).unwrap()).unwrap()
        else {
            panic!("{line} is not an ingest");
        };
        assert_eq!(bits(&back), bits(&rows), "{line}");
    }
}
