//! Decoder property for the WAL frame codec and the wire's base64, the
//! two decoders window replay and snapshot pulls read before anything
//! else: over valid tagged frames, untagged frames and `b64::encode`
//! text, overwrite every aligned 4- and 8-byte word with 0, 1, all-ones
//! and a seeded random value (base64 text also every character with a
//! few alphabet, padding and foreign characters), and truncate at every
//! byte. `decode_frame` and `b64::decode` must answer every input with
//! `Ok` or `Err`, never a panic, and whatever they accept must re-encode
//! to the very same bytes.

use dar_durable::{decode_frame, encode_batch, encode_tagged_batch};
use dar_serve::b64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a seeded stream of 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every word overwrite and truncation of `valid`.
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

/// Runs `check` on every input, collecting panics; returns how many inputs
/// were accepted.
fn run(name: &str, inputs: Vec<Vec<u8>>, check: impl Fn(&[u8]) -> bool) -> usize {
    let mut accepted = 0;
    let mut failures = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| check(input))) {
            Ok(took) => accepted += usize::from(took),
            Err(_) => failures.push(format!("{name} input {i}: {input:?}")),
        }
    }
    assert!(failures.is_empty(), "{} inputs panicked:\n{}", failures.len(), failures.join("\n"));
    accepted
}

fn frame_round_trips(input: &[u8]) -> bool {
    let Ok((tag, rows)) = decode_frame(input) else {
        return false;
    };
    let again = match tag {
        Some(seq) => encode_tagged_batch(seq, &rows),
        None => encode_batch(&rows),
    };
    assert_eq!(again, input, "an accepted frame re-encoded differently");
    true
}

fn b64_round_trips(input: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(input) else {
        return false;
    };
    let Ok(bytes) = b64::decode(text) else {
        return false;
    };
    assert_eq!(b64::encode(&bytes), text, "accepted base64 re-encoded differently");
    true
}

#[test]
fn mutated_frames_never_panic_and_accepted_ones_re_encode_byte_equal() {
    let rows = vec![vec![1.5, -0.0, 100.25], vec![], vec![f64::MIN_POSITIVE, 7.0]];
    let mut accepted = 0;
    for (seed, valid) in [
        (1u64, encode_batch(&rows)),
        (2, encode_batch(&[])),
        (3, encode_tagged_batch(7, &rows)),
        (4, encode_tagged_batch(u64::MAX, &[])),
    ] {
        assert!(frame_round_trips(&valid), "the valid frame itself");
        accepted += run("frame", mutations(&valid, seed), frame_round_trips);
    }
    // Overwritten values still decode: the round-trip half was exercised.
    assert!(accepted > 0, "no mutated frame was accepted");
}

#[test]
fn mutated_base64_never_panics_and_accepted_text_re_encodes_byte_equal() {
    let mut accepted = 0;
    for (seed, len) in [(1u64, 0usize), (2, 1), (3, 2), (4, 3), (5, 31)] {
        let plain: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(73).wrapping_add(5)).collect();
        let valid = b64::encode(&plain).into_bytes();
        assert!(b64_round_trips(&valid), "the valid text itself");
        let mut inputs = mutations(&valid, seed);
        for pos in 0..valid.len() {
            for c in [b'A', b'h', b'/', b'=', b'-', b' '] {
                let mut text = valid.clone();
                text[pos] = c;
                inputs.push(text);
            }
        }
        accepted += run("base64", inputs, b64_round_trips);
    }
    assert!(accepted > 0, "no mutated text was accepted");
}
