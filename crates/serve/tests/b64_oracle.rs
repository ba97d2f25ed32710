//! The table-driven base64 codec against a literal oracle: the
//! per-character `match` codec it replaced, copied here verbatim. Over
//! seeded random byte strings, random texts and mutated and truncated
//! encodings, `b64::decode` must accept exactly what the oracle accepts
//! and return the same bytes, and `b64::encode` must write the oracle's
//! text byte for byte.

use dar_serve::b64;

mod oracle {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

    pub fn encode(bytes: &[u8]) -> String {
        let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
        for chunk in bytes.chunks(3) {
            let b0 = chunk[0] as u32;
            let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
            let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
            let word = (b0 << 16) | (b1 << 8) | b2;
            out.push(ALPHABET[(word >> 18) as usize & 63] as char);
            out.push(ALPHABET[(word >> 12) as usize & 63] as char);
            out.push(if chunk.len() > 1 {
                ALPHABET[(word >> 6) as usize & 63] as char
            } else {
                '='
            });
            out.push(if chunk.len() > 2 { ALPHABET[word as usize & 63] as char } else { '=' });
        }
        out
    }

    fn sextet(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a') as u32 + 26),
            b'0'..=b'9' => Some((c - b'0') as u32 + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }

    pub fn decode(text: &str) -> Result<Vec<u8>, String> {
        let bytes = text.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(format!("base64 length {} is not a multiple of 4", bytes.len()));
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let last = (i + 1) * 4 == bytes.len();
            let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
            if pad > 2 || (pad > 0 && !last) {
                return Err("misplaced base64 padding".into());
            }
            let mut word = 0u32;
            for &c in &chunk[..4 - pad] {
                word = (word << 6)
                    | sextet(c).ok_or_else(|| format!("invalid base64 byte {:?}", c as char))?;
            }
            word <<= 6 * pad as u32;
            if word & ((1 << (8 * pad)) - 1) != 0 {
                return Err("non-zero base64 padding bits".into());
            }
            out.push((word >> 16) as u8);
            if pad < 2 {
                out.push((word >> 8) as u8);
            }
            if pad < 1 {
                out.push(word as u8);
            }
        }
        Ok(out)
    }
}

/// SplitMix64: a seeded stream of 64-bit values.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_bytes(state: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix(state) as u8).collect()
}

/// The two decoders agree on `text`; returns whether it was accepted.
fn agree(text: &str) -> bool {
    let (got, want) = (b64::decode(text), oracle::decode(text));
    assert_eq!(got.is_ok(), want.is_ok(), "{text:?}: table {got:?}, oracle {want:?}");
    if let (Ok(got), Ok(want)) = (&got, &want) {
        assert_eq!(got, want, "{text:?} decoded differently");
    }
    got.is_ok()
}

#[test]
fn encodings_are_byte_equal_over_random_bytes() {
    let mut state = 11;
    for len in (0..200).chain([1000, 4095, 4096, 4097]) {
        let bytes = random_bytes(&mut state, len);
        let text = b64::encode(&bytes);
        assert_eq!(text, oracle::encode(&bytes), "len {len}");
        assert!(agree(&text), "len {len}: a valid encoding was refused");
    }
}

#[test]
fn decoders_agree_on_random_texts() {
    // Texts drawn mostly from the alphabet, with padding and foreign
    // bytes mixed in at every rate, at every length residue.
    let mut state = 12;
    let pool: Vec<u8> =
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/===- \n\0".to_vec();
    let mut accepted = 0;
    for case in 0..20_000 {
        let len = (splitmix(&mut state) % 24) as usize;
        let foreign_every = 1 + case % 40;
        let text: String = (0..len)
            .map(|i| {
                let r = splitmix(&mut state) as usize;
                if i % foreign_every == foreign_every - 1 {
                    pool[r % pool.len()] as char
                } else {
                    pool[r % 64] as char
                }
            })
            .collect();
        accepted += usize::from(agree(&text));
    }
    assert!(accepted > 1000, "only {accepted} random texts were valid");
}

#[test]
fn decoders_agree_on_random_byte_strings() {
    let mut state = 13;
    for _ in 0..20_000 {
        let len = (splitmix(&mut state) % 16) as usize;
        let bytes = random_bytes(&mut state, len);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            agree(text);
        }
        let latin: String = bytes.iter().map(|&b| b as char).collect();
        agree(&latin);
    }
}

#[test]
fn decoders_agree_on_mutated_and_truncated_encodings() {
    let mut state = 14;
    let substitutes = [b'A', b'Q', b'g', b'w', b'/', b'+', b'=', b'-', b' ', b'\0'];
    let mut accepted = 0;
    for len in [0usize, 1, 2, 3, 4, 5, 6, 31, 64] {
        let plain = random_bytes(&mut state, len);
        let valid = b64::encode(&plain).into_bytes();
        let mut inputs: Vec<Vec<u8>> = (0..=valid.len()).map(|cut| valid[..cut].to_vec()).collect();
        for pos in 0..valid.len() {
            for c in substitutes {
                let mut text = valid.clone();
                text[pos] = c;
                inputs.push(text);
            }
            let mut doubled = valid.clone();
            doubled.insert(pos, valid[pos]);
            inputs.push(doubled);
            let mut dropped = valid.clone();
            dropped.remove(pos);
            inputs.push(dropped);
        }
        for input in inputs {
            if let Ok(text) = String::from_utf8(input) {
                accepted += usize::from(agree(&text));
            }
        }
    }
    assert!(accepted > 100, "only {accepted} mutated texts were valid");
}
