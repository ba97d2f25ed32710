//! Standard base64 (RFC 4648, with padding) for carrying binary snapshot
//! bodies inside the JSON wire protocol, whose strings must be UTF-8.
//! Hand-rolled because the build environment is std-only.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `bytes` as padded standard base64.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let word = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(word >> 18) as usize & 63] as char);
        out.push(ALPHABET[(word >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { ALPHABET[(word >> 6) as usize & 63] as char } else { '=' });
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

/// Decodes padded standard base64. Rejects non-alphabet bytes, lengths
/// that are not a multiple of four, misplaced padding, and non-zero
/// padding bits (`"Zh=="`), which [`encode`] never writes: every text it
/// accepts is the one encoding of its bytes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_round_trip() {
        // RFC 4648 test vectors.
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), encoded);
            assert_eq!(decode(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn arbitrary_bytes_round_trip() {
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&all)).unwrap(), all);
        for len in 0..32 {
            let v: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37).wrapping_add(11)).collect();
            assert_eq!(decode(&encode(&v)).unwrap(), v, "len {len}");
        }
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(decode("Zg=").is_err(), "length not a multiple of 4");
        assert!(decode("Z===").is_err(), "too much padding");
        assert!(decode("Zg==AAAA").is_err(), "padding mid-stream");
        assert!(decode("Zg==Zg==").is_err(), "padding mid-stream");
        assert!(decode("Zm 9").is_err(), "whitespace is not alphabet");
        assert!(decode("Zm\u{e9}A").is_err(), "non-ascii rejected");
        assert!(decode("Zh==").is_err(), "non-zero padding bits after one byte");
        assert!(decode("Zm9=").is_err(), "non-zero padding bits after two bytes");
    }
}
