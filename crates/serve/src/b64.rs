//! Standard base64 (RFC 4648, with padding) for carrying binary bodies —
//! ingest batches, snapshots, cluster summaries — inside the JSON wire
//! protocol, whose strings must be UTF-8. Hand-rolled because the build
//! environment is std-only; table-driven because an ingest frame is a
//! third of a megabyte of text, decoded on every ack.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// [`DECODE`]'s entry for a byte outside the alphabet. Every sextet is
/// below 64, so one `& INVALID_BIT` test over four ORed entries finds any
/// foreign byte in a quad.
const INVALID: u8 = 0xFF;
const INVALID_BIT: u8 = 0x80;

/// Each byte's sextet, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes `bytes` as padded standard base64.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len().div_ceil(3) * 4];
    let sextet = |word: u32, shift: u32| ALPHABET[(word >> shift) as usize & 63];
    let triples = bytes.chunks_exact(3);
    let tail = triples.remainder();
    let (body_out, last_out) = out.split_at_mut(bytes.len() / 3 * 4);
    for (t, dst) in triples.zip(body_out.chunks_exact_mut(4)) {
        let word = (t[0] as u32) << 16 | (t[1] as u32) << 8 | t[2] as u32;
        dst.copy_from_slice(&[
            sextet(word, 18),
            sextet(word, 12),
            sextet(word, 6),
            sextet(word, 0),
        ]);
    }
    match *tail {
        [a] => {
            let word = (a as u32) << 16;
            last_out.copy_from_slice(&[sextet(word, 18), sextet(word, 12), b'=', b'=']);
        }
        [a, b] => {
            let word = (a as u32) << 16 | (b as u32) << 8;
            last_out.copy_from_slice(&[sextet(word, 18), sextet(word, 12), sextet(word, 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
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
    let Some(last_at) = bytes.len().checked_sub(4) else {
        return Ok(Vec::new());
    };
    let (body, last) = bytes.split_at(last_at);
    let pad = last.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err("misplaced base64 padding".into());
    }
    let mut out = vec![0u8; body.len() / 4 * 3 + 3 - pad];
    let (body_out, last_out) = out.split_at_mut(body.len() / 4 * 3);
    for (quad, dst) in body.chunks_exact(4).zip(body_out.chunks_exact_mut(3)) {
        let s = [
            DECODE[quad[0] as usize],
            DECODE[quad[1] as usize],
            DECODE[quad[2] as usize],
            DECODE[quad[3] as usize],
        ];
        if (s[0] | s[1] | s[2] | s[3]) & INVALID_BIT != 0 {
            return Err(body_quad_error(quad));
        }
        let word = (s[0] as u32) << 18 | (s[1] as u32) << 12 | (s[2] as u32) << 6 | s[3] as u32;
        dst.copy_from_slice(&word.to_be_bytes()[1..]);
    }
    // The last quad, unrolled by its padding: `pad` trailing `=` stand for
    // `pad` missing bytes, and the bits of the last sextet that fall into
    // them must be zero.
    let sextet = |c: u8| match DECODE[c as usize] {
        INVALID => Err(invalid_byte(c)),
        s => Ok(s as u32),
    };
    let (a, b) = (sextet(last[0])?, sextet(last[1])?);
    let word = match pad {
        0 => a << 18 | b << 12 | sextet(last[2])? << 6 | sextet(last[3])?,
        1 => a << 18 | b << 12 | sextet(last[2])? << 6,
        _ => a << 18 | b << 12,
    };
    if word & ((1 << (8 * pad)) - 1) != 0 {
        return Err("non-zero base64 padding bits".into());
    }
    last_out.copy_from_slice(&word.to_be_bytes()[1..4 - pad]);
    Ok(out)
}

/// Why a quad before the last one was refused: padding (which only the
/// last quad may carry), else its first foreign byte.
fn body_quad_error(quad: &[u8]) -> String {
    if quad.ends_with(b"=") {
        return "misplaced base64 padding".into();
    }
    let c = quad.iter().copied().find(|&c| DECODE[c as usize] == INVALID).unwrap_or(b'=');
    invalid_byte(c)
}

fn invalid_byte(c: u8) -> String {
    format!("invalid base64 byte {:?}", c as char)
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
