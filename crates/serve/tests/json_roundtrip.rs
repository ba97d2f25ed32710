//! Property: `encode` → `parse` round-trips arbitrary JSON values —
//! floats (including negative zero and sub-normal magnitudes), strings
//! full of escapes, empty arrays/objects, and arbitrarily nested trees —
//! and encoding is deterministic. The codec's fast paths (the integer
//! number writer and reader, run-copying strings, pre-encoded rule
//! fragments, shared parse keys) are each checked against the plain path
//! they shortcut.

use dar_serve::json::{self, parse, Json};
use mining::Dar;
use proptest::prelude::*;

/// Tricky strings the string-index token picks from: escapes, unicode,
/// controls, emptiness.
const STRINGS: &[&str] = &[
    "",
    "plain",
    "with \"quotes\"",
    "back\\slash",
    "new\nline and\ttab",
    "carriage\rreturn",
    "control \u{0001}\u{001f} chars",
    "form\u{000C}feed back\u{0008}space",
    "unicode ⇒ é ß 中",
    "astral 😀🦀",
    "slash / solidus",
    "null\u{0000}byte",
];

/// Interesting floats beyond the uniform range: exact integers, negative
/// zero, tiny and huge magnitudes, and the edges of the encoder's integer
/// path (the exact-integer limit 2^53 on both sides, values whose
/// `Display` carries trailing zeros).
const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    42.0,
    0.1,
    -2.5e-9,
    1.0e300,
    5e-324,
    f64::MIN,
    f64::MAX,
    f64::EPSILON,
    9_007_199_254_740_991.0,
    -9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
    9_007_199_254_740_993.0,
    1e15,
    -1e15,
    1e21,
    1e22,
];

/// One generated token: `(kind, uniform float, index)`.
type Token = (u8, f64, u32);

/// Deterministically builds a JSON tree from a token list: leaves from
/// the token kinds, containers by splitting the list. Empty token lists
/// become empty containers, exercising `[]` and `{}`.
fn tree(tokens: &[Token], depth: usize) -> Json {
    if depth > 6 || tokens.len() <= 1 {
        return match tokens.first() {
            None => Json::Arr(Vec::new()),
            Some(&(kind, x, index)) => match kind % 6 {
                0 => Json::Null,
                1 => Json::Bool(index % 2 == 0),
                2 => Json::Num(x),
                3 => Json::Num(FLOATS[index as usize % FLOATS.len()]),
                4 => Json::Str(STRINGS[index as usize % STRINGS.len()].to_string()),
                _ => Json::Obj(Vec::new()),
            },
        };
    }
    let (head, rest) = tokens.split_first().expect("len > 1");
    let mid = rest.len() / 2;
    let (left, right) = rest.split_at(mid);
    if head.0 % 2 == 0 {
        Json::Arr(vec![tree(left, depth + 1), tree(right, depth + 1)])
    } else {
        Json::Obj(vec![
            (STRINGS[head.2 as usize % STRINGS.len()].to_string().into(), tree(left, depth + 1)),
            (format!("k{}", head.2).into(), tree(right, depth + 1)),
        ])
    }
}

#[test]
fn encode_parse_round_trips_arbitrary_values() {
    proptest!(|(tokens in prop::collection::vec(
        (0u8..6, -1.0e12f64..1.0e12, 0u32..1024), 0..24))| {
        let original = tree(&tokens, 0);
        let encoded = original.encode();
        let reparsed = parse(&encoded).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} while parsing {encoded:?}"))
        })?;
        prop_assert_eq!(&reparsed, &original, "wire: {}", encoded);
        // Determinism: re-encoding the reparsed value is byte-identical.
        prop_assert_eq!(reparsed.encode(), encoded);
    });
}

#[test]
fn uniform_floats_survive_bit_exactly() {
    proptest!(|(x in -1.0e300f64..1.0e300)| {
        let encoded = Json::Num(x).encode();
        let reparsed = parse(&encoded).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} while parsing {encoded:?}"))
        })?;
        let y = reparsed.as_f64().expect("a number parses to a number");
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} → {}", x, encoded);
    });
}

/// What the encoder must print for a number: `Display`, or `null` for a
/// non-finite value.
fn expected_number(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_string()
    }
}

#[test]
fn number_encoder_matches_display() {
    for &n in FLOATS {
        assert_eq!(Json::Num(n).encode(), expected_number(n), "{n:e}");
    }
    proptest!(|(bits in 0u64..u64::MAX, int in -(1i64 << 54)..(1i64 << 54), x in -1.0e6f64..1.0e6)| {
        // Any bit pattern (every magnitude, subnormals, NaN, ±∞), an
        // integer straddling 2^53, and the same integer as a fraction.
        for n in [f64::from_bits(bits), int as f64, x, x.trunc(), int as f64 / 8.0] {
            prop_assert_eq!(Json::Num(n).encode(), expected_number(n), "{:e}", n);
        }
    });
}

#[test]
fn integer_parse_path_matches_str_parse() {
    proptest!(|(digits in prop::collection::vec(0u8..10, 1..21), negative in 0u8..2, zeros in 0usize..4)| {
        let body: String = digits.iter().map(|d| char::from(b'0' + d)).collect();
        // Leading zeros on both sides of the 15-digit cut-over: RFC 8259
        // forbids them, so they are refused at the digit after the zero.
        for text in [body.clone(), format!("{}{body}", "0".repeat(zeros))] {
            let text = if negative == 1 { format!("-{text}") } else { text };
            let unsigned = text.trim_start_matches('-');
            if unsigned.len() > 1 && unsigned.starts_with('0') {
                let err = parse(&text).expect_err(&text);
                prop_assert_eq!(err.message.as_str(), "leading zeros are not allowed");
                prop_assert_eq!(err.at, text.len() - unsigned.len() + 1, "{}", text);
                continue;
            }
            let parsed = parse(&text).map_err(|e| {
                proptest::TestCaseError::Fail(format!("{e} while parsing {text:?}"))
            })?;
            let want: f64 = text.parse().expect("a valid float literal");
            let got = parsed.as_f64().expect("a number parses to a number");
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", text);
        }
    });
}

/// String pieces: escape-free ASCII and non-ASCII runs, and every
/// character the encoder escapes (each control character has its own
/// form, named or `\u00XX`).
fn string_piece(index: u32) -> String {
    const RUNS: &[&str] = &["plain", "a b", "é", "ß中", "😀🦀", "/", "\u{7f}", "⇒x"];
    let controls = 0x20;
    match index as usize % (RUNS.len() + controls + 2) {
        i if i < RUNS.len() => RUNS[i].to_string(),
        i if i < RUNS.len() + controls => char::from((i - RUNS.len()) as u8).to_string(),
        i if i == RUNS.len() + controls => "\"".to_string(),
        _ => "\\".to_string(),
    }
}

/// The per-char string encoder the run-copying one replaced: the bytes
/// to keep.
fn reference_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The same string spelled with `\uXXXX` escapes only (surrogate pairs
/// above the BMP, `\/` for the solidus): wire text the encoder never
/// writes but the parser must accept.
fn unicode_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if c == '/' {
            out.push_str("\\/");
            continue;
        }
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

#[test]
fn strings_with_runs_and_escapes_round_trip() {
    proptest!(|(pieces in prop::collection::vec(0u32..1024, 0..40))| {
        let s: String = pieces.iter().map(|&i| string_piece(i)).collect();
        let encoded = Json::Str(s.clone()).encode();
        prop_assert_eq!(&encoded, &reference_string(&s));
        prop_assert_eq!(parse(&encoded).ok(), Some(Json::Str(s.clone())), "wire: {}", encoded);
        prop_assert_eq!(parse(&unicode_escaped(&s)).ok(), Some(Json::Str(s.clone())));
        // As an object key too: keys share the string codec.
        let keyed = Json::Obj(vec![(s.clone().into(), Json::Null)]);
        prop_assert_eq!(parse(&keyed.encode()).ok(), Some(keyed));
    });
}

#[test]
fn malformed_input_keeps_its_error_messages_and_offsets() {
    for (input, message, at) in [
        ("", "unexpected end of input", 0),
        ("{", "expected '\"'", 1),
        ("[1,]", "unexpected character", 3),
        ("{\"a\":}", "unexpected character", 5),
        ("tru", "expected \"true\"", 0),
        ("1.2.3", "trailing characters after JSON value", 3),
        ("\"a\" x", "trailing characters after JSON value", 4),
        ("{\"a\" 1}", "expected ':'", 5),
        ("[1 2]", "expected ',' or ']' in array", 3),
        ("01x", "leading zeros are not allowed", 1),
        ("-", "expected digits", 1),
        ("1.", "expected fraction digits", 2),
        ("1e", "expected exponent digits", 2),
        ("1e+", "expected exponent digits", 3),
        ("\"abc", "unterminated string", 4),
        ("\"\\x\"", "invalid escape", 2),
        ("\"\\u12\"", "expected 4 hex digits", 5),
        ("\"\\ud83d\"", "unpaired surrogate", 7),
        ("\"\\ud83dx\"", "unpaired surrogate", 7),
        ("\"\\ud83d\\u0041\"", "invalid low surrogate", 13),
        ("\"a\u{1}b\"", "unescaped control character in string", 2),
        ("[1,2", "expected ',' or ']' in array", 4),
        ("{\"a\":1,}", "expected '\"'", 7),
        ("nul", "expected \"null\"", 0),
        ("@", "unexpected character", 0),
        ("\"\\ud83d\\x\"", "unpaired surrogate", 8),
    ] {
        let err = parse(input).expect_err(input);
        assert_eq!((err.message.as_str(), err.at), (message, at), "{input:?}");
    }
}

/// A rule drawn from a token: short index lists, and a score from
/// `FLOATS` or the uniform draw.
fn token_rule(&(kind, x, index): &Token) -> (Dar, f64) {
    let indices =
        |n: u32| (0..n % 4).map(|k| (index as usize * 7 + k as usize * 13) % 400).collect();
    let rule = Dar {
        antecedent: indices(index + 1),
        consequent: indices(kind as u32),
        degree: x.abs() / 1.0e12,
        min_cluster_support: u64::from(index) * 1_000_003,
    };
    let value = if kind % 2 == 0 { x } else { FLOATS[index as usize % FLOATS.len()] };
    (rule, value)
}

/// The tree-per-rule encoding a pre-encoded rule stands for.
fn plain_rule(rule: &Dar, value: f64) -> Json {
    let indices = |v: &[usize]| Json::Arr(v.iter().map(|&i| Json::Num(i as f64)).collect());
    Json::obj(vec![
        ("antecedent", indices(&rule.antecedent)),
        ("consequent", indices(&rule.consequent)),
        ("degree", Json::Num(rule.degree)),
        ("min_support", Json::Num(rule.min_cluster_support as f64)),
        ("measure", Json::Num(value)),
    ])
}

#[test]
fn raw_fragments_encode_like_the_values_they_stand_for() {
    proptest!(|(tokens in prop::collection::vec(
        (0u8..6, -1.0e12f64..1.0e12, 0u32..1024), 0..24))| {
        let rules: Vec<(Dar, f64)> = tokens.iter().map(token_rule).collect();
        let plain = Json::Arr(rules.iter().map(|(r, v)| plain_rule(r, *v)).collect());
        let raw_each = Json::Arr(rules.iter().map(|(r, v)| json::rule(r, *v)).collect());
        let raw_all = json::rule_array(rules.iter().map(|(r, v)| (r, *v)));
        // Embedded at a random spot of a random tree, each spelling of
        // the rules encodes to the same bytes.
        let host = |rules: Json| Json::Obj(vec![
            ("before".to_string().into(), tree(&tokens, 3)),
            ("rules".to_string().into(), rules),
            ("after".to_string().into(), tree(&tokens[tokens.len() / 2..], 3)),
        ]);
        let want = host(plain.clone()).encode();
        prop_assert_eq!(host(raw_each).encode(), want.clone());
        prop_assert_eq!(host(raw_all).encode(), want.clone());
        // A fragment parses back to the plain values.
        prop_assert_eq!(parse(&want).ok(), Some(host(plain)));
    });
}

/// Every object key of a tree, depth first, in document order.
fn keys(value: &Json, out: &mut Vec<json::Key>) {
    match value {
        Json::Arr(items) => items.iter().for_each(|item| keys(item, out)),
        Json::Obj(pairs) => {
            for (key, item) in pairs {
                out.push(key.clone());
                keys(item, out);
            }
        }
        _ => {}
    }
}

/// Whether two keys share one allocation.
fn shared(a: &json::Key, b: &json::Key) -> bool {
    a.as_str().as_ptr() == b.as_str().as_ptr()
}

#[test]
fn repeated_keys_share_one_allocation_up_to_the_bound() {
    let text = r#"[{"a":1,"bb":2},{"a":3,"bb":4},{"bb":5,"a":6}]"#;
    let doc = parse(text).unwrap();
    let mut found = Vec::new();
    keys(&doc, &mut found);
    assert_eq!(
        found.iter().map(|k| k.as_str()).collect::<Vec<_>>(),
        ["a", "bb", "a", "bb", "bb", "a"]
    );
    assert!(shared(&found[0], &found[2]) && shared(&found[0], &found[5]));
    assert!(shared(&found[1], &found[3]) && shared(&found[1], &found[4]));
    assert_eq!(doc.encode(), text);
    // Two parses of one text share nothing, yet compare equal: keys
    // compare by content.
    let again = parse(text).unwrap();
    let mut other = Vec::new();
    keys(&again, &mut other);
    assert!(!shared(&found[0], &other[0]));
    assert_eq!(again, doc);
}

#[test]
fn documents_with_more_keys_than_the_memo_holds_still_parse() {
    let distinct = json::MAX_SHARED_KEYS + 10;
    // Every key twice: the first pass fills the memo past its bound, the
    // second looks each one up again.
    let pairs: Vec<String> =
        (0..2 * distinct).map(|i| format!("\"key{}\":{i}", i % distinct)).collect();
    let text = format!("{{{}}}", pairs.join(","));
    let doc = parse(&text).unwrap();
    assert_eq!(doc.encode(), text);
    for k in 0..distinct {
        // Duplicate keys: `get` returns the first.
        assert_eq!(doc.get(&format!("key{k}")).and_then(Json::as_u64), Some(k as u64), "key{k}");
    }
    let mut found = Vec::new();
    keys(&doc, &mut found);
    assert!(shared(&found[0], &found[distinct]), "a key inside the bound is shared");
    assert_eq!(found[distinct - 1], found[2 * distinct - 1], "a key past it still compares equal");
    assert_eq!(parse(&text).unwrap(), doc);
}

#[test]
fn escaped_keys_equal_their_plain_spelling() {
    let escaped = parse(r#"{"a\u0062":1}"#).unwrap();
    assert_eq!(escaped.get("ab").and_then(Json::as_u64), Some(1));
    assert_eq!(escaped, parse(r#"{"ab":1}"#).unwrap());
    assert_eq!(escaped.encode(), r#"{"ab":1}"#);
    // Plain then escaped, escaped then plain: `get` finds the first.
    let both = parse(r#"{"ab":1,"a\u0062":2,"x\u0022y":3,"x\"y":4}"#).unwrap();
    assert_eq!(both.get("ab").and_then(Json::as_u64), Some(1));
    assert_eq!(both.get("x\"y").and_then(Json::as_u64), Some(3));
    let flipped = parse(r#"{"a\u0062":2,"ab":1}"#).unwrap();
    assert_eq!(flipped.get("ab").and_then(Json::as_u64), Some(2));
    assert_eq!(flipped.encode(), r#"{"ab":2,"ab":1}"#);
}

/// A key drawn from a pool larger than the parser's memo, escaped now
/// and then, so documents mix shared, unshared and escaped keys.
fn pool_key(index: u32) -> String {
    let pool = json::MAX_SHARED_KEYS as u32 * 2;
    match index % 7 {
        0 => format!("esc\"{}", index % pool),
        _ => format!("k{}", index % pool),
    }
}

#[test]
fn documents_with_shared_keys_re_encode_byte_for_byte() {
    proptest!(|(entries in prop::collection::vec((0u32..1024, 0u8..6, -1.0e6f64..1.0e6), 0..300))| {
        // Rows of small objects, as in a full answer, with keys repeated
        // across rows and sometimes within one.
        let rows: Vec<Json> = entries
            .chunks(5)
            .map(|row| {
                Json::Obj(row.iter().map(|&(k, kind, x)| {
                    let value = match kind % 3 {
                        0 => Json::Num(x),
                        1 => Json::Arr(vec![Json::Num(x.trunc()), Json::Null]),
                        _ => Json::Obj(vec![(pool_key(k / 3).into(), Json::Bool(kind > 3))]),
                    };
                    (pool_key(k).into(), value)
                }).collect())
            })
            .collect();
        let original = Json::Obj(vec![("rows".into(), Json::Arr(rows))]);
        let text = original.encode();
        let parsed = parse(&text).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} while parsing {text:?}"))
        })?;
        prop_assert_eq!(parsed.encode(), text.clone());
        prop_assert_eq!(&parsed, &original);
        prop_assert_eq!(parse(&text).ok(), Some(parsed));
    });
}
