//! A small hand-rolled JSON codec — the wire format of the `dar-serve`
//! newline-delimited protocol, shared by the server, the CLI `serve`
//! command, and the bench load generator.
//!
//! The build environment is offline (no serde), so this module implements
//! exactly the subset the protocol needs: a [`Json`] value tree, an
//! encoder with deterministic output (object keys keep insertion order,
//! floats use Rust's shortest-roundtrip `Display`), and a recursive-descent
//! parser with position-carrying errors and a depth limit. `encode` →
//! [`parse`] round-trips every finite value bit-exactly (there is a
//! proptest property for this in `tests/json_roundtrip.rs`).
//!
//! Both directions avoid per-value allocation: the encoder writes numbers
//! and escape-free string runs straight into one output buffer; the
//! parser copies escape-free string runs in one slice, builds short plain
//! integers without `str::parse`, and gives each container one
//! exactly-sized allocation. The bytes are unchanged from the
//! `format!`-per-number, push-per-char codec this replaced; the golden
//! fixtures under `tests/fixtures/` pin them.
//!
//! **Shared keys.** Object keys are [`Key`]s: shared, immutable text. The
//! parser keeps a per-document memo of the escape-free keys it has seen
//! (up to [`MAX_SHARED_KEYS`] distinct ones), so a full answer's 75K rule
//! objects share five key allocations instead of making 374K, and
//! dropping the tree releases reference counts instead of strings. Keys
//! compare by content, so two parses of one text are equal.
//!
//! **Pre-encoded fragments.** A full query answer carries tens of
//! thousands of rules; building a [`Json`] object per rule only to
//! flatten it again dominated the encode. [`write_rule`] streams a rule's
//! wire object straight into a buffer, and [`Json::Raw`] carries such a
//! fragment through the tree, copied verbatim by `encode`. A fragment
//! shares its bytes, so cloning one (say, out of a memo) copies nothing;
//! `encode` copies it once, into the output line. The invariant:
//! a [`RawJson`] holds exactly the bytes `encode` would produce for the
//! value it stands for. Only this module's writers construct one (its
//! field is private), and [`parse`] never produces one, so a parsed tree
//! is always plain values.

use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): the
/// protocol's responses are compared byte-for-byte in tests, so encoding
/// must be deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. JSON has no NaN/∞; encoding a non-finite value yields
    /// `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(Key, Json)>),
    /// A fragment pre-encoded by one of this module's writers ([`rule`],
    /// [`rule_array`]), copied verbatim by `encode`. Accessors see it as
    /// opaque (`get`, `as_array` return `None`), and it compares equal
    /// only to the same fragment, never to the tree it encodes.
    Raw(RawJson),
}

/// The payload of [`Json::Raw`]: bytes that are already valid JSON, in
/// exactly the encoder's output form. The field is private so nothing
/// outside this module can smuggle unchecked text onto the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RawJson(Arc<str>);

/// An object key: shared, immutable text that compares by content.
/// Cloning one is a reference-count bump, which is what lets the parser
/// hand every repeat of a key the same allocation.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(Arc<str>);

impl Key {
    /// The key's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Key {
    fn from(text: &str) -> Key {
        Key(Arc::from(text))
    }
}

impl From<String> for Key {
    fn from(text: String) -> Key {
        Key(Arc::from(text))
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

impl Json {
    /// Builds an object from key/value pairs (a readability helper).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (Key::from(k), v)).collect())
    }

    /// Looks up a key in an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, itself out of range.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(raw) => {
                // Room for the fragment and a short tail (closing
                // brackets, a frame's newline) in one growth, so a large
                // fragment is copied once, not again by a later doubling.
                out.reserve(raw.0.len() + RAW_TAIL_SLACK);
                out.push_str(&raw.0);
            }
        }
    }
}

/// The spare capacity `encode` leaves after a [`Json::Raw`] fragment.
const RAW_TAIL_SLACK: usize = 64;

/// Integers below this magnitude are exact in an `f64`, so their
/// shortest round-trip `Display` is just their decimal digits.
const EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Writes a number exactly as `format!("{n}")` would (Rust's
/// shortest-roundtrip `Display`, never exponent notation, so valid JSON
/// and bit-exact under round-trip); non-finite values become `null`.
/// Exact integers, the bulk of the wire's numbers, skip the formatter.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT {
        if n.is_sign_negative() {
            out.push('-'); // includes -0.0, which `Display` prints as "-0"
        }
        let mut v = n.abs() as u64;
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes one rule's wire object — the unit `query` responses and
/// rule-churn `event` frames share — into `out`. This is the only place
/// a rule's bytes are produced. `value` is the rule's score under the
/// ranking measure in force.
pub fn write_rule(out: &mut String, rule: &mining::Dar, value: f64) {
    out.push_str("{\"antecedent\":");
    write_indices(&rule.antecedent, out);
    out.push_str(",\"consequent\":");
    write_indices(&rule.consequent, out);
    out.push_str(",\"degree\":");
    write_num(rule.degree, out);
    out.push_str(",\"min_support\":");
    write_num(rule.min_cluster_support as f64, out);
    out.push_str(",\"measure\":");
    write_num(value, out);
    out.push('}');
}

fn write_indices(indices: &[usize], out: &mut String) {
    out.push('[');
    for (i, &index) in indices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_num(index as f64, out);
    }
    out.push(']');
}

/// One rule as a pre-encoded [`Json::Raw`] object ([`write_rule`]).
pub fn rule(rule: &mining::Dar, value: f64) -> Json {
    let mut out = String::with_capacity(RULE_BYTES_HINT);
    write_rule(&mut out, rule, value);
    Json::Raw(RawJson(out.into()))
}

/// A rule array as one pre-encoded [`Json::Raw`] fragment, built in a
/// single buffer: the same bytes as a [`Json::Arr`] of [`rule`]s.
pub fn rule_array<'a>(rules: impl ExactSizeIterator<Item = (&'a mining::Dar, f64)>) -> Json {
    let mut out = String::with_capacity(2 + rules.len() * RULE_BYTES_HINT);
    out.push('[');
    for (i, (r, value)) in rules.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_rule(&mut out, r, value);
    }
    out.push(']');
    Json::Raw(RawJson(out.into()))
}

/// A typical encoded rule's length (two short index lists, three
/// numbers): the buffer presize, not a limit.
const RULE_BYTES_HINT: usize = 128;

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, and UTF-8 never uses an
    // ASCII byte inside a multi-byte scalar, so `run` always starts and
    // ends on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: protects the recursive-descent parser from
/// stack-overflowing on adversarial input (this codec fronts a network
/// socket).
const MAX_DEPTH: usize = 128;

/// The longest digit string the parser's integer path takes: every
/// 15-digit integer is below 2^53 and so exact in an `f64`.
const EXACT_DIGITS: usize = 15;

/// Parses a complete JSON document; trailing whitespace is allowed,
/// trailing garbage is an error.
///
/// # Errors
/// Returns a [`JsonError`] naming the offending byte offset.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        items: Vec::new(),
        pairs: Vec::new(),
        keys: Vec::new(),
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Scratch stacks for the elements of the arrays and objects being
    /// parsed (inner containers finish first, so they nest as stacks).
    /// A finished container moves its elements out in one allocation of
    /// exactly their number, instead of growing its own `Vec` by
    /// reallocation — a full answer has tens of thousands of small
    /// objects, and the regrowth dominated its parse.
    items: Vec<Json>,
    pairs: Vec<(Key, Json)>,
    /// The distinct escape-free keys seen so far, at most
    /// [`MAX_SHARED_KEYS`]: every repeat of one shares its allocation.
    keys: Vec<Key>,
}

/// How many distinct keys one parse shares. A protocol document has a
/// few dozen at most (a full answer has 13); keys past the bound still
/// parse, each into its own allocation.
pub const MAX_SHARED_KEYS: usize = 64;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let base = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.split_off(base)));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let base = self.pairs.len();
        loop {
            self.skip_ws();
            let key = self.key()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            self.pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.pairs.split_off(base)));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// An object key: an escape-free one comes from (or enters) the
    /// document's shared-key memo; an escaped one is decoded by
    /// [`Parser::string`] into its own allocation.
    fn key(&mut self) -> Result<Key, JsonError> {
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let mut end = start;
            while matches!(self.bytes.get(end), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
                end += 1;
            }
            if self.bytes.get(end) == Some(&b'"') {
                self.pos = end + 1;
                let text = &self.input[start..end];
                if let Some(key) = self.keys.iter().find(|k| k.as_str() == text) {
                    return Ok(key.clone());
                }
                let key = Key::from(text);
                if self.keys.len() < MAX_SHARED_KEYS {
                    self.keys.push(key.clone());
                }
                return Ok(key);
            }
        }
        self.string().map(Key::from)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the escape-free run up to the next quote, backslash or
            // control byte in one slice: those bytes are ASCII, so the run
            // ends on a char boundary of the (valid UTF-8) input.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.input[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            value = value * 16 + d;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.bytes[digits_start] == b'0' && self.pos - digits_start > 1 {
            // RFC 8259: an integer part is `0` or starts with 1-9.
            self.pos = digits_start + 1;
            return Err(self.err("leading zeros are not allowed"));
        }
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        if plain && self.pos - digits_start <= EXACT_DIGITS {
            // Exact, so the same value `str::parse` rounds to.
            let digits = &self.bytes[digits_start..self.pos];
            let n = digits.iter().fold(0u64, |v, d| v * 10 + u64::from(d - b'0')) as f64;
            return Ok(Json::Num(if digits_start > start { -n } else { n }));
        }
        let n: f64 = self.input[start..self.pos].parse().map_err(|_| self.err("invalid number"))?;
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Num(0.0)),
            ("-0", Json::Num(-0.0)),
            ("42", Json::Num(42.0)),
            ("-1.5", Json::Num(-1.5)),
            ("\"hi\"", Json::Str("hi".into())),
            ("\"\"", Json::Str(String::new())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-2.5E-2").unwrap(), Json::Num(-0.025));
    }

    #[test]
    fn containers_round_trip_byte_exactly() {
        let text = r#"{"verb":"query","density":[1.5,2],"nested":{"a":[],"b":{}},"ok":true}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.encode(), text);
        assert_eq!(value.get("verb").unwrap().as_str().unwrap(), "query");
        assert_eq!(value.get("density").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(value.get("nested").unwrap().get("a").unwrap(), &Json::Arr(vec![]));
    }

    #[test]
    fn string_escapes_and_unicode() {
        let original = Json::Str("q\"uo\\te\n\t\u{0001} ⇒ é 😀".into());
        let encoded = original.encode();
        assert_eq!(parse(&encoded).unwrap(), original);
        // Surrogate pairs parse.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
        // Unpaired surrogates do not.
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ud83dx\"").is_err());
    }

    #[test]
    fn whitespace_is_tolerated_garbage_is_not() {
        assert_eq!(parse("  { \"a\" : [ 1 , 2 ] }  ").unwrap().encode(), r#"{"a":[1,2]}"#);
        for bad in
            ["", "{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"a\" x", "{\"a\" 1}", "[1 2]", "01x"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let err = parse("[1,]").unwrap_err();
        assert!(err.to_string().contains("byte 3"), "{err}");
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = format!("{}1{}", "[".repeat(1000), "]".repeat(1000));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn integer_accessor_is_exact() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn integer_accessor_rejects_two_to_the_64() {
        // `u64::MAX as f64` is 2^64 itself; it must not saturate to u64::MAX.
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("9223372036854775808").unwrap().as_u64(), Some(1 << 63));
    }

    #[test]
    fn raw_fragments_encode_verbatim_and_stay_opaque() {
        let rule = mining::Dar {
            antecedent: vec![3, 14],
            consequent: vec![0],
            degree: 0.25,
            min_cluster_support: 60,
        };
        let raw = super::rule(&rule, -0.0);
        let text =
            r#"{"antecedent":[3,14],"consequent":[0],"degree":0.25,"min_support":60,"measure":-0}"#;
        assert_eq!(raw.encode(), text);
        assert_eq!(raw.get("degree"), None, "a fragment is opaque to accessors");
        assert_eq!(
            rule_array([(&rule, -0.0), (&rule, -0.0)].into_iter()).encode(),
            format!("[{text},{text}]")
        );
        assert_eq!(rule_array(std::iter::empty()).encode(), "[]");
        assert!(!matches!(parse(text).unwrap(), Json::Raw(_)), "parse never yields a fragment");
    }
}
