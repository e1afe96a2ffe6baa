//! A minimal JSON value tree, parser, and writer.
//!
//! The workspace writes its run logs and bench reports with hand-rolled
//! serializers; session checkpointing (engine state saved mid-run and
//! restored bit-identically) is the first feature that must *read* JSON
//! back, so this module adds the missing half. The dialect is RFC 8259
//! JSON with one extension and two deliberate restrictions that keep
//! round trips exact:
//!
//! * non-finite numbers serialize as the bare tokens `NaN`, `Infinity`
//!   and `-Infinity` (accepted back by the parser), never as `null` —
//!   a diverged training run's NaN loss must survive a trip through a
//!   result cache or an error row instead of decaying into a missing
//!   value (NaN payload bits are canonicalized; use [`Value::from_bits`]
//!   when the exact bit pattern matters);
//! * numbers are parsed into `f64` — values that need all 64 bits
//!   (`f64` bit patterns, `u64` seeds) are stored as 16-digit hex
//!   *strings* by convention (see [`Value::from_bits`] /
//!   [`Value::as_bits`]), never as numbers;
//! * objects preserve insertion order (a `Vec` of pairs, not a hash
//!   map), so serialization is deterministic; [`Value::canonical`]
//!   additionally sorts members for order-insensitive fingerprints.
//!
//! ```
//! use lac_rt::json::Value;
//!
//! let v = Value::parse(r#"{"epoch": 3, "coeffs": [1.5, -2.0]}"#).unwrap();
//! assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(3.0));
//! let bits = Value::from_bits(1.5f64.to_bits());
//! assert_eq!(bits.as_bits(), Some(1.5f64.to_bits()));
//! ```

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (parsed into `f64`; exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a JSON document.
    ///
    /// Returns an error message naming the byte offset on malformed
    /// input or trailing garbage.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }

    /// Serialize as compact JSON (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else if v.is_nan() {
                    out.push_str("NaN");
                } else if *v > 0.0 {
                    out.push_str("Infinity");
                } else {
                    out.push_str("-Infinity");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, when this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a non-negative integer (exact for counts < 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < 9.0e15 => Some(*v as usize),
            _ => None,
        }
    }

    /// The string, when this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, when this is a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode a full-width 64-bit word (an `f64` bit pattern, a `u64`
    /// seed) as a 16-digit hex string value — the only lossless carrier
    /// for all 64 bits in this dialect.
    pub fn from_bits(bits: u64) -> Value {
        Value::Str(format!("{bits:016x}"))
    }

    /// Decode a 64-bit word written by [`Value::from_bits`].
    pub fn as_bits(&self) -> Option<u64> {
        match self {
            Value::Str(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    }

    /// A copy with every object's members sorted by key (recursively).
    ///
    /// Two documents that differ only in member order canonicalize to
    /// the same value — and therefore the same [`to_json`](Value::to_json)
    /// bytes — which is what content-addressed fingerprints hash.
    pub fn canonical(&self) -> Value {
        match self {
            Value::Arr(items) => Value::Arr(items.iter().map(Value::canonical).collect()),
            Value::Obj(members) => {
                let mut sorted: Vec<(String, Value)> =
                    members.iter().map(|(k, v)| (k.clone(), v.canonical())).collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Obj(sorted)
            }
            other => other.clone(),
        }
    }
}

/// Append `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r` and
/// `\t` as their short escapes, other control characters as `\u00XX`.
/// The workspace's one JSON string writer.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'N') => expect(bytes, pos, "NaN").map(|()| Value::Num(f64::NAN)),
        Some(b'I') => expect(bytes, pos, "Infinity").map(|()| Value::Num(f64::INFINITY)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let val = parse_value(bytes, pos)?;
                members.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte `{}` at byte {pos}", *c as char, pos = *pos)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Surrogates are not produced by this workspace's
                        // writers; map them to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte stream is valid UTF-8).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
        if bytes.get(*pos) == Some(&b'I') {
            return expect(bytes, pos, "Infinity").map(|()| Value::Num(f64::NEG_INFINITY));
        }
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "3.25e2", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": "x\"y\\z\n", "d": true}"#;
        let v = Value::parse(text).unwrap();
        let again = Value::parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn bits_round_trip_every_pattern_class() {
        for x in [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY, f64::NAN] {
            let v = Value::from_bits(x.to_bits());
            let json = v.to_json();
            let back = Value::parse(&json).unwrap().as_bits().unwrap();
            assert_eq!(back, x.to_bits(), "{x}");
        }
        assert_eq!(Value::from_bits(u64::MAX).as_bits(), Some(u64::MAX));
    }

    #[test]
    fn as_usize_accepts_exact_counts_only() {
        assert_eq!(Value::Num(42.0).as_usize(), Some(42));
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Num(1.5).as_usize(), None);
        assert_eq!(Value::Str("42".into()).as_usize(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in
            ["", "{", "[1,", "{\"a\"}", "nul", "1 2", "\"open", "{\"a\":}", "Inf", "NaNa", "-Inf"]
        {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_round_trip_losslessly() {
        // A Diverged row's NaN/±inf loss must survive serialization —
        // not decay into null (the pre-orchestrator behavior).
        let nan = Value::Num(f64::NAN);
        assert_eq!(nan.to_json(), "NaN");
        assert!(Value::parse("NaN").unwrap().as_f64().unwrap().is_nan());

        let inf = Value::Num(f64::INFINITY);
        assert_eq!(inf.to_json(), "Infinity");
        assert_eq!(Value::parse("Infinity").unwrap().as_f64(), Some(f64::INFINITY));

        let ninf = Value::Num(f64::NEG_INFINITY);
        assert_eq!(ninf.to_json(), "-Infinity");
        assert_eq!(Value::parse("-Infinity").unwrap().as_f64(), Some(f64::NEG_INFINITY));

        // Embedded in structure, through a full round trip.
        let doc = r#"{"loss": NaN, "bounds": [-Infinity, Infinity], "ok": 1.5}"#;
        let v = Value::parse(doc).unwrap();
        let again = Value::parse(&v.to_json()).unwrap();
        assert!(again.get("loss").unwrap().as_f64().unwrap().is_nan());
        let bounds = again.get("bounds").unwrap().as_arr().unwrap();
        assert_eq!(bounds[0].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(bounds[1].as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn canonical_sorts_members_recursively() {
        let a = Value::parse(r#"{"z": 1, "a": {"k": 2, "b": [{"y": 0, "x": 1}]}}"#).unwrap();
        let b = Value::parse(r#"{"a": {"b": [{"x": 1, "y": 0}], "k": 2}, "z": 1}"#).unwrap();
        assert_ne!(a.to_json(), b.to_json(), "insertion order differs");
        assert_eq!(a.canonical().to_json(), b.canonical().to_json());
        // Canonicalization is idempotent and value-preserving.
        assert_eq!(a.canonical().canonical(), a.canonical());
        assert_eq!(a.canonical().get("z"), Some(&Value::Num(1.0)));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = Value::Str("π ≈ 3\t\"q\"".into());
        let back = Value::parse(&v.to_json()).unwrap();
        assert_eq!(back, v);
        let u = Value::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(u.as_str(), Some("Aé"));
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Value::Str("\u{0001}".into());
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }
}
