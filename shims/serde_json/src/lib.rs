//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`to_vec`], [`to_vec_pretty`],
//! [`from_str`], [`from_slice`], plus the [`Value`] re-export.
//!
//! Output is genuine JSON (RFC 8259): strings are escaped, numbers are
//! printed with round-trip precision, pretty output uses two-space
//! indentation like upstream serde_json.

use std::fmt;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// Error type shared by serialization (infallible in this shim, but the
/// signature keeps upstream's `Result`) and parsing.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
    /// Byte offset of a parse error, when known.
    offset: Option<usize>,
}

impl Error {
    fn parse(message: impl Into<String>, offset: usize) -> Self {
        Error {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "{} at byte {at}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error {
            message: e.0,
            offset: None,
        }
    }
}

/// Upstream-style result alias.
pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------- printing

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, f: f64) {
    // JSON has no NaN/Infinity; hand-built `Value::Float`s bypass the
    // Serialize impls' guard, so guard again here.
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    // `{}` on f64 prints the shortest representation that round-trips.
    // Integral floats still get a `.0` so the value re-parses as Float.
    if f.fract() == 0.0 && f.abs() < 1e15 {
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_value(out: &mut String, value: &Value, pretty: bool, indent: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_number(out, *f),
        Value::Str(s) => escape_into(out, s),
        Value::Array(_) | Value::F32Array(_) => {
            let items = value.as_array().expect("an array");
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                write_value(out, item, pretty, indent + 1);
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                escape_into(out, key);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, item, pretty, indent + 1);
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push('}');
        }
    }
}

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), false, 0);
    Ok(out)
}

/// Serializes to two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), true, 0);
    Ok(out)
}

/// Serializes to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Serializes to pretty JSON bytes.
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

// -------------------------------------------------------------- parsing

/// Nesting ceiling for arrays/objects: deep enough for any real document
/// this workspace writes, shallow enough that a corrupt cache file of
/// repeated `[` bytes surfaces as `Err` instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::parse(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error::parse(
                format!("unexpected byte `{}`", b as char),
                self.pos,
            )),
            None => Err(Error::parse("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::parse(format!("expected `{word}`"), self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // RFC 8259: no leading zeros (0 itself, or 0.x / 0e.., is fine).
        if self.peek() == Some(b'0') && matches!(self.bytes.get(self.pos + 1), Some(b'0'..=b'9')) {
            return Err(Error::parse("leading zeros are not allowed", self.pos));
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse("invalid UTF-8 in number", start))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse(format!("invalid number `{text}`"), start))
        } else {
            // Huge integral floats (e.g. f32::MAX) print without a
            // '.'/exponent; fall back to f64 when they overflow i128 so
            // JSON this shim produced always re-parses. `-0` reads as a
            // float too, as serde_json reads it, so its sign survives.
            match text.parse::<i128>() {
                Ok(0) if text.starts_with('-') => Ok(Value::Float(-0.0)),
                Ok(i) => Ok(Value::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::parse(format!("invalid integer `{text}`"), start)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: the next escape must be
                                // a low surrogate, or the input is invalid.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let second = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(Error::parse(
                                        "high surrogate not followed by low surrogate",
                                        self.pos,
                                    ));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| {
                                    Error::parse("invalid unicode escape", self.pos)
                                })?,
                            );
                            continue;
                        }
                        other => {
                            return Err(Error::parse(format!("invalid escape {other:?}"), self.pos))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // RFC 8259: control characters must be escaped.
                    return Err(Error::parse("unescaped control character", self.pos));
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path — no UTF-8 validation needed.
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one multi-byte UTF-8 code point; validate
                    // only that sequence (max 4 bytes), not the whole
                    // remaining input.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(Error::parse("invalid UTF-8 in string", self.pos)),
                    };
                    let end = (self.pos + len).min(self.bytes.len());
                    let seq = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| Error::parse("invalid UTF-8 in string", self.pos))?;
                    let c = seq.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(Error::parse("unterminated string", self.pos)),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::parse("truncated \\u escape", self.pos))?;
        let text =
            std::str::from_utf8(slice).map_err(|_| Error::parse("invalid \\u escape", self.pos))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| Error::parse("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::parse("expected `,` or `}`", self.pos)),
            }
        }
    }
}

/// Parses a `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Parses a `T` from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser::new(bytes);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != bytes.len() {
        return Err(Error::parse("trailing characters", parser.pos));
    }
    Ok(T::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f32>("0.5").unwrap(), 0.5);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"hi\\nthere\"").unwrap(), "hi\nthere");
    }

    #[test]
    fn round_trips_collections() {
        let v: Vec<f32> = vec![0.1, -2.5, 3.0];
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<f32>>(&text).unwrap(), v);
    }

    #[test]
    fn u64_seeds_survive() {
        let seed = u64::MAX - 3;
        let text = to_string(&seed).unwrap();
        assert_eq!(from_str::<u64>(&text).unwrap(), seed);
    }

    #[test]
    fn f32_values_survive_exactly() {
        for &x in &[
            0.1f32,
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            1e30,
            -0.0,
            f32::MAX,
            f32::MIN,
        ] {
            let text = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&text).unwrap(), x, "{text}");
        }
    }

    #[test]
    fn pretty_output_is_indented() {
        let value = Value::Object(vec![(
            "xs".to_string(),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        )]);
        let text = to_string_pretty(&value).unwrap();
        assert_eq!(text, "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn packed_arrays_print_as_their_elementwise_form() {
        let packed = vec![0.1f32, -0.0, 1.0, 3e-42, f32::MAX, f32::MIN, f32::NAN];
        let elementwise = Value::Array(packed.iter().map(|&f| Value::Float(f as f64)).collect());
        let packed = Value::F32Array(packed);
        assert_eq!(
            to_string(&packed).unwrap(),
            to_string(&elementwise).unwrap()
        );
        let nested = |v: Value| Value::Object(vec![("xs".to_string(), v)]);
        assert_eq!(
            to_string_pretty(&nested(packed)).unwrap(),
            to_string_pretty(&nested(elementwise)).unwrap()
        );
        assert_eq!(to_string(&Value::F32Array(Vec::new())).unwrap(), "[]");
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing_the_stack() {
        let bomb = "[".repeat(100_000);
        assert!(from_str::<Value>(&bomb).is_err());
        // Legitimate nesting below the ceiling still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(from_str::<Value>(&ok).is_ok());
    }

    #[test]
    fn multibyte_utf8_in_strings_round_trips() {
        for s in [
            "héllo wörld",
            "日本語テキスト",
            "mixed 😀 ascii and 🎉 emoji",
        ] {
            let text = to_string(&s.to_string()).unwrap();
            assert_eq!(from_str::<String>(&text).unwrap(), s);
        }
        // Truncated multi-byte sequence is an error, not a panic.
        assert!(from_slice::<String>(&[b'"', 0xE6, 0x97]).is_err());
    }

    #[test]
    fn missing_option_fields_default_to_none_but_required_fields_error() {
        #[derive(serde::Deserialize, Debug, PartialEq)]
        struct Evolved {
            old: u32,
            note: Option<String>,
        }
        // A document written before `note` existed still loads (upstream
        // serde semantics for Option fields)…
        let v: Evolved = from_str("{\"old\": 7}").unwrap();
        assert_eq!(v, Evolved { old: 7, note: None });
        // …but a missing required field is still an error, including
        // floats (absence must not silently become NaN).
        #[derive(serde::Deserialize, Debug)]
        struct Required {
            #[allow(dead_code)]
            x: f32,
        }
        assert!(from_str::<Required>("{}").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("42 x").is_err());
    }

    #[test]
    fn rejects_non_rfc8259_leniencies() {
        // Leading zeros.
        assert!(from_str::<u64>("007").is_err());
        assert!(from_str::<f64>("-01.5").is_err());
        // Plain zero and zero-prefixed fractions remain legal.
        assert_eq!(from_str::<u64>("0").unwrap(), 0);
        assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
        // `-0` is a float with its sign, and still an integer zero.
        assert_eq!(from_str::<Value>("-0").unwrap(), Value::Float(-0.0));
        assert!(from_str::<f64>("-0").unwrap().is_sign_negative());
        assert_eq!(from_str::<i64>("-0").unwrap(), 0);
        // Raw control characters inside strings.
        assert!(from_slice::<String>(b"\"a\x01b\"").is_err());
        // Their escaped forms are fine.
        assert_eq!(from_str::<String>("\"a\\u0001b\"").unwrap(), "a\u{1}b");
    }

    #[test]
    fn nan_becomes_null_and_back() {
        let text = to_string(&f32::NAN).unwrap();
        assert_eq!(text, "null");
        assert!(from_str::<f32>("null").unwrap().is_nan());
    }

    #[test]
    fn surrogate_pairs_parse_and_broken_pairs_error_cleanly() {
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
        // High surrogate followed by a non-low-surrogate escape must be
        // a parse error, not a panic (the bench cache loader relies on
        // corrupt files surfacing as Err).
        assert!(from_str::<String>("\"\\ud800\\u0041\"").is_err());
        assert!(from_str::<String>("\"\\ud800\"").is_err());
        // Lone low surrogate is invalid too.
        assert!(from_str::<String>("\"\\udc00\"").is_err());
    }

    #[test]
    fn hand_built_nonfinite_float_values_still_print_valid_json() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&Value::Float(v)).unwrap(), "null");
        }
    }
}
