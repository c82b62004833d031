//! Minimal JSON document model: build, render and parse JSON values without
//! `serde_json`.
//!
//! The offline build cannot pull `serde_json`, but the experiment harness
//! needs machine-readable output (`experiments --format json`). This module
//! provides the smallest useful subset: a [`Value`] tree, a compact writer
//! ([`Value::render`]) and a strict recursive-descent parser
//! ([`Value::parse`]) used by tests and CI to check that emitted output is
//! well-formed. When the real `serde_json` becomes available, callers can
//! migrate to it mechanically — the shapes are deliberately the same.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every count this workspace emits).
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Insertion order is preserved so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::set`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Append a key/value pair to an object (panics on non-objects: emission
    /// code constructs objects locally, so a mismatch is a programming error).
    pub fn set(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Value::set on non-object {other:?}"),
        }
        self
    }

    /// Look up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the value
                    // stays a float on round-trip.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict: the whole input must be one value).
    /// Arrays and objects may nest at most [`MAX_DEPTH`] levels deep.
    ///
    /// # Errors
    /// Returns a [`ParseError`] describing the first offending byte offset.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::new(pos, "trailing data after value"));
        }
        Ok(value)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Value {
        i64::try_from(u)
            .map(Value::Int)
            .unwrap_or(Value::Float(u as f64))
    }
}
impl From<u32> for Value {
    fn from(u: u32) -> Value {
        Value::Int(i64::from(u))
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    use fmt::Write as _;
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

/// A JSON parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn new(offset: usize, message: &str) -> ParseError {
        ParseError {
            offset,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::new(*pos, "unexpected token"))
    }
}

/// The deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a bound a hostile input of nested
/// brackets would overflow the stack instead of returning an error.
pub const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(ParseError::new(*pos, "arrays and objects nest too deeply"));
    }
    match bytes.get(*pos) {
        None => Err(ParseError::new(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(ParseError::new(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError::new(*pos, "expected ':'"));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(ParseError::new(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::new(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::new(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| ParseError::new(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for this workspace's
                        // output; reject them rather than mis-decode.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| ParseError::new(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(ParseError::new(*pos, "control byte in string"));
            }
            Some(_) => {
                // Consume one UTF-8 character. The input is a &str and `pos`
                // sits on a character boundary, so the next (at most four)
                // bytes start with one whole character; decoding only that
                // window keeps long strings linear.
                let window = &bytes[*pos..bytes.len().min(*pos + 4)];
                let valid = match std::str::from_utf8(window) {
                    Ok(s) => s,
                    Err(e) => std::str::from_utf8(&window[..e.valid_up_to()]).unwrap_or_default(),
                };
                let c = valid
                    .chars()
                    .next()
                    .ok_or_else(|| ParseError::new(*pos, "invalid utf-8"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::new(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(ParseError::new(start, "expected a value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError::new(start, "invalid number"))
    } else {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| ParseError::new(start, "invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = Value::object()
            .set("name", "histogram'")
            .set("cycles", 12345u64)
            .set("norm", 1.25)
            .set("ok", true)
            .set("failure", Value::Null)
            .set(
                "reported",
                Value::Array(vec!["a.c:1 (false sharing)".into()]),
            );
        assert_eq!(
            v.render(),
            r#"{"name":"histogram'","cycles":12345,"norm":1.25,"ok":true,"failure":null,"reported":["a.c:1 (false sharing)"]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn round_trips_nested_values() {
        let v = Value::object()
            .set(
                "cells",
                Value::Array(vec![
                    Value::object().set("w", "dedup").set("n", -3i64),
                    Value::object().set("f", 0.5).set("none", Value::Null),
                ]),
            )
            .set("empty_obj", Value::object())
            .set("empty_arr", Value::Array(vec![]));
        let text = v.render();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_rejects_trailing_garbage() {
        assert_eq!(
            Value::parse(" { \"a\" : [ 1 , 2.5 , null ] } ").unwrap(),
            Value::object().set(
                "a",
                Value::Array(vec![Value::Int(1), Value::Float(2.5), Value::Null])
            )
        );
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Value::Float(f64::NAN).render(), "null");
        assert_eq!(Value::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nest too deeply"), "{err}");
        // Far above the limit — deep enough to overflow an unbounded
        // recursive parser — and unterminated, objects included.
        assert!(Value::parse(&"[".repeat(50_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn multibyte_strings_decode_whole_characters() {
        let v = Value::parse("[\"h\u{e9}llo \u{1F600}\u{4e16}\"]").unwrap();
        assert_eq!(
            v,
            Value::Array(vec![Value::Str("h\u{e9}llo \u{1F600}\u{4e16}".into())])
        );
    }

    #[test]
    fn object_get_finds_keys() {
        let v = Value::object().set("a", 1i64);
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), None);
        assert_eq!(Value::Null.get("a"), None);
    }
}
