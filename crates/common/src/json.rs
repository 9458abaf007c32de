//! Minimal JSON for the workspace: one parser and one writer.
//!
//! The workspace is built offline with no serialization dependency, yet the
//! trace layer ([`crate::trace`]) emits JSONL, the run reports and the bench
//! binaries emit JSON, and tests and the CI smoke checks *parse it back* to
//! validate. Both directions live here and nowhere else:
//!
//! * [`parse_json`] / [`parse_jsonl`] — the full value grammar (objects,
//!   arrays, strings with escapes, numbers, booleans, `null`) with strict
//!   error reporting, into a [`JsonValue`] with typed accessors;
//! * [`JsonWriter`] — a streaming writer that is the only code knowing JSON
//!   syntax on the way out: string escaping, separators, nesting and numbers.
//!   Keys are written in call order, and **non-finite floats become `null`**
//!   (`NaN`/`inf` are not JSON, and the parser above rejects them), so what
//!   it produces always parses back.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Object keys are kept in a sorted map, which is fine
/// for validation (JSON object order is not significant).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value of `key` if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string contents, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if `self` is a number
    /// that is one (exact integral, ≥ 0, within `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The key→value map, if `self` is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after top-level value"));
    }
    Ok(v)
}

/// Parse a JSON Lines document: one JSON value per non-empty line. The
/// failing line index (0-based) is reported on error.
pub fn parse_jsonl(input: &str) -> Result<Vec<JsonValue>, JsonError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_json(line).map_err(|e| JsonError {
            offset: e.offset,
            message: format!("line {i}: {}", e.message),
        })?);
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("malformed number")),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

/// A scalar [`JsonWriter`] can emit: strings, booleans, unsigned integers,
/// floats (non-finite ones as `null`) and `Option`s of those (`None` as
/// `null`).
pub trait JsonScalar {
    /// Append the JSON token of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl JsonScalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl JsonScalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl JsonScalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` is the shortest representation that round-trips, and
            // always a JSON number (`0.0`, `-1.5e-300`, `1e300`).
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! json_display_scalar {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_display_scalar!(bool, u32, u64, usize);

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Streaming JSON writer. Values go out in call order: open a container,
/// write its members ([`JsonWriter::field`] inside an object,
/// [`JsonWriter::value`] inside an array, [`JsonWriter::key`] in front of a
/// nested container), close it, and take the text with
/// [`JsonWriter::finish`].
///
/// [`JsonWriter::compact`] emits no whitespace at all (one trace record per
/// JSONL line); [`JsonWriter::pretty`] puts the members of the two outermost
/// container levels on their own indented lines — a report's top-level keys
/// and one table row per line — and keeps deeper containers inline.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already has a member.
    open: Vec<bool>,
    /// How many of the outermost container levels break their members over
    /// lines (0: none, the compact form).
    break_depth: usize,
    after_key: bool,
}

impl JsonWriter {
    /// A writer that emits no whitespace.
    pub fn compact() -> Self {
        Self::default()
    }

    /// A writer for human-read documents (see the type docs).
    pub fn pretty() -> Self {
        JsonWriter {
            break_depth: 2,
            ..Self::default()
        }
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", indent));
    }

    /// Separator in front of a key or a value: nothing right after a key,
    /// otherwise the comma and line break its container calls for.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(has_member) = self.open.last_mut() else {
            return;
        };
        let had_member = std::mem::replace(has_member, true);
        if had_member {
            self.out.push(',');
        }
        if depth <= self.break_depth {
            self.newline(depth);
        } else if had_member && self.break_depth > 0 {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: char) -> &mut Self {
        let had_member = self.open.pop().expect("no open JSON container to close");
        if had_member && self.open.len() < self.break_depth {
            self.newline(self.open.len());
        }
        self.out.push(bracket);
        self
    }

    /// Open an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Open an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Write an object key; the next value or container is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_json(&mut self.out);
        self.out.push(':');
        if self.break_depth > 0 {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Write a scalar value (an array element, or the value of the last key).
    pub fn value(&mut self, v: impl JsonScalar) -> &mut Self {
        self.separate();
        v.write_json(&mut self.out);
        self
    }

    /// Write one `key: scalar` member of the innermost object.
    pub fn field(&mut self, key: &str, v: impl JsonScalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// The finished document (newline-terminated unless compact).
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "unclosed JSON container");
        if self.break_depth > 0 {
            self.out.push('\n');
        }
        self.out
    }
}

/// Write members named after the fields (or local bindings) they come from:
/// `json_fields!(w, row => n, eps)` is `w.field("n", &row.n).field("eps",
/// &row.eps)`, and `json_fields!(w, live, peak)` is `w.field("live",
/// &live).field("peak", &peak)` — each name is spelled once.
#[macro_export]
macro_rules! json_fields {
    ($w:expr, $src:expr => $($field:ident),+ $(,)?) => {{
        $( $w.field(stringify!($field), &$src.$field); )+
    }};
    ($w:expr, $($var:ident),+ $(,)?) => {{
        $( $w.field(stringify!($var), &$var); )+
    }};
}
pub use crate::json_fields;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json(" -1.5e2 ").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse_json(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse_json(r#""é""#).unwrap(), JsonValue::String("é".into()));
        assert_eq!(
            parse_json(r#""😀""#).unwrap(),
            JsonValue::String("😀".into())
        );
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("01").is_err());
        assert!(parse_json("{\"a\":1} x").is_err());
        assert!(parse_json("\"\u{01}\"").is_err());
    }

    #[test]
    fn jsonl_parses_per_line_and_skips_blanks() {
        let doc = "{\"a\":1}\n\n{\"b\":2}\n";
        let vals = parse_jsonl(doc).unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[1].get("b").and_then(JsonValue::as_u64), Some(2));
        let bad = "{\"a\":1}\nnot json\n";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.message.contains("line 1"), "{err}");
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(parse_json("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse_json("3.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
    }

    fn written(v: impl JsonScalar) -> JsonValue {
        let mut w = JsonWriter::compact();
        w.value(v);
        parse_json(&w.finish()).expect("writer output must parse")
    }

    #[test]
    fn written_strings_round_trip() {
        for s in ["\"", "\\", "\n", "\r", "\t", "\u{1}", "é", "a\"b\\c\u{1f}"] {
            assert_eq!(written(s), JsonValue::String(s.into()), "{s:?}");
        }
    }

    #[test]
    fn written_floats_round_trip_and_non_finite_is_null() {
        for x in [0.0, -1.5e-300, 1e300, 0.1, 123456.789] {
            assert_eq!(written(x), JsonValue::Number(x), "{x:e}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(written(x), JsonValue::Null, "{x}");
        }
        assert_eq!(written(None::<usize>), JsonValue::Null);
        assert_eq!(written(Some(7usize)).as_u64(), Some(7));
    }

    #[test]
    fn writer_nests_and_keeps_key_order() {
        let build = |mut w: JsonWriter| {
            w.begin_object().field("zeta", 1u32).field("alpha", true);
            w.key("empty_obj").begin_object().end_object();
            w.key("empty_arr").begin_array().end_array();
            w.key("rows").begin_array();
            for i in 0..2usize {
                w.begin_object().field("i", i).key("xs").begin_array();
                w.value(0.5).value("s").end_array().end_object();
            }
            w.end_array().end_object();
            w.finish()
        };
        let compact = build(JsonWriter::compact());
        assert_eq!(
            compact,
            "{\"zeta\":1,\"alpha\":true,\"empty_obj\":{},\"empty_arr\":[],\
             \"rows\":[{\"i\":0,\"xs\":[0.5,\"s\"]},{\"i\":1,\"xs\":[0.5,\"s\"]}]}"
        );
        let pretty = build(JsonWriter::pretty());
        // Same document; top-level keys and table rows on their own lines.
        assert_eq!(parse_json(&pretty).unwrap(), parse_json(&compact).unwrap());
        assert!(pretty.contains("\n  \"alpha\": true,\n  \"empty_obj\": {},\n"));
        assert!(pretty.contains("\n    {\"i\": 1, \"xs\": [0.5, \"s\"]}\n  ]\n}\n"));
    }
}
