//! Workspace-local, dependency-free JSON value type with a parser and
//! serializer.
//!
//! The build environment has no access to crates.io, so the annotation
//! server's wire format is carried by this shim instead of `serde_json`.
//! It covers exactly what the wire types need:
//!
//! * a [`Json`] value enum with **lossless numbers**: unsigned and
//!   signed integers are kept as `u64`/`i64` (a nanosecond budget of
//!   `u64::MAX` must survive the round trip), floats as `f64`
//!   serialized through Rust's shortest-round-trip `Display` — so an
//!   `f64` confidence parses back **bit-identical**, which the golden
//!   HTTP-equivalence suite relies on;
//! * [`Json::parse`] — a recursive-descent parser with a depth bound,
//!   full string-escape handling (`\uXXXX` incl. surrogate pairs), and
//!   precise error offsets;
//! * `Json::to_string` (via `Display`) — compact serialization with
//!   escaping of control characters, quotes, and backslashes;
//! * ergonomic accessors (`get`, `as_str`, `as_u64`, …) and builder
//!   helpers (`Json::object`, `From` impls) so call sites stay short.
//!
//! Object member order is preserved (a `Vec` of pairs, not a map):
//! serialization is deterministic in insertion order, and duplicate
//! keys resolve to the *first* occurrence on lookup.

#![warn(missing_docs)]

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (kept exact).
    UInt(u64),
    /// A negative integer that fits `i64` (kept exact).
    Int(i64),
    /// Any other number (fractional or exponent form).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: member pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: parsing deeper than this fails instead of risking a
/// stack overflow on adversarial input (the server parses untrusted
/// request bodies).
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage is an error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser {
            text: input,
            bytes,
            at: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Build an object from key/value pairs.
    #[must_use]
    pub fn object(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Object member lookup (first occurrence wins). `None` on
    /// non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact `u64`: `UInt` verbatim, non-negative `Int`,
    /// or a `Float` that is integral and in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Float(f)
                if f.fract() == 0.0 && *f >= 0.0 && *f < 18_446_744_073_709_551_616.0 =>
            {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an exact `usize` (via [`Json::as_u64`]).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as an `f64` (integers convert; precision may drop past
    /// 2⁵³ — use [`Json::as_u64`] for exact counters).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Is this `null`?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Rust's shortest-round-trip Display: the printed
                    // decimal parses back to the identical f64 bits.
                    // Bare integers get a ".0" so they re-parse as
                    // Float, keeping Display→parse the identity.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit an unparseable document.
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    /// The input, for slicing out runs that end on ASCII delimiters
    /// (always char boundaries) without re-validating UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.at,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.at += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.at += 1; // consume `{`
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.at = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.at += 1; // consume `"`
        let mut out = String::new();
        loop {
            let start = self.at;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.at += 1;
            }
            if self.at > start {
                // The run started after an ASCII byte and stopped on
                // one (or at the end), so both ends are char boundaries.
                out.push_str(&self.text[start..self.at]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => {
                            out.push('"');
                            self.at += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.at += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.at += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.at += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.at += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.at += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.at += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.at += 1;
                        }
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.at + 1) == Some(&b'u')
                                {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        // Only ASCII bytes were consumed since `start`.
        let text = &self.text[start..self.at];
        if integral {
            // Exact integers first, falling back to f64 for magnitudes
            // beyond u64/i64 (matching what serde_json calls
            // "arbitrary precision off").
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "42", "-7", "\"hi\""] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(v.to_string(), doc);
        }
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn u64_max_survives_exactly() {
        let doc = u64::MAX.to_string();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.to_string(), doc);
        // i64::MIN likewise.
        let v = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(v, Json::Int(i64::MIN));
        assert_eq!(v.to_string(), "-9223372036854775808");
    }

    #[test]
    fn f64_display_parse_is_bit_identical() {
        // The property the golden HTTP-equivalence suite rests on.
        for &x in &[
            0.1,
            1.0 / 3.0,
            0.874_999_999_999_999_9,
            f64::MIN_POSITIVE,
            1e300,
            -2.5e-10,
            0.0,
            1.0,
        ] {
            let doc = Json::Float(x).to_string();
            let back = Json::parse(&doc).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {doc}");
        }
        // Non-finite degrades to null instead of invalid JSON.
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let s = Json::Str("tab\t\"q\" \u{1}".into()).to_string();
        assert_eq!(s, "\"tab\\t\\\"q\\\" \\u0001\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("tab\t\"q\" \u{1}"));
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = r#"{"name":"t","columns":[{"header":"a","values":["1","2",null]},{"header":"b","values":[]}],"n":3}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("t"));
        let cols = v.get("columns").and_then(Json::as_array).unwrap();
        assert_eq!(cols.len(), 2);
        assert!(cols[0].get("values").unwrap().as_array().unwrap()[2].is_null());
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn whitespace_is_tolerated_garbage_is_not() {
        assert!(Json::parse(" { \"a\" : [ 1 , 2 ] } \n").is_ok());
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn depth_bound_rejects_adversarial_nesting() {
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_resolve_to_first() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn builders_compose() {
        let v = Json::object(vec![
            ("ok", Json::from(true)),
            ("n", Json::from(7u64)),
            ("name", Json::from("x")),
            ("opt", Json::from(None::<u64>)),
            ("arr", Json::from(vec![Json::from(1u64)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"ok":true,"n":7,"name":"x","opt":null,"arr":[1]}"#
        );
    }
}
