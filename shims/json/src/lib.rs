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
//! * [`JsonReader`] — a pull reader over one document, with a depth
//!   bound, full string-escape handling (`\uXXXX` incl. surrogate
//!   pairs), RFC 8259's grammar for numbers and `\u` escapes (no
//!   leading zeros, no bare `.`, exactly four hex digits), and precise
//!   error offsets. Callers walk objects and arrays through closures
//!   and read strings as borrowed slices of the input, and
//!   [`JsonReader::cells`] reads an array of string and `null` cells in
//!   one loop, so a decoder can type cells without building a tree;
//! * [`Json::parse`] — the same reader building a [`Json`] tree, so
//!   both accept and reject exactly the same documents with the same
//!   errors;
//! * `Json::to_string` (via `Display`) — compact serialization through
//!   [`write_string`] and [`write_float`], which a caller can also use
//!   to write a document straight into a `String`;
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
        let mut reader = JsonReader::new(input);
        let value = reader.value()?;
        reader.finish()?;
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

/// Write `s` as a JSON string literal: quoted, with `"`, `\`, and
/// control characters escaped. This is exactly what
/// `Json::Str(s).to_string()` prints.
pub fn write_string<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, and no byte of a
    // multi-byte UTF-8 sequence is, so `run..i` always slices on char
    // boundaries.
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                out.write_str(&s[run..i])?;
                write!(out, "\\u{byte:04x}")?;
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Write `x` as a JSON number, exactly as `Json::Float(x).to_string()`
/// prints it: Rust's shortest-round-trip decimal, so the printed text
/// parses back to the identical bits; integral values keep a `.0` so
/// they re-parse as floats; NaN and the infinities, which JSON cannot
/// express, become `null` rather than an unparseable document.
pub fn write_float<W: fmt::Write + ?Sized>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        out.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        write!(out, "{x:.1}")
    } else {
        write!(out, "{x}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => write_float(f, *x),
            Json::Str(s) => write_string(f, s),
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
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// What kind of value comes next in a [`JsonReader`], judged from its
/// first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document — the tokenizer
/// [`Json::parse`] is built on.
///
/// The caller walks the document value by value: [`peek_kind`] says
/// what comes next, [`object`] and [`array`] hand each member or item
/// to a closure, [`str`] reads a string as a slice of the input (or of
/// a scratch buffer, when it held escapes), [`cells`] reads an array of
/// strings and `null`s with no per-element dispatch (the server's
/// column values), and [`value`] reads any value into a [`Json`] tree.
/// Every read enforces the nesting bound
/// and reports errors at the same offsets, with the same messages, as
/// [`Json::parse`]. [`finish`] checks that nothing but whitespace
/// follows the document.
///
/// ```
/// use jsonshim::JsonReader;
///
/// let mut reader = JsonReader::new(r#"{"cells": ["a", "b\n"], "n": 2}"#);
/// let mut cells = Vec::new();
/// let mut scratch = String::new();
/// reader
///     .object(|r, key| {
///         if key == "cells" {
///             r.array(|r| {
///                 cells.push(r.str(&mut scratch)?.len());
///                 Ok(())
///             })
///         } else {
///             r.value().map(drop)
///         }
///     })
///     .unwrap();
/// reader.finish().unwrap();
/// assert_eq!(cells, [1, 2]);
/// ```
///
/// [`peek_kind`]: JsonReader::peek_kind
/// [`object`]: JsonReader::object
/// [`array`]: JsonReader::array
/// [`str`]: JsonReader::str
/// [`cells`]: JsonReader::cells
/// [`value`]: JsonReader::value
/// [`finish`]: JsonReader::finish
#[derive(Debug)]
pub struct JsonReader<'a> {
    /// The input, for slicing out runs that end on ASCII delimiters
    /// (always char boundaries) without re-validating UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects open around the next value.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader positioned at the document's first value (leading
    /// whitespace skipped).
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        let mut reader = JsonReader {
            text: input,
            bytes: input.as_bytes(),
            at: 0,
            depth: 0,
        };
        reader.skip_ws();
        reader
    }

    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.at,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    /// The kind of the next value. Fails, as [`Json::parse`] would
    /// here, when the value is nested too deeply, starts with a byte no
    /// value starts with, or is missing.
    pub fn peek_kind(&self) -> Result<ValueKind, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => Ok(ValueKind::Null),
            Some(b't' | b'f') => Ok(ValueKind::Bool),
            Some(b'"') => Ok(ValueKind::Str),
            Some(b'[') => Ok(ValueKind::Array),
            Some(b'{') => Ok(ValueKind::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(ValueKind::Number),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn expect_kind(&self, kind: ValueKind, message: &str) -> Result<(), JsonError> {
        if self.peek_kind()? == kind {
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    /// Read the next value, which must be an array, calling `item` once
    /// per element with the reader positioned at it. `item` must read
    /// exactly one value.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_kind(ValueKind::Array, "expected an array")?;
        self.at += 1; // consume `[`
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    /// Read the next value, which must be an object, calling `member`
    /// once per member, in document order, with its (unescaped) key
    /// and the reader positioned at its value. `member` must read
    /// exactly one value. Duplicate keys are all passed on.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_kind(ValueKind::Object, "expected an object")?;
        self.at += 1; // consume `{`
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(());
        }
        let mut escaped_key = String::new();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key in object"));
            }
            let key = match self.scan_string(&mut escaped_key)? {
                Some(raw) => raw,
                None => escaped_key.as_str(),
            };
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:` after object key"));
            }
            self.at += 1;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    /// Read the next value, which must be a string. Returns a slice of
    /// the input when the string holds no escapes — no copy at all —
    /// and otherwise decodes it into `scratch` and returns that.
    pub fn str<'s>(&mut self, scratch: &'s mut String) -> Result<&'s str, JsonError>
    where
        'a: 's,
    {
        self.expect_kind(ValueKind::Str, "expected a string")?;
        Ok(match self.scan_string(scratch)? {
            Some(raw) => raw,
            None => scratch.as_str(),
        })
    }

    /// Read the next value, which must be an array, as a column of
    /// cells in one loop: `cell` gets `Some(text)` for each string
    /// element (what [`str`](JsonReader::str) returns for it) and `None`
    /// for each `null`. `Ok(true)` means every element was one of the
    /// two. From the first element of any other kind on, each element
    /// is read past as [`value`](JsonReader::value) reads it, with the
    /// same errors and depth bound as [`Json::parse`], `cell` is not
    /// called again, and the result is `Ok(false)`.
    pub fn cells(
        &mut self,
        scratch: &mut String,
        mut cell: impl FnMut(Option<&str>),
    ) -> Result<bool, JsonError> {
        self.expect_kind(ValueKind::Array, "expected an array")?;
        self.at += 1; // consume `[`
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(true);
        }
        // Past the depth bound every element goes to `value`, which
        // reports it, so `typing` is only ever `false` on `Ok` after an
        // element of another kind.
        let mut typing = self.depth <= MAX_DEPTH;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'"') if typing => cell(Some(match self.scan_string(scratch)? {
                    Some(raw) => raw,
                    None => scratch.as_str(),
                })),
                Some(b'n') if typing && self.bytes[self.at..].starts_with(b"null") => {
                    self.at += 4;
                    cell(None);
                }
                _ => {
                    self.value()?;
                    typing = false;
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(typing);
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    /// Read the next value, of any kind, into a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek_kind()? {
            ValueKind::Null => self.eat("null", Json::Null),
            ValueKind::Bool if self.peek() == Some(b't') => self.eat("true", Json::Bool(true)),
            ValueKind::Bool => self.eat("false", Json::Bool(false)),
            ValueKind::Number => self.number(),
            ValueKind::Str => {
                let mut escaped = String::new();
                Ok(Json::Str(match self.scan_string(&mut escaped)? {
                    Some(raw) => raw.to_owned(),
                    None => escaped,
                }))
            }
            ValueKind::Array => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            ValueKind::Object => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((key.to_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
        }
    }

    /// Check that only whitespace follows the document's value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the document"))
        }
    }

    fn eat(&mut self, token: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{token}`")))
        }
    }

    /// Four ASCII hex digits, as RFC 8259 requires after `\u` (no sign,
    /// no other character).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &c in slice {
            let digit = char::from(c)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.at = end;
        Ok(code)
    }

    /// Advance over a run of bytes a string holds verbatim.
    fn skip_plain(&mut self) {
        let rest = &self.bytes[self.at..];
        self.at += rest
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len());
    }

    /// Read the string whose opening quote is next. `Some(raw)` is the
    /// string itself, sliced from the input, when it holds no escapes;
    /// `None` means it was decoded into `escaped` (cleared first).
    fn scan_string(&mut self, escaped: &mut String) -> Result<Option<&'a str>, JsonError> {
        let text = self.text;
        self.at += 1; // consume `"`
        let start = self.at;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.at += 1;
            // The run started after an ASCII byte and stopped on one,
            // so both ends are char boundaries.
            return Ok(Some(&text[start..self.at - 1]));
        }
        escaped.clear();
        escaped.push_str(&text[start..self.at]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(None);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let simple = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return Err(self.error("invalid escape")),
                    };
                    self.at += 1;
                    let c = match simple {
                        Some(c) => c,
                        None => self.unicode_escape()?,
                    };
                    escaped.push(c);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
            let run = self.at;
            self.skip_plain();
            escaped.push_str(&text[run..self.at]);
        }
    }

    /// Decode the `XXXX` (and, for a high surrogate, the `\uXXXX` low
    /// half) following a `\u`.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require the low half.
            if self.peek() == Some(b'\\') && self.bytes.get(self.at + 1) == Some(&b'u') {
                self.at += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.error("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(self.error("unpaired high surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&hi) {
            return Err(self.error("unpaired low surrogate"));
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))
    }

    /// Advance over a run of one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.error("invalid number"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        Ok(())
    }

    /// A number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: no leading
    /// zero, no `+`, and a digit on both sides of a `.`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.error("invalid number"));
            }
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits()?;
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
            .map_err(|_| self.error("invalid number"))
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
    fn reader_borrows_plain_strings_and_unescapes_the_rest() {
        let doc = r#"{"a": ["plain", "esc\"aped", "\u00e9"], "a": null}"#;
        let mut reader = JsonReader::new(doc);
        let mut keys = Vec::new();
        let mut cells = Vec::new();
        let mut scratch = String::new();
        reader
            .object(|r, key| {
                keys.push(key.to_owned());
                if r.peek_kind()? == ValueKind::Null {
                    return r.value().map(drop);
                }
                r.array(|r| {
                    let s = r.str(&mut scratch)?;
                    // Only the escape-free string is a slice of `doc`.
                    let borrowed = doc.as_bytes().as_ptr_range().contains(&s.as_ptr());
                    cells.push((s.to_owned(), borrowed));
                    Ok(())
                })
            })
            .unwrap();
        reader.finish().unwrap();
        assert_eq!(keys, ["a", "a"], "duplicate keys are all passed on");
        assert_eq!(
            cells,
            [
                ("plain".to_owned(), true),
                ("esc\"aped".to_owned(), false),
                ("é".to_owned(), false)
            ]
        );
    }

    #[test]
    fn reader_rejects_like_parse() {
        // Wrong kinds, trailing garbage, and the depth bound reached
        // through `array` rather than `value`.
        let mut scratch = String::new();
        assert!(JsonReader::new("7").str(&mut scratch).is_err());
        assert!(JsonReader::new("[]").object(|_, _| Ok(())).is_err());
        assert!(JsonReader::new("{}").array(|_| Ok(())).is_err());
        assert_eq!(
            JsonReader::new("[1] x").value().map(|_| ()),
            Ok(()),
            "value reads one value"
        );
        let mut reader = JsonReader::new("[1] x");
        reader.value().unwrap();
        assert_eq!(
            reader.finish().unwrap_err(),
            Json::parse("[1] x").unwrap_err()
        );
        fn descend(r: &mut JsonReader<'_>) -> Result<(), JsonError> {
            match r.peek_kind()? {
                ValueKind::Array => r.array(descend),
                _ => r.value().map(drop),
            }
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(
            descend(&mut JsonReader::new(&deep)).unwrap_err(),
            Json::parse(&deep).unwrap_err()
        );
        let ok = "[".repeat(100) + "1" + &"]".repeat(100);
        let mut reader = JsonReader::new(&ok);
        descend(&mut reader).unwrap();
        reader.finish().unwrap();
    }

    /// RFC 8259 forbids leading zeros, a `.` without a digit on each
    /// side, and a `\u` escape of anything but four hex digits; every
    /// reader entry point refuses them, and the forms it allows parse
    /// as they always have.
    #[test]
    fn numbers_and_unicode_escapes_follow_rfc_8259() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            ".5",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "+1",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            for doc in [format!("[{bad}]"), format!(r#"{{"k":{bad}}}"#)] {
                assert!(Json::parse(&doc).is_err(), "{doc:?} must fail");
            }
            if bad.starts_with('"') {
                let mut scratch = String::new();
                assert_eq!(JsonReader::new(bad).str(&mut scratch).unwrap_err(), err);
            }
        }
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::from("Aé"));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::from("😀"));
        for (doc, want) in [
            ("0", Json::UInt(0)),
            ("-0", Json::Int(0)),
            ("10", Json::UInt(10)),
            ("0.5", Json::Float(0.5)),
            ("1e5", Json::Float(1e5)),
            ("1E+5", Json::Float(1e5)),
            ("-1.5e-3", Json::Float(-1.5e-3)),
            ("0e0", Json::Float(0.0)),
            ("-0.0", Json::Float(-0.0)),
        ] {
            let got = Json::parse(doc).unwrap();
            assert_eq!(got, want, "{doc}");
            if let (Json::Float(a), Json::Float(b)) = (&got, &want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{doc}");
            }
        }
    }

    /// The cells of an array as `cells` reads them, and whether all of
    /// them were strings or `null`s.
    type Cells = (Vec<Option<String>>, bool);

    /// `cells` reads what `array` with `peek_kind`, `str` and `value`
    /// reads, and fails where they fail, with the same error.
    #[test]
    fn cells_agree_with_array_and_str() {
        fn via_cells(r: &mut JsonReader<'_>) -> Result<Cells, JsonError> {
            let mut scratch = String::new();
            let mut out = Vec::new();
            let typed = r.cells(&mut scratch, |c| out.push(c.map(str::to_owned)))?;
            Ok((out, typed))
        }
        fn via_array(r: &mut JsonReader<'_>) -> Result<Cells, JsonError> {
            let mut scratch = String::new();
            let (mut out, mut typed) = (Vec::new(), true);
            r.array(|r| {
                match r.peek_kind()? {
                    ValueKind::Str if typed => out.push(Some(r.str(&mut scratch)?.to_owned())),
                    ValueKind::Null if typed => {
                        r.value()?;
                        out.push(None);
                    }
                    _ => {
                        r.value()?;
                        typed = false;
                    }
                }
                Ok(())
            })?;
            Ok((out, typed))
        }
        /// Read `doc` through `depth` enclosing arrays, then the cells.
        fn read(
            doc: &str,
            depth: usize,
            cells: fn(&mut JsonReader<'_>) -> Result<Cells, JsonError>,
        ) -> Result<Cells, JsonError> {
            fn descend(
                r: &mut JsonReader<'_>,
                depth: usize,
                cells: fn(&mut JsonReader<'_>) -> Result<Cells, JsonError>,
                out: &mut Option<Cells>,
            ) -> Result<(), JsonError> {
                if depth == 0 {
                    *out = Some(cells(r)?);
                    return Ok(());
                }
                r.array(|r| descend(r, depth - 1, cells, out))
            }
            let mut reader = JsonReader::new(doc);
            let mut out = None;
            descend(&mut reader, depth, cells, &mut out)?;
            reader.finish()?;
            Ok(out.expect("one innermost array"))
        }
        let docs = [
            "[]",
            " [ ] ",
            r#"["a"]"#,
            r#"[null]"#,
            r#"[ "a" , null ,"" ,  "b\n" ]"#,
            r#"["esc\"aped", "été", "😀", "tab\there", "\/"]"#,
            r#"["a", 1, "b"]"#,
            r#"[1.5e3, null, "x"]"#,
            r#"["a", ["b"], "c"]"#,
            r#"["a", {"k": [null]}, null]"#,
            r#"[true, false]"#,
            r#"["a",]"#,
            r#"[,"a"]"#,
            r#"["a" "b"]"#,
            r#"["a", nul]"#,
            r#"["a", nulll]"#,
            r#"["a", 01]"#,
            r#"["a\u+041"]"#,
            r#"["unterminated]"#,
            "[\"ctl\u{1}\"]",
            r#"["a""#,
            "[",
        ];
        for doc in docs {
            for depth in [0, 1, 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
                let nested = "[".repeat(depth) + doc + &"]".repeat(depth);
                let got = read(&nested, depth, via_cells);
                assert_eq!(
                    got,
                    read(&nested, depth, via_array),
                    "{doc} at depth {depth}"
                );
                match got {
                    Err(e) => assert_eq!(Json::parse(&nested).unwrap_err(), e, "{doc}"),
                    Ok(_) => assert!(Json::parse(&nested).is_ok(), "{doc}"),
                }
            }
        }
        for not_an_array in ["{}", r#""a""#, "7", "null"] {
            let got = read(not_an_array, 0, via_cells).unwrap_err();
            assert_eq!(got, read(not_an_array, 0, via_array).unwrap_err());
            assert_eq!(got.message, "expected an array");
        }
        // Strings past the bound fail; an empty array there does not.
        let at_bound = |inner: &str| "[".repeat(MAX_DEPTH) + inner + &"]".repeat(MAX_DEPTH);
        assert_eq!(
            read(&at_bound(r#"["a"]"#), MAX_DEPTH, via_cells)
                .unwrap_err()
                .message,
            "document nested too deeply"
        );
        assert_eq!(
            read(&at_bound("[]"), MAX_DEPTH, via_cells),
            Ok((vec![], true))
        );
        assert_eq!(
            read(r#"["a", 7, "b", null]"#, 0, via_cells),
            Ok((vec![Some("a".to_owned())], false)),
            "no cell is handed out after an element of another kind"
        );
    }

    #[test]
    fn writers_print_what_display_prints() {
        for s in ["", "plain", "q\"b\\s\n\r\t\u{1}\u{1f}\u{7f}", "é😀名"] {
            let mut out = String::new();
            write_string(&mut out, s).unwrap();
            assert_eq!(out, Json::from(s).to_string());
            assert_eq!(Json::parse(&out).unwrap().as_str(), Some(s));
        }
        for x in [
            0.0,
            -0.0,
            3.0,
            0.1,
            1e15,
            1e300,
            f64::NAN,
            f64::NEG_INFINITY,
        ] {
            let mut out = String::new();
            write_float(&mut out, x).unwrap();
            assert_eq!(out, Json::Float(x).to_string());
        }
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
