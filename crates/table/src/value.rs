//! Cell values and their dynamic types.
//!
//! A [`Value`] is the unit of data stored in a table cell. Values are
//! dynamically typed because real-world tables (the paper's "typical
//! database tables", §2.2) routinely mix representations within a column.

use std::fmt;

/// Dynamic type tag of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Missing / empty cell.
    Null,
    /// Signed 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// Calendar date.
    Date,
    /// Free-form text.
    Text,
}

impl DataType {
    /// `true` for `Int` and `Float`.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Human-readable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DataType::Null => "null",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Date => "date",
            DataType::Text => "text",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A calendar date (proleptic Gregorian), day precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    /// Four-digit year.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day of month 1..=31 (validated against the month).
    pub day: u8,
}

impl Date {
    /// Construct a validated date; `None` when out of range.
    #[must_use]
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Days since 1970-01-01 (may be negative).
    #[must_use]
    pub fn to_epoch_days(self) -> i64 {
        // Howard Hinnant's `days_from_civil` algorithm.
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (i64::from(self.month) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + i64::from(self.day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Inverse of [`Date::to_epoch_days`].
    #[must_use]
    pub fn from_epoch_days(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = doy - (153 * mp + 2) / 5 + 1;
        let m = if mp < 10 { mp + 3 } else { mp - 9 };
        let y = y + i64::from(m <= 2);
        Date {
            year: y as i32,
            month: m as u8,
            day: d as u8,
        }
    }

    /// Parse `YYYY-MM-DD`, `YYYY/MM/DD`, `MM/DD/YYYY`, or `DD.MM.YYYY`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let bytes = s.as_bytes();
        // ISO: YYYY-MM-DD or YYYY/MM/DD
        if s.len() == 10 && (bytes[4] == b'-' || bytes[4] == b'/') && bytes[7] == bytes[4] {
            let y: i32 = s[0..4].parse().ok()?;
            let m: u8 = s[5..7].parse().ok()?;
            let d: u8 = s[8..10].parse().ok()?;
            return Date::new(y, m, d);
        }
        // US: MM/DD/YYYY
        if s.len() == 10 && bytes[2] == b'/' && bytes[5] == b'/' {
            let m: u8 = s[0..2].parse().ok()?;
            let d: u8 = s[3..5].parse().ok()?;
            let y: i32 = s[6..10].parse().ok()?;
            return Date::new(y, m, d);
        }
        // EU: DD.MM.YYYY
        if s.len() == 10 && bytes[2] == b'.' && bytes[5] == b'.' {
            let d: u8 = s[0..2].parse().ok()?;
            let m: u8 = s[3..5].parse().ok()?;
            let y: i32 = s[6..10].parse().ok()?;
            return Date::new(y, m, d);
        }
        None
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// `true` when `year` is a leap year (proleptic Gregorian).
#[must_use]
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
#[must_use]
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A dynamically typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / empty cell.
    Null,
    /// Signed integer.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Calendar date.
    Date(Date),
    /// Free-form text.
    Text(String),
}

impl Value {
    /// The dynamic type of this value.
    #[must_use]
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Bool(_) => DataType::Bool,
            Value::Date(_) => DataType::Date,
            Value::Text(_) => DataType::Text,
        }
    }

    /// `true` when the value is `Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats as `f64`, everything else `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view (only `Text` values).
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value the way it would appear in a CSV cell.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Bool(b) => b.to_string(),
            Value::Date(d) => d.to_string(),
            Value::Text(s) => s.clone(),
        }
    }

    /// Parse a raw string cell into the most specific [`Value`].
    ///
    /// Inference order: empty → `Null`, then `Int`, `Float`, `Bool`
    /// (true/false, case-insensitive), `Date`, falling back to `Text`.
    /// The cell is trimmed of Unicode whitespace first. One pass over
    /// its bytes decides which number parse can succeed: a digit
    /// string goes to `i64` (and to `f64` only past `i64`'s range), a
    /// decimal or exponent straight to `f64`, anything else to neither.
    #[must_use]
    pub fn infer(raw: &str) -> Value {
        let t = trim(raw);
        // Every form tried below starts with a digit, a sign, a dot, or
        // an ASCII `n`, `t` or `f` in either case; any other first
        // character is text, so most free-text cells skip the checks.
        let Some(&first) = t.as_bytes().first() else {
            return Value::Null;
        };
        let letter = first.is_ascii_alphabetic()
            && !matches!(first.to_ascii_lowercase(), b'n' | b't' | b'f');
        if letter || !first.is_ascii() {
            return Value::Text(t.to_owned());
        }
        if t.eq_ignore_ascii_case("null")
            || t.eq_ignore_ascii_case("na")
            || t.eq_ignore_ascii_case("n/a")
            || t.eq_ignore_ascii_case("none")
        {
            return Value::Null;
        }
        if let Some(shape) = number_shape(t) {
            if shape == NumberShape::Int {
                if let Ok(i) = t.parse::<i64>() {
                    return Value::Int(i);
                }
            }
            // A decimal or exponent, or a digit string past `i64`'s
            // range (which `f64` always parses).
            if let Ok(f) = t.parse::<f64>() {
                return Value::Float(f);
            }
        }
        if t.eq_ignore_ascii_case("true") {
            return Value::Bool(true);
        }
        if t.eq_ignore_ascii_case("false") {
            return Value::Bool(false);
        }
        if let Some(d) = Date::parse(t) {
            return Value::Date(d);
        }
        Value::Text(t.to_owned())
    }
}

/// `raw.trim()`, without its scan when both ends are ASCII and not
/// whitespace (the common cell), since then it returns `raw` itself.
fn trim(raw: &str) -> &str {
    // `char::is_whitespace` on ASCII: space and `\t` through `\r`
    // (vertical tab included, unlike `u8::is_ascii_whitespace`).
    let kept = |b: u8| b.is_ascii() && b != b' ' && !(b'\t'..=b'\r').contains(&b);
    match (raw.as_bytes().first(), raw.as_bytes().last()) {
        (Some(&first), Some(&last)) if kept(first) && kept(last) => raw,
        _ => raw.trim(),
    }
}

/// Which number parse a trimmed cell can pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumberShape {
    /// `[+-]?[0-9]+`: exactly the strings `i64::from_str` reads (when
    /// in range).
    Int,
    /// Any other cell of the number rules below; `f64::from_str` may
    /// still refuse it (`1e`).
    Float,
}

/// One pass over `t`'s bytes under the number rules: an optional sign,
/// then digits with at most one `.` before an optional exponent (`e`
/// or `E` after a digit, optionally signed), and at least one digit.
/// Those rules keep out what `f64::from_str` accepts but tables rarely
/// mean as numbers (`nan`, `inf`, `infinity`). `None` also for a digit
/// string with a leading zero and no `.` (`00156`, `-01`, `0e5`): a zip
/// code or identifier whose zeros are meaningful, not the number 156.
fn number_shape(t: &str) -> Option<NumberShape> {
    let bytes = t.as_bytes();
    let body = match bytes.first() {
        Some(b'+' | b'-') => &bytes[1..],
        _ => bytes,
    };
    let (mut digits, mut dot, mut exp) = (0usize, false, false);
    let mut i = 0;
    while let Some(&b) = body.get(i) {
        match b {
            b'0'..=b'9' => digits += 1,
            b'.' if !dot && !exp => dot = true,
            b'e' | b'E' if digits > 0 && !exp => {
                exp = true;
                if matches!(body.get(i + 1), Some(b'+' | b'-')) {
                    i += 1;
                }
            }
            _ => return None,
        }
        i += 1;
    }
    let leading_zero = body.len() > 1 && body[0] == b'0' && !dot;
    if digits == 0 || leading_zero {
        None
    } else if dot || exp {
        Some(NumberShape::Float)
    } else {
        Some(NumberShape::Int)
    }
}

/// Writes exactly what [`Value::render`] returns, without allocating.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write_float(f, *x),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

/// Format a float without trailing noise: integers render with one decimal
/// (`3.0`) so the type stays recoverable on re-parse.
#[must_use]
pub fn format_float(f: f64) -> String {
    let mut out = String::new();
    write_float(&mut out, f).expect("writing into a String cannot fail");
    out
}

fn write_float(out: &mut impl fmt::Write, f: f64) -> fmt::Result {
    if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
        write!(out, "{f:.1}")
    } else {
        write!(out, "{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text fast path at the top of `infer`, the trim fast path and
    /// the one-pass number shape change no answer: the rules as they
    /// stood before them, transcribed, agree on cells of every first
    /// character and shape.
    #[test]
    fn infer_fast_path_matches_the_full_rules() {
        fn looks_like_number(s: &str) -> bool {
            let mut chars = s.chars().peekable();
            if matches!(chars.peek(), Some('+' | '-')) {
                chars.next();
            }
            let mut digits = 0usize;
            let mut dots = 0usize;
            let mut exp = false;
            while let Some(c) = chars.next() {
                match c {
                    '0'..='9' => digits += 1,
                    '.' if dots == 0 && !exp => dots += 1,
                    'e' | 'E' if digits > 0 && !exp => {
                        exp = true;
                        if matches!(chars.peek(), Some('+' | '-')) {
                            chars.next();
                        }
                    }
                    _ => return false,
                }
            }
            digits > 0
        }
        fn full_rules(raw: &str) -> Value {
            let t = raw.trim();
            if t.is_empty()
                || t.eq_ignore_ascii_case("null")
                || t.eq_ignore_ascii_case("na")
                || t.eq_ignore_ascii_case("n/a")
                || t.eq_ignore_ascii_case("none")
            {
                return Value::Null;
            }
            let has_leading_zero = {
                let digits = t.strip_prefix(['+', '-']).unwrap_or(t);
                digits.len() > 1 && digits.starts_with('0') && !digits.contains('.')
            };
            if !has_leading_zero {
                if let Ok(i) = t.parse::<i64>() {
                    return Value::Int(i);
                }
                if looks_like_number(t) {
                    if let Ok(f) = t.parse::<f64>() {
                        return Value::Float(f);
                    }
                }
            }
            if t.eq_ignore_ascii_case("true") {
                return Value::Bool(true);
            }
            if t.eq_ignore_ascii_case("false") {
                return Value::Bool(false);
            }
            if let Some(d) = Date::parse(t) {
                return Value::Date(d);
            }
            Value::Text(t.to_owned())
        }
        let firsts = [
            "", " ", "\t", "a", "e", "E", "i", "z", "Q", "n", "N", "t", "T", "f", "F", "0", "1",
            "9", "+", "-", ".", "/", "@", "é", "名", "\u{a0}",
        ];
        let rests = [
            "",
            "ull",
            "ULL",
            "a",
            "/a",
            "one",
            "rue",
            "RUE",
            "alse",
            "ALSE",
            "nf",
            "aN",
            "5",
            "0",
            ".5",
            "e3",
            "1e-3",
            "021-03-04",
            "2/31/1999",
            "1.12.1999",
            "999-12-31",
            " x ",
            "00",
            "123456789012345678901",
            "x@y.org",
            "é",
            "-",
            "1.2.3",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..20_000 {
            let mut cell = String::from(firsts[next(firsts.len())]);
            for _ in 0..next(3) {
                cell.push_str(rests[next(rests.len())]);
            }
            if next(4) == 0 {
                cell.push(' ');
            }
            let (got, want) = (Value::infer(&cell), full_rules(&cell));
            match (&got, &want) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(got, want, "{cell:?}"),
            }
        }
    }

    #[test]
    fn infer_null_variants() {
        for raw in ["", "  ", "null", "NA", "n/a", "None", "NULL"] {
            assert_eq!(Value::infer(raw), Value::Null, "raw={raw:?}");
        }
    }

    #[test]
    fn infer_int_and_float() {
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-7"), Value::Int(-7));
        assert_eq!(Value::infer("3.25"), Value::Float(3.25));
        assert_eq!(Value::infer("1e3"), Value::Float(1000.0));
        assert_eq!(Value::infer("-0.5"), Value::Float(-0.5));
    }

    #[test]
    fn infer_rejects_number_lookalikes() {
        assert_eq!(Value::infer("nan"), Value::Text("nan".into()));
        assert_eq!(Value::infer("inf"), Value::Text("inf".into()));
        assert_eq!(Value::infer("1.2.3"), Value::Text("1.2.3".into()));
        assert_eq!(Value::infer("+"), Value::Text("+".into()));
    }

    #[test]
    fn infer_bool_and_date() {
        assert_eq!(Value::infer("TRUE"), Value::Bool(true));
        assert_eq!(Value::infer("false"), Value::Bool(false));
        assert_eq!(
            Value::infer("2021-09-11"),
            Value::Date(Date::new(2021, 9, 11).unwrap())
        );
    }

    #[test]
    fn infer_text_fallback() {
        assert_eq!(Value::infer(" hello "), Value::Text("hello".into()));
    }

    #[test]
    fn leading_zeros_stay_textual() {
        assert_eq!(Value::infer("00156"), Value::Text("00156".into()));
        assert_eq!(Value::infer("0123"), Value::Text("0123".into()));
        assert_eq!(Value::infer("0"), Value::Int(0));
        assert_eq!(Value::infer("-0"), Value::Int(0));
        assert_eq!(Value::infer("0.5"), Value::Float(0.5));
        assert_eq!(Value::infer("10"), Value::Int(10));
    }

    #[test]
    fn date_validation() {
        assert!(Date::new(2021, 2, 29).is_none());
        assert!(Date::new(2020, 2, 29).is_some());
        assert!(Date::new(2021, 13, 1).is_none());
        assert!(Date::new(2021, 0, 1).is_none());
        assert!(Date::new(2021, 4, 31).is_none());
    }

    #[test]
    fn date_parse_formats() {
        let d = Date::new(1999, 12, 31).unwrap();
        assert_eq!(Date::parse("1999-12-31"), Some(d));
        assert_eq!(Date::parse("1999/12/31"), Some(d));
        assert_eq!(Date::parse("12/31/1999"), Some(d));
        assert_eq!(Date::parse("31.12.1999"), Some(d));
        assert_eq!(Date::parse("31-12-1999"), None);
        assert_eq!(Date::parse("1999-13-31"), None);
    }

    #[test]
    fn date_epoch_roundtrip() {
        for (y, m, d) in [(1970, 1, 1), (2000, 2, 29), (1969, 12, 31), (2024, 6, 8)] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(Date::from_epoch_days(date.to_epoch_days()), date);
        }
        assert_eq!(Date::new(1970, 1, 1).unwrap().to_epoch_days(), 0);
        assert_eq!(Date::new(1970, 1, 2).unwrap().to_epoch_days(), 1);
        assert_eq!(Date::new(1969, 12, 31).unwrap().to_epoch_days(), -1);
    }

    #[test]
    fn render_roundtrips_through_infer() {
        let vals = [
            Value::Int(5),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Date(Date::new(2021, 9, 11).unwrap()),
            Value::Text("plain".into()),
            Value::Null,
        ];
        for v in vals {
            assert_eq!(Value::infer(&v.render()), v);
        }
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(2023));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(format_float(3.0), "3.0");
        assert_eq!(format_float(3.25), "3.25");
    }

    #[test]
    fn value_views() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
    }
}
