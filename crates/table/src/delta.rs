//! Column/table deltas between two crawls of the same table.
//!
//! The production setting the paper targets is a catalog repeatedly
//! recrawling slowly changing warehouses: between two crawls most
//! columns are byte-identical and the rest usually just grew by a few
//! rows. A [`ColumnDelta`] classifies one column's change against a
//! base crawl — unchanged, appended rows, truncated rows, or rewritten
//! — plus whether the header moved, and a [`TableDelta`] wraps one
//! delta per column. Downstream, the annotation pipeline uses deltas
//! twice:
//!
//! * **recrawl fingerprints** — where a base column is an unchanged or
//!   appended prefix of its new column under the same header, the
//!   base's content hash is read off the new column's hashing pass
//!   instead of hashing the base's cells again;
//! * **sensitivity-gated step reuse** — a step whose input signal
//!   moved less than its threshold (see [`ColumnDelta::movement`])
//!   reuses the base crawl's cached scores instead of re-running.

use crate::column::Column;
use crate::table::Table;
use crate::value::Value;
use std::fmt::{self, Write as _};

/// How one column's values changed relative to a base crawl.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnDeltaKind {
    /// Byte-identical values.
    Unchanged,
    /// The base values are a strict prefix of the new ones; `values`
    /// holds the appended suffix.
    Appended {
        /// The rows appended after the base crawl's last row.
        values: Vec<Value>,
    },
    /// The new values are a strict prefix of the base ones.
    Truncated {
        /// How many trailing rows were removed.
        removed: usize,
    },
    /// Anything else — in-place edits, reorders, or wholesale
    /// replacement. No incremental structure to exploit.
    Rewritten,
}

/// One column's change between two crawls: the value-level
/// [`ColumnDeltaKind`] plus whether the header moved.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDelta {
    /// The value-level change.
    pub kind: ColumnDeltaKind,
    /// Did the header change? Header-sensitive signals (header match,
    /// embedding context) see a completely different input, so a
    /// header change always reads as infinite [`movement`].
    ///
    /// [`movement`]: ColumnDelta::movement
    pub header_changed: bool,
    base_len: usize,
    new_len: usize,
    /// Character-class drift of the appended suffix against the base
    /// values (L1 distance of the class fractions, in `[0, 2]`); `0`
    /// for non-append deltas.
    drift: f64,
}

/// Counts of ASCII-digit / letter / whitespace / other characters in
/// the values and text given to it. ASCII text is counted with one add
/// per byte into four 16-bit lanes of `packed`, which move into
/// `counts` before a lane could overflow.
#[derive(Default)]
struct CharClassCounts {
    counts: [usize; 4],
    packed: u64,
    /// Bytes counted into `packed` since it was last emptied.
    pending: usize,
}

/// The most bytes one 16-bit lane of `CharClassCounts::packed` holds.
const LANE_MAX: usize = u16::MAX as usize;

/// Per ASCII byte, a one in the 16-bit lane of its class: digit (lane
/// 0), letter (1), whitespace (2) or other (3).
const ASCII_LANES: [u64; 128] = {
    let mut lanes = [0u64; 128];
    let mut b = 0;
    while b < 128 {
        let slot = match b as u8 {
            b'0'..=b'9' => 0,
            b'a'..=b'z' | b'A'..=b'Z' => 1,
            b' ' | b'\t'..=b'\r' => 2,
            _ => 3,
        };
        lanes[b] = 1 << (16 * slot);
        b += 1;
    }
    lanes
};

impl CharClassCounts {
    /// Count `v` as its `Display` rendering would, without building
    /// it: text as itself, integers, booleans and dates by their digit
    /// and letter counts, floats through `Display`.
    fn add(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Text(s) => self.write_str(s).expect("counting characters cannot fail"),
            Value::Int(i) => {
                self.counts[0] += decimal_digits(i.unsigned_abs());
                self.counts[3] += usize::from(*i < 0);
            }
            Value::Bool(b) => self.counts[1] += if *b { 4 } else { 5 },
            Value::Date(d) => {
                // `{:04}-{:02}-{:02}`: the year's sign takes one of its
                // four places; month and day always print two digits.
                let year = decimal_digits(d.year.unsigned_abs().into());
                self.counts[0] += year.max(if d.year < 0 { 3 } else { 4 }) + 4;
                self.counts[3] += 2 + usize::from(d.year < 0);
            }
            v => write!(self, "{v}").expect("counting characters cannot fail"),
        }
    }

    /// `base == new`, with `base` counted when they are equal (and
    /// perhaps when they are not: a caller that sees `false` drops the
    /// counts). Two text cells are compared and counted in one pass
    /// over their bytes.
    fn count_if_equal(&mut self, base: &Value, new: &Value) -> bool {
        let (Value::Text(x), Value::Text(y)) = (base, new) else {
            self.add(base);
            return base == new;
        };
        if x.len() != y.len() {
            return false;
        }
        if x.len() <= LANE_MAX - self.pending {
            let (mut packed, mut diff, mut high) = (0u64, 0u8, 0u8);
            for (&p, &q) in x.as_bytes().iter().zip(y.as_bytes()) {
                packed += ASCII_LANES[usize::from(p & 0x7f)];
                diff |= p ^ q;
                high |= p;
            }
            if diff != 0 {
                return false;
            }
            if high < 0x80 {
                self.packed += packed;
                self.pending += x.len();
                return true;
            }
        } else if x != y {
            return false;
        }
        self.write_str(x).expect("counting characters cannot fail");
        true
    }

    fn add_ascii(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(LANE_MAX) {
            if self.pending + chunk.len() > LANE_MAX {
                self.empty_lanes();
            }
            self.packed = chunk
                .iter()
                .fold(self.packed, |acc, &b| acc + ASCII_LANES[usize::from(b)]);
            self.pending += chunk.len();
        }
    }

    fn empty_lanes(&mut self) {
        for (slot, count) in self.counts.iter_mut().enumerate() {
            *count += usize::from((self.packed >> (16 * slot)) as u16);
        }
        self.packed = 0;
        self.pending = 0;
    }

    /// The four counts as fractions of their total (zeros when empty).
    fn fractions(mut self) -> [f64; 4] {
        self.empty_lanes();
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.counts.map(|c| c as f64 / total as f64)
    }
}

impl fmt::Write for CharClassCounts {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.is_ascii() {
            self.add_ascii(s.as_bytes());
            return Ok(());
        }
        for c in s.chars() {
            // ASCII answers first; the Unicode tests decide the rest.
            let slot = match c {
                '0'..='9' => 0,
                'a'..='z' | 'A'..='Z' => 1,
                ' ' | '\t'..='\r' => 2,
                c if c.is_ascii() => 3,
                c if c.is_alphabetic() => 1,
                c if c.is_whitespace() => 2,
                _ => 3,
            };
            self.counts[slot] += 1;
        }
        Ok(())
    }
}

/// Fractions of ASCII-digit / letter / whitespace / other characters
/// over the rendered non-null values — a four-number sketch of what
/// the value-shape signals (regex bank, char features) consume.
fn char_class_fractions(values: &[Value]) -> [f64; 4] {
    let mut counts = CharClassCounts::default();
    for v in values {
        counts.add(v);
    }
    counts.fractions()
}

fn decimal_digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

fn null_fraction(values: &[Value]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|v| v.is_null()).count() as f64 / values.len() as f64
}

impl ColumnDelta {
    /// Diff `new` against `base`.
    ///
    /// The comparison is a prefix scan — one pass over the shared
    /// rows, cheaper than hashing them — and for appends it also
    /// sketches the character-class drift of the appended suffix so
    /// [`movement`](ColumnDelta::movement) reflects *what* was
    /// appended, not just how much. When the new column is longer, the
    /// base's character classes are counted in the same pass.
    #[must_use]
    pub fn between(base: &Column, new: &Column) -> Self {
        let header_changed = base.name != new.name;
        let (base_len, new_len) = (base.len(), new.len());
        // A possible append needs the base's character classes for its
        // drift: they are counted in the pass that compares the base
        // with the new column's prefix.
        let (prefix_equal, base_counts) = if new_len > base_len {
            let mut counts = CharClassCounts::default();
            let equal = base
                .values
                .iter()
                .zip(&new.values)
                .all(|(b, n)| counts.count_if_equal(b, n));
            (equal, Some(counts))
        } else {
            (base.values[..new_len] == new.values[..new_len], None)
        };
        let kind = if !prefix_equal {
            ColumnDeltaKind::Rewritten
        } else if new_len == base_len {
            ColumnDeltaKind::Unchanged
        } else if new_len > base_len {
            ColumnDeltaKind::Appended {
                values: new.values[base_len..].to_vec(),
            }
        } else {
            ColumnDeltaKind::Truncated {
                removed: base_len - new_len,
            }
        };
        let drift = match (&kind, base_counts) {
            (ColumnDeltaKind::Appended { values }, Some(base_counts)) => {
                let base_frac = base_counts.fractions();
                let app_frac = char_class_fractions(values);
                base_frac
                    .iter()
                    .zip(&app_frac)
                    .map(|(b, a)| (b - a).abs())
                    .sum()
            }
            _ => 0.0,
        };
        ColumnDelta {
            kind,
            header_changed,
            base_len,
            new_len,
            drift,
        }
    }

    /// `true` when nothing changed at all (values byte-identical,
    /// header identical) — the only delta with zero
    /// [`movement`](ColumnDelta::movement).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind == ColumnDeltaKind::Unchanged && !self.header_changed
    }

    /// Row count of the base crawl's column.
    #[must_use]
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Row count of the new crawl's column.
    #[must_use]
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The appended suffix, when this is an append delta.
    #[must_use]
    pub fn appended(&self) -> Option<&[Value]> {
        match &self.kind {
            ColumnDeltaKind::Appended { values } => Some(values),
            _ => None,
        }
    }

    /// How far the column's annotation-relevant signals moved, as a
    /// dimensionless score:
    ///
    /// * `0.0` **exactly and only** for an empty delta — the
    ///   guarantee that makes a sensitivity threshold of `0` collapse
    ///   to full recomputation (any real change has positive
    ///   movement, so nothing is ever reused that an exact cache hit
    ///   would not also have served);
    /// * `+∞` for header changes and rewrites — no incremental
    ///   structure, always recompute;
    /// * for appends/truncations, the maximum of the growth fraction
    ///   (changed rows over the larger crawl), the null-fraction
    ///   shift, and the growth-weighted character-class drift of the
    ///   appended suffix.
    #[must_use]
    pub fn movement(&self) -> f64 {
        if self.header_changed {
            return f64::INFINITY;
        }
        match &self.kind {
            ColumnDeltaKind::Unchanged => 0.0,
            ColumnDeltaKind::Rewritten => f64::INFINITY,
            ColumnDeltaKind::Appended { values } => {
                let grow = values.len() as f64 / self.new_len.max(1) as f64;
                let null_shift = {
                    let appended_nulls = null_fraction(values);
                    // The appended slice dilutes the base null
                    // fraction by at most its own mass.
                    grow * appended_nulls
                };
                grow.max(null_shift).max(grow * self.drift)
            }
            ColumnDeltaKind::Truncated { removed } => *removed as f64 / self.base_len.max(1) as f64,
        }
    }

    /// Materialize the column this delta produces when applied to
    /// `base`. The inverse of [`between`](ColumnDelta::between):
    /// `ColumnDelta::between(&b, &n).apply(&b)` reconstructs `n` for
    /// every kind except [`Rewritten`](ColumnDeltaKind::Rewritten),
    /// which returns `None` (the delta does not carry the new
    /// values).
    #[must_use]
    pub fn apply(&self, base: &Column) -> Option<Column> {
        if self.header_changed {
            return None;
        }
        let mut values = base.values.clone();
        match &self.kind {
            ColumnDeltaKind::Unchanged => {}
            ColumnDeltaKind::Appended { values: app } => values.extend(app.iter().cloned()),
            ColumnDeltaKind::Truncated { removed } => {
                values.truncate(values.len().saturating_sub(*removed));
            }
            ColumnDeltaKind::Rewritten => return None,
        }
        Some(Column::new(base.name.clone(), values))
    }
}

/// One [`ColumnDelta`] per column between two crawls of the same
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDelta {
    /// Per-column deltas, in column order of the new crawl.
    pub columns: Vec<ColumnDelta>,
}

impl TableDelta {
    /// Diff `new` against `base`, column by positional index.
    ///
    /// Returns `None` when the column count changed — columns can no
    /// longer be matched positionally, so callers fall back to a full
    /// recomputation.
    #[must_use]
    pub fn between(base: &Table, new: &Table) -> Option<Self> {
        if base.n_cols() != new.n_cols() {
            return None;
        }
        Some(TableDelta {
            columns: base
                .columns()
                .iter()
                .zip(new.columns())
                .map(|(b, n)| ColumnDelta::between(b, n))
                .collect(),
        })
    }

    /// `true` when every column's delta is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.iter().all(ColumnDelta::is_empty)
    }

    /// Per-column [`ColumnDelta::movement`], in column order.
    #[must_use]
    pub fn movements(&self) -> Vec<f64> {
        self.columns.iter().map(ColumnDelta::movement).collect()
    }

    /// The largest per-column movement (0 for an empty table).
    #[must_use]
    pub fn max_movement(&self) -> f64 {
        self.movements().into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, vals: &[&str]) -> Column {
        Column::from_raw(name, vals)
    }

    #[test]
    fn classifies_unchanged_append_truncate_rewrite() {
        let base = col("c", &["a", "b", "c"]);
        let same = ColumnDelta::between(&base, &base.clone());
        assert_eq!(same.kind, ColumnDeltaKind::Unchanged);
        assert!(same.is_empty());
        assert_eq!(same.movement(), 0.0);

        let grown = col("c", &["a", "b", "c", "d"]);
        let d = ColumnDelta::between(&base, &grown);
        assert_eq!(d.appended().unwrap().len(), 1);
        assert!(d.movement() > 0.0 && d.movement().is_finite());
        assert_eq!(d.apply(&base).unwrap(), grown);

        let shrunk = col("c", &["a", "b"]);
        let d = ColumnDelta::between(&base, &shrunk);
        assert_eq!(d.kind, ColumnDeltaKind::Truncated { removed: 1 });
        assert!((d.movement() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.apply(&base).unwrap(), shrunk);

        let edited = col("c", &["a", "X", "c"]);
        let d = ColumnDelta::between(&base, &edited);
        assert_eq!(d.kind, ColumnDeltaKind::Rewritten);
        assert_eq!(d.movement(), f64::INFINITY);
        assert!(d.apply(&base).is_none());
    }

    #[test]
    fn header_change_is_infinite_movement() {
        let base = col("c", &["a"]);
        let renamed = col("d", &["a"]);
        let d = ColumnDelta::between(&base, &renamed);
        assert_eq!(d.kind, ColumnDeltaKind::Unchanged);
        assert!(d.header_changed);
        assert!(!d.is_empty());
        assert_eq!(d.movement(), f64::INFINITY);
        assert!(d.apply(&base).is_none());
    }

    #[test]
    fn movement_is_zero_only_for_empty_deltas() {
        // The sensitivity-0 bit-identity contract leans on this: any
        // real change must read as strictly positive movement.
        let base = col("c", &["a", "b"]);
        for new in [
            col("c", &["a", "b", ""]),  // appended null
            col("c", &["a", "b", "b"]), // appended duplicate
            col("c", &["a"]),           // truncated
            col("c", &["b", "a"]),      // reordered
            col("x", &["a", "b"]),      // renamed
        ] {
            let d = ColumnDelta::between(&base, &new);
            assert!(d.movement() > 0.0, "{new:?} must have positive movement");
        }
    }

    #[test]
    fn drifted_appends_move_more_than_homogeneous_ones() {
        let raw: Vec<String> = (0..100).map(|i| format!("value_{i}")).collect();
        let base = Column::from_raw("c", &raw);
        let mut same: Vec<String> = raw.clone();
        same.push("value_x".into());
        let mut odd: Vec<String> = raw.clone();
        odd.push("!!!###$$$%%%&&&***???".into());
        let homogeneous = ColumnDelta::between(&base, &Column::from_raw("c", &same));
        let drifted = ColumnDelta::between(&base, &Column::from_raw("c", &odd));
        assert!(drifted.movement() > homogeneous.movement());
    }

    /// The drift sketch, and so `movement()`, is bit-identical to the
    /// sketch as first written, which rendered every value to a fresh
    /// `String` — transcribed here literally, over every value type
    /// and the float forms `format_float` distinguishes.
    #[test]
    fn movement_matches_the_allocating_sketch_to_the_bit() {
        fn old_char_class_fractions(values: &[Value]) -> [f64; 4] {
            let mut counts = [0usize; 4];
            for v in values {
                if v.is_null() {
                    continue;
                }
                for c in v.render().chars() {
                    let slot = if c.is_ascii_digit() {
                        0
                    } else if c.is_alphabetic() {
                        1
                    } else if c.is_whitespace() {
                        2
                    } else {
                        3
                    };
                    counts[slot] += 1;
                }
            }
            let total: usize = counts.iter().sum();
            if total == 0 {
                return [0.0; 4];
            }
            counts.map(|c| c as f64 / total as f64)
        }
        /// `(drift, movement)`: movement reads the drift only when it
        /// exceeds 1, so the drift is compared on its own too.
        fn old_drift_and_movement(base: &Column, new: &Column) -> (f64, f64) {
            let values = &new.values[base.len()..];
            let base_frac = old_char_class_fractions(&base.values);
            let app_frac = old_char_class_fractions(values);
            let drift: f64 = base_frac
                .iter()
                .zip(&app_frac)
                .map(|(b, a)| (b - a).abs())
                .sum();
            let grow = values.len() as f64 / new.len().max(1) as f64;
            let null_shift = grow * null_fraction(values);
            (drift, grow.max(null_shift).max(grow * drift))
        }
        let pool = [
            Value::Null,
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(0),
            Value::Int(10),
            Value::Bool(false),
            Value::Text("\u{b}\u{85}\u{a0}\u{3000}٣ß!".into()),
            Value::Float(3.0),
            Value::Float(-0.0),
            Value::Float(2.5e-7),
            Value::Float(1e300),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Date(crate::value::Date::new(2021, 3, 4).unwrap()),
            Value::Date(crate::value::Date {
                year: -5,
                month: 12,
                day: 31,
            }),
            Value::Date(crate::value::Date {
                year: 12_345,
                month: 1,
                day: 9,
            }),
            Value::Date(crate::value::Date {
                year: -12_345,
                month: 1,
                day: 9,
            }),
            Value::Date(crate::value::Date {
                year: 7,
                month: 1,
                day: 9,
            }),
            Value::Text("Größe 名前 \t x".into()),
            Value::Text("a-b_c 12".into()),
            Value::Text(String::new()),
        ];
        let mut appends = 0;
        for split in 0..pool.len() {
            for extra in 1..=3 {
                let base = Column::new("c", pool[..split].to_vec());
                let mut grown = base.values.clone();
                grown.extend(
                    pool.iter()
                        .cycle()
                        .skip(split * 5 + extra)
                        .take(extra)
                        .cloned(),
                );
                let new = Column::new("c", grown);
                let d = ColumnDelta::between(&base, &new);
                if d.appended().is_none() {
                    // A NaN in the base is unequal to itself: a rewrite.
                    continue;
                }
                appends += 1;
                let (drift, movement) = old_drift_and_movement(&base, &new);
                assert_eq!(
                    (d.drift.to_bits(), d.movement().to_bits()),
                    (drift.to_bits(), movement.to_bits()),
                    "base {:?} + {:?}",
                    base.values,
                    d.appended()
                );
            }
        }
        assert!(appends >= 24, "only {appends} appends checked");
    }

    /// The packed ASCII lanes empty into the counts before any lane
    /// overflows, and the append path counts the base in the pass that
    /// compares it: cells longer than a lane holds, runs of one class
    /// past a lane's capacity, and a column whose cells pass that
    /// capacity many times over, mixed with non-ASCII text, give
    /// exactly the per-character sketch and drift.
    #[test]
    fn long_columns_sketch_exactly() {
        let per_char = |values: &[Value]| {
            let mut counts = [0usize; 4];
            for c in values
                .iter()
                .flat_map(|v| v.render().chars().collect::<Vec<_>>())
            {
                let slot = if c.is_ascii_digit() {
                    0
                } else if c.is_alphabetic() {
                    1
                } else if c.is_whitespace() {
                    2
                } else {
                    3
                };
                counts[slot] += 1;
            }
            let total: usize = counts.iter().sum();
            counts.map(|c| c as f64 / total as f64)
        };
        let mut values = vec![
            Value::Text("a1 -".repeat(3 * LANE_MAX / 4 + 7)),
            Value::Text("z".repeat(LANE_MAX + 10)),
            Value::Text("é ß 1".into()),
        ];
        values.extend((0..9_000).map(|_| Value::Text("abcdefgh".into())));
        for i in 0..40_000 {
            values.push(Value::Text(format!("tok{} item_{}\t", i % 13, i % 97)));
            if i % 997 == 0 {
                values.push(Value::Text("Größe 名前".into()));
                values.push(Value::Int(-i));
            }
        }
        let bits = |f: [f64; 4]| f.map(f64::to_bits);
        assert_eq!(bits(char_class_fractions(&values)), bits(per_char(&values)));
        assert_eq!(
            bits(char_class_fractions(&values[..1])),
            bits(per_char(&values[..1]))
        );
        let appended = [Value::Text("x 9".into()), Value::Text("ü".into())];
        let base = Column::new("c", values.clone());
        let mut grown = values;
        grown.extend(appended.iter().cloned());
        let d = ColumnDelta::between(&base, &Column::new("c", grown));
        assert_eq!(d.appended(), Some(&appended[..]));
        let drift: f64 = per_char(&base.values)
            .iter()
            .zip(&per_char(&appended))
            .map(|(b, a)| (b - a).abs())
            .sum();
        assert_eq!(d.drift.to_bits(), drift.to_bits());
    }

    #[test]
    fn table_delta_matches_columns_positionally() {
        let base = Table::new("t", vec![col("a", &["1", "2"]), col("b", &["x", "y"])]).unwrap();
        let new = Table::new(
            "t",
            vec![col("a", &["1", "2", "3"]), col("b", &["x", "y", "z"])],
        )
        .unwrap();
        let d = TableDelta::between(&base, &new).unwrap();
        assert_eq!(d.columns.len(), 2);
        assert!(!d.is_empty());
        assert!(d.movements().iter().all(|m| *m > 0.0 && m.is_finite()));
        assert!(d.max_movement() > 0.0);
        // Identical tables: empty delta, zero movement.
        let same = TableDelta::between(&base, &base.clone()).unwrap();
        assert!(same.is_empty());
        assert_eq!(same.max_movement(), 0.0);
        // Column-count changes defeat positional matching.
        let wider = Table::new("t", vec![col("a", &["1"])]).unwrap();
        assert!(TableDelta::between(&base, &wider).is_none());
    }
}
