//! Columns: a named, ordered sequence of [`Value`]s.

use crate::value::{DataType, Value};

/// A named column of dynamically typed values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Header as it appears in the source table (raw, not normalized).
    pub name: String,
    /// Cell values, top to bottom.
    pub values: Vec<Value>,
}

impl Column {
    /// Create a column from a header and values.
    #[must_use]
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        Column {
            name: name.into(),
            values,
        }
    }

    /// Create a column by parsing raw string cells with [`Value::infer`].
    #[must_use]
    pub fn from_raw<S: AsRef<str>>(name: impl Into<String>, raw: &[S]) -> Self {
        Column {
            name: name.into(),
            values: raw.iter().map(|s| Value::infer(s.as_ref())).collect(),
        }
    }

    /// Number of cells (including nulls).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the column has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of null cells.
    #[must_use]
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// Fraction of null cells; `0.0` for an empty column.
    #[must_use]
    pub fn null_fraction(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.values.len() as f64
        }
    }

    /// The dominant non-null [`DataType`], breaking ties toward the more
    /// general type (`Text` > `Float` > `Int` > `Date` > `Bool`).
    ///
    /// Returns [`DataType::Null`] for empty or all-null columns. A column
    /// mixing `Int` and `Float` is promoted to `Float` when together they
    /// dominate, mirroring how database type inference widens numerics.
    #[must_use]
    pub fn inferred_type(&self) -> DataType {
        let mut counts = [0usize; 6];
        for v in &self.values {
            let idx = match v.data_type() {
                DataType::Null => continue,
                DataType::Bool => 0,
                DataType::Date => 1,
                DataType::Int => 2,
                DataType::Float => 3,
                DataType::Text => 4,
            };
            counts[idx] += 1;
        }
        let non_null: usize = counts.iter().sum();
        if non_null == 0 {
            return DataType::Null;
        }
        // Numeric widening: if int+float together dominate, call it numeric.
        let numeric = counts[2] + counts[3];
        let best_single = counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (*c, i))
            .map(|(i, _)| i)
            .unwrap_or(4);
        if numeric > counts[0] && numeric > counts[1] && numeric > counts[4] {
            return if counts[3] > 0 {
                DataType::Float
            } else {
                DataType::Int
            };
        }
        match best_single {
            0 => DataType::Bool,
            1 => DataType::Date,
            2 => DataType::Int,
            3 => DataType::Float,
            _ => DataType::Text,
        }
    }

    /// Iterator over non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = &Value> {
        self.values.iter().filter(|v| !v.is_null())
    }

    /// All numeric values as `f64` (ints widened).
    #[must_use]
    pub fn numeric_values(&self) -> Vec<f64> {
        self.values.iter().filter_map(Value::as_f64).collect()
    }

    /// All text values as `&str`.
    #[must_use]
    pub fn text_values(&self) -> Vec<&str> {
        self.values.iter().filter_map(Value::as_text).collect()
    }

    /// Rendered string form of every non-null value.
    #[must_use]
    pub fn rendered_values(&self) -> Vec<String> {
        self.non_null().map(Value::render).collect()
    }

    /// Deterministic sample of up to `n` non-null values, evenly strided.
    ///
    /// The lookup step of the pipeline matches "a sample of column values"
    /// (§4.3); a strided sample is deterministic and covers the column.
    #[must_use]
    pub fn sample(&self, n: usize) -> Vec<&Value> {
        let non_null: Vec<&Value> = self.non_null().collect();
        if non_null.len() <= n || n == 0 {
            return non_null;
        }
        Self::sample_positions(non_null.len(), n)
            .map(|i| non_null[i])
            .collect()
    }

    /// The positions, among a column's `non_null` non-null values, that
    /// [`Column::sample`] takes for `n`: all of them when
    /// `non_null <= n` or `n == 0`, else `n` evenly strided ones. For
    /// callers that keep the non-null values in a form of their own.
    pub fn sample_positions(non_null: usize, n: usize) -> impl Iterator<Item = usize> {
        let (count, stride) = if non_null <= n || n == 0 {
            (non_null, 1.0)
        } else {
            (n, non_null as f64 / n as f64)
        };
        (0..count).map(move |i| (i as f64 * stride) as usize)
    }

    /// Number of distinct rendered values (nulls excluded).
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for v in self.non_null() {
            seen.insert(v.render());
        }
        seen.len()
    }

    /// Distinct fraction: distinct / non-null count, `0.0` if all null.
    #[must_use]
    pub fn distinct_fraction(&self) -> f64 {
        let non_null = self.len() - self.null_count();
        if non_null == 0 {
            0.0
        } else {
            self.distinct_count() as f64 / non_null as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    fn col(vals: &[&str]) -> Column {
        Column::from_raw("c", vals)
    }

    #[test]
    fn from_raw_infers() {
        let c = col(&["1", "2", "x", ""]);
        assert_eq!(c.values[0], Value::Int(1));
        assert_eq!(c.values[2], Value::Text("x".into()));
        assert_eq!(c.values[3], Value::Null);
    }

    #[test]
    fn null_accounting() {
        let c = col(&["1", "", "3", ""]);
        assert_eq!(c.null_count(), 2);
        assert!((c.null_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(Column::new("e", vec![]).null_fraction(), 0.0);
    }

    #[test]
    fn inferred_type_majority() {
        assert_eq!(col(&["1", "2", "3"]).inferred_type(), DataType::Int);
        assert_eq!(col(&["1.5", "2", "3"]).inferred_type(), DataType::Float);
        assert_eq!(col(&["a", "b", "1"]).inferred_type(), DataType::Text);
        assert_eq!(col(&["", ""]).inferred_type(), DataType::Null);
        assert_eq!(
            col(&["2020-01-01", "2020-01-02", "7"]).inferred_type(),
            DataType::Date
        );
        assert_eq!(col(&["true", "false"]).inferred_type(), DataType::Bool);
    }

    #[test]
    fn numeric_widening_beats_text_minority() {
        // 2 ints + 2 floats vs 3 text: numeric wins 4 > 3.
        let c = col(&["1", "2", "1.5", "2.5", "a", "b", "c"]);
        assert_eq!(c.inferred_type(), DataType::Float);
    }

    #[test]
    fn numeric_and_text_views() {
        let c = col(&["1", "2.5", "x", ""]);
        assert_eq!(c.numeric_values(), vec![1.0, 2.5]);
        assert_eq!(c.text_values(), vec!["x"]);
        assert_eq!(c.rendered_values(), vec!["1", "2.5", "x"]);
    }

    #[test]
    fn sample_is_deterministic_and_covers() {
        let raw: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let c = Column::from_raw("c", &raw);
        let s = c.sample(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], &Value::Int(0));
        let s2 = c.sample(10);
        assert_eq!(s, s2);
        // Small columns return everything.
        assert_eq!(col(&["1", "2"]).sample(10).len(), 2);
        // n == 0 returns all non-null values rather than panicking.
        assert_eq!(col(&["1", "2"]).sample(0).len(), 2);
        // The positions describe the same picks.
        let non_null: Vec<&Value> = c.non_null().collect();
        for n in [0, 1, 7, 10, 99, 100, 150] {
            let picked: Vec<&Value> = Column::sample_positions(non_null.len(), n)
                .map(|i| non_null[i])
                .collect();
            assert_eq!(picked, c.sample(n), "n = {n}");
        }
    }

    #[test]
    fn distinct_counting() {
        let c = col(&["a", "b", "a", "", "b"]);
        assert_eq!(c.distinct_count(), 2);
        assert!((c.distinct_fraction() - 0.5).abs() < 1e-12);
        let dates = Column::new(
            "d",
            vec![
                Value::Date(Date::new(2020, 1, 1).unwrap()),
                Value::Date(Date::new(2020, 1, 1).unwrap()),
            ],
        );
        assert_eq!(dates.distinct_count(), 1);
    }
}
