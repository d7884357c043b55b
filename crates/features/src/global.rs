//! Global column statistics (Sherlock's "global statistics" group).

use std::fmt::Write as _;
use tu_table::stats::{entropy_from_counts, first_seen_counts, mean, mean_and_std, std_dev};
use tu_table::{Column, DataType, Value};

/// Number of features produced by [`global_features`].
pub const GLOBAL_FEATURE_DIM: usize = 18;

/// Every non-null value of a column, rendered once and in order: text
/// cells are borrowed from the column, the others written one after
/// another into a single buffer.
pub(crate) struct Rendered<'a> {
    buf: String,
    cells: Vec<Cell<'a>>,
}

enum Cell<'a> {
    Text(&'a str),
    /// A byte range of [`Rendered::buf`].
    Buf(usize, usize),
}

impl<'a> Rendered<'a> {
    pub(crate) fn of(column: &'a Column) -> Self {
        let mut buf = String::new();
        let cells = column
            .non_null()
            .map(|v| match v {
                Value::Text(s) => Cell::Text(s),
                other => {
                    let start = buf.len();
                    write!(buf, "{other}").expect("writing into a String cannot fail");
                    Cell::Buf(start, buf.len())
                }
            })
            .collect();
        Rendered { buf, cells }
    }

    /// Number of non-null values.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    /// What [`Value::render`] gives for the `i`-th non-null value.
    pub(crate) fn get(&self, i: usize) -> &str {
        match self.cells[i] {
            Cell::Text(s) => s,
            Cell::Buf(start, end) => &self.buf[start..end],
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Column-level statistical features: type fractions, nullness,
/// distinctness, entropy, length stats, numeric summary.
#[must_use]
pub fn global_features(column: &Column) -> Vec<f32> {
    let mut out = Vec::with_capacity(GLOBAL_FEATURE_DIM);
    global_features_into(column, &Rendered::of(column), &mut out);
    out
}

/// [`global_features`] over the column's values as `rendered` holds
/// them, appended to `out`. Each rendered value is read once for its
/// length, its leading zero and its slot in one count map, which gives
/// both the distinct count and the entropy (summed in first-occurrence
/// order); text cells are counted into word tokens without building
/// them.
pub(crate) fn global_features_into(column: &Column, rendered: &Rendered<'_>, out: &mut Vec<f32>) {
    let first = out.len();
    let n = column.len().max(1) as f64;
    let mut type_counts = [0usize; 6];
    for v in &column.values {
        let idx = match v.data_type() {
            DataType::Null => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Bool => 3,
            DataType::Date => 4,
            DataType::Text => 5,
        };
        type_counts[idx] += 1;
    }
    let mut lens: Vec<f64> = Vec::with_capacity(rendered.len());
    let mut leading_zeros = 0usize;
    for s in rendered.iter() {
        lens.push(s.chars().count() as f64);
        // Identifiers and zip codes keep their leading zeros.
        if s.len() > 1 && s.starts_with('0') {
            leading_zeros += 1;
        }
    }
    let counts = first_seen_counts(rendered.iter());
    let distinct_fraction = if rendered.len() == 0 {
        0.0
    } else {
        counts.len() as f64 / rendered.len() as f64
    };
    let (num_mean, num_std, num_min, num_max) = numeric_summary(column);
    // Compress magnitudes: signed log1p keeps scale info bounded.
    let slog = |v: f64| (v.signum() * (v.abs() + 1.0).ln()) as f32;
    for c in type_counts {
        out.push((c as f64 / n) as f32);
    }
    out.push(distinct_fraction as f32);
    out.push((column.len() as f64).ln_1p() as f32);
    out.push(mean(&lens) as f32 / 50.0);
    out.push(std_dev(&lens) as f32 / 50.0);
    out.push(entropy_from_counts(&counts) as f32 / 10.0);
    out.push(slog(num_mean));
    out.push(slog(num_std));
    out.push(slog(num_min));
    out.push(slog(num_max));
    // Token stats over text values.
    let token_counts: Vec<f64> = column
        .values
        .iter()
        .filter_map(Value::as_text)
        .map(|t| tu_text::word_count(t) as f64)
        .collect();
    out.push(mean(&token_counts) as f32 / 5.0);
    out.push(std_dev(&token_counts) as f32 / 5.0);
    out.push((leading_zeros as f64 / rendered.len().max(1) as f64) as f32);
    debug_assert_eq!(out.len() - first, GLOBAL_FEATURE_DIM);
}

/// Mean, standard deviation, minimum and maximum of the column's
/// numeric values, exactly as `tu_table::stats::NumericSummary` gives
/// them, without its sorted copy; zeros when there are none or one is
/// not finite. Its minimum is the first of the sorted copy and its
/// maximum the last, and the sort is stable, so of values that compare
/// equal (`0.0` and `-0.0`) the minimum is the first and the maximum
/// the last in column order. Finite values give a finite mean and
/// deviation (see [`mean_and_std`]).
fn numeric_summary(column: &Column) -> (f64, f64, f64, f64) {
    let nums = || column.values.iter().filter_map(Value::as_f64);
    let mut count = 0usize;
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in nums() {
        if !v.is_finite() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        if count == 0 || v < min {
            min = v;
        }
        if count == 0 || v >= max {
            max = v;
        }
        count += 1;
    }
    if count == 0 {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let (mean, std) = mean_and_std(nums);
    (mean, std, min, max)
}

/// Convenience: does the column parse mostly as `Value::Date`?
#[must_use]
pub fn date_fraction(column: &Column) -> f64 {
    if column.is_empty() {
        return 0.0;
    }
    let dates = column
        .values
        .iter()
        .filter(|v| matches!(v, Value::Date(_)))
        .count();
    dates as f64 / column.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_fixed_and_finite() {
        for vals in [vec!["1", "2"], vec![], vec!["", ""], vec!["a b c", "d"]] {
            let c = Column::from_raw("c", &vals);
            let f = global_features(&c);
            assert_eq!(f.len(), GLOBAL_FEATURE_DIM);
            assert!(f.iter().all(|v| v.is_finite()), "{vals:?} → {f:?}");
        }
    }

    #[test]
    fn type_fractions_lead() {
        let c = Column::from_raw("c", &["1", "2", "x", ""]);
        let f = global_features(&c);
        assert!((f[0] - 0.25).abs() < 1e-6); // null fraction
        assert!((f[1] - 0.5).abs() < 1e-6); // int fraction
        assert!((f[5] - 0.25).abs() < 1e-6); // text fraction
    }

    #[test]
    fn numeric_summary_encoded() {
        let a = global_features(&Column::from_raw("a", &["10", "20"]));
        let b = global_features(&Column::from_raw("b", &["100000", "200000"]));
        // Larger magnitudes must be visible in the slog features.
        assert!(b[11] > a[11]);
    }

    #[test]
    fn huge_finite_numbers_give_finite_features() {
        // A 160-digit id reads as a float near 1e159, whose squared
        // deviations overflow; values near 1e308 overflow the sum too.
        let id = |lead: char| format!("{lead}{}", "7".repeat(159));
        let ids = [id('1'), id('3'), id('9')];
        let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
        for vals in [
            ids,
            vec!["1e308", "1.5e308", "-1.7e308"],
            vec!["1.7e308"; 4],
        ] {
            let c = Column::from_raw("c", &vals);
            assert!(c
                .values
                .iter()
                .all(|v| v.as_f64().is_some_and(f64::is_finite)));
            let (mean, std, min, max) = numeric_summary(&c);
            assert!(mean.is_finite() && std.is_finite(), "{vals:?}");
            assert!((min..=max).contains(&mean), "{vals:?}: mean {mean}");
            assert!(
                std <= (max - min) / 2.0 * (1.0 + 1e-9),
                "{vals:?}: std {std}"
            );
            let f = global_features(&c);
            assert!(f.iter().all(|v| v.is_finite()), "{vals:?} → {f:?}");
        }
        let (mean, std, _, _) =
            numeric_summary(&Column::from_raw("c", &["1e300", "3e300", "-1e300"]));
        // Deviations 0, 2e300 and -2e300.
        assert!((mean / 1e300 - 1.0).abs() < 1e-12, "mean {mean}");
        assert!(
            (std / 1e300 - (8.0f64 / 3.0).sqrt()).abs() < 1e-12,
            "std {std}"
        );
    }

    #[test]
    fn leading_zeros_detected() {
        // Explicit Text values: `from_raw` would parse "01234" to Int 1234.
        let zip = global_features(&Column::new(
            "z",
            vec![Value::Text("01234".into()), Value::Text("00456".into())],
        ));
        let num = global_features(&Column::from_raw("n", &["1234", "456"]));
        assert!(zip[GLOBAL_FEATURE_DIM - 1] > 0.9);
        assert_eq!(num[GLOBAL_FEATURE_DIM - 1], 0.0);
    }

    #[test]
    fn numeric_summary_matches_the_sorted_summary() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(1.5)],
            vec![Value::Float(-0.0), Value::Float(0.0), Value::Int(0)],
            vec![
                Value::Int(3),
                Value::Null,
                Value::Float(-2.5),
                Value::Int(3),
            ],
            vec![Value::Float(f64::NAN), Value::Int(1)],
            vec![Value::Text("1".into())],
        ];
        for values in cases {
            let column = Column::new("n", values);
            let nums = column.numeric_values();
            let expected = tu_table::stats::NumericSummary::of(&nums)
                .map(|s| (s.mean, s.std, s.min, s.max))
                .unwrap_or((0.0, 0.0, 0.0, 0.0));
            let got = numeric_summary(&column);
            let bits = |(a, b, c, d): (f64, f64, f64, f64)| {
                [a.to_bits(), b.to_bits(), c.to_bits(), d.to_bits()]
            };
            assert_eq!(bits(got), bits(expected), "{:?}", column.values);
        }
    }

    #[test]
    fn rendered_values_match_render() {
        let column = Column::new(
            "r",
            vec![
                Value::Int(-4),
                Value::Null,
                Value::Float(3.0),
                Value::Text("x y".into()),
                Value::Bool(false),
                Value::Date(tu_table::Date::new(2020, 2, 29).unwrap()),
            ],
        );
        let rendered = Rendered::of(&column);
        assert_eq!(
            rendered.iter().collect::<Vec<_>>(),
            column.rendered_values()
        );
    }

    #[test]
    fn date_fraction_works() {
        let c = Column::from_raw("d", &["2020-01-01", "2020-02-02", "x"]);
        assert!((date_fraction(&c) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(date_fraction(&Column::new("e", vec![])), 0.0);
    }
}
