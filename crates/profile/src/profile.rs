//! Column profiling: the statistical snapshot DPBD builds LFs from.

use tu_table::stats::{value_counts, NumericSummary};
use tu_table::{Column, DataType};

/// Character-composition fractions over a column's rendered values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CharComposition {
    /// Fraction of characters that are ASCII digits.
    pub digits: f64,
    /// Fraction that are letters.
    pub letters: f64,
    /// Fraction that are whitespace.
    pub whitespace: f64,
    /// Fraction that are punctuation/symbols.
    pub punctuation: f64,
}

impl CharComposition {
    /// Compute over rendered values.
    #[must_use]
    pub fn of<S: AsRef<str>>(values: &[S]) -> Self {
        let mut total = 0usize;
        let mut comp = CharComposition::default();
        for v in values {
            for c in v.as_ref().chars() {
                total += 1;
                if c.is_ascii_digit() {
                    comp.digits += 1.0;
                } else if c.is_alphabetic() {
                    comp.letters += 1.0;
                } else if c.is_whitespace() {
                    comp.whitespace += 1.0;
                } else {
                    comp.punctuation += 1.0;
                }
            }
        }
        if total > 0 {
            let t = total as f64;
            comp.digits /= t;
            comp.letters /= t;
            comp.whitespace /= t;
            comp.punctuation /= t;
        }
        comp
    }
}

/// Length statistics of rendered values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LengthStats {
    /// Minimum length in chars.
    pub min: usize,
    /// Maximum length in chars.
    pub max: usize,
    /// Mean length.
    pub mean: f64,
}

/// A full profile of one column — the reproduction of the paper's data
/// profiler step ("currently Great Expectations", §4.2).
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Dominant inferred data type.
    pub dtype: DataType,
    /// Number of cells.
    pub n: usize,
    /// Fraction of nulls.
    pub null_fraction: f64,
    /// Distinct fraction among non-nulls.
    pub distinct_fraction: f64,
    /// Numeric summary when the column is numeric.
    pub numeric: Option<NumericSummary>,
    /// Length stats of rendered non-null values.
    pub lengths: LengthStats,
    /// Character composition of rendered non-null values.
    pub chars: CharComposition,
    /// Most frequent rendered values with counts (top 10).
    pub top_values: Vec<(String, usize)>,
    /// Shannon entropy (bits) of the rendered values.
    pub entropy: f64,
}

impl ColumnProfile {
    /// Profile a column.
    #[must_use]
    pub fn of(column: &Column) -> Self {
        let rendered = column.rendered_values();
        let lengths = if rendered.is_empty() {
            LengthStats::default()
        } else {
            let lens: Vec<usize> = rendered.iter().map(|s| s.chars().count()).collect();
            LengthStats {
                min: *lens.iter().min().expect("nonempty"),
                max: *lens.iter().max().expect("nonempty"),
                mean: lens.iter().sum::<usize>() as f64 / lens.len() as f64,
            }
        };
        let mut top_values = value_counts(&rendered);
        top_values.truncate(10);
        ColumnProfile {
            dtype: column.inferred_type(),
            n: column.len(),
            null_fraction: column.null_fraction(),
            distinct_fraction: column.distinct_fraction(),
            numeric: {
                let nums = column.numeric_values();
                if nums.is_empty() {
                    None
                } else {
                    NumericSummary::of(&nums)
                }
            },
            lengths,
            chars: CharComposition::of(&rendered),
            entropy: tu_table::stats::entropy_of(&rendered),
            top_values,
        }
    }

    /// `true` when the column is (dominantly) numeric.
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        self.dtype.is_numeric()
    }

    /// `true` when the column looks like a key: nearly unique non-nulls.
    #[must_use]
    pub fn looks_like_key(&self) -> bool {
        self.distinct_fraction > 0.95 && self.null_fraction < 0.05 && self.n >= 10
    }

    /// `true` when the column looks categorical: few distinct values.
    #[must_use]
    pub fn looks_categorical(&self) -> bool {
        let non_null = (self.n as f64 * (1.0 - self.null_fraction)).round();
        non_null >= 10.0 && self.distinct_fraction <= 0.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Column {
        Column::from_raw("c", vals)
    }

    #[test]
    fn numeric_profile() {
        let p = ColumnProfile::of(&col(&["1", "2", "3", "4", ""]));
        assert_eq!(p.dtype, DataType::Int);
        assert_eq!(p.n, 5);
        assert!((p.null_fraction - 0.2).abs() < 1e-12);
        let s = p.numeric.unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(p.is_numeric());
    }

    #[test]
    fn text_profile() {
        let p = ColumnProfile::of(&col(&["alpha", "beta", "beta"]));
        assert_eq!(p.dtype, DataType::Text);
        assert!(p.numeric.is_none());
        assert_eq!(p.lengths.min, 4);
        assert_eq!(p.lengths.max, 5);
        assert_eq!(p.top_values[0], ("beta".to_string(), 2));
        assert!(p.chars.letters > 0.99);
    }

    #[test]
    fn char_composition() {
        let c = CharComposition::of(&["ab 1-"]);
        assert!((c.digits - 0.2).abs() < 1e-12);
        assert!((c.letters - 0.4).abs() < 1e-12);
        assert!((c.whitespace - 0.2).abs() < 1e-12);
        assert!((c.punctuation - 0.2).abs() < 1e-12);
        assert_eq!(CharComposition::of::<&str>(&[]), CharComposition::default());
    }

    #[test]
    fn key_and_categorical_detection() {
        let key_vals: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let p = ColumnProfile::of(&Column::from_raw("k", &key_vals));
        assert!(p.looks_like_key());
        assert!(!p.looks_categorical());

        let cat_vals: Vec<String> = (0..50)
            .map(|i| ["a", "b", "c"][i % 3].to_string())
            .collect();
        let p = ColumnProfile::of(&Column::from_raw("c", &cat_vals));
        assert!(p.looks_categorical());
        assert!(!p.looks_like_key());
    }

    #[test]
    fn empty_column() {
        let p = ColumnProfile::of(&Column::new("e", vec![]));
        assert_eq!(p.n, 0);
        assert_eq!(p.dtype, DataType::Null);
        assert!(p.numeric.is_none());
        assert_eq!(p.lengths, LengthStats::default());
        assert!(!p.looks_like_key());
    }

    #[test]
    fn entropy_reflects_diversity() {
        let uniform = ColumnProfile::of(&col(&["a", "b", "c", "d"]));
        let constant = ColumnProfile::of(&col(&["a", "a", "a", "a"]));
        assert!(uniform.entropy > constant.entropy);
        assert_eq!(constant.entropy, 0.0);
    }
}
