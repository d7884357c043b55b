//! Descriptive statistics over slices and columns.
//!
//! These are the numeric primitives behind the profiler (`tu-profile`)
//! and the Sherlock-style feature extractor (`tu-features`).

/// Summary statistics of a numeric sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericSummary {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Median (linear-interpolated).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Skewness (0 for degenerate samples).
    pub skewness: f64,
    /// Excess kurtosis (0 for degenerate samples).
    pub kurtosis: f64,
}

impl NumericSummary {
    /// Compute a summary; `None` for an empty sample or non-finite data.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let count = values.len();
        let (mean, std) = mean_and_std(|| values.iter().copied());
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (skewness, kurtosis) = if std > 1e-12 {
            let m3 = values
                .iter()
                .map(|v| ((v - mean) / std).powi(3))
                .sum::<f64>()
                / count as f64;
            let m4 = values
                .iter()
                .map(|v| ((v - mean) / std).powi(4))
                .sum::<f64>()
                / count as f64;
            (m3, m4 - 3.0)
        } else {
            (0.0, 0.0)
        };
        Some(NumericSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            std,
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            skewness,
            kurtosis,
        })
    }
}

/// Linear-interpolated quantile of a **sorted** sample; `q` clamped to `[0, 1]`.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Shannon entropy (bits) of a discrete sample given per-item counts.
#[must_use]
pub fn entropy_from_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy (bits) of rendered string items, summed over the
/// distinct items in first-occurrence order, so equal inputs give equal
/// bits on every call.
#[must_use]
pub fn entropy_of<S: AsRef<str>>(items: &[S]) -> f64 {
    entropy_from_counts(&first_seen_counts(items.iter().map(AsRef::as_ref)))
}

/// How often each distinct item occurs, in the order the items first
/// occur: one count per distinct item, so the length is the distinct
/// count.
#[must_use]
pub fn first_seen_counts<'a>(items: impl IntoIterator<Item = &'a str>) -> Vec<usize> {
    let mut slots: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut counts: Vec<usize> = Vec::new();
    for it in items {
        let slot = *slots.entry(it).or_insert_with(|| {
            counts.push(0);
            counts.len() - 1
        });
        counts[slot] += 1;
    }
    counts
}

/// Mean of a sample; `0.0` when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean and population standard deviation of a non-empty sample of
/// finite values, which `values` yields afresh on each call.
///
/// Finite values always give finite results. Where the plain sums stay
/// finite they are used, to the bit. Where the sum or a squared
/// deviation overflows (values past about `1e154`, such as long digit
/// ids read as floats), both are taken over the values divided by the
/// largest magnitude, then scaled back: a mean lies between the
/// smallest and the largest value, and a deviation is at most half
/// their distance, so neither overflows.
#[must_use]
pub fn mean_and_std<I: Iterator<Item = f64>>(values: impl Fn() -> I) -> (f64, f64) {
    let count = values().count() as f64;
    // Dividing by 1.0 is exact, so unscaled moments are the plain sums.
    let moments = |scale: f64| {
        let mean = values().map(|v| v / scale).sum::<f64>() / count;
        let var = values().map(|v| (v / scale - mean).powi(2)).sum::<f64>() / count;
        (mean, var)
    };
    let (mean, var) = moments(1.0);
    if mean.is_finite() && var.is_finite() {
        return (mean, var.sqrt());
    }
    let scale = values().fold(0.0, |m: f64, v| m.max(v.abs()));
    let (mean, var) = moments(scale);
    // The clamps only undo rounding, which could otherwise carry a
    // result next to `f64::MAX` past it.
    (mean.clamp(-1.0, 1.0) * scale, var.sqrt().min(1.0) * scale)
}

/// Population standard deviation; `0.0` when fewer than 2 items.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Histogram with `bins` equal-width buckets over `[min, max]`.
///
/// Returns per-bin counts; the final bin is right-closed. Degenerate ranges
/// put everything in bin 0.
#[must_use]
pub fn histogram(values: &[f64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    let mut counts = vec![0usize; bins];
    if values.is_empty() {
        return counts;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let width = hi - lo;
    for &v in values {
        let idx = if width <= 0.0 {
            0
        } else {
            (((v - lo) / width) * bins as f64).min(bins as f64 - 1.0) as usize
        };
        counts[idx] += 1;
    }
    counts
}

/// Frequency table of rendered items, most frequent first (ties by value).
#[must_use]
pub fn value_counts<S: AsRef<str>>(items: &[S]) -> Vec<(String, usize)> {
    let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for it in items {
        *counts.entry(it.as_ref().to_owned()).or_insert(0) += 1;
    }
    let mut v: Vec<(String, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_hand_checked() {
        let s = NumericSummary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
        assert!(s.skewness.abs() < 1e-12); // symmetric sample
    }

    #[test]
    fn summary_rejects_empty_and_nonfinite() {
        assert!(NumericSummary::of(&[]).is_none());
        assert!(NumericSummary::of(&[1.0, f64::NAN]).is_none());
        assert!(NumericSummary::of(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn summary_degenerate_constant() {
        let s = NumericSummary::of(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.std, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
    }

    #[test]
    fn quantiles() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 3.0);
        assert_eq!(quantile_sorted(&sorted, 2.0), 5.0); // clamped
    }

    #[test]
    fn entropy_cases() {
        assert_eq!(entropy_from_counts(&[]), 0.0);
        assert_eq!(entropy_from_counts(&[10]), 0.0);
        assert!((entropy_from_counts(&[1, 1]) - 1.0).abs() < 1e-12);
        assert!((entropy_of(&["a", "b", "c", "d"]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_of::<&str>(&[]), 0.0);
    }

    #[test]
    fn first_seen_counts_keep_first_occurrence_order() {
        assert_eq!(
            first_seen_counts(["b", "a", "b", "c", "a", "b"]),
            vec![3, 2, 1]
        );
        assert!(first_seen_counts([]).is_empty());
    }

    /// The sum runs over the distinct items in first-occurrence order,
    /// not in the order of a per-call hash map, so a skewed column gives
    /// one bit pattern however often it is asked.
    #[test]
    fn entropy_is_bit_stable_across_calls() {
        // Zipf-like: value k occurs 240 / (k + 1) times.
        let items: Vec<String> = (0..40u32)
            .flat_map(|k| std::iter::repeat_n(format!("value {k}"), (240 / (k + 1)) as usize))
            .collect();
        let first = entropy_of(&items).to_bits();
        for _ in 0..64 {
            assert_eq!(entropy_of(&items).to_bits(), first);
        }
        let counts = first_seen_counts(items.iter().map(String::as_str));
        assert_eq!(entropy_from_counts(&counts).to_bits(), first);
    }

    #[test]
    fn histogram_buckets() {
        // Half-open bins: [0, 0.5) and [0.5, 1.0]; 0.5 lands in bin 1.
        let h = histogram(&[0.0, 0.5, 1.0, 1.0], 2);
        assert_eq!(h, vec![1, 3]);
        assert_eq!(histogram(&[0.0, 0.4, 0.6, 1.0], 2), vec![2, 2]);
        assert_eq!(histogram(&[3.0, 3.0], 4), vec![2, 0, 0, 0]);
        assert_eq!(histogram(&[], 3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[1.0], 0);
    }

    #[test]
    fn value_counts_ordering() {
        let vc = value_counts(&["b", "a", "b", "c", "a", "b"]);
        assert_eq!(vc[0], ("b".to_string(), 3));
        assert_eq!(vc[1], ("a".to_string(), 2));
        assert_eq!(vc[2], ("c".to_string(), 1));
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((mean(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }
}
