//! Character-distribution features (Sherlock's largest feature group).
//!
//! For each character class we compute the per-value fraction, then
//! aggregate mean/std/min/max across the column — a scaled-down version
//! of Sherlock's 960-dim character statistics.

use std::sync::OnceLock;

/// A named character-class predicate.
pub type CharClass = (&'static str, fn(char) -> bool);

/// The tracked character classes, each a predicate over `char`.
pub const CHAR_CLASSES: &[CharClass] = &[
    ("digit", |c| c.is_ascii_digit()),
    ("lower", |c| c.is_ascii_lowercase()),
    ("upper", |c| c.is_ascii_uppercase()),
    ("space", |c| c.is_whitespace()),
    ("punct", |c| c.is_ascii_punctuation()),
    ("at", |c| c == '@'),
    ("dot", |c| c == '.'),
    ("dash", |c| c == '-'),
    ("slash", |c| c == '/'),
    ("colon", |c| c == ':'),
    ("hash", |c| c == '#'),
    ("plus", |c| c == '+'),
    ("comma", |c| c == ','),
    ("paren", |c| c == '(' || c == ')'),
    ("dollar", |c| c == '$' || c == '€' || c == '£'),
    ("percent", |c| c == '%'),
];

/// Aggregations per class: mean, std, min, max.
pub const AGGS_PER_CLASS: usize = 4;

// One bit per class in a `u16` mask.
const _: () = assert!(CHAR_CLASSES.len() <= 16);

/// Total dimensionality of [`char_features`].
#[must_use]
pub fn char_feature_dim() -> usize {
    CHAR_CLASSES.len() * AGGS_PER_CLASS
}

/// The classes `c` belongs to, bit `i` for `CHAR_CLASSES[i]`.
fn class_mask(c: char) -> u16 {
    CHAR_CLASSES
        .iter()
        .enumerate()
        .filter(|(_, (_, pred))| pred(c))
        .fold(0, |mask, (ci, _)| mask | 1 << ci)
}

/// [`class_mask`] of every ASCII character, evaluated once.
fn ascii_class_masks() -> &'static [u16; 128] {
    static MASKS: OnceLock<[u16; 128]> = OnceLock::new();
    MASKS.get_or_init(|| std::array::from_fn(|b| class_mask(char::from(b as u8))))
}

/// Compute aggregated character-class fractions over rendered values.
///
/// Returns a zero vector for an empty slice.
#[must_use]
pub fn char_features<S: AsRef<str>>(values: &[S]) -> Vec<f32> {
    let mut out = Vec::with_capacity(char_feature_dim());
    char_features_into(values, &mut out);
    out
}

/// [`char_features`], appended to `out`. One pass over each value's
/// characters counts its length and all 16 classes at once (a table
/// lookup per ASCII character); each class's per-value fraction is
/// `count / length`, 0 for an empty value.
pub(crate) fn char_features_into<S: AsRef<str>>(values: &[S], out: &mut Vec<f32>) {
    let n = values.len();
    if n == 0 {
        out.resize(out.len() + char_feature_dim(), 0.0);
        return;
    }
    let masks = ascii_class_masks();
    // Class-major: the fractions of class `ci` are `fractions[ci * n..][..n]`.
    let mut fractions = vec![0.0f64; CHAR_CLASSES.len() * n];
    for (vi, v) in values.iter().enumerate() {
        let mut counts = [0usize; CHAR_CLASSES.len()];
        let mut len = 0usize;
        for c in v.as_ref().chars() {
            len += 1;
            let mut mask = if c.is_ascii() {
                masks[c as usize]
            } else {
                class_mask(c)
            };
            while mask != 0 {
                counts[mask.trailing_zeros() as usize] += 1;
                mask &= mask - 1;
            }
        }
        if len == 0 {
            continue;
        }
        for (ci, count) in counts.into_iter().enumerate() {
            fractions[ci * n + vi] = count as f64 / len as f64;
        }
    }
    for fr in fractions.chunks_exact(n) {
        let mean = fr.iter().sum::<f64>() / n as f64;
        let var = fr.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let min = fr.iter().copied().fold(f64::INFINITY, f64::min);
        let max = fr.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.push(mean as f32);
        out.push(var.sqrt() as f32);
        out.push(min as f32);
        out.push(max as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_is_fixed() {
        assert_eq!(char_features(&["a"]).len(), char_feature_dim());
        assert_eq!(char_features::<&str>(&[]).len(), char_feature_dim());
    }

    #[test]
    fn email_lights_up_at_sign() {
        let f = char_features(&["a@b.com", "x@y.org"]);
        let at_idx = CHAR_CLASSES.iter().position(|(n, _)| *n == "at").unwrap();
        let mean_at = f[at_idx * AGGS_PER_CLASS];
        assert!(
            mean_at > 0.1,
            "emails should have @ fraction, got {mean_at}"
        );
        let plain = char_features(&["hello", "world"]);
        assert_eq!(plain[at_idx * AGGS_PER_CLASS], 0.0);
    }

    #[test]
    fn digit_fraction_hand_checked() {
        // "a1" → 0.5 digits; "12" → 1.0 digits.
        let f = char_features(&["a1", "12"]);
        let d = 0; // digit class is first
        assert!((f[d * AGGS_PER_CLASS] - 0.75).abs() < 1e-6); // mean
        assert!((f[d * AGGS_PER_CLASS + 2] - 0.5).abs() < 1e-6); // min
        assert!((f[d * AGGS_PER_CLASS + 3] - 1.0).abs() < 1e-6); // max
    }

    #[test]
    fn empty_values_do_not_poison() {
        let f = char_features(&["", "ab"]);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ascii_class_masks_agree_with_the_predicates() {
        for b in 0u8..128 {
            let c = char::from(b);
            for (ci, (name, pred)) in CHAR_CLASSES.iter().enumerate() {
                let bit = ascii_class_masks()[usize::from(b)] >> ci & 1 == 1;
                assert_eq!(bit, pred(c), "{c:?} in {name}");
            }
        }
    }

    #[test]
    fn distinct_types_get_distinct_signatures() {
        let emails = char_features(&["ann@x.com", "bob@y.org", "cat@z.net"]);
        let phones = char_features(&["555-010-9999", "415-555-0111"]);
        let diff: f32 = emails.iter().zip(&phones).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 0.5, "signatures too similar: {diff}");
    }
}
