//! Labeling functions: weak voters mapping a column to a semantic type.
//!
//! These are the LF shapes of paper Figure 3: numeric range (LF1), mean
//! range (LF2), co-occurring columns (LF3), header match (LF4), plus the
//! dictionary and synthesized-regex forms the lookup step uses.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashSet;
use tu_ontology::TypeId;
use tu_regex::Regex;
use tu_table::Column;
use tu_text::normalize_header;

/// Where an LF came from (global pretrained bank vs. customer-local DPBD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfSource {
    /// Shipped with the global model.
    Global,
    /// Inferred from this customer's feedback.
    Local,
}

/// Everything an LF may look at when voting on a column, computed once
/// per column and shared by every LF that votes on it: the column's
/// [`SAMPLE`]-value rendered sample, its lowercased form (on the first
/// dictionary vote), and the numeric values with their mean. A vote
/// reads only this context, so a bank of `n` LFs samples, renders and
/// lowercases the column once, not `n` times.
#[derive(Debug, Clone)]
pub struct LfContext<'a> {
    header: &'a str,
    neighbor_types: &'a [TypeId],
    sample: Cow<'a, [String]>,
    lowercase: OnceCell<Vec<String>>,
    numeric: Vec<f64>,
    mean: f64,
}

impl<'a> LfContext<'a> {
    /// The context of `column`, reusing `sample`: the caller's rendering
    /// of `column.sample(SAMPLE)`, in order (the lookup step renders it
    /// anyway when its sample size is [`SAMPLE`]).
    #[must_use]
    pub fn with_sample(
        column: &Column,
        sample: &'a [String],
        normalized_header: &'a str,
        neighbor_types: &'a [TypeId],
    ) -> Self {
        Self::build(
            column,
            Cow::Borrowed(sample),
            normalized_header,
            neighbor_types,
        )
    }

    fn build(
        column: &Column,
        sample: Cow<'a, [String]>,
        header: &'a str,
        neighbor_types: &'a [TypeId],
    ) -> Self {
        let numeric = column.numeric_values();
        let mean = tu_table::stats::mean(&numeric);
        LfContext {
            header,
            neighbor_types,
            sample,
            lowercase: OnceCell::new(),
            numeric,
            mean,
        }
    }

    /// The column's numeric values, every row (not just the sample).
    #[must_use]
    pub fn numeric(&self) -> &[f64] {
        &self.numeric
    }

    /// The sample, lowercased (computed once, on first use).
    fn lowercase(&self) -> &[String] {
        self.lowercase
            .get_or_init(|| self.sample.iter().map(|v| v.to_lowercase()).collect())
    }
}

/// The voting body of a labeling function.
#[derive(Debug, Clone)]
pub enum LfKind {
    /// LF1: ≥90% of numeric values inside `[min, max]`.
    ValueRange {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// LF2: column mean inside `[min, max]`.
    MeanRange {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// LF3: all `required` types present among neighbor columns.
    CoOccurrence {
        /// Types that must co-occur in the table.
        required: Vec<TypeId>,
    },
    /// LF4: normalized header equals this string.
    HeaderEquals(
        /// Normalized header text.
        String,
    ),
    /// ≥70% of sampled values in this (lowercased) dictionary.
    Dictionary(
        /// Allowed values, lowercased.
        HashSet<String>,
    ),
    /// ≥90% of sampled values fully match the regex.
    Pattern(
        /// Compiled regex.
        Regex,
    ),
}

/// Evidential strength of an LF.
///
/// *Strong* LFs look at the column's own content or identity (value
/// range, dictionary, shape, exact header) and are precise on their own;
/// *weak* LFs capture context (mean range, co-occurring columns) and are
/// only meaningful in combination. Weak-label mining requires at least
/// one strong vote (see [`crate::generate::MiningConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfStrength {
    /// Precise on its own.
    Strong,
    /// Contextual; combine with others.
    Weak,
}

/// A labeling function: a named weak voter for one type.
#[derive(Debug, Clone)]
pub struct LabelingFunction {
    /// Human-readable name (`"lf1:salary:range"` …).
    pub name: String,
    /// The type this LF votes for.
    pub ty: TypeId,
    /// Global or local.
    pub source: LfSource,
    /// Voting logic.
    pub kind: LfKind,
}

/// Fraction of values that must satisfy per-value predicates.
pub const VALUE_PASS: f64 = 0.9;
/// Looser threshold for dictionary membership (dictionaries are partial).
pub const DICT_PASS: f64 = 0.7;
/// Sample size for per-value checks.
pub const SAMPLE: usize = 40;

impl LabelingFunction {
    /// Evidential strength of this LF's kind.
    #[must_use]
    pub fn strength(&self) -> LfStrength {
        match self.kind {
            LfKind::ValueRange { .. }
            | LfKind::HeaderEquals(_)
            | LfKind::Dictionary(_)
            | LfKind::Pattern(_) => LfStrength::Strong,
            LfKind::MeanRange { .. } | LfKind::CoOccurrence { .. } => LfStrength::Weak,
        }
    }

    /// Vote: `Some(ty)` when the LF fires, `None` to abstain.
    ///
    /// Reads only `ctx`: range LFs count over its numeric values, a mean
    /// LF compares its mean, and dictionary and pattern LFs check its
    /// rendered (or lowercased) sample, all computed once per column.
    #[must_use]
    pub fn vote(&self, ctx: &LfContext<'_>) -> Option<TypeId> {
        let fires = match &self.kind {
            LfKind::ValueRange { min, max } => {
                let nums = ctx.numeric();
                !nums.is_empty() && {
                    let hits = nums.iter().filter(|v| **v >= *min && **v <= *max).count();
                    hits as f64 / nums.len() as f64 >= VALUE_PASS
                }
            }
            LfKind::MeanRange { min, max } => {
                !ctx.numeric().is_empty() && ctx.mean >= *min && ctx.mean <= *max
            }
            LfKind::CoOccurrence { required } => {
                !required.is_empty() && required.iter().all(|t| ctx.neighbor_types.contains(t))
            }
            LfKind::HeaderEquals(h) => ctx.header == h,
            LfKind::Dictionary(set) => {
                let sample = &ctx.sample;
                !sample.is_empty() && {
                    let hits = ctx.lowercase().iter().filter(|v| set.contains(*v)).count();
                    hits as f64 / sample.len() as f64 >= DICT_PASS
                }
            }
            LfKind::Pattern(re) => {
                let sample = &ctx.sample;
                !sample.is_empty() && {
                    let hits = sample.iter().filter(|v| re.is_full_match(v)).count();
                    hits as f64 / sample.len() as f64 >= VALUE_PASS
                }
            }
        };
        fires.then_some(self.ty)
    }
}

/// The [`LfContext`] of `column`: renders its [`SAMPLE`]-value sample
/// and collects its numeric values, once for every LF that votes on it.
#[must_use]
pub fn context<'a>(
    column: &Column,
    normalized_header: &'a str,
    neighbor_types: &'a [TypeId],
) -> LfContext<'a> {
    let sample = column
        .sample(SAMPLE)
        .into_iter()
        .map(tu_table::Value::render)
        .collect();
    LfContext::build(
        column,
        Cow::Owned(sample),
        normalized_header,
        neighbor_types,
    )
}

/// Normalize a raw header for LF matching.
#[must_use]
pub fn normalize(header: &str) -> String {
    normalize_header(header)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lf(ty: u16, kind: LfKind) -> LabelingFunction {
        LabelingFunction {
            name: "test".into(),
            ty: TypeId(ty),
            source: LfSource::Local,
            kind,
        }
    }

    #[test]
    fn value_range_votes() {
        let c = Column::from_raw("c", &["50000", "60000", "70000"]);
        let f = lf(
            1,
            LfKind::ValueRange {
                min: 40_000.0,
                max: 80_000.0,
            },
        );
        let ctx = context(&c, "income", &[]);
        assert_eq!(f.vote(&ctx), Some(TypeId(1)));
        let f = lf(
            1,
            LfKind::ValueRange {
                min: 0.0,
                max: 100.0,
            },
        );
        assert_eq!(f.vote(&ctx), None);
        // Text column abstains.
        let t = Column::from_raw("t", &["a", "b"]);
        let ctx = context(&t, "x", &[]);
        assert_eq!(
            lf(1, LfKind::ValueRange { min: 0.0, max: 1.0 }).vote(&ctx),
            None
        );
    }

    #[test]
    fn mean_range_votes() {
        let c = Column::from_raw("c", &["10", "20", "30"]);
        let ctx = context(&c, "x", &[]);
        assert_eq!(
            lf(
                2,
                LfKind::MeanRange {
                    min: 15.0,
                    max: 25.0
                }
            )
            .vote(&ctx),
            Some(TypeId(2))
        );
        assert_eq!(
            lf(
                2,
                LfKind::MeanRange {
                    min: 0.0,
                    max: 10.0
                }
            )
            .vote(&ctx),
            None
        );
    }

    #[test]
    fn co_occurrence_votes() {
        let c = Column::from_raw("c", &["1"]);
        let neighbors = [TypeId(5), TypeId(7)];
        let ctx = context(&c, "x", &neighbors);
        assert_eq!(
            lf(
                3,
                LfKind::CoOccurrence {
                    required: vec![TypeId(5)]
                }
            )
            .vote(&ctx),
            Some(TypeId(3))
        );
        assert_eq!(
            lf(
                3,
                LfKind::CoOccurrence {
                    required: vec![TypeId(5), TypeId(9)]
                }
            )
            .vote(&ctx),
            None
        );
        // Empty requirement never fires (would be always-true).
        assert_eq!(
            lf(3, LfKind::CoOccurrence { required: vec![] }).vote(&ctx),
            None
        );
    }

    #[test]
    fn header_equals_votes() {
        let c = Column::from_raw("c", &["1"]);
        let ctx = context(&c, "income", &[]);
        assert_eq!(
            lf(4, LfKind::HeaderEquals("income".into())).vote(&ctx),
            Some(TypeId(4))
        );
        assert_eq!(
            lf(4, LfKind::HeaderEquals("salary".into())).vote(&ctx),
            None
        );
    }

    #[test]
    fn dictionary_votes_with_tolerance() {
        let c = Column::from_raw("c", &["Paris", "Tokyo", "Paris", "Gotham"]);
        let set: HashSet<String> = ["paris", "tokyo"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let ctx = context(&c, "x", &[]);
        assert_eq!(
            lf(5, LfKind::Dictionary(set.clone())).vote(&ctx),
            Some(TypeId(5)),
            "3/4 = 0.75 ≥ 0.7"
        );
        let c2 = Column::from_raw("c", &["Gotham", "Metropolis", "Paris"]);
        let ctx2 = context(&c2, "x", &[]);
        assert_eq!(lf(5, LfKind::Dictionary(set)).vote(&ctx2), None);
    }

    #[test]
    fn pattern_votes() {
        let c = Column::from_raw("c", &["AB-1234", "CD-5678"]);
        let re = Regex::new("[A-Z]{2}-\\d{4}").unwrap();
        let ctx = context(&c, "x", &[]);
        assert_eq!(lf(6, LfKind::Pattern(re)).vote(&ctx), Some(TypeId(6)));
    }

    #[test]
    fn empty_column_always_abstains() {
        let c = Column::new("c", vec![]);
        let ctx = context(&c, "income", &[]);
        for kind in [
            LfKind::ValueRange { min: 0.0, max: 1.0 },
            LfKind::MeanRange { min: 0.0, max: 1.0 },
            LfKind::Dictionary(HashSet::new()),
            LfKind::Pattern(Regex::new(".*").unwrap()),
        ] {
            assert_eq!(lf(1, kind).vote(&ctx), None);
        }
        // Header LF can still fire: it does not need values.
        assert_eq!(
            lf(1, LfKind::HeaderEquals("income".into())).vote(&ctx),
            Some(TypeId(1))
        );
    }
}
