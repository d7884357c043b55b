//! DPBD: infer labeling functions from a user demonstration.
//!
//! Reproduces paper Figure 3 end to end: the user corrects a column to a
//! type (①); we profile the column and infer LF1 (value range), LF2 (mean
//! range), LF3 (co-occurring columns), LF4 (header), plus dictionary and
//! synthesized-regex LFs (②); the LF bank then mines the corpus for
//! weakly labeled training data (③, see [`crate::generate`]).

use crate::lf::{LabelingFunction, LfKind, LfSource};
use std::collections::HashSet;
use tu_ontology::TypeId;
use tu_profile::ColumnProfile;
use tu_regex::{synthesize, SynthesisConfig};
use tu_table::Column;
use tu_text::normalize_header;

/// Tuning for LF inference.
#[derive(Debug, Clone, Copy)]
pub struct InferConfig {
    /// Margin (fraction of span) added around observed numeric ranges.
    pub range_margin: f64,
    /// Mean-range half-width in standard deviations.
    pub mean_sigmas: f64,
    /// Maximum dictionary size extracted from a categorical column.
    pub max_dictionary: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            range_margin: 0.25,
            mean_sigmas: 2.0,
            max_dictionary: 60,
        }
    }
}

/// A demonstration: the user (re)labeled this column as `ty`.
#[derive(Debug, Clone)]
pub struct Demonstration<'a> {
    /// The demonstrated column.
    pub column: &'a Column,
    /// Known/detected types of the other columns in the table.
    pub neighbor_types: &'a [TypeId],
    /// The corrected semantic type.
    pub ty: TypeId,
}

/// Is a normalized header uninformative (`field 3`, `c 7`, `column 2`)?
///
/// Every token must be a positional filler word or a number.
#[must_use]
pub fn is_generic_header(normalized: &str) -> bool {
    const FILLERS: &[&str] = &[
        "field",
        "col",
        "column",
        "attr",
        "attribute",
        "c",
        "x",
        "f",
        "var",
        "value",
        "val",
        "data",
        "item",
        "unnamed",
        "untitled",
    ];
    let mut any = false;
    for tok in normalized.split(' ') {
        any = true;
        let is_filler = FILLERS.contains(&tok);
        let is_number = !tok.is_empty() && tok.chars().all(|c| c.is_ascii_digit());
        if !is_filler && !is_number {
            return false;
        }
    }
    any
}

/// Is a synthesized pattern selective enough to act as an LF?
///
/// Patterns consisting solely of letter-class runs (and whitespace)
/// match any word sequence; they need at least one digit class or
/// literal to discriminate.
#[must_use]
pub fn pattern_is_selective(pattern: &str) -> bool {
    let mut rest = pattern;
    let mut stripped = String::new();
    while !rest.is_empty() {
        if let Some(r) = rest
            .strip_prefix("[a-z]")
            .or_else(|| rest.strip_prefix("[A-Z]"))
            .or_else(|| rest.strip_prefix("[a-zA-Z]"))
            .or_else(|| rest.strip_prefix(r"\s"))
            // Alternations/groups of letter runs are still letters-only.
            .or_else(|| rest.strip_prefix('|'))
            .or_else(|| rest.strip_prefix('('))
            .or_else(|| rest.strip_prefix(')'))
        {
            rest = r;
        } else if let Some(r) = rest.strip_prefix('{') {
            // quantifier {m} / {m,n}
            match r.find('}') {
                Some(i) => rest = &r[i + 1..],
                None => {
                    stripped.push('{');
                    rest = r;
                }
            }
        } else {
            let mut chars = rest.chars();
            if let Some(c) = chars.next() {
                stripped.push(c);
            }
            rest = chars.as_str();
        }
    }
    !stripped.is_empty()
}

/// Infer labeling functions from one demonstration.
#[must_use]
pub fn infer_lfs(demo: &Demonstration<'_>, config: &InferConfig) -> Vec<LabelingFunction> {
    let mut lfs = Vec::new();
    let profile = ColumnProfile::of(demo.column);
    let ty = demo.ty;
    let mk = |name: String, kind: LfKind| LabelingFunction {
        name,
        ty,
        source: LfSource::Local,
        kind,
    };

    // LF1 + LF2: numeric envelope. LF1 uses the p5–p95 percentile band
    // rather than min/max: heavy-tailed demo columns (salaries, revenues)
    // would otherwise produce a vacuous range that fires on everything.
    if let Some(s) = profile.numeric {
        let mut sorted = demo.column.numeric_values();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p5 = tu_table::stats::quantile_sorted(&sorted, 0.05);
        let p95 = tu_table::stats::quantile_sorted(&sorted, 0.95);
        let span = (p95 - p5).abs().max(p95.abs().max(1.0) * 0.1);
        let margin = span * config.range_margin;
        lfs.push(mk(
            format!("lf1:range[{:.4},{:.4}]", p5 - margin, p95 + margin),
            LfKind::ValueRange {
                min: p5 - margin,
                max: p95 + margin,
            },
        ));
        let span = (s.max - s.min).abs().max(s.max.abs().max(1.0) * 0.1);
        let half = (s.std * config.mean_sigmas).max(span * 0.1);
        lfs.push(mk(
            format!("lf2:mean[{:.4},{:.4}]", s.mean - half, s.mean + half),
            LfKind::MeanRange {
                min: s.mean - half,
                max: s.mean + half,
            },
        ));
    }

    // LF3: co-occurrence with up to two most specific neighbor types.
    let required: Vec<TypeId> = demo
        .neighbor_types
        .iter()
        .filter(|t| !t.is_unknown())
        .take(2)
        .copied()
        .collect();
    if !required.is_empty() {
        lfs.push(mk(
            format!("lf3:cooccur{required:?}"),
            LfKind::CoOccurrence { required },
        ));
    }

    // LF4: header equality on the normalized demonstrated header —
    // skipped for generic headers ("field_3", "c7"): such an LF would
    // fire on unrelated columns across the customer's tables.
    let header = normalize_header(&demo.column.name);
    if !header.is_empty() && !is_generic_header(&header) {
        lfs.push(mk(
            format!("lf4:header[{header}]"),
            LfKind::HeaderEquals(header),
        ));
    }

    // Textual columns: dictionary of distinct values (categorical) and a
    // synthesized shape regex.
    let texts: Vec<&str> = demo.column.text_values();
    if !texts.is_empty() {
        if profile.looks_categorical() || profile.distinct_fraction < 0.8 {
            let mut distinct: HashSet<String> = texts.iter().map(|s| s.to_lowercase()).collect();
            if distinct.len() <= config.max_dictionary && !distinct.is_empty() {
                // Never store empties.
                distinct.remove("");
                lfs.push(mk(
                    format!("lf5:dict[{}]", distinct.len()),
                    LfKind::Dictionary(distinct),
                ));
            }
        }
        let sample: Vec<&str> = texts.iter().take(32).copied().collect();
        if let Some(s) = synthesize(&sample, &SynthesisConfig::default()) {
            // A letters-only shape ("[A-Z][a-z]{2,9}") matches every
            // capitalized word — names, brands, cities alike — and would
            // vote on virtually any textual column. Only structured
            // shapes (digits, separators, casing transitions) make
            // useful labeling functions.
            if pattern_is_selective(&s.pattern) {
                lfs.push(mk(
                    format!("lf6:regex[{}]", s.pattern),
                    LfKind::Pattern(s.regex),
                ));
            }
        }
    }

    lfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lf::context;

    #[test]
    fn figure3_salary_demonstration() {
        // The paper's running example: "Income" column relabeled `salary`.
        let column = Column::from_raw("Income", &["50000", "60000", "70000"]);
        let salary = TypeId(11);
        let company = TypeId(20);
        let name = TypeId(1);
        let neighbors = [name, company];
        let demo = Demonstration {
            column: &column,
            neighbor_types: &neighbors,
            ty: salary,
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        // LF1, LF2, LF3, LF4 all inferred for a numeric column.
        assert!(
            lfs.iter()
                .any(|l| matches!(l.kind, LfKind::ValueRange { .. })),
            "{lfs:?}"
        );
        assert!(lfs
            .iter()
            .any(|l| matches!(l.kind, LfKind::MeanRange { .. })));
        assert!(lfs
            .iter()
            .any(|l| matches!(l.kind, LfKind::CoOccurrence { .. })));
        assert!(lfs
            .iter()
            .any(|l| matches!(l.kind, LfKind::HeaderEquals(_))));
        assert!(lfs
            .iter()
            .all(|l| l.ty == salary && l.source == LfSource::Local));

        // The inferred LFs fire on a similar unseen salary column.
        let similar = Column::from_raw("pay", &["52000", "64000", "58000"]);
        let ctx = context(&similar, "pay", &neighbors);
        let votes: Vec<_> = lfs.iter().filter_map(|l| l.vote(&ctx)).collect();
        assert!(
            votes.iter().filter(|t| **t == salary).count() >= 2,
            "{votes:?}"
        );

        // …and mostly abstain on an unrelated percentage column.
        let unrelated = Column::from_raw("pct", &["0.1", "0.5", "0.9"]);
        let ctx = context(&unrelated, "pct", &[]);
        let votes: Vec<_> = lfs.iter().filter_map(|l| l.vote(&ctx)).collect();
        assert!(
            votes.is_empty(),
            "unrelated column should get no votes: {votes:?}"
        );
    }

    #[test]
    fn textual_demonstration_gets_dictionary_and_regex() {
        let vals: Vec<String> = (0..24)
            .map(|i| ["pending", "shipped", "delivered"][i % 3].to_string())
            .collect();
        let column = Column::from_raw("order_status", &vals);
        let demo = Demonstration {
            column: &column,
            neighbor_types: &[],
            ty: TypeId(9),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        assert!(lfs.iter().any(|l| matches!(l.kind, LfKind::Dictionary(_))));
        // No numeric LFs for a text column.
        assert!(!lfs
            .iter()
            .any(|l| matches!(l.kind, LfKind::ValueRange { .. })));
    }

    #[test]
    fn shaped_ids_get_regex_lf() {
        let vals: Vec<String> = (0..20).map(|i| format!("ORD-{:05}", i * 11)).collect();
        let column = Column::from_raw("po", &vals);
        let demo = Demonstration {
            column: &column,
            neighbor_types: &[],
            ty: TypeId(30),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        let re_lf = lfs
            .iter()
            .find(|l| matches!(l.kind, LfKind::Pattern(_)))
            .expect("regex LF");
        let other = Column::from_raw("x", &["ORD-99999", "ORD-00001"]);
        let ctx = context(&other, "x", &[]);
        assert_eq!(re_lf.vote(&ctx), Some(TypeId(30)));
    }

    #[test]
    fn giant_cells_give_no_regex_lf() {
        // A shaped column with one giant cell: a 1,000,000-digit run, or
        // 100,000 alternating letter/digit runs. Either shape is too
        // long to keep, so no Pattern LF reaches the bank.
        let long_run = format!("a{}", "1".repeat(1_000_000));
        let many_runs = "a1".repeat(50_000);
        for giant in [long_run, many_runs] {
            let mut vals: Vec<String> = (0..20).map(|i| format!("AB-{:04}", i * 7)).collect();
            vals[3] = giant;
            let column = Column::from_raw("ids", &vals);
            let demo = Demonstration {
                column: &column,
                neighbor_types: &[],
                ty: TypeId(30),
            };
            let lfs = infer_lfs(&demo, &InferConfig::default());
            assert!(
                !lfs.iter().any(|l| matches!(l.kind, LfKind::Pattern(_))),
                "{:?}",
                lfs.iter().map(|l| &l.name).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn letters_only_patterns_rejected() {
        assert!(!pattern_is_selective("[A-Z][a-z]{2,9}"));
        assert!(!pattern_is_selective("[a-zA-Z]{1,12}"));
        assert!(!pattern_is_selective(r"[A-Z][a-z]{3,8}\s[a-z]{2,5}"));
        assert!(!pattern_is_selective(
            r"[A-Z]{1,2}[a-z]{1,9}|[a-z]{1,2}[A-Z]{1,2}[a-z]{3,5}"
        ));
        assert!(pattern_is_selective(r"[A-Z]{2}-\d{4}"));
        assert!(pattern_is_selective(r"\d{3}-\d{4}"));
        assert!(pattern_is_selective(r"[a-z]{2,8}@[a-z]{2,8}"));
        // A first-name demonstration must not produce a regex LF.
        let names: Vec<String> = ["Emily", "Emma", "Olivia", "Lauren"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let column = Column::from_raw("fname", &names);
        let demo = Demonstration {
            column: &column,
            neighbor_types: &[],
            ty: TypeId(2),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        assert!(
            !lfs.iter().any(|l| matches!(l.kind, LfKind::Pattern(_))),
            "{lfs:?}"
        );
    }

    #[test]
    fn generic_headers_yield_no_header_lf() {
        assert!(is_generic_header("field 3"));
        assert!(is_generic_header("c 7"));
        assert!(is_generic_header("column 12"));
        assert!(is_generic_header("attr"));
        assert!(!is_generic_header("salary"));
        assert!(!is_generic_header("order id"));
        assert!(!is_generic_header(""));
        let column = Column::from_raw("field_3", &["10", "20", "30"]);
        let demo = Demonstration {
            column: &column,
            neighbor_types: &[],
            ty: TypeId(2),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        assert!(
            !lfs.iter()
                .any(|l| matches!(l.kind, LfKind::HeaderEquals(_))),
            "generic header must not become an LF: {lfs:?}"
        );
    }

    #[test]
    fn empty_column_yields_header_lf_only() {
        let column = Column::new("Income", vec![]);
        let demo = Demonstration {
            column: &column,
            neighbor_types: &[],
            ty: TypeId(2),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        assert_eq!(lfs.len(), 1);
        assert!(matches!(lfs[0].kind, LfKind::HeaderEquals(_)));
    }

    #[test]
    fn unknown_neighbors_excluded_from_cooccurrence() {
        let column = Column::from_raw("c", &["1", "2"]);
        let neighbors = [TypeId::UNKNOWN, TypeId(3)];
        let demo = Demonstration {
            column: &column,
            neighbor_types: &neighbors,
            ty: TypeId(8),
        };
        let lfs = infer_lfs(&demo, &InferConfig::default());
        let co = lfs
            .iter()
            .find_map(|l| match &l.kind {
                LfKind::CoOccurrence { required } => Some(required.clone()),
                _ => None,
            })
            .expect("co-occurrence LF");
        assert_eq!(co, vec![TypeId(3)]);
    }
}
