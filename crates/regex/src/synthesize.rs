//! Shape-based regex synthesis from example strings.
//!
//! SigmaTyper's DPBD loop (Figure 3) turns a demonstrated column into
//! labeling functions; for textual columns with regular *shape* (phone
//! numbers, SKUs, postal codes, ids) the most precise LF is a synthesized
//! regex. This module implements a pragmatic cousin of multi-modal regex
//! synthesis (Chen et al., PLDI'20 — reference \[5\] of the paper):
//! segment each example into character-class runs, align run signatures,
//! and generalize run lengths into counted quantifiers.

use crate::ast::{Ast, CharMatcher, ClassItem};
use crate::nfa::Regex;
use crate::parser::MAX_REPEAT;

/// Character class of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum RunClass {
    Digit,
    Lower,
    Upper,
    /// Letters of mixed/any case (generalization of Lower/Upper).
    Alpha,
    Space,
    /// A single punctuation/symbol literal.
    Literal(char),
}

/// A run: a class plus its observed length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    class: RunClass,
    len: usize,
}

/// Segment a string into maximal runs of one class.
fn segment(s: &str) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for c in s.chars() {
        // ASCII-only classes: the rendered patterns use [a-z]-style ranges,
        // so non-ASCII characters become literals to keep the postcondition
        // (every example matches) exact.
        let class = if c.is_ascii_digit() {
            RunClass::Digit
        } else if c.is_ascii_lowercase() {
            RunClass::Lower
        } else if c.is_ascii_uppercase() {
            RunClass::Upper
        } else if c.is_whitespace() {
            RunClass::Space
        } else {
            RunClass::Literal(c)
        };
        match runs.last_mut() {
            // Literals never merge into runs: "--" stays two tokens so the
            // quantifier generalization happens per separator occurrence.
            Some(last) if last.class == class && !matches!(class, RunClass::Literal(_)) => {
                last.len += 1;
            }
            _ => runs.push(Run { class, len: 1 }),
        }
    }
    runs
}

/// Merge case-specific letter runs into `Alpha` (second-chance alignment).
fn generalize_case(runs: &[Run]) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for r in runs {
        let class = match r.class {
            RunClass::Lower | RunClass::Upper => RunClass::Alpha,
            c => c,
        };
        match out.last_mut() {
            Some(last) if last.class == class && !matches!(class, RunClass::Literal(_)) => {
                last.len += r.len;
            }
            _ => out.push(Run { class, len: r.len }),
        }
    }
    out
}

fn signature(runs: &[Run]) -> Vec<RunClass> {
    runs.iter().map(|r| r.class).collect()
}

/// A generalized run: class plus a length interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GenRun {
    class: RunClass,
    min: usize,
    max: usize,
}

/// Fold a group of aligned run sequences into per-position intervals.
fn generalize_group(group: &[Vec<Run>]) -> Vec<GenRun> {
    let template = &group[0];
    template
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (mut lo, mut hi) = (usize::MAX, 0usize);
            for seq in group {
                lo = lo.min(seq[i].len);
                hi = hi.max(seq[i].len);
            }
            GenRun {
                class: r.class,
                min: lo,
                max: hi,
            }
        })
        .collect()
}

fn class_ast(class: RunClass) -> Ast {
    match class {
        RunClass::Digit => Ast::Char(CharMatcher::digit()),
        RunClass::Lower => Ast::Char(CharMatcher::Class {
            negated: false,
            items: vec![ClassItem::Range('a', 'z')],
        }),
        RunClass::Upper => Ast::Char(CharMatcher::Class {
            negated: false,
            items: vec![ClassItem::Range('A', 'Z')],
        }),
        RunClass::Alpha => Ast::Char(CharMatcher::Class {
            negated: false,
            items: vec![ClassItem::Range('a', 'z'), ClassItem::Range('A', 'Z')],
        }),
        RunClass::Space => Ast::Char(CharMatcher::space()),
        RunClass::Literal(c) => Ast::Char(CharMatcher::Literal(c)),
    }
}

fn class_pattern(class: RunClass) -> String {
    match class {
        RunClass::Digit => r"\d".to_string(),
        RunClass::Lower => "[a-z]".to_string(),
        RunClass::Upper => "[A-Z]".to_string(),
        RunClass::Alpha => "[a-zA-Z]".to_string(),
        RunClass::Space => r"\s".to_string(),
        RunClass::Literal(c) => {
            if c.is_ascii_punctuation() {
                format!("\\{c}")
            } else {
                c.to_string()
            }
        }
    }
}

/// Render one shape branch as an AST and pattern text, with the number
/// of NFA states it compiles to: a run of `min..=max` copies is `min`
/// consuming states plus a split and a copy per optional one. `None`
/// when a run's count would pass the parser's [`MAX_REPEAT`].
fn render_runs(runs: &[GenRun], slack: usize) -> Option<(Ast, String, usize)> {
    let mut parts = Vec::with_capacity(runs.len());
    let mut pattern = String::new();
    let mut states = 0;
    for r in runs {
        let min = r.min.saturating_sub(slack).max(1);
        let max = r.max + slack;
        if max > MAX_REPEAT as usize {
            return None;
        }
        states += min + 2 * (max - min);
        let node = class_ast(r.class);
        pattern.push_str(&class_pattern(r.class));
        if min == 1 && max == 1 {
            parts.push(node);
        } else {
            pattern.push_str(&if min == max {
                format!("{{{min}}}")
            } else {
                format!("{{{min},{max}}}")
            });
            parts.push(Ast::Repeat {
                node: Box::new(node),
                min: min as u32,
                max: Some(max as u32),
            });
        }
    }
    Some((Ast::Concat(parts), pattern, states))
}

/// Most NFA states a synthesized regex may compile to. Shapes of real
/// cells stay far below it (a few hundred states at most); a longer
/// regex comes from one giant cell and would cost every later lookup.
pub const MAX_SYNTHESIZED_STATES: usize = 4_096;

/// A synthesized regex: pattern text plus the compiled matcher.
#[derive(Debug, Clone)]
pub struct SynthesizedRegex {
    /// Rendered pattern, parseable by [`Regex::new`]: no quantifier in
    /// it passes [`MAX_REPEAT`].
    pub pattern: String,
    /// Compiled matcher.
    pub regex: Regex,
}

/// Options controlling synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisConfig {
    /// Maximum number of distinct shape groups before giving up.
    pub max_groups: usize,
    /// Extra slack added to observed length intervals, so the regex
    /// tolerates slightly longer/shorter unseen values.
    pub length_slack: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_groups: 4,
            length_slack: 1,
        }
    }
}

/// Synthesize a full-match regex generalizing the example strings.
///
/// Returns `None` when the examples are too heterogeneous to describe with
/// at most `max_groups` shape alternatives (e.g. free text), and, before
/// compiling anything, when the shape is too long to keep: a run whose
/// count would pass [`MAX_REPEAT`], or a regex of more than
/// [`MAX_SYNTHESIZED_STATES`] states. The returned regex is guaranteed to
/// fully match every example.
#[must_use]
pub fn synthesize(examples: &[&str], config: &SynthesisConfig) -> Option<SynthesizedRegex> {
    let examples: Vec<&str> = examples.iter().filter(|s| !s.is_empty()).copied().collect();
    if examples.is_empty() {
        return None;
    }
    let segmented: Vec<Vec<Run>> = examples.iter().map(|s| segment(s)).collect();

    // Pass 1: exact class signatures.
    let grouped = group_by_signature(&segmented);
    let grouped = if grouped.len() > config.max_groups {
        // Pass 2: merge letter cases and retry.
        let relaxed: Vec<Vec<Run>> = segmented.iter().map(|r| generalize_case(r)).collect();
        let g = group_by_signature(&relaxed);
        if g.len() > config.max_groups {
            return None;
        }
        g
    } else {
        grouped
    };

    let mut branches = Vec::with_capacity(grouped.len());
    let mut patterns = Vec::with_capacity(grouped.len());
    // One split per extra branch, and the final match state.
    let mut states = grouped.len();
    for group in &grouped {
        let gens = generalize_group(group);
        let (ast, pattern, n) = render_runs(&gens, config.length_slack)?;
        states += n;
        branches.push(ast);
        patterns.push(pattern);
    }
    if states > MAX_SYNTHESIZED_STATES {
        return None;
    }
    let (ast, pattern) = if branches.len() == 1 {
        (
            branches.pop().expect("one branch"),
            patterns.pop().expect("one"),
        )
    } else {
        (Ast::Alt(branches), patterns.join("|"))
    };
    let regex = Regex::from_ast(&ast, &pattern);
    debug_assert_eq!(regex.n_states(), states);
    // Postcondition: every example must match.
    if examples.iter().any(|e| !regex.is_full_match(e)) {
        return None;
    }
    Some(SynthesizedRegex { pattern, regex })
}

fn group_by_signature(seqs: &[Vec<Run>]) -> Vec<Vec<Vec<Run>>> {
    let mut order: Vec<Vec<RunClass>> = Vec::new();
    let mut groups: std::collections::HashMap<Vec<RunClass>, Vec<Vec<Run>>> =
        std::collections::HashMap::new();
    for seq in seqs {
        let sig = signature(seq);
        if !groups.contains_key(&sig) {
            order.push(sig.clone());
        }
        groups.entry(sig).or_default().push(seq.clone());
    }
    order
        .into_iter()
        .map(|sig| groups.remove(&sig).expect("grouped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(examples: &[&str]) -> SynthesizedRegex {
        synthesize(examples, &SynthesisConfig::default()).expect("synthesizable")
    }

    #[test]
    fn phone_numbers() {
        let s = synth(&["555-0199", "415-2120", "650-0333"]);
        assert!(s.regex.is_full_match("212-4567"));
        assert!(!s.regex.is_full_match("abc-defg"));
        assert!(!s.regex.is_full_match("555 0199"));
        // Pattern is re-parseable.
        let re = Regex::new(&s.pattern).unwrap();
        assert!(re.is_full_match("212-4567"));
    }

    #[test]
    fn generalizes_lengths_with_slack() {
        let s = synth(&["AB-12", "CD-345"]);
        // Observed letter len 2, digits 2..3 (+1 slack each side).
        assert!(s.regex.is_full_match("XY-6789")); // digits 4 ≤ 3+1
        assert!(!s.regex.is_full_match("XY-67890"));
        assert!(s.regex.is_full_match("X-99")); // letters 1 ≥ 2-1
    }

    #[test]
    fn currency_amounts() {
        let s = synth(&["$ 50K", "$ 60K", "$ 70K"]);
        assert!(s.regex.is_full_match("$ 80K"));
        assert!(!s.regex.is_full_match("80K"));
    }

    #[test]
    fn mixed_shapes_become_alternation() {
        let s = synth(&["2021-01-01", "01/02/2021"]);
        assert!(s.pattern.contains('|'));
        assert!(s.regex.is_full_match("1999-12-31"));
        assert!(s.regex.is_full_match("12/31/1999"));
        assert!(!s.regex.is_full_match("1999.12.31"));
    }

    #[test]
    fn case_merge_rescues_heterogeneous_examples() {
        // 5 casing variants exceed max_groups=4 until cases merge.
        let s = synthesize(
            &["ab1", "Ab2", "aB3", "AB4", "xY5"],
            &SynthesisConfig {
                max_groups: 2,
                length_slack: 0,
            },
        )
        .expect("case merge");
        assert!(s.regex.is_full_match("Qr7"));
    }

    #[test]
    fn free_text_refuses() {
        let out = synthesize(
            &[
                "the quick brown fox",
                "лорем ипсум",
                "x9!!",
                "a-b-c-d-e-f",
                "12:34:56.789",
                "{json: true}",
            ],
            &SynthesisConfig {
                max_groups: 3,
                length_slack: 0,
            },
        );
        assert!(out.is_none());
    }

    #[test]
    fn empty_and_blank_examples() {
        assert!(synthesize(&[], &SynthesisConfig::default()).is_none());
        assert!(synthesize(&["", ""], &SynthesisConfig::default()).is_none());
        // Blanks are dropped, rest still synthesizes.
        let s = synthesize(&["", "123"], &SynthesisConfig::default()).unwrap();
        assert!(s.regex.is_full_match("45"));
    }

    #[test]
    fn every_example_always_matches_postcondition() {
        let examples = ["usr_001", "usr_023", "usr_999", "usr_5"];
        let s = synth(&examples);
        for e in examples {
            assert!(s.regex.is_full_match(e), "example {e} must match");
        }
    }

    #[test]
    fn repeated_separators_not_merged() {
        let s = synth(&["a--b", "c--d"]);
        assert!(s.regex.is_full_match("x--y"));
        assert!(!s.regex.is_full_match("x-y"));
    }

    #[test]
    fn giant_cells_give_no_regex() {
        let long_run = format!("a{}", "1".repeat(1_000_000));
        assert!(synthesize(&[&long_run], &SynthesisConfig::default()).is_none());
        let many_runs = "a1".repeat(50_000);
        assert!(synthesize(&[&many_runs], &SynthesisConfig::default()).is_none());
        assert!(synthesize(&["555-0199", &many_runs], &SynthesisConfig::default()).is_none());
    }

    #[test]
    fn bounds_are_tight_and_every_pattern_reparses() {
        let config = SynthesisConfig::default();
        let check = |example: &str| -> Option<usize> {
            let s = synthesize(&[example], &config)?;
            let reparsed = Regex::new(&s.pattern).expect("pattern re-parses");
            assert_eq!(reparsed.n_states(), s.regex.n_states());
            assert!(reparsed.is_full_match(example));
            assert!(s.regex.n_states() <= MAX_SYNTHESIZED_STATES);
            Some(s.regex.n_states())
        };
        // One run: its count plus the slack may reach MAX_REPEAT, not pass it.
        let cap = MAX_REPEAT as usize;
        assert!(check(&"1".repeat(cap - config.length_slack)).is_some());
        assert!(check(&"1".repeat(cap - config.length_slack + 1)).is_none());
        // Many runs: each single-character run compiles to three states.
        let fits = (MAX_SYNTHESIZED_STATES - 1) / 6;
        assert_eq!(check(&"a1".repeat(fits)), Some(6 * fits + 1));
        assert!(check(&"a1".repeat(fits + 1)).is_none());
    }

    #[test]
    fn unicode_examples() {
        // Non-ASCII characters are kept as literals in the shape.
        let s = synth(&["café1", "paté2"]);
        assert!(s.regex.is_full_match("olé9"));
        assert!(!s.regex.is_full_match("cafe1"));
    }
}
