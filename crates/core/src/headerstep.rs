//! Pipeline step 1: header matching (paper §4.3).
//!
//! Syntactic matching compares the normalized column header to every
//! ontology surface form with fuzzy string similarity — an exact match
//! yields the maximum confidence of 1.0, exactly as the paper specifies.
//! Semantic matching embeds the header and the type names (FastText role
//! → `tu-embed`) and uses cosine similarity as the confidence.
//!
//! The paper orders the cascade by inference cost with this step first,
//! so it must stay cheap: everything about a surface that does not
//! depend on the header, its stem included, is computed once in
//! [`HeaderMatcher::new`], and a surface whose fuzzy score provably
//! stays below the floor is skipped before [`fuzzy_score`] runs.
//! Surfaces that survive are scored by `fuzzy_score` itself, so every
//! confidence is bit-identical to scoring all surfaces.

use crate::config::SigmaTyperConfig;
use crate::prediction::{Candidate, StepScores};
use std::cmp::Ordering;
use tu_embed::Embedder;
use tu_ontology::{Ontology, TypeId};
use tu_text::{fuzzy_score, normalize_header, stem_phrase, word_tokens};

/// Similarity floor below which syntactic candidates are dropped.
const SYNTACTIC_FLOOR: f64 = 0.72;
/// Similarity floor below which semantic candidates are dropped.
const SEMANTIC_FLOOR: f64 = 0.45;
/// Slack on the pruning test: the bounds hold in exact arithmetic, and
/// this absorbs the rounding of the scores they bound.
const BOUND_SLACK: f64 = 1e-9;

/// The header-matching step with precomputed ontology targets.
#[derive(Debug, Clone)]
pub struct HeaderMatcher {
    surfaces: Vec<Surface>,
}

/// One ontology surface form with everything `match_header` reads
/// about it that does not depend on the header.
#[derive(Debug, Clone)]
struct Surface {
    text: String,
    /// `stem_phrase(text)`, for the singular/plural test.
    stem: String,
    ty: TypeId,
    vector: Vec<f32>,
    /// `text` split on spaces, for the containment test.
    tokens: Vec<String>,
    /// The distinct `word_tokens(text)`, sorted: token Dice's set.
    words: Vec<String>,
    /// The chars of `text`, sorted: their multiset bounds the Jaro and
    /// edit similarities.
    chars: Vec<char>,
    /// The first (up to) four chars: the Jaro-Winkler prefix.
    prefix: Vec<char>,
}

/// The header's counterparts of [`Surface`]'s precomputed fields,
/// built once per `match_header` call.
struct Probe<'a> {
    tokens: Vec<&'a str>,
    words: Vec<String>,
    chars: Vec<char>,
    prefix: Vec<char>,
}

impl<'a> Probe<'a> {
    fn new(normalized: &'a str) -> Self {
        Probe {
            tokens: normalized.split(' ').collect(),
            words: sorted_set(word_tokens(normalized)),
            chars: sorted_chars(normalized),
            prefix: normalized.chars().take(4).collect(),
        }
    }
}

impl Surface {
    /// Every surface token appears among the header tokens — strong
    /// evidence for decorated headers ("col_salary" contains "salary").
    fn contained_in(&self, probe: &Probe<'_>) -> bool {
        self.tokens
            .iter()
            .all(|t| probe.tokens.iter().any(|h| h == t))
    }

    /// An upper bound on `fuzzy_score(header, text)`, the best of three
    /// similarities, from the precomputed fields:
    ///
    /// * Jaro-Winkler: Jaro matches at most `common` chars (the size of
    ///   the char-multiset intersection), so Jaro is at most
    ///   `(common/la + common/lb + 1) / 3`, and the Winkler prefix boost
    ///   grows with Jaro;
    /// * edit similarity: an alignment keeps at most `common` chars
    ///   unedited, so it is at most `common / max(la, lb)`, which never
    ///   exceeds the Jaro bound above;
    /// * token Dice: computed exactly over the precomputed sets.
    fn fuzzy_upper_bound(&self, probe: &Probe<'_>) -> f64 {
        let la = probe.chars.len();
        let lb = self.chars.len();
        let common = intersection_len(&probe.chars, &self.chars) as f64;
        let jaro = (common / la as f64 + common / lb.max(1) as f64 + 1.0) / 3.0;
        let prefix = probe
            .prefix
            .iter()
            .zip(&self.prefix)
            .take_while(|(x, y)| x == y)
            .count() as f64;
        let jaro_winkler = jaro + prefix * 0.1 * (1.0 - jaro);
        jaro_winkler.max(self.token_dice(probe))
    }

    /// `tu_text::token_dice(header, text)`.
    fn token_dice(&self, probe: &Probe<'_>) -> f64 {
        match (probe.words.is_empty(), self.words.is_empty()) {
            (true, true) => 1.0,
            (true, false) | (false, true) => 0.0,
            (false, false) => {
                let inter = intersection_len(&probe.words, &self.words);
                2.0 * inter as f64 / (probe.words.len() + self.words.len()) as f64
            }
        }
    }
}

/// `items` deduplicated and sorted.
fn sorted_set(mut items: Vec<String>) -> Vec<String> {
    items.sort_unstable();
    items.dedup();
    items
}

fn sorted_chars(s: &str) -> Vec<char> {
    let mut chars: Vec<char> = s.chars().collect();
    chars.sort_unstable();
    chars
}

/// Size of the multiset intersection of two sorted slices.
fn intersection_len<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

impl HeaderMatcher {
    /// Build from an ontology and a (trained) embedder.
    #[must_use]
    pub fn new(ontology: &Ontology, embedder: &Embedder) -> Self {
        let surfaces = ontology
            .all_surfaces()
            .into_iter()
            .map(|(text, ty)| Surface {
                text: text.to_owned(),
                stem: stem_phrase(text),
                ty,
                vector: embedder.phrase_vector(text),
                tokens: text.split(' ').map(str::to_owned).collect(),
                words: sorted_set(word_tokens(text)),
                chars: sorted_chars(text),
                prefix: text.chars().take(4).collect(),
            })
            .collect();
        HeaderMatcher { surfaces }
    }

    /// Match one header; returns ranked candidates.
    #[must_use]
    pub fn match_header(
        &self,
        header: &str,
        embedder: &Embedder,
        config: &SigmaTyperConfig,
    ) -> StepScores {
        let normalized = normalize_header(header);
        if normalized.is_empty() {
            return StepScores::default();
        }
        let stemmed = stem_phrase(&normalized);
        let probe = Probe::new(&normalized);
        let mut cands: Vec<Candidate> = Vec::new();

        // Syntactic pass: exact → 1.0 (the paper's "confidence score is
        // set to the maximum being 100%"); singular/plural-exact → 0.97
        // (Figure 4's "Cities: city"); otherwise best of fuzzy score and
        // token containment ("col_salary" contains "salary"), skipping
        // a surface that can reach neither.
        for surface in &self.surfaces {
            if surface.text == normalized {
                cands.push(Candidate {
                    ty: surface.ty,
                    confidence: 1.0,
                });
            } else if surface.text == stemmed || surface.stem == stemmed {
                cands.push(Candidate {
                    ty: surface.ty,
                    confidence: 0.97,
                });
            } else {
                let contained = surface.contained_in(&probe);
                if !contained && surface.fuzzy_upper_bound(&probe) + BOUND_SLACK < SYNTACTIC_FLOOR {
                    continue;
                }
                let mut s = fuzzy_score(&normalized, &surface.text);
                if contained {
                    let ratio = surface.tokens.len() as f64 / probe.tokens.len() as f64;
                    s = s.max(0.78 + 0.22 * ratio.min(1.0));
                }
                if s >= SYNTACTIC_FLOOR {
                    // Cap fuzzy (non-exact) confidence at 0.8: only exact
                    // and singular/plural-exact hits may short-circuit the
                    // cascade, so later steps (and the customer's local
                    // knowledge) can still overrule a lookalike alias.
                    cands.push(Candidate {
                        ty: surface.ty,
                        confidence: s * 0.8,
                    });
                }
            }
        }

        // Semantic pass only when syntactic matching is not confident —
        // mirrors the step's internal escalation and saves embedding cost.
        let best_syntactic = cands.iter().map(|c| c.confidence).fold(0.0f64, f64::max);
        if best_syntactic < config.cascade_threshold {
            let hv = embedder.phrase_vector(&normalized);
            for surface in &self.surfaces {
                let cos = f64::from(tu_embed::cosine(&hv, &surface.vector));
                if cos >= SEMANTIC_FLOOR {
                    // Semantic similarity is softer evidence: like fuzzy
                    // hits it is capped at 0.8 so it can never
                    // short-circuit the cascade on its own.
                    cands.push(Candidate {
                        ty: surface.ty,
                        confidence: cos * 0.8,
                    });
                }
            }
        }

        let mut scores = StepScores::from_candidates(cands);
        scores.candidates.truncate(config.top_k.max(8));
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_ontology::{builtin_id, builtin_ontology};

    fn setup() -> (Ontology, Embedder, HeaderMatcher) {
        let o = builtin_ontology();
        let e = Embedder::untrained(16);
        let m = HeaderMatcher::new(&o, &e);
        (o, e, m)
    }

    #[test]
    fn exact_header_is_certain() {
        let (o, e, m) = setup();
        let s = m.match_header("salary", &e, &SigmaTyperConfig::default());
        let best = s.best().unwrap();
        assert_eq!(best.ty, builtin_id(&o, "salary"));
        assert_eq!(best.confidence, 1.0);
    }

    #[test]
    fn alias_and_casing_resolve_exactly() {
        let (o, e, m) = setup();
        let cfg = SigmaTyperConfig::default();
        for header in ["Income", "INCOME", "income"] {
            let s = m.match_header(header, &e, &cfg);
            assert_eq!(s.best().unwrap().ty, builtin_id(&o, "salary"), "{header}");
            assert_eq!(s.best().unwrap().confidence, 1.0);
        }
        // Abbreviation expansion: DOB → birth date.
        let s = m.match_header("DOB", &e, &cfg);
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "birth date"));
    }

    #[test]
    fn snake_and_camel_normalize() {
        let (o, e, m) = setup();
        let cfg = SigmaTyperConfig::default();
        for header in ["first_name", "firstName", "First Name", "FIRST_NAME"] {
            let s = m.match_header(header, &e, &cfg);
            assert_eq!(
                s.best().unwrap().ty,
                builtin_id(&o, "first name"),
                "header {header}"
            );
        }
    }

    #[test]
    fn typo_headers_fuzzy_match_below_certainty() {
        let (o, e, m) = setup();
        let s = m.match_header("salry", &e, &SigmaTyperConfig::default());
        let best = s.best().unwrap();
        assert_eq!(best.ty, builtin_id(&o, "salary"));
        assert!(best.confidence < 1.0 && best.confidence > 0.6);
    }

    #[test]
    fn unrelated_headers_score_low() {
        let (_, e, m) = setup();
        let s = m.match_header("xq7_zz", &e, &SigmaTyperConfig::default());
        assert!(
            s.best_confidence() < 0.82,
            "garbage header must not clear the cascade: {:?}",
            s.best()
        );
    }

    #[test]
    fn empty_header_no_candidates() {
        let (_, e, m) = setup();
        let s = m.match_header("  ", &e, &SigmaTyperConfig::default());
        assert!(s.candidates.is_empty());
    }

    #[test]
    fn decorated_headers_still_hit() {
        let (o, e, m) = setup();
        let s = m.match_header("col_salary", &e, &SigmaTyperConfig::default());
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "salary"));
        assert!(s.best().unwrap().confidence > 0.7);
    }

    #[test]
    fn bounds_dominate_the_scores_they_stand_in_for() {
        // Pruning is sound only if no bound falls below the fuzzy score
        // it stands in for, including on pairs the floor never lets it
        // prune: check every surface against headers that share chars,
        // prefixes and tokens with the surfaces.
        let (_, _, m) = setup();
        let mut headers: Vec<String> = Vec::new();
        for s in &m.surfaces {
            headers.push(s.text.clone());
            headers.push(format!("{}s", s.text));
            headers.push(s.text.chars().rev().collect());
        }
        for h in headers.iter().map(|h| normalize_header(h)) {
            if h.is_empty() {
                continue;
            }
            let probe = Probe::new(&h);
            for s in &m.surfaces {
                let bound = s.fuzzy_upper_bound(&probe);
                let score = fuzzy_score(&h, &s.text);
                assert!(
                    score <= bound + BOUND_SLACK,
                    "bound {bound} < score {score} for {h:?} vs {:?}",
                    s.text
                );
                assert_eq!(s.token_dice(&probe), tu_text::token_dice(&h, &s.text));
            }
        }
    }
}
