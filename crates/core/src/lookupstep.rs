//! Pipeline step 2: value lookup (paper §4.3).
//!
//! Matches a sample of column values against three rule sources: (1) the
//! labeling functions of the global and local models (DPBD products),
//! (2) the knowledge-base dictionaries (DBpedia role), and (3) the regex
//! bank. "The fraction of values that matched a type, is returned as the
//! confidence for that type."

use crate::config::SigmaTyperConfig;
use crate::prediction::{Candidate, StepScores};
use crate::regexbank::RegexBank;
use tu_dp::{context, LabelingFunction, LfContext, LfKind, LfSource};
use tu_kb::KnowledgeBase;
use tu_ontology::TypeId;
use tu_table::Column;

/// The value-lookup step.
#[derive(Debug, Clone)]
pub struct ValueLookup {
    kb: KnowledgeBase,
    bank: RegexBank,
}

impl ValueLookup {
    /// Build from a knowledge base and a regex bank.
    #[must_use]
    pub fn new(kb: KnowledgeBase, bank: RegexBank) -> Self {
        ValueLookup { kb, bank }
    }

    /// The knowledge base (shared with DPBD).
    #[must_use]
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The regex bank (shared with the standalone
    /// [`RegexOnlyStep`](crate::step::RegexOnlyStep)).
    #[must_use]
    pub fn bank(&self) -> &RegexBank {
        &self.bank
    }

    /// Mutable regex bank (user-expandable, §4.3).
    pub fn bank_mut(&mut self) -> &mut RegexBank {
        &mut self.bank
    }

    /// Look up one column. `lf_banks` are the LF banks to consult (the
    /// global bank and the customer's local bank); `neighbor_types` are
    /// the current predictions for the other columns (context for
    /// co-occurrence LFs).
    #[must_use]
    pub fn lookup(
        &self,
        column: &Column,
        normalized_header: &str,
        neighbor_types: &[TypeId],
        lf_banks: &[&[LabelingFunction]],
        config: &SigmaTyperConfig,
    ) -> StepScores {
        self.lookup_weighted(
            column,
            normalized_header,
            neighbor_types,
            lf_banks,
            config,
            &|_| 1.0,
        )
    }

    /// [`ValueLookup::lookup`] with a per-type weight applied to every
    /// *globally sourced* candidate (KB, regex bank, global LFs). The
    /// customer's local LFs are never discounted — this is how `Wg`
    /// shrinks when the local context contradicts global knowledge.
    ///
    /// Renders the column's `config.lookup_sample`-value sample and
    /// collects its numeric values once, and builds one
    /// [`LfContext`] for every LF of the banks. When the lookup sample
    /// has the LFs' size ([`tu_dp::lf::SAMPLE`], both 40 by default),
    /// the context reuses the lookup's rendering instead of making its
    /// own.
    ///
    /// Only identity-style LFs (header, dictionary, shape) vote, in
    /// bank order. Numeric envelopes and co-occurrence are
    /// *data-programming* LFs: they mine weakly labeled training data
    /// (tu-dp), where the min-votes/strong gating controls their
    /// noise, but as direct voters they fire on far too many columns
    /// (measured in experiment E1).
    #[must_use]
    pub fn lookup_weighted(
        &self,
        column: &Column,
        normalized_header: &str,
        neighbor_types: &[TypeId],
        lf_banks: &[&[LabelingFunction]],
        config: &SigmaTyperConfig,
        global_weight: &dyn Fn(TypeId) -> f64,
    ) -> StepScores {
        let sample = render_sample(column, config);
        let ctx = lf_context(column, &sample, normalized_header, neighbor_types, config);
        let mut cands = self.value_candidates(&sample, ctx.numeric(), config, global_weight);
        push_votes(
            &mut cands,
            lf_banks.iter().flat_map(|bank| bank.iter()),
            &ctx,
            global_weight,
        );
        truncated(StepScores::from_candidates(cands), config)
    }

    /// The lookup step's global half (see
    /// [`SplitStep`](crate::step::SplitStep)): the unweighted KB, shape,
    /// range and global-LF candidates of [`lookup_weighted`], merged by
    /// [`StepScores::from_candidates`] and not truncated. Only the LFs of
    /// `global_lfs` whose source is [`LfSource::Global`] vote here; the
    /// combine takes the others. No neighbor types: of the LFs that vote
    /// at lookup time, none reads them.
    ///
    /// [`lookup_weighted`]: ValueLookup::lookup_weighted
    #[must_use]
    pub fn global_scores(
        &self,
        column: &Column,
        normalized_header: &str,
        global_lfs: &[LabelingFunction],
        config: &SigmaTyperConfig,
    ) -> StepScores {
        let sample = render_sample(column, config);
        let ctx = lf_context(column, &sample, normalized_header, &[], config);
        let mut cands = self.value_candidates(&sample, ctx.numeric(), config, &|_| 1.0);
        let global = global_lfs.iter().filter(|lf| lf.source == LfSource::Global);
        push_votes(&mut cands, global, &ctx, &|_| 1.0);
        StepScores::from_candidates(cands)
    }

    /// The lookup step's local combine: `global_weight` applied to every
    /// candidate of `global` (a [`global_scores`] result), the votes of
    /// `lfs` added — the customer's LFs plus any global-bank LF not
    /// sourced [`LfSource::Global`], discounted by source as in
    /// [`lookup_weighted`] — then merged and truncated.
    ///
    /// Equal to [`lookup_weighted`] over the global and local banks, bit
    /// for bit, for any positive `global_weight` (such as `Wg`): it is
    /// the last multiply on every global candidate, a positive factor
    /// keeps the larger of two confidences the larger, and
    /// [`StepScores::from_candidates`] does not depend on input order.
    ///
    /// [`global_scores`]: ValueLookup::global_scores
    /// [`lookup_weighted`]: ValueLookup::lookup_weighted
    #[must_use]
    pub fn combine(
        &self,
        global: &StepScores,
        column: &Column,
        normalized_header: &str,
        lfs: &[&LabelingFunction],
        config: &SigmaTyperConfig,
        global_weight: &dyn Fn(TypeId) -> f64,
    ) -> StepScores {
        let mut cands: Vec<Candidate> = global
            .candidates
            .iter()
            .map(|c| Candidate {
                ty: c.ty,
                confidence: c.confidence * global_weight(c.ty),
            })
            .collect();
        if !lfs.is_empty() {
            let ctx = context(column, normalized_header, &[]);
            push_votes(&mut cands, lfs.iter().copied(), &ctx, global_weight);
        }
        truncated(StepScores::from_candidates(cands), config)
    }

    /// Sources 2 and 3: knowledge-base dictionaries, shape rules and
    /// numeric ranges over the rendered `sample` and the column's
    /// numeric values, each candidate's confidence times
    /// `global_weight` as its last multiply. Nothing for an empty
    /// sample.
    fn value_candidates(
        &self,
        sample: &[String],
        numeric: &[f64],
        config: &SigmaTyperConfig,
        global_weight: &dyn Fn(TypeId) -> f64,
    ) -> Vec<Candidate> {
        let mut cands: Vec<Candidate> = Vec::new();
        if sample.is_empty() {
            return cands;
        }
        // Source 2: knowledge-base dictionaries.
        for (ty, fraction) in self.kb.coverage(sample) {
            if fraction > 0.3 {
                cands.push(Candidate {
                    ty,
                    confidence: fraction * global_weight(ty),
                });
            }
        }
        // Source 3: regex bank (shape rules).
        cands.extend(self.bank.score_shapes(sample, global_weight));
        // Source 3b: numeric ranges — ambiguous alone, so scaled down
        // to keep them from resolving the cascade unassisted.
        cands.extend(
            self.bank
                .score_ranges(numeric, config.range_lf_scale, global_weight),
        );
        cands
    }
}

/// Whether `lf` votes at lookup time (see
/// [`ValueLookup::lookup_weighted`]): header, dictionary and pattern LFs.
pub(crate) fn votes_at_lookup(lf: &LabelingFunction) -> bool {
    matches!(
        lf.kind,
        LfKind::HeaderEquals(_) | LfKind::Dictionary(_) | LfKind::Pattern(_)
    )
}

/// Source 1: the votes of the LFs among `lfs` that vote at lookup time,
/// 0.95 each, times `global_weight` for a globally sourced LF.
fn push_votes<'l>(
    cands: &mut Vec<Candidate>,
    lfs: impl Iterator<Item = &'l LabelingFunction>,
    ctx: &LfContext<'_>,
    global_weight: &dyn Fn(TypeId) -> f64,
) {
    for lf in lfs.filter(|lf| votes_at_lookup(lf)) {
        if let Some(ty) = lf.vote(ctx) {
            let mut confidence = 0.95;
            if lf.source == LfSource::Global {
                confidence *= global_weight(ty);
            }
            cands.push(Candidate { ty, confidence });
        }
    }
}

/// The column's `config.lookup_sample`-value sample, rendered.
fn render_sample(column: &Column, config: &SigmaTyperConfig) -> Vec<String> {
    column
        .sample(config.lookup_sample)
        .into_iter()
        .map(tu_table::Value::render)
        .collect()
}

/// The LF context of `column`, reusing the lookup's rendered `sample`
/// when it has the LFs' size ([`tu_dp::lf::SAMPLE`]).
fn lf_context<'a>(
    column: &Column,
    sample: &'a [String],
    normalized_header: &'a str,
    neighbor_types: &'a [TypeId],
    config: &SigmaTyperConfig,
) -> LfContext<'a> {
    if config.lookup_sample == tu_dp::lf::SAMPLE {
        LfContext::with_sample(column, sample, normalized_header, neighbor_types)
    } else {
        context(column, normalized_header, neighbor_types)
    }
}

/// `scores` cut to the lookup's `max(top_k, 8)` candidates.
fn truncated(mut scores: StepScores, config: &SigmaTyperConfig) -> StepScores {
    scores.candidates.truncate(config.top_k.max(8));
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use tu_ontology::{builtin_id, builtin_ontology, Ontology};

    fn setup() -> (Ontology, ValueLookup, SigmaTyperConfig) {
        let o = builtin_ontology();
        let kb = KnowledgeBase::builtin(&o);
        let bank = RegexBank::builtin(&o);
        (o, ValueLookup::new(kb, bank), SigmaTyperConfig::default())
    }

    #[test]
    fn dictionary_lookup_cities() {
        let (o, l, cfg) = setup();
        let col = Column::from_raw("x", &["Amsterdam", "Paris", "Tokyo", "Berlin"]);
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "city"));
        assert!(s.best().unwrap().confidence > 0.9);
    }

    #[test]
    fn regex_lookup_emails() {
        let (o, l, cfg) = setup();
        let col = Column::from_raw("x", &["ada@sigma.com", "bob@example.org"]);
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "email"));
    }

    #[test]
    fn fraction_confidence_reflects_dirt() {
        let (o, l, cfg) = setup();
        let col = Column::from_raw(
            "x",
            &["ada@sigma.com", "not-an-email", "bob@x.org", "c@d.io"],
        );
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        let email = builtin_id(&o, "email");
        assert!((s.confidence_for(email) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn range_rules_are_scaled_down() {
        let (o, l, cfg) = setup();
        let col = Column::from_raw("x", &["21", "34", "57", "68"]);
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        // Fires for age/percentage/rating ranges but never at full confidence.
        assert!(!s.candidates.is_empty());
        assert!(
            s.best_confidence() <= cfg.range_lf_scale + 1e-9,
            "range hits must stay below the cascade threshold: {:?}",
            s.best()
        );
        let age = builtin_id(&o, "age");
        assert!(s.confidence_for(age) > 0.0);
    }

    #[test]
    fn local_lfs_vote() {
        let (o, l, cfg) = setup();
        let salary = builtin_id(&o, "salary");
        let lfs = vec![tu_dp::LabelingFunction {
            name: "lf4".into(),
            ty: salary,
            source: tu_dp::LfSource::Local,
            kind: tu_dp::LfKind::HeaderEquals("income".into()),
        }];
        let col = Column::from_raw("Income", &["100", "200"]);
        let s = l.lookup(&col, "income", &[], &[&lfs], &cfg);
        assert!(s.confidence_for(salary) > 0.9);
    }

    #[test]
    fn empty_column_scores_nothing_from_values() {
        let (_, l, cfg) = setup();
        let col = Column::new("x", vec![]);
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        assert!(s.candidates.is_empty());
    }

    /// Only identity-style LFs vote at lookup time: range, mean and
    /// co-occurrence LFs that would vote on the column add nothing, in
    /// either bank, while header, dictionary and pattern LFs do.
    #[test]
    fn only_identity_lfs_vote_in_either_bank() {
        let (o, l, cfg) = setup();
        let ty = |name: &str| builtin_id(&o, name);
        let mk = |name: &str, ty: TypeId, kind: LfKind| LabelingFunction {
            name: name.into(),
            ty,
            source: tu_dp::LfSource::Local,
            kind,
        };
        let range = |name: &str| {
            mk(
                name,
                ty("age"),
                LfKind::ValueRange {
                    min: 0.0,
                    max: 1000.0,
                },
            )
        };
        let mean = mk(
            "mean",
            ty("month"),
            LfKind::MeanRange {
                min: 0.0,
                max: 1000.0,
            },
        );
        let cooc = |name: &str| {
            mk(
                name,
                ty("weekday"),
                LfKind::CoOccurrence {
                    required: vec![ty("city")],
                },
            )
        };
        let header = mk(
            "header",
            ty("salary"),
            LfKind::HeaderEquals("income".into()),
        );
        let dict = mk(
            "dict",
            ty("email"),
            LfKind::Dictionary(["100", "200", "300"].map(String::from).into()),
        );
        let pattern = mk(
            "pattern",
            ty("city"),
            LfKind::Pattern(tu_regex::Regex::new("[0-9]+").expect("valid regex")),
        );
        let col = Column::from_raw("Income", &["100", "200", "300"]);
        let neighbors = [ty("city")];
        let lf_ctx = context(&col, "income", &neighbors);
        let lookup = |banks: &[&[LabelingFunction]]| {
            l.lookup_weighted(&col, "income", &neighbors, banks, &cfg, &|_| 1.0)
        };

        let dp_only = [range("range-a"), mean.clone(), cooc("cooc-a")];
        let dp_only_b = [cooc("cooc-b"), range("range-b")];
        for lf in dp_only.iter().chain(&dp_only_b) {
            assert!(lf.vote(&lf_ctx).is_some(), "{} must fire here", lf.name);
        }
        let bare = lookup(&[]);
        assert_eq!(lookup(&[&dp_only, &dp_only_b]).candidates, bare.candidates);

        let identity_a = [header.clone(), dict.clone()];
        let identity_b = [pattern.clone()];
        let mixed_a = [range("range-a"), header, cooc("cooc-a"), dict];
        let mixed_b = [mean, pattern, range("range-b")];
        let voted = lookup(&[&mixed_a, &mixed_b]);
        assert_eq!(
            voted.candidates,
            lookup(&[&identity_a, &identity_b]).candidates
        );
        for name in ["salary", "email", "city"] {
            assert_eq!(bare.confidence_for(ty(name)), 0.0, "{name}");
            assert!(voted.confidence_for(ty(name)) > 0.9, "{name}: {voted:?}");
        }
        for name in ["age", "month", "weekday"] {
            assert_eq!(
                voted.confidence_for(ty(name)),
                bare.confidence_for(ty(name)),
                "{name}"
            );
        }
    }

    #[test]
    fn ambiguous_tokens_produce_multiple_candidates() {
        let (o, l, cfg) = setup();
        // Month names: dictionary hit for `month`; also weekday dictionary
        // must NOT fire.
        let col = Column::from_raw("x", &["January", "March", "July"]);
        let s = l.lookup(&col, "x", &[], &[], &cfg);
        assert_eq!(s.best().unwrap().ty, builtin_id(&o, "month"));
        assert_eq!(s.confidence_for(builtin_id(&o, "weekday")), 0.0);
    }
}
