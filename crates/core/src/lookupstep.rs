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
use tu_dp::{context, LabelingFunction, LfContext};
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
        self.lookup_with_lfs(
            column,
            normalized_header,
            neighbor_types,
            &Self::identity_lfs(lf_banks),
            config,
            global_weight,
        )
    }

    /// The identity-style subset of `lf_banks`, in bank order.
    ///
    /// Only identity-style LFs (header, dictionary, shape) vote at
    /// inference time. Numeric envelopes and co-occurrence are
    /// *data-programming* LFs: they mine weakly labeled training data
    /// (tu-dp), where the min-votes/strong gating controls their
    /// noise, but as direct voters they fire on far too many columns
    /// (measured in experiment E1).
    ///
    /// The filter is order-preserving, so feeding the result to
    /// [`ValueLookup::lookup_with_lfs`] is bit-identical to
    /// [`ValueLookup::lookup_weighted`] over the raw banks — which is
    /// what lets [`LookupStep::run_batch`](crate::step::LookupStep)
    /// filter once per table instead of once per column.
    #[must_use]
    pub fn identity_lfs<'a>(lf_banks: &[&'a [LabelingFunction]]) -> Vec<&'a LabelingFunction> {
        Self::identity_lf_indices(lf_banks)
            .into_iter()
            .map(|(bank, lf)| &lf_banks[bank][lf])
            .collect()
    }

    /// The positions of the identity-style subset of `lf_banks`, as
    /// `(bank index, LF index)` pairs in bank order — the borrow-free
    /// twin of [`ValueLookup::identity_lfs`] (which is implemented on
    /// top of it, so the two can never drift). Positions are what the
    /// lookup step's table-level [`prepare`] setup stores: indices are
    /// `'static`, so one filter pass can be shared across
    /// column-parallel chunk workers and re-borrowed against each
    /// chunk's own bank references.
    ///
    /// [`prepare`]: crate::step::AnnotationStep::prepare
    #[must_use]
    pub fn identity_lf_indices(lf_banks: &[&[LabelingFunction]]) -> Vec<(usize, usize)> {
        lf_banks
            .iter()
            .enumerate()
            .flat_map(|(bi, bank)| bank.iter().enumerate().map(move |(li, lf)| (bi, li, lf)))
            .filter(|(_, _, lf)| {
                matches!(
                    lf.kind,
                    tu_dp::LfKind::HeaderEquals(_)
                        | tu_dp::LfKind::Dictionary(_)
                        | tu_dp::LfKind::Pattern(_)
                )
            })
            .map(|(bi, li, _)| (bi, li))
            .collect()
    }

    /// [`ValueLookup::lookup_weighted`] over a prefiltered
    /// identity-LF list (see [`ValueLookup::identity_lfs`]).
    ///
    /// Renders the column's `config.lookup_sample`-value sample and
    /// collects its numeric values once, and builds one
    /// [`LfContext`] for every LF of the list. When the lookup sample
    /// has the LFs' size ([`tu_dp::lf::SAMPLE`], both 40 by default),
    /// the context reuses the lookup's rendering instead of making its
    /// own.
    #[must_use]
    pub fn lookup_with_lfs(
        &self,
        column: &Column,
        normalized_header: &str,
        neighbor_types: &[TypeId],
        identity_lfs: &[&LabelingFunction],
        config: &SigmaTyperConfig,
        global_weight: &dyn Fn(TypeId) -> f64,
    ) -> StepScores {
        let mut cands: Vec<Candidate> = Vec::new();
        let sample: Vec<String> = column
            .sample(config.lookup_sample)
            .into_iter()
            .map(tu_table::Value::render)
            .collect();
        let ctx = if config.lookup_sample == tu_dp::lf::SAMPLE {
            LfContext::with_sample(column, &sample, normalized_header, neighbor_types)
        } else {
            context(column, normalized_header, neighbor_types)
        };

        if !sample.is_empty() {
            // Source 2: knowledge-base dictionaries.
            for (ty, fraction) in self.kb.coverage(&sample) {
                if fraction > 0.3 {
                    cands.push(Candidate {
                        ty,
                        confidence: fraction * global_weight(ty),
                    });
                }
            }
            // Source 3: regex bank (shape rules).
            cands.extend(self.bank.score_shapes(&sample, global_weight));
            // Source 3b: numeric ranges — ambiguous alone, so scaled down
            // to keep them from resolving the cascade unassisted.
            cands.extend(self.bank.score_ranges(
                ctx.numeric(),
                config.range_lf_scale,
                global_weight,
            ));
        }

        // Source 1: labeling functions (global + local). Strong LFs carry
        // full weight; contextual LFs are scaled like range rules.
        for lf in identity_lfs {
            if let Some(ty) = lf.vote(&ctx) {
                let mut confidence = 0.95;
                if lf.source == tu_dp::LfSource::Global {
                    confidence *= global_weight(ty);
                }
                cands.push(Candidate { ty, confidence });
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

    #[test]
    fn identity_lf_prefilter_preserves_bank_order_and_votes() {
        let (o, l, cfg) = setup();
        let salary = builtin_id(&o, "salary");
        let age = builtin_id(&o, "age");
        let mk = |name: &str, ty: TypeId, kind: tu_dp::LfKind| tu_dp::LabelingFunction {
            name: name.into(),
            ty,
            source: tu_dp::LfSource::Local,
            kind,
        };
        let bank_a = vec![
            mk("h", salary, tu_dp::LfKind::HeaderEquals("income".into())),
            // Data-programming-only kind: must be filtered out.
            mk(
                "r",
                age,
                tu_dp::LfKind::ValueRange {
                    min: 0.0,
                    max: 120.0,
                },
            ),
        ];
        let bank_b = vec![mk(
            "d",
            salary,
            tu_dp::LfKind::HeaderEquals("salary".into()),
        )];
        let banks: [&[tu_dp::LabelingFunction]; 2] = [&bank_a, &bank_b];
        let identity = ValueLookup::identity_lfs(&banks);
        assert_eq!(identity.len(), 2);
        assert_eq!(identity[0].name, "h");
        assert_eq!(identity[1].name, "d");
        // Prefiltered path is bit-identical to the raw-bank path.
        let col = Column::from_raw("Income", &["100", "200"]);
        let direct = l.lookup_weighted(&col, "income", &[], &banks, &cfg, &|_| 1.0);
        let prefiltered = l.lookup_with_lfs(&col, "income", &[], &identity, &cfg, &|_| 1.0);
        assert_eq!(direct.candidates, prefiltered.candidates);
        assert!(direct.confidence_for(salary) > 0.9);
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
