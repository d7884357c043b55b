//! Prediction types: step identities, per-step candidates and timings,
//! and final annotations.

use tu_ontology::TypeId;

/// Identifies a cascade step (Figure 4).
///
/// The seed pipeline hardcoded a closed three-variant enum; the cascade
/// API is open, so a step is identified by a small integer id instead.
/// Ids `0..16` are reserved for built-in steps; user-defined steps
/// allocate ids through [`StepId::custom`]. The seed enum's variant
/// paths (`Step::Header`, `Step::Lookup`, `Step::Embedding`) remain
/// available as constants for source compatibility.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(u16);

/// Source-compatibility alias for the seed's `Step` enum: `Step::Header`
/// et al. keep working as both expressions and match patterns.
pub type Step = StepId;

impl StepId {
    /// Built-in step 1: header matching (syntactic + semantic).
    pub const HEADER: StepId = StepId(0);
    /// Built-in step 2: value lookup (LFs, knowledge base, regexes).
    pub const LOOKUP: StepId = StepId(1);
    /// Built-in step 3: table-embedding model.
    pub const EMBEDDING: StepId = StepId(2);
    /// Built-in step 4: standalone regex bank (shape + range rules only).
    pub const REGEX_ONLY: StepId = StepId(3);

    /// Seed-enum variant spelling of [`StepId::HEADER`].
    #[allow(non_upper_case_globals)]
    pub const Header: StepId = StepId::HEADER;
    /// Seed-enum variant spelling of [`StepId::LOOKUP`].
    #[allow(non_upper_case_globals)]
    pub const Lookup: StepId = StepId::LOOKUP;
    /// Seed-enum variant spelling of [`StepId::EMBEDDING`].
    #[allow(non_upper_case_globals)]
    pub const Embedding: StepId = StepId::EMBEDDING;

    /// The three standard steps in execution (latency) order — the seed
    /// pipeline's `Step::ALL`.
    pub const ALL: [StepId; 3] = [StepId::HEADER, StepId::LOOKUP, StepId::EMBEDDING];

    /// First id available to user-defined steps.
    const FIRST_CUSTOM: u16 = 16;

    /// The id of the `n`-th user-defined step. Custom ids never collide
    /// with built-in ones.
    ///
    /// # Panics
    /// Panics when `n > u16::MAX - 16` (the id would wrap into the
    /// reserved built-in range).
    #[must_use]
    pub const fn custom(n: u16) -> StepId {
        assert!(
            n <= u16::MAX - StepId::FIRST_CUSTOM,
            "custom step index overflows the id space"
        );
        StepId(StepId::FIRST_CUSTOM + n)
    }

    /// Is this a user-defined (non-built-in) step id?
    #[must_use]
    pub const fn is_custom(self) -> bool {
        self.0 >= StepId::FIRST_CUSTOM
    }

    /// Raw id value (stable across runs; useful for telemetry keys).
    #[must_use]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Display name for built-in steps; `"custom"` for user-defined ids
    /// (a custom step's real name lives on its `AnnotationStep` impl and
    /// in the [`StepTiming`] records).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StepId::HEADER => "header",
            StepId::LOOKUP => "lookup",
            StepId::EMBEDDING => "embedding",
            StepId::REGEX_ONLY => "regex-only",
            _ => "custom",
        }
    }
}

impl std::fmt::Debug for StepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StepId::HEADER => write!(f, "Header"),
            StepId::LOOKUP => write!(f, "Lookup"),
            StepId::EMBEDDING => write!(f, "Embedding"),
            StepId::REGEX_ONLY => write!(f, "RegexOnly"),
            StepId(raw) => write!(f, "Custom({})", raw - StepId::FIRST_CUSTOM),
        }
    }
}

/// One candidate type with a confidence from one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Proposed semantic type.
    pub ty: TypeId,
    /// Step-local confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Scores a single step assigned to a single column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepScores {
    /// Candidates, sorted descending by confidence.
    pub candidates: Vec<Candidate>,
}

impl StepScores {
    /// Build from unsorted candidates (sorts, deduplicates by max).
    #[must_use]
    pub fn from_candidates(mut cands: Vec<Candidate>) -> Self {
        // Deduplicate keeping the max confidence per type.
        cands.sort_by(|a, b| {
            a.ty.cmp(&b.ty)
                .then(b.confidence.partial_cmp(&a.confidence).expect("finite"))
        });
        cands.dedup_by_key(|c| c.ty);
        cands.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("finite")
                .then(a.ty.cmp(&b.ty))
        });
        StepScores { candidates: cands }
    }

    /// Best candidate, if any (borrowed — the aggregation hot path calls
    /// this per column and must not clone).
    #[must_use]
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.first()
    }

    /// Best confidence or 0.
    #[must_use]
    pub fn best_confidence(&self) -> f64 {
        self.best().map_or(0.0, |c| c.confidence)
    }

    /// Confidence for a specific type (0 when absent).
    #[must_use]
    pub fn confidence_for(&self, ty: TypeId) -> f64 {
        self.candidates
            .iter()
            .find(|c| c.ty == ty)
            .map_or(0.0, |c| c.confidence)
    }
}

/// Wall-clock telemetry for one cascade step over one table.
///
/// The cascade reports one record per configured step, in execution
/// order — including steps that skipped every column (`columns == 0`),
/// so per-step dashboards see a stable schema.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Which step this record measures.
    pub step: StepId,
    /// The step's display name (meaningful for custom steps, whose
    /// [`StepId::name`] is just `"custom"`).
    pub name: String,
    /// Wall-clock nanoseconds the step spent on this table, including
    /// per-column skip checks and cache traffic.
    pub nanos: u128,
    /// How many columns the step actually ran on — neither skipped nor
    /// served from the step cache. On a warm repeat crawl this drops
    /// to zero for every step while `cache_hits` absorbs the
    /// difference; a header-scoped step (see
    /// [`CacheScope`](crate::step::CacheScope)) already hits on a cold
    /// crawl for a header text it has seen under the same `Wg` state.
    pub columns: usize,
    /// Columns answered from the step cache instead of running the
    /// step (always 0 when no cache is configured).
    pub cache_hits: usize,
    /// Columns the cache was consulted for but had no entry (0 when no
    /// cache is configured). A miss runs the step (counted in
    /// `columns`), reuses the base crawl's entry on a delta-aware
    /// recrawl (counted in `delta_reused`), or is dropped by budget
    /// degradation.
    pub cache_misses: usize,
    /// Results inserted into the step cache after running.
    pub cache_inserts: usize,
    /// How many chunks of this step's frontier the executor ran: 0
    /// when nothing ran, 1 on the sequential path, more when the
    /// frontier was chunked for column-parallel execution (see
    /// [`CascadeExecutor`](crate::executor::CascadeExecutor)).
    pub chunks: usize,
    /// Nanoseconds spent *inside* the step's chunks, scoring their
    /// columns, summed across chunks — a CPU-time proxy that leaves out
    /// building a split step's halves. On the column-parallel path this
    /// exceeds the step's share of the wall-clock [`nanos`], and the
    /// ratio `parallel_nanos / nanos` approximates the intra-table
    /// speedup. The [`CostModel`](crate::cost::CostModel) takes this
    /// field over `columns` as the step's cost per column.
    ///
    /// [`nanos`]: StepTiming::nanos
    pub parallel_nanos: u128,
    /// Columns answered by reusing the *base crawl's* cached scores on
    /// a delta-aware recrawl — the column's content moved, but by less
    /// than the step's sensitivity threshold (see
    /// [`AnnotationRequest::with_base`](crate::request::AnnotationRequest::with_base)).
    /// Counted separately from [`cache_hits`](StepTiming::cache_hits),
    /// which remain exact-fingerprint hits; always 0 outside
    /// delta-aware requests and at sensitivity 0.
    pub delta_reused: usize,
    /// Columns a [split](crate::step::AnnotationStep::split) step
    /// answered by running only its combine on a stored global half
    /// (see [`GlobalPartStore`](crate::cache::GlobalPartStore)). Each is
    /// also counted in `columns`, and in `cache_misses` when the cache
    /// was consulted for its scores; never in `cache_hits`. Always 0
    /// without a cache that owns a store.
    pub global_hits: usize,
}

/// Final annotation of one column.
#[derive(Debug, Clone)]
pub struct ColumnAnnotation {
    /// Column index in the table.
    pub col_idx: usize,
    /// Aggregated top-k candidates, best first.
    pub top_k: Vec<Candidate>,
    /// Final decision after τ-thresholding: `TypeId::UNKNOWN` when the
    /// system abstains.
    pub predicted: TypeId,
    /// Confidence of the final decision.
    pub confidence: f64,
    /// Which steps actually ran for this column.
    pub steps_run: Vec<StepId>,
    /// Per-step scores (parallel to `steps_run`).
    pub step_scores: Vec<StepScores>,
}

impl ColumnAnnotation {
    /// Did the system abstain on this column?
    #[must_use]
    pub fn abstained(&self) -> bool {
        self.predicted.is_unknown()
    }

    /// The step whose candidate confidence first met the cascade
    /// threshold, if any (used by the E6 cascade experiment).
    #[must_use]
    pub fn resolving_step(&self, cascade_threshold: f64) -> Option<StepId> {
        for (step, scores) in self.steps_run.iter().zip(&self.step_scores) {
            if scores.best_confidence() >= cascade_threshold {
                return Some(*step);
            }
        }
        None
    }
}

/// Annotation of a whole table.
#[derive(Debug, Clone)]
pub struct TableAnnotation {
    /// One annotation per column, in column order.
    pub columns: Vec<ColumnAnnotation>,
    /// Per-step wall-clock telemetry, one record per configured cascade
    /// step in execution order (replaces the seed's `[u128; 3]`).
    pub timings: Vec<StepTiming>,
}

impl TableAnnotation {
    /// Predicted types in column order.
    #[must_use]
    pub fn predictions(&self) -> Vec<TypeId> {
        self.columns.iter().map(|c| c.predicted).collect()
    }

    /// Total wall-clock nanoseconds recorded for a step (0 when the step
    /// is not in the cascade).
    #[must_use]
    pub fn nanos_for(&self, step: StepId) -> u128 {
        self.timings
            .iter()
            .filter(|t| t.step == step)
            .map(|t| t.nanos)
            .sum()
    }

    /// Total wall-clock nanoseconds across every step record — the
    /// number to compare against a request budget's
    /// [`spent_nanos`](crate::request::DegradationReport::spent_nanos)
    /// (which charges the larger of wall-clock and summed in-chunk
    /// time per step, so it is ≥ the per-step wall clock whenever
    /// column parallelism engaged).
    #[must_use]
    pub fn total_nanos(&self) -> u128 {
        self.timings.iter().map(|t| t.nanos).sum()
    }

    /// How many columns abstained (predicted
    /// [`TypeId::UNKNOWN`](tu_ontology::TypeId::UNKNOWN)) — under a
    /// degraded outcome this is the headline quality cost of the
    /// budget.
    #[must_use]
    pub fn abstained_columns(&self) -> usize {
        self.columns.iter().filter(|c| c.abstained()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_scores_sort_and_dedup() {
        let s = StepScores::from_candidates(vec![
            Candidate {
                ty: TypeId(2),
                confidence: 0.5,
            },
            Candidate {
                ty: TypeId(1),
                confidence: 0.9,
            },
            Candidate {
                ty: TypeId(2),
                confidence: 0.7,
            },
        ]);
        assert_eq!(s.candidates.len(), 2);
        assert_eq!(s.best().unwrap().ty, TypeId(1));
        assert_eq!(s.confidence_for(TypeId(2)), 0.7);
        assert_eq!(s.confidence_for(TypeId(9)), 0.0);
        assert_eq!(StepScores::default().best_confidence(), 0.0);
    }

    #[test]
    fn resolving_step_detection() {
        let ann = ColumnAnnotation {
            col_idx: 0,
            top_k: vec![],
            predicted: TypeId(1),
            confidence: 0.9,
            steps_run: vec![Step::Header, Step::Lookup],
            step_scores: vec![
                StepScores::from_candidates(vec![Candidate {
                    ty: TypeId(1),
                    confidence: 0.3,
                }]),
                StepScores::from_candidates(vec![Candidate {
                    ty: TypeId(1),
                    confidence: 0.95,
                }]),
            ],
        };
        assert_eq!(ann.resolving_step(0.8), Some(Step::Lookup));
        assert_eq!(ann.resolving_step(0.99), None);
        assert!(!ann.abstained());
    }

    #[test]
    fn step_names() {
        assert_eq!(Step::ALL.len(), 3);
        assert_eq!(Step::Header.name(), "header");
        assert_eq!(Step::Embedding.name(), "embedding");
        assert_eq!(StepId::REGEX_ONLY.name(), "regex-only");
        assert_eq!(StepId::custom(2).name(), "custom");
    }

    #[test]
    fn seed_enum_constants_alias_builtin_ids() {
        assert_eq!(Step::Header, StepId::HEADER);
        assert_eq!(Step::Lookup, StepId::LOOKUP);
        assert_eq!(Step::Embedding, StepId::EMBEDDING);
        // Constants still work as match patterns (structural equality).
        let resolved = Some(StepId::LOOKUP);
        let label = match resolved {
            Some(Step::Header) => "h",
            Some(Step::Lookup) => "l",
            _ => "other",
        };
        assert_eq!(label, "l");
    }

    #[test]
    fn custom_ids_never_collide_with_builtins() {
        for n in 0..8 {
            let id = StepId::custom(n);
            assert!(id.is_custom());
            assert!(!Step::ALL.contains(&id));
            assert_ne!(id, StepId::REGEX_ONLY);
        }
        assert_eq!(StepId::custom(0), StepId::custom(0));
        assert_ne!(StepId::custom(0), StepId::custom(1));
        assert!(!StepId::HEADER.is_custom());
        assert_eq!(format!("{:?}", StepId::custom(3)), "Custom(3)");
        assert_eq!(format!("{:?}", StepId::HEADER), "Header");
    }

    fn timing(step: StepId, name: &str, nanos: u128) -> StepTiming {
        StepTiming {
            step,
            name: name.into(),
            nanos,
            columns: 1,
            cache_hits: 0,
            cache_misses: 0,
            cache_inserts: 0,
            chunks: 1,
            parallel_nanos: nanos,
            delta_reused: 0,
            global_hits: 0,
        }
    }

    #[test]
    fn nanos_for_sums_matching_steps() {
        let ann = TableAnnotation {
            columns: vec![],
            timings: vec![
                timing(StepId::HEADER, "header", 10),
                timing(StepId::LOOKUP, "lookup", 25),
            ],
        };
        assert_eq!(ann.nanos_for(StepId::HEADER), 10);
        assert_eq!(ann.nanos_for(StepId::LOOKUP), 25);
        assert_eq!(ann.nanos_for(StepId::EMBEDDING), 0);
        assert_eq!(ann.total_nanos(), 35);
        assert_eq!(ann.abstained_columns(), 0);
        assert!(ann.predictions().is_empty());
    }

    #[test]
    fn nanos_for_custom_registered_step_ids() {
        // A cascade mixing built-ins with user-registered steps: the
        // accessor must resolve custom ids exactly like built-in ones,
        // sum repeated records, and report 0 for unconfigured ids.
        let ann = TableAnnotation {
            columns: vec![],
            timings: vec![
                timing(StepId::HEADER, "header", 5),
                timing(StepId::custom(0), "ticket-prefix", 40),
                timing(StepId::custom(7), "geo-gazetteer", 11),
                timing(StepId::custom(0), "ticket-prefix", 2),
            ],
        };
        assert_eq!(ann.nanos_for(StepId::custom(0)), 42);
        assert_eq!(ann.nanos_for(StepId::custom(7)), 11);
        assert_eq!(ann.nanos_for(StepId::HEADER), 5);
        // Unconfigured ids — custom or built-in — report zero.
        assert_eq!(ann.nanos_for(StepId::custom(1)), 0);
        assert_eq!(ann.nanos_for(StepId::REGEX_ONLY), 0);
        // The raw id a custom timing reports round-trips through
        // telemetry keys.
        assert_eq!(StepId::custom(7).raw(), 16 + 7);
    }
}
