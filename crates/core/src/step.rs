//! The pluggable cascade step API: [`AnnotationStep`] and the built-in
//! step implementations.
//!
//! The paper's cascade (Figure 4) is meant to be customized per
//! deployment — Sigma adds, removes, and tunes steps per customer.
//! Every signal source is therefore an [`AnnotationStep`]: an object
//! with a stable [`StepId`], a display name, a per-column skip
//! predicate (the cascade's early-exit gate), and a scoring function
//! over a [`StepContext`]. The [`Cascade`](crate::cascade::Cascade)
//! runs an ordered list of them; user code registers additional steps
//! through [`SigmaTyper::builder`](crate::system::SigmaTyper::builder).

use crate::config::SigmaTyperConfig;
use crate::embedstep::TableEmbeddingModel;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{Candidate, StepId, StepScores};
use tu_ontology::TypeId;
use tu_table::{Column, Table};

/// One column's cascade state at the current step: the quantities that
/// vary per column while everything else in a [`StepContext`] is shared
/// across the whole table.
///
/// The [`CascadeExecutor`](crate::executor::CascadeExecutor) recomputes
/// one `ColumnState` per column before each step and exposes the full
/// slice through [`StepContext::column_states`], which is what lets
/// [`AnnotationStep::scorer`] derive exact per-column contexts via
/// [`StepContext::for_column`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnState {
    /// Best confidence any earlier step achieved for this column.
    pub best_so_far: f64,
}

/// Everything a step may consult when scoring one column.
///
/// Borrowed per column per step by the cascade; steps must treat it as
/// read-only (inference never mutates the models).
#[derive(Debug, Clone, Copy)]
pub struct StepContext<'a> {
    /// The table being annotated.
    pub table: &'a Table,
    /// Index of the column this step is scoring.
    pub col_idx: usize,
    /// Normalized headers for every column of the table.
    pub normalized_headers: &'a [String],
    /// Tentative per-column types: for each column, the type of the
    /// highest-confidence candidate any *earlier* step produced
    /// (`TypeId::UNKNOWN` where nothing scored yet). Context for
    /// co-occurrence signals.
    pub tentative: &'a [TypeId],
    /// Best confidence any earlier step achieved for *this* column —
    /// the quantity the cascade threshold gates on.
    pub best_so_far: f64,
    /// The shared global model.
    pub global: &'a GlobalModel,
    /// The customer's local model.
    pub local: &'a LocalModel,
    /// The active configuration.
    pub config: &'a SigmaTyperConfig,
    /// Per-column cascade state for *every* column of the table at
    /// this step, indexed by column. The executor always fills this;
    /// hand-constructed contexts (the fields are public for testing
    /// custom steps) may leave it empty, in which case
    /// [`StepContext::for_column`] falls back to a default state.
    pub column_states: &'a [ColumnState],
}

impl<'a> StepContext<'a> {
    /// The column being scored.
    ///
    /// # Panics
    /// Panics when `col_idx` is out of range for `table`. Contexts
    /// built by the cascade are always in range; a hand-constructed
    /// context (the fields are public for testing custom steps) must
    /// uphold this itself.
    #[must_use]
    pub fn column(&self) -> &'a Column {
        self.table.column(self.col_idx).expect("column in range")
    }

    /// The raw header of the column being scored.
    ///
    /// # Panics
    /// Panics when `col_idx` is out of range (see [`StepContext::column`]).
    #[must_use]
    pub fn header(&self) -> &'a str {
        self.table.columns()[self.col_idx].name.as_str()
    }

    /// The normalized header of the column being scored.
    ///
    /// # Panics
    /// Panics when `col_idx` is out of range of `normalized_headers`
    /// (see [`StepContext::column`]).
    #[must_use]
    pub fn normalized_header(&self) -> &'a str {
        &self.normalized_headers[self.col_idx]
    }

    /// Tentative types of the *other* columns (unknowns dropped) — the
    /// neighbor context the lookup step feeds its co-occurrence LFs.
    #[must_use]
    pub fn neighbor_types(&self) -> Vec<TypeId> {
        self.tentative
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != self.col_idx && !t.is_unknown())
            .map(|(_, t)| *t)
            .collect()
    }

    /// Raw headers of the *other* columns — the neighbor context the
    /// embedding step encodes.
    #[must_use]
    pub fn neighbor_headers(&self) -> Vec<&'a str> {
        self.table
            .columns()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.col_idx)
            .map(|(_, c)| c.name.as_str())
            .collect()
    }

    /// The same table-level context re-focused on a sibling column:
    /// everything shared stays shared, while `col_idx` and
    /// `best_so_far` are taken from [`StepContext::column_states`].
    /// This is how the default [`AnnotationStep::scorer`] derives the
    /// exact per-column context the executor would have built.
    ///
    /// Hand-constructed contexts with an empty `column_states` slice
    /// fall back to [`ColumnState::default`] (no prior confidence) for
    /// columns the slice does not cover.
    #[must_use]
    pub fn for_column(&self, col_idx: usize) -> StepContext<'a> {
        let state = self.column_states.get(col_idx).copied().unwrap_or_default();
        StepContext {
            col_idx,
            best_so_far: state.best_so_far,
            ..*self
        }
    }
}

/// One pluggable stage of the annotation cascade.
///
/// Implementations must be deterministic and read-only: `run` is called
/// from multiple [`AnnotationService`](crate::service::AnnotationService)
/// worker threads against one shared instance (hence `Send + Sync`).
pub trait AnnotationStep: std::fmt::Debug + Send + Sync {
    /// Stable identity of this step, used in [`ColumnAnnotation::steps_run`],
    /// vote weighting, telemetry, and builder addressing. Custom steps
    /// should allocate theirs via [`StepId::custom`].
    ///
    /// [`ColumnAnnotation::steps_run`]: crate::prediction::ColumnAnnotation::steps_run
    fn id(&self) -> StepId;

    /// Human-readable name, reported in [`StepTiming`](crate::prediction::StepTiming).
    fn name(&self) -> &str;

    /// Per-column skip predicate: `true` means the cascade must not run
    /// this step for the context's column. The default is the paper's
    /// early-exit rule — skip once an earlier step already met the
    /// cascade confidence threshold. Override to add ablation gates or
    /// applicability checks (e.g. numeric-only steps skipping text
    /// columns).
    fn skip(&self, ctx: &StepContext<'_>) -> bool {
        ctx.best_so_far >= ctx.config.cascade_threshold
    }

    /// Score one column. Return [`StepScores::default`] when the step
    /// has no opinion; an executed step is recorded in `steps_run` even
    /// with empty scores (so telemetry distinguishes "ran, found
    /// nothing" from "skipped").
    fn run(&self, ctx: &StepContext<'_>) -> StepScores;

    /// Build this step's scorer for one table: a closure the
    /// [`CascadeExecutor`](crate::executor::CascadeExecutor) calls once
    /// per pending column, by column index, on whichever worker thread
    /// runs that column's chunk.
    ///
    /// The executor calls `scorer` once per `(step, table)` with a
    /// non-empty frontier, on the context of the frontier's first
    /// column, and shares the closure by reference across every chunk
    /// (hence `Sync`). That makes this the place for table-level setup
    /// a step wants paid once rather than once per column: compute it
    /// here and move it into the closure. The built-in
    /// [`EmbeddingStep`] encodes each header once here instead of once
    /// per `(column, neighbor)` pair, and its closure featurizes each
    /// column once for both of its heads.
    ///
    /// The default runs [`run`](AnnotationStep::run) on
    /// [`ctx.for_column(ci)`](StepContext::for_column). An override
    /// **must** return, for every column, exactly what that default
    /// returns, in whatever order and on whatever thread the columns
    /// are scored; the golden-equivalence suite
    /// (`tests/golden_cascade.rs`) holds the built-ins to it.
    fn scorer<'a>(&'a self, ctx: StepContext<'a>) -> Box<dyn Fn(usize) -> StepScores + Sync + 'a> {
        Box::new(move |ci| self.run(&ctx.for_column(ci)))
    }

    /// What the executor keys this step's entries in the
    /// [`StepCache`](crate::cache::StepCache) by, and so how widely one
    /// entry is shared. Defaults to [`CacheScope::Column`]; the
    /// built-in [`HeaderStep`] returns [`CacheScope::Header`].
    fn cache_scope(&self) -> CacheScope {
        CacheScope::Column
    }

    /// How tolerant this step's signal is to small column deltas, as a
    /// multiplier on the request's base sensitivity threshold (see
    /// [`SigmaTyperConfig::delta_sensitivity`](crate::config::SigmaTyperConfig::delta_sensitivity)).
    /// During a delta-aware recrawl a [`CacheScope::Column`] step
    /// reuses the base crawl's cached scores for a column whose
    /// [`movement`](tu_table::ColumnDelta::movement) is at or below
    /// `base_sensitivity × sensitivity_factor()`.
    ///
    /// Defaults to `1.0`. Steps whose signal aggregates over the whole
    /// column — so a few appended rows barely move it — may return a
    /// larger factor (the built-in [`EmbeddingStep`] does); steps that
    /// key on individual values should stay at or below `1.0`. The
    /// factor never affects what an executed step scores, only whether
    /// it re-runs, and reuse is disabled entirely at base sensitivity
    /// `0`.
    fn sensitivity_factor(&self) -> f64 {
        1.0
    }
}

/// What keys a step's entries in the
/// [`StepCache`](crate::cache::StepCache) — see
/// [`AnnotationStep::cache_scope`].
///
/// Both scopes share the cache's LRU, disk tier and compaction; they
/// differ in what the key hashes, and so in what retires an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// The column's [`ColumnFingerprint`](crate::cache::ColumnFingerprint):
    /// its header and values, the rest of the table, the cascade's step
    /// order, the config and the cache epoch. Right for any
    /// deterministic step; every epoch move retires the entry. Inserts
    /// are tagged with that epoch, so disk-tier compaction drops the
    /// entry once the epoch is dead.
    Column,
    /// Exactly what a header step reads: the global model's
    /// [`header_fingerprint`](crate::global::GlobalModel::header_fingerprint),
    /// the config, the column's raw header text, and the customer's
    /// `Wg` state under the column's normalized header — no epoch. One
    /// entry serves every column with that header in any table, for
    /// every customer with the same `Wg` state there, and survives
    /// epoch moves; a feedback retires it only by changing
    /// [`LocalModel::wg`](crate::local::LocalModel::wg) under that
    /// header. Inserts are untagged, so disk-tier compaction keeps the
    /// entry; a retired one stays on disk, unreachable, until the
    /// tier is cleared.
    ///
    /// So a step may declare this scope only when its scores depend on
    /// nothing but the header text, the config, the global model's
    /// header matcher and embedder, and `LocalModel::wg(_, normalized
    /// header)` — no cell values, neighbors, tentative types,
    /// `best_so_far` (the executor evaluates
    /// [`skip`](AnnotationStep::skip) before it consults the cache),
    /// other local state or customer ontology. The built-in
    /// [`HeaderStep`] is the only step that declares it. Such steps
    /// never take the delta-reuse path: an unchanged header is already
    /// an exact hit.
    Header,
}

/// Built-in step 1: header matching (syntactic + semantic), with the
/// customer's contextual global-weight discount `Wg` applied.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeaderStep;

impl AnnotationStep for HeaderStep {
    fn id(&self) -> StepId {
        StepId::HEADER
    }

    fn name(&self) -> &str {
        "header"
    }

    fn skip(&self, ctx: &StepContext<'_>) -> bool {
        !ctx.config.enable_header || ctx.best_so_far >= ctx.config.cascade_threshold
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        let mut scores =
            ctx.global
                .header
                .match_header(ctx.header(), &ctx.global.embedder, ctx.config);
        // Wg: global header knowledge the customer has repeatedly
        // overridden in this header context loses influence (Fig. 2).
        for c in &mut scores.candidates {
            c.confidence *= ctx.local.wg(c.ty, ctx.normalized_header());
        }
        scores
    }

    /// Keyed by header: `run` reads the raw and normalized header, the
    /// config, the global model's header matcher and embedder, and the
    /// customer's `Wg` discount under the normalized header, and the
    /// header key covers exactly those. One entry serves every column
    /// with this header in every table, so a warm crawl runs no header
    /// matching, and a feedback re-runs the matching only for the
    /// header whose `Wg` it changed.
    fn cache_scope(&self) -> CacheScope {
        CacheScope::Header
    }
}

/// Built-in step 2: value lookup — labeling functions, knowledge-base
/// dictionaries, and the regex bank, with `Wg` discounting on all
/// globally sourced candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupStep;

impl AnnotationStep for LookupStep {
    fn id(&self) -> StepId {
        StepId::LOOKUP
    }

    fn name(&self) -> &str {
        "lookup"
    }

    fn skip(&self, ctx: &StepContext<'_>) -> bool {
        !ctx.config.enable_lookup || ctx.best_so_far >= ctx.config.cascade_threshold
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        let neighbors = ctx.neighbor_types();
        ctx.global.lookup.lookup_weighted(
            ctx.column(),
            ctx.normalized_header(),
            &neighbors,
            &[&ctx.global.global_lfs, &ctx.local.lfs],
            ctx.config,
            &|t| ctx.local.wg(t, ctx.normalized_header()),
        )
    }
}

/// Built-in step 3: the table-embedding model, blending the finetuned
/// local model (when one exists) with the global one under the
/// adaptation weights `Wl`/`Wg`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmbeddingStep;

impl AnnotationStep for EmbeddingStep {
    fn id(&self) -> StepId {
        StepId::EMBEDDING
    }

    fn name(&self) -> &str {
        "embedding"
    }

    fn skip(&self, ctx: &StepContext<'_>) -> bool {
        !ctx.config.enable_embedding || ctx.best_so_far >= ctx.config.cascade_threshold
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        let neighbors = ctx.neighbor_headers();
        let scores_for = |model: &TableEmbeddingModel| model.predict(ctx.column(), &neighbors);
        let global_scores = scores_for(&ctx.global.embedding);
        match &ctx.local.finetuned {
            Some(local_model) => {
                let local_scores = scores_for(local_model);
                blend(
                    &global_scores,
                    &local_scores,
                    ctx.local,
                    ctx.normalized_header(),
                )
            }
            None => global_scores,
        }
    }

    /// Each header's phrase vector is encoded once per table instead of
    /// once per `(column, neighbor)` pair, and each column is
    /// featurized once for both heads. When the finetuned model
    /// [shares the global model's featurizer] — always, for one
    /// [`LocalModel::add_training`] cloned — the header vectors, the
    /// neighbor context and the feature vector are the same for both,
    /// so the closure computes them once and runs each head's
    /// [`Mlp::logits`] on that one vector. A finetuned model with a
    /// featurizer of its own gets its own header vectors and feature
    /// vectors, as in `run`. Either way the closure averages the
    /// vectors in the order `run` encodes them, so its scores are
    /// bit-identical to `run`'s.
    ///
    /// [shares the global model's featurizer]: TableEmbeddingModel::shares_featurizer
    /// [`Mlp::logits`]: tu_ml::Mlp::logits
    fn scorer<'a>(&'a self, ctx: StepContext<'a>) -> Box<dyn Fn(usize) -> StepScores + Sync + 'a> {
        let headers = ctx.table.headers();
        let encode = |model: &TableEmbeddingModel| -> Vec<Vec<f32>> {
            headers.iter().map(|h| model.header_vector(h)).collect()
        };
        let global = &ctx.global.embedding;
        let global_vecs = encode(global);
        // The finetuned head, with header vectors of its own only when
        // it featurizes through a featurizer of its own.
        let local = ctx.local.finetuned.as_ref().map(|model| {
            let own_vecs = (!model.shares_featurizer(global)).then(|| encode(model));
            (model, own_vecs)
        });
        let features = move |model: &TableEmbeddingModel, vecs: &[Vec<f32>], ci: usize| {
            let neighbors: Vec<&[f32]> = vecs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, v)| v.as_slice())
                .collect();
            let column = ctx.table.column(ci).expect("column in range");
            model.features_with_context(column, &model.context_of(&neighbors))
        };
        let scores = |model: &TableEmbeddingModel, f: &[f32]| {
            model.scores_from_logits(&model.mlp().logits(f))
        };
        Box::new(move |ci| {
            let f = features(global, &global_vecs, ci);
            let global_scores = scores(global, &f);
            let Some((model, own_vecs)) = &local else {
                return global_scores;
            };
            let local_scores = match own_vecs {
                None => scores(model, &f),
                Some(vecs) => scores(model, &features(model, vecs, ci)),
            };
            blend(
                &global_scores,
                &local_scores,
                ctx.local,
                &ctx.normalized_headers[ci],
            )
        })
    }

    /// The embedding signal is a mean over sampled cell vectors: a few
    /// appended rows shift the column embedding proportionally to
    /// their mass, so the step tolerates twice the base movement
    /// before a re-run pays for itself — and it is the most expensive
    /// step, so each avoided re-run is worth the most.
    fn sensitivity_factor(&self) -> f64 {
        2.0
    }
}

/// Blend global and local embedding scores with the per-type local
/// weights `Wl` ("the weight of the local model increases over time",
/// Figure 2).
fn blend(
    global: &StepScores,
    local_scores: &StepScores,
    local: &LocalModel,
    normalized_header: &str,
) -> StepScores {
    let mut types: Vec<TypeId> = global
        .candidates
        .iter()
        .chain(&local_scores.candidates)
        .map(|c| c.ty)
        .collect();
    types.sort_unstable();
    types.dedup();
    let cands = types
        .into_iter()
        .map(|ty| {
            let wl = local.wl(ty);
            let wg = local.wg(ty, normalized_header);
            let g = global.confidence_for(ty);
            let l = local_scores.confidence_for(ty);
            // Finetuning on a handful of customer examples skews the
            // local head toward the corrected classes, so its opinion
            // only enters the blend when it is *decisive*; otherwise
            // the (Wg-weighted) global model carries the type.
            const LOCAL_TRUST_FLOOR: f64 = 0.7;
            let local_term = if l >= LOCAL_TRUST_FLOOR { l } else { g * wg };
            Candidate {
                ty,
                confidence: (1.0 - wl) * wg * g + wl * local_term,
            }
        })
        .collect();
    StepScores::from_candidates(cands)
}

/// Built-in step 4 (not in the default cascade): the standalone regex
/// bank — shape and numeric-range rules only, with no knowledge base
/// and no labeling functions.
///
/// In the seed pipeline this signal was only reachable inside the
/// lookup step; as its own step it gives deployments a
/// dictionary-free, model-free rule stage they can insert anywhere —
/// e.g. ahead of lookup for pattern-heavy schemas, or as the only
/// value-based step in a minimal low-latency cascade.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegexOnlyStep;

impl AnnotationStep for RegexOnlyStep {
    fn id(&self) -> StepId {
        StepId::REGEX_ONLY
    }

    fn name(&self) -> &str {
        "regex-only"
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        let column = ctx.column();
        let bank = ctx.global.lookup.bank();
        let config = ctx.config;
        let wg = |t: TypeId| ctx.local.wg(t, ctx.normalized_header());
        let sample: Vec<String> = column
            .sample(config.lookup_sample)
            .into_iter()
            .map(tu_table::Value::render)
            .collect();
        // Same scoring rules as inside the lookup step — shared via
        // `RegexBank`, so the two sites can never drift apart.
        let mut cands = bank.score_shapes(&sample, &wg);
        cands.extend(bank.score_ranges(&column.numeric_values(), config.range_lf_scale, &wg));
        let mut scores = StepScores::from_candidates(cands);
        scores.candidates.truncate(config.top_k.max(8));
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use crate::global::train_global;
    use std::sync::{Arc, OnceLock};
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::{builtin_id, builtin_ontology};

    fn global() -> Arc<GlobalModel> {
        static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let ontology = builtin_ontology();
                let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0x57E9, 30));
                Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
            })
            .clone()
    }

    fn ctx_for<'a>(
        table: &'a Table,
        col_idx: usize,
        normalized: &'a [String],
        tentative: &'a [TypeId],
        global: &'a GlobalModel,
        local: &'a LocalModel,
        config: &'a SigmaTyperConfig,
    ) -> StepContext<'a> {
        StepContext {
            table,
            col_idx,
            normalized_headers: normalized,
            tentative,
            best_so_far: 0.0,
            global,
            local,
            config,
            column_states: &[],
        }
    }

    #[test]
    fn builtin_steps_have_distinct_ids_and_names() {
        let steps: [&dyn AnnotationStep; 4] =
            [&HeaderStep, &LookupStep, &EmbeddingStep, &RegexOnlyStep];
        let mut ids: Vec<StepId> = steps.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
        assert_eq!(HeaderStep.name(), "header");
        assert_eq!(RegexOnlyStep.name(), "regex-only");
    }

    #[test]
    fn default_skip_honors_cascade_threshold() {
        let g = global();
        let local = LocalModel::new();
        let config = SigmaTyperConfig::default();
        let table = Table::new("t", vec![Column::from_raw("x", &["1"])]).unwrap();
        let normalized = vec!["x".to_owned()];
        let tentative = vec![TypeId::UNKNOWN];
        let mut ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        assert!(!LookupStep.skip(&ctx));
        assert!(!RegexOnlyStep.skip(&ctx));
        ctx.best_so_far = config.cascade_threshold;
        assert!(LookupStep.skip(&ctx));
        assert!(EmbeddingStep.skip(&ctx));
        assert!(HeaderStep.skip(&ctx));
        assert!(RegexOnlyStep.skip(&ctx));
    }

    #[test]
    fn ablation_flags_gate_builtin_steps() {
        let g = global();
        let local = LocalModel::new();
        let config = SigmaTyperConfig {
            enable_header: false,
            enable_lookup: false,
            enable_embedding: false,
            ..SigmaTyperConfig::default()
        };
        let table = Table::new("t", vec![Column::from_raw("x", &["1"])]).unwrap();
        let normalized = vec!["x".to_owned()];
        let tentative = vec![TypeId::UNKNOWN];
        let ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        assert!(HeaderStep.skip(&ctx));
        assert!(LookupStep.skip(&ctx));
        assert!(EmbeddingStep.skip(&ctx));
        // RegexOnly has no ablation flag; only the threshold gates it.
        assert!(!RegexOnlyStep.skip(&ctx));
    }

    #[test]
    fn regex_only_step_scores_shapes_and_ranges() {
        let g = global();
        let o = &g.ontology;
        let local = LocalModel::new();
        let config = SigmaTyperConfig::default();
        let table = Table::new(
            "t",
            vec![
                Column::from_raw("a", &["ada@x.com", "bob@y.org", "eve@z.net"]),
                Column::from_raw("b", &["21", "34", "57"]),
                Column::from_raw("c", &["lorem ipsum", "dolor sit", "amet"]),
            ],
        )
        .unwrap();
        let normalized: Vec<String> = table
            .headers()
            .iter()
            .map(|h| tu_text::normalize_header(h))
            .collect();
        let tentative = vec![TypeId::UNKNOWN; 3];
        let email_ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        let s = RegexOnlyStep.run(&email_ctx);
        assert_eq!(s.best().unwrap().ty, builtin_id(o, "email"));
        assert!(s.best_confidence() > 0.9);
        // Numeric column: range rules fire, scaled below the threshold.
        let num_ctx = ctx_for(&table, 1, &normalized, &tentative, &g, &local, &config);
        let s = RegexOnlyStep.run(&num_ctx);
        assert!(!s.candidates.is_empty());
        assert!(s.best_confidence() <= config.range_lf_scale + 1e-9);
        // Free text matches nothing.
        let text_ctx = ctx_for(&table, 2, &normalized, &tentative, &g, &local, &config);
        assert!(RegexOnlyStep.run(&text_ctx).candidates.is_empty());
    }

    #[test]
    fn cache_scope_defaults_to_column_and_header_step_is_header_scoped() {
        assert_eq!(HeaderStep.cache_scope(), CacheScope::Header);
        assert_eq!(LookupStep.cache_scope(), CacheScope::Column);
        assert_eq!(EmbeddingStep.cache_scope(), CacheScope::Column);
        assert_eq!(RegexOnlyStep.cache_scope(), CacheScope::Column);
    }

    #[test]
    fn sensitivity_factors_default_to_one_with_embedding_more_tolerant() {
        assert_eq!(HeaderStep.sensitivity_factor(), 1.0);
        assert_eq!(LookupStep.sensitivity_factor(), 1.0);
        assert_eq!(RegexOnlyStep.sensitivity_factor(), 1.0);
        // Aggregate signal: tolerates more movement than value-keyed
        // steps before a re-run pays for itself.
        assert!(EmbeddingStep.sensitivity_factor() > 1.0);
    }

    /// Every built-in step's scorer must return, for each column, what
    /// `run` returns on `for_column(ci)`, whatever order the columns
    /// are scored in: the executor hands one scorer to every chunk.
    #[test]
    fn builtin_scorers_match_run_in_any_column_order() {
        let g = global();
        let mut local = LocalModel::new();
        let config = SigmaTyperConfig::default();
        let table = Table::new(
            "t",
            vec![
                Column::from_raw("xq_1", &["ada@x.com", "bob@y.org", "eve@z.net"]),
                Column::from_raw("xq_2", &["Oslo", "Lima", "Kyiv"]),
                Column::from_raw("xq_3", &["21", "34", "57"]),
                Column::from_raw("xq_4", &["lorem", "ipsum", "dolor"]),
            ],
        )
        .unwrap();
        let normalized: Vec<String> = table
            .headers()
            .iter()
            .map(|h| tu_text::normalize_header(h))
            .collect();
        let tentative = vec![TypeId::UNKNOWN, TypeId(3), TypeId::UNKNOWN, TypeId(5)];
        let states: Vec<ColumnState> = [0.1, 0.4, 0.0, 0.2]
            .into_iter()
            .map(|best_so_far| ColumnState { best_so_far })
            .collect();
        // Engage the finetuned-blend path of the embedding step too:
        // the first admitted example creates the finetuned model.
        let example = Table::new(
            "contacts",
            vec![
                Column::from_raw("name", &["Ada", "Bob"]),
                Column::from_raw("contact", &["20000001", "20000002"]),
            ],
        )
        .unwrap();
        local.add_training(&g.embedding, &example, 1, TypeId(2));
        assert!(local.finetuned.is_some());
        let steps: [&dyn AnnotationStep; 4] =
            [&HeaderStep, &LookupStep, &EmbeddingStep, &RegexOnlyStep];
        for step in steps {
            let mut ctx = ctx_for(&table, 2, &normalized, &tentative, &g, &local, &config);
            ctx.column_states = &states;
            let expected: Vec<StepScores> =
                (0..4).map(|ci| step.run(&ctx.for_column(ci))).collect();
            let score = step.scorer(ctx);
            for order in [[0, 1, 2, 3], [3, 1, 0, 2], [2, 2, 0, 3]] {
                for ci in order {
                    assert_eq!(
                        score(ci),
                        expected[ci],
                        "{}: column {ci} in order {order:?}",
                        step.name()
                    );
                }
            }
        }
    }

    /// The finetuned model `add_training` clones shares the global
    /// featurizer, so the scorer featurizes each column once for both
    /// heads; a finetuned model assigned with a featurizer of its own
    /// is still featurized through that one, as `run` does.
    #[test]
    fn embedding_scorer_featurizes_through_each_heads_own_featurizer() {
        let g = global();
        let config = SigmaTyperConfig::default();
        let table = Table::new(
            "t",
            vec![
                Column::from_raw("mail", &["ada@x.com", "bob@y.org", "eve@z.net"]),
                Column::from_raw("town", &["Oslo", "Lima", "Kyiv"]),
                Column::from_raw("qty", &["21", "34", "57"]),
            ],
        )
        .unwrap();
        let headers = table.headers();
        let normalized: Vec<String> = headers
            .iter()
            .map(|h| tu_text::normalize_header(h))
            .collect();
        let tentative = vec![TypeId::UNKNOWN; 3];
        let mut local = LocalModel::new();
        local.add_training(&g.embedding, &table, 2, TypeId(2));
        let cloned = local
            .finetuned
            .clone()
            .expect("add_training made a finetuned model");
        assert!(cloned.shares_featurizer(&g.embedding));

        let corpus = generate_corpus(&g.ontology, &CorpusConfig::database_like(0x0E5, 8));
        let own = crate::embedstep::train_embedding_model(
            &g.ontology,
            &corpus,
            &tu_embed::Embedder::untrained(16),
            &TrainingConfig::fast(),
        );
        assert!(!own.shares_featurizer(&g.embedding));
        assert_eq!(own.dim(), g.embedding.dim());
        local.finetuned = Some(own.clone());
        // Give the local head weight in the blend for every type.
        for ty in 0..g.embedding.n_classes() {
            local.record_feedback(TypeId(ty as u16));
        }
        let ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        let score = EmbeddingStep.scorer(ctx);
        let mut differs = false;
        for (ci, column) in table.columns().iter().enumerate() {
            let neighbors: Vec<&str> = headers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, h)| *h)
                .collect();
            let global_scores = g.embedding.predict(column, &neighbors);
            let expected = blend(
                &global_scores,
                &own.predict(column, &neighbors),
                &local,
                &normalized[ci],
            );
            assert_eq!(score(ci), expected, "column {ci}");
            assert_eq!(
                score(ci),
                EmbeddingStep.run(&ctx.for_column(ci)),
                "column {ci}"
            );
            // Scoring the assigned head on the global featurizer's
            // vector would have been a different answer.
            let shared = g.embedding.featurize(column, &neighbors);
            let via_global = blend(
                &global_scores,
                &own.scores_from_logits(&own.mlp().logits(&shared)),
                &local,
                &normalized[ci],
            );
            differs |= via_global != expected;
        }
        assert!(differs, "the two featurizers must disagree somewhere");
    }

    #[test]
    fn for_column_refocuses_shared_context() {
        let g = global();
        let local = LocalModel::new();
        let config = SigmaTyperConfig::default();
        let table = Table::new(
            "t",
            vec![Column::from_raw("a", &["1"]), Column::from_raw("b", &["2"])],
        )
        .unwrap();
        let normalized = vec!["a".to_owned(), "b".to_owned()];
        let tentative = vec![TypeId::UNKNOWN; 2];
        let states = vec![
            ColumnState { best_so_far: 0.9 },
            ColumnState { best_so_far: 0.2 },
        ];
        let mut ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        ctx.column_states = &states;
        let sibling = ctx.for_column(1);
        assert_eq!(sibling.col_idx, 1);
        assert_eq!(sibling.header(), "b");
        assert!((sibling.best_so_far - 0.2).abs() < f64::EPSILON);
        // Out-of-range / empty column_states fall back to the default.
        let bare = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        assert_eq!(bare.for_column(1).best_so_far, 0.0);
    }

    #[test]
    fn context_neighbor_accessors_exclude_self() {
        let g = global();
        let local = LocalModel::new();
        let config = SigmaTyperConfig::default();
        let table = Table::new(
            "t",
            vec![
                Column::from_raw("a", &["1"]),
                Column::from_raw("b", &["2"]),
                Column::from_raw("c", &["3"]),
            ],
        )
        .unwrap();
        let normalized = vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
        let tentative = vec![TypeId(3), TypeId::UNKNOWN, TypeId(5)];
        let ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
        assert_eq!(ctx.header(), "a");
        assert_eq!(ctx.normalized_header(), "a");
        assert_eq!(ctx.neighbor_headers(), vec!["b", "c"]);
        // Own tentative type and unknowns are excluded.
        assert_eq!(ctx.neighbor_types(), vec![TypeId(5)]);
    }
}
