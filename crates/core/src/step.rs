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

use crate::backend::EmbeddingBackend;
use crate::cache::ColumnFingerprint;
use crate::config::SigmaTyperConfig;
use crate::embedstep::TableEmbeddingModel;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{Candidate, StepId, StepScores};
use tu_dp::LabelingFunction;
use tu_ontology::TypeId;
use tu_table::{Column, Table};

/// One column's cascade state at the current step: the quantities that
/// vary per column while everything else in a [`StepContext`] is shared
/// across the whole table.
///
/// The [`CascadeExecutor`](crate::executor::CascadeExecutor) recomputes
/// one `ColumnState` per column before each step and exposes the full
/// slice through [`StepContext::column_states`], which is what lets
/// [`AnnotationStep::run_batch`] derive exact per-column contexts via
/// [`StepContext::for_column`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnState {
    /// Best confidence any earlier step achieved for this column.
    pub best_so_far: f64,
    /// The column's cache fingerprint for the current run (`None`
    /// when no step cache is configured).
    pub fingerprint: Option<ColumnFingerprint>,
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
    /// This column's cache identity for the current run, when the
    /// owning [`SigmaTyper`](crate::system::SigmaTyper) has a step
    /// cache configured (`None` otherwise). Computed once per column
    /// per table by the cascade; steps may use it to key caches of
    /// their own.
    pub fingerprint: Option<ColumnFingerprint>,
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
    /// everything shared stays shared, while `col_idx`, `best_so_far`,
    /// and `fingerprint` are taken from [`StepContext::column_states`].
    /// This is how [`AnnotationStep::run_batch`] derives the exact
    /// per-column context the sequential path would have built.
    ///
    /// Hand-constructed contexts with an empty `column_states` slice
    /// fall back to [`ColumnState::default`] (no prior confidence, no
    /// fingerprint) for columns the slice does not cover.
    #[must_use]
    pub fn for_column(&self, col_idx: usize) -> StepContext<'a> {
        let state = self.column_states.get(col_idx).copied().unwrap_or_default();
        StepContext {
            col_idx,
            best_so_far: state.best_so_far,
            fingerprint: state.fingerprint,
            ..*self
        }
    }
}

/// Opaque table-level setup produced once per `(step, table)` by
/// [`AnnotationStep::prepare`] and shared by reference across every
/// chunk of the step's frontier — including chunks running on
/// different worker threads (hence `Send + Sync`). Steps downcast it
/// back in [`AnnotationStep::run_prepared`].
pub type TableSetup = Box<dyn std::any::Any + Send + Sync>;

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

    /// Score a batch of columns of one table in a single call.
    ///
    /// `ctx` is the context of `cols[0]`; implementations derive the
    /// other columns' contexts with [`StepContext::for_column`]. The
    /// returned vector must hold exactly one [`StepScores`] per entry
    /// of `cols`, in order — the
    /// [`CascadeExecutor`](crate::executor::CascadeExecutor) enforces
    /// the length.
    ///
    /// The default loops [`AnnotationStep::run`]. Override it when
    /// per-table setup is worth amortizing across columns (the
    /// built-in [`EmbeddingStep`] encodes each header once per table
    /// instead of once per neighbor pair; [`LookupStep`] filters the
    /// labeling-function banks once per table) — but any override
    /// **must** stay bit-identical to mapping `run` over the same
    /// per-column contexts, and must produce the same bits regardless
    /// of how the executor chunks the frontier across calls. The
    /// golden-equivalence suite (`tests/golden_cascade.rs`) holds the
    /// built-ins to that contract.
    fn run_batch(&self, ctx: &StepContext<'_>, cols: &[usize]) -> Vec<StepScores> {
        cols.iter()
            .map(|&ci| self.run(&ctx.for_column(ci)))
            .collect()
    }

    /// Compute the table-level setup this step wants amortized across
    /// *all* chunks of one frontier — not just within one
    /// [`run_batch`](AnnotationStep::run_batch) call. The
    /// [`CascadeExecutor`](crate::executor::CascadeExecutor) calls
    /// this exactly once per `(step, table)` with a non-empty frontier
    /// and hands the result (by reference) to every chunk's
    /// [`run_prepared`](AnnotationStep::run_prepared), so
    /// column-parallel workers share one setup instead of each paying
    /// it inside their own thread.
    ///
    /// The default returns `None` (no shared setup; chunks fall back
    /// to [`run_batch`](AnnotationStep::run_batch)). Overriders must
    /// keep the setup a pure function of the table-level context —
    /// anything per-column belongs in `run_prepared`.
    fn prepare(&self, ctx: &StepContext<'_>) -> Option<TableSetup> {
        let _ = ctx;
        None
    }

    /// Score a batch of columns using a setup produced by
    /// [`prepare`](AnnotationStep::prepare) on the same table. Same
    /// contract as [`run_batch`](AnnotationStep::run_batch): one
    /// [`StepScores`] per entry of `cols`, in order, bit-identical to
    /// mapping [`run`](AnnotationStep::run) — regardless of chunking
    /// *and* regardless of whether the setup was shared or rebuilt.
    ///
    /// The default ignores the setup and delegates to
    /// [`run_batch`](AnnotationStep::run_batch); implementations that
    /// override [`prepare`](AnnotationStep::prepare) should downcast
    /// `setup` and fall back to `run_batch` when the downcast fails (a
    /// foreign executor may hand them someone else's setup).
    fn run_prepared(
        &self,
        ctx: &StepContext<'_>,
        cols: &[usize],
        setup: &TableSetup,
    ) -> Vec<StepScores> {
        let _ = setup;
        self.run_batch(ctx, cols)
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
/// Both scopes share the cache's LRU, disk tier, epoch invalidation and
/// compaction; they differ only in what the key hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// The column's [`ColumnFingerprint`]: its header and values, the
    /// rest of the table, the cascade's step order, the config and the
    /// cache epoch. Right for any deterministic step.
    Column,
    /// The column's header text, the config and the cache epoch, so
    /// one entry serves every column with that header in any table. A
    /// step may declare this scope only when its scores depend on
    /// nothing else in the [`StepContext`] — no cell values, neighbors,
    /// tentative types or `best_so_far` (the executor evaluates
    /// [`skip`](AnnotationStep::skip) before it consults the cache).
    /// Such steps never take the delta-reuse path: an unchanged header
    /// is already an exact hit.
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

    /// Keyed by header text: `run` reads the raw and normalized header,
    /// the config, the global model and the customer's `Wg` discount,
    /// and the header key covers all of them (the global model never
    /// changes, the local model only with the cache epoch). One entry
    /// serves every column with this header in every table until the
    /// next adaptation, so a warm crawl runs no header matching.
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

    /// Batch override: the identity-LF subset of the global + local
    /// banks is the same for every column of the table, so it is
    /// filtered once per batch instead of once per column — on an
    /// adapted customer the local bank grows with every feedback
    /// event, and the per-column filter pass grows with it.
    fn run_batch(&self, ctx: &StepContext<'_>, cols: &[usize]) -> Vec<StepScores> {
        self.scores_with(ctx, cols, &LookupSetup::for_table(ctx))
    }

    /// Table-level setup shared across *chunks*: the identity-LF
    /// filter pass over the global + local banks, stored as positions
    /// (`'static`, so one pass serves every column-parallel worker —
    /// the per-chunk `run_batch` override above only amortized it
    /// within a chunk).
    fn prepare(&self, ctx: &StepContext<'_>) -> Option<TableSetup> {
        Some(Box::new(LookupSetup::for_table(ctx)))
    }

    fn run_prepared(
        &self,
        ctx: &StepContext<'_>,
        cols: &[usize],
        setup: &TableSetup,
    ) -> Vec<StepScores> {
        match setup.downcast_ref::<LookupSetup>() {
            Some(setup) => self.scores_with(ctx, cols, setup),
            // Foreign setup (a custom executor mixed things up): stay
            // correct by rebuilding our own.
            None => self.run_batch(ctx, cols),
        }
    }
}

/// [`LookupStep`]'s table-level setup: positions of the identity-style
/// LFs within the `[global, local]` bank pair (see
/// [`ValueLookup::identity_lf_indices`](crate::lookupstep::ValueLookup::identity_lf_indices)).
#[derive(Debug)]
struct LookupSetup {
    identity: Vec<(usize, usize)>,
}

impl LookupSetup {
    fn for_table(ctx: &StepContext<'_>) -> Self {
        let banks: [&[LabelingFunction]; 2] = [&ctx.global.global_lfs, &ctx.local.lfs];
        LookupSetup {
            identity: crate::lookupstep::ValueLookup::identity_lf_indices(&banks),
        }
    }
}

impl LookupStep {
    /// The shared scoring core: re-borrow the prefiltered LF positions
    /// against this context's banks and run the per-column lookups.
    /// Order-preserving, so the result is bit-identical to the
    /// unfiltered per-column path (proven in the golden suite).
    fn scores_with(
        &self,
        ctx: &StepContext<'_>,
        cols: &[usize],
        setup: &LookupSetup,
    ) -> Vec<StepScores> {
        let banks: [&[LabelingFunction]; 2] = [&ctx.global.global_lfs, &ctx.local.lfs];
        let identity: Vec<&LabelingFunction> = setup
            .identity
            .iter()
            .map(|&(bank, lf)| &banks[bank][lf])
            .collect();
        cols.iter()
            .map(|&ci| {
                let c = ctx.for_column(ci);
                let neighbors = c.neighbor_types();
                c.global.lookup.lookup_with_lfs(
                    c.column(),
                    c.normalized_header(),
                    &neighbors,
                    &identity,
                    c.config,
                    &|t| c.local.wg(t, c.normalized_header()),
                )
            })
            .collect()
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
        let backend = ctx.config.embedding_backend.backend();
        let neighbors = ctx.neighbor_headers();
        let column = ctx.column();
        let scores_for = |model: &TableEmbeddingModel| {
            let vecs: Vec<Vec<f32>> = neighbors
                .iter()
                .map(|h| backend.encode_header(model, h))
                .collect();
            let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
            let context = model.context_of(&refs);
            backend.predict_with_context(model, column, &context)
        };
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

    /// Batch override: each header's phrase vector is encoded once per
    /// batch call instead of once per `(column, neighbor)` — the
    /// neighbor-context encoding is quadratic in table width on the
    /// per-column path. The per-column mean is accumulated over the
    /// precomputed vectors in the same order `predict` would have
    /// used, so the result is bit-identical (see
    /// [`TableEmbeddingModel::context_of`]). Chunked executors share
    /// one encoding across *all* chunks through
    /// [`prepare`](AnnotationStep::prepare)/[`run_prepared`](AnnotationStep::run_prepared)
    /// below, so even a `FixedChunk { columns: 1 }` policy pays the
    /// setup once per table.
    ///
    /// [`TableEmbeddingModel::context_of`]: crate::embedstep::TableEmbeddingModel::context_of
    fn run_batch(&self, ctx: &StepContext<'_>, cols: &[usize]) -> Vec<StepScores> {
        self.scores_with(ctx, cols, &EmbedSetup::for_table(ctx))
    }

    /// Table-level setup shared across chunks: every header encoded
    /// once per `(model, table)` — previously each column-parallel
    /// chunk re-encoded its own copy inside its worker thread.
    fn prepare(&self, ctx: &StepContext<'_>) -> Option<TableSetup> {
        Some(Box::new(EmbedSetup::for_table(ctx)))
    }

    fn run_prepared(
        &self,
        ctx: &StepContext<'_>,
        cols: &[usize],
        setup: &TableSetup,
    ) -> Vec<StepScores> {
        match setup.downcast_ref::<EmbedSetup>() {
            Some(setup) => self.scores_with(ctx, cols, setup),
            None => self.run_batch(ctx, cols),
        }
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

/// [`EmbeddingStep`]'s table-level setup: the resolved
/// [`EmbeddingBackend`] and each header's phrase vector, encoded once
/// per model through the backend and shared by every column-parallel
/// chunk. The finetuned model's embedder is a clone of the global one,
/// but its vectors are encoded through its own instance so the
/// equivalence argument never leans on clone identity.
struct EmbedSetup {
    backend: &'static dyn EmbeddingBackend,
    global_vecs: Vec<Vec<f32>>,
    local_vecs: Option<Vec<Vec<f32>>>,
}

impl std::fmt::Debug for EmbedSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbedSetup")
            .field("backend", &self.backend.name())
            .field("global_vecs", &self.global_vecs.len())
            .field("local_vecs", &self.local_vecs.as_ref().map(Vec::len))
            .finish()
    }
}

impl EmbedSetup {
    fn for_table(ctx: &StepContext<'_>) -> Self {
        let backend = ctx.config.embedding_backend.backend();
        let headers = ctx.table.headers();
        let encode = |model: &TableEmbeddingModel| -> Vec<Vec<f32>> {
            headers
                .iter()
                .map(|h| backend.encode_header(model, h))
                .collect()
        };
        EmbedSetup {
            backend,
            global_vecs: encode(&ctx.global.embedding),
            local_vecs: ctx.local.finetuned.as_ref().map(encode),
        }
    }
}

impl EmbeddingStep {
    /// The shared scoring core over precomputed header vectors: build
    /// each pending column's neighbor context and score it through the
    /// backend, once per model.
    fn scores_with(
        &self,
        ctx: &StepContext<'_>,
        cols: &[usize],
        setup: &EmbedSetup,
    ) -> Vec<StepScores> {
        let scores_for = |model: &TableEmbeddingModel, vecs: &[Vec<f32>], ci: usize| {
            let neighbors: Vec<&[f32]> = vecs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, v)| v.as_slice())
                .collect();
            let context = model.context_of(&neighbors);
            let column = ctx.table.column(ci).expect("column in range");
            setup.backend.predict_with_context(model, column, &context)
        };
        let global_model = &ctx.global.embedding;
        cols.iter()
            .map(|&ci| {
                let global_scores = scores_for(global_model, &setup.global_vecs, ci);
                match (ctx.local.finetuned.as_ref(), &setup.local_vecs) {
                    (Some(m), Some(lv)) => {
                        let local_scores = scores_for(m, lv, ci);
                        let c = ctx.for_column(ci);
                        blend(
                            &global_scores,
                            &local_scores,
                            c.local,
                            c.normalized_header(),
                        )
                    }
                    _ => global_scores,
                }
            })
            .collect()
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
            fingerprint: None,
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

    /// The batch overrides must be bit-identical to mapping `run` over
    /// the same per-column contexts — and invariant to how the batch
    /// is chunked.
    #[test]
    fn run_batch_overrides_match_sequential_run() {
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
        let tentative = vec![TypeId::UNKNOWN; 4];
        let states = vec![ColumnState::default(); 4];
        // Engage the finetuned-blend path of the embedding step too.
        local.add_training(vec![(
            Column::from_raw("contact", &["20000001", "20000002"]),
            vec!["name".to_owned()],
            TypeId(2),
        )]);
        local.finetuned = Some(g.embedding.clone());
        let steps: [&dyn AnnotationStep; 3] = [&LookupStep, &EmbeddingStep, &RegexOnlyStep];
        for step in steps {
            let mut ctx = ctx_for(&table, 0, &normalized, &tentative, &g, &local, &config);
            ctx.column_states = &states;
            let sequential: Vec<StepScores> =
                (0..4).map(|ci| step.run(&ctx.for_column(ci))).collect();
            let whole = step.run_batch(&ctx, &[0, 1, 2, 3]);
            assert_eq!(whole, sequential, "{}: whole batch diverged", step.name());
            // Chunked invocation must concatenate to the same bits.
            let mut chunked = step.run_batch(&ctx, &[0, 1]);
            chunked.extend(step.run_batch(&ctx.for_column(2), &[2, 3]));
            assert_eq!(chunked, sequential, "{}: chunking diverged", step.name());
        }
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
            ColumnState {
                best_so_far: 0.9,
                fingerprint: None,
            },
            ColumnState {
                best_so_far: 0.2,
                fingerprint: None,
            },
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
        assert!(bare.for_column(1).fingerprint.is_none());
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
