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
use crate::lookupstep::votes_at_lookup;
use crate::prediction::{Candidate, StepId, StepScores};
use std::sync::OnceLock;
use tu_dp::{LabelingFunction, LfSource};
use tu_ontology::TypeId;
use tu_table::{Column, Table};

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
    /// Best confidence any earlier step achieved for *this* column —
    /// the quantity the cascade threshold gates on.
    pub best_so_far: f64,
    /// The shared global model.
    pub global: &'a GlobalModel,
    /// The customer's local model.
    pub local: &'a LocalModel,
    /// The active configuration.
    pub config: &'a SigmaTyperConfig,
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
}

/// One pluggable stage of the annotation cascade.
///
/// A step implements [`id`](AnnotationStep::id),
/// [`name`](AnnotationStep::name) and [`run`](AnnotationStep::run), and
/// may override [`skip`](AnnotationStep::skip),
/// [`split`](AnnotationStep::split),
/// [`cache_scope`](AnnotationStep::cache_scope) and
/// [`sensitivity_factor`](AnnotationStep::sensitivity_factor). The
/// [`CascadeExecutor`](crate::executor::CascadeExecutor) scores a column
/// the cache does not answer in one of two ways: a step without a split
/// by `run` on the column's context, a split step by the combine of the
/// column's global half (see [`SplitStep`]).
///
/// Implementations must be deterministic and read-only: `run` is called
/// from multiple [`AnnotationService`](crate::service::AnnotationService)
/// worker threads and column-parallel chunks against one shared
/// instance (hence `Send + Sync`).
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

    /// This step's split into a customer-independent global half and a
    /// local combine (see [`SplitStep`]), or `None` — the default — for
    /// a step the executor scores by [`run`](AnnotationStep::run). The
    /// built-in [`LookupStep`] and [`EmbeddingStep`] are split.
    ///
    /// The executor scores a split step's columns by building both
    /// halves once per table and combining each column's global half,
    /// so a split is where a step puts table-level work it wants paid
    /// once rather than once per column. With a step cache that owns a
    /// [`GlobalPartStore`](crate::cache::GlobalPartStore), the executor
    /// keeps the global halves there and, on a column whose cached
    /// scores it cannot use (a feedback moved the epoch, say), runs
    /// only the combine when the column's global half is stored.
    ///
    /// A split must keep the answers bit-identical: for every column,
    /// the combine of its global half — fresh, or stored long before by
    /// another customer of the same global model — must equal `run`
    /// (see [`SplitStep`] for what a global half may read).
    fn split(&self) -> Option<&dyn SplitStep> {
        None
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
///
/// A column whose scores miss under either scope is scored as the step
/// is: by [`run`](AnnotationStep::run), or, for a
/// [split](AnnotationStep::split) step, by the combine of its global
/// half, and the scores are inserted under the step's scope. The global
/// half is a third kind of entry, kept in the cache's in-memory
/// [`GlobalPartStore`](crate::cache::GlobalPartStore) under a key of
/// the column's content, the config and the global model's identity in
/// the process (plus the other columns' headers for a half that reads
/// them) — no epoch, table name or customer. A stored half spares the
/// step the global work on a miss: only the combine runs. Nothing but
/// eviction retires such an entry; a model mutated in place after
/// training needs a cache of its own (see
/// [Cache identity](GlobalModel#cache-identity)).
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
    /// header)` — no cell values, neighbors, `best_so_far` (the
    /// executor evaluates [`skip`](AnnotationStep::skip) before it
    /// consults the cache), other local state or customer ontology.
    /// The built-in [`HeaderStep`] is the only step that declares it.
    /// Such steps never take the delta-reuse path: an unchanged header
    /// is already an exact hit.
    Header,
}

/// The global half of a [split](AnnotationStep::split) step's work on
/// one column: what [`SplitStep::global_half`] computes and
/// [`SplitStep::combine`] finishes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalPart {
    /// Scores from the global model alone, before any customer weight:
    /// the lookup step's unweighted KB, shape, range and global-LF
    /// candidates, merged and not truncated; the embedding step's
    /// global head's scores.
    pub scores: StepScores,
    /// The column's feature vector, for a step that scores one (the
    /// embedding step); empty otherwise.
    pub features: Vec<f32>,
}

impl GlobalPart {
    /// Bytes the part holds, inline and on the heap — what it counts
    /// against a [`GlobalPartStore`](crate::cache::GlobalPartStore)'s
    /// budget besides the store's own per-entry overhead.
    #[must_use]
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<GlobalPart>()
            + self.scores.candidates.capacity() * std::mem::size_of::<Candidate>()
            + self.features.capacity() * std::mem::size_of::<f32>()
    }
}

/// A step split into a customer-independent **global half** and a
/// **local combine** (paper Figure 2: one global model shared by every
/// customer, a local model per customer).
///
/// The global half of a column may read only the column (its header
/// and cells), the config, the global model, and — when
/// [`reads_neighbor_headers`](SplitStep::reads_neighbor_headers) says
/// so — the other columns' raw headers in table order: no cell of
/// another column, no `best_so_far`, no local model.
/// Its key hashes exactly those inputs, so customers on one cache and
/// one global model share the halves, and a feedback, which moves only
/// the customer's state, leaves them valid. The combine reads the half
/// and anything else in the [`StepContext`], the local model included.
///
/// The contract is bit identity: for every column `ci`, in any order
/// and on any thread, `combine(ci, &global_half(ci))` must equal
/// [`AnnotationStep::run`] on the context of column `ci`, whether the
/// half was just computed or stored by another customer long before.
/// Two steps that share a [`StepId`] on one cache must compute the same
/// global halves: the key names the step by its id.
///
/// The executor builds both closures once per `(step, table)` with
/// uncached columns, on the context of the first such column, and
/// shares them by reference across every chunk, on whichever worker
/// thread runs it (hence `Sync`). Neither closure may read that
/// context's `col_idx` or `best_so_far`: the column is its argument.
pub trait SplitStep: Send + Sync {
    /// Whether the global half reads the other columns' raw headers,
    /// so their keys hash them (the embedding step's neighbor context).
    fn reads_neighbor_headers(&self) -> bool;

    /// Build the global half for one table: a closure from a column
    /// index to that column's [`GlobalPart`]. Table-level work the half
    /// needs, such as the embedding step's header vectors, is paid here
    /// once per table.
    fn global_half<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize) -> GlobalPart + Sync + 'a>;

    /// Build the local combine for one table: a closure from a column
    /// index and its global half to the step's scores.
    #[allow(clippy::type_complexity)] // a scoring closure given the half too
    fn combine<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize, &GlobalPart) -> StepScores + Sync + 'a>;
}

/// `run` of a split step on the context's own column: its combine of
/// its global half.
fn run_split(split: &dyn SplitStep, ctx: &StepContext<'_>) -> StepScores {
    let global = split.global_half(*ctx);
    split.combine(*ctx)(ctx.col_idx, &global(ctx.col_idx))
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

    /// [`ValueLookup::lookup_weighted`](crate::lookupstep::ValueLookup::lookup_weighted)
    /// over the global and local LF banks under the customer's `Wg`,
    /// computed as the combine of the global half.
    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        run_split(self, ctx)
    }

    fn split(&self) -> Option<&dyn SplitStep> {
        Some(self)
    }
}

/// The global half is
/// [`ValueLookup::global_scores`](crate::lookupstep::ValueLookup::global_scores):
/// the KB, the shape and range rules and the global LFs, unweighted.
/// The combine is
/// [`ValueLookup::combine`](crate::lookupstep::ValueLookup::combine):
/// `Wg` under the column's header, then the customer's LF votes.
impl SplitStep for LookupStep {
    fn reads_neighbor_headers(&self) -> bool {
        false
    }

    fn global_half<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize) -> GlobalPart + Sync + 'a> {
        Box::new(move |ci| GlobalPart {
            scores: ctx.global.lookup.global_scores(
                ctx.table.column(ci).expect("column in range"),
                &ctx.normalized_headers[ci],
                &ctx.global.global_lfs,
                ctx.config,
            ),
            features: Vec::new(),
        })
    }

    fn combine<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize, &GlobalPart) -> StepScores + Sync + 'a> {
        // The LFs the global half left out, once per table: the
        // customer's, and any global-bank LF not sourced globally.
        let lfs: Vec<&LabelingFunction> = ctx
            .global
            .global_lfs
            .iter()
            .filter(|lf| lf.source != LfSource::Global)
            .chain(&ctx.local.lfs)
            .filter(|lf| votes_at_lookup(lf))
            .collect();
        Box::new(move |ci, part| {
            let header = &ctx.normalized_headers[ci];
            ctx.global.lookup.combine(
                &part.scores,
                ctx.table.column(ci).expect("column in range"),
                header,
                &lfs,
                ctx.config,
                &|t| ctx.local.wg(t, header),
            )
        })
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

    /// The global model's prediction on the column with its neighbor
    /// headers, blended with the finetuned model's (when one exists),
    /// computed as the combine of the global half.
    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        run_split(self, ctx)
    }

    fn split(&self) -> Option<&dyn SplitStep> {
        Some(self)
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

/// The global half is the column's feature vector and the global
/// head's scores on it; the combine runs the finetuned head, when there
/// is one, and blends.
///
/// Each header's phrase vector is encoded once per table, on the first
/// column that needs it, instead of once per `(column, neighbor)` pair,
/// and each column is featurized once for both heads. When the
/// finetuned model [shares the global model's featurizer] — always, for
/// one [`LocalModel::add_training`] cloned — the header vectors, the
/// neighbor context and the feature vector are the same for both, so
/// the combine runs the finetuned head's [`Mlp::logits`] on the global
/// half's vector. A finetuned model with a featurizer of its own gets
/// its own header vectors and feature vectors. Either way the vectors
/// are averaged in table order, as training and
/// [`TableEmbeddingModel::featurize`] average them.
///
/// [shares the global model's featurizer]: TableEmbeddingModel::shares_featurizer
/// [`Mlp::logits`]: tu_ml::Mlp::logits
impl SplitStep for EmbeddingStep {
    fn reads_neighbor_headers(&self) -> bool {
        true
    }

    fn global_half<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize) -> GlobalPart + Sync + 'a> {
        let global = &ctx.global.embedding;
        let vecs = OnceLock::new();
        Box::new(move |ci| {
            let vecs = vecs.get_or_init(|| header_vectors(global, ctx.table));
            let features = features(global, vecs, ctx.table, ci);
            GlobalPart {
                scores: head_scores(global, &features),
                features,
            }
        })
    }

    fn combine<'a>(
        &'a self,
        ctx: StepContext<'a>,
    ) -> Box<dyn Fn(usize, &GlobalPart) -> StepScores + Sync + 'a> {
        let Some(model) = ctx.local.finetuned.as_ref() else {
            return Box::new(|_, part| part.scores.clone());
        };
        // Header vectors of its own only when the finetuned head
        // featurizes through a featurizer of its own.
        let own = !model.shares_featurizer(&ctx.global.embedding);
        let own_vecs = OnceLock::new();
        Box::new(move |ci, part| {
            let local_scores = if own {
                let vecs = own_vecs.get_or_init(|| header_vectors(model, ctx.table));
                head_scores(model, &features(model, vecs, ctx.table, ci))
            } else {
                head_scores(model, &part.features)
            };
            blend(
                &part.scores,
                &local_scores,
                ctx.local,
                &ctx.normalized_headers[ci],
            )
        })
    }
}

/// Every header's phrase vector under `model`, in table order.
fn header_vectors(model: &TableEmbeddingModel, table: &Table) -> Vec<Vec<f32>> {
    table
        .headers()
        .iter()
        .map(|h| model.header_vector(h))
        .collect()
}

/// Column `ci`'s feature vector under `model`, its context the mean of
/// the other columns' header vectors `vecs` in table order.
fn features(model: &TableEmbeddingModel, vecs: &[Vec<f32>], table: &Table, ci: usize) -> Vec<f32> {
    let neighbors: Vec<&[f32]> = vecs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != ci)
        .map(|(_, v)| v.as_slice())
        .collect();
    let column = table.column(ci).expect("column in range");
    model.features_with_context(column, &model.context_of(&neighbors))
}

/// `model`'s head on a feature vector: logits, then calibration.
fn head_scores(model: &TableEmbeddingModel, features: &[f32]) -> StepScores {
    model.scores_from_logits(&model.mlp().logits(features))
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
        global: &'a GlobalModel,
        local: &'a LocalModel,
        config: &'a SigmaTyperConfig,
    ) -> StepContext<'a> {
        StepContext {
            table,
            col_idx,
            normalized_headers: normalized,
            best_so_far: 0.0,
            global,
            local,
            config,
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
        let mut ctx = ctx_for(&table, 0, &normalized, &g, &local, &config);
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
        let ctx = ctx_for(&table, 0, &normalized, &g, &local, &config);
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
        let email_ctx = ctx_for(&table, 0, &normalized, &g, &local, &config);
        let s = RegexOnlyStep.run(&email_ctx);
        assert_eq!(s.best().unwrap().ty, builtin_id(o, "email"));
        assert!(s.best_confidence() > 0.9);
        // Numeric column: range rules fire, scaled below the threshold.
        let num_ctx = ctx_for(&table, 1, &normalized, &g, &local, &config);
        let s = RegexOnlyStep.run(&num_ctx);
        assert!(!s.candidates.is_empty());
        assert!(s.best_confidence() <= config.range_lf_scale + 1e-9);
        // Free text matches nothing.
        let text_ctx = ctx_for(&table, 2, &normalized, &g, &local, &config);
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

    /// Each split step's combine of a column's global half equals `run`
    /// on that column, and `run` equals the unsplit computation
    /// (`lookup_weighted` over both LF banks under `Wg`; both heads'
    /// `predict`, blended), on every column in any order, for a fresh
    /// customer and after corrections — with halves computed before
    /// the corrections, as a stored half would have been.
    #[test]
    fn split_steps_combine_global_halves_into_run() {
        let g = global();
        let config = SigmaTyperConfig::default();
        let corpus = generate_corpus(&g.ontology, &CorpusConfig::database_like(0x5EED, 6));
        let table = corpus.tables[0].table.clone();
        let n = table.n_cols();
        let normalized: Vec<String> = table
            .headers()
            .iter()
            .map(|h| tu_text::normalize_header(h))
            .collect();
        // Neighbour types that co-occurrence LFs would read in the
        // unsplit lookup: they must change nothing.
        let column_types: Vec<TypeId> = (0..n).map(|i| TypeId(i as u16 + 3)).collect();
        let mut typer = crate::system::SigmaTyper::new(Arc::clone(&g), config);
        let fresh = typer.local().clone();
        for (k, at) in corpus.tables.iter().enumerate().skip(1) {
            let col = k % at.table.n_cols();
            if !at.labels[col].is_unknown() {
                typer.feedback(&at.table, col, at.labels[col], None);
            }
        }
        // One override on this table, so `Wg` discounts a header here.
        let predicted = typer.annotate(&table).columns[0].predicted;
        let other = TypeId(if predicted == TypeId(2) { 3 } else { 2 });
        typer.feedback(&table, 0, other, None);
        let adapted = typer.local().clone();
        assert!(!adapted.lfs.is_empty() && adapted.finetuned.is_some());
        assert!(
            (0..g.ontology.len()).any(|t| adapted.wg(TypeId(t as u16), &normalized[0]) < 1.0),
            "the override discounts a type under the first header"
        );

        // The default sample shares its rendering with the LF context;
        // a 3-value sample makes the context render its own.
        for config in &[
            config,
            SigmaTyperConfig {
                lookup_sample: 3,
                ..config
            },
        ] {
            let ctx_of = |local| ctx_for(&table, 0, &normalized, &g, local, config);
            let orders: [Vec<usize>; 2] = [(0..n).collect(), (0..n).rev().collect()];
            for step in [&LookupStep as &dyn AnnotationStep, &EmbeddingStep] {
                let split = step.split().expect("a split step");
                let global = split.global_half(ctx_of(&fresh));
                let mut halves: Vec<Option<GlobalPart>> = vec![None; n];
                for &ci in &orders[1] {
                    halves[ci] = Some(global(ci));
                }
                for local in [&fresh, &adapted] {
                    let ctx = ctx_of(local);
                    let combine = split.combine(ctx);
                    for order in &orders {
                        for &ci in order {
                            let half = halves[ci].as_ref().expect("every half computed");
                            let run = step.run(&StepContext { col_idx: ci, ..ctx });
                            assert_eq!(combine(ci, half), run, "{}: column {ci}", step.name());
                            let column = table.column(ci).expect("column in range");
                            let header = normalized[ci].as_str();
                            let unsplit = if step.id() == StepId::LOOKUP {
                                let neighbor_types: Vec<TypeId> = (0..n)
                                    .filter(|&j| j != ci)
                                    .map(|j| column_types[j])
                                    .collect();
                                g.lookup.lookup_weighted(
                                    column,
                                    header,
                                    &neighbor_types,
                                    &[&g.global_lfs, &local.lfs],
                                    config,
                                    &|t| local.wg(t, header),
                                )
                            } else {
                                let neighbors: Vec<&str> = (0..n)
                                    .filter(|&j| j != ci)
                                    .map(|j| table.columns()[j].name.as_str())
                                    .collect();
                                let global_scores = g.embedding.predict(column, &neighbors);
                                match &local.finetuned {
                                    Some(model) => blend(
                                        &global_scores,
                                        &model.predict(column, &neighbors),
                                        local,
                                        header,
                                    ),
                                    None => global_scores,
                                }
                            };
                            assert_eq!(run, unsplit, "{}: column {ci}", step.name());
                        }
                    }
                }
            }
        }
    }

    /// The finetuned model `add_training` clones shares the global
    /// featurizer, so the step featurizes each column once for both
    /// heads; a finetuned model assigned with a featurizer of its own
    /// is still featurized through that one, by `run` and by halves
    /// built once for the whole table, as the executor builds them.
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
        let ctx = ctx_for(&table, 0, &normalized, &g, &local, &config);
        let (global_half, combine) = (EmbeddingStep.global_half(ctx), EmbeddingStep.combine(ctx));
        let score = |ci| combine(ci, &global_half(ci));
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
                EmbeddingStep.run(&StepContext { col_idx: ci, ..ctx }),
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
    fn context_accessors_read_the_scored_column() {
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
        let ctx = ctx_for(&table, 1, &normalized, &g, &local, &config);
        assert_eq!(ctx.header(), "b");
        assert_eq!(ctx.normalized_header(), "b");
        assert_eq!(ctx.column().values, table.columns()[1].values);
    }
}
