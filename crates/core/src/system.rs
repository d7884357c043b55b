//! The SigmaTyper orchestrator: cascade, aggregation, and adaptation.

use crate::aggregate::{apply_tau, soft_majority_vote_with};
use crate::cache::{recrawl_fingerprints, CacheContext, ShardedLruCache, StepCache};
use crate::cascade::Cascade;
use crate::config::SigmaTyperConfig;
use crate::cost::CostModel;
use crate::diskcache::DurableEpochSource;
use crate::executor::{CascadeExecutor, DeltaContext};
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{Candidate, ColumnAnnotation, StepId, StepScores, TableAnnotation};
use crate::request::{
    AnnotationOutcome, AnnotationRequest, BudgetContext, BudgetLedger, DegradationReport,
    RequestOptions, TelemetryVerbosity,
};
use crate::step::AnnotationStep;
use std::fmt;
use std::sync::Arc;
use tu_corpus::Corpus;
use tu_dp::{infer_lfs, mine_weak_labels, Demonstration, InferConfig, MiningConfig};
use tu_ontology::{Category, Ontology, TypeId, ValueKind};
use tu_table::{Table, TableDelta};

/// Why [`SigmaTyper::register_custom_type`] refused a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomTypeError {
    /// The name is already a canonical name or alias of `existing`.
    AlreadyKnown {
        /// The requested name.
        name: String,
        /// The type that name already denotes.
        existing: TypeId,
    },
    /// Every MLP class is taken: the ontology already has as many types
    /// as the global model has classes (its types plus
    /// `TrainingConfig::reserve_classes`).
    ReservedClassesExhausted {
        /// The global model's class count.
        classes: usize,
    },
}

impl fmt::Display for CustomTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CustomTypeError::AlreadyKnown { name, existing } => {
                write!(f, "{name:?} already names semantic type {existing:?}")
            }
            CustomTypeError::ReservedClassesExhausted { classes } => write!(
                f,
                "all {classes} model classes are taken; raise TrainingConfig::reserve_classes"
            ),
        }
    }
}

impl std::error::Error for CustomTypeError {}

/// One customer's SigmaTyper instance: the shared global model plus this
/// customer's local model (Figure 2's `Customer_i` box), annotating
/// through a configurable [`Cascade`] of [`AnnotationStep`]s.
#[derive(Debug, Clone)]
pub struct SigmaTyper {
    global: Arc<GlobalModel>,
    /// Customer-local ontology (may gain custom types).
    ontology: Ontology,
    local: LocalModel,
    config: SigmaTyperConfig,
    cascade: Cascade,
    /// Optional per-step result cache (see [`crate::cache`]). Shared
    /// by `Arc`, so clones of this instance — including the per-worker
    /// sharing inside [`AnnotationService`] — hit one store.
    ///
    /// [`AnnotationService`]: crate::service::AnnotationService
    cache: Option<Arc<dyn StepCache>>,
    /// Online per-step cost/yield telemetry (see [`crate::cost`]),
    /// fed by every annotation and shared by `Arc` across clones —
    /// the batch service's workers all report into one model.
    /// Observation-only: it never influences an annotation unless a
    /// request carries a degradation policy or the cascade is
    /// explicitly reordered through it.
    cost: Arc<CostModel>,
    /// Cache epoch: hashed into every column fingerprint and replaced
    /// by a fresh process-globally unique value on every adaptation
    /// event, so column-scoped scores from before an adaptation can
    /// never be served after it (header-scoped keys hash the `Wg` state
    /// they read instead; see [`crate::cache`]). Global uniqueness
    /// (not a per-instance counter) is what makes *sharing one cache
    /// across instances* sound: two instances only ever hold the same
    /// epoch when one is an unmutated clone of the other — i.e. when
    /// their models really are identical. Any divergence (a feedback
    /// event on either side) draws a fresh value no other instance has
    /// ever used. A [`DurableEpochSource`] only sets the value `build`
    /// starts from; adaptation never writes it back.
    epoch: u64,
}

/// Mix a process id and a nanosecond timestamp into an epoch seed:
/// `pid ⊕ splitmix(startup_nanos)`, masked to the low 63 bits so the
/// in-process counter keeps ~2⁶² of monotone headroom above any seed.
///
/// Pure and deterministic in its inputs so tests can simulate distinct
/// processes; real callers feed `std::process::id()` and wall-clock
/// nanos.
fn process_epoch_seed(pid: u32, startup_nanos: u64) -> u64 {
    (u64::from(pid) ^ crate::cache::avalanche(startup_nanos)) & (u64::MAX >> 1)
}

/// Draw a fresh, process-globally unique cache epoch (see
/// [`SigmaTyper::cache_epoch`]). Values are monotone within a process,
/// so tests can assert "the epoch moved" with `>`.
///
/// The counter starts from [`process_epoch_seed`] entropy, **not** 0:
/// with a zero seed every process would draw the same epoch sequence,
/// so the moment a cache outlives one process (an external backend, or
/// one process feeding entries another reads) two different model
/// states could share an epoch and serve each other stale scores.
/// Entropy makes cross-process epoch reuse a ~2⁻⁶³ event instead of a
/// certainty. A new [`DurableEpochSource`] file is seeded from this
/// counter too, so no other instance in the seeding process draws the
/// file's epoch.
pub(crate) fn next_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        process_epoch_seed(std::process::id(), nanos)
    });
    seed.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Builder for a customer instance with a customized cascade: add,
/// remove, and reorder steps; override per-step vote weights; set the
/// cascade threshold and τ. `build()` with no customization yields
/// exactly the paper's three-step pipeline.
///
/// ```
/// use sigmatyper::{train_global, RegexOnlyStep, SigmaTyper, Step, StepId, TrainingConfig};
/// use tu_corpus::{generate_corpus, CorpusConfig};
/// use tu_ontology::builtin_ontology;
///
/// let ontology = builtin_ontology();
/// let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(7, 8));
/// let global = std::sync::Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
/// let typer = SigmaTyper::builder(global)
///     .step_at(1, RegexOnlyStep) // run the bare regex bank right after header matching
///     .step_weight(StepId::REGEX_ONLY, 0.8)
///     .without_step(Step::Embedding)
///     .tau(0.5)
///     .build();
/// assert_eq!(
///     typer.cascade().step_ids(),
///     vec![Step::Header, StepId::REGEX_ONLY, Step::Lookup]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SigmaTyperBuilder {
    global: Arc<GlobalModel>,
    config: SigmaTyperConfig,
    cascade: Cascade,
    cache: Option<Arc<dyn StepCache>>,
    cost: Option<Arc<CostModel>>,
    /// The epoch `build` starts from, when a [`DurableEpochSource`]
    /// supplied one.
    epoch: Option<u64>,
}

impl SigmaTyperBuilder {
    /// Replace the whole configuration (defaults to
    /// [`SigmaTyperConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SigmaTyperConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the cascade confidence threshold `c`.
    #[must_use]
    pub fn cascade_threshold(mut self, c: f64) -> Self {
        self.config.cascade_threshold = c;
        self
    }

    /// Set the abstention threshold τ.
    #[must_use]
    pub fn tau(mut self, tau: f64) -> Self {
        self.config.tau = tau;
        self
    }

    /// Append a step at the end of the cascade.
    ///
    /// # Panics
    /// Panics when a step with the same id is already configured.
    #[must_use]
    pub fn step(mut self, step: impl AnnotationStep + 'static) -> Self {
        self.cascade.push(step);
        self
    }

    /// Insert a step at `index` (0 = runs first).
    ///
    /// # Panics
    /// Panics when `index` is out of range or the id is already
    /// configured.
    #[must_use]
    pub fn step_at(mut self, index: usize, step: impl AnnotationStep + 'static) -> Self {
        self.cascade.insert(index, step);
        self
    }

    /// Remove the step with this id (no-op when absent).
    #[must_use]
    pub fn without_step(mut self, id: StepId) -> Self {
        self.cascade.remove(id);
        self
    }

    /// Reorder the cascade: listed steps run first in the given order;
    /// unlisted steps follow in their current relative order.
    #[must_use]
    pub fn reorder(mut self, order: &[StepId]) -> Self {
        self.cascade.reorder(order);
        self
    }

    /// Override one step's vote weight (default: the config weight for
    /// the three standard steps, 1.0 for everything else).
    #[must_use]
    pub fn step_weight(mut self, id: StepId, weight: f64) -> Self {
        self.cascade.set_weight(id, weight);
        self
    }

    /// Set the worker budget for intra-table column chunks
    /// ([`SigmaTyperConfig::column_threads`]; `0` = auto).
    #[must_use]
    pub fn column_threads(mut self, threads: usize) -> Self {
        self.config.column_threads = threads;
        self
    }

    /// Attach a step cache (see [`crate::cache`]): every step consults
    /// it before running and inserts after, making repeat crawls of
    /// unchanged tables skip most step work. Pass a shared `Arc` to
    /// let several customer instances (or a fleet of services) pool
    /// one store's capacity — column-scoped entries stay disjoint
    /// because every instance (and every adaptation event) holds a
    /// process-globally unique cache epoch, hashed into each
    /// fingerprint; two instances share an epoch only while one is an
    /// unmutated clone of the other, i.e. while their models really
    /// are identical. Header-scoped entries are shared on purpose
    /// between instances of one global model whose `Wg` state under
    /// the header is equal, because their header scores are too, and
    /// the lookup and embedding steps' global halves between every
    /// instance built on one `Arc` of a global model (see
    /// [`GlobalPartStore`](crate::cache::GlobalPartStore)).
    #[must_use]
    pub fn step_cache(mut self, cache: Arc<dyn StepCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach the default step-cache backend — a
    /// [`ShardedLruCache`] bounded at `capacity` entries.
    #[must_use]
    pub fn cached(self, capacity: usize) -> Self {
        self.step_cache(Arc::new(ShardedLruCache::new(capacity)))
    }

    /// Attach a shared [`CostModel`] instead of the fresh one `build`
    /// creates by default — e.g. to pool cost telemetry across several
    /// customer instances serving similar schemas, or to seed a
    /// deployment with offline measurements before the first request.
    #[must_use]
    pub fn cost_model(mut self, cost: Arc<CostModel>) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Start from a [`DurableEpochSource`]'s epoch — typically a file
    /// next to a [`DiskCache`](crate::diskcache::DiskCache) segment.
    /// `build()` then *resumes* the stored epoch instead of drawing a
    /// fresh one, so a restarted process keeps reaching the entries its
    /// predecessor wrote while it was the customer as built. Adaptation
    /// draws in-memory epochs and never writes the file: the local model
    /// is not persisted, so a restart answers as the customer as built,
    /// and the entries it reaches are the ones written under that model.
    /// One source belongs to one customer: point different customers
    /// (whose models differ) at different files.
    #[must_use]
    pub fn epoch_source(mut self, source: Arc<DurableEpochSource>) -> Self {
        self.epoch = Some(source.current());
        self
    }

    /// Build the customer instance.
    #[must_use]
    pub fn build(self) -> SigmaTyper {
        let ontology = self.global.ontology.clone();
        // Even a freshly built instance gets a globally unique epoch:
        // two customers built over different global models (or with
        // different custom step implementations) must never produce
        // colliding cache keys. A durable source's epoch is resumed
        // instead, so a restart with unchanged models keeps reaching
        // the previous process's persisted entries.
        SigmaTyper {
            global: self.global,
            ontology,
            local: LocalModel::new(),
            config: self.config,
            cascade: self.cascade,
            cache: self.cache,
            cost: self.cost.unwrap_or_default(),
            epoch: self.epoch.unwrap_or_else(next_epoch),
        }
    }
}

impl SigmaTyper {
    /// Create a customer instance over a shared global model with the
    /// standard three-step cascade.
    #[must_use]
    pub fn new(global: Arc<GlobalModel>, config: SigmaTyperConfig) -> Self {
        SigmaTyper::builder(global).config(config).build()
    }

    /// Start building a customer instance with a customizable cascade.
    /// The builder starts from the standard pipeline (header → lookup →
    /// embedding) and the default configuration.
    #[must_use]
    pub fn builder(global: Arc<GlobalModel>) -> SigmaTyperBuilder {
        SigmaTyperBuilder {
            global,
            config: SigmaTyperConfig::default(),
            cascade: Cascade::standard(),
            cache: None,
            cost: None,
            epoch: None,
        }
    }

    /// Re-draw this customer's cache epoch after an adaptation event,
    /// from the in-process counter.
    fn bump_epoch(&mut self) {
        self.epoch = next_epoch();
    }

    /// The (customer-local) ontology.
    #[must_use]
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The shared global model.
    #[must_use]
    pub fn global(&self) -> &GlobalModel {
        &self.global
    }

    /// The customer's local model.
    #[must_use]
    pub fn local(&self) -> &LocalModel {
        &self.local
    }

    /// Current configuration.
    #[must_use]
    pub fn config(&self) -> &SigmaTyperConfig {
        &self.config
    }

    /// Mutable configuration (τ sweeps and ablations).
    pub fn config_mut(&mut self) -> &mut SigmaTyperConfig {
        &mut self.config
    }

    /// The annotation cascade this instance runs.
    #[must_use]
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// Mutable cascade, for reconfiguring steps between batches (like
    /// adaptation, cascade surgery is a customer-local, single-writer
    /// operation — never concurrent with serving).
    ///
    /// Borrowing the cascade mutably bumps the cache epoch: removing a
    /// step and inserting a *different implementation under the same
    /// [`StepId`]* would otherwise let the cache serve the old
    /// implementation's scores. (Pure reorders are also covered — the
    /// step order is part of the fingerprint — so the bump only costs
    /// cold lookups, never correctness.)
    pub fn cascade_mut(&mut self) -> &mut Cascade {
        self.bump_epoch();
        &mut self.cascade
    }

    /// The configured step cache, if any.
    #[must_use]
    pub fn step_cache(&self) -> Option<&Arc<dyn StepCache>> {
        self.cache.as_ref()
    }

    /// Attach or detach a step cache on an existing instance (see
    /// [`SigmaTyperBuilder::step_cache`]).
    pub fn set_step_cache(&mut self, cache: Option<Arc<dyn StepCache>>) {
        self.cache = cache;
    }

    /// The current cache epoch: a process-globally unique value drawn
    /// at build time (or resumed from a [`DurableEpochSource`]) and
    /// re-drawn in memory by
    /// [`SigmaTyper::feedback`], [`SigmaTyper::implicit_approve`],
    /// [`SigmaTyper::register_custom_type`],
    /// [`SigmaTyper::cascade_mut`], and
    /// [`SigmaTyper::invalidate_cache`]. Draws within one process are
    /// monotone; a resumed epoch was drawn by the process that seeded
    /// the file. It is hashed into every
    /// column fingerprint, so a re-draw makes all previously cached
    /// column-scoped entries unreachable for this customer — and global
    /// uniqueness keeps different instances' entries disjoint in a
    /// shared cache. Column entries are inserted tagged with it, so
    /// disk-tier compaction can drop them once it is dead.
    /// Header-scoped entries are not keyed by it and are inserted
    /// untagged, so compaction keeps them (see
    /// [`CacheScope::Header`](crate::step::CacheScope::Header)).
    #[must_use]
    pub fn cache_epoch(&self) -> u64 {
        self.epoch
    }

    /// Retire this customer's column-scoped cached step results, and
    /// nothing else, by moving the epoch their keys hash. Entries are
    /// not freed, just unreachable; they age out of the LRU. Header
    /// entries and split steps' global halves survive it: their keys
    /// hash the global model instead of the epoch (see
    /// [`CacheScope`](crate::step::CacheScope)). So this cannot answer
    /// for a change to the global model: those keys do not track it,
    /// and a changed global model needs a fresh cache (see
    /// [Cache identity](GlobalModel#cache-identity)).
    pub fn invalidate_cache(&mut self) {
        self.bump_epoch();
    }

    /// The per-step cost/yield telemetry this instance has accumulated
    /// (see [`crate::cost`]). Shared by `Arc` across clones, so a
    /// batch service's workers feed one model.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Cost-aware step ordering: re-sort the cascade by this
    /// customer's measured per-step cost per unit yield (cheapest
    /// first; see [`Cascade::reorder_by_cost`]). Returns whether the
    /// order changed. Routed through
    /// [`SigmaTyper::cascade_mut`], so the cache epoch bumps and no
    /// stale pre-reorder scores can be served.
    pub fn reorder_cascade_by_cost(&mut self) -> bool {
        let cost = Arc::clone(&self.cost);
        self.cascade_mut().reorder_by_cost(&cost)
    }

    /// Register a customer-specific semantic type. The type is matched
    /// through locally inferred LFs and learned by the finetuned local
    /// embedding model via one of the reserved MLP classes.
    ///
    /// # Errors
    /// [`CustomTypeError::AlreadyKnown`] when `name` is already a
    /// canonical name or alias in this customer's ontology, and
    /// [`CustomTypeError::ReservedClassesExhausted`] when every
    /// reserved MLP class is taken. Both are checked before anything
    /// changes: on `Err` the ontology and the cache epoch are as
    /// they were.
    pub fn register_custom_type(
        &mut self,
        name: &str,
        kind: ValueKind,
        aliases: &[&str],
    ) -> Result<TypeId, CustomTypeError> {
        if let Some(existing) = self.ontology.lookup_exact(name) {
            return Err(CustomTypeError::AlreadyKnown {
                name: name.to_owned(),
                existing,
            });
        }
        let classes = self.global.embedding.n_classes();
        if self.ontology.len() >= classes {
            return Err(CustomTypeError::ReservedClassesExhausted { classes });
        }
        let id = self
            .ontology
            .register(name, Category::Misc, kind, aliases, None);
        self.bump_epoch();
        Ok(id)
    }

    /// Annotate a table: run the configured cascade per column,
    /// aggregate with the soft majority vote, and apply τ (paper
    /// Figure 4). A step frontier of at least
    /// [`MIN_PARALLEL_COLUMNS`](crate::executor::MIN_PARALLEL_COLUMNS)
    /// columns runs column-parallel on the
    /// [`SigmaTyperConfig::column_threads`] budget; output is
    /// bit-identical either way.
    ///
    /// This is a thin wrapper over [`SigmaTyper::annotate_request`]
    /// with default options (`Strict`, unbounded) — bit-identical to
    /// the request path, proven in the golden suite — discarding the
    /// (empty) [`DegradationReport`].
    #[must_use]
    pub fn annotate(&self, table: &Table) -> TableAnnotation {
        self.annotate_request(&AnnotationRequest::new(table))
            .into_annotation()
    }

    /// Annotate under a typed [`AnnotationRequest`]: budget and
    /// degradation policy per request (see [`crate::request`] for the
    /// semantics), on the [`SigmaTyperConfig::column_threads`] budget
    /// (see [`annotate`](SigmaTyper::annotate)). Returns the annotation
    /// plus the [`DegradationReport`] recording which steps were
    /// skipped or truncated and the budget accounting.
    #[must_use]
    pub fn annotate_request(&self, request: &AnnotationRequest<'_>) -> AnnotationOutcome {
        let (budget, _) = request.options.resolved();
        self.annotate_request_shared_with_base(
            request.table,
            request.base,
            &CascadeExecutor::from_config(&self.config),
            &request.options,
            &BudgetLedger::from_budget(budget),
        )
    }

    /// The request core every annotate entry point funnels into: run
    /// the cascade through `executor`, charging the **externally
    /// owned** `ledger`. This is how a serving front-end makes a
    /// request draw on a shared budget — a lane window ledger, a
    /// tenant-capped local ledger (see
    /// [`TrafficShaper::serve`](crate::tenant::TrafficShaper::serve)),
    /// or one ledger shared by a whole batch. The ledger must be
    /// consistent with `options` ([`RequestOptions::resolved`] decides
    /// budget and policy); single-request callers should prefer
    /// [`SigmaTyper::annotate_request`], which owns its ledger.
    ///
    /// An optional `base` crawl enables the delta-aware recrawl path
    /// (see [`AnnotationRequest::with_base`]): per-column deltas are
    /// diffed against `base`, and column-scoped steps whose input
    /// signal moved less than their sensitivity threshold reuse the base
    /// crawl's cached scores. Each new column is hashed once; a base
    /// column that the delta shows to be an unchanged or appended
    /// prefix under the same header takes its hash from that pass at
    /// the base's row count, and any other base column is hashed in
    /// full. Falls back to the plain path when the table's shape
    /// changed, the cache is off, or `base` is `None`.
    #[must_use]
    pub fn annotate_request_shared_with_base(
        &self,
        table: &Table,
        base: Option<&Table>,
        executor: &CascadeExecutor,
        options: &RequestOptions,
        ledger: &BudgetLedger,
    ) -> AnnotationOutcome {
        let (_, policy) = options.resolved();
        let config = &self.config;
        let cache_ctx = if options.bypass_cache {
            None
        } else {
            self.cache.as_deref().map(|cache| CacheContext {
                cache,
                epoch: self.epoch,
            })
        };
        // Delta-aware recrawl: diff against the base crawl, hash both
        // crawls with each new column hashed once, and hand the
        // executor the new content hashes, the base fingerprints and
        // per-column movements for the sensitivity-gated reuse path.
        // A shape change (column count) diffs to `None` and falls back
        // to a full recompute.
        let delta: Option<DeltaContext> = match (base, cache_ctx) {
            (Some(base), Some(cc)) => TableDelta::between(base, table).map(|table_delta| {
                let step_ids = self.cascade.step_ids();
                let (base_fingerprints, content_hashes) =
                    recrawl_fingerprints(base, table, &table_delta, &step_ids, config, cc.epoch);
                let sensitivity = options
                    .delta_sensitivity
                    .unwrap_or(config.delta_sensitivity)
                    .max(0.0);
                DeltaContext {
                    content_hashes,
                    base_fingerprints,
                    movements: table_delta.movements(),
                    sensitivity,
                }
            }),
            _ => None,
        };
        let budgeted = executor.run_budgeted(
            &self.cascade,
            table,
            &self.global,
            &self.local,
            config,
            cache_ctx,
            Some(BudgetContext {
                ledger,
                policy,
                cost: &self.cost,
            }),
            delta.as_ref(),
        );
        let (per_column, timings) = budgeted.trace;

        let weight_of = |id: StepId| self.cascade.weight(id, config);
        let columns = per_column
            .into_iter()
            .enumerate()
            .map(|(ci, steps)| {
                let executed: Vec<(StepId, &StepScores)> =
                    steps.iter().map(|(s, sc)| (*s, sc)).collect();
                let mut top_k = soft_majority_vote_with(&executed, config, &weight_of);
                self.prefer_specific(&mut top_k);
                let (predicted, confidence) = apply_tau(&top_k, config.tau);
                let (steps_run, step_scores): (Vec<StepId>, Vec<StepScores>) =
                    steps.into_iter().unzip();
                ColumnAnnotation {
                    col_idx: ci,
                    top_k,
                    predicted,
                    confidence,
                    steps_run,
                    step_scores,
                }
            })
            .collect();
        let mut annotation = TableAnnotation { columns, timings };
        // Feed the cost model before telemetry is stripped — the EWMA
        // is observation-only and never changes this annotation.
        self.cost.observe(&annotation, config.cascade_threshold);
        match options.telemetry {
            TelemetryVerbosity::Full => {}
            TelemetryVerbosity::TimingsOnly => {
                for col in &mut annotation.columns {
                    col.step_scores = Vec::new();
                }
            }
            TelemetryVerbosity::Minimal => {
                for col in &mut annotation.columns {
                    col.step_scores = Vec::new();
                }
                annotation.timings = Vec::new();
            }
        }
        AnnotationOutcome {
            annotation,
            degradation: DegradationReport {
                policy,
                budget_nanos: ledger.budget(),
                spent_nanos: budgeted.charged_nanos,
                remaining_nanos: ledger.remaining(),
                skipped: budgeted.skipped,
                delta_reused: budgeted.delta_reused,
                tenant: options.tenant,
            },
        }
    }

    /// Hierarchy-aware tie-breaking: when the two leading candidates are
    /// ancestor and descendant in the ontology (`location` vs `city`),
    /// prefer the more specific type unless the general one leads by a
    /// clear margin. Dictionary evidence for a parent type necessarily
    /// covers its children, so raw confidence favors the parent even
    /// when the child is the right answer.
    fn prefer_specific(&self, top_k: &mut [Candidate]) {
        const SPECIFICITY_MARGIN: f64 = 0.15;
        if top_k.len() < 2 {
            return;
        }
        let leader = top_k[0];
        if leader.ty.is_unknown() || leader.ty.index() >= self.ontology.len() {
            return;
        }
        for i in 1..top_k.len() {
            let challenger = top_k[i];
            if challenger.ty.is_unknown() || challenger.ty.index() >= self.ontology.len() {
                continue;
            }
            let challenger_is_descendant =
                self.ontology.is_a(challenger.ty, leader.ty) && challenger.ty != leader.ty;
            if challenger_is_descendant
                && challenger.confidence >= leader.confidence - SPECIFICITY_MARGIN
            {
                // Promote the specific type to the decision slot while
                // keeping the remainder in confidence order.
                top_k[0..=i].rotate_right(1);
                return;
            }
        }
    }

    /// Explicit feedback: the user relabels column `col_idx` of `table`
    /// as `ty` (Figure 3 ①). Runs the full DPBD loop: infer LFs ②, mine
    /// the customer's table history for weak labels ③/④, extend the
    /// local training set, finetune the local model, and grow `Wl`.
    ///
    /// The finetune featurizes only the examples this call admits (the
    /// demonstrated column plus any mined ones, once each), then runs 6
    /// epochs of the local MLP head over every row admitted so far (see
    /// [`LocalModel::training`]).
    ///
    /// The prediction being corrected is recomputed through the
    /// configured cascade, so feedback works over custom pipelines too.
    ///
    /// `history` is the customer's table corpus to mine; pass `None` to
    /// skip mining (LFs still registered, demo column still learned).
    pub fn feedback(
        &mut self,
        table: &Table,
        col_idx: usize,
        ty: TypeId,
        history: Option<&Corpus>,
    ) {
        let annotation = self.annotate(table);
        let neighbor_types: Vec<TypeId> = annotation
            .columns
            .iter()
            .filter(|c| c.col_idx != col_idx && !c.predicted.is_unknown())
            .map(|c| c.predicted)
            .collect();
        // The correction contradicts whatever the system predicted: the
        // global weight of that (wrong) type shrinks in this context.
        let previous = annotation.columns[col_idx].predicted;
        if previous != ty && !previous.is_unknown() {
            let header = tu_text::normalize_header(table.headers()[col_idx]);
            // Generic headers ("field_3") appear on unrelated columns in
            // other tables; discounting them there would be collateral
            // damage, so only informative header contexts are recorded.
            if !tu_dp::infer::is_generic_header(&header) {
                self.local.record_override(previous, &header);
            }
        }
        let column = table.column(col_idx).expect("column in range");

        // ② Infer labeling functions from the demonstration.
        let lfs = infer_lfs(
            &Demonstration {
                column,
                neighbor_types: &neighbor_types,
                ty,
            },
            &InferConfig::default(),
        );
        self.local.add_lfs(lfs);
        self.local.record_feedback(ty);

        // Demonstrated column itself becomes a training example.
        self.local
            .add_training(&self.global.embedding, table, col_idx, ty);

        // ③/④ Mine the customer's history with the full local LF bank.
        if let Some(history) = history {
            let mined = mine_weak_labels(history, &self.local.lfs, &MiningConfig::default());
            for m in mined {
                self.local.add_training(
                    &self.global.embedding,
                    &history.tables[m.table_idx].table,
                    m.col_idx,
                    m.label.ty,
                );
            }
        }
        self.refit_local();
        // The local model changed: retire every column-scoped entry.
        // A header's entries retire only if `record_override` above
        // changed its `Wg` state, which their key hashes.
        self.bump_epoch();
    }

    /// Implicit feedback: the user left the remaining predictions as-is,
    /// so they count as approvals (§4.2). Adds every confidently
    /// predicted column to the local training set. The annotation may
    /// come from any cascade configuration — only the final per-column
    /// decisions matter here.
    ///
    /// When it admits any column, the finetune featurizes just those
    /// columns (once each), then runs 6 epochs of the local MLP head
    /// over every row admitted so far, as [`SigmaTyper::feedback`] does.
    pub fn implicit_approve(&mut self, table: &Table, annotation: &TableAnnotation) {
        let mut admitted = false;
        for col_ann in &annotation.columns {
            if col_ann.abstained() {
                continue;
            }
            self.local.add_training(
                &self.global.embedding,
                table,
                col_ann.col_idx,
                col_ann.predicted,
            );
            self.local.record_feedback(col_ann.predicted);
            admitted = true;
        }
        if admitted {
            self.refit_local();
        }
        // `Wl` grew (feedback counts) even when no training example was
        // added, so cached scores are stale either way.
        self.bump_epoch();
    }

    /// Finetune the local embedding model: 6 epochs over every
    /// featurized row in the local training set. Featurizes nothing —
    /// [`LocalModel::add_training`] featurized each row on admission
    /// and created the finetuned model with the first one, so callers
    /// refit only after admitting an example.
    fn refit_local(&mut self) {
        self.local
            .finetuned
            .as_mut()
            .expect("the first admitted example created the finetuned model")
            .partial_fit(&self.local.training, 6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use crate::global::train_global;
    use crate::prediction::Step;
    use crate::step::{GlobalPart, RegexOnlyStep, SplitStep, StepContext};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::{builtin_id, builtin_ontology};
    use tu_table::Column;

    #[test]
    fn simulated_processes_never_reuse_an_epoch() {
        // Two "processes" — distinct (pid, startup time) seeds — each
        // drawing a long run of counter epochs the way `next_epoch`
        // does (seed + i): the runs must be disjoint, and each run
        // monotone. A zero seed (the old behavior) fails this the
        // moment both processes exist.
        let seed_a = process_epoch_seed(1111, 42);
        let seed_b = process_epoch_seed(2222, 43);
        assert_ne!(seed_a, seed_b);
        let run = |seed: u64| (0..1000u64).map(move |i| seed.wrapping_add(i));
        let a: std::collections::HashSet<u64> = run(seed_a).collect();
        assert!(
            run(seed_b).all(|e| !a.contains(&e)),
            "epoch reused across processes"
        );
        assert!(run(seed_a).zip(run(seed_a).skip(1)).all(|(x, y)| y > x));
        // Seeds leave the counter its monotone headroom.
        assert!(seed_a < (1 << 63) && seed_b < (1 << 63));
        // Determinism in the inputs (what makes the simulation valid).
        assert_eq!(seed_a, process_epoch_seed(1111, 42));
        // The live counter draws from the same scheme and moves.
        let e1 = next_epoch();
        let e2 = next_epoch();
        assert!(e2 > e1);
    }

    fn shared_global() -> Arc<GlobalModel> {
        let o = builtin_ontology();
        let mut cfg = CorpusConfig::database_like(51, 60);
        cfg.ood_column_rate = 0.25;
        let corpus = generate_corpus(&o, &cfg);
        Arc::new(train_global(o, &corpus, &TrainingConfig::fast()))
    }

    fn system() -> SigmaTyper {
        SigmaTyper::new(shared_global(), SigmaTyperConfig::default())
    }

    fn figure3_table() -> Table {
        Table::new(
            "employees",
            vec![
                Column::from_raw("Name", &["Han Phi", "Thomas Do", "Alexis Nan"]),
                Column::from_raw("Income", &["50000", "60000", "70000"]),
                Column::from_raw("Company", &["nytco", "Adyen", "Sigma"]),
                Column::from_raw("Cities", &["New York", "Amsterdam", "San Francisco"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn annotates_figure3_table() {
        let st = system();
        let o = st.ontology();
        let ann = st.annotate(&figure3_table());
        assert_eq!(ann.columns.len(), 4);
        // Clear headers must resolve correctly.
        assert_eq!(ann.columns[0].predicted, builtin_id(o, "name"));
        assert_eq!(ann.columns[1].predicted, builtin_id(o, "salary"));
        assert_eq!(ann.columns[3].predicted, builtin_id(o, "city"));
        // Header step ran for every column; timings recorded per step.
        assert!(ann.columns.iter().all(|c| c.steps_run[0] == Step::Header));
        assert_eq!(ann.timings.len(), 3);
        assert_eq!(ann.timings[0].name, "header");
        assert_eq!(ann.timings[0].columns, 4);
        assert!(ann.nanos_for(Step::Header) > 0);
    }

    #[test]
    fn cascade_skips_resolved_columns() {
        let st = system();
        let ann = st.annotate(&figure3_table());
        // "Income" is an exact alias → header step confidence 1.0 → later
        // steps must not run for it.
        let income = &ann.columns[1];
        assert_eq!(income.steps_run, vec![Step::Header]);
        assert_eq!(
            income.resolving_step(st.config().cascade_threshold),
            Some(Step::Header)
        );
        // The skip shows up in telemetry: later steps ran on fewer
        // columns than the header step did.
        assert!(ann.timings[1].columns < ann.timings[0].columns);
    }

    #[test]
    fn headerless_column_falls_through_to_lookup() {
        let st = system();
        let o = st.ontology();
        let table = Table::new(
            "t",
            vec![Column::from_raw(
                "c_17",
                &["ada@x.com", "bob@y.org", "eve@z.net"],
            )],
        )
        .unwrap();
        let ann = st.annotate(&table);
        assert!(ann.columns[0].steps_run.contains(&Step::Lookup));
        assert_eq!(ann.columns[0].predicted, builtin_id(o, "email"));
    }

    #[test]
    fn feedback_adapts_predictions() {
        let mut st = system();
        let o = st.ontology().clone();
        let phone = builtin_id(&o, "phone number");
        // A customer whose "contact" columns hold bare 8-digit numbers —
        // initially mis-predicted (identifier-ish), per Fig. 1b.
        let mk = |seed: u64| {
            let vals: Vec<String> = (0..30)
                .map(|i| format!("{}", 20_000_000 + seed * 1000 + i * 137))
                .collect();
            Table::new(
                format!("contacts_{seed}"),
                vec![Column::from_raw("contact", &vals)],
            )
            .unwrap()
        };
        let before = st.annotate(&mk(1)).columns[0].predicted;
        assert_ne!(before, phone, "sanity: starts wrong");
        // Three explicit corrections.
        for s in 1..=3 {
            st.feedback(&mk(s), 0, phone, None);
        }
        let after = st.annotate(&mk(9)).columns[0].predicted;
        assert_eq!(after, phone, "system must adapt to the customer's context");
        assert!(st.local().wl(phone) > 0.5);
        assert!(!st.local().lfs.is_empty());
    }

    #[test]
    fn implicit_approval_grows_training() {
        let mut st = system();
        let table = figure3_table();
        let ann = st.annotate(&table);
        let before = st.local().training.len();
        st.implicit_approve(&table, &ann);
        assert!(st.local().training.len() > before);
        assert!(st.local().total_feedback() > 0);
    }

    #[test]
    fn custom_type_registration_and_learning() {
        let mut st = system();
        let gene = st
            .register_custom_type("gene id", ValueKind::Identifier, &["ensembl id"])
            .expect("new type name");
        assert!(gene.index() >= st.global().ontology.len());
        // Teach it via feedback.
        let mk = |seed: u64| {
            let vals: Vec<String> = (0..25)
                .map(|i| format!("ENSG{:08}", seed * 100 + i))
                .collect();
            Table::new(
                format!("genes_{seed}"),
                vec![Column::from_raw("gene", &vals)],
            )
            .unwrap()
        };
        for s in 1..=3 {
            st.feedback(&mk(s), 0, gene, None);
        }
        let ann = st.annotate(&mk(7));
        assert_eq!(
            ann.columns[0].predicted, gene,
            "custom type must be learnable"
        );
    }

    #[test]
    fn refused_custom_types_leave_the_customer_unchanged() {
        let mut st = system();
        let unchanged = |st: &SigmaTyper, len: usize, epoch: u64| {
            assert_eq!(st.ontology().len(), len);
            assert_eq!(st.cache_epoch(), epoch);
        };
        let (len, epoch) = (st.ontology().len(), st.cache_epoch());
        let city = builtin_id(st.ontology(), "city");
        assert_eq!(
            st.register_custom_type("city", ValueKind::Textual, &[]),
            Err(CustomTypeError::AlreadyKnown {
                name: "city".into(),
                existing: city,
            })
        );
        unchanged(&st, len, epoch);
        // Fill every reserved class; the next registration is refused.
        let reserved = TrainingConfig::fast().reserve_classes;
        for i in 0..reserved {
            st.register_custom_type(&format!("custom {i}"), ValueKind::Textual, &[])
                .expect("a reserved class is free");
        }
        let (len, epoch) = (st.ontology().len(), st.cache_epoch());
        assert_eq!(len, st.global().embedding.n_classes());
        let refused = st.register_custom_type("one too many", ValueKind::Textual, &[]);
        assert_eq!(
            refused,
            Err(CustomTypeError::ReservedClassesExhausted { classes: len })
        );
        assert!(refused.unwrap_err().to_string().contains("reserve_classes"));
        unchanged(&st, len, epoch);
        assert_eq!(st.ontology().lookup_exact("one too many"), None);
    }

    #[test]
    fn ood_column_abstains() {
        let st = system();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let vals =
            tu_corpus::ood::generate_ood_column(&mut rng, tu_corpus::OodKind::GeneSequence, 30);
        let table = Table::new("t", vec![Column::new("sequence", vals)]).unwrap();
        let ann = st.annotate(&table);
        assert!(
            ann.columns[0].abstained() || ann.columns[0].confidence < 0.7,
            "OOD column should abstain or be unconfident: {:?} conf {}",
            ann.columns[0].predicted,
            ann.columns[0].confidence
        );
    }

    #[test]
    fn specific_type_beats_its_ancestor_on_close_votes() {
        let st = system();
        let o = st.ontology();
        let city = builtin_id(o, "city");
        let location = builtin_id(o, "location");
        let mut top = vec![
            Candidate {
                ty: location,
                confidence: 0.95,
            },
            Candidate {
                ty: city,
                confidence: 0.88,
            },
        ];
        st.prefer_specific(&mut top);
        assert_eq!(top[0].ty, city, "child within margin wins");
        // A clear margin keeps the general type.
        let mut top = vec![
            Candidate {
                ty: location,
                confidence: 0.95,
            },
            Candidate {
                ty: city,
                confidence: 0.5,
            },
        ];
        st.prefer_specific(&mut top);
        assert_eq!(top[0].ty, location);
        // Unrelated types never swap.
        let salary = builtin_id(o, "salary");
        let mut top = vec![
            Candidate {
                ty: location,
                confidence: 0.9,
            },
            Candidate {
                ty: salary,
                confidence: 0.89,
            },
        ];
        st.prefer_specific(&mut top);
        assert_eq!(top[0].ty, location);
    }

    /// Everything except wall-clock timing must match bit for bit.
    fn assert_same_annotation(a: &TableAnnotation, b: &TableAnnotation) {
        assert_eq!(a.columns.len(), b.columns.len());
        for (ca, cb) in a.columns.iter().zip(&b.columns) {
            assert_eq!(ca.predicted, cb.predicted);
            assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
            assert_eq!(ca.top_k, cb.top_k);
            assert_eq!(ca.steps_run, cb.steps_run);
            for (sa, sb) in ca.step_scores.iter().zip(&cb.step_scores) {
                assert_eq!(sa.candidates, sb.candidates);
            }
        }
    }

    /// Cache hits of the `(header, lookup, embedding)` steps of one
    /// annotation.
    fn step_hits(ann: &TableAnnotation) -> (usize, usize, usize) {
        let hits = |id: StepId| {
            ann.timings
                .iter()
                .filter(|t| t.step == id)
                .map(|t| t.cache_hits)
                .sum()
        };
        (
            hits(StepId::HEADER),
            hits(StepId::LOOKUP),
            hits(StepId::EMBEDDING),
        )
    }

    /// `(columns run, cache hits, misses, inserts)` summed over every
    /// step of one annotation.
    fn cache_totals(ann: &TableAnnotation) -> (usize, usize, usize, usize) {
        ann.timings.iter().fold((0, 0, 0, 0), |(r, h, m, i), t| {
            (
                r + t.columns,
                h + t.cache_hits,
                m + t.cache_misses,
                i + t.cache_inserts,
            )
        })
    }

    #[test]
    fn cached_annotation_is_identical_and_hits_on_recrawl() {
        let global = shared_global();
        let plain = SigmaTyper::builder(global.clone()).build();
        let cached = SigmaTyper::builder(global).cached(4096).build();
        assert!(cached.step_cache().is_some());
        assert!(plain.step_cache().is_none());
        // Opaque headers push columns past the header step, so the
        // lookup and embedding steps actually execute.
        let table = Table::new(
            "t",
            vec![
                Column::from_raw("Name", &["Han Phi", "Thomas Do", "Alexis Nan"]),
                Column::from_raw("c_17", &["ada@x.com", "bob@y.org", "eve@z.net"]),
                Column::from_raw("xq7_zz", &["lorem ipsum", "dolor sit", "amet"]),
            ],
        )
        .unwrap();

        // Cold crawl: three distinct headers and a fresh cache, so
        // nothing hits; every executed column — header step included —
        // missed and inserted.
        let cold = cached.annotate(&table);
        assert_same_annotation(&plain.annotate(&table), &cold);
        let header_runs: usize = cold
            .timings
            .iter()
            .filter(|t| t.step == StepId::HEADER)
            .map(|t| t.columns)
            .sum();
        assert_eq!(header_runs, 3);
        let (cold_runs, cold_hits, cold_misses, cold_inserts) = cache_totals(&cold);
        assert!(cold_runs > header_runs, "the tail steps ran too");
        assert_eq!(cold_hits, 0);
        assert_eq!(cold_misses, cold_runs);
        assert_eq!(cold_inserts, cold_runs);

        // Warm recrawl of the same table: bit-identical, and no step
        // runs at all — every executed column of the cold crawl hits.
        let warm = cached.annotate(&table);
        assert_same_annotation(&cold, &warm);
        let (warm_runs, warm_hits, warm_misses, warm_inserts) = cache_totals(&warm);
        assert_eq!(warm_runs, 0);
        assert_eq!(warm_hits, cold_runs);
        assert_eq!((warm_misses, warm_inserts), (0, 0));
        // Uncached instances report quiet counters.
        let plain_ann = plain.annotate(&table);
        assert!(plain_ann
            .timings
            .iter()
            .all(|t| t.cache_hits == 0 && t.cache_misses == 0 && t.cache_inserts == 0));
    }

    #[test]
    fn adaptation_events_bump_the_cache_epoch() {
        let mut st = SigmaTyper::builder(shared_global()).cached(1024).build();
        let e0 = st.cache_epoch();
        // Separately built instances never share an epoch (the global
        // draw is what keeps a shared cache sound across customers).
        assert_ne!(
            SigmaTyper::builder(shared_global()).build().cache_epoch(),
            e0
        );
        let table = figure3_table();
        let ann = st.annotate(&table);
        assert_eq!(st.cache_epoch(), e0, "read-only annotate never bumps");
        assert_eq!(st.clone().cache_epoch(), e0, "clones share the epoch");
        st.implicit_approve(&table, &ann);
        let e1 = st.cache_epoch();
        assert!(e1 > e0);
        st.feedback(&table, 1, builtin_id(st.ontology(), "salary"), None);
        let e2 = st.cache_epoch();
        assert!(e2 > e1);
        st.register_custom_type("widget", ValueKind::Textual, &[])
            .expect("new type name");
        let e3 = st.cache_epoch();
        assert!(e3 > e2);
        let _ = st.cascade_mut();
        let e4 = st.cache_epoch();
        assert!(e4 > e3);
        st.invalidate_cache();
        assert!(st.cache_epoch() > e4);
    }

    #[test]
    fn shared_cache_never_cross_serves_customers() {
        // Two separately built customers pooling one cache: customer A
        // adapts, customer B stays fresh. B's annotations must come
        // from B's own models — never from A's cached entries.
        let cache: Arc<dyn StepCache> = Arc::new(crate::cache::ShardedLruCache::new(1 << 14));
        let global = shared_global();
        let mut a = SigmaTyper::builder(global.clone())
            .step_cache(Arc::clone(&cache))
            .build();
        let b = SigmaTyper::builder(global.clone())
            .step_cache(Arc::clone(&cache))
            .build();
        let plain = SigmaTyper::builder(global).build();
        let o = plain.ontology().clone();
        let phone = builtin_id(&o, "phone number");
        let mk = |seed: u64| {
            let vals: Vec<String> = (0..30)
                .map(|i| format!("{}", 50_000_000 + seed * 1000 + i * 101))
                .collect();
            Table::new(
                format!("contacts_{seed}"),
                vec![Column::from_raw("contact", &vals)],
            )
            .unwrap()
        };
        let overridden = plain.annotate(&mk(1)).columns[0].predicted;
        for s in 1..=3 {
            a.feedback(&mk(s), 0, phone, None);
        }
        // A's first correction overrode a global prediction under
        // "contact", so A's `Wg` state there is no longer B's.
        assert!(a.local().wg(overridden, "contact") < 1.0);
        assert_eq!(b.local().wg(overridden, "contact"), 1.0);
        let t = mk(9);
        // Warm the shared cache with A's adapted scores.
        let from_a = a.annotate(&t);
        assert_eq!(from_a.columns[0].predicted, phone);
        // B annotates the same table through the same cache: its
        // epoch differs, so its lookup and embedding steps miss A's
        // entries, and so does its `Wg` state under "contact", so its
        // header step misses A's adapted entry. It hits one header
        // entry: the one A inserted when its first feedback read
        // `mk(1)` under the fresh `Wg` state B still has, whose scores
        // are B's own. B computes with its own (fresh) models —
        // identical to an uncached instance.
        let from_b = b.annotate(&t);
        assert_eq!(step_hits(&from_b), (1, 0, 0));
        assert_same_annotation(&plain.annotate(&t), &from_b);
        assert_ne!(from_b.columns[0].predicted, phone, "sanity: B unadapted");
    }

    #[test]
    fn feedback_invalidates_cached_scores() {
        let mut cached = SigmaTyper::builder(shared_global()).cached(4096).build();
        let mut plain = cached.clone();
        plain.set_step_cache(None);
        let o = cached.ontology().clone();
        let phone = builtin_id(&o, "phone number");
        let mk = |seed: u64| {
            let vals: Vec<String> = (0..30)
                .map(|i| format!("{}", 40_000_000 + seed * 1000 + i * 113))
                .collect();
            Table::new(
                format!("contacts_{seed}"),
                vec![Column::from_raw("contact", &vals)],
            )
            .unwrap()
        };
        // Warm the cache on the pre-adaptation state.
        let t = mk(9);
        let _ = cached.annotate(&t);
        assert!(cached.annotate(&t).timings.iter().any(|x| x.cache_hits > 0));
        // Adapt both instances identically. Only the first correction
        // overrides a global prediction (and so `Wg` under "contact");
        // the instances predict phone from then on, so the other two
        // confirm it.
        let overridden = plain.annotate(&mk(1)).columns[0].predicted;
        for s in 1..=3 {
            let predicted = plain.annotate(&mk(s)).columns[0].predicted;
            assert_eq!(predicted == phone, s > 1, "feedback {s}");
            cached.feedback(&mk(s), 0, phone, None);
            plain.feedback(&mk(s), 0, phone, None);
        }
        assert!(cached.local().wg(overridden, "contact") < 1.0);
        // The warm cache must not serve pre-adaptation scores: the
        // post-adaptation cached result is bit-identical to the
        // uncached adapted instance, and the first post-adaptation
        // crawl re-misses its lookup and embedding entries (fresh
        // epoch → fresh fingerprints). Its header step hits once: the
        // entry the third feedback's own read inserted under today's
        // `Wg` state, not the pre-adaptation one.
        let after = cached.annotate(&t);
        assert_eq!(after.columns[0].predicted, phone);
        assert_same_annotation(&plain.annotate(&t), &after);
        assert_eq!(step_hits(&after), (1, 0, 0));
        // ... and the recrawl after that hits again.
        assert!(cached.annotate(&t).timings.iter().any(|x| x.cache_hits > 0));
    }

    /// The header step's entries are keyed by header text: a second
    /// table sharing a header with the first hits them, a renamed
    /// header misses, and feedback that discounts the header's type
    /// (`Wg`) changes that header's key, so the next read misses it —
    /// and only it — and answers as an uncached adapted typer does.
    #[test]
    fn header_step_entries_are_keyed_by_header_text() {
        let mut cached = SigmaTyper::builder(shared_global()).cached(4096).build();
        let mut plain = cached.clone();
        plain.set_step_cache(None);
        let header = |ann: &TableAnnotation| {
            ann.timings
                .iter()
                .find(|t| t.step == StepId::HEADER)
                .map(|t| (t.columns, t.cache_hits, t.cache_misses))
                .expect("header step timed")
        };
        let salaries = |name: &str, header: &str, vals: &[&str]| {
            Table::new(
                name,
                vec![
                    Column::from_raw(header, vals),
                    Column::from_raw("xq7_zz", &["lorem ipsum", "dolor sit", "amet"]),
                ],
            )
            .unwrap()
        };
        let first = salaries("payroll", "salary", &["50000", "61000", "72000"]);
        let second = salaries("staff", "salary", &["48000", "52000", "99000"]);
        assert_eq!(header(&cached.annotate(&first)), (2, 0, 2));

        // Same headers, other table and values: both header columns
        // hit, and the answer is the uncached one bit for bit.
        let shared = cached.annotate(&second);
        assert_eq!(header(&shared), (0, 2, 0));
        assert_same_annotation(&plain.annotate(&second), &shared);

        // A renamed header misses; the unchanged neighbor still hits.
        let renamed = salaries("staff", "annual_pay", &["48000", "52000", "99000"]);
        assert_eq!(header(&cached.annotate(&renamed)), (1, 1, 1));

        // Correct the "salary" column to another type on both
        // instances: `Wg` now discounts salary under this header.
        let salary = builtin_id(cached.ontology(), "salary");
        let age = builtin_id(cached.ontology(), "age");
        let before = plain.annotate(&second);
        assert_eq!(before.columns[0].predicted, salary);
        let wg = cached.local().wg(salary, "salary");
        cached.feedback(&first, 0, age, None);
        plain.feedback(&first, 0, age, None);
        assert!(cached.local().wg(salary, "salary") < wg, "Wg moved");
        let adapted = cached.annotate(&second);
        assert_eq!(
            header(&adapted),
            (1, 1, 1),
            "the discounted header misses, its neighbor hits"
        );
        let (_, lookup_hits, embedding_hits) = step_hits(&adapted);
        assert_eq!((lookup_hits, embedding_hits), (0, 0), "a new epoch misses");
        assert_same_annotation(&plain.annotate(&second), &adapted);
        assert_ne!(
            adapted.columns[0].step_scores[0].candidates,
            before.columns[0].step_scores[0].candidates,
            "the discount reached the header scores"
        );
        // ... and the adapted entries serve the next read.
        assert_eq!(header(&cached.annotate(&second)), (0, 2, 0));
    }

    /// An opaque table no step resolves cheaply: every column walks
    /// the full cascade, so budget degradation has a tail to cut.
    fn opaque_table(cols: usize) -> Table {
        let columns: Vec<Column> = (0..cols)
            .map(|i| {
                Column::from_raw(
                    format!("xq{i}_zz"),
                    &["lorem ipsum", "dolor sit", "amet consect"],
                )
            })
            .collect();
        Table::new("opaque", columns).unwrap()
    }

    #[test]
    fn zero_budget_drop_tail_degrades_deterministically() {
        use crate::request::{AnnotationRequest, DegradationPolicy, SkipReason};
        let st = system();
        let table = opaque_table(3);
        let request = AnnotationRequest::new(&table)
            .with_budget_nanos(0)
            .with_policy(DegradationPolicy::DropTailSteps);
        let outcome = st.annotate_request(&request);
        // Every configured step is dropped, in cascade order, as
        // exhausted — and the report says so exactly.
        assert!(outcome.degraded());
        assert_eq!(
            outcome
                .degradation
                .skipped
                .iter()
                .map(|s| s.step)
                .collect::<Vec<_>>(),
            st.cascade().step_ids()
        );
        assert!(outcome
            .degradation
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::BudgetExhausted && s.ran == 0 && s.pending == 3));
        assert_eq!(outcome.degradation.budget_nanos, Some(0));
        assert_eq!(outcome.degradation.remaining_nanos, Some(0));
        assert_eq!(outcome.degradation.spent_nanos, 0);
        // Nothing ran, so nothing may be fabricated: all columns
        // abstain with empty traces — and the timing schema stays one
        // record per configured step.
        assert_eq!(outcome.annotation.columns.len(), 3);
        for col in &outcome.annotation.columns {
            assert!(col.abstained());
            assert!(col.steps_run.is_empty());
            assert!(col.top_k.is_empty());
        }
        assert_eq!(outcome.annotation.timings.len(), st.cascade().len());
        assert!(outcome
            .annotation
            .timings
            .iter()
            .all(|t| t.columns == 0 && t.chunks == 0));
        // Deterministic: an identical request degrades identically.
        let again = st.annotate_request(&request);
        assert_eq!(outcome.degradation.skipped, again.degradation.skipped);
    }

    #[test]
    fn zero_budget_best_effort_also_drops_everything() {
        use crate::request::{AnnotationRequest, DegradationPolicy};
        let st = system();
        let table = opaque_table(2);
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(0)
                .with_policy(DegradationPolicy::BestEffort),
        );
        assert!(outcome.degraded());
        assert!(outcome.annotation.columns.iter().all(|c| c.abstained()));
    }

    #[test]
    fn strict_policy_reports_overruns_but_never_degrades() {
        use crate::request::{AnnotationRequest, DegradationPolicy};
        let st = system();
        let table = figure3_table();
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(1)
                .with_policy(DegradationPolicy::Strict),
        );
        assert!(!outcome.degraded(), "Strict must never skip a step");
        assert!(outcome.degradation.over_budget(), "1 ns is always blown");
        assert_eq!(outcome.degradation.remaining_nanos, Some(0));
        // Output matches the unbudgeted path, decision for decision.
        let plain = st.annotate(&table);
        for (a, b) in outcome.annotation.columns.iter().zip(&plain.columns) {
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn predictive_drop_consults_the_cost_model() {
        use crate::request::{AnnotationRequest, DegradationPolicy, SkipReason};
        let st = system();
        // Teach the model an absurd embedding cost; the generous
        // budget comfortably covers the real header/lookup steps, so
        // only the prediction can trigger the drop.
        st.cost_model().set(Step::Embedding, 1e15, 0.5);
        let table = opaque_table(2);
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(10_000_000_000) // 10 s
                .with_policy(DegradationPolicy::DropTailSteps),
        );
        let skipped = &outcome.degradation.skipped;
        assert_eq!(skipped.len(), 1, "only embedding may degrade: {skipped:?}");
        assert_eq!(skipped[0].step, Step::Embedding);
        assert_eq!(skipped[0].reason, SkipReason::PredictedOverBudget);
        assert_eq!((skipped[0].pending, skipped[0].ran), (2, 0));
        // Header and lookup ran for every column; embedding for none.
        for col in &outcome.annotation.columns {
            assert!(col.steps_run.contains(&Step::Header));
            assert!(col.steps_run.contains(&Step::Lookup));
            assert!(!col.steps_run.contains(&Step::Embedding));
        }
    }

    #[test]
    fn best_effort_truncates_the_frontier_prefix() {
        use crate::request::{AnnotationRequest, DegradationPolicy, SkipReason};
        let st = system();
        // 1 s per predicted embedding column against a ~3.5 s budget:
        // three columns fit (the real header/lookup cost is orders of
        // magnitude below the slack).
        st.cost_model().set(Step::Embedding, 1e9, 0.5);
        let table = opaque_table(6);
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(3_500_000_000)
                .with_policy(DegradationPolicy::BestEffort),
        );
        let truncated: Vec<_> = outcome
            .degradation
            .skipped
            .iter()
            .filter(|s| s.step == Step::Embedding)
            .collect();
        assert_eq!(truncated.len(), 1, "{:?}", outcome.degradation.skipped);
        assert_eq!(truncated[0].reason, SkipReason::FrontierTruncated);
        assert_eq!(truncated[0].pending, 6);
        assert_eq!(truncated[0].ran, 3);
        // The frontier prefix (column order) ran; the tail did not.
        let with_embedding: Vec<usize> = outcome
            .annotation
            .columns
            .iter()
            .filter(|c| c.steps_run.contains(&Step::Embedding))
            .map(|c| c.col_idx)
            .collect();
        assert_eq!(with_embedding, vec![0, 1, 2]);
    }

    #[test]
    fn request_can_bypass_a_warm_cache() {
        use crate::request::AnnotationRequest;
        let st = SigmaTyper::builder(shared_global()).cached(4096).build();
        let table = opaque_table(3);
        let _ = st.annotate(&table); // warm
        let warm = st.annotate(&table);
        assert!(warm.timings.iter().any(|t| t.cache_hits > 0));
        let bypassed = st.annotate_request(&AnnotationRequest::new(&table).with_cache_bypassed());
        assert!(bypassed
            .annotation
            .timings
            .iter()
            .all(|t| t.cache_hits == 0 && t.cache_misses == 0 && t.cache_inserts == 0));
        // Bit-identical anyway: the cache is invisible in the output.
        assert_same_annotation(&warm, &bypassed.annotation);
    }

    #[test]
    fn telemetry_verbosity_strips_payload_not_decisions() {
        use crate::request::{AnnotationRequest, TelemetryVerbosity};
        let st = system();
        let table = figure3_table();
        let full = st.annotate_request(&AnnotationRequest::new(&table));
        let timings_only = st.annotate_request(
            &AnnotationRequest::new(&table).with_telemetry(TelemetryVerbosity::TimingsOnly),
        );
        let minimal = st.annotate_request(
            &AnnotationRequest::new(&table).with_telemetry(TelemetryVerbosity::Minimal),
        );
        assert!(full
            .annotation
            .columns
            .iter()
            .any(|c| !c.step_scores.is_empty()));
        assert!(!full.annotation.timings.is_empty());
        assert!(timings_only
            .annotation
            .columns
            .iter()
            .all(|c| c.step_scores.is_empty()));
        assert_eq!(timings_only.annotation.timings.len(), st.cascade().len());
        assert!(minimal.annotation.timings.is_empty());
        // Decisions survive every level bit for bit.
        for stripped in [&timings_only, &minimal] {
            for (a, b) in stripped
                .annotation
                .columns
                .iter()
                .zip(&full.annotation.columns)
            {
                assert_eq!(a.predicted, b.predicted);
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                assert_eq!(a.top_k, b.top_k);
                assert_eq!(a.steps_run, b.steps_run);
            }
        }
    }

    #[test]
    fn annotations_feed_the_shared_cost_model() {
        let st = system();
        assert!(st.cost_model().estimate(Step::Header).is_none());
        let _ = st.annotate(&figure3_table());
        let header = st.cost_model().estimate(Step::Header).unwrap();
        assert!(header.nanos_per_column > 0.0);
        assert!(header.yield_rate > 0.0, "clear headers resolve at step 1");
        // Clones share the model (service workers feed one EWMA).
        let clone = st.clone();
        let samples_before = clone.cost_model().estimate(Step::Header).unwrap().samples;
        let _ = clone.annotate(&figure3_table());
        assert!(st.cost_model().estimate(Step::Header).unwrap().samples > samples_before);
    }

    #[test]
    fn reorder_cascade_by_cost_bumps_the_epoch() {
        let mut st = system();
        st.cost_model().set(Step::Header, 1e6, 0.1);
        st.cost_model().set(Step::Lookup, 10.0, 0.9);
        let epoch = st.cache_epoch();
        assert!(st.reorder_cascade_by_cost());
        assert_eq!(
            st.cascade().step_ids(),
            vec![Step::Lookup, Step::Header, Step::Embedding]
        );
        assert!(
            st.cache_epoch() > epoch,
            "reorder must invalidate the cache"
        );
        // Idempotent second call still bumps (cascade_mut is
        // conservative) but changes nothing.
        assert!(!st.reorder_cascade_by_cost());
    }

    #[test]
    fn tau_zero_never_abstains_on_candidates() {
        let mut st = system();
        st.config_mut().tau = 0.0;
        let ann = st.annotate(&figure3_table());
        assert!(ann.columns.iter().all(|c| !c.top_k.is_empty()));
    }

    #[test]
    fn builder_default_matches_new() {
        let global = shared_global();
        let a = SigmaTyper::new(global.clone(), SigmaTyperConfig::default());
        let b = SigmaTyper::builder(global).build();
        assert_eq!(a.cascade().step_ids(), b.cascade().step_ids());
        let table = figure3_table();
        let (ann_a, ann_b) = (a.annotate(&table), b.annotate(&table));
        for (ca, cb) in ann_a.columns.iter().zip(&ann_b.columns) {
            assert_eq!(ca.predicted, cb.predicted);
            assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
            assert_eq!(ca.steps_run, cb.steps_run);
        }
    }

    #[test]
    fn builder_inserts_and_reorders_regex_only_step() {
        let global = shared_global();
        let typer = SigmaTyper::builder(global)
            .step_at(1, RegexOnlyStep)
            .build();
        assert_eq!(
            typer.cascade().step_ids(),
            vec![
                Step::Header,
                StepId::REGEX_ONLY,
                Step::Lookup,
                Step::Embedding
            ]
        );
        // An opaque-header email column: regex-only resolves it before
        // lookup even gets asked.
        let table = Table::new(
            "t",
            vec![Column::from_raw(
                "c_17",
                &["ada@x.com", "bob@y.org", "eve@z.net"],
            )],
        )
        .unwrap();
        let ann = typer.annotate(&table);
        let o = typer.ontology();
        assert_eq!(ann.columns[0].predicted, builtin_id(o, "email"));
        assert_eq!(
            ann.columns[0].resolving_step(typer.config().cascade_threshold),
            Some(StepId::REGEX_ONLY)
        );
        assert!(!ann.columns[0].steps_run.contains(&Step::Lookup));
        // Telemetry reports the new step by name, in cascade position.
        assert_eq!(ann.timings.len(), 4);
        assert_eq!(ann.timings[1].name, "regex-only");
        assert_eq!(ann.timings[1].columns, 1);
    }

    /// A user-defined step: claims any column whose values all carry a
    /// `TKT-` prefix, voting for a customer-registered type.
    #[derive(Debug)]
    struct TicketStep {
        ty: TypeId,
    }

    impl AnnotationStep for TicketStep {
        fn id(&self) -> StepId {
            StepId::custom(0)
        }

        fn name(&self) -> &str {
            "ticket-prefix"
        }

        fn run(&self, ctx: &StepContext<'_>) -> StepScores {
            let column = ctx.column();
            let vals: Vec<String> = column
                .sample(ctx.config.lookup_sample)
                .into_iter()
                .map(tu_table::Value::render)
                .collect();
            if !vals.is_empty() && vals.iter().all(|v| v.starts_with("TKT-")) {
                StepScores::from_candidates(vec![Candidate {
                    ty: self.ty,
                    confidence: 0.99,
                }])
            } else {
                StepScores::default()
            }
        }
    }

    #[test]
    fn custom_registered_step_end_to_end() {
        let global = shared_global();
        // Register the custom type first (on a throwaway instance) so we
        // know its id, then build the custom cascade.
        let mut typer = SigmaTyper::builder(global).build();
        let ticket = typer
            .register_custom_type("ticket id", ValueKind::Identifier, &[])
            .expect("new type name");
        typer.cascade_mut().insert(1, TicketStep { ty: ticket });
        typer.cascade_mut().set_weight(StepId::custom(0), 2.0);

        let table = Table::new(
            "tickets",
            vec![
                Column::from_raw("xq7_zz", &["TKT-0001", "TKT-0002", "TKT-0003"]),
                Column::from_raw("city", &["Oslo", "Lima", "Kyiv"]),
            ],
        )
        .unwrap();
        let ann = typer.annotate(&table);
        // The custom step resolves the ticket column and short-circuits
        // the rest of the cascade for it.
        assert_eq!(ann.columns[0].predicted, ticket);
        assert_eq!(
            ann.columns[0].resolving_step(typer.config().cascade_threshold),
            Some(StepId::custom(0))
        );
        assert!(ann.columns[0].steps_run.contains(&StepId::custom(0)));
        assert!(!ann.columns[0].steps_run.contains(&Step::Lookup));
        // The city column passes through the custom step unclaimed.
        assert_eq!(
            ann.columns[1].predicted,
            builtin_id(typer.ontology(), "city")
        );
        // Custom-step telemetry is reported by name. The city column is
        // already header-resolved, so the step only ran on the tickets.
        let t = &ann.timings[1];
        assert_eq!(t.step, StepId::custom(0));
        assert_eq!(t.name, "ticket-prefix");
        assert_eq!(t.columns, 1);
    }

    #[test]
    fn empty_cascade_abstains_everywhere() {
        let global = shared_global();
        let typer = SigmaTyper::builder(global)
            .without_step(Step::Header)
            .without_step(Step::Lookup)
            .without_step(Step::Embedding)
            .build();
        assert!(typer.cascade().is_empty());
        let ann = typer.annotate(&figure3_table());
        assert!(ann.columns.iter().all(ColumnAnnotation::abstained));
        assert!(ann.timings.is_empty());
    }

    /// A dissenting step that always votes one fixed type and never
    /// skips — exists purely to give the vote a second opinionated
    /// participant in the weight-override test.
    #[derive(Debug)]
    struct ConstStep {
        ty: TypeId,
    }

    impl AnnotationStep for ConstStep {
        fn id(&self) -> StepId {
            StepId::custom(1)
        }

        fn name(&self) -> &str {
            "const"
        }

        fn skip(&self, _ctx: &StepContext<'_>) -> bool {
            false
        }

        fn run(&self, _ctx: &StepContext<'_>) -> StepScores {
            StepScores::from_candidates(vec![Candidate {
                ty: self.ty,
                confidence: 0.9,
            }])
        }
    }

    /// Builds of a split step's two halves and the per-column calls of
    /// each.
    #[derive(Debug, Default)]
    struct HalfCounts {
        global_builds: AtomicUsize,
        halves: AtomicUsize,
        combine_builds: AtomicUsize,
        combines: AtomicUsize,
    }

    impl HalfCounts {
        fn get(&self) -> [usize; 4] {
            [
                &self.global_builds,
                &self.halves,
                &self.combine_builds,
                &self.combines,
            ]
            .map(|c| c.load(Ordering::Relaxed))
        }
    }

    /// A split step that counts its halves in [`HalfCounts`] and
    /// scores a column by its header's length.
    #[derive(Debug)]
    struct CountingSplitStep(Arc<HalfCounts>);

    fn header_length_scores(column: &Column) -> StepScores {
        StepScores::from_candidates(vec![Candidate {
            ty: TypeId(2),
            confidence: 1.0 / (1.0 + column.name.len() as f64),
        }])
    }

    impl AnnotationStep for CountingSplitStep {
        fn id(&self) -> StepId {
            StepId::custom(5)
        }

        fn name(&self) -> &str {
            "split-counter"
        }

        fn skip(&self, _ctx: &StepContext<'_>) -> bool {
            false
        }

        fn run(&self, ctx: &StepContext<'_>) -> StepScores {
            header_length_scores(ctx.column())
        }

        fn split(&self) -> Option<&dyn SplitStep> {
            Some(self)
        }
    }

    impl SplitStep for CountingSplitStep {
        fn reads_neighbor_headers(&self) -> bool {
            false
        }

        fn global_half<'a>(
            &'a self,
            ctx: StepContext<'a>,
        ) -> Box<dyn Fn(usize) -> GlobalPart + Sync + 'a> {
            self.0.global_builds.fetch_add(1, Ordering::Relaxed);
            Box::new(move |ci| {
                self.0.halves.fetch_add(1, Ordering::Relaxed);
                GlobalPart {
                    scores: header_length_scores(&ctx.table.columns()[ci]),
                    features: Vec::new(),
                }
            })
        }

        fn combine<'a>(
            &'a self,
            _ctx: StepContext<'a>,
        ) -> Box<dyn Fn(usize, &GlobalPart) -> StepScores + Sync + 'a> {
            self.0.combine_builds.fetch_add(1, Ordering::Relaxed);
            Box::new(move |_, part| {
                self.0.combines.fetch_add(1, Ordering::Relaxed);
                part.scores.clone()
            })
        }
    }

    /// The executor builds a split step's two halves once per (step,
    /// table) and shares them across *all* chunks — including
    /// column-parallel ones — instead of once per chunk, calling each
    /// once per column. On a cache, after the epoch moved, every column
    /// finds its stored half and runs only the combine.
    #[test]
    fn split_halves_are_built_once_per_table_across_chunks() {
        let table = Table::new(
            "t",
            (0..12)
                .map(|i| Column::from_raw(format!("xq{i}"), &["lorem", "ipsum"]))
                .collect(),
        )
        .unwrap();
        let typer = |counts: &Arc<HalfCounts>| {
            SigmaTyper::builder(shared_global())
                .step(CountingSplitStep(Arc::clone(counts)))
                .column_threads(3)
        };
        let timing = |annotation: &TableAnnotation| {
            let timing = annotation
                .timings
                .iter()
                .find(|t| t.step == StepId::custom(5));
            let timing = timing.expect("the counting step's timing");
            (timing.columns, timing.chunks, timing.global_hits)
        };

        let plain_counts = Arc::new(HalfCounts::default());
        let plain = typer(&plain_counts).build();
        let want = plain.annotate(&table);
        assert_eq!(
            timing(&want),
            (12, 3, 0),
            "12 columns on 3 threads are 3 chunks"
        );
        assert_eq!(plain_counts.get(), [1, 12, 1, 12]);
        // A second table builds its own halves exactly once more.
        let _ = plain.annotate(&table);
        assert_eq!(plain_counts.get(), [2, 24, 2, 24]);

        let counts = Arc::new(HalfCounts::default());
        let mut cached = typer(&counts).cached(1 << 12).build();
        assert_same_annotation(&want, &cached.annotate(&table));
        assert_eq!(counts.get(), [1, 12, 1, 12]);
        cached.invalidate_cache();
        let got = cached.annotate(&table);
        assert_same_annotation(&want, &got);
        assert_eq!(timing(&got), (12, 3, 12), "every half is a global hit");
        assert_eq!(counts.get(), [2, 12, 2, 24], "no half computed again");
    }

    /// The one column-parallel rule, end to end through `annotate`: a
    /// frontier splits only when it is at least
    /// [`MIN_PARALLEL_COLUMNS`](crate::executor::MIN_PARALLEL_COLUMNS)
    /// wide and the budget has two or more threads.
    #[test]
    fn frontiers_split_from_twelve_columns_on_two_or_more_threads() {
        let opaque = |cols: usize| {
            let columns = (0..cols)
                .map(|i| {
                    Column::from_raw(
                        format!("xq{i}_zz"),
                        &["lorem ipsum", "dolor sit", "amet consect"],
                    )
                })
                .collect();
            Table::new("opaque", columns).unwrap()
        };
        let chunks = |typer: &SigmaTyper, table: &Table| -> Vec<(StepId, usize, usize)> {
            typer
                .annotate(table)
                .timings
                .iter()
                .map(|t| (t.step, t.columns, t.chunks))
                .collect()
        };
        let global = shared_global();
        let three = SigmaTyper::builder(global.clone())
            .column_threads(3)
            .build();
        let narrow = chunks(&three, &opaque(11));
        assert!(narrow.iter().all(|&(_, _, c)| c == 1), "{narrow:?}");
        let wide = chunks(&three, &opaque(12));
        assert_eq!(wide[0], (StepId::HEADER, 12, 3), "{wide:?}");
        let one = SigmaTyper::builder(global).column_threads(1).build();
        let solo = chunks(&one, &opaque(12));
        assert!(solo.iter().all(|&(_, _, c)| c <= 1), "{solo:?}");
    }

    #[test]
    fn step_weight_override_changes_the_vote() {
        let global = shared_global();
        let o = global.ontology.clone();
        let city = builtin_id(&o, "city");
        let salary = builtin_id(&o, "salary");
        let table = Table::new(
            "t",
            vec![Column::from_raw("Cities", &["Oslo", "Lima", "Kyiv"])],
        )
        .unwrap();
        // Header matching says `city` (near-exact, 0.97); the dissenting
        // step says `salary` at 0.9. At the default weight (1.0 for a
        // custom step) the header wins; at 50x the dissenter wins — the
        // override, not the config weight, decides the vote.
        let base = SigmaTyper::builder(global.clone())
            .step(ConstStep { ty: salary })
            .build();
        assert_eq!(base.annotate(&table).columns[0].predicted, city);
        let boosted = SigmaTyper::builder(global)
            .step(ConstStep { ty: salary })
            .step_weight(StepId::custom(1), 50.0)
            .build();
        assert_eq!(boosted.annotate(&table).columns[0].predicted, salary);
    }
}
