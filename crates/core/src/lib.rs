//! # sigmatyper
//!
//! The core of the CIDR'22 *Making Table Understanding Work in Practice*
//! reproduction: **SigmaTyper**, a hybrid, adaptive semantic column type
//! detection system.
//!
//! Architecture (paper Figures 2–4):
//! * a pretrained [`GlobalModel`] shared by all customers — header
//!   matcher, value lookup (knowledge base + regex bank + global LFs),
//!   and a table-embedding classifier with a background `unknown` class;
//! * per-customer [`SigmaTyper`] instances holding a [`LocalModel`] that
//!   adapts through **data programming by demonstration**: explicit
//!   relabels and implicit approvals become labeling functions, mined
//!   weak labels, and local finetuning, with per-type weights `Wl`
//!   growing over time;
//! * a pluggable **cascade** of [`AnnotationStep`]s ordered by inference
//!   cost, gated by the confidence threshold `c`, aggregated by a soft
//!   majority vote, and thresholded by τ for high-precision abstention.
//!   The default cascade is the paper's three steps; deployments add,
//!   remove, reorder, and reweight steps through [`SigmaTyper::builder`];
//! * an **executor layer** ([`CascadeExecutor`]) that walks each step's
//!   pending-column frontier, consults the per-step [`StepCache`], and
//!   runs every frontier of at least [`MIN_PARALLEL_COLUMNS`] columns
//!   column-parallel, one chunk per thread of its budget, bit-identical
//!   to sequential execution;
//! * a **budgeted request API** ([`AnnotationRequest`] →
//!   [`AnnotationOutcome`]): per-request latency budgets enforced by a
//!   [`BudgetLedger`], a [`DegradationPolicy`] deciding whether
//!   over-budget tail steps are dropped or truncated (degrade, don't
//!   queue — affected columns abstain, never fabricate), a
//!   [`DegradationReport`] accounting for every shed step, and an
//!   online [`CostModel`] of measured per-step cost/yield that powers
//!   predictive drops and cost-aware cascade reordering
//!   ([`Cascade::reorder_by_cost`]).
//!
//! ```
//! use sigmatyper::{train_global, SigmaTyper, SigmaTyperConfig, TrainingConfig};
//! use tu_corpus::{generate_corpus, CorpusConfig};
//! use tu_ontology::builtin_ontology;
//!
//! let ontology = builtin_ontology();
//! let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(7, 20));
//! let global = train_global(ontology, &corpus, &TrainingConfig::fast());
//! let typer = SigmaTyper::new(std::sync::Arc::new(global), SigmaTyperConfig::default());
//! let annotation = typer.annotate(&corpus.tables[0].table);
//! assert_eq!(annotation.columns.len(), corpus.tables[0].table.n_cols());
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod cache;
pub mod cascade;
pub mod config;
pub mod cost;
pub mod diskcache;
pub mod embedstep;
pub mod executor;
pub mod global;
pub mod headerstep;
pub mod local;
pub mod lookupstep;
pub mod prediction;
pub mod regexbank;
pub mod request;
pub mod service;
pub mod step;
pub mod system;
pub mod tenant;

pub use cache::{
    column_fingerprints, column_fingerprints_chained, CacheContext, CacheKey, CacheStats,
    ColumnFingerprint, ColumnHashState, GlobalPartStats, GlobalPartStore, ShardedLruCache,
    StableHasher, StepCache, GLOBAL_PART_BYTES, MAX_FINGERPRINT_CHAIN,
};
pub use cascade::Cascade;
pub use config::{SigmaTyperConfig, TrainingConfig};
pub use cost::{CostModel, StepCostEstimate};
pub use diskcache::{DiskCache, DurableEpochSource, TieredStepCache, DISK_FORMAT_VERSION};
pub use embedstep::{train_embedding_model, TableEmbeddingModel};
pub use executor::{BudgetedTrace, CascadeExecutor, DeltaContext, MIN_PARALLEL_COLUMNS};
pub use global::{train_global, GlobalModel};
pub use headerstep::HeaderMatcher;
pub use local::LocalModel;
pub use lookupstep::ValueLookup;
pub use prediction::{
    Candidate, ColumnAnnotation, Step, StepId, StepScores, StepTiming, TableAnnotation,
};
pub use regexbank::RegexBank;
pub use request::{
    AnnotationOutcome, AnnotationRequest, BudgetContext, BudgetLedger, DegradationPolicy,
    DegradationReport, RequestOptions, SkipReason, SkippedStep, TelemetryVerbosity,
};
pub use service::{AnnotationService, BoundedQueue, LaneLedger, QueueRejection, TrafficLane};
pub use step::{
    AnnotationStep, CacheScope, EmbeddingStep, GlobalPart, HeaderStep, LookupStep, RegexOnlyStep,
    SplitStep, StepContext,
};
pub use system::{CustomTypeError, SigmaTyper, SigmaTyperBuilder};
pub use tenant::{
    admission_cutoff, ShapedBudget, TenantId, TenantLaneSnapshot, TenantRegistry, TenantSnapshot,
    TrafficShaper, ANONYMOUS_TENANT,
};
