//! Budgeted annotation requests: the typed request/response pair the
//! public entry points are built on.
//!
//! The paper's production lesson (§4) is that the cascade exists to
//! meet interactive latency on real warehouse traffic — cheap steps
//! first, expensive models only when needed, and **degrade instead of
//! queue** when load spikes. The bare `annotate(&Table)` call cannot
//! express any of that, so the entry points take an
//! [`AnnotationRequest`] — a table plus [`RequestOptions`] carrying a
//! per-request nanosecond budget and a [`DegradationPolicy`] — and
//! return an [`AnnotationOutcome`]: the annotation plus a
//! [`DegradationReport`] recording exactly which steps were skipped or
//! truncated, why, and the budget accounting.
//!
//! # Degradation semantics
//!
//! The [`CascadeExecutor`](crate::executor::CascadeExecutor) charges a
//! [`BudgetLedger`] after every executed step with the larger of the
//! step's wall-clock and summed in-chunk nanoseconds (a degraded
//! system must not hide CPU burn behind column parallelism), and
//! consults the customer's [`CostModel`]
//! before each step to predict whether the pending frontier still
//! fits:
//!
//! * [`Strict`](DegradationPolicy::Strict) — never degrade. The ledger
//!   is still charged (the report shows the overrun), but every step
//!   runs. `annotate(&Table)` is exactly a default request:
//!   `Strict` + unbounded, proven bit-identical in the golden suite.
//! * [`DropTailSteps`](DegradationPolicy::DropTailSteps) — once the
//!   ledger is exhausted, every remaining step with a non-empty
//!   frontier is dropped whole; a step whose *predicted* cost exceeds
//!   the remaining budget is dropped pre-emptively (cheaper later
//!   steps may still fit). Dropped steps never vote, so affected
//!   columns abstain rather than fabricate.
//! * [`BestEffort`](DegradationPolicy::BestEffort) — like
//!   `DropTailSteps`, but a step that partially fits runs a truncated
//!   prefix of its frontier (as many columns as the predicted
//!   per-column cost says the remaining budget covers) instead of
//!   dropping everything.
//!
//! Skipping or truncating steps only removes votes; it never invents
//! them — a column that lost its resolving step falls back to weaker
//! candidates or to abstention, exactly as if the step had been
//! removed from the cascade.
//!
//! # Forced budgets (`SIGMATYPER_STEP_BUDGET_NANOS`)
//!
//! Setting the `SIGMATYPER_STEP_BUDGET_NANOS` environment variable to
//! a nanosecond count forces that budget onto every request that does
//! not set one explicitly (including plain `annotate` calls), with
//! `Strict` escalated to `DropTailSteps` so degradation actually
//! engages. CI runs the degradation suite under a 1 ns forced budget
//! to exercise these paths; it is an operational chaos knob, not a
//! tuning surface — production callers should set budgets per request.

use crate::backend::EmbeddingBackendKind;
use crate::cost::CostModel;
use crate::prediction::{StepId, TableAnnotation};
use crate::tenant::TenantId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tu_table::Table;

/// What the executor may do when a request's budget no longer covers
/// the remaining cascade (see the [module docs](self) for the exact
/// semantics of each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Never degrade: every step runs; budget overruns are only
    /// reported. The default — and what `annotate(&Table)` uses.
    #[default]
    Strict,
    /// Drop remaining steps whole once the budget is exhausted or a
    /// step's predicted cost no longer fits.
    DropTailSteps,
    /// Like [`DropTailSteps`](DegradationPolicy::DropTailSteps), but
    /// partially-fitting steps run a truncated frontier prefix instead
    /// of dropping every column.
    BestEffort,
}

/// How much telemetry the returned [`TableAnnotation`] retains.
/// Degradation reporting is unaffected — the
/// [`DegradationReport`] is always complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryVerbosity {
    /// Everything: per-column per-step scores and per-step timings.
    /// The default, and the only level whose output is bit-identical
    /// to `annotate(&Table)`.
    #[default]
    Full,
    /// Drop the per-column [`step_scores`] (the bulkiest field);
    /// keep decisions, `steps_run`, and the [`StepTiming`] records.
    ///
    /// [`step_scores`]: crate::prediction::ColumnAnnotation::step_scores
    /// [`StepTiming`]: crate::prediction::StepTiming
    TimingsOnly,
    /// Drop per-column step scores *and* the timing records; keep only
    /// the decisions (`predicted`, `confidence`, `top_k`, `steps_run`).
    Minimal,
}

/// Per-request options: budget, degradation policy, cache and
/// telemetry choices. `Default` is `Strict`, unbounded, no overrides —
/// the exact behavior of `annotate(&Table)`. How a request runs is
/// never its own choice: the parallelism policy is the customer's
/// [`SigmaTyperConfig`](crate::config::SigmaTyperConfig), and the
/// column threads are the config's, or the serving
/// [`AnnotationService`](crate::service::AnnotationService)'s share.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestOptions {
    /// Nanosecond budget for this request (`None` = unbounded; see
    /// [`resolved`](RequestOptions::resolved) for the
    /// `SIGMATYPER_STEP_BUDGET_NANOS` fallback). For batch requests
    /// this is the budget of the *whole batch*, shared by every table.
    pub budget_nanos: Option<u64>,
    /// What to do when the budget no longer covers the remaining
    /// cascade.
    pub policy: DegradationPolicy,
    /// Skip the step cache entirely for this request: no consults, no
    /// inserts. For forced recomputation (an operator suspecting a
    /// poisoned backend) — output is bit-identical either way.
    pub bypass_cache: bool,
    /// How much telemetry the returned annotation retains.
    pub telemetry: TelemetryVerbosity,
    /// Override the embedding-inference backend for this request only
    /// (`None` = use
    /// [`SigmaTyperConfig::embedding_backend`](crate::config::SigmaTyperConfig::embedding_backend)).
    /// A non-default backend moves the cache fingerprint: approximate
    /// backends score differently, so their cached step results must
    /// never cross-serve (see [`crate::backend`]).
    pub embedding_backend: Option<EmbeddingBackendKind>,
    /// Override the delta-reuse sensitivity threshold for this request
    /// only (`None` = use
    /// [`SigmaTyperConfig::delta_sensitivity`](crate::config::SigmaTyperConfig::delta_sensitivity)).
    /// Only consulted when the request carries a base table
    /// ([`AnnotationRequest::with_base`]); `Some(0.0)` forces an
    /// incremental recrawl to be bit-identical to full recomputation.
    pub delta_sensitivity: Option<f64>,
    /// Which tenant this request is accounted to, when traffic shaping
    /// is active (`None` = unattributed — no tenant bookkeeping). Set
    /// by the server from the `x-sigma-tenant` header or by the load
    /// lab; ids are only meaningful against the
    /// [`TenantRegistry`](crate::tenant::TenantRegistry) that interned
    /// them. Attribution never changes annotation results — only
    /// scheduling, shedding, and accounting.
    pub tenant: Option<TenantId>,
}

impl RequestOptions {
    /// Builder-style: set the nanosecond budget.
    #[must_use]
    pub fn with_budget_nanos(mut self, nanos: u64) -> Self {
        self.budget_nanos = Some(nanos);
        self
    }

    /// Builder-style: set the degradation policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: bypass the step cache for this request.
    #[must_use]
    pub fn with_cache_bypassed(mut self) -> Self {
        self.bypass_cache = true;
        self
    }

    /// Builder-style: set the telemetry verbosity.
    #[must_use]
    pub fn with_telemetry(mut self, verbosity: TelemetryVerbosity) -> Self {
        self.telemetry = verbosity;
        self
    }

    /// Builder-style: override the embedding-inference backend for
    /// this request only (see
    /// [`crate::backend::EmbeddingBackendKind`] for the built-in
    /// choices and their accuracy classes).
    #[must_use]
    pub fn with_embedding_backend(mut self, backend: EmbeddingBackendKind) -> Self {
        self.embedding_backend = Some(backend);
        self
    }

    /// Builder-style: override the delta-reuse sensitivity threshold
    /// (see
    /// [`SigmaTyperConfig::delta_sensitivity`](crate::config::SigmaTyperConfig::delta_sensitivity)).
    /// Negative values are clamped to `0.0` (bit-identical recrawls).
    #[must_use]
    pub fn with_delta_sensitivity(mut self, sensitivity: f64) -> Self {
        self.delta_sensitivity = Some(sensitivity.max(0.0));
        self
    }

    /// Builder-style: attribute this request to a tenant (see the
    /// [`tenant`](RequestOptions::tenant) field).
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// The effective `(budget, policy)` after applying the
    /// `SIGMATYPER_STEP_BUDGET_NANOS` fallback: an explicit
    /// `budget_nanos` always wins; otherwise a forced environment
    /// budget applies, escalating `Strict` to `DropTailSteps` so the
    /// forced budget can actually degrade (see the [module
    /// docs](self)).
    #[must_use]
    pub fn resolved(&self) -> (Option<u64>, DegradationPolicy) {
        if self.budget_nanos.is_some() {
            return (self.budget_nanos, self.policy);
        }
        match forced_step_budget_nanos() {
            Some(forced) => {
                let policy = match self.policy {
                    DegradationPolicy::Strict => DegradationPolicy::DropTailSteps,
                    other => other,
                };
                (Some(forced), policy)
            }
            None => (None, self.policy),
        }
    }
}

/// Parse a `SIGMATYPER_STEP_BUDGET_NANOS` value. An unparseable value
/// is **loud**, not silent: a typo'd CI env var that quietly disabled
/// the forced-budget leg would make that leg vacuously green. Returns
/// `None` after one stderr warning (and, in debug builds, a
/// `debug_assert` failure) so release binaries still start with the
/// variable ignored rather than crashing serving.
fn parse_step_budget(raw: &str) -> Option<u64> {
    match raw.trim().parse::<u64>() {
        Ok(nanos) => Some(nanos),
        Err(err) => {
            eprintln!(
                "sigmatyper: ignoring unparseable SIGMATYPER_STEP_BUDGET_NANOS={raw:?}: {err} \
                 (expected a nanosecond count, e.g. 2000000)"
            );
            debug_assert!(
                false,
                "unparseable SIGMATYPER_STEP_BUDGET_NANOS={raw:?}: {err}"
            );
            None
        }
    }
}

/// The forced budget from `SIGMATYPER_STEP_BUDGET_NANOS`, if the
/// variable is set to a parseable nanosecond count (probed once per
/// process, like
/// [`forced_column_parallelism`](crate::executor::forced_column_parallelism)).
/// A set-but-unparseable value is ignored loudly: one stderr warning,
/// plus a `debug_assert` so debug test runs fail fast.
#[must_use]
pub fn forced_step_budget_nanos() -> Option<u64> {
    static FORCED: OnceLock<Option<u64>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("SIGMATYPER_STEP_BUDGET_NANOS")
            .ok()
            .and_then(|v| parse_step_budget(&v))
    })
}

/// One annotation request: a table plus [`RequestOptions`].
///
/// ```
/// use sigmatyper::{AnnotationRequest, DegradationPolicy};
/// use tu_table::{Column, Table};
///
/// let table = Table::new("t", vec![Column::from_raw("city", &["Oslo"])]).unwrap();
/// let request = AnnotationRequest::new(&table)
///     .with_budget_nanos(2_000_000) // 2 ms
///     .with_policy(DegradationPolicy::DropTailSteps);
/// assert_eq!(request.options.budget_nanos, Some(2_000_000));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AnnotationRequest<'a> {
    /// The table to annotate.
    pub table: &'a Table,
    /// Budget, policy, cache and telemetry options.
    pub options: RequestOptions,
    /// A previous crawl of the same table, enabling the delta-aware
    /// recrawl path (see [`with_base`](AnnotationRequest::with_base)).
    /// `None` = annotate from scratch.
    pub base: Option<&'a Table>,
}

impl<'a> AnnotationRequest<'a> {
    /// A request with default options: `Strict`, unbounded, no
    /// overrides — behaviorally identical to `annotate(table)`.
    #[must_use]
    pub fn new(table: &'a Table) -> Self {
        AnnotationRequest {
            table,
            options: RequestOptions::default(),
            base: None,
        }
    }

    /// A request with explicit options.
    #[must_use]
    pub fn with_options(table: &'a Table, options: RequestOptions) -> Self {
        AnnotationRequest {
            table,
            options,
            base: None,
        }
    }

    /// Builder-style: mark this request as a recrawl of `base` (a
    /// previous crawl of the same table), enabling delta-aware
    /// re-annotation: per-column deltas are diffed against the base,
    /// base columns that are unchanged or appended-to prefixes take
    /// their fingerprints from the new crawl's hashing pass instead of
    /// a rehash, and column-scoped steps
    /// whose input signal moved less than their sensitivity threshold
    /// reuse the base crawl's cached scores instead of re-running.
    ///
    /// Always sound to pass: columns that changed beyond the
    /// thresholds (or a table whose shape changed) simply fall back to
    /// full recomputation, and at sensitivity `0` the result is
    /// bit-identical to a from-scratch annotate.
    #[must_use]
    pub fn with_base(mut self, base: &'a Table) -> Self {
        self.base = Some(base);
        self
    }

    /// Builder-style: override the delta-reuse sensitivity threshold
    /// (meaningful together with
    /// [`with_base`](AnnotationRequest::with_base)).
    #[must_use]
    pub fn with_delta_sensitivity(mut self, sensitivity: f64) -> Self {
        self.options = self.options.with_delta_sensitivity(sensitivity);
        self
    }

    /// Builder-style: set the nanosecond budget.
    #[must_use]
    pub fn with_budget_nanos(mut self, nanos: u64) -> Self {
        self.options = self.options.with_budget_nanos(nanos);
        self
    }

    /// Builder-style: set the degradation policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.options = self.options.with_policy(policy);
        self
    }

    /// Builder-style: bypass the step cache.
    #[must_use]
    pub fn with_cache_bypassed(mut self) -> Self {
        self.options = self.options.with_cache_bypassed();
        self
    }

    /// Builder-style: set the telemetry verbosity.
    #[must_use]
    pub fn with_telemetry(mut self, verbosity: TelemetryVerbosity) -> Self {
        self.options = self.options.with_telemetry(verbosity);
        self
    }
}

/// Why a step was skipped or truncated (see [`SkippedStep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The ledger was already exhausted when the step came up: the
    /// whole remaining tail degrades.
    BudgetExhausted,
    /// The [`CostModel`] predicted the step's
    /// frontier would not fit the remaining budget, so it was dropped
    /// before running (cheaper later steps may still have run).
    PredictedOverBudget,
    /// [`BestEffort`](DegradationPolicy::BestEffort) only: part of the
    /// frontier fit and ran; the rest was dropped.
    FrontierTruncated,
}

/// One degradation event: a cascade step the executor skipped wholly
/// or partially to honor the request budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedStep {
    /// Which step degraded.
    pub step: StepId,
    /// Its display name (meaningful for custom steps).
    pub name: String,
    /// Why it degraded.
    pub reason: SkipReason,
    /// How many columns were pending for the step when the decision
    /// fired (its would-be frontier).
    pub pending: usize,
    /// How many of those still ran (non-zero only for
    /// [`SkipReason::FrontierTruncated`]).
    pub ran: usize,
}

/// The budget accounting attached to every [`AnnotationOutcome`]:
/// which steps degraded, why, and where the ledger ended up.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The effective policy (after
    /// [`RequestOptions::resolved`]'s environment fallback).
    pub policy: DegradationPolicy,
    /// The effective budget (`None` = unbounded). For batch requests
    /// this is the whole batch's shared budget.
    pub budget_nanos: Option<u64>,
    /// Nanoseconds this table's steps charged against the ledger (the
    /// larger of wall-clock and summed in-chunk time per step).
    pub spent_nanos: u64,
    /// Ledger remainder after this table (`None` when unbounded).
    /// Under a shared batch ledger this reflects the whole batch's
    /// state at the moment this table finished.
    pub remaining_nanos: Option<u64>,
    /// Every step that was skipped or truncated, in cascade order.
    /// Empty when nothing degraded.
    pub skipped: Vec<SkippedStep>,
    /// Total `(step, column)` pairs answered by reusing the base
    /// crawl's cached scores on a delta-aware recrawl (the sum of
    /// [`StepTiming::delta_reused`](crate::prediction::StepTiming::delta_reused)
    /// across steps). Always 0 outside
    /// [`AnnotationRequest::with_base`] requests and at sensitivity 0.
    pub delta_reused: usize,
    /// The tenant this request was accounted to
    /// ([`RequestOptions::tenant`]), echoed back for callers
    /// correlating outcomes with per-tenant metrics. `None` for
    /// unattributed requests.
    pub tenant: Option<TenantId>,
}

impl DegradationReport {
    /// Did any step degrade (skip or truncate)?
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.skipped.is_empty()
    }

    /// Did the charged time exceed the budget? Meaningful under
    /// [`Strict`](DegradationPolicy::Strict), where overruns are
    /// reported instead of prevented.
    #[must_use]
    pub fn over_budget(&self) -> bool {
        self.budget_nanos
            .is_some_and(|budget| self.spent_nanos > budget)
    }

    /// The [`StepId`]s that were skipped outright (not truncated), in
    /// cascade order.
    #[must_use]
    pub fn dropped_steps(&self) -> Vec<StepId> {
        self.skipped
            .iter()
            .filter(|s| s.ran == 0)
            .map(|s| s.step)
            .collect()
    }
}

/// What an annotation request returns: the annotation plus the
/// degradation/budget accounting.
#[derive(Debug, Clone)]
pub struct AnnotationOutcome {
    /// The (possibly degraded) annotation. Degradation only removes
    /// votes: affected columns abstain or fall back to weaker
    /// candidates, never fabricate.
    pub annotation: TableAnnotation,
    /// Which steps were skipped/truncated and the budget accounting.
    pub degradation: DegradationReport,
}

impl AnnotationOutcome {
    /// Unwrap the annotation, discarding the report.
    #[must_use]
    pub fn into_annotation(self) -> TableAnnotation {
        self.annotation
    }

    /// Shorthand for [`DegradationReport::degraded`].
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degradation.degraded()
    }
}

/// A thread-safe budget ledger: the remaining nanosecond allowance of
/// one request (or one shared batch), charged by the
/// [`CascadeExecutor`](crate::executor::CascadeExecutor) after every
/// executed step.
///
/// Batch serving shares a single ledger across every worker thread, so
/// the whole batch degrades as one budget — the degrade-don't-queue
/// stance: an overloaded batch sheds expensive tail steps instead of
/// stretching its latency.
#[derive(Debug)]
pub struct BudgetLedger {
    /// `None` = unbounded (nothing is ever exhausted).
    initial: Option<u64>,
    remaining: AtomicU64,
    spent: AtomicU64,
}

impl BudgetLedger {
    /// A ledger with `nanos` to spend.
    #[must_use]
    pub fn bounded(nanos: u64) -> Self {
        BudgetLedger {
            initial: Some(nanos),
            remaining: AtomicU64::new(nanos),
            spent: AtomicU64::new(0),
        }
    }

    /// A ledger that never exhausts (spending is still tracked).
    #[must_use]
    pub fn unbounded() -> Self {
        BudgetLedger {
            initial: None,
            remaining: AtomicU64::new(u64::MAX),
            spent: AtomicU64::new(0),
        }
    }

    /// [`bounded`](BudgetLedger::bounded) when a budget is given,
    /// [`unbounded`](BudgetLedger::unbounded) otherwise.
    #[must_use]
    pub fn from_budget(budget: Option<u64>) -> Self {
        match budget {
            Some(nanos) => BudgetLedger::bounded(nanos),
            None => BudgetLedger::unbounded(),
        }
    }

    /// The initial budget (`None` = unbounded).
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.initial
    }

    /// Charge `nanos` against the ledger (saturating at zero).
    pub fn charge(&self, nanos: u64) {
        self.spent.fetch_add(nanos, Ordering::Relaxed);
        if self.initial.is_some() {
            // Saturating subtraction: a single fetch_update loop keeps
            // concurrent charges from wrapping below zero.
            let _ = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                    Some(r.saturating_sub(nanos))
                });
        }
    }

    /// Remaining allowance (`None` = unbounded).
    #[must_use]
    pub fn remaining(&self) -> Option<u64> {
        self.initial.map(|_| self.remaining.load(Ordering::Relaxed))
    }

    /// Total charged so far (tracked for unbounded ledgers too).
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Is the ledger bounded and fully spent?
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.initial.is_some() && self.remaining.load(Ordering::Relaxed) == 0
    }
}

/// Everything the [`CascadeExecutor`](crate::executor::CascadeExecutor)
/// needs to enforce a budget during one table's run: the ledger (maybe
/// shared batch-wide), the effective policy, and the cost model for
/// predictive drops.
#[derive(Debug, Clone, Copy)]
pub struct BudgetContext<'a> {
    /// The ledger to charge and consult.
    pub ledger: &'a BudgetLedger,
    /// The effective degradation policy.
    pub policy: DegradationPolicy,
    /// Cost estimates for predictive drops (`None` disables
    /// prediction; exhaustion drops still apply).
    pub cost: Option<&'a CostModel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_budget_parses_valid_and_trimmed_values() {
        assert_eq!(parse_step_budget("2000000"), Some(2_000_000));
        assert_eq!(parse_step_budget("  1 \n"), Some(1));
        assert_eq!(parse_step_budget("0"), Some(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unparseable SIGMATYPER_STEP_BUDGET_NANOS")]
    fn unparseable_step_budget_is_loud_in_debug() {
        let _ = parse_step_budget("2ms");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn unparseable_step_budget_is_ignored_in_release() {
        // Release builds warn on stderr and ignore the value instead
        // of taking serving down.
        assert_eq!(parse_step_budget("2ms"), None);
        assert_eq!(parse_step_budget(""), None);
        assert_eq!(parse_step_budget("-5"), None);
    }

    #[test]
    fn default_options_are_strict_and_unbounded() {
        let opts = RequestOptions::default();
        assert_eq!(opts.policy, DegradationPolicy::Strict);
        assert_eq!(opts.budget_nanos, None);
        assert!(!opts.bypass_cache);
        assert_eq!(opts.telemetry, TelemetryVerbosity::Full);
        assert_eq!(opts.delta_sensitivity, None);
        assert_eq!(opts.tenant, None);
    }

    #[test]
    fn builder_methods_compose() {
        let opts = RequestOptions::default()
            .with_budget_nanos(500)
            .with_policy(DegradationPolicy::BestEffort)
            .with_cache_bypassed()
            .with_telemetry(TelemetryVerbosity::Minimal)
            .with_delta_sensitivity(0.1);
        assert_eq!(opts.budget_nanos, Some(500));
        assert_eq!(opts.policy, DegradationPolicy::BestEffort);
        assert!(opts.bypass_cache);
        assert_eq!(opts.telemetry, TelemetryVerbosity::Minimal);
        assert_eq!(opts.delta_sensitivity, Some(0.1));
        // Negative sensitivities clamp to the bit-identical regime.
        let clamped = RequestOptions::default().with_delta_sensitivity(-3.0);
        assert_eq!(clamped.delta_sensitivity, Some(0.0));
    }

    #[test]
    fn explicit_budget_wins_over_environment() {
        // Whatever the environment says, an explicit budget resolves
        // verbatim with its own policy.
        let opts = RequestOptions::default()
            .with_budget_nanos(123)
            .with_policy(DegradationPolicy::Strict);
        assert_eq!(opts.resolved(), (Some(123), DegradationPolicy::Strict));
    }

    #[test]
    fn resolution_honors_the_forced_environment_budget() {
        // This test must pass with and without
        // SIGMATYPER_STEP_BUDGET_NANOS in the process environment (CI
        // runs both legs), so it asserts consistency with the probe.
        let opts = RequestOptions::default();
        match forced_step_budget_nanos() {
            Some(forced) => {
                assert_eq!(
                    opts.resolved(),
                    (Some(forced), DegradationPolicy::DropTailSteps),
                    "forced budgets must escalate Strict so they can degrade"
                );
                let best_effort = opts.with_policy(DegradationPolicy::BestEffort);
                assert_eq!(
                    best_effort.resolved(),
                    (Some(forced), DegradationPolicy::BestEffort),
                    "non-Strict policies keep their own semantics"
                );
            }
            None => {
                assert_eq!(opts.resolved(), (None, DegradationPolicy::Strict));
            }
        }
    }

    #[test]
    fn ledger_charges_and_exhausts() {
        let ledger = BudgetLedger::bounded(100);
        assert_eq!(ledger.budget(), Some(100));
        assert_eq!(ledger.remaining(), Some(100));
        assert!(!ledger.exhausted());
        ledger.charge(60);
        assert_eq!(ledger.remaining(), Some(40));
        assert_eq!(ledger.spent(), 60);
        // Saturates instead of wrapping.
        ledger.charge(1_000);
        assert_eq!(ledger.remaining(), Some(0));
        assert!(ledger.exhausted());
        assert_eq!(ledger.spent(), 1_060);
    }

    #[test]
    fn unbounded_ledger_never_exhausts() {
        let ledger = BudgetLedger::unbounded();
        assert_eq!(ledger.budget(), None);
        assert_eq!(ledger.remaining(), None);
        ledger.charge(u64::MAX / 2);
        assert!(!ledger.exhausted());
        assert_eq!(ledger.spent(), u64::MAX / 2);
        // Zero-budget ledgers are born exhausted.
        assert!(BudgetLedger::bounded(0).exhausted());
        assert!(BudgetLedger::from_budget(Some(0)).exhausted());
        assert!(!BudgetLedger::from_budget(None).exhausted());
    }

    #[test]
    fn concurrent_charges_account_exactly() {
        let ledger = BudgetLedger::bounded(1_000_000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1_000 {
                        ledger.charge(7);
                    }
                });
            }
        });
        assert_eq!(ledger.spent(), 4 * 1_000 * 7);
        assert_eq!(ledger.remaining(), Some(1_000_000 - 4 * 1_000 * 7));
    }

    #[test]
    fn report_helpers() {
        let report = DegradationReport {
            policy: DegradationPolicy::DropTailSteps,
            budget_nanos: Some(10),
            spent_nanos: 25,
            remaining_nanos: Some(0),
            skipped: vec![
                SkippedStep {
                    step: StepId::LOOKUP,
                    name: "lookup".into(),
                    reason: SkipReason::BudgetExhausted,
                    pending: 3,
                    ran: 0,
                },
                SkippedStep {
                    step: StepId::EMBEDDING,
                    name: "embedding".into(),
                    reason: SkipReason::FrontierTruncated,
                    pending: 3,
                    ran: 1,
                },
            ],
            delta_reused: 0,
            tenant: None,
        };
        assert!(report.degraded());
        assert!(report.over_budget());
        assert_eq!(report.dropped_steps(), vec![StepId::LOOKUP]);
        let clean = DegradationReport {
            policy: DegradationPolicy::Strict,
            budget_nanos: None,
            spent_nanos: 42,
            remaining_nanos: None,
            skipped: vec![],
            delta_reused: 0,
            tenant: None,
        };
        assert!(!clean.degraded());
        assert!(!clean.over_budget());
        assert!(clean.dropped_steps().is_empty());
    }
}
