//! The cascade execution layer: [`CascadeExecutor`] runs a
//! [`Cascade`]'s steps over a table with an explicit pending-column
//! **frontier**, per-column [`StepCache`](crate::cache::StepCache)
//! consults, and optional column-parallel execution.
//!
//! # Execution model
//!
//! For each configured step, in cascade order:
//!
//! 1. **Frontier.** Every column is checked against the step's
//!    [`skip`](crate::step::AnnotationStep::skip) predicate (by default
//!    the paper's confidence-threshold early exit, §4.3). With a
//!    cache configured it is consulted per surviving column, under the
//!    key the step's
//!    [`cache_scope`](crate::step::AnnotationStep::cache_scope) names;
//!    hits enter the trace exactly like runs. What remains — not
//!    skipped, not cached — is the step's *pending-column frontier*.
//! 2. **Chunking.** The step builds its
//!    [`scorer`](crate::step::AnnotationStep::scorer) once for the
//!    table, paying any table-level setup there, and the
//!    [`ParallelismPolicy`] splits the frontier into chunks whose
//!    columns are each scored by one call of that closure. Sequential
//!    execution is the single-chunk special case, so the same scorer
//!    serves both paths.
//! 3. **Workers.** When more than one chunk is planned and the worker
//!    budget allows, chunks are distributed over
//!    [`std::thread::scope`] threads. Steps are deterministic and
//!    read-only and every chunk's results are written back by column
//!    index, so scheduling can never change the output — the golden
//!    suite (`tests/golden_cascade.rs`) proves column-parallel
//!    execution bit-identical to sequential for fresh, ablated, and
//!    adaptation-heavy customers, cached and uncached.
//!
//! Per step, the executor reports [`StepTiming`] telemetry including
//! the chunk count and the summed in-chunk nanoseconds
//! ([`StepTiming::parallel_nanos`]), the inputs the cost-aware-ordering
//! roadmap item needs.
//!
//! Setting the `SIGMATYPER_PARALLEL_COLUMNS` environment variable to a
//! non-`0` value forces column-parallel execution wherever a frontier
//! has at least two columns, regardless of policy or detected core
//! count — CI uses this to exercise the parallel path on machines
//! where the default heuristics would pick sequential.

use crate::cache::{
    column_fingerprints, header_fingerprints, CacheContext, CacheKey, ColumnFingerprint,
};
use crate::cascade::{Cascade, CascadeTrace};
use crate::config::SigmaTyperConfig;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{StepId, StepScores, StepTiming};
use crate::request::{BudgetContext, BudgetLedger, DegradationPolicy, SkipReason, SkippedStep};
use crate::step::{AnnotationStep, CacheScope, ColumnState, StepContext};
use std::sync::OnceLock;
use std::time::Instant;
use tu_ontology::TypeId;
use tu_table::Table;

/// When the executor may run a step's pending-column frontier in
/// parallel. Execution strategy only: every choice produces
/// bit-identical output (the golden suite proves it), so this is a
/// latency/throughput knob, never a correctness one — and it is
/// deliberately **excluded** from the cache fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismPolicy {
    /// Never parallelize within a table: every frontier runs as one
    /// chunk on the calling thread.
    Off,
    /// Parallelize a step only when its frontier has at least
    /// `min_columns` pending columns (and the worker budget allows),
    /// splitting it evenly across the budget. Narrow tables — the
    /// common case — stay on the zero-overhead sequential path.
    PerTableThreshold {
        /// Minimum frontier width before threads are worth spawning.
        min_columns: usize,
    },
    /// Always split the frontier into chunks of `columns` columns;
    /// chunks run on up to the budgeted number of workers (with a
    /// budget of 1 they run sequentially, which still exercises the
    /// chunked path). Mostly a testing/tuning policy.
    FixedChunk {
        /// Columns per chunk.
        columns: usize,
    },
}

impl Default for ParallelismPolicy {
    /// The production default: parallelize wide-table frontiers (≥ 12
    /// pending columns), leave narrow ones sequential.
    fn default() -> Self {
        ParallelismPolicy::PerTableThreshold { min_columns: 12 }
    }
}

/// `true` when `SIGMATYPER_PARALLEL_COLUMNS` is set to a non-empty,
/// non-`0` value: every frontier of two or more columns is then
/// chunked and run on at least two workers, whatever the policy says.
#[must_use]
pub fn forced_column_parallelism() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os("SIGMATYPER_PARALLEL_COLUMNS").is_some_and(|v| v != "0" && !v.is_empty())
    })
}

/// Inputs for the delta-aware recrawl path of
/// [`CascadeExecutor::run_budgeted`]: precomputed fingerprints for the
/// new crawl and the base crawl, and how far each column's signal
/// moved. The request core
/// ([`SigmaTyper::annotate_request_shared_with_base`](crate::system::SigmaTyper::annotate_request_shared_with_base))
/// computes both sets of fingerprints in one pass over the new
/// crawl's cells, plus a full pass over each base column that is not
/// a prefix of its new column.
///
/// With a delta context installed, a [`CacheScope::Column`] step that
/// misses the exact cache for a column whose movement is at or below
/// `sensitivity ×`
/// [`sensitivity_factor`](crate::step::AnnotationStep::sensitivity_factor)
/// reuses the *base* crawl's cached scores for that column instead of
/// re-running — entered into the trace exactly like a cache hit, and
/// counted in [`StepTiming::delta_reused`]. Reused scores are **never
/// inserted** under the new fingerprint, and once any reuse fires, the
/// executor stops inserting later steps' fresh results too: those ran
/// under an approximated cross-column context, and the cache contract
/// ("equal fingerprints ⇒ bit-identical scores") only admits entries
/// from unapproximated runs.
#[derive(Debug, Clone, Copy)]
pub struct DeltaContext<'a> {
    /// Fingerprints of the new crawl's columns — must be bit-identical
    /// to what
    /// [`column_fingerprints`]
    /// would compute for the table, so exact cache hits keep working
    /// unchanged.
    pub fingerprints: &'a [ColumnFingerprint],
    /// Fingerprints of the base crawl's columns, for reuse lookups —
    /// what [`column_fingerprints`] computes for the base.
    pub base_fingerprints: &'a [ColumnFingerprint],
    /// Per-column [`movement`](tu_table::ColumnDelta::movement), in
    /// column order of the new crawl.
    pub movements: &'a [f64],
    /// Base sensitivity threshold; `0.0` disables reuse entirely
    /// (bit-identical to a from-scratch run).
    pub sensitivity: f64,
}

/// Runs a [`Cascade`] over tables: frontier tracking, cache consults,
/// and (policy-permitting) column-parallel step execution.
///
/// The executor is cheap to construct — the
/// [`AnnotationService`](crate::service::AnnotationService) builds one
/// per worker with that worker's share of the thread budget, and
/// [`SigmaTyper::annotate`](crate::system::SigmaTyper::annotate)
/// builds one per call from the configuration.
#[derive(Debug, Clone, Copy)]
pub struct CascadeExecutor {
    policy: ParallelismPolicy,
    threads: usize,
}

impl CascadeExecutor {
    /// An executor with an explicit policy and worker budget for
    /// intra-table column chunks (clamped to at least 1).
    #[must_use]
    pub fn new(policy: ParallelismPolicy, threads: usize) -> Self {
        CascadeExecutor {
            policy,
            threads: threads.max(1),
        }
    }

    /// An executor derived from a configuration:
    /// [`SigmaTyperConfig::parallelism`] plus the
    /// [`SigmaTyperConfig::column_threads`] budget (`0` = the
    /// machine's available parallelism, probed once per process —
    /// [`SigmaTyper::annotate`](crate::system::SigmaTyper::annotate)
    /// builds an executor per call, and a per-table syscall on the
    /// serving hot path would be pure waste for a value that is
    /// static in practice).
    #[must_use]
    pub fn from_config(config: &SigmaTyperConfig) -> Self {
        let threads = if config.column_threads == 0 {
            static AUTO: OnceLock<usize> = OnceLock::new();
            *AUTO.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
        } else {
            config.column_threads
        };
        CascadeExecutor::new(config.parallelism, threads)
    }

    /// The configured parallelism policy.
    #[must_use]
    pub fn policy(&self) -> ParallelismPolicy {
        self.policy
    }

    /// The worker budget for intra-table column chunks.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Plan the execution of one frontier: `(chunk_size, workers)`.
    /// `workers == 1` means run the chunks inline on the caller's
    /// thread (no spawn); `chunk_size` is always at least 1.
    fn plan(&self, frontier: usize) -> (usize, usize) {
        self.plan_with(frontier, forced_column_parallelism())
    }

    /// [`plan`](Self::plan) with the forced-parallelism flag made
    /// explicit, so the planning rules are unit-testable regardless of
    /// the process environment.
    fn plan_with(&self, frontier: usize, forced: bool) -> (usize, usize) {
        debug_assert!(frontier > 0, "empty frontiers are not planned");
        let budget = self.threads.max(1);
        let mut chunk_size = match self.policy {
            ParallelismPolicy::Off => frontier,
            ParallelismPolicy::PerTableThreshold { min_columns } => {
                if frontier >= min_columns.max(1) && budget >= 2 {
                    frontier.div_ceil(budget.min(frontier))
                } else {
                    frontier
                }
            }
            ParallelismPolicy::FixedChunk { columns } => columns.clamp(1, frontier),
        };
        let mut worker_cap = budget;
        if forced && frontier >= 2 {
            // Force at least two chunks on at least two workers so the
            // parallel path is exercised even on single-core machines.
            worker_cap = budget.max(2);
            if chunk_size >= frontier {
                chunk_size = frontier.div_ceil(worker_cap.min(frontier));
            }
        }
        let n_chunks = frontier.div_ceil(chunk_size);
        (chunk_size, n_chunks.min(worker_cap))
    }

    /// Run every configured step of `cascade` over every column of
    /// `table`: the frontier loop described in the [module
    /// docs](self). Returns the per-column `(step, scores)` traces in
    /// execution order plus one [`StepTiming`] per configured step.
    ///
    /// Under an optional [`BudgetContext`], after every executed step
    /// the ledger is charged with the larger of the step's wall-clock
    /// and summed in-chunk nanoseconds, and — when the policy allows
    /// degradation — steps are dropped or truncated as described in
    /// [`crate::request`]. With `budget == None` (or a
    /// [`Strict`](crate::request::DegradationPolicy::Strict) policy)
    /// every step runs, which is what keeps plain `annotate` calls
    /// bit-identical to default requests.
    ///
    /// An optional [`DeltaContext`] engages the delta-aware recrawl
    /// path (see its docs): precomputed fingerprints replace the
    /// per-run rehash, and sufficiently still columns reuse the base
    /// crawl's cached scores. With `delta == None` — or a sensitivity
    /// of 0 — the walk is bit-identical to a from-scratch run.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // the models, config and cache plus the budget and delta contexts
    pub fn run_budgeted(
        &self,
        cascade: &Cascade,
        table: &Table,
        global: &GlobalModel,
        local: &LocalModel,
        config: &SigmaTyperConfig,
        cache: Option<CacheContext<'_>>,
        budget: Option<BudgetContext<'_>>,
        delta: Option<DeltaContext<'_>>,
    ) -> BudgetedTrace {
        let n = table.n_cols();
        let normalized: Vec<String> = table
            .headers()
            .iter()
            .map(|h| tu_text::normalize_header(h))
            .collect();
        // The delta path only matters with a cache to reuse from, and
        // its slices must cover every column.
        let delta = delta.filter(|d| {
            cache.is_some()
                && d.fingerprints.len() == n
                && d.base_fingerprints.len() == n
                && d.movements.len() == n
        });
        // One pass over the table's cells, shared by every step — or,
        // on the delta path, the fingerprints the caller computed with
        // the base's (`recrawl_fingerprints`: each new cell hashed
        // once, bit-identical to this pass).
        let fingerprints: Option<Vec<ColumnFingerprint>> = cache.map(|cc| match delta {
            Some(d) => d.fingerprints.to_vec(),
            None => column_fingerprints(table, &cascade.step_ids(), config, cc.epoch),
        });
        // Keys of header-scoped steps: one short hash per header text.
        let header_keys: Option<Vec<ColumnFingerprint>> =
            cache.map(|cc| header_fingerprints(table, config, cc.epoch));
        let mut per_column: Vec<Vec<(StepId, StepScores)>> = vec![Vec::new(); n];
        let mut timings = Vec::with_capacity(cascade.len());
        let mut skipped: Vec<SkippedStep> = Vec::new();
        let mut charged_nanos = 0u64;
        let mut total_delta_reused = 0usize;
        // Once any step reused base-crawl scores, later steps run under
        // an approximated cross-column context: their fresh results are
        // real for this response but must not be inserted under the new
        // fingerprint (the cache admits only unapproximated runs).
        let mut tainted = false;
        // Degradation engages only under a non-Strict budget context;
        // Strict charges the ledger but never drops.
        let degrade = budget.filter(|b| b.policy != DegradationPolicy::Strict);

        for step in cascade.steps() {
            let t0 = Instant::now();
            // Tentative neighbor types from the best candidates of the
            // steps executed so far, and per-column state (recomputed
            // once per step, so every step sees the freshest
            // cross-column context).
            let tentative: Vec<TypeId> = per_column.iter().map(|steps| best_type(steps)).collect();
            let states: Vec<ColumnState> = per_column
                .iter()
                .map(|steps| ColumnState {
                    best_so_far: best_so_far(steps),
                })
                .collect();
            let ctx_for = |ci: usize| StepContext {
                table,
                col_idx: ci,
                normalized_headers: &normalized,
                tentative: &tentative,
                best_so_far: states[ci].best_so_far,
                global,
                local,
                config,
                column_states: &states,
            };

            // Degradation gate 1: an exhausted ledger drops the whole
            // remaining tail — the step is not run, not cached, not
            // consulted; only its would-be frontier is counted for the
            // report. Dropped steps keep their timing record (stable
            // one-record-per-step schema) with zero columns/chunks.
            if let Some(b) = degrade {
                if b.ledger.exhausted() {
                    let pending = states
                        .iter()
                        .enumerate()
                        .filter(|(ci, _)| !step.skip(&ctx_for(*ci)))
                        .count();
                    if pending > 0 {
                        skipped.push(SkippedStep {
                            step: step.id(),
                            name: step.name().to_owned(),
                            reason: SkipReason::BudgetExhausted,
                            pending,
                            ran: 0,
                        });
                    }
                    timings.push(StepTiming {
                        step: step.id(),
                        name: step.name().to_owned(),
                        nanos: t0.elapsed().as_nanos(),
                        columns: 0,
                        cache_hits: 0,
                        cache_misses: 0,
                        cache_inserts: 0,
                        chunks: 0,
                        parallel_nanos: 0,
                        delta_reused: 0,
                    });
                    continue;
                }
            }

            // Phase 1: build the pending-column frontier — skip gates
            // first, then the exact cache under the step's scope, then
            // the delta-reuse gate: an exact miss on a column whose
            // signal moved less than the step's sensitivity threshold
            // is answered from the *base* crawl's entry instead of
            // re-running. At sensitivity 0 the threshold is 0 and any
            // real change has positive movement, so reuse never fires
            // and the walk stays bit-identical to a from-scratch run.
            // Header-scoped keys ignore cell values, so those steps
            // skip the reuse gate: an unchanged header is already an
            // exact hit, and a changed one moved without bound.
            let scope = step.cache_scope();
            let step_cache = cache.zip(match scope {
                CacheScope::Column => fingerprints.as_deref(),
                CacheScope::Header => header_keys.as_deref(),
            });
            let reuse_delta = delta.filter(|_| scope == CacheScope::Column);
            let reuse_threshold = reuse_delta
                .map(|d| d.sensitivity * step.sensitivity_factor())
                .unwrap_or(0.0);
            let (mut hits, mut misses) = (0usize, 0usize);
            let mut delta_reused = 0usize;
            let mut cached_scores: Vec<(usize, StepScores)> = Vec::new();
            let mut frontier: Vec<usize> = Vec::new();
            for ci in 0..n {
                if step.skip(&ctx_for(ci)) {
                    continue;
                }
                if let Some((cc, keys)) = step_cache {
                    let key = CacheKey::for_step(keys[ci], step.id());
                    if let Some(scores) = cc.cache.get(&key) {
                        hits += 1;
                        cached_scores.push((ci, scores));
                        continue;
                    }
                    misses += 1;
                    if let Some(d) = reuse_delta {
                        if reuse_threshold > 0.0 && d.movements[ci] <= reuse_threshold {
                            let base_key = CacheKey::for_step(d.base_fingerprints[ci], step.id());
                            if let Some(scores) = cc.cache.get(&base_key) {
                                delta_reused += 1;
                                cached_scores.push((ci, scores));
                                continue;
                            }
                        }
                    }
                }
                frontier.push(ci);
            }

            // Degradation gate 2: predictive. When the cost model has
            // an estimate for this step and it says the frontier no
            // longer fits the remaining budget, drop the step
            // (DropTailSteps) or truncate the frontier to the prefix
            // that fits (BestEffort). Cache hits gathered above are
            // kept either way — they are real results at memo cost.
            if let Some(b) = degrade {
                if !frontier.is_empty() {
                    let remaining = b.ledger.remaining().unwrap_or(u64::MAX);
                    let estimate = b.cost.and_then(|c| c.estimate(step.id()));
                    if let Some(est) = estimate {
                        let predicted = est.nanos_per_column * frontier.len() as f64;
                        if predicted > remaining as f64 {
                            let fits = match b.policy {
                                DegradationPolicy::BestEffort if est.nanos_per_column > 0.0 => {
                                    ((remaining as f64 / est.nanos_per_column) as usize)
                                        .min(frontier.len())
                                }
                                _ => 0,
                            };
                            skipped.push(SkippedStep {
                                step: step.id(),
                                name: step.name().to_owned(),
                                reason: if fits > 0 {
                                    SkipReason::FrontierTruncated
                                } else {
                                    SkipReason::PredictedOverBudget
                                },
                                pending: frontier.len(),
                                ran: fits,
                            });
                            frontier.truncate(fits);
                        }
                    }
                }
            }

            // Phase 2: run the uncached frontier in chunks, inline or
            // column-parallel. Under BestEffort the ledger is charged
            // *between chunks* too, so an over-budget frontier stops
            // early instead of finishing (ROADMAP 5b) — the other
            // policies never interrupt mid-step (DropTailSteps drops
            // whole steps; Strict never degrades).
            let interrupt = degrade
                .filter(|b| b.policy == DegradationPolicy::BestEffort)
                .map(|b| b.ledger);
            let run = self.run_frontier(step.as_ref(), &frontier, &ctx_for, interrupt);

            // A mid-step stop left part of the frontier unrun: account
            // it as a truncation. When the predictive gate already
            // recorded one for this step, tighten its `ran` count;
            // otherwise this is a fresh truncation event.
            if run.pairs.len() < frontier.len() {
                let completed = run.pairs.len();
                match skipped.last_mut() {
                    Some(last) if last.step == step.id() => last.ran = completed,
                    _ => skipped.push(SkippedStep {
                        step: step.id(),
                        name: step.name().to_owned(),
                        reason: SkipReason::FrontierTruncated,
                        pending: frontier.len(),
                        ran: completed,
                    }),
                }
            }

            // Phase 3: write back — cache inserts, then the trace.
            // Each column gains at most one entry per step, so the
            // write-back order cannot influence later steps. Inserts
            // are suppressed once an *earlier* step reused base-crawl
            // scores: this step's frontier ran under an approximated
            // context, and a cached entry must only ever come from an
            // unapproximated run. (Reuse at this step taints later
            // steps, not this one — the per-column context above was
            // computed at step start, before any of this step's
            // results existed.)
            let mut inserts = 0usize;
            if let Some((cc, keys)) = step_cache.filter(|_| !tainted) {
                for (ci, scores) in &run.pairs {
                    // Epoch-tagged insert: persistent backends record
                    // which epoch produced the entry so compaction can
                    // drop adapted-away epochs.
                    cc.cache.insert_with_epoch(
                        CacheKey::for_step(keys[*ci], step.id()),
                        scores.clone(),
                        cc.epoch,
                    );
                    inserts += 1;
                }
            }
            tainted |= delta_reused > 0;
            total_delta_reused += delta_reused;
            let columns = run.pairs.len();
            for (ci, scores) in cached_scores {
                per_column[ci].push((step.id(), scores));
            }
            for (ci, scores) in run.pairs {
                per_column[ci].push((step.id(), scores));
            }
            let timing = StepTiming {
                step: step.id(),
                name: step.name().to_owned(),
                nanos: t0.elapsed().as_nanos(),
                columns,
                cache_hits: hits,
                cache_misses: misses,
                cache_inserts: inserts,
                chunks: run.chunks_run,
                parallel_nanos: run.busy_nanos,
                delta_reused,
            };
            if let Some(b) = budget {
                // Charge the larger of wall-clock and summed in-chunk
                // time: column parallelism must not make a step look
                // cheaper than the CPU it burned. In-chunk charges
                // already on the ledger (BestEffort's mid-step
                // re-checks) are netted out so the step's total charge
                // is identical to the one-shot accounting.
                let total = saturating_u64(timing.nanos.max(timing.parallel_nanos));
                b.ledger.charge(total.saturating_sub(run.charged_nanos));
                charged_nanos = charged_nanos.saturating_add(total);
            }
            timings.push(timing);
        }
        BudgetedTrace {
            trace: (per_column, timings),
            skipped,
            charged_nanos,
            delta_reused: total_delta_reused,
        }
    }

    /// Execute one step over its frontier, optionally re-checking an
    /// interrupt ledger **between chunks**.
    ///
    /// With `interrupt == None` (Strict, DropTailSteps, unbudgeted)
    /// every planned chunk runs — identical to the historical one-shot
    /// behavior. With an interrupt ledger (BestEffort), each worker
    /// charges its chunk's busy nanoseconds as it finishes and stops
    /// before its *next* chunk once the ledger is exhausted — the
    /// first chunk of every share always runs, so forward progress is
    /// guaranteed even on a born-exhausted ledger. Results carry their
    /// column index, so a mid-step stop simply leaves the unrun
    /// columns without this step's vote (they abstain or fall back,
    /// never fabricate).
    fn run_frontier<'a>(
        &self,
        step: &dyn AnnotationStep,
        frontier: &[usize],
        ctx_for: &(dyn Fn(usize) -> StepContext<'a> + Sync),
        interrupt: Option<&BudgetLedger>,
    ) -> FrontierRun {
        if frontier.is_empty() {
            return FrontierRun::default();
        }
        let (chunk_size, workers) = self.plan(frontier.len());
        let chunks: Vec<&[usize]> = frontier.chunks(chunk_size).collect();
        // Built once per (step, table) and shared by reference across
        // every chunk, including chunks on other worker threads, so a
        // step's table-level setup is paid once however the frontier
        // is split.
        let score = step.scorer(ctx_for(frontier[0]));
        let run_chunk = |chunk: &[usize]| -> (Vec<StepScores>, u128) {
            let t0 = Instant::now();
            let scores = chunk.iter().map(|&ci| score(ci)).collect();
            (scores, t0.elapsed().as_nanos())
        };
        // One worker's share of the chunks, run sequentially with the
        // mid-step re-check between its own chunks.
        let run_share = |worker_chunks: &[&[usize]]| -> FrontierRun {
            let mut share = FrontierRun::default();
            for (k, chunk) in worker_chunks.iter().enumerate() {
                if k > 0 && interrupt.is_some_and(BudgetLedger::exhausted) {
                    break;
                }
                let (scores, nanos) = run_chunk(chunk);
                share.busy_nanos += nanos;
                share.chunks_run += 1;
                if let Some(ledger) = interrupt {
                    let charge = saturating_u64(nanos);
                    ledger.charge(charge);
                    share.charged_nanos = share.charged_nanos.saturating_add(charge);
                }
                share.pairs.extend(chunk.iter().copied().zip(scores));
            }
            share
        };
        if workers <= 1 {
            // Inline: still chunk by chunk, so a FixedChunk policy
            // exercises the chunked path even with a budget of one.
            return run_share(&chunks);
        }
        // Parallel: contiguous runs of chunks per worker, results
        // rejoined in frontier order — worker scheduling can never
        // change *computed* output, only the wall clock (and, under an
        // interrupt ledger, where each share stops). The first
        // worker's share runs inline on the calling thread (which
        // would otherwise just block in the scope join), so a budget
        // of W occupies exactly W threads instead of W busy + 1
        // parked.
        let per_worker = chunks.len().div_ceil(workers);
        let shares: Vec<&[&[usize]]> = chunks.chunks(per_worker).collect();
        let mut out = FrontierRun::default();
        std::thread::scope(|scope| {
            let run_share = &run_share;
            let handles: Vec<_> = shares[1..]
                .iter()
                .map(|worker_chunks| scope.spawn(move || run_share(worker_chunks)))
                .collect();
            out.merge(run_share(shares[0]));
            for handle in handles {
                out.merge(handle.join().expect("column worker panicked"));
            }
        });
        out
    }
}

/// What one [`CascadeExecutor::run_frontier`] call produced: per-column
/// scores tagged with their column index (a mid-step stop leaves
/// gaps), the chunks actually run, the summed in-chunk busy time, and
/// how much of it was already charged to the interrupt ledger.
#[derive(Debug, Default)]
struct FrontierRun {
    pairs: Vec<(usize, StepScores)>,
    chunks_run: usize,
    busy_nanos: u128,
    charged_nanos: u64,
}

impl FrontierRun {
    /// Fold another share's results in (shares are joined in frontier
    /// order, so `pairs` stays sorted by column position).
    fn merge(&mut self, other: FrontierRun) {
        self.pairs.extend(other.pairs);
        self.chunks_run += other.chunks_run;
        self.busy_nanos += other.busy_nanos;
        self.charged_nanos = self.charged_nanos.saturating_add(other.charged_nanos);
    }
}

/// What [`CascadeExecutor::run_budgeted`] produces: the cascade trace
/// plus the degradation events and the nanoseconds charged against the
/// request ledger for *this* table (the ledger itself may be shared
/// batch-wide).
#[derive(Debug)]
pub struct BudgetedTrace {
    /// Per-column `(step, scores)` traces plus one [`StepTiming`] per
    /// configured step — the same shape [`Cascade::run`] returns.
    pub trace: CascadeTrace,
    /// Steps skipped or truncated to honor the budget, in cascade
    /// order (empty when nothing degraded).
    pub skipped: Vec<SkippedStep>,
    /// Nanoseconds charged against the ledger for this table.
    pub charged_nanos: u64,
    /// Total `(step, column)` pairs answered from the base crawl's
    /// cache on the delta-aware path (the sum of
    /// [`StepTiming::delta_reused`] across steps); 0 without a
    /// [`DeltaContext`].
    pub delta_reused: usize,
}

/// Clamp a `u128` nanosecond count into the ledger's `u64` domain
/// (585 years of nanoseconds — saturation is theoretical).
fn saturating_u64(nanos: u128) -> u64 {
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Best confidence any executed step achieved for one column.
fn best_so_far(steps: &[(StepId, StepScores)]) -> f64 {
    steps
        .iter()
        .map(|(_, s)| s.best_confidence())
        .fold(0.0, f64::max)
}

/// Type of the single highest-confidence candidate across all executed
/// steps for one column (`UNKNOWN` when nothing scored).
fn best_type(steps: &[(StepId, StepScores)]) -> TypeId {
    steps
        .iter()
        .filter_map(|(_, s)| s.best())
        .max_by(|a, b| a.confidence.partial_cmp(&b.confidence).expect("finite"))
        .map_or(TypeId::UNKNOWN, |c| c.ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(policy: ParallelismPolicy, threads: usize) -> CascadeExecutor {
        CascadeExecutor::new(policy, threads)
    }

    #[test]
    fn off_policy_plans_one_sequential_chunk() {
        let e = exec(ParallelismPolicy::Off, 8);
        assert_eq!(e.plan_with(1, false), (1, 1));
        assert_eq!(e.plan_with(64, false), (64, 1));
    }

    #[test]
    fn threshold_policy_splits_wide_frontiers_only() {
        let e = exec(ParallelismPolicy::PerTableThreshold { min_columns: 8 }, 4);
        // Narrow: sequential.
        assert_eq!(e.plan_with(7, false), (7, 1));
        // Wide: split evenly across the budget.
        assert_eq!(e.plan_with(8, false), (2, 4));
        assert_eq!(e.plan_with(10, false), (3, 4));
        // A budget of one can never parallelize.
        let solo = exec(ParallelismPolicy::PerTableThreshold { min_columns: 8 }, 1);
        assert_eq!(solo.plan_with(64, false), (64, 1));
    }

    #[test]
    fn fixed_chunk_policy_chunks_regardless_of_width() {
        let e = exec(ParallelismPolicy::FixedChunk { columns: 3 }, 2);
        assert_eq!(e.plan_with(7, false), (3, 2), "3 chunks on 2 workers");
        assert_eq!(e.plan_with(2, false), (2, 1), "single chunk stays inline");
        // Chunk size clamps into the frontier; zero is treated as one.
        let tiny = exec(ParallelismPolicy::FixedChunk { columns: 0 }, 8);
        assert_eq!(tiny.plan_with(3, false), (1, 3));
        // Budget 1: chunked but inline.
        let solo = exec(ParallelismPolicy::FixedChunk { columns: 2 }, 1);
        assert_eq!(solo.plan_with(6, false), (2, 1));
    }

    #[test]
    fn forced_mode_parallelizes_everything_splittable() {
        // Forced mode overrides Off and single-thread budgets...
        let e = exec(ParallelismPolicy::Off, 1);
        assert_eq!(e.plan_with(4, true), (2, 2));
        let t = exec(ParallelismPolicy::PerTableThreshold { min_columns: 100 }, 1);
        assert_eq!(t.plan_with(10, true), (5, 2));
        // ... respects a larger budget ...
        let wide = exec(ParallelismPolicy::Off, 4);
        assert_eq!(wide.plan_with(8, true), (2, 4));
        // ... and leaves single-column frontiers alone.
        assert_eq!(e.plan_with(1, true), (1, 1));
    }

    #[test]
    fn executor_clamps_zero_threads() {
        let e = CascadeExecutor::new(ParallelismPolicy::Off, 0);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.policy(), ParallelismPolicy::Off);
    }

    #[test]
    fn from_config_reads_policy_and_budget() {
        let config = SigmaTyperConfig {
            parallelism: ParallelismPolicy::FixedChunk { columns: 5 },
            column_threads: 3,
            ..SigmaTyperConfig::default()
        };
        let e = CascadeExecutor::from_config(&config);
        assert_eq!(e.policy(), ParallelismPolicy::FixedChunk { columns: 5 });
        assert_eq!(e.threads(), 3);
        // column_threads == 0 resolves to the machine's parallelism.
        let auto = CascadeExecutor::from_config(&SigmaTyperConfig::default());
        assert!(auto.threads() >= 1);
    }
}
