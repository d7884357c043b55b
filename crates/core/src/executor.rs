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
//! 2. **Chunking.** The frontier is split into chunks, and each of
//!    its columns is scored in one of two ways. A step without a
//!    [`split`](crate::step::AnnotationStep::split) is scored by its
//!    [`run`](crate::step::AnnotationStep::run) on the column's
//!    context. A [split](crate::step::SplitStep) step has its
//!    [`global_half`](crate::step::SplitStep::global_half) and
//!    [`combine`](crate::step::SplitStep::combine) built once for the
//!    table, so its table-level work is paid once however the frontier
//!    is split, and each column is scored as the combine of its global
//!    half. On a cache that owns a [`GlobalPartStore`], a half the
//!    store holds is read instead of computed, and a computed one is
//!    stored. A frontier of at least [`MIN_PARALLEL_COLUMNS`] columns on
//!    a thread budget of two or more splits into chunks of
//!    `⌈frontier / min(threads, frontier)⌉` columns, at most `threads`
//!    of them; every other frontier is one chunk. Sequential execution
//!    is the single-chunk special case, so both paths score a column
//!    the same way.
//! 3. **Workers.** Each chunk gets a worker of its own: the first runs
//!    on the calling thread, the rest on [`std::thread::scope`]
//!    threads, so a budget of `W` occupies at most `W` threads. Steps
//!    are deterministic and read-only and every chunk's results are
//!    written back by column index, so scheduling can never change the
//!    output — the golden suite (`tests/golden_cascade.rs`) proves
//!    column-parallel execution bit-identical to sequential for fresh,
//!    ablated, and adaptation-heavy customers, cached and uncached.
//!
//! Per step, the executor reports [`StepTiming`] telemetry including
//! the chunk count and the summed in-chunk nanoseconds
//! ([`StepTiming::parallel_nanos`]), the cost the
//! [`CostModel`](crate::cost::CostModel) averages to budget requests
//! and to reorder the cascade.

use crate::cache::{
    column_content_hashes, fingerprints_from_col_hashes, header_fingerprints, CacheContext,
    CacheKey, ColumnFingerprint, GlobalPartKeys, GlobalPartStore,
};
use crate::cascade::{Cascade, CascadeTrace};
use crate::config::SigmaTyperConfig;
use crate::global::GlobalModel;
use crate::local::LocalModel;
use crate::prediction::{StepId, StepScores, StepTiming};
use crate::request::{BudgetContext, DegradationPolicy, SkipReason, SkippedStep};
use crate::step::{CacheScope, SplitStep, StepContext};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tu_table::Table;

/// The narrowest step frontier the executor splits across threads.
/// Narrower frontiers — most tables once the header step has resolved
/// their clear columns — run inline as one chunk, with no spawn.
pub const MIN_PARALLEL_COLUMNS: usize = 12;

/// Inputs for the delta-aware recrawl path of
/// [`CascadeExecutor::run_budgeted`]: precomputed column content hashes
/// of the new crawl, fingerprints of the base crawl, and how far each
/// column's signal moved. The request core
/// ([`SigmaTyper::annotate_request_shared_with_base`](crate::system::SigmaTyper::annotate_request_shared_with_base))
/// computes both in one pass over the new crawl's cells, plus a full
/// pass over each base column that is not a prefix of its new column.
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
#[derive(Debug, Clone)]
pub struct DeltaContext {
    /// Content hashes of the new crawl's columns — must be
    /// bit-identical to what
    /// [`ColumnHashState::content_hash`](crate::cache::ColumnHashState::content_hash)
    /// computes for each, so exact cache hits keep working unchanged.
    /// The executor derives the new crawl's fingerprints from them, and
    /// the keys of split steps' global halves hash them (see
    /// [`SplitStep`]).
    pub content_hashes: Vec<[u64; 2]>,
    /// Fingerprints of the base crawl's columns, for reuse lookups —
    /// what [`column_fingerprints`](crate::cache::column_fingerprints)
    /// computes for the base.
    pub base_fingerprints: Vec<ColumnFingerprint>,
    /// Per-column [`movement`](tu_table::ColumnDelta::movement), in
    /// column order of the new crawl.
    pub movements: Vec<f64>,
    /// Base sensitivity threshold; `0.0` disables reuse entirely
    /// (bit-identical to a from-scratch run).
    pub sensitivity: f64,
}

/// Runs a [`Cascade`] over tables: frontier tracking, cache consults,
/// and column-parallel step execution for wide frontiers.
///
/// The executor is cheap to construct — the
/// [`AnnotationService`](crate::service::AnnotationService) builds one
/// per worker with that worker's share of the thread budget, and
/// [`SigmaTyper::annotate`](crate::system::SigmaTyper::annotate)
/// builds one per call from the configuration.
#[derive(Debug, Clone, Copy)]
pub struct CascadeExecutor {
    threads: usize,
}

impl CascadeExecutor {
    /// An executor with a worker budget for intra-table column chunks
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        CascadeExecutor {
            threads: threads.max(1),
        }
    }

    /// An executor on the [`SigmaTyperConfig::column_threads`] budget
    /// (`0` = the machine's available parallelism, probed once per
    /// process —
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
        CascadeExecutor::new(threads)
    }

    /// The chunk size for a frontier of `frontier` columns (at least
    /// 1): the whole frontier unless it is at least
    /// [`MIN_PARALLEL_COLUMNS`] wide and the budget has two or more
    /// threads, in which case it is `⌈frontier / min(threads,
    /// frontier)⌉`, at most `threads` chunks, one per worker.
    fn chunk_size(&self, frontier: usize) -> usize {
        debug_assert!(frontier > 0, "empty frontiers are not planned");
        if frontier >= MIN_PARALLEL_COLUMNS && self.threads >= 2 {
            frontier.div_ceil(self.threads.min(frontier))
        } else {
            frontier
        }
    }

    /// Run every configured step of `cascade` over every column of
    /// `table`: the frontier loop described in the [module
    /// docs](self). Returns the per-column `(step, scores)` traces in
    /// execution order plus one [`StepTiming`] per configured step.
    ///
    /// Under an optional [`BudgetContext`], every executed step charges
    /// the ledger once, after it ran, with the larger of its wall-clock
    /// and summed in-chunk nanoseconds; when the policy allows
    /// degradation, steps are dropped or truncated *before* they run,
    /// as described in [`crate::request`] — nothing stops a step once
    /// its frontier started. With `budget == None` (or a
    /// [`Strict`](crate::request::DegradationPolicy::Strict) policy)
    /// every step runs, which is what keeps plain `annotate` calls
    /// bit-identical to default requests.
    ///
    /// An optional [`DeltaContext`] engages the delta-aware recrawl
    /// path (see its docs): precomputed content hashes replace the
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
        delta: Option<&DeltaContext>,
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
                && d.content_hashes.len() == n
                && d.base_fingerprints.len() == n
                && d.movements.len() == n
        });
        // One pass over the table's cells, shared by every step — or,
        // on the delta path, the content hashes the caller computed
        // with the base's (`recrawl_fingerprints`: each new cell hashed
        // once, bit-identical to this pass). Column keys and the keys
        // of global halves both derive from them.
        let content_hashes: Option<Cow<'_, [[u64; 2]]>> = cache.map(|_| match delta {
            Some(d) => Cow::Borrowed(d.content_hashes.as_slice()),
            None => Cow::Owned(column_content_hashes(table)),
        });
        let fingerprints: Option<Vec<ColumnFingerprint>> =
            cache.zip(content_hashes.as_deref()).map(|(cc, hashes)| {
                fingerprints_from_col_hashes(table, &cascade.step_ids(), config, cc.epoch, hashes)
            });
        // Keys of header-scoped steps: one short hash per header, of
        // the header text and its `Wg` state; no epoch.
        let header_keys: Option<Vec<ColumnFingerprint>> =
            cache.map(|_| header_fingerprints(table, &normalized, global, local, config));
        // Split steps' global halves: the cache's store, and their keys
        // over the same content hashes.
        let parts = cache
            .zip(content_hashes.as_deref())
            .and_then(|(cc, hashes)| {
                let store = cc.cache.global_parts()?;
                Some((store, GlobalPartKeys::new(table, hashes, global, config)))
            });
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
            // Each column's best confidence from the steps executed so
            // far (recomputed once per step, so every step sees the
            // freshest cross-column context).
            let best: Vec<f64> = per_column.iter().map(|steps| best_so_far(steps)).collect();
            let ctx_for = |ci: usize| StepContext {
                table,
                col_idx: ci,
                normalized_headers: &normalized,
                best_so_far: best[ci],
                global,
                local,
                config,
            };

            // Degradation gate 1: an exhausted ledger drops the whole
            // remaining tail — the step is not run, not cached, not
            // consulted; only its would-be frontier is counted for the
            // report. Dropped steps keep their timing record (stable
            // one-record-per-step schema) with zero columns/chunks.
            if let Some(b) = degrade {
                if b.ledger.exhausted() {
                    let pending = (0..n).filter(|&ci| !step.skip(&ctx_for(ci))).count();
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
                        global_hits: 0,
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
                    let estimate = b.cost.estimate(step.id());
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
            // column-parallel: a step without a split by `run`, a split
            // step by the combine of each column's global half, read
            // from the global-part store when it holds the half.
            let global_hits = AtomicUsize::new(0);
            let run = match (frontier.first(), step.split()) {
                (None, _) => FrontierRun::default(),
                (Some(_), None) => self.run_frontier(&frontier, &|ci| step.run(&ctx_for(ci))),
                (Some(&first), Some(split)) => {
                    // Built once per (step, table) and shared by
                    // reference across every chunk, including chunks
                    // on other worker threads, so a step's table-level
                    // work is paid once however the frontier is split.
                    let score = split_scorer(
                        split,
                        ctx_for(first),
                        step.id(),
                        parts.as_ref(),
                        &global_hits,
                    );
                    self.run_frontier(&frontier, &score)
                }
            };

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
                // The tag names the epoch that retires the entry: a
                // column key hashes the epoch, a header key none, so
                // compaction must keep header entries across epochs.
                let epoch = match scope {
                    CacheScope::Column => Some(cc.epoch),
                    CacheScope::Header => None,
                };
                for (&ci, scores) in frontier.iter().zip(&run.scores) {
                    cc.cache.insert(
                        CacheKey::for_step(keys[ci], step.id()),
                        scores.clone(),
                        epoch,
                    );
                    inserts += 1;
                }
            }
            tainted |= delta_reused > 0;
            total_delta_reused += delta_reused;
            let columns = frontier.len();
            for (ci, scores) in cached_scores {
                per_column[ci].push((step.id(), scores));
            }
            for (ci, scores) in frontier.into_iter().zip(run.scores) {
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
                chunks: run.chunks,
                parallel_nanos: run.busy_nanos,
                delta_reused,
                global_hits: global_hits.into_inner(),
            };
            if let Some(b) = budget {
                // Charge the larger of wall-clock and summed in-chunk
                // time: column parallelism must not make a step look
                // cheaper than the CPU it burned.
                let charge = saturating_u64(timing.nanos.max(timing.parallel_nanos));
                b.ledger.charge(charge);
                charged_nanos = charged_nanos.saturating_add(charge);
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

    /// Score a non-empty frontier with `score`, in the chunks
    /// [`chunk_size`](Self::chunk_size) plans, one per worker: the first
    /// runs on the calling thread (which would otherwise just block in
    /// the scope join), so a single chunk spawns nothing. Every column
    /// of the frontier is scored.
    fn run_frontier(
        &self,
        frontier: &[usize],
        score: &(dyn Fn(usize) -> StepScores + Sync),
    ) -> FrontierRun {
        let mut run = FrontierRun::default();
        let run_chunk = |chunk: &[usize]| -> (Vec<StepScores>, u128) {
            let t0 = Instant::now();
            let scores = chunk.iter().map(|&ci| score(ci)).collect();
            (scores, t0.elapsed().as_nanos())
        };
        let mut absorb = |(scores, nanos): (Vec<StepScores>, u128)| {
            run.scores.extend(scores);
            run.chunks += 1;
            run.busy_nanos += nanos;
        };
        let mut chunks = frontier.chunks(self.chunk_size(frontier.len()));
        let first = chunks.next().expect("a non-empty frontier has a chunk");
        // Results are rejoined in frontier order, so worker scheduling
        // can never change computed output, only the wall clock.
        std::thread::scope(|scope| {
            let run_chunk = &run_chunk;
            let handles: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || run_chunk(chunk)))
                .collect();
            absorb(run_chunk(first));
            for handle in handles {
                absorb(handle.join().expect("column worker panicked"));
            }
        });
        run
    }
}

/// A split step's scores for one table, by column index: the combine
/// of the column's global half. With a store, a half the store holds
/// under its key is read (counted in `global_hits`) and any other is
/// computed and stored. Without one (no cache, a bypassed one, or a
/// cache that owns no store), every half is computed. Equal to the
/// step's `run` on each column by the [`SplitStep`] contract.
fn split_scorer<'a>(
    split: &'a dyn SplitStep,
    ctx: StepContext<'a>,
    step: StepId,
    parts: Option<&'a (&'a GlobalPartStore, GlobalPartKeys<'a>)>,
    global_hits: &'a AtomicUsize,
) -> impl Fn(usize) -> StepScores + Sync + 'a {
    let global = split.global_half(ctx);
    let combine = split.combine(ctx);
    let neighbor_headers = split.reads_neighbor_headers();
    move |ci| {
        let Some((store, keys)) = parts else {
            return combine(ci, &global(ci));
        };
        let key = keys.key(ci, step, neighbor_headers);
        let part = match store.get(&key) {
            Some(part) => {
                global_hits.fetch_add(1, Ordering::Relaxed);
                part
            }
            None => {
                let part = Arc::new(global(ci));
                store.insert(key, Arc::clone(&part));
                part
            }
        };
        combine(ci, &part)
    }
}

/// What one [`CascadeExecutor::run_frontier`] call produced: the
/// scores of every frontier column in frontier order, the chunks run,
/// and the summed in-chunk busy time.
#[derive(Debug, Default)]
struct FrontierRun {
    scores: Vec<StepScores>,
    chunks: usize,
    busy_nanos: u128,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `(chunk size, chunk count)` for a frontier of `frontier` columns
    /// on a budget of `threads`.
    fn plan(threads: usize, frontier: usize) -> (usize, usize) {
        let size = CascadeExecutor::new(threads).chunk_size(frontier);
        (size, frontier.div_ceil(size))
    }

    #[test]
    fn narrow_frontiers_and_one_thread_budgets_run_as_one_chunk() {
        for threads in [1, 2, 4, 64] {
            assert_eq!(plan(threads, 1), (1, 1));
            assert_eq!(plan(threads, 11), (11, 1), "threads={threads}");
        }
        assert_eq!(plan(1, 12), (12, 1));
        assert_eq!(plan(1, 64), (64, 1));
    }

    #[test]
    fn wide_frontiers_split_one_chunk_per_worker() {
        assert_eq!(MIN_PARALLEL_COLUMNS, 12);
        assert_eq!(plan(2, 12), (6, 2));
        assert_eq!(plan(3, 12), (4, 3));
        assert_eq!(plan(4, 12), (3, 4));
        assert_eq!(plan(4, 13), (4, 4));
        assert_eq!(plan(8, 32), (4, 8));
        // Never more chunks than the budget, or than columns.
        assert_eq!(plan(5, 12), (3, 4));
        assert_eq!(plan(64, 12), (1, 12));
    }

    #[test]
    fn executor_clamps_zero_threads() {
        assert_eq!(plan(0, 64), (64, 1));
    }

    /// The config's `column_threads` is the budget the one splitting
    /// rule plans with.
    #[test]
    fn from_config_reads_policy_and_budget() {
        let config = SigmaTyperConfig {
            column_threads: 3,
            ..SigmaTyperConfig::default()
        };
        assert_eq!(CascadeExecutor::from_config(&config).chunk_size(12), 4);
        // column_threads == 0 resolves to the machine's parallelism.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let auto = CascadeExecutor::from_config(&SigmaTyperConfig::default());
        assert_eq!(auto.threads, cores);
    }
}
