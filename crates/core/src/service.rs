//! Batch annotation service: the two-level serving front-end.
//!
//! The paper's deployment story (§4, Figure 2) is one shared global
//! model serving many customers; production traffic arrives as
//! *batches* of tables (a data-catalog crawl, a warehouse sync). The
//! [`AnnotationService`] turns one customer's [`SigmaTyper`] into a
//! batch endpoint with a **two-level scheduler** over one shared
//! worker budget:
//!
//! * **Level 1 — tables.** Up to `budget.min(batch)` table workers
//!   pull table indices from a shared queue, so a straggler (one huge
//!   table) never blocks the remaining tables behind a pre-assigned
//!   shard: idle workers keep draining the queue.
//! * **Level 2 — columns.** Each table worker carries its share of
//!   the budget (`budget / workers`, with the division remainder
//!   handed out one thread each to the first workers so nothing is
//!   floored away) into a [`CascadeExecutor`], which splits any step
//!   frontier of at least
//!   [`MIN_PARALLEL_COLUMNS`](crate::executor::MIN_PARALLEL_COLUMNS)
//!   columns into one column chunk per thread of that share. A batch
//!   of one huge table therefore uses the *whole* budget on columns
//!   instead of pinning a single worker while the rest idle.
//!
//! Inference is read-only (`SigmaTyper::annotate` takes `&self`) and
//! deterministic, so scheduling changes *nothing* about the output:
//! the annotations are identical to a sequential loop, column for
//! column, candidate for candidate — whatever cascade the customer
//! configured. Only the wall-clock step timings embedded in
//! [`TableAnnotation::timings`] are measurement noise.
//!
//! Workers are `std::thread::scope` threads — no runtime, no extra
//! dependencies — which keeps the service synchronous: the call
//! returns when the whole batch is done.

use crate::cache::{CacheStats, ShardedLruCache, StepCache};
use crate::config::SigmaTyperConfig;
use crate::executor::CascadeExecutor;
use crate::global::GlobalModel;
use crate::prediction::TableAnnotation;
use crate::request::{AnnotationOutcome, BudgetLedger, RequestOptions};
use crate::system::SigmaTyper;
use crate::tenant::{TrafficShaper, ANONYMOUS_TENANT};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tu_table::Table;

/// The two production traffic classes of the serving front-end
/// (ROADMAP item 5's two-lane scheduling): latency-sensitive
/// interactive requests and throughput-oriented background crawls.
/// Under load the **crawl lane degrades first** — it gets the tighter
/// budget window and the earlier admission cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficLane {
    /// A user is waiting on the response: admitted until the queue is
    /// genuinely full, budgeted generously.
    Interactive,
    /// Background/batch traffic: the first to be shed or degraded when
    /// the service saturates.
    Crawl,
}

impl TrafficLane {
    /// Both lanes, in metrics-reporting order.
    pub const ALL: [TrafficLane; 2] = [TrafficLane::Interactive, TrafficLane::Crawl];

    /// Parse a lane label (e.g. from an HTTP header), case-insensitive.
    /// Unknown labels are `None` — callers choose their own default.
    #[must_use]
    pub fn from_label(label: &str) -> Option<TrafficLane> {
        if label.eq_ignore_ascii_case("interactive") {
            Some(TrafficLane::Interactive)
        } else if label.eq_ignore_ascii_case("crawl") {
            Some(TrafficLane::Crawl)
        } else {
            None
        }
    }

    /// The canonical lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TrafficLane::Interactive => "interactive",
            TrafficLane::Crawl => "crawl",
        }
    }
}

/// One traffic lane's **shared, refilling** budget: a
/// [`BudgetLedger`] per wall-clock window, rolled over when the window
/// elapses. Every request on the lane charges the *same* ledger — the
/// lane as a whole has `window_budget` nanoseconds of step work per
/// window, and when the lane's traffic collectively exhausts it,
/// requests degrade per their [`DegradationPolicy`] until the next
/// window opens. An unbudgeted lane (`window_budget == None`) never
/// rolls and never degrades.
///
/// The ledger budgets a window and keeps no books: a lane's cumulative
/// spend, like its served and shed counts, is the sum over its tenants
/// in the [`TenantRegistry`](crate::tenant::TenantRegistry), which
/// [`TrafficShaper::settle`](crate::tenant::TrafficShaper::settle)
/// charges once per settled request.
///
/// [`DegradationPolicy`]: crate::request::DegradationPolicy
#[derive(Debug)]
pub struct LaneLedger {
    lane: TrafficLane,
    window_budget: Option<u64>,
    window: Duration,
    inner: Mutex<LaneWindow>,
}

#[derive(Debug)]
struct LaneWindow {
    ledger: Arc<BudgetLedger>,
    opened: Instant,
    /// Monotone window counter: bumped on every roll. Consumers (the
    /// tenant registry's deficit replenishment) use the sequence to
    /// detect rolls without holding the lock between observations.
    seq: u64,
}

impl LaneLedger {
    /// A lane ledger granting `window_budget` nanoseconds of step work
    /// per `window`. `None` means unbudgeted (the ledger is unbounded
    /// and never rolls).
    #[must_use]
    pub fn new(lane: TrafficLane, window_budget: Option<u64>, window: Duration) -> Self {
        LaneLedger {
            lane,
            window_budget,
            window: window.max(Duration::from_millis(1)),
            inner: Mutex::new(LaneWindow {
                ledger: Arc::new(BudgetLedger::from_budget(window_budget)),
                opened: Instant::now(),
                seq: 0,
            }),
        }
    }

    /// Which lane this ledger budgets.
    #[must_use]
    pub fn lane(&self) -> TrafficLane {
        self.lane
    }

    /// The per-window budget (`None` = unbudgeted).
    #[must_use]
    pub fn window_budget(&self) -> Option<u64> {
        self.window_budget
    }

    /// The window length.
    #[must_use]
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The live window's shared ledger, rolling the window first if it
    /// has elapsed. All requests admitted in one window charge the
    /// same returned ledger.
    #[must_use]
    pub fn ledger(&self) -> Arc<BudgetLedger> {
        self.ledger_with_seq().0
    }

    /// The live window's shared ledger plus its window sequence number
    /// (0 for the first window, bumped on every roll). The sequence
    /// lets per-window consumers — the tenant registry's deficit
    /// replenishment — detect exactly how many windows elapsed since
    /// they last looked.
    #[must_use]
    pub fn ledger_with_seq(&self) -> (Arc<BudgetLedger>, u64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.window_budget.is_some() && inner.opened.elapsed() >= self.window {
            // Credit every fully-elapsed window so a long-idle lane
            // replenishes per-window consumers the right number of
            // times, not just once.
            let elapsed = inner.opened.elapsed().as_nanos();
            let window = self.window.as_nanos().max(1);
            let rolls = u64::try_from(elapsed / window).unwrap_or(u64::MAX);
            inner.ledger = Arc::new(BudgetLedger::from_budget(self.window_budget));
            inner.opened = Instant::now();
            inner.seq = inner.seq.saturating_add(rolls.max(1));
        }
        (Arc::clone(&inner.ledger), inner.seq)
    }

    /// Wall-clock time until the live window refills (`None` =
    /// unbudgeted, never refills). Zero when the window is already
    /// overdue — the next [`ledger`](LaneLedger::ledger) call rolls it.
    #[must_use]
    pub fn window_remaining(&self) -> Option<Duration> {
        self.window_budget?;
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(self.window.saturating_sub(inner.opened.elapsed()))
    }

    /// Nanoseconds left in the live window (`None` = unbudgeted).
    #[must_use]
    pub fn remaining_nanos(&self) -> Option<u64> {
        self.ledger().remaining()
    }
}

/// Why a [`BoundedQueue`] push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRejection {
    /// The queue is at capacity — the caller should shed load
    /// (HTTP 503 + `Retry-After`), **never** buffer unboundedly.
    Full,
    /// The queue is closed (service shutting down) — no new work is
    /// admitted.
    Closed,
}

/// A bounded MPMC work queue with explicit backpressure and a drain
/// protocol — the serving front-end's admission point.
///
/// * [`push`](BoundedQueue::push) never blocks and never buffers past
///   `capacity`: a full queue is the caller's signal to shed.
/// * [`pop`](BoundedQueue::pop) blocks until work arrives, and returns
///   `None` only once the queue is **closed and drained** — so worker
///   threads naturally finish every admitted job before exiting, which
///   is exactly the graceful-shutdown contract (no accepted request is
///   dropped).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (zero is legal: every
    /// push is refused — useful for forcing the shed path in tests).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity,
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (admitted, not yet popped).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .items
            .len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: `Err(Full)` at capacity, `Err(Closed)`
    /// after [`close`](BoundedQueue::close). The rejected item comes
    /// back to the caller either way.
    pub fn push(&self, item: T) -> Result<(), (T, QueueRejection)> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.closed {
            return Err((item, QueueRejection::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, QueueRejection::Full));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking removal: waits for an item, returns `None` once the
    /// queue is closed **and** drained.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Close the queue: every subsequent push is refused, and blocked
    /// poppers drain the remaining items then observe `None`.
    pub fn close(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.available.notify_all();
    }
}

/// A thread-sharded batch annotation front-end for one customer.
///
/// ```
/// use sigmatyper::{train_global, AnnotationService, SigmaTyperConfig, TrainingConfig};
/// use tu_corpus::{generate_corpus, CorpusConfig};
/// use tu_ontology::builtin_ontology;
///
/// let ontology = builtin_ontology();
/// let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(7, 20));
/// let global = std::sync::Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
/// let service = AnnotationService::new(global, SigmaTyperConfig::default()).with_threads(4);
/// let tables: Vec<_> = corpus.tables.iter().map(|at| at.table.clone()).collect();
/// let annotations = service.annotate_batch(&tables);
/// assert_eq!(annotations.len(), tables.len());
/// ```
#[derive(Debug, Clone)]
pub struct AnnotationService {
    typer: SigmaTyper,
    threads: usize,
}

impl AnnotationService {
    /// Build a service for a fresh customer over a shared global model.
    ///
    /// The worker count defaults to the machine's available
    /// parallelism (at least 1).
    #[must_use]
    pub fn new(global: Arc<GlobalModel>, config: SigmaTyperConfig) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        AnnotationService {
            typer: SigmaTyper::new(global, config),
            threads,
        }
    }

    /// Wrap an existing customer instance (keeps its local model and
    /// any adaptation it has already accumulated).
    #[must_use]
    pub fn for_customer(typer: SigmaTyper) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        AnnotationService { typer, threads }
    }

    /// Set the worker-thread count.
    ///
    /// Zero workers is a configuration bug: there is no meaningful
    /// "run a batch on no threads". Debug builds assert on it to catch
    /// the bug at the call site; release builds **clamp to 1** and
    /// serve the batch sequentially instead of silently misbehaving
    /// (panicking in production over a config typo would be worse than
    /// degraded parallelism). The clamp is covered by an explicit
    /// release-mode unit test.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        debug_assert!(threads > 0, "with_threads: worker count must be at least 1");
        self.threads = threads.max(1);
        self
    }

    /// Attach a step cache shared by every worker thread (see
    /// [`crate::cache`]): repeat crawls of unchanged tables are served
    /// from memo'd step results, and adaptation through
    /// [`AnnotationService::typer_mut`] invalidates stale entries via
    /// the epoch. Sharing one `Arc` across services pools their
    /// capacity.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<dyn StepCache>) -> Self {
        self.typer.set_step_cache(Some(cache));
        self
    }

    /// Attach the default step-cache backend — a [`ShardedLruCache`]
    /// bounded at `capacity` entries.
    #[must_use]
    pub fn cached(self, capacity: usize) -> Self {
        self.with_cache(Arc::new(ShardedLruCache::new(capacity)))
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The customer instance behind this service.
    #[must_use]
    pub fn typer(&self) -> &SigmaTyper {
        &self.typer
    }

    /// Mutable access to the customer instance, for feedback and
    /// configuration between batches. Adaptation is a customer-local,
    /// single-writer operation in the paper's design, so it happens
    /// between batches, never concurrently with one.
    pub fn typer_mut(&mut self) -> &mut SigmaTyper {
        &mut self.typer
    }

    /// Annotate a batch of tables under the two-level scheduler (see
    /// the [module docs](self)): table workers pull from a shared
    /// queue, each carrying its share of the worker budget for
    /// intra-table column chunks. Results are in input order and
    /// identical to calling [`SigmaTyper::annotate`] in a loop —
    /// whatever cascade the customer instance is configured with
    /// (standard, reordered, or carrying custom registered steps) runs
    /// unchanged on every worker.
    ///
    /// Output order matches input order exactly. Degenerate shapes
    /// stay graceful: an empty batch returns immediately, a
    /// single-worker budget runs inline with no spawn at all, and a
    /// batch smaller than the budget hands the leftover threads to the
    /// column level instead of idling them.
    ///
    /// Every table runs as a default request (`Strict`, unbounded), so
    /// the whole batch charges one unbounded ledger, which no table can
    /// exhaust.
    #[must_use]
    pub fn annotate_batch(&self, tables: &[Table]) -> Vec<TableAnnotation> {
        self.run_batch(
            tables,
            &[],
            &RequestOptions::default(),
            &BudgetLedger::unbounded(),
        )
        .into_iter()
        .map(AnnotationOutcome::into_annotation)
        .collect()
    }

    /// Request-level batch annotation: the same two-level scheduler,
    /// but under one **shared** [`BudgetLedger`] resolved from
    /// `options` — the whole batch gets one budget, charged by every
    /// worker as it annotates. When the ledger runs dry, an overloaded
    /// batch *degrades* per the [`DegradationPolicy`] (remaining
    /// tables shed their expensive tail steps, or everything past the
    /// exhaustion point under a fully spent ledger) instead of
    /// queueing — the paper's interactive-latency stance. Each
    /// returned [`AnnotationOutcome`] carries its own
    /// [`DegradationReport`] (per-table spend, batch-wide remainder),
    /// in input order.
    ///
    /// `bases` is positional: `bases[i]` is the previously annotated
    /// version of `tables[i]`, turning that table into an
    /// **incremental recrawl** (see
    /// [`SigmaTyper::annotate_request_shared_with_base`]) — per-step
    /// reuse of the base crawl's cached scores for columns whose delta
    /// movement stays under the sensitivity threshold (`options`'
    /// `delta_sensitivity`, defaulting to the customer config). A
    /// table with no slot in `bases`, or a `None` slot, has no base,
    /// so callers without bases pass `&[]`. At sensitivity 0 the batch
    /// is bit-identical to one without bases.
    ///
    /// With default options (`Strict`, unbounded) and no bases every
    /// annotation is bit-identical to
    /// [`AnnotationService::annotate_batch`]. The scheduler owns the
    /// thread split: each table's executor splits a step frontier of at
    /// least
    /// [`MIN_PARALLEL_COLUMNS`](crate::executor::MIN_PARALLEL_COLUMNS)
    /// columns over its worker's share of the budget.
    ///
    /// [`DegradationPolicy`]: crate::request::DegradationPolicy
    /// [`DegradationReport`]: crate::request::DegradationReport
    #[must_use]
    pub fn annotate_batch_request(
        &self,
        tables: &[Table],
        bases: &[Option<&Table>],
        options: &RequestOptions,
    ) -> Vec<AnnotationOutcome> {
        let (budget, _) = options.resolved();
        self.run_batch(tables, bases, options, &BudgetLedger::from_budget(budget))
    }

    /// Traffic-shaped batch annotation: the batch runs as one request
    /// through [`TrafficShaper::serve`] — its budget granted from the
    /// lane window remainder, the tenant fairness cap and the explicit
    /// request budget, its spend and counts settled into the tenant's
    /// books (and a private grant's spend into the lane window). The
    /// tenant is taken from `options.tenant`,
    /// defaulting to the shaper's [`ANONYMOUS_TENANT`] account; every
    /// returned [`DegradationReport`] echoes it. `bases` follows
    /// [`annotate_batch_request`](AnnotationService::annotate_batch_request).
    ///
    /// When shaping imposes nothing — unbudgeted request, tenant in
    /// quota with the lane window as the tighter bound — the batch
    /// charges the lane's shared window ledger exactly as an unshapen
    /// request would, so results are bit-identical to the unshapen
    /// path. Shaping changes scheduling and shedding, never results.
    ///
    /// [`DegradationReport`]: crate::request::DegradationReport
    #[must_use]
    pub fn annotate_batch_request_shaped(
        &self,
        tables: &[Table],
        bases: &[Option<&Table>],
        options: &RequestOptions,
        shaper: &TrafficShaper,
        lane: TrafficLane,
    ) -> Vec<AnnotationOutcome> {
        let tenant = options
            .tenant
            .unwrap_or_else(|| shaper.registry().intern(ANONYMOUS_TENANT));
        let mut options = *options;
        options.tenant = Some(tenant);
        let (budget, _) = options.resolved();
        shaper.serve(lane, tenant, budget, |ledger| {
            self.run_batch(tables, bases, &options, ledger)
        })
    }

    /// Aggregate counters of the attached step cache (`None` when the
    /// service is uncached): hits, misses, inserts, evictions, and the
    /// current entry count — what an operator needs to size the LRU,
    /// without scraping per-table [`StepTiming`] records. Snapshot a
    /// baseline before a batch and diff with [`CacheStats::since`] for
    /// per-batch totals.
    ///
    /// [`StepTiming`]: crate::prediction::StepTiming
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.typer.step_cache().map(|cache| cache.stats())
    }

    /// Flush the attached step cache's durable state (a no-op for
    /// purely in-memory caches and uncached services): the
    /// graceful-shutdown hook — after this returns, a tiered cache's
    /// disk segment is synced and a warm restart serves hits.
    pub fn flush(&self) -> std::io::Result<()> {
        match self.typer.step_cache() {
            Some(cache) => cache.flush(),
            None => Ok(()),
        }
    }

    /// The shared-ledger core of the request-level batch entry points:
    /// run the batch charging `ledger`, every table through the one
    /// request core with its positional base (if any).
    fn run_batch(
        &self,
        tables: &[Table],
        bases: &[Option<&Table>],
        options: &RequestOptions,
        ledger: &BudgetLedger,
    ) -> Vec<AnnotationOutcome> {
        two_level_run(tables.len(), self.threads, &|i, executor| {
            let base = bases.get(i).copied().flatten();
            self.typer
                .annotate_request_shared_with_base(&tables[i], base, executor, options, ledger)
        })
    }
}

/// The shared scheduling core: `budget` worker threads split across
/// table workers (level 1, dynamic queue) and per-worker column
/// budgets (level 2, handed to the [`CascadeExecutor`]), annotating
/// tables `0..n` through `annotate_one`, output in input order.
fn two_level_run(
    n: usize,
    budget: usize,
    annotate_one: &(dyn Fn(usize, &CascadeExecutor) -> AnnotationOutcome + Sync),
) -> Vec<AnnotationOutcome> {
    if n == 0 {
        return Vec::new();
    }
    let budget = budget.max(1);
    let outer = budget.min(n);
    // Level 2 budgets: the threads level 1 leaves on the table — a
    // 1-table batch on an 8-thread budget puts all 8 on columns. The
    // division remainder is handed out one thread each to the first
    // workers instead of being floored away, so the whole budget is
    // always accounted for (8 threads over 5 tables: three workers
    // get a 2-thread column budget, two get 1).
    let executor_for = |worker: usize| CascadeExecutor::new(column_budget(budget, outer, worker));
    if outer == 1 {
        let executor = executor_for(0);
        return (0..n).map(|i| annotate_one(i, &executor)).collect();
    }
    // Level 1: a dynamic queue instead of pre-cut shards, so one slow
    // (huge) table delays only the worker that holds it — the others
    // keep draining the queue. Each result lands in its input-index
    // slot, so output order is position-stable by construction.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<AnnotationOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        // `move` closures below take the (Copy) executor by value and
        // these shared handles by reference.
        let (next, slots) = (&next, &slots);
        for worker in 0..outer {
            let executor = executor_for(worker);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let ann = annotate_one(i, &executor);
                assert!(
                    slots[i].set(ann).is_ok(),
                    "queue indices are unique; every slot is filled exactly once"
                );
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// The level-2 share of one table worker: `budget / outer`, with the
/// division remainder handed out one thread each to the first workers
/// — the shares always sum to exactly `budget`, so no thread of the
/// budget is floored away.
fn column_budget(budget: usize, outer: usize, worker: usize) -> usize {
    let base = budget / outer;
    (base + usize::from(worker < budget % outer)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainingConfig;
    use crate::global::train_global;
    use std::sync::OnceLock;
    use tu_corpus::{generate_corpus, CorpusConfig};
    use tu_ontology::builtin_ontology;
    use tu_table::Column;

    fn global() -> Arc<GlobalModel> {
        static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let ontology = builtin_ontology();
                let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0x5E, 40));
                Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
            })
            .clone()
    }

    /// A table of `cols` opaque-headed free-text columns: no column
    /// resolves at the header step, so every step's frontier is as wide
    /// as the table.
    fn opaque_table(name: &str, cols: usize) -> Table {
        let columns: Vec<Column> = (0..cols)
            .map(|i| {
                Column::from_raw(
                    format!("xq_{name}_{i}"),
                    &["lorem ipsum", "dolor sit", "amet consect"],
                )
            })
            .collect();
        Table::new(name, columns).unwrap()
    }

    /// A service that never splits a frontier: one thread in all.
    fn sequential_service() -> AnnotationService {
        AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(1)
    }

    fn batch(seed: u64, n: usize) -> Vec<Table> {
        let o = builtin_ontology();
        generate_corpus(&o, &CorpusConfig::database_like(seed, n))
            .tables
            .into_iter()
            .map(|at| at.table)
            .collect()
    }

    /// Everything except the wall-clock `step_nanos` must match bit
    /// for bit: same predictions, same confidences, same candidates,
    /// same cascade trace.
    fn assert_identical(a: &TableAnnotation, b: &TableAnnotation) {
        assert_eq!(a.columns.len(), b.columns.len());
        for (ca, cb) in a.columns.iter().zip(&b.columns) {
            assert_eq!(ca.col_idx, cb.col_idx);
            assert_eq!(ca.predicted, cb.predicted);
            assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
            assert_eq!(ca.top_k, cb.top_k);
            assert_eq!(ca.steps_run, cb.steps_run);
            assert_eq!(ca.step_scores.len(), cb.step_scores.len());
            for (sa, sb) in ca.step_scores.iter().zip(&cb.step_scores) {
                assert_eq!(sa.candidates, sb.candidates);
            }
        }
    }

    /// `table` after a recrawl that appended `extra` rows (recycled
    /// from the head of each column, so the appends look like more of
    /// the same data).
    fn recrawled(table: &Table, extra: usize) -> Table {
        let columns = table
            .columns()
            .iter()
            .map(|c| {
                let mut values = c.values.clone();
                for i in 0..extra {
                    values.push(c.values[i % c.values.len()].clone());
                }
                Column::new(c.name.clone(), values)
            })
            .collect();
        Table::new(table.name.clone(), columns).expect("still rectangular")
    }

    #[test]
    fn batch_with_bases_reuses_base_scores_and_is_exact_at_zero_sensitivity() {
        use crate::request::RequestOptions;
        let service = AnnotationService::new(global(), SigmaTyperConfig::default())
            .with_threads(4)
            .cached(1 << 14);
        let bases = batch(0xBA5E, 4);
        let _ = service.annotate_batch_request(&bases, &[], &RequestOptions::default());
        let tables: Vec<Table> = bases.iter().map(|t| recrawled(t, 1)).collect();
        let base_refs: Vec<Option<&Table>> = bases.iter().map(Some).collect();

        // A generous sensitivity: the one-row appends reuse the base
        // crawl's cached scores instead of re-running the value steps.
        let relaxed = RequestOptions::default().with_delta_sensitivity(0.5);
        let reusing = service.annotate_batch_request(&tables, &base_refs, &relaxed);
        let reused: usize = reusing.iter().map(|o| o.degradation.delta_reused).sum();
        assert!(reused > 0, "small appends must reuse base-crawl scores");

        // Sensitivity 0 turns reuse off entirely and is bit-identical
        // to annotating the recrawled tables from scratch.
        let zero = RequestOptions::default().with_delta_sensitivity(0.0);
        let strict = service.annotate_batch_request(&tables, &base_refs, &zero);
        let uncached_service = AnnotationService::new(global(), SigmaTyperConfig::default());
        let fresh =
            uncached_service.annotate_batch_request(&tables, &[], &RequestOptions::default());
        for (a, b) in strict.iter().zip(&fresh) {
            assert_eq!(a.degradation.delta_reused, 0, "sensitivity 0 never reuses");
            assert_identical(&a.annotation, &b.annotation);
        }

        // Bases are positional: a table with no slot has no base, so a
        // one-slot `bases` makes only table 0 a delta recrawl. (Fresh
        // two-row appends: the recrawls above cached their own exact
        // fingerprints, which would hit instead of reusing.)
        let grown: Vec<Table> = bases.iter().map(|t| recrawled(t, 2)).collect();
        let partial = service.annotate_batch_request(&grown, &base_refs[..1], &relaxed);
        assert_eq!(partial.len(), grown.len());
        assert!(
            partial[0].degradation.delta_reused > 0,
            "table 0 has a base"
        );
        for outcome in &partial[1..] {
            assert_eq!(outcome.degradation.delta_reused, 0, "no slot, no base");
        }
    }

    #[test]
    fn batch_identical_to_sequential_across_thread_counts() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default());
        let tables = batch(0xBA7C4, 11);
        let sequential: Vec<TableAnnotation> =
            tables.iter().map(|t| service.typer().annotate(t)).collect();
        for threads in [1, 2, 8] {
            let sharded = service
                .clone()
                .with_threads(threads)
                .annotate_batch(&tables);
            assert_eq!(sharded.len(), sequential.len(), "threads={threads}");
            for (s, q) in sharded.iter().zip(&sequential) {
                assert_identical(s, q);
            }
        }
    }

    #[test]
    fn output_preserves_input_order() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(4);
        // Tables with a recognizable column-count fingerprint.
        let o = builtin_ontology();
        let mut tables = Vec::new();
        for seed in 0..9u64 {
            let corpus = generate_corpus(&o, &CorpusConfig::database_like(0xF0 + seed, 1));
            tables.push(corpus.tables[0].table.clone());
        }
        let widths: Vec<usize> = tables.iter().map(tu_table::Table::n_cols).collect();
        let anns = service.annotate_batch(&tables);
        let got: Vec<usize> = anns.iter().map(|a| a.columns.len()).collect();
        assert_eq!(got, widths, "shard k must write the k-th output chunk");
    }

    #[test]
    fn degenerate_batches() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(8);
        assert!(service.annotate_batch(&[]).is_empty());
        // Fewer tables than threads: no worker may receive an empty shard.
        let tables = batch(0x10, 2);
        assert!(tables.len() < service.threads());
        let anns = service.annotate_batch(&tables);
        assert_eq!(anns.len(), tables.len());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "worker count must be at least 1")
    )]
    fn zero_threads_asserts_in_debug_and_clamps_in_release() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(0);
        // Release builds reach this point and clamp instead.
        assert_eq!(service.threads(), 1);
        let tables = batch(0x11, 3);
        assert_eq!(service.annotate_batch(&tables).len(), 3);
    }

    /// Explicit release-path coverage for the `with_threads(0)` clamp
    /// (`cargo test --release`): no debug assert fires, the count
    /// clamps to 1, and the clamped service produces output identical
    /// to an explicitly sequential one.
    #[test]
    #[cfg(not(debug_assertions))]
    fn zero_threads_clamps_to_one_in_release() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(0);
        assert_eq!(service.threads(), 1);
        let tables = batch(0x2B, 4);
        let clamped = service.annotate_batch(&tables);
        let sequential = service.clone().with_threads(1).annotate_batch(&tables);
        assert_eq!(clamped.len(), sequential.len());
        for (a, b) in clamped.iter().zip(&sequential) {
            assert_identical(a, b);
        }
    }

    /// Sum one counter over a batch's step timings: the header step's
    /// when `header`, every other step's otherwise.
    fn tally(
        anns: &[TableAnnotation],
        header: bool,
        count: fn(&crate::prediction::StepTiming) -> usize,
    ) -> usize {
        anns.iter()
            .flat_map(|a| a.timings.iter())
            .filter(|t| (t.step == crate::prediction::StepId::HEADER) == header)
            .map(count)
            .sum()
    }

    #[test]
    fn workers_share_one_step_cache() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default())
            .with_threads(4)
            .cached(1 << 14);
        let tables = batch(0xCAC4E, 9);
        let runs = |anns: &[TableAnnotation]| {
            tally(anns, true, |t| t.columns) + tally(anns, false, |t| t.columns)
        };
        let hits = |anns: &[TableAnnotation]| {
            tally(anns, true, |t| t.cache_hits) + tally(anns, false, |t| t.cache_hits)
        };
        // Cold batch: only header entries can hit, on a header text
        // another table already inserted — at most header columns −
        // distinct header texts, fewer when workers race.
        let cold = service.annotate_batch(&tables);
        let header_columns: usize = tables.iter().map(Table::n_cols).sum();
        let distinct: std::collections::HashSet<&str> =
            tables.iter().flat_map(Table::headers).collect();
        let cold_header_hits = tally(&cold, true, |t| t.cache_hits);
        assert_eq!(tally(&cold, false, |t| t.cache_hits), 0);
        assert_eq!(
            tally(&cold, true, |t| t.columns) + cold_header_hits,
            header_columns
        );
        assert!(cold_header_hits <= header_columns - distinct.len());
        assert!(tally(&cold, false, |t| t.columns) > 0);
        // Warm batch: served from cache, not a single step run, and
        // bit-identical (the golden contract) across workers.
        let warm = service.annotate_batch(&tables);
        assert_eq!(runs(&warm), 0, "warm recrawl must run no step");
        assert_eq!(hits(&warm), runs(&cold) + hits(&cold));
        for (a, b) in cold.iter().zip(&warm) {
            assert_identical(a, b);
        }
        // The cache is one shared store, not per-worker copies.
        let cache = service.typer().step_cache().expect("cache configured");
        assert!(!cache.is_empty());
    }

    /// Two-level budget split: a batch smaller than the worker budget
    /// hands the leftover threads to the column level, so a lone wide
    /// table is chunked instead of pinning one worker while the other
    /// threads idle.
    #[test]
    fn lone_wide_table_gets_the_whole_budget_as_column_chunks() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(4);
        let wide = opaque_table("wide", 12);
        let anns = service.annotate_batch(std::slice::from_ref(&wide));
        assert_eq!(anns.len(), 1);
        assert!(
            anns[0].timings.iter().any(|t| t.chunks >= 2),
            "a 1-table batch on a 4-thread budget must chunk columns: {:?}",
            anns[0]
                .timings
                .iter()
                .map(|t| (t.name.clone(), t.columns, t.chunks))
                .collect::<Vec<_>>()
        );
        // And the chunked result is bit-identical to a sequential one.
        assert_identical(&sequential_service().annotate_batch(&[wide])[0], &anns[0]);
    }

    /// The level-2 budget split: shares sum to exactly the budget
    /// (the division remainder goes one thread each to the first
    /// workers), so a batch between budget/2 and budget still carries
    /// column parallelism on some workers instead of idling threads.
    #[test]
    fn budget_remainder_reaches_the_column_level() {
        // 8 threads over 5 table workers: 2+2+2+1+1.
        let shares: Vec<usize> = (0..5).map(|w| column_budget(8, 5, w)).collect();
        assert_eq!(shares, vec![2, 2, 2, 1, 1]);
        assert_eq!(shares.iter().sum::<usize>(), 8);
        // Even splits stay even; a lone table gets the whole budget.
        assert_eq!((0..4).map(|w| column_budget(8, 4, w)).sum::<usize>(), 8);
        assert_eq!(column_budget(8, 1, 0), 8);
        // More workers than budget can never hand out a zero share.
        assert!((0..4).all(|w| column_budget(3, 4, w) >= 1));

        // Behavior: a 5-table batch on an 8-thread budget stays
        // bit-identical to the sequential pass whatever worker picked
        // up which table (chunked or not).
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(8);
        let tables: Vec<Table> = (0..5)
            .map(|seed| opaque_table(&format!("wide_{seed}"), 12))
            .collect();
        let anns = service.annotate_batch(&tables);
        assert_eq!(anns.len(), 5);
        let sequential = sequential_service().annotate_batch(&tables);
        for (a, b) in anns.iter().zip(&sequential) {
            assert_identical(a, b);
        }
    }

    /// The dynamic table queue must preserve input order and
    /// bit-identity on mixed batches (wide and narrow tables
    /// interleaved, batch larger than the budget).
    #[test]
    fn two_level_scheduler_matches_sequential_on_mixed_batches() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(3);
        let mut tables = batch(0x31, 7);
        tables.insert(3, opaque_table("wide", 12));
        let sequential: Vec<TableAnnotation> =
            tables.iter().map(|t| service.typer().annotate(t)).collect();
        let scheduled = service.annotate_batch(&tables);
        assert_eq!(scheduled.len(), sequential.len());
        for (s, q) in scheduled.iter().zip(&sequential) {
            assert_identical(s, q);
        }
    }

    #[test]
    fn batch_serves_custom_cascades() {
        use crate::prediction::StepId;
        use crate::step::RegexOnlyStep;
        use crate::system::SigmaTyper;
        // A cascade with the regex-only step ahead of lookup, served
        // sharded: the batch front-end must run the customer's cascade,
        // not the hardcoded three steps.
        let typer = SigmaTyper::builder(global())
            .step_at(1, RegexOnlyStep)
            .build();
        let service = AnnotationService::for_customer(typer).with_threads(4);
        let o = builtin_ontology();
        let mk = |i: u64| {
            Table::new(
                format!("t{i}"),
                vec![tu_table::Column::from_raw(
                    "xq7_zz",
                    &["ada@x.com", "bob@y.org", "eve@z.net"],
                )],
            )
            .unwrap()
        };
        let tables: Vec<Table> = (0..6).map(mk).collect();
        let anns = service.annotate_batch(&tables);
        for ann in &anns {
            assert_eq!(
                ann.columns[0].predicted,
                tu_ontology::builtin_id(&o, "email")
            );
            assert_eq!(
                ann.columns[0].resolving_step(service.typer().config().cascade_threshold),
                Some(StepId::REGEX_ONLY)
            );
            assert_eq!(ann.timings.len(), 4);
        }
    }

    #[test]
    fn batch_request_with_defaults_matches_annotate_batch() {
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(4);
        let tables = batch(0xB0D6, 7);
        let plain = service.annotate_batch(&tables);
        let outcomes = service.annotate_batch_request(&tables, &[], &RequestOptions::default());
        assert_eq!(outcomes.len(), plain.len());
        for (outcome, ann) in outcomes.iter().zip(&plain) {
            assert!(!outcome.degraded());
            assert_eq!(outcome.degradation.budget_nanos, None);
            assert_identical(&outcome.annotation, ann);
        }
    }

    #[test]
    fn exhausted_batch_budget_degrades_instead_of_queueing() {
        use crate::request::{DegradationPolicy, RequestOptions};
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(3);
        let tables = batch(0xDE6, 6);
        let options = RequestOptions::default()
            .with_budget_nanos(0)
            .with_policy(DegradationPolicy::DropTailSteps);
        let outcomes = service.annotate_batch_request(&tables, &[], &options);
        assert_eq!(outcomes.len(), tables.len());
        for (outcome, table) in outcomes.iter().zip(&tables) {
            // Zero budget: every table in the batch sheds its whole
            // cascade — deterministically, whatever worker got it.
            assert!(outcome.degraded() || table.n_cols() == 0);
            assert_eq!(outcome.annotation.columns.len(), table.n_cols());
            for col in &outcome.annotation.columns {
                assert!(col.abstained(), "degradation must abstain, not fabricate");
                assert!(col.steps_run.is_empty());
            }
            assert_eq!(outcome.degradation.remaining_nanos, Some(0));
        }
    }

    #[test]
    fn batch_request_shares_one_ledger() {
        use crate::request::{DegradationPolicy, RequestOptions};
        let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(2);
        let tables = batch(0x5A1, 5);
        // A generous shared budget: nothing degrades, but every
        // table's report shows the same batch-wide ledger draining.
        let options = RequestOptions::default()
            .with_budget_nanos(u64::MAX / 2)
            .with_policy(DegradationPolicy::DropTailSteps);
        let outcomes = service.annotate_batch_request(&tables, &[], &options);
        let total_spent: u64 = outcomes.iter().map(|o| o.degradation.spent_nanos).sum();
        assert!(total_spent > 0);
        for outcome in &outcomes {
            assert!(!outcome.degraded());
            assert_eq!(outcome.degradation.budget_nanos, Some(u64::MAX / 2));
            let remaining = outcome.degradation.remaining_nanos.unwrap();
            // Each table saw the shared ledger at or below the full
            // budget minus its own spend.
            assert!(remaining <= u64::MAX / 2 - outcome.degradation.spent_nanos);
        }
    }

    #[test]
    fn cache_stats_snapshot_and_per_batch_delta() {
        let uncached = AnnotationService::new(global(), SigmaTyperConfig::default());
        assert!(uncached.cache_stats().is_none());

        let service = AnnotationService::new(global(), SigmaTyperConfig::default())
            .with_threads(4)
            .cached(1 << 14);
        let empty = service.cache_stats().expect("cache attached");
        assert_eq!(
            (empty.hits, empty.misses, empty.inserts, empty.entries),
            (0, 0, 0, 0)
        );

        let tables = batch(0xCA57, 8);
        let before_cold = service.cache_stats().unwrap();
        let cold_anns = service.annotate_batch(&tables);
        let after_cold = service.cache_stats().unwrap();
        let cold = after_cold.since(&before_cold);
        assert_eq!(
            cold.hits,
            tally(&cold_anns, true, |t| t.cache_hits) as u64,
            "a cold batch hits only header entries"
        );
        assert!(cold.misses > 0);
        assert_eq!(cold.inserts, cold.misses, "every cold miss inserts");
        assert!(after_cold.entries > 0);

        let _ = service.annotate_batch(&tables);
        let warm = service.cache_stats().unwrap().since(&after_cold);
        assert_eq!(warm.misses, 0, "warm batch must be all hits");
        assert_eq!(warm.inserts, 0);
        assert_eq!(
            warm.hits,
            cold.hits + cold.inserts,
            "one hit per column the cold batch answered"
        );
        // The cumulative snapshot keeps the running totals.
        let total = service.cache_stats().unwrap();
        assert_eq!(total.hits, cold.hits + warm.hits);
        assert_eq!(total.misses, cold.misses);
        assert!(total.hit_rate() > 0.0);
    }

    #[test]
    fn traffic_lane_labels_round_trip() {
        for lane in TrafficLane::ALL {
            assert_eq!(TrafficLane::from_label(lane.label()), Some(lane));
        }
        assert_eq!(
            TrafficLane::from_label("INTERACTIVE"),
            Some(TrafficLane::Interactive)
        );
        assert_eq!(TrafficLane::from_label("Crawl"), Some(TrafficLane::Crawl));
        assert_eq!(TrafficLane::from_label("bulk"), None);
        assert_eq!(TrafficLane::from_label(""), None);
    }

    #[test]
    fn lane_ledger_shares_one_window_and_rolls() {
        let lane = LaneLedger::new(TrafficLane::Crawl, Some(1_000), Duration::from_millis(10));
        assert_eq!(lane.lane(), TrafficLane::Crawl);
        assert_eq!(lane.window_budget(), Some(1_000));
        // Two callers inside one window charge the same ledger.
        let a = lane.ledger();
        let b = lane.ledger();
        a.charge(600);
        b.charge(600);
        assert!(a.exhausted() && b.exhausted());
        assert_eq!(a.spent(), 1_200);
        assert_eq!(lane.remaining_nanos(), Some(0));
        // After the window elapses the lane hands out a fresh ledger;
        // the closed window's ledger keeps what it was charged.
        std::thread::sleep(Duration::from_millis(15));
        let fresh = lane.ledger();
        assert!(!fresh.exhausted());
        assert_eq!(fresh.remaining(), Some(1_000));
        assert_eq!(fresh.spent(), 0);
        fresh.charge(5);
        assert_eq!(lane.ledger().spent(), 5);
        assert_eq!(a.spent(), 1_200);
    }

    #[test]
    fn unbudgeted_lane_never_rolls_or_degrades() {
        let lane = LaneLedger::new(TrafficLane::Interactive, None, Duration::from_millis(1));
        let ledger = lane.ledger();
        ledger.charge(u64::MAX / 2);
        assert!(!ledger.exhausted());
        assert_eq!(lane.remaining_nanos(), None);
        std::thread::sleep(Duration::from_millis(3));
        // Same live ledger after the "window": unbudgeted lanes keep
        // one cumulative ledger forever.
        assert!(Arc::ptr_eq(&ledger, &lane.ledger()));
        assert_eq!(lane.ledger().spent(), u64::MAX / 2);
    }

    #[test]
    fn bounded_queue_backpressure_and_drain() {
        let queue = BoundedQueue::new(2);
        assert_eq!(queue.capacity(), 2);
        assert!(queue.is_empty());
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.len(), 2);
        // Full: the item comes back with the rejection.
        let (item, why) = queue.push(3).unwrap_err();
        assert_eq!((item, why), (3, QueueRejection::Full));
        // Close: pending items still drain, then poppers see None and
        // new pushes are refused.
        queue.close();
        assert_eq!(queue.push(4).unwrap_err().1, QueueRejection::Closed);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None);
        // Zero capacity refuses everything — the forced-shed path.
        let zero: BoundedQueue<u8> = BoundedQueue::new(0);
        assert_eq!(zero.push(9).unwrap_err().1, QueueRejection::Full);
    }

    #[test]
    fn bounded_queue_close_wakes_blocked_poppers() {
        let queue = Arc::new(BoundedQueue::<u32>::new(4));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while let Some(item) = q.pop() {
                        got += item;
                    }
                    got
                })
            })
            .collect();
        for i in 1..=4 {
            // Blocked consumers may outpace the producer; retry fulls.
            loop {
                match queue.push(i) {
                    Ok(()) => break,
                    Err((_, QueueRejection::Full)) => std::thread::yield_now(),
                    Err((_, QueueRejection::Closed)) => unreachable!(),
                }
            }
        }
        queue.close();
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 1 + 2 + 3 + 4, "every admitted item is served");
    }

    #[test]
    fn flush_is_safe_for_uncached_and_cached_services() {
        let uncached = AnnotationService::new(global(), SigmaTyperConfig::default());
        uncached.flush().expect("uncached flush is a no-op");
        let cached = AnnotationService::new(global(), SigmaTyperConfig::default()).cached(64);
        let _ = cached.annotate_batch(&batch(0xF1, 2));
        cached.flush().expect("in-memory flush succeeds");
    }

    #[test]
    fn adapted_customer_serves_its_adaptation() {
        let mut service =
            AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(4);
        let o = service.typer().ontology().clone();
        let phone = tu_ontology::builtin_id(&o, "phone number");
        let mk = |seed: u64| {
            let vals: Vec<String> = (0..30)
                .map(|i| format!("{}", 30_000_000 + seed * 1000 + i * 97))
                .collect();
            Table::new(
                format!("contacts_{seed}"),
                vec![tu_table::Column::from_raw("contact", &vals)],
            )
            .unwrap()
        };
        for s in 1..=3 {
            service.typer_mut().feedback(&mk(s), 0, phone, None);
        }
        let anns = service.annotate_batch(&[mk(7), mk(8), mk(9)]);
        for ann in &anns {
            assert_eq!(ann.columns[0].predicted, phone);
        }
    }
}
