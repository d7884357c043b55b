//! In-process replay driver.
//!
//! The HTTP server's serving shape without the wire: a bounded
//! admission queue, a worker pool driving the sync core, and the
//! server's own shaping calls — [`TrafficShaper::admit`] at the door
//! and [`TrafficShaper::serve`] around every annotate — so fairness
//! behavior measured here is the behavior the server ships. Clients
//! are closed-loop: each submits its slice of the workload in order
//! and blocks for the reply before sending the next operation.

use crate::report::{LoadReport, OpResult};
use crate::workload::{LabOp, Workload};
use sigmatyper::executor::CascadeExecutor;
use sigmatyper::request::{DegradationPolicy, RequestOptions};
use sigmatyper::service::BoundedQueue;
use sigmatyper::tenant::{TenantId, TenantRegistry, TrafficShaper};
use sigmatyper::{GlobalModel, ShardedLruCache, SigmaTyper, StableHasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The serving stack a workload is replayed against.
#[derive(Debug, Clone)]
pub struct TargetConfig {
    /// Worker threads popping the admission queue.
    pub workers: usize,
    /// Closed-loop client threads submitting the workload.
    pub clients: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Interactive lane window budget (`None` = unbudgeted).
    pub interactive_budget_nanos: Option<u64>,
    /// Crawl lane window budget (`None` = unbudgeted).
    pub crawl_budget_nanos: Option<u64>,
    /// Lane budget window length.
    pub budget_window: Duration,
    /// `true` = fairness shaping on ([`TenantRegistry::new`]);
    /// `false` = the unshapen baseline — identical plumbing, but the
    /// registry only accounts
    /// ([`TenantRegistry::accounting_only`]): nobody is ever declared
    /// over quota, no budget is ever tenant-capped, and admission
    /// tiers only by lane.
    pub shaping: bool,
    /// Step-cache capacity (0 = run without a cache).
    pub cache_capacity: usize,
}

impl Default for TargetConfig {
    fn default() -> Self {
        TargetConfig {
            workers: 2,
            clients: 4,
            queue_capacity: 64,
            interactive_budget_nanos: None,
            crawl_budget_nanos: None,
            budget_window: Duration::from_millis(100),
            shaping: true,
            cache_capacity: 1 << 14,
        }
    }
}

/// Fingerprint of an annotation result: per column, the predicted
/// type and the exact confidence bits. Two runs produced the same
/// answer iff their digests match.
fn outcome_digest(annotation: &sigmatyper::TableAnnotation) -> [u64; 2] {
    let mut h = StableHasher::new();
    h.write_usize(annotation.columns.len());
    for col in &annotation.columns {
        h.write_usize(col.col_idx);
        h.write_u64(u64::from(col.predicted.0));
        h.write_f64(col.confidence);
    }
    h.finish128()
}

struct LabJob {
    op: usize,
    reply: mpsc::Sender<OpResult>,
}

/// One worker's job: annotate `op` through [`TrafficShaper::serve`],
/// the grant → run → settle sequence the server's single requests use.
fn serve_op(
    typer: &SigmaTyper,
    executor: &CascadeExecutor,
    shaper: &TrafficShaper,
    op: &LabOp,
    tenant: TenantId,
    submitted: Instant,
) -> OpResult {
    // BestEffort everywhere: the load lab exists to measure graceful
    // degradation, so every operation opts into the truncating path.
    // Sensitivity 0 pins recrawls to the bit-exact delta path: reuse
    // of base-crawl scores depends on cache warmth, which depends on
    // scheduling order — exactly the nondeterminism a replayable
    // harness must not leak into result digests.
    let options = RequestOptions {
        policy: DegradationPolicy::BestEffort,
        delta_sensitivity: Some(0.0),
        tenant: Some(tenant),
        ..RequestOptions::default()
    };
    let outcome = shaper
        .serve(op.lane, tenant, None, |ledger| {
            vec![typer.annotate_request_shared_with_base(
                &op.table,
                op.base.as_ref(),
                executor,
                &options,
                ledger,
            )]
        })
        .remove(0);
    let degraded = outcome.degraded();
    OpResult {
        op: op.id,
        tenant: op.tenant,
        lane: op.lane,
        served: true,
        degraded,
        delta_reused: outcome.degradation.delta_reused as u64,
        spent_nanos: outcome.degradation.spent_nanos,
        latency_nanos: submitted.elapsed().as_nanos() as u64,
        digest: (!degraded).then(|| outcome_digest(&outcome.annotation)),
    }
}

/// Replay `workload` against an in-process serving stack built from
/// `target`, returning the structured report. Results are collected
/// for every operation — shed or served — and returned in operation
/// order.
#[must_use]
pub fn run_in_process(
    global: Arc<GlobalModel>,
    workload: &Workload,
    target: &TargetConfig,
) -> LoadReport {
    let mut builder = SigmaTyper::builder(global);
    if target.cache_capacity > 0 {
        builder = builder.step_cache(Arc::new(ShardedLruCache::new(target.cache_capacity)));
    }
    let typer = builder.build();
    let registry = Arc::new(if target.shaping {
        TenantRegistry::new()
    } else {
        TenantRegistry::accounting_only()
    });
    let tenant_ids: Vec<TenantId> = workload
        .tenants
        .iter()
        .map(|(name, weight)| registry.register(name, *weight))
        .collect();
    let shaper = TrafficShaper::new(
        registry,
        target.interactive_budget_nanos,
        target.crawl_budget_nanos,
        target.budget_window,
    );
    let queue: BoundedQueue<LabJob> = BoundedQueue::new(target.queue_capacity);
    let executor = CascadeExecutor::from_config(typer.config());
    let results: Mutex<Vec<OpResult>> = Mutex::new(Vec::with_capacity(workload.ops.len()));
    let started = Instant::now();
    let clients = target.clients.max(1);
    // Clients pull the next unclaimed operation from a shared cursor,
    // preserving global submission order while keeping every client
    // busy.
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..target.workers.max(1))
            .map(|_| {
                let queue = &queue;
                let typer = &typer;
                let executor = &executor;
                let shaper = &shaper;
                let workload = &workload;
                let tenant_ids = &tenant_ids;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let op = &workload.ops[job.op];
                        let result = serve_op(
                            typer,
                            executor,
                            shaper,
                            op,
                            tenant_ids[op.tenant],
                            Instant::now(),
                        );
                        let _ = job.reply.send(result);
                    }
                })
            })
            .collect();

        let client_handles: Vec<_> = (0..clients)
            .map(|_| {
                let queue = &queue;
                let shaper = &shaper;
                let workload = &workload;
                let tenant_ids = &tenant_ids;
                let results = &results;
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let idx = cursor.fetch_add(1, Ordering::SeqCst);
                    let Some(op) = workload.ops.get(idx) else {
                        break;
                    };
                    let submitted = Instant::now();
                    let (tx, rx) = mpsc::channel();
                    let job = LabJob { op: idx, reply: tx };
                    let result = match shaper.admit(queue, op.lane, tenant_ids[op.tenant], job) {
                        Ok(()) => rx.recv().unwrap_or_else(|_| OpResult {
                            op: op.id,
                            tenant: op.tenant,
                            lane: op.lane,
                            served: false,
                            degraded: false,
                            delta_reused: 0,
                            spent_nanos: 0,
                            latency_nanos: submitted.elapsed().as_nanos() as u64,
                            digest: None,
                        }),
                        Err(_) => OpResult {
                            op: op.id,
                            tenant: op.tenant,
                            lane: op.lane,
                            served: false,
                            degraded: false,
                            delta_reused: 0,
                            spent_nanos: 0,
                            latency_nanos: submitted.elapsed().as_nanos() as u64,
                            digest: None,
                        },
                    };
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(result);
                })
            })
            .collect();

        for handle in client_handles {
            let _ = handle.join();
        }
        queue.close();
        for handle in workers {
            let _ = handle.join();
        }
    });

    let mut results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    results.sort_by_key(|r| r.op);
    LoadReport {
        tenants: workload.tenants.iter().map(|(n, _)| n.clone()).collect(),
        results,
        wall_nanos: started.elapsed().as_nanos() as u64,
        cache: typer.step_cache().map(|c| c.stats()),
    }
}
