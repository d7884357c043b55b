//! In-process replay driver.
//!
//! The HTTP server's serve loop without the wire: workloads replay on
//! the server's own [`WorkerPool`] — its bounded admission queue
//! through [`TrafficShaper::admit`], its workers, its panic
//! containment — and every operation is served as a batch of one
//! through [`AnnotationService::annotate_batch_request_shaped`], the
//! call every served request makes. Fairness behaviour measured here
//! is therefore the behaviour the server ships. Clients are
//! closed-loop: each submits its slice of the workload in order and
//! blocks for the reply before sending the next operation.

use crate::report::{LoadReport, OpResult};
use crate::workload::{LabOp, Workload};
use sigmatyper::request::{DegradationPolicy, RequestOptions};
use sigmatyper::service::AnnotationService;
use sigmatyper::tenant::{TenantId, TenantRegistry, TrafficShaper};
use sigmatyper::{GlobalModel, ShardedLruCache, SigmaTyper, StableHasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tu_server::WorkerPool;

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

/// One operation on a worker: annotate `op` as a batch of one,
/// timed from when the worker picked it up.
fn serve_op(
    service: &AnnotationService,
    shaper: &TrafficShaper,
    op: &LabOp,
    tenant: TenantId,
) -> OpResult {
    let started = Instant::now();
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
    let outcome = service
        .annotate_batch_request_shaped(
            std::slice::from_ref(&op.table),
            &[op.base.as_ref()],
            &options,
            shaper,
            op.lane,
        )
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
        latency_nanos: started.elapsed().as_nanos() as u64,
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
    let pool = WorkerPool::start(
        AnnotationService::for_customer(builder.build()),
        shaper,
        target.workers,
        target.queue_capacity,
    );
    // Jobs outlive this call's borrows, so they share the operations
    // through one `Arc`, copied before the replay clock starts.
    let ops: Arc<[LabOp]> = workload.ops.clone().into();
    let results: Mutex<Vec<OpResult>> = Mutex::new(Vec::with_capacity(ops.len()));
    // Clients pull the next unclaimed operation from a shared cursor,
    // preserving global submission order while keeping every client
    // busy.
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..target.clients.max(1) {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::SeqCst);
                let Some(op) = ops.get(idx) else {
                    break;
                };
                let tenant = tenant_ids[op.tenant];
                let submitted = Instant::now();
                let job_ops = Arc::clone(&ops);
                let served = pool.submit(op.lane, tenant, move |service, shaper| {
                    serve_op(service, shaper, &job_ops[idx], tenant)
                });
                let result = served.ok().flatten().unwrap_or_else(|| {
                    OpResult::unserved(op, submitted.elapsed().as_nanos() as u64)
                });
                results
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(result);
            });
        }
    });
    pool.shutdown();
    let cache = pool.service().cache_stats();

    let mut results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    results.sort_by_key(|r| r.op);
    LoadReport {
        tenants: workload.tenants.iter().map(|(n, _)| n.clone()).collect(),
        results,
        wall_nanos: started.elapsed().as_nanos() as u64,
        cache,
    }
}
