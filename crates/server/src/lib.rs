//! Long-running HTTP/1.1 + JSON annotation server over the SigmaTyper
//! sync core — the front-end that turns the engine of PRs 1–6 into the
//! paper's actual deployment shape: one shared global model serving
//! live traffic (§4), with the two-lane budgets of ROADMAP item 5 at
//! the door.
//!
//! # Architecture
//!
//! ```text
//! clients ──HTTP──▶ httpshim (1 thread/conn) ──▶ BoundedQueue ──▶ worker pool ──▶ SigmaTyper
//!                        │ 503 + Retry-After ◀──┘ (full)              │
//!                        ◀──────────────── reply channel ◀────────────┘
//! ```
//!
//! * **Admission** ([`BoundedQueue`] + [`TrafficShaper`]): every
//!   request is queued or shed — never buffered without bound. A full
//!   queue answers `503 Service Unavailable` with a `Retry-After`
//!   derived from the shedding lane's actual window-refill time (the
//!   configured constant is the floor). Cutoffs are tiered by lane
//!   *and* tenant standing: over-quota crawl sheds at a quarter of
//!   capacity, in-quota crawl and over-quota interactive at half, and
//!   in-quota interactive only when the queue is genuinely full —
//!   crawl before interactive, heavy tenants before light ones.
//! * **Lanes** ([`LaneLedger`]): each traffic class (selected by the
//!   `x-sigma-lane` header) charges one shared, per-window refilling
//!   [`BudgetLedger`]; when a lane's window drains, its requests
//!   degrade per their policy while the other lane is untouched.
//! * **Tenants** ([`TenantRegistry`]): the `x-sigma-tenant` header
//!   names the account a request's spend is charged to (absent =
//!   the shared `anonymous` account). Per-tenant weighted deficits
//!   decide who is over quota. An in-quota tenant past its share of
//!   the window spends burst credit only from budget that no other
//!   in-quota tenant's unspent share claims, and an over-quota
//!   tenant's requests run under a cap carved from the lane window's
//!   *unreserved* remainder (in-quota tenants' outstanding deficits
//!   are protected), so heavy tenants degrade first while light
//!   tenants keep their entitlement.
//!   Shaping never changes annotation results — only scheduling,
//!   shedding, and which requests degrade.
//! * **Workers**: a fixed pool popping jobs and driving the sync core —
//!   singles via [`SigmaTyper::annotate_request_shared`], batches via
//!   the [`AnnotationService`] two-level scheduler.
//! * **Feedback**: `POST /feedback` takes the customer write lock,
//!   runs the paper's adaptation loop, and bumps the epoch — connected
//!   clients observe the invalidation on their next request.
//! * **Graceful shutdown** ([`AnnotationServer::shutdown`]): stop
//!   accepting, drain every in-flight response, close the queue, join
//!   the workers, [`flush`](AnnotationService::flush) the cache tier.
//!   No admitted request is dropped; a durable epoch file stays
//!   consistent for a warm restart.
//!
//! # Endpoints
//!
//! | Method | Path              | Body / effect |
//! |--------|-------------------|---------------|
//! | POST   | `/annotate`       | `{"table": …, "options"?: …}` → one outcome |
//! | POST   | `/annotate_batch` | `{"tables": […], "options"?: …}` → outcomes in order |
//! | POST   | `/feedback`       | `{"table": …, "col_idx": n, "type": "name"}` → adaptation + epoch bump |
//! | GET    | `/metrics`        | queue depth, in-flight, per-lane spend/shed, per-tenant counters, cache stats + delta |
//! | GET    | `/healthz`        | liveness |
//! | POST   | `/shutdown`       | request graceful drain (for operators/CI) |
//!
//! [`BudgetLedger`]: sigmatyper::BudgetLedger
//! [`LaneLedger`]: sigmatyper::LaneLedger

#![warn(missing_docs)]

pub mod wire;

use httpshim::{HttpServer, Request, Response};
use jsonshim::Json;
use sigmatyper::cache::CacheStats;
use sigmatyper::executor::CascadeExecutor;
use sigmatyper::request::{BudgetLedger, RequestOptions};
use sigmatyper::service::{AnnotationService, BoundedQueue, QueueRejection, TrafficLane};
use sigmatyper::tenant::{
    ShapedBudget, TenantId, TenantRegistry, TenantSnapshot, TrafficShaper, ANONYMOUS_TENANT,
};
use sigmatyper::SigmaTyper;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted `x-sigma-tenant` value: tenant names are interned
/// forever, so unbounded attacker-chosen names would be a memory leak.
const MAX_TENANT_NAME_LEN: usize = 128;

/// Serving knobs of an [`AnnotationServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads popping the admission queue.
    pub workers: usize,
    /// Admission bound: requests beyond this shed with 503. Zero is
    /// legal (everything sheds — the degenerate load-test shape).
    pub queue_capacity: usize,
    /// Interactive lane: step-work budget per window (`None` =
    /// unbudgeted).
    pub interactive_budget_nanos: Option<u64>,
    /// Crawl lane: step-work budget per window (`None` = unbudgeted).
    /// Size this tighter than interactive — the crawl lane is the one
    /// that degrades first by design.
    pub crawl_budget_nanos: Option<u64>,
    /// Length of one lane-budget window.
    pub budget_window: Duration,
    /// Floor for the `Retry-After` seconds advertised on 503
    /// responses. When the shedding lane is budgeted, the actual hint
    /// is the time until that lane's window refills, never below this.
    pub retry_after_secs: u32,
    /// Tenants registered at startup with explicit fairness weights
    /// (`(name, weight)`); weight is relative share of each lane's
    /// window. Tenants not listed here are interned on first sight at
    /// weight 1.0, as is the `anonymous` account for requests without
    /// an `x-sigma-tenant` header.
    pub tenant_weights: Vec<(String, f64)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, std::num::NonZero::get),
            queue_capacity: 64,
            interactive_budget_nanos: None,
            crawl_budget_nanos: None,
            budget_window: Duration::from_secs(1),
            retry_after_secs: 1,
            tenant_weights: Vec::new(),
        }
    }
}

/// A job admitted into the queue: the parsed request plus the reply
/// channel its connection thread blocks on.
enum Job {
    Single {
        table: tu_table::Table,
        /// Previously crawled version of `table`, when the client sent
        /// one: the request becomes an incremental recrawl.
        base: Option<tu_table::Table>,
        options: RequestOptions,
        lane: TrafficLane,
        tenant: TenantId,
        reply: mpsc::Sender<String>,
    },
    Batch {
        tables: Vec<tu_table::Table>,
        options: RequestOptions,
        lane: TrafficLane,
        tenant: TenantId,
        reply: mpsc::Sender<String>,
    },
}

struct ServerState {
    typer: RwLock<SigmaTyper>,
    queue: BoundedQueue<Job>,
    /// Lane ledgers, lane/tenant counters, and the tenant registry —
    /// every admission and budget decision flows through here.
    shaper: TrafficShaper,
    in_flight: AtomicUsize,
    workers: usize,
    retry_after_secs: u32,
    shutdown_requested: AtomicBool,
    /// Baseline for the `/metrics` cache delta: stats at the previous
    /// scrape.
    metrics_baseline: Mutex<CacheStats>,
}

impl ServerState {
    /// Lane- and tenant-tiered admission (see [`TrafficShaper::admit`]):
    /// over-quota crawl sheds at a quarter of capacity, in-quota crawl
    /// and over-quota interactive at half, in-quota interactive only
    /// when genuinely full. The shaper records the shed against both
    /// the lane and the tenant.
    fn admit(&self, lane: TrafficLane, tenant: TenantId, job: Job) -> Result<(), QueueRejection> {
        self.shaper.admit(&self.queue, lane, tenant, job)
    }

    /// `Retry-After` for a shed on `lane`: time until the lane's
    /// budget window refills (rounded up), floored at the configured
    /// constant. Unbudgeted lanes have no refill event, so they
    /// advertise the floor.
    fn retry_after_secs(&self, lane: TrafficLane) -> u64 {
        let floor = u64::from(self.retry_after_secs);
        match self.shaper.lane_ledger(lane).window_remaining() {
            Some(left) => floor.max(left.as_secs_f64().ceil() as u64),
            None => floor,
        }
    }

    fn shed_response(&self, lane: TrafficLane, why: QueueRejection) -> Response {
        let detail = match why {
            QueueRejection::Full => "annotation queue is full",
            QueueRejection::Closed => "server is draining for shutdown",
        };
        Response::status(503)
            .with_header("Retry-After", &self.retry_after_secs(lane).to_string())
            .with_json(
                Json::object(vec![
                    ("error", Json::from(detail)),
                    ("lane", Json::from(lane.label())),
                ])
                .to_string(),
            )
    }
}

/// A running annotation server: HTTP front-end, admission queue, and
/// worker pool over one customer [`SigmaTyper`].
pub struct AnnotationServer {
    http: HttpServer,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl AnnotationServer {
    /// Bind `addr` (port 0 for ephemeral) and start serving `typer`
    /// under `config`. The typer keeps whatever cache/epoch plumbing it
    /// was built with — attach a
    /// [`TieredStepCache`](sigmatyper::diskcache::TieredStepCache) and
    /// a [`DurableEpochSource`](sigmatyper::diskcache::DurableEpochSource)
    /// for a warm-restartable deployment.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        typer: SigmaTyper,
        config: &ServerConfig,
    ) -> io::Result<AnnotationServer> {
        let registry = Arc::new(TenantRegistry::new());
        for (name, weight) in &config.tenant_weights {
            registry.register(name, *weight);
        }
        let state = Arc::new(ServerState {
            typer: RwLock::new(typer),
            queue: BoundedQueue::new(config.queue_capacity),
            shaper: TrafficShaper::new(
                registry,
                config.interactive_budget_nanos,
                config.crawl_budget_nanos,
                config.budget_window,
            ),
            in_flight: AtomicUsize::new(0),
            workers: config.workers.max(1),
            retry_after_secs: config.retry_after_secs,
            shutdown_requested: AtomicBool::new(false),
            metrics_baseline: Mutex::new(CacheStats::default()),
        });
        let workers = (0..state.workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("annotate-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();
        let handler_state = Arc::clone(&state);
        let http = HttpServer::bind(addr, move |req: &Request| route(&handler_state, req))?;
        Ok(AnnotationServer {
            http,
            state,
            workers,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Whether a client asked for a drain via `POST /shutdown` (the
    /// binary's main loop polls this alongside its signal flag).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, drain every in-flight
    /// response, close the queue, join the workers, and flush the
    /// cache tier. Returns the flush result — epoch durability needs
    /// no work here because [`DurableEpochSource`] persists
    /// write-ahead on every advance.
    ///
    /// [`DurableEpochSource`]: sigmatyper::diskcache::DurableEpochSource
    pub fn shutdown(mut self) -> io::Result<()> {
        // 1. Stop accepting; connection threads finish the request
        //    they are serving (each blocks on its worker's reply).
        self.http.shutdown();
        self.http.join();
        // 2. No connections remain, so no new jobs can arrive: close
        //    the queue and let the workers drain what was admitted.
        self.state.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // 3. Durable state: sync the cache segment.
        let typer = self
            .state
            .typer
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match typer.step_cache() {
            Some(cache) => cache.flush(),
            None => Ok(()),
        }
    }
}

/// One worker: pop until the queue closes and drains, annotate, reply.
fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        let (body, reply) = match job {
            Job::Single {
                table,
                base,
                options,
                lane,
                tenant,
                reply,
            } => (
                serve_single(state, &table, base.as_ref(), &options, lane, tenant),
                reply,
            ),
            Job::Batch {
                tables,
                options,
                lane,
                tenant,
                reply,
            } => (serve_batch(state, &tables, &options, lane, tenant), reply),
        };
        // Decrement before replying: a client that scrapes `/metrics`
        // right after its response must not observe its own finished
        // request as still in flight.
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        let _ = reply.send(body);
    }
}

/// Resolve the ledger a single request charges through the shaper.
/// An unbudgeted request from an in-quota tenant charges the lane's
/// shared window ledger directly — the bit-exact unshapen path, so
/// concurrent traffic on the lane collectively drains one budget and
/// lane spend metrics accumulate. A request with its own budget, or
/// from an over-quota tenant, runs on a local ledger capped by the
/// tighter of request budget, tenant cap, and lane remainder;
/// [`TrafficShaper::settle`] charges its spend back to the lane and
/// the tenant account either way.
fn serve_single(
    state: &ServerState,
    table: &tu_table::Table,
    base: Option<&tu_table::Table>,
    options: &RequestOptions,
    lane: TrafficLane,
    tenant: TenantId,
) -> String {
    let typer = state
        .typer
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Mirror `SigmaTyper::annotate_request`: per-request parallelism
    // overrides resolve into the executor, so an HTTP annotate is the
    // same computation as the direct call.
    let mut config = *typer.config();
    if let Some(policy) = options.parallelism {
        config.parallelism = policy;
    }
    if let Some(threads) = options.column_threads {
        config.column_threads = threads;
    }
    let executor = CascadeExecutor::from_config(&config);
    let mut options = *options;
    options.tenant = Some(tenant);
    let (request_budget, _) = options.resolved();
    let grant = state.shaper.request_budget(lane, tenant, request_budget);
    let outcome = match &grant {
        ShapedBudget::Shared(ledger) => {
            typer.annotate_request_shared_with_base(table, base, &executor, &options, ledger)
        }
        ShapedBudget::Local { cap_nanos, .. } => {
            let local = BudgetLedger::bounded(*cap_nanos);
            typer.annotate_request_shared_with_base(table, base, &executor, &options, &local)
        }
    };
    state.shaper.settle(
        lane,
        tenant,
        &grant,
        outcome.degradation.spent_nanos,
        u64::from(outcome.degraded()),
        outcome.degradation.delta_reused as u64,
    );
    wire::outcome_to_json(&outcome, typer.ontology()).to_string()
}

/// Batches ride the existing two-level scheduler through
/// [`AnnotationService::annotate_batch_request_shaped`], which owns
/// one batch-wide ledger bounded by the shaper's grant (lane window
/// remainder ∧ tenant cap ∧ request budget) and settles the batch's
/// spend back to the lane and tenant when it completes.
fn serve_batch(
    state: &ServerState,
    tables: &[tu_table::Table],
    options: &RequestOptions,
    lane: TrafficLane,
    tenant: TenantId,
) -> String {
    let typer = state
        .typer
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut options = *options;
    options.tenant = Some(tenant);
    let service = AnnotationService::for_customer(typer.clone()).with_threads(state.workers);
    let bases: Vec<Option<&tu_table::Table>> = vec![None; tables.len()];
    let outcomes =
        service.annotate_batch_request_shaped(tables, &bases, &options, &state.shaper, lane);
    let body = Json::object(vec![(
        "outcomes",
        Json::Arr(
            outcomes
                .iter()
                .map(|o| wire::outcome_to_json(o, typer.ontology()))
                .collect(),
        ),
    )]);
    body.to_string()
}

fn lane_from_request(req: &Request) -> Result<TrafficLane, Response> {
    match req.header("x-sigma-lane") {
        None => Ok(TrafficLane::Interactive),
        Some(label) => TrafficLane::from_label(label).ok_or_else(|| {
            bad_request(&format!(
                "unknown lane {label:?}: expected \"interactive\" or \"crawl\""
            ))
        }),
    }
}

/// Resolve the tenant a request bills to from its `x-sigma-tenant`
/// header. Absent → the shared `anonymous` account; present → interned
/// on first sight (weight 1.0 unless pre-registered via
/// [`ServerConfig::tenant_weights`]). Empty or oversized names are
/// rejected — interned names live forever, so unbounded
/// attacker-chosen values would leak memory.
fn tenant_from_request(state: &ServerState, req: &Request) -> Result<TenantId, Response> {
    match req.header("x-sigma-tenant") {
        None => Ok(state.shaper.registry().intern(ANONYMOUS_TENANT)),
        Some("") => Err(bad_request("x-sigma-tenant must not be empty when present")),
        Some(name) if name.len() > MAX_TENANT_NAME_LEN => Err(bad_request(&format!(
            "x-sigma-tenant is limited to {MAX_TENANT_NAME_LEN} bytes"
        ))),
        Some(name) => Ok(state.shaper.registry().intern(name)),
    }
}

fn bad_request(message: &str) -> Response {
    Response::status(400).with_json(Json::object(vec![("error", Json::from(message))]).to_string())
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let body = req
        .body_str()
        .ok_or_else(|| bad_request("request body must be UTF-8"))?;
    Json::parse(body).map_err(|e| bad_request(&format!("invalid JSON body: {e}")))
}

/// Admit a job and block this connection thread on the worker's reply.
fn enqueue_and_wait(
    state: &ServerState,
    lane: TrafficLane,
    tenant: TenantId,
    build: impl FnOnce(mpsc::Sender<String>) -> Job,
) -> Response {
    let (tx, rx) = mpsc::channel();
    match state.admit(lane, tenant, build(tx)) {
        Ok(()) => match rx.recv() {
            Ok(body) => Response::json(body),
            Err(_) => Response::status(500)
                .with_json(Json::object(vec![("error", Json::from("worker died"))]).to_string()),
        },
        Err(why) => state.shed_response(lane, why),
    }
}

fn handle_annotate(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let lane = match lane_from_request(req) {
        Ok(lane) => lane,
        Err(resp) => return resp,
    };
    let tenant = match tenant_from_request(state, req) {
        Ok(tenant) => tenant,
        Err(resp) => return resp,
    };
    let table_json = body.get("table").unwrap_or(&body);
    let table = match wire::table_from_json(table_json) {
        Ok(t) => t,
        Err(e) => return bad_request(&e),
    };
    // Optional previously-crawled version: its presence turns the
    // request into an incremental recrawl (delta-aware cache reuse
    // under the options' `delta_sensitivity`).
    let base = match body.get("base") {
        None => None,
        Some(v) if v.is_null() => None,
        Some(v) => match wire::table_from_json(v) {
            Ok(t) => Some(t),
            Err(e) => return bad_request(&format!("base: {e}")),
        },
    };
    let options = match wire::options_from_json(body.get("options")) {
        Ok(o) => o,
        Err(e) => return bad_request(&e),
    };
    enqueue_and_wait(state, lane, tenant, |reply| Job::Single {
        table,
        base,
        options,
        lane,
        tenant,
        reply,
    })
}

fn handle_annotate_batch(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let lane = match lane_from_request(req) {
        Ok(lane) => lane,
        Err(resp) => return resp,
    };
    let tenant = match tenant_from_request(state, req) {
        Ok(tenant) => tenant,
        Err(resp) => return resp,
    };
    let Some(tables_json) = body.get("tables").and_then(Json::as_array) else {
        return bad_request("batch body must have a \"tables\" array");
    };
    let mut tables = Vec::with_capacity(tables_json.len());
    for (i, t) in tables_json.iter().enumerate() {
        match wire::table_from_json(t) {
            Ok(table) => tables.push(table),
            Err(e) => return bad_request(&format!("table {i}: {e}")),
        }
    }
    let options = match wire::options_from_json(body.get("options")) {
        Ok(o) => o,
        Err(e) => return bad_request(&e),
    };
    enqueue_and_wait(state, lane, tenant, |reply| Job::Batch {
        tables,
        options,
        lane,
        tenant,
        reply,
    })
}

/// `POST /feedback`: the paper's adaptation loop over HTTP. Takes the
/// customer write lock (adaptation is single-writer by design), so it
/// serializes against in-flight annotates; the epoch bump it performs
/// invalidates stale cache entries for every subsequent request.
fn handle_feedback(state: &ServerState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(table_json) = body.get("table") else {
        return bad_request("feedback body must have a \"table\"");
    };
    let table = match wire::table_from_json(table_json) {
        Ok(t) => t,
        Err(e) => return bad_request(&e),
    };
    let Some(col_idx) = body.get("col_idx").and_then(Json::as_usize) else {
        return bad_request("feedback body must have an integer \"col_idx\"");
    };
    if col_idx >= table.n_cols() {
        return bad_request(&format!(
            "col_idx {col_idx} out of range for a {}-column table",
            table.n_cols()
        ));
    }
    let Some(type_name) = body.get("type").and_then(Json::as_str) else {
        return bad_request("feedback body must have a string \"type\"");
    };
    let mut typer = state
        .typer
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(ty) = typer.ontology().lookup_exact(type_name) else {
        return bad_request(&format!("unknown type {type_name:?}"));
    };
    typer.feedback(&table, col_idx, ty, None);
    let epoch = typer.cache_epoch();
    Response::json(
        Json::object(vec![("ok", Json::from(true)), ("epoch", Json::from(epoch))]).to_string(),
    )
}

fn lane_metrics(state: &ServerState, lane: TrafficLane) -> Json {
    let counters = state.shaper.counters(lane);
    let ledger = state.shaper.lane_ledger(lane);
    Json::object(vec![
        ("served", Json::from(counters.served())),
        ("shed", Json::from(counters.shed())),
        ("degraded", Json::from(counters.degraded())),
        ("delta_reused", Json::from(counters.delta_reused())),
        ("spent_nanos", Json::from(ledger.total_spent_nanos())),
        ("window_budget_nanos", Json::from(ledger.window_budget())),
        (
            "window_remaining_nanos",
            Json::from(ledger.remaining_nanos()),
        ),
    ])
}

/// Per-tenant `/metrics` object: one entry per interned tenant with
/// its fairness weight and per-lane spend/deficit/serving counters.
fn tenant_metrics(snapshots: &[TenantSnapshot]) -> Json {
    Json::object(
        snapshots
            .iter()
            .map(|t| {
                let lanes = t
                    .lanes
                    .iter()
                    .map(|l| {
                        (
                            l.lane.label(),
                            Json::object(vec![
                                ("spent_nanos", Json::from(l.spent_nanos)),
                                ("deficit_nanos", Json::from(l.deficit_nanos)),
                                ("served", Json::from(l.served)),
                                ("shed", Json::from(l.shed)),
                                ("degraded", Json::from(l.degraded)),
                                ("over_quota", Json::from(l.over_quota)),
                            ]),
                        )
                    })
                    .collect();
                (
                    t.name.as_str(),
                    Json::object(vec![
                        ("weight", Json::from(t.weight)),
                        ("lanes", Json::object(lanes)),
                    ]),
                )
            })
            .collect(),
    )
}

fn cache_stats_json(stats: &CacheStats) -> Json {
    Json::object(vec![
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("inserts", Json::from(stats.inserts)),
        ("evictions", Json::from(stats.evictions)),
        ("entries", Json::from(stats.entries)),
    ])
}

fn handle_metrics(state: &ServerState) -> Response {
    let typer = state
        .typer
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cache = typer.step_cache().map(|c| c.stats());
    let epoch = typer.cache_epoch();
    drop(typer);
    let (cache_json, delta_json) = match cache {
        Some(stats) => {
            let mut baseline = state
                .metrics_baseline
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let delta = stats.since(&baseline);
            *baseline = stats;
            (cache_stats_json(&stats), cache_stats_json(&delta))
        }
        None => (Json::Null, Json::Null),
    };
    let mut served = 0u64;
    let mut shed = 0u64;
    for lane in TrafficLane::ALL {
        let c = state.shaper.counters(lane);
        served += c.served();
        shed += c.shed();
    }
    let shed_rate = if served + shed == 0 {
        0.0
    } else {
        shed as f64 / (served + shed) as f64
    };
    let body = Json::object(vec![
        ("queue_depth", Json::from(state.queue.len())),
        ("queue_capacity", Json::from(state.queue.capacity())),
        (
            "in_flight",
            Json::from(state.in_flight.load(Ordering::SeqCst)),
        ),
        ("workers", Json::from(state.workers)),
        ("epoch", Json::from(epoch)),
        (
            "lanes",
            Json::object(vec![
                (
                    TrafficLane::Interactive.label(),
                    lane_metrics(state, TrafficLane::Interactive),
                ),
                (
                    TrafficLane::Crawl.label(),
                    lane_metrics(state, TrafficLane::Crawl),
                ),
            ]),
        ),
        ("shed_rate", Json::from(shed_rate)),
        (
            "tenants",
            tenant_metrics(&state.shaper.registry().snapshot()),
        ),
        ("cache", cache_json),
        ("cache_delta", delta_json),
    ]);
    Response::json(body.to_string())
}

fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/annotate") => handle_annotate(state, req),
        ("POST", "/annotate_batch") => handle_annotate_batch(state, req),
        ("POST", "/feedback") => handle_feedback(state, req),
        ("GET", "/metrics") => handle_metrics(state),
        ("GET", "/healthz") => {
            Response::json(Json::object(vec![("ok", Json::from(true))]).to_string())
        }
        ("POST", "/shutdown") => {
            state.shutdown_requested.store(true, Ordering::SeqCst);
            Response::json(
                Json::object(vec![
                    ("ok", Json::from(true)),
                    ("draining", Json::from(true)),
                ])
                .to_string(),
            )
        }
        (
            _,
            "/annotate" | "/annotate_batch" | "/feedback" | "/metrics" | "/healthz" | "/shutdown",
        ) => Response::status(405)
            .with_json(Json::object(vec![("error", Json::from("method not allowed"))]).to_string()),
        _ => Response::status(404)
            .with_json(Json::object(vec![("error", Json::from("no such endpoint"))]).to_string()),
    }
}
