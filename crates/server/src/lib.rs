//! Long-running HTTP/1.1 + JSON annotation server over the SigmaTyper
//! sync core — the front-end that turns the engine of PRs 1–6 into the
//! paper's actual deployment shape: one shared global model serving
//! live traffic (§4), with the two-lane budgets (interactive and crawl)
//! at the door.
//!
//! # Architecture
//!
//! ```text
//! clients ──HTTP──▶ httpshim (1 thread/conn) ──▶ WorkerPool: BoundedQueue ──▶ workers ──▶ AnnotationService
//!                        │ 503 + Retry-After ◀──┘ (full)                         │
//!                        ◀──────────────────── reply channel ◀───────────────────┘
//! ```
//!
//! * **Admission** ([`WorkerPool`] + [`TrafficShaper`]): every
//!   request is queued or shed — never buffered without bound. A full
//!   queue answers `503 Service Unavailable` with a `Retry-After`
//!   derived from the shedding lane's actual window-refill time, never
//!   below one second. Cutoffs are tiered by lane
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
//!   the shared `anonymous` account). New names are interned only
//!   while the registry holds fewer than 1,024 tenants; past that, a
//!   name it does not hold is refused with `400`. Per-tenant weighted
//!   deficits decide who is over quota. An in-quota tenant past its
//!   share of the window spends burst credit only from budget that no
//!   other in-quota tenant's unspent share claims, and an over-quota
//!   tenant's requests run under a cap carved from the lane window's
//!   *unreserved* remainder (in-quota tenants' outstanding deficits
//!   are protected), so heavy tenants degrade first while light
//!   tenants keep their entitlement.
//!   Shaping never changes annotation results — only scheduling,
//!   shedding, and which requests degrade. The registry holds the one
//!   set of serving books: `/metrics` reports each lane's served, shed,
//!   degraded and reused counts and its spend as sums over its
//!   tenants, from the same snapshot as the `tenants` section, so the
//!   two agree within a scrape. Spend counts settled requests only.
//! * **Workers** ([`WorkerPool`]): a fixed pool popping jobs and
//!   driving one long-lived [`AnnotationService`]. Every served
//!   request is one call to
//!   [`AnnotationService::annotate_batch_request_shaped`]: a batch is
//!   one shaped batch, and a single `/annotate` is a batch of one
//!   with its optional base. A job that panics costs only itself: the
//!   worker answers `500` with a JSON error, counts the panic in
//!   `/metrics`, and pops the next job.
//! * **Feedback**: `POST /feedback` takes the service write lock,
//!   runs the paper's adaptation loop, and bumps the in-memory epoch —
//!   connected clients observe the invalidation on their next request:
//!   lookup and embedding entries all miss, header entries only under
//!   a header whose `Wg` the correction changed. A panic
//!   inside the loop answers `500` and is counted in `/metrics`
//!   `panics` too. `/metrics` `feedback` counts the loops that
//!   returned (`served`), their summed wall time inside the lock hold
//!   (`nanos`), and the local training rows and labeling functions
//!   (`training_rows`, `local_lfs`) the customer holds.
//! * **Graceful shutdown** ([`AnnotationServer::shutdown`]): stop
//!   accepting, drain every in-flight response, close the queue, join
//!   the workers, [`flush`](AnnotationService::flush) the cache tier.
//!   No admitted request is dropped. The epoch file still holds the
//!   epoch the server started with, so a restart answers as the
//!   customer as built, from the entries written before any feedback.
//!
//! # Endpoints
//!
//! | Method | Path              | Body / effect |
//! |--------|-------------------|---------------|
//! | POST   | `/annotate`       | `{"table": …, "options"?: …}` → one outcome |
//! | POST   | `/annotate_batch` | `{"tables": […], "options"?: …}` → outcomes in order |
//! | POST   | `/feedback`       | `{"table": …, "col_idx": n, "type": "name"}` → adaptation + epoch bump (header entries survive unless their `Wg` changed) |
//! | GET    | `/metrics`        | queue depth, in-flight, panics, per-lane spend/shed (sums over the tenants), per-tenant counters, cache stats (global halves included) + delta, feedback cost (served, adaptation-loop nanos, training rows, local LFs) |
//! | GET    | `/healthz`        | liveness |
//! | POST   | `/shutdown`       | request graceful drain (for operators/CI) |
//!
//! [`BudgetLedger`]: sigmatyper::BudgetLedger
//! [`LaneLedger`]: sigmatyper::LaneLedger

#![warn(missing_docs)]

mod pool;
pub mod wire;

pub use crate::pool::WorkerPool;

use crate::wire::{AnnotateBody, BatchBody, FeedbackBody};
use httpshim::{HttpServer, Request, Response};
use jsonshim::Json;
use sigmatyper::cache::{CacheStats, GlobalPartStats, GlobalPartStore};
use sigmatyper::request::{AnnotationOutcome, RequestOptions};
use sigmatyper::service::{AnnotationService, QueueRejection, TrafficLane};
use sigmatyper::tenant::{
    TenantId, TenantLaneSnapshot, TenantRegistry, TenantSnapshot, TrafficShaper, ANONYMOUS_TENANT,
};
use sigmatyper::SigmaTyper;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tu_ontology::Ontology;
use tu_table::Table;

/// Longest accepted `x-sigma-tenant` value: tenant names are interned
/// forever, so unbounded attacker-chosen names would be a memory leak.
const MAX_TENANT_NAME_LEN: usize = 128;

/// Most tenants the registry may hold before an `x-sigma-tenant` name
/// it does not know is refused: every interned tenant lives forever,
/// shows up in `/metrics`, is walked by every shaping decision, and
/// dilutes every other tenant's quantum with its weight.
const MAX_TENANTS: usize = 1024;

/// Fewest seconds a `503`'s `Retry-After` advertises. A budgeted lane
/// advertises the time until its window refills when that is longer.
const RETRY_AFTER_FLOOR_SECS: u64 = 1;

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
    /// Tenants registered at startup with explicit fairness weights
    /// (`(name, weight)`); weight is relative share of each lane's
    /// window. Tenants not listed here are interned on first sight at
    /// weight 1.0, as is the `anonymous` account for requests without
    /// an `x-sigma-tenant` header; a new header name is interned only
    /// while the registry holds fewer than 1,024 tenants.
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
            tenant_weights: Vec::new(),
        }
    }
}

struct ServerState {
    /// The serve loop: admission queue, workers, the long-lived
    /// service and the shaper. A job answers with its response body.
    pool: WorkerPool<String>,
    shutdown_requested: AtomicBool,
    /// Baseline for the `/metrics` cache delta: stats at the previous
    /// scrape.
    metrics_baseline: Mutex<CacheStats>,
    /// Feedbacks whose adaptation loop returned, and that loop's summed
    /// wall time. Both move only under the service write lock and are
    /// read under its read lock, which orders them with the local model
    /// they describe.
    feedback_served: AtomicU64,
    feedback_nanos: AtomicU64,
}

impl ServerState {
    /// `Retry-After` for a shed on `lane`: time until the lane's
    /// budget window refills (rounded up), floored at
    /// [`RETRY_AFTER_FLOOR_SECS`]. Unbudgeted lanes have no refill
    /// event, so they advertise the floor.
    fn retry_after(&self, lane: TrafficLane) -> u64 {
        match self.pool.shaper().lane_ledger(lane).window_remaining() {
            Some(left) => RETRY_AFTER_FLOOR_SECS.max(left.as_secs_f64().ceil() as u64),
            None => RETRY_AFTER_FLOOR_SECS,
        }
    }

    fn shed_response(&self, lane: TrafficLane, why: QueueRejection) -> Response {
        let detail = match why {
            QueueRejection::Full => "annotation queue is full",
            QueueRejection::Closed => "server is draining for shutdown",
        };
        Response::status(503)
            .with_header("Retry-After", &self.retry_after(lane).to_string())
            .with_json(
                Json::object(vec![
                    ("error", Json::from(detail)),
                    ("lane", Json::from(lane.label())),
                ])
                .to_string(),
            )
    }
}

/// A running annotation server: the HTTP front on a [`WorkerPool`]
/// over one customer [`SigmaTyper`], served through one long-lived
/// [`AnnotationService`].
pub struct AnnotationServer {
    http: HttpServer,
    state: Arc<ServerState>,
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
        let shaper = TrafficShaper::new(
            registry,
            config.interactive_budget_nanos,
            config.crawl_budget_nanos,
            config.budget_window,
        );
        let state = Arc::new(ServerState {
            pool: WorkerPool::start(
                AnnotationService::for_customer(typer),
                shaper,
                config.workers,
                config.queue_capacity,
            ),
            shutdown_requested: AtomicBool::new(false),
            metrics_baseline: Mutex::new(CacheStats::default()),
            feedback_served: AtomicU64::new(0),
            feedback_nanos: AtomicU64::new(0),
        });
        let handler_state = Arc::clone(&state);
        let http = HttpServer::bind(addr, move |req: &Request| route(&handler_state, req))?;
        Ok(AnnotationServer { http, state })
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
    /// cache tier. Returns the flush result. The epoch file needs no
    /// work here: [`DurableEpochSource`] writes it only at open, and it
    /// keeps naming the customer as built, whose entries a restart
    /// reads. The local model is not persisted, so a restart forgets
    /// every feedback this server took.
    ///
    /// [`DurableEpochSource`]: sigmatyper::diskcache::DurableEpochSource
    pub fn shutdown(mut self) -> io::Result<()> {
        // 1. Stop accepting; connection threads finish the request
        //    they are serving (each blocks on its worker's reply).
        self.http.shutdown();
        self.http.join();
        // 2. No connections remain, so no new jobs can arrive: let the
        //    workers drain what was admitted.
        self.state.pool.shutdown();
        // 3. Durable state: sync the cache segment.
        self.state.pool.service().flush()
    }
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

/// The tenant name a request bills to, from its `x-sigma-tenant`
/// header: absent → the shared `anonymous` account. Empty or oversized
/// names are rejected here, before the body's table is checked; the
/// name is interned only after the table decoded ([`intern_tenant`]).
fn tenant_name(req: &Request) -> Result<&str, Response> {
    match req.header("x-sigma-tenant") {
        None => Ok(ANONYMOUS_TENANT),
        Some("") => Err(bad_request("x-sigma-tenant must not be empty when present")),
        Some(name) if name.len() > MAX_TENANT_NAME_LEN => Err(bad_request(&format!(
            "x-sigma-tenant is limited to {MAX_TENANT_NAME_LEN} bytes"
        ))),
        Some(name) => Ok(name),
    }
}

/// Resolve `name` to its tenant. `anonymous` and every name the
/// registry already holds (pre-registered ones included) resolve as
/// always; a new name is interned at weight 1.0 only while the
/// registry holds fewer than [`MAX_TENANTS`], and refused otherwise.
fn intern_tenant(state: &ServerState, name: &str) -> Result<TenantId, Response> {
    let registry = state.pool.shaper().registry();
    if name == ANONYMOUS_TENANT {
        return Ok(registry.intern(name));
    }
    registry.intern_bounded(name, MAX_TENANTS).ok_or_else(|| {
        bad_request(&format!(
            "x-sigma-tenant {name:?} is not a known tenant, and the server already \
             tracks its limit of {MAX_TENANTS} tenants"
        ))
    })
}

fn bad_request(message: &str) -> Response {
    Response::status(400).with_json(Json::object(vec![("error", Json::from(message))]).to_string())
}

/// A request body read by [`read_body`]: decoded by the streaming
/// codec, or, when that declined it, parsed into the tree the
/// reference decoder reads and words its 400 from.
enum Body<T> {
    Streamed(T),
    Tree(Json),
}

/// Read a request body: the streaming decoder first, else the parse
/// that yields the reference path's UTF-8 or JSON error. Header checks
/// belong between this and [`Body::decode`]: on the reference path a
/// parse error has always been reported before a bad header, and a
/// bad header before a bad table.
fn read_body<T>(req: &Request, stream: fn(&str) -> Option<T>) -> Result<Body<T>, Response> {
    let text = req
        .body_str()
        .ok_or_else(|| bad_request("request body must be UTF-8"))?;
    if let Some(decoded) = stream(text) {
        return Ok(Body::Streamed(decoded));
    }
    Json::parse(text)
        .map(Body::Tree)
        .map_err(|e| bad_request(&format!("invalid JSON body: {e}")))
}

impl<T> Body<T> {
    fn decode(self, from_json: fn(&Json) -> Result<T, String>) -> Result<T, Response> {
        match self {
            Body::Streamed(decoded) => Ok(decoded),
            Body::Tree(json) => from_json(&json).map_err(|e| bad_request(&e)),
        }
    }
}

/// Serve `tables` (the first with `/annotate`'s optional `base`) on
/// the pool as one call to
/// [`AnnotationService::annotate_batch_request_shaped`] and answer
/// with `encode`'s body: `503` when admission sheds it, `500` when it
/// panicked. The tenant is interned only now, after the tables
/// decoded. The tables move into the job, so the worker frees them
/// after this request has its answer.
fn serve(
    state: &ServerState,
    lane: TrafficLane,
    tenant: &str,
    tables: Vec<Table>,
    base: Option<Table>,
    options: RequestOptions,
    encode: fn(&[AnnotationOutcome], &Ontology) -> String,
) -> Result<Response, Response> {
    let tenant = intern_tenant(state, tenant)?;
    let options = RequestOptions {
        tenant: Some(tenant),
        ..options
    };
    let served = state.pool.submit(lane, tenant, move |service, shaper| {
        let outcomes = service.annotate_batch_request_shaped(
            &tables,
            &[base.as_ref()],
            &options,
            shaper,
            lane,
        );
        encode(&outcomes, service.typer().ontology())
    });
    Ok(match served {
        Ok(Some(body)) => Response::json(body),
        Ok(None) => internal_error(),
        Err(why) => state.shed_response(lane, why),
    })
}

/// The JSON `500` a request gets when a step panicked while serving it.
fn internal_error() -> Response {
    Response::status(500).with_json(
        Json::object(vec![(
            "error",
            Json::from("annotation failed: internal error"),
        )])
        .to_string(),
    )
}

/// `POST /annotate`: a batch of one, with the body's optional base.
/// Errors are reported in the order the reference path always has:
/// body, lane header, tenant header, then the body's tables.
fn handle_annotate(state: &ServerState, req: &Request) -> Response {
    read_body(req, AnnotateBody::stream)
        .and_then(|body| {
            let (lane, tenant) = (lane_from_request(req)?, tenant_name(req)?);
            let body = body.decode(AnnotateBody::from_json)?;
            serve(
                state,
                lane,
                tenant,
                vec![body.table],
                body.base,
                body.options,
                |outcomes, ontology| wire::encode_outcome(&outcomes[0], ontology),
            )
        })
        .unwrap_or_else(|resp| resp)
}

/// `POST /annotate_batch`: the body's tables as one shaped batch.
fn handle_annotate_batch(state: &ServerState, req: &Request) -> Response {
    read_body(req, BatchBody::stream)
        .and_then(|body| {
            let (lane, tenant) = (lane_from_request(req)?, tenant_name(req)?);
            let body = body.decode(BatchBody::from_json)?;
            serve(
                state,
                lane,
                tenant,
                body.tables,
                None,
                body.options,
                wire::encode_outcomes,
            )
        })
        .unwrap_or_else(|resp| resp)
}

/// `POST /feedback`: the paper's adaptation loop over HTTP. Takes the
/// service write lock (adaptation is single-writer by design), so it
/// serializes against in-flight annotates; the epoch bump it performs
/// retires every column-scoped cache entry for every subsequent
/// request, and the header step's entries retire only under the header
/// whose `Wg` state the correction changed, since their key hashes
/// that state instead of the epoch. The bump is in memory: the lock
/// hold does no file I/O, and the epoch file keeps the epoch the
/// server started with (see [`AnnotationServer::shutdown`]). A
/// step that panics inside the loop costs this request only: it gets
/// the JSON `500`, `/metrics` counts it in `panics`, and the epoch
/// still moves on, since the loop may have changed the local model
/// before the panic.
fn handle_feedback(state: &ServerState, req: &Request) -> Response {
    let FeedbackBody {
        table,
        col_idx,
        type_name,
    } = match read_body(req, FeedbackBody::stream).and_then(|b| b.decode(FeedbackBody::from_json)) {
        Ok(body) => body,
        Err(resp) => return resp,
    };
    let mut service = state.pool.service_mut();
    let typer = service.typer_mut();
    let Some(ty) = typer.ontology().lookup_exact(&type_name) else {
        return bad_request(&format!("unknown type {type_name:?}"));
    };
    // Caught while the write guard is held, so the lock is never
    // poisoned, and counted in `/metrics` `panics`.
    let started = Instant::now();
    if state
        .pool
        .contain(|| typer.feedback(&table, col_idx, ty, None))
        .is_none()
    {
        typer.invalidate_cache();
        return internal_error();
    }
    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    state.feedback_served.fetch_add(1, Ordering::Relaxed);
    state.feedback_nanos.fetch_add(nanos, Ordering::Relaxed);
    let epoch = typer.cache_epoch();
    Response::json(
        Json::object(vec![("ok", Json::from(true)), ("epoch", Json::from(epoch))]).to_string(),
    )
}

/// Sum `of` over the tenants' books on every lane `on` accepts.
fn books_sum(
    tenants: &[TenantSnapshot],
    on: impl Fn(TrafficLane) -> bool,
    of: fn(&TenantLaneSnapshot) -> u64,
) -> u64 {
    tenants
        .iter()
        .flat_map(|t| &t.lanes)
        .filter(|books| on(books.lane))
        .map(of)
        .fold(0, u64::saturating_add)
}

/// One lane's `/metrics` object: its counts and spend summed over the
/// tenants' books in `tenants`, beside its live window.
fn lane_metrics(shaper: &TrafficShaper, lane: TrafficLane, tenants: &[TenantSnapshot]) -> Json {
    let ledger = shaper.lane_ledger(lane);
    let sum = |of| Json::from(books_sum(tenants, |l| l == lane, of));
    Json::object(vec![
        ("served", sum(|b| b.served)),
        ("shed", sum(|b| b.shed)),
        ("degraded", sum(|b| b.degraded)),
        ("delta_reused", sum(|b| b.delta_reused)),
        ("spent_nanos", sum(|b| b.spent_nanos)),
        ("window_budget_nanos", Json::from(ledger.window_budget())),
        (
            "window_remaining_nanos",
            Json::from(ledger.remaining_nanos()),
        ),
    ])
}

/// Per-tenant `/metrics` object: one entry per interned tenant with
/// its fairness weight and per-lane spend/deficit/serving counters,
/// the books each lane's counts are summed from.
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
                                ("delta_reused", Json::from(l.delta_reused)),
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

/// A step cache's counters, as `/metrics` reports them.
fn cache_stats_members(stats: &CacheStats) -> Vec<(&'static str, Json)> {
    vec![
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("inserts", Json::from(stats.inserts)),
        ("evictions", Json::from(stats.evictions)),
        ("entries", Json::from(stats.entries)),
    ]
}

/// The `cache` section: the step cache's counters plus, under
/// `global_parts`, those of the store of global halves it owns (`null`
/// for a backend without one).
fn cache_json(stats: &CacheStats, parts: Option<GlobalPartStats>) -> Json {
    let parts = parts.map_or(Json::Null, |p| {
        Json::object(vec![
            ("hits", Json::from(p.hits)),
            ("misses", Json::from(p.misses)),
            ("entries", Json::from(p.entries)),
            ("bytes", Json::from(p.bytes)),
        ])
    });
    let mut members = cache_stats_members(stats);
    members.push(("global_parts", parts));
    Json::object(members)
}

fn handle_metrics(state: &ServerState) -> Response {
    let pool = &state.pool;
    let service = pool.service();
    let cache = service.cache_stats();
    let parts = service
        .typer()
        .step_cache()
        .and_then(|cache| cache.global_parts())
        .map(GlobalPartStore::stats);
    let epoch = service.typer().cache_epoch();
    let feedback = Json::object(vec![
        (
            "served",
            Json::from(state.feedback_served.load(Ordering::Relaxed)),
        ),
        (
            "nanos",
            Json::from(state.feedback_nanos.load(Ordering::Relaxed)),
        ),
        (
            "training_rows",
            Json::from(service.typer().local().training.len()),
        ),
        ("local_lfs", Json::from(service.typer().local().lfs.len())),
    ]);
    drop(service);
    let (cache_json, delta_json) = match cache {
        Some(stats) => {
            let mut baseline = state
                .metrics_baseline
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let delta = stats.since(&baseline);
            *baseline = stats;
            (
                cache_json(&stats, parts),
                Json::object(cache_stats_members(&delta)),
            )
        }
        None => (Json::Null, Json::Null),
    };
    let shaper = pool.shaper();
    let tenants = shaper.registry().snapshot();
    let served = books_sum(&tenants, |_| true, |b| b.served);
    let shed = books_sum(&tenants, |_| true, |b| b.shed);
    let shed_rate = if served + shed == 0 {
        0.0
    } else {
        shed as f64 / (served + shed) as f64
    };
    let body = Json::object(vec![
        ("queue_depth", Json::from(pool.queue_depth())),
        ("queue_capacity", Json::from(pool.queue_capacity())),
        ("in_flight", Json::from(pool.in_flight())),
        ("workers", Json::from(pool.workers())),
        ("panics", Json::from(pool.panics())),
        ("epoch", Json::from(epoch)),
        (
            "lanes",
            Json::object(vec![
                (
                    TrafficLane::Interactive.label(),
                    lane_metrics(shaper, TrafficLane::Interactive, &tenants),
                ),
                (
                    TrafficLane::Crawl.label(),
                    lane_metrics(shaper, TrafficLane::Crawl, &tenants),
                ),
            ]),
        ),
        ("shed_rate", Json::from(shed_rate)),
        ("tenants", tenant_metrics(&tenants)),
        ("cache", cache_json),
        ("cache_delta", delta_json),
        ("feedback", feedback),
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

#[cfg(test)]
mod tests {
    use super::*;
    use sigmatyper::tenant::{lane_index, ShapedBudget};

    const WINDOW: Duration = Duration::from_millis(10);

    /// A shaper whose interactive lane grants 10 µs of step work per
    /// 10 ms window, and its two tenants.
    fn two_tenant_shaper() -> (TrafficShaper, TenantId, TenantId) {
        let registry = Arc::new(TenantRegistry::new());
        let (a, b) = (registry.intern("a"), registry.intern("b"));
        (
            TrafficShaper::new(registry, Some(10_000), None, WINDOW),
            a,
            b,
        )
    }

    /// The interactive lane's `/metrics` spend, and tenant `t`'s.
    fn spend(shaper: &TrafficShaper, t: TenantId) -> (u64, u64) {
        let tenants = shaper.registry().snapshot();
        let lane = lane_metrics(shaper, TrafficLane::Interactive, &tenants);
        (
            lane.get("spent_nanos")
                .and_then(Json::as_u64)
                .expect("lane spent_nanos"),
            tenants[t.index()].lanes[lane_index(TrafficLane::Interactive)].spent_nanos,
        )
    }

    /// A lane reports the spend its tenants were charged, also when
    /// the window a request drew on rolled before it settled.
    #[test]
    fn lane_spend_counts_what_settles_after_a_window_rolls() {
        let lane = TrafficLane::Interactive;

        // An explicit budget runs on a private ledger; another request
        // rolls the window before it settles.
        let (shaper, a, b) = two_tenant_shaper();
        let grant = shaper.request_budget(lane, a, Some(4_000));
        assert!(matches!(grant, ShapedBudget::Local { .. }), "{grant:?}");
        std::thread::sleep(WINDOW + Duration::from_millis(5));
        let _ = shaper.request_budget(lane, b, None);
        shaper.settle(lane, a, &grant, 2_500, 0, 0);
        assert_eq!(spend(&shaper, a), (2_500, 2_500));

        // A request on the shared window ledger is charged before and
        // after another request rolls the window, then settles.
        let (shaper, a, b) = two_tenant_shaper();
        let grant = shaper.request_budget(lane, a, None);
        let ShapedBudget::Shared(window) = &grant else {
            panic!("an in-quota unbudgeted request shares the window: {grant:?}");
        };
        window.charge(100);
        std::thread::sleep(WINDOW + Duration::from_millis(5));
        let _ = shaper.request_budget(lane, b, None);
        window.charge(500);
        shaper.settle(lane, a, &grant, 600, 0, 0);
        assert_eq!(spend(&shaper, a), (600, 600));
    }
}
