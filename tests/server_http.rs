//! End-to-end tests of the HTTP annotation server: the loopback wire
//! path must be **bit-identical** to the direct in-process call, the
//! bounded queue must shed with 503 (crawl lane first), feedback must
//! invalidate the warm cache through an epoch bump, a panicking step
//! must cost one request and never a worker, and graceful shutdown
//! must lose no in-flight response while leaving the disk tier
//! consistent for a warm restart.

use httpshim::HttpClient;
use jsonshim::Json;
use sigmatyper::{
    train_global, AnnotationRequest, AnnotationStep, DurableEpochSource, GlobalModel, SigmaTyper,
    StepContext, StepId, StepScores, TieredStepCache, TrainingConfig,
};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_server::{AnnotationServer, ServerConfig};
use tu_table::Table;

/// Temp dir removed on drop, pass or fail.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "sigmatyper-server-http-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn demo_global(seed: u64) -> (Arc<GlobalModel>, Vec<Table>) {
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(seed, 24));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
    let tables = corpus.tables.iter().map(|at| at.table.clone()).collect();
    (global, tables)
}

fn demo_typer(seed: u64) -> (SigmaTyper, Vec<Table>) {
    let (global, tables) = demo_global(seed);
    (SigmaTyper::builder(global).build(), tables)
}

/// Encode a [`Table`] into the server's request wire format.
fn table_to_request_json(table: &Table) -> String {
    let columns: Vec<Json> = table
        .columns()
        .iter()
        .map(|col| {
            let values: Vec<Json> = col.values.iter().map(|v| Json::from(v.render())).collect();
            Json::object(vec![
                ("header", Json::from(col.name.as_str())),
                ("values", Json::Arr(values)),
            ])
        })
        .collect();
    Json::object(vec![
        ("name", Json::from(table.name.as_str())),
        ("columns", Json::Arr(columns)),
    ])
    .to_string()
}

/// The request body for `POST /annotate`.
fn annotate_body(table: &Table) -> String {
    format!(r#"{{"table":{}}}"#, table_to_request_json(table))
}

/// A wire round trip re-types cells from rendered strings, so the
/// direct baseline must annotate the same re-typed table the server
/// sees — decode through the same codec the server uses.
fn wire_table(table: &Table) -> Table {
    let doc = Json::parse(&table_to_request_json(table)).expect("wire table json");
    tu_server::wire::table_from_json(&doc).expect("wire table decode")
}

/// Zero out `degradation.spent_nanos` — wall-clock telemetry, the one
/// legitimately nondeterministic field of an outcome. Everything else
/// (predictions, confidences to the bit, step traces, skip reports)
/// must match exactly.
fn normalize_outcome(outcome: &Json) -> String {
    let mut v = outcome.clone();
    if let Json::Obj(fields) = &mut v {
        for (key, value) in fields.iter_mut() {
            if key == "degradation" {
                if let Json::Obj(report) = value {
                    for (rk, rv) in report.iter_mut() {
                        if rk == "spent_nanos" {
                            *rv = Json::from(0u64);
                        }
                    }
                }
            }
        }
    }
    v.to_string()
}

fn normalize_body(body: &str) -> String {
    normalize_outcome(&Json::parse(body).expect("outcome json"))
}

#[test]
fn concurrent_http_annotate_is_bit_identical_to_direct() {
    let (typer, tables) = demo_typer(41);
    let tables: Vec<Table> = tables.into_iter().take(4).collect();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer.clone(),
        &ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // The golden baselines: direct annotate of exactly the table the
    // wire delivers, encoded by the same codec the server replies
    // with. Any drift — a lossy float, a reordered key, a different
    // cascade decision — breaks equality.
    let expected: Vec<String> = tables
        .iter()
        .map(|t| {
            let outcome = typer.annotate_request(&AnnotationRequest::new(&wire_table(t)));
            normalize_outcome(&tu_server::wire::outcome_to_json(
                &outcome,
                typer.ontology(),
            ))
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let tables = &tables;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for round in 0..3 {
                    let i = (worker + round) % tables.len();
                    let lane = if worker % 2 == 0 {
                        [("x-sigma-lane", "interactive")]
                    } else {
                        [("x-sigma-lane", "crawl")]
                    };
                    let resp = client
                        .post_json("/annotate", &annotate_body(&tables[i]), &lane)
                        .expect("annotate");
                    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
                    assert_eq!(
                        normalize_body(&resp.body_str()),
                        expected[i],
                        "HTTP outcome diverged from direct annotate (table {i})"
                    );
                }
            });
        }
    });

    // The batch endpoint rides the two-level scheduler but must agree
    // with the same baselines, in order.
    let mut client = HttpClient::connect(addr).expect("connect");
    let batch_body = format!(
        r#"{{"tables":[{}]}}"#,
        tables
            .iter()
            .map(table_to_request_json)
            .collect::<Vec<_>>()
            .join(",")
    );
    let resp = client
        .post_json("/annotate_batch", &batch_body, &[])
        .expect("batch");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    let parsed = Json::parse(&resp.body_str()).expect("batch json");
    let outcomes = parsed
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("outcomes array");
    assert_eq!(outcomes.len(), tables.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            normalize_outcome(outcome),
            expected[i],
            "batch outcome {i} diverged from direct annotate"
        );
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn saturated_queue_sheds_crawl_first_and_metrics_account_for_everything() {
    let (typer, tables) = demo_typer(42);
    let table = &tables[0];

    // Capacity 1: the crawl lane's half-capacity cutoff is 0, so crawl
    // is always shed while interactive is still served — deterministic
    // "crawl degrades first" without racing the worker.
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer.clone(),
        &ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let crawl = client
        .post_json(
            "/annotate",
            &annotate_body(table),
            &[("x-sigma-lane", "crawl")],
        )
        .expect("crawl request");
    assert_eq!(crawl.status, 503, "crawl must shed on a saturated queue");
    assert_eq!(crawl.header("Retry-After"), Some("1"));
    let shed_body = Json::parse(&crawl.body_str()).expect("shed json");
    assert_eq!(
        shed_body.get("lane").and_then(Json::as_str),
        Some("crawl"),
        "shed response must name the lane"
    );

    let interactive = client
        .post_json("/annotate", &annotate_body(table), &[])
        .expect("interactive request");
    assert_eq!(
        interactive.status, 200,
        "interactive must still be served while crawl sheds"
    );

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let m = Json::parse(&metrics.body_str()).expect("metrics json");
    let lane = |name: &str, field: &str| {
        m.get("lanes")
            .and_then(|l| l.get(name))
            .and_then(|l| l.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics missing lanes.{name}.{field}"))
    };
    // Every arrival is accounted: 1 interactive served, 1 crawl shed.
    assert_eq!(lane("interactive", "served"), 1);
    assert_eq!(lane("interactive", "shed"), 0);
    assert_eq!(lane("crawl", "served"), 0);
    assert_eq!(lane("crawl", "shed"), 1);
    assert_eq!(m.get("shed_rate").and_then(Json::as_f64), Some(0.5));
    assert_eq!(m.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(m.get("in_flight").and_then(Json::as_u64), Some(0));
    server.shutdown().expect("shutdown");

    // Capacity 0: even interactive sheds — the hard backpressure
    // floor; nothing is ever buffered without bound.
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client
        .post_json("/annotate", &annotate_body(table), &[])
        .expect("request");
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("Retry-After"), Some("1"));

    // Unknown endpoints and wrong methods are refused crisply.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.get("/annotate").expect("405").status, 405);
    server.shutdown().expect("shutdown");
}

/// `x-sigma-tenant` routes each request's spend to a tenant account:
/// a tenant that burns through its weighted share of a budgeted crawl
/// window goes over quota, sheds at the tightened quarter-capacity
/// cutoff with a `Retry-After` derived from the window's refill time,
/// and shows up over-quota in the `/metrics` `tenants` object — while
/// an equal-weight tenant that spent nothing is still served.
#[test]
fn tenant_over_quota_sheds_first_with_window_refill_retry_hint() {
    let (typer, tables) = demo_typer(45);
    let table = &tables[0];

    // Crawl window: microscopic budget, hour-long window. One real
    // annotate overruns the heavy tenant's whole entitlement, and the
    // window never refills mid-test, so standings are deterministic.
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            // Capacity 2: floor(2 * 0.25) = 0, so an over-quota crawl
            // request always sheds, while in-quota crawl (cutoff 0.5,
            // threshold 1) is admitted whenever the queue is idle.
            queue_capacity: 2,
            crawl_budget_nanos: Some(10_000),
            budget_window: Duration::from_secs(3600),
            tenant_weights: vec![("heavy".to_string(), 1.0), ("light".to_string(), 1.0)],
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let crawl_as = |client: &mut HttpClient, tenant: &str| {
        client
            .post_json(
                "/annotate",
                &annotate_body(table),
                &[("x-sigma-lane", "crawl"), ("x-sigma-tenant", tenant)],
            )
            .expect("crawl annotate")
    };

    // First heavy request: in quota (burst credit), served — and its
    // real spend dwarfs the 10 µs entitlement.
    let first = crawl_as(&mut client, "heavy");
    assert_eq!(first.status, 200, "body: {}", first.body_str());

    // Second heavy request: over quota, shed at the quarter cutoff.
    let second = crawl_as(&mut client, "heavy");
    assert_eq!(second.status, 503, "over-quota crawl must shed first");
    let retry_secs: u64 = second
        .header("Retry-After")
        .expect("Retry-After header")
        .parse()
        .expect("integer Retry-After");
    assert!(
        retry_secs > 1,
        "Retry-After must reflect the window's refill time, got {retry_secs}"
    );

    // Standings while heavy is shedding: heavy over quota with its
    // overrun charged, light untouched and in quota.
    let tenant_crawl = |m: &Json, name: &str, field: &str| -> Json {
        m.get("tenants")
            .and_then(|t| t.get(name))
            .and_then(|t| t.get("lanes"))
            .and_then(|l| l.get("crawl"))
            .and_then(|l| l.get(field))
            .cloned()
            .unwrap_or_else(|| panic!("metrics missing tenants.{name}.lanes.crawl.{field}"))
    };
    let m = Json::parse(&client.get("/metrics").expect("metrics").body_str()).expect("metrics");
    assert_eq!(tenant_crawl(&m, "heavy", "served").as_u64(), Some(1));
    assert_eq!(tenant_crawl(&m, "heavy", "shed").as_u64(), Some(1));
    assert_eq!(
        tenant_crawl(&m, "heavy", "over_quota").as_bool(),
        Some(true)
    );
    assert_eq!(
        tenant_crawl(&m, "light", "over_quota").as_bool(),
        Some(false)
    );
    assert!(
        tenant_crawl(&m, "heavy", "spent_nanos")
            .as_u64()
            .unwrap_or(0)
            > 10_000,
        "heavy's charged spend must overrun its entitlement"
    );

    // The equal-weight tenant with no spend is still served.
    let light = crawl_as(&mut client, "light");
    assert_eq!(
        light.status,
        200,
        "in-quota tenant must be served while the heavy one sheds: {}",
        light.body_str()
    );
    let m = Json::parse(&client.get("/metrics").expect("metrics").body_str()).expect("metrics");
    assert_eq!(tenant_crawl(&m, "light", "served").as_u64(), Some(1));
    assert_eq!(tenant_crawl(&m, "light", "shed").as_u64(), Some(0));

    // Tenant names are interned forever, so unbounded values are
    // refused, not leaked.
    let oversized = "t".repeat(200);
    let bad = client
        .post_json(
            "/annotate",
            &annotate_body(table),
            &[("x-sigma-tenant", oversized.as_str())],
        )
        .expect("oversized tenant");
    assert_eq!(bad.status, 400, "body: {}", bad.body_str());

    server.shutdown().expect("shutdown");
}

#[test]
fn feedback_bumps_epoch_and_invalidates_the_warm_cache() {
    let scratch = Scratch::new("feedback");
    let (global, tables) = demo_global(43);
    let table = &tables[0];
    let tier = TieredStepCache::open(scratch.0.join("cache"), 1 << 14).expect("open tier");
    let epochs = DurableEpochSource::open(scratch.0.join("epoch")).expect("open epochs");
    let typer = SigmaTyper::builder(Arc::clone(&global))
        .step_cache(Arc::new(tier))
        .epoch_source(Arc::new(epochs))
        .build();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let scrape = |client: &mut HttpClient| -> Json {
        let resp = client.get("/metrics").expect("metrics");
        assert_eq!(resp.status, 200);
        Json::parse(&resp.body_str()).expect("metrics json")
    };
    let cache_field = |m: &Json, section: &str, field: &str| {
        m.get(section)
            .and_then(|c| c.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics missing {section}.{field}"))
    };

    // Cold, then warm: the second annotate of the same table must be
    // served from the cache tier.
    let first = client
        .post_json("/annotate", &annotate_body(table), &[])
        .expect("cold annotate");
    assert_eq!(first.status, 200);
    // The scrape's value is irrelevant; what matters is its side
    // effect of resetting the /metrics cache_delta baseline, so the
    // warm annotate's delta below covers only the warm request.
    scrape(&mut client);
    let second = client
        .post_json("/annotate", &annotate_body(table), &[])
        .expect("warm annotate");
    assert_eq!(second.status, 200);
    assert_eq!(
        normalize_body(&second.body_str()),
        normalize_body(&first.body_str()),
        "warm annotate must reproduce the cold outcome"
    );
    let warm = scrape(&mut client);
    assert!(
        cache_field(&warm, "cache_delta", "hits") > 0,
        "second annotate must hit the warm cache: {warm}"
    );
    let epoch_before = warm.get("epoch").and_then(Json::as_u64).expect("epoch");

    // The feedback below, replayed on uncached in-process customers:
    // what the server must answer before and after adapting.
    let before = SigmaTyper::builder(Arc::clone(&global)).build();
    let mut adapted = SigmaTyper::builder(Arc::clone(&global)).build();
    let name = adapted.ontology().lookup_exact("name").expect("name type");
    adapted.feedback(&wire_table(table), 0, name, None);
    let direct = |typer: &SigmaTyper, t: &Table| {
        let outcome = typer.annotate_request(&AnnotationRequest::new(&wire_table(t)));
        normalize_outcome(&tu_server::wire::outcome_to_json(
            &outcome,
            typer.ontology(),
        ))
    };
    // A second table whose answer the feedback changes, with a column
    // that reaches a cacheable step (every step after the header
    // matcher memoizes), cached under the old epoch before the
    // feedback.
    let (other, adapted_outcome) = tables[1..]
        .iter()
        .find_map(|t| {
            let reaches_cache = before
                .annotate(&wire_table(t))
                .columns
                .iter()
                .any(|c| c.steps_run.iter().any(|&s| s != StepId::HEADER));
            let want = direct(&adapted, t);
            (reaches_cache && want != direct(&before, t)).then_some((t, want))
        })
        .expect("a table the feedback changes, with a column past the header step");
    let pre = client
        .post_json("/annotate", &annotate_body(other), &[])
        .expect("pre-feedback annotate of the second table");
    assert_eq!(pre.status, 200);

    // Feedback: the adaptation loop runs and the epoch advances, so
    // every warm entry keyed under the old epoch is dead.
    let feedback_body = format!(
        r#"{{"table":{},"col_idx":0,"type":"name"}}"#,
        table_to_request_json(table)
    );
    let fb = client
        .post_json("/feedback", &feedback_body, &[])
        .expect("feedback");
    assert_eq!(fb.status, 200, "body: {}", fb.body_str());
    let fb_json = Json::parse(&fb.body_str()).expect("feedback json");
    assert_eq!(fb_json.get("ok").and_then(Json::as_bool), Some(true));
    let epoch_after = fb_json
        .get("epoch")
        .and_then(Json::as_u64)
        .expect("feedback epoch");
    assert!(
        epoch_after > epoch_before,
        "feedback must bump the epoch ({epoch_before} -> {epoch_after})"
    );

    // The same table recomputes now — misses, not hits.
    let third = client
        .post_json("/annotate", &annotate_body(table), &[])
        .expect("post-feedback annotate");
    assert_eq!(third.status, 200);
    let after = scrape(&mut client);
    assert!(
        cache_field(&after, "cache_delta", "misses") > 0,
        "post-feedback annotate must miss the invalidated cache: {after}"
    );
    assert_eq!(
        after.get("epoch").and_then(Json::as_u64),
        Some(epoch_after),
        "metrics must observe the new epoch"
    );

    // A batch after the adaptation runs on the adapted model: the
    // second table misses everywhere (its entries are keyed under the
    // old epoch), and the batch answers what the adapted customer
    // answers — as does a single annotate, now served from the cache.
    let batch = client
        .post_json(
            "/annotate_batch",
            &format!(r#"{{"tables":[{}]}}"#, table_to_request_json(other)),
            &[],
        )
        .expect("post-feedback batch");
    assert_eq!(batch.status, 200, "body: {}", batch.body_str());
    let after_batch = scrape(&mut client);
    assert!(
        cache_field(&after_batch, "cache_delta", "misses") > 0,
        "post-feedback batch must recompute: {after_batch}"
    );
    assert_eq!(
        cache_field(&after_batch, "cache_delta", "hits"),
        0,
        "post-feedback batch must not read the old epoch's entries: {after_batch}"
    );
    let batch_json = Json::parse(&batch.body_str()).expect("batch json");
    let batch_outcome = &batch_json
        .get("outcomes")
        .and_then(Json::as_array)
        .expect("outcomes array")[0];
    assert_eq!(
        normalize_outcome(batch_outcome),
        adapted_outcome,
        "the post-feedback batch must run on the adapted model"
    );
    let single = client
        .post_json("/annotate", &annotate_body(other), &[])
        .expect("post-feedback annotate of the second table");
    assert_eq!(single.status, 200);
    assert_eq!(
        normalize_body(&single.body_str()),
        adapted_outcome,
        "a single annotate must agree with the batch"
    );

    // Unknown type names are a client error, not a crash.
    let bad = client
        .post_json(
            "/feedback",
            &format!(
                r#"{{"table":{},"col_idx":0,"type":"no-such-type"}}"#,
                table_to_request_json(table)
            ),
            &[],
        )
        .expect("bad feedback");
    assert_eq!(bad.status, 400);

    server.shutdown().expect("shutdown");
}

/// The column header [`PanicOnMarker`] panics on.
const PANIC_MARKER: &str = "panic-marker";

/// A custom step with no opinion that panics on any column headed
/// [`PANIC_MARKER`] — a stand-in for a bug in a customer's step.
#[derive(Debug)]
struct PanicOnMarker;

impl AnnotationStep for PanicOnMarker {
    fn id(&self) -> StepId {
        StepId::custom(7)
    }

    fn name(&self) -> &str {
        "panic_on_marker"
    }

    fn skip(&self, _ctx: &StepContext<'_>) -> bool {
        false
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        assert_ne!(ctx.column().name, PANIC_MARKER, "marker column reached");
        StepScores::default()
    }
}

/// A panic inside a step costs the one request that hit it: that
/// request gets a JSON `500`, the single worker survives to serve the
/// next request, and `/metrics` counts the panic while `in_flight`
/// returns to zero.
#[test]
fn panicking_step_fails_one_request_and_keeps_the_worker() {
    let (global, tables) = demo_global(46);
    let typer = SigmaTyper::builder(global)
        .step_at(0, PanicOnMarker)
        .build();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");

    let marker = format!(
        r#"{{"table":{{"name":"boom","columns":[{{"header":"{PANIC_MARKER}","values":["x","y"]}}]}}}}"#
    );
    let failed = client
        .post_json("/annotate", &marker, &[])
        .expect("marker request");
    assert_eq!(failed.status, 500, "body: {}", failed.body_str());
    let error = Json::parse(&failed.body_str()).expect("500 body is JSON");
    assert!(
        error.get("error").and_then(Json::as_str).is_some(),
        "{error}"
    );

    // A lost worker would leave this request queued forever, so wait
    // for it on a side thread with a deadline instead of hanging.
    let (tx, rx) = mpsc::channel();
    let body = annotate_body(&tables[0]);
    let follow_up = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connect");
        let _ = tx.send(client.post_json("/annotate", &body, &[]));
    });
    let next = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the worker must survive a panicking job")
        .expect("follow-up request");
    follow_up.join().expect("follow-up client thread");
    assert_eq!(next.status, 200, "body: {}", next.body_str());

    let m = Json::parse(&client.get("/metrics").expect("metrics").body_str()).expect("metrics");
    let field = |name: &str| m.get(name).and_then(Json::as_u64);
    assert_eq!(field("in_flight"), Some(0), "{m}");
    assert_eq!(field("panics"), Some(1), "{m}");
    assert_eq!(field("workers"), Some(1), "{m}");
    // Served + shed + panics accounts for both arrivals.
    let interactive = |f: &str| {
        m.get("lanes")
            .and_then(|l| l.get("interactive"))
            .and_then(|l| l.get(f))
            .and_then(Json::as_u64)
    };
    assert_eq!(
        (interactive("served"), interactive("shed")),
        (Some(1), Some(0))
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn graceful_shutdown_drains_in_flight_and_leaves_disk_state_warm() {
    let scratch = Scratch::new("shutdown");
    let (global, tables) = demo_global(44);
    let tier = TieredStepCache::open(scratch.0.join("cache"), 1 << 14).expect("open tier");
    let epochs = DurableEpochSource::open(scratch.0.join("epoch")).expect("open epochs");
    let typer = SigmaTyper::builder(global)
        .step_cache(Arc::new(tier))
        .epoch_source(Arc::new(epochs))
        .build();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Feedback once so a warm restart has a non-zero epoch to agree
    // on, then record it.
    let mut client = HttpClient::connect(addr).expect("connect");
    let fb = client
        .post_json(
            "/feedback",
            &format!(
                r#"{{"table":{},"col_idx":0,"type":"name"}}"#,
                table_to_request_json(&tables[0])
            ),
            &[],
        )
        .expect("feedback");
    assert_eq!(fb.status, 200);
    let epoch = Json::parse(&fb.body_str())
        .expect("feedback json")
        .get("epoch")
        .and_then(Json::as_u64)
        .expect("epoch");

    // A client notices the drain request; in-flight annotates still
    // complete with full bodies.
    let resp = client.post_json("/shutdown", "{}", &[]).expect("shutdown");
    assert_eq!(resp.status, 200);
    assert!(server.shutdown_requested(), "POST /shutdown must latch");

    let clients: Vec<_> = (0..3)
        .map(|i| {
            let table = tables[i % tables.len()].clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                client
                    .post_json("/annotate", &annotate_body(&table), &[])
                    .expect("in-flight annotate")
            })
        })
        .collect();
    // Let the requests reach the queue before draining.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown().expect("graceful shutdown");
    for handle in clients {
        let resp = handle.join().expect("client thread");
        assert_eq!(
            resp.status,
            200,
            "an admitted request was dropped during shutdown: {}",
            resp.body_str()
        );
        let body = Json::parse(&resp.body_str()).expect("response json");
        assert!(
            body.get("columns").and_then(Json::as_array).is_some(),
            "drained response must be a complete outcome"
        );
    }

    // The advisory lock is released and the tier reopens warm: entries
    // on disk, durable epoch exactly where the server left it.
    let reopened = TieredStepCache::open(scratch.0.join("cache"), 1 << 14)
        .expect("reopen tier after shutdown");
    assert!(
        sigmatyper::StepCache::len(&reopened) > 0,
        "flushed cache must survive shutdown"
    );
    drop(reopened);
    let epochs = DurableEpochSource::open(scratch.0.join("epoch")).expect("reopen epochs");
    assert_eq!(
        sigmatyper::EpochSource::current(&epochs),
        epoch,
        "durable epoch must match the last feedback bump"
    );
}

/// `POST /annotate` with a `"base"` table is the incremental-recrawl
/// path over HTTP: after a cold crawl of the base, re-annotating an
/// appended version with the base attached reuses the base crawl's
/// cached scores — visible in the outcome's `degradation.delta_reused`
/// and the per-lane `/metrics` counter — while `delta_sensitivity: 0`
/// stays bit-identical to annotating the new table from scratch.
#[test]
fn annotate_with_base_reuses_cache_and_is_exact_at_zero_sensitivity() {
    use sigmatyper::ShardedLruCache;
    use tu_table::Column;

    let (global, tables) = demo_global(44);
    let base = wire_table(&tables[0]);
    // The recrawl: one more row per column, recycled from the head so
    // the appended data looks like more of the same.
    let appended: Vec<Column> = base
        .columns()
        .iter()
        .map(|c| {
            let mut values = c.values.clone();
            values.push(c.values[0].clone());
            Column::new(c.name.clone(), values)
        })
        .collect();
    let new = Table::new(base.name.clone(), appended).expect("rectangular");

    let typer = SigmaTyper::builder(Arc::clone(&global))
        .step_cache(Arc::new(ShardedLruCache::new(1 << 14)))
        .build();
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // Cold crawl of the base fills the cache under the base's
    // fingerprints.
    let cold = client
        .post_json("/annotate", &annotate_body(&base), &[])
        .expect("cold annotate");
    assert_eq!(cold.status, 200, "body: {}", cold.body_str());

    // Warm recrawl: new table + base + a sensitivity generous enough
    // for the one-row append. Cacheable steps answer from the base
    // crawl's entries.
    let recrawl_body = format!(
        r#"{{"table":{},"base":{},"options":{{"delta_sensitivity":0.5}}}}"#,
        table_to_request_json(&new),
        table_to_request_json(&base)
    );
    let warm = client
        .post_json("/annotate", &recrawl_body, &[])
        .expect("warm recrawl");
    assert_eq!(warm.status, 200, "body: {}", warm.body_str());
    let warm_json = Json::parse(&warm.body_str()).expect("outcome json");
    let reused = warm_json
        .get("degradation")
        .and_then(|d| d.get("delta_reused"))
        .and_then(Json::as_u64)
        .expect("degradation.delta_reused");
    assert!(
        reused > 0,
        "recrawl must reuse base-crawl scores: {warm_json}"
    );

    let metrics = client.get("/metrics").expect("metrics");
    let m = Json::parse(&metrics.body_str()).expect("metrics json");
    let lane_reused = m
        .get("lanes")
        .and_then(|l| l.get("interactive"))
        .and_then(|l| l.get("delta_reused"))
        .and_then(Json::as_u64)
        .expect("lanes.interactive.delta_reused");
    assert_eq!(
        lane_reused, reused,
        "metrics must accumulate the reuse count"
    );

    // Sensitivity 0: reuse off, and the outcome is bit-identical to a
    // from-scratch annotate of the new table (fresh uncached typer, so
    // nothing can leak in from the base crawl).
    let strict_body = format!(
        r#"{{"table":{},"base":{},"options":{{"delta_sensitivity":0.0}}}}"#,
        table_to_request_json(&new),
        table_to_request_json(&base)
    );
    let strict = client
        .post_json("/annotate", &strict_body, &[])
        .expect("strict recrawl");
    assert_eq!(strict.status, 200, "body: {}", strict.body_str());
    let fresh_typer = SigmaTyper::builder(global).build();
    let expected = fresh_typer.annotate_request(&AnnotationRequest::new(&wire_table(&new)));
    assert_eq!(
        normalize_body(&strict.body_str()),
        normalize_outcome(&tu_server::wire::outcome_to_json(
            &expected,
            fresh_typer.ontology(),
        )),
        "sensitivity 0 must be bit-identical to a from-scratch annotate"
    );

    // A malformed base is a 400 naming the field, not a panic.
    let bad = client
        .post_json(
            "/annotate",
            &format!(
                r#"{{"table":{},"base":{{"columns":"nope"}}}}"#,
                table_to_request_json(&new)
            ),
            &[],
        )
        .expect("bad base");
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("base"), "{}", bad.body_str());

    server.shutdown().expect("shutdown");
}

/// A table wide enough for `ParallelismPolicy::default()` to split a
/// step's frontier across threads: 16 opaque headers over free text,
/// so no column resolves at the header step. A table of fewer rows is
/// a prefix of one with more, so the smaller one is the larger one's
/// base crawl.
fn wide_opaque_table(rows: usize) -> Table {
    use tu_table::Column;
    let words = [
        "lorem ipsum",
        "dolor sit",
        "amet consect",
        "adipiscing elit",
        "sed do",
        "eiusmod tempor",
    ];
    let columns = (0..16)
        .map(|c| {
            let values: Vec<String> = (0..rows)
                .map(|r| format!("{} {r}", words[(c + r) % words.len()]))
                .collect();
            Column::from_raw(format!("xq_{c}"), &values)
        })
        .collect();
    Table::new("wide", columns).expect("rectangular")
}

/// A served single is a batch of one on the pool's service, so a wide
/// table gets the service's whole thread budget for its column chunks
/// (the machine's cores, whatever the worker count), while a batch
/// splits that budget between its tables. On a 1-worker and a 3-worker
/// server, `/annotate` (with and without a base) and `/annotate_batch`
/// must answer bit-identically to the direct call.
#[test]
fn wide_tables_over_http_are_bit_identical_to_direct() {
    let (typer, _) = demo_typer(48);
    let base = wire_table(&wide_opaque_table(12));
    let table = wire_table(&wide_opaque_table(14));
    let direct = |request: AnnotationRequest<'_>| {
        normalize_outcome(&tu_server::wire::outcome_to_json(
            &typer.annotate_request(&request),
            typer.ontology(),
        ))
    };
    let expected_base = direct(AnnotationRequest::new(&base));
    let expected = direct(AnnotationRequest::new(&table));
    let expected_recrawl = direct(AnnotationRequest::new(&table).with_base(&base));

    for workers in [1, 3] {
        let server = AnnotationServer::start(
            "127.0.0.1:0",
            typer.clone(),
            &ServerConfig {
                workers,
                queue_capacity: 8,
                ..ServerConfig::default()
            },
        )
        .expect("start server");
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        let mut post = |path: &str, body: &str| {
            let resp = client.post_json(path, body, &[]).expect("request");
            assert_eq!(resp.status, 200, "{workers} workers: {}", resp.body_str());
            resp.body_str()
        };

        let single = post("/annotate", &annotate_body(&table));
        assert_eq!(normalize_body(&single), expected, "{workers} workers");
        let recrawl = post(
            "/annotate",
            &format!(
                r#"{{"table":{},"base":{}}}"#,
                table_to_request_json(&table),
                table_to_request_json(&base)
            ),
        );
        assert_eq!(
            normalize_body(&recrawl),
            expected_recrawl,
            "{workers} workers"
        );
        let batch = post(
            "/annotate_batch",
            &format!(
                r#"{{"tables":[{},{}]}}"#,
                table_to_request_json(&base),
                table_to_request_json(&table)
            ),
        );
        let parsed = Json::parse(&batch).expect("batch json");
        let outcomes = parsed
            .get("outcomes")
            .and_then(Json::as_array)
            .expect("outcomes array");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(
            normalize_outcome(&outcomes[0]),
            expected_base,
            "{workers} workers"
        );
        assert_eq!(
            normalize_outcome(&outcomes[1]),
            expected,
            "{workers} workers"
        );

        server.shutdown().expect("shutdown");
    }
}

/// `x-sigma-tenant` cannot grow the tenant registry without bound:
/// once it holds 1,024 tenants, a name it does not know gets a `400`
/// naming the limit and interns nothing, while a registered name is
/// served as before. A new name on a request whose table is malformed
/// interns nothing either: the table is checked first.
#[test]
fn tenant_header_cannot_grow_the_registry_past_its_cap() {
    const CAP: usize = 1024;
    let (typer, tables) = demo_typer(47);
    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer,
        &ServerConfig {
            workers: 1,
            queue_capacity: 4,
            tenant_weights: (0..CAP).map(|i| (format!("tenant-{i}"), 1.0)).collect(),
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let tenant_count = |client: &mut HttpClient| {
        let m = Json::parse(&client.get("/metrics").expect("metrics").body_str()).expect("json");
        match m.get("tenants") {
            Some(Json::Obj(tenants)) => tenants.len(),
            other => panic!("metrics tenants must be an object: {other:?}"),
        }
    };
    let body = annotate_body(&tables[0]);
    assert_eq!(tenant_count(&mut client), CAP);

    let refused = client
        .post_json("/annotate", &body, &[("x-sigma-tenant", "newcomer")])
        .expect("new tenant");
    assert_eq!(refused.status, 400, "body: {}", refused.body_str());
    assert!(
        refused.body_str().contains("1024"),
        "the 400 names the limit: {}",
        refused.body_str()
    );
    let bad_table = client
        .post_json(
            "/annotate",
            r#"{"table":{"columns":"nope"}}"#,
            &[("x-sigma-tenant", "newcomer")],
        )
        .expect("bad table");
    assert_eq!(bad_table.status, 400);
    assert!(
        bad_table.body_str().contains("columns"),
        "the table is checked before the tenant: {}",
        bad_table.body_str()
    );
    let known = client
        .post_json("/annotate", &body, &[("x-sigma-tenant", "tenant-17")])
        .expect("registered tenant");
    assert_eq!(known.status, 200, "body: {}", known.body_str());
    assert_eq!(tenant_count(&mut client), CAP, "no request interned a name");

    server.shutdown().expect("shutdown");
}
