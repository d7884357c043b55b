//! `perfbench`: the serving benchmark.
//!
//! It starts the `annotation-server` binary (two workers, a fresh cache
//! dir), replays one seeded workload against it over HTTP with at most
//! two connections, checks every answer against an in-process twin of
//! the server, and prints one JSON line of metrics:
//!
//! ```text
//! perfbench --server-bin PATH --workload crawl|adapt --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! A run does a fixed amount of work: the server keeps state that grows
//! with the work it has done (the step cache, the disk tier, the local
//! training set every feedback refits), so a run of fixed length would
//! report figures that follow its own throughput. `--seconds` only caps
//! the load phase, at [`SAFETY_CAP`] times its value.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the twin replays each operation on one thread, timing every layer
//! call into an in-memory span recorder, and it prints the per-layer
//! metrics (spans are written to `.perfbench/`).

mod gen;
mod load;
mod server;
mod stats;
mod trace;
mod twin;

use gen::{Endpoint, Lane, Op, TableGen};
use httpshim::HttpClient;
use jsonshim::Json;
use load::Sample;
use server::ServerProcess;
use stats::{mean, median, percentile, ratio};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;
use twin::{Layers, Twin};

/// Server spawns timed per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 7;
/// Crawl: cycles per run (about 13 s on a two-vCPU host), fresh
/// tables per cycle, and tables per pass-1 batch.
const CRAWL_CYCLES: usize = 64;
const CRAWL_TABLES: usize = 16;
const CRAWL_BATCH: usize = 4;
/// Adapt: rounds per run (about 15 s on a two-vCPU host), tables in the
/// fixed set (one per corpus template), and reads between two
/// feedbacks (each table twice).
const ADAPT_ROUNDS: usize = 64;
const ADAPT_TABLES: usize = tu_corpus::TEMPLATES.len();
const ADAPT_READS: usize = 2 * ADAPT_TABLES;
/// Adapt: fresh tables scored once after the rounds.
const ADAPT_HOLDOUT: usize = 6 * ADAPT_TABLES;
/// A load phase stops early, with a note on standard error, once it has
/// been active this many times `--seconds`.
const SAFETY_CAP: f64 = 3.0;
/// Crawl cycles (or adapt rounds) per measured segment.
const CYCLES_PER_SEGMENT: usize = 2;
/// Feedback probe after the crawl loop: tables, and
/// corrections sent one at a time.
const PROBE_TABLES: usize = 16;
const PROBE_FEEDBACKS: usize = 40;
const PROBE_SEED: u64 = 0;
/// Operations the traced run replays again to time transport and
/// tracing overhead.
const TRANSPORT_PROBES: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Crawl,
    Adapt,
}

struct Args {
    server_bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(name.to_owned(), value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("--{k} is required"));
    let workload = match get("workload")?.as_str() {
        "crawl" => Workload::Crawl,
        "adapt" => Workload::Adapt,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Args {
        server_bin: PathBuf::from(get("server-bin")?),
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fixed slice of a run's work: a fixed number of crawl cycles or
/// adapt rounds. Rates are medians over segments, so a burst of
/// interference from outside the benchmark spoils one segment, not the
/// figure.
#[derive(Default)]
struct Segment {
    tables: u64,
    /// Wall time with requests in flight.
    wall: Duration,
}

/// What one workload's load phase measured.
#[derive(Default)]
struct Measured {
    segments: Vec<Segment>,
    /// Latencies of the requests behind `p50_ms` and `loadgen.p99_ms`
    /// (failures as +inf).
    latencies_ms: Vec<f64>,
    /// Feedback latencies.
    feedback_ms: Vec<f64>,
}

impl Measured {
    fn active_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall.as_secs_f64()).sum()
    }

    fn median_rate(&self, per: impl Fn(&Segment) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| ratio(per(s) as f64, s.wall.as_secs_f64()))
            .collect();
        median(&rates)
    }

    /// Whether the load phase has reached its safety cap.
    fn capped(&self, seconds: f64) -> bool {
        self.active_s() >= seconds * SAFETY_CAP
    }
}

/// Everything one run accumulates while checking answers.
struct Checker {
    twin: Twin,
    ontology: tu_ontology::Ontology,
    rec: Recorder,
    layers: Layers,
    next_id: u64,
    attempted: u64,
    failed: u64,
    labelled: u64,
    predicted: u64,
    correct: u64,
    /// Traced run: loaded latency and in-process span per request id.
    loaded_ms: Vec<(u64, f64)>,
    /// Single annotates replayed again by the transport probe.
    sample_ops: Vec<Op>,
}

/// What a checked request counts toward besides `fail_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Behind the latency figures (and the traced waits) and scored for
    /// `precision`/`coverage`.
    Measured,
    /// Behind the latency figures only.
    Timed,
    /// Scored for `precision`/`coverage` only.
    Scored,
    /// Warm-up, feedback and probe traffic.
    Support,
}

impl Checker {
    /// Replay `ops` on the twin in order and compare each server answer;
    /// by `role`, score the predictions against the labels and keep the
    /// latencies. Returns the server's predicted type names per op, per
    /// table, per column.
    fn check(
        &mut self,
        ops: &[Op],
        samples: &[Sample],
        role: Role,
    ) -> Vec<Vec<Vec<Option<String>>>> {
        let first_id = self.next_id;
        let refs = if self.rec.enabled() {
            self.twin
                .replay_traced(ops, &mut self.rec, first_id, &mut self.layers)
        } else {
            self.twin.replay(ops)
        };
        self.next_id += ops.len() as u64;
        let mut predictions = Vec::with_capacity(ops.len());
        for (k, ((op, sample), reference)) in ops.iter().zip(samples).zip(&refs).enumerate() {
            self.attempted += 1;
            let got = (sample.status == 200)
                .then(|| twin::normalize(op.endpoint, &sample.body))
                .flatten();
            if got.as_ref() != Some(&reference.answers) {
                if self.failed < 3 {
                    eprintln!(
                        "perfbench: answer mismatch on {} (status {}): {:.200}",
                        op.endpoint.path(),
                        sample.status,
                        sample.body
                    );
                }
                self.failed += 1;
            }
            let preds: Vec<Vec<Option<String>>> = got
                .unwrap_or_default()
                .iter()
                .filter(|_| op.endpoint != Endpoint::Feedback)
                .map(|outcome| predicted_names(outcome))
                .collect();
            if matches!(role, Role::Measured | Role::Scored) {
                for (labels, cols) in op.labels.iter().zip(&preds) {
                    for (label, pred) in labels.iter().zip(cols) {
                        if label.is_unknown() {
                            continue;
                        }
                        self.labelled += 1;
                        if let Some(p) = pred {
                            self.predicted += 1;
                            self.correct += u64::from(p == self.ontology.name(*label));
                        }
                    }
                }
            }
            if matches!(role, Role::Measured | Role::Timed) {
                if self.rec.enabled() {
                    self.loaded_ms
                        .push((first_id + k as u64, sample.latency_ms()));
                }
                if self.sample_ops.len() < TRANSPORT_PROBES {
                    self.sample_ops.push(op.clone());
                }
            }
            predictions.push(preds);
        }
        predictions
    }
}

/// Predicted type name per column of a normalised outcome.
fn predicted_names(outcome: &str) -> Vec<Option<String>> {
    let json = Json::parse(outcome).expect("normalised outcomes are JSON");
    json.get("columns")
        .and_then(Json::as_array)
        .map(|cols| {
            cols.iter()
                .map(|c| c.get("predicted").and_then(Json::as_str).map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let twin = Twin::open(&work.join("twin")).map_err(|e| format!("opening the twin: {e}"))?;
    let ontology = twin.ontology();

    // Set-up: spawn the server several times; the last one is measured.
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let (s, setup) = ServerProcess::spawn(&args.server_bin, &work.join(format!("server-{i}")))?;
        setups.push(setup.as_secs_f64());
        if i + 1 < SETUP_SPAWNS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one spawn");
    let mut clients: Vec<HttpClient> = (0..2)
        .map(|_| HttpClient::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let mut checker = Checker {
        twin,
        ontology: ontology.clone(),
        rec: Recorder::new(args.trace),
        layers: Layers::default(),
        next_id: 0,
        attempted: 0,
        failed: 0,
        labelled: 0,
        predicted: 0,
        correct: 0,
        loaded_ms: Vec::new(),
        sample_ops: Vec::new(),
    };
    let mut measured = match args.workload {
        Workload::Crawl => run_crawl(args, &ontology, &mut clients, &mut checker),
        Workload::Adapt => run_adapt(args, &ontology, &mut clients, &mut checker),
    };
    if args.workload == Workload::Crawl {
        measured.feedback_ms = feedback_probe(&ontology, &mut clients, &mut checker);
    }
    let probe = args
        .trace
        .then(|| transport_probe(&mut clients, &mut checker));
    drop(clients);

    let peak_rss_mb = server.peak_rss_mb()?;
    let cache_dir = server.cache_dir().to_path_buf();
    server.shutdown()?;
    let disk_bytes = server::dir_bytes(&cache_dir).map_err(|e| format!("sizing the cache: {e}"))?;

    let metrics = if args.trace {
        let spans_path = PathBuf::from(".perfbench").join(format!(
            "trace-{}-seed{}.jsonl",
            workload_name(args.workload),
            args.seed
        ));
        checker
            .rec
            .write_jsonl(&spans_path)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        per_layer(&checker, &measured, probe.unwrap_or_default(), disk_bytes)
    } else {
        end_to_end(&checker, &measured, median(&setups), peak_rss_mb)
    };
    eprintln!(
        "perfbench: {} seed {}: {} requests ({} failed), {} latency samples, {:.2}s active, setups {:?}",
        workload_name(args.workload),
        args.seed,
        checker.attempted,
        checker.failed,
        measured.latencies_ms.len(),
        measured.active_s(),
        setups
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no infinity: a latency of failed requests prints
            // as the largest finite number.
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(",")
    ))
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Crawl => "crawl",
        Workload::Adapt => "adapt",
    }
}

fn latency_or_inf(s: &Sample) -> f64 {
    if s.status == 200 {
        s.latency_ms()
    } else {
        f64::INFINITY
    }
}

/// `crawl`: [`CRAWL_CYCLES`] cycles of pass 1 (batches) and pass 2
/// (recrawls) over two closed-loop connections, with a barrier between
/// the passes.
fn run_crawl(
    args: &Args,
    ontology: &tu_ontology::Ontology,
    clients: &mut [HttpClient],
    checker: &mut Checker,
) -> Measured {
    let mut gen = TableGen::new(ontology, gen::rng_for(args.seed, 3));
    let mut mix = gen::CrawlMix::new();
    let mut m = Measured::default();
    for cycle in 0..CRAWL_CYCLES {
        if m.capped(args.seconds) {
            eprintln!("perfbench: crawl stopped at its safety cap after {cycle} cycles");
            break;
        }
        if cycle % CYCLES_PER_SEGMENT == 0 {
            m.segments.push(Segment::default());
        }
        let cycle = gen::crawl_cycle(&mut gen, &mut mix, CRAWL_TABLES, CRAWL_BATCH);
        let (s1, w1) = load::closed_loop(clients, &cycle.pass1);
        let (s2, w2) = load::closed_loop(clients, &cycle.pass2);
        let segment = m.segments.last_mut().expect("pushed above");
        segment.wall += w1 + w2;
        segment.tables += cycle
            .pass1
            .iter()
            .chain(&cycle.pass2)
            .map(|o| o.tables() as u64)
            .sum::<u64>();
        m.latencies_ms.extend(s2.iter().map(latency_or_inf));
        checker.check(&cycle.pass1, &s1, Role::Scored);
        checker.check(&cycle.pass2, &s2, Role::Measured);
    }
    m
}

/// `adapt`: [`ADAPT_ROUNDS`] rounds of reads over a fixed table set (two
/// closed-loop connections), each followed by one feedback sent alone.
/// `precision` and `coverage` come from one pass over fresh tables after
/// the rounds: the rounds re-read a small set, whose score would follow
/// the seed's draw of those few tables.
fn run_adapt(
    args: &Args,
    ontology: &tu_ontology::Ontology,
    clients: &mut [HttpClient],
    checker: &mut Checker,
) -> Measured {
    let mut gen = TableGen::new(ontology, gen::rng_for(args.seed, 4));
    let tables = gen::adapt_tables(&mut gen, ADAPT_TABLES);
    let mut latest: Vec<Vec<Option<String>>> =
        tables.iter().map(|t| vec![None; t.labels.len()]).collect();
    let mut m = Measured::default();
    for round in 0..ADAPT_ROUNDS {
        if m.capped(args.seconds) {
            eprintln!("perfbench: adapt stopped at its safety cap after {round} rounds");
            break;
        }
        if round % CYCLES_PER_SEGMENT == 0 {
            m.segments.push(Segment::default());
        }
        let reads: Vec<Op> = (0..ADAPT_READS)
            .map(|j| Op::annotate(&tables[j % tables.len()], Lane::Interactive))
            .collect();
        let (samples, wall) = load::closed_loop(clients, &reads);
        m.latencies_ms.extend(samples.iter().map(latency_or_inf));
        let preds = checker.check(&reads, &samples, Role::Timed);
        for (j, p) in preds.into_iter().enumerate() {
            if let Some(cols) = p.into_iter().next() {
                latest[j % tables.len()] = cols;
            }
        }
        let (t, c, name) = gen::choose_correction(&tables, &latest, ontology, round);
        let fb = [Op::feedback(&tables[t], c, &name)];
        let (fs, fw) = load::closed_loop(&mut clients[..1], &fb);
        m.feedback_ms.extend(fs.iter().map(latency_or_inf));
        checker.check(&fb, &fs, Role::Support);
        let segment = m.segments.last_mut().expect("pushed above");
        segment.wall += wall + fw;
        segment.tables += reads.len() as u64;
    }
    let holdout: Vec<Op> = gen::adapt_tables(&mut gen, ADAPT_HOLDOUT)
        .iter()
        .map(|t| Op::annotate(t, Lane::Interactive))
        .collect();
    let (samples, _) = load::closed_loop(clients, &holdout);
    checker.check(&holdout, &samples, Role::Scored);
    m
}

/// After the crawl loop: annotate a set of fresh tables,
/// then send corrections one at a time, re-reading the corrected table
/// after each. Returns the feedback latencies. The probe's tables do
/// not depend on `--seed`: a feedback's cost grows with the corrected
/// table and the customer's past corrections, so a fixed set keeps the
/// figure comparable between seeds.
fn feedback_probe(
    ontology: &tu_ontology::Ontology,
    clients: &mut [HttpClient],
    checker: &mut Checker,
) -> Vec<f64> {
    let mut gen = TableGen::new(ontology, gen::rng_for(PROBE_SEED, 5));
    let tables = gen::adapt_tables(&mut gen, PROBE_TABLES);
    let reads: Vec<Op> = tables
        .iter()
        .map(|t| Op::annotate(t, Lane::Interactive))
        .collect();
    let (samples, _) = load::closed_loop(&mut clients[..1], &reads);
    let mut latest: Vec<Vec<Option<String>>> = checker
        .check(&reads, &samples, Role::Support)
        .into_iter()
        .map(|p| p.into_iter().next().unwrap_or_default())
        .collect();
    let mut feedback_ms = Vec::with_capacity(PROBE_FEEDBACKS);
    for round in 0..PROBE_FEEDBACKS {
        let (t, c, name) = gen::choose_correction(&tables, &latest, ontology, round);
        let ops = [
            Op::feedback(&tables[t], c, &name),
            Op::annotate(&tables[t], Lane::Interactive),
        ];
        let (samples, _) = load::closed_loop(&mut clients[..1], &ops);
        feedback_ms.push(latency_or_inf(&samples[0]));
        let preds = checker.check(&ops, &samples, Role::Support);
        if let Some(cols) = preds[1].first() {
            latest[t] = cols.clone();
        }
    }
    feedback_ms
}

/// Traced run only: replay sample reads once more, warm, in process
/// (traced and untraced) and over HTTP on one idle connection.
#[derive(Default)]
struct TransportProbe {
    transport_us: f64,
    overhead: f64,
}

fn transport_probe(clients: &mut [HttpClient], checker: &mut Checker) -> TransportProbe {
    let mut transport = Vec::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let ops = std::mem::take(&mut checker.sample_ops);
    let mut scratch = Layers::default();
    for op in &ops {
        // Warm both sides first: a feedback since the op was first
        // served has retired its cache entries on the server and twin.
        checker
            .twin
            .serve(op, &mut Recorder::new(false), 0, &mut scratch, false);
        load::send(&mut clients[0], op);
        let mut rec = Recorder::new(true);
        let traced_ref = checker.twin.serve(op, &mut rec, 0, &mut scratch, false);
        let children: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(trace::Span::duration_ns)
            .sum();
        traced.push(traced_ref.request_ns as f64);
        let untraced_ref =
            checker
                .twin
                .serve(op, &mut Recorder::new(false), 0, &mut scratch, false);
        untraced.push(untraced_ref.request_ns as f64);
        let started = Instant::now();
        let (status, _) = load::send(&mut clients[0], op);
        let http = started.elapsed().as_nanos() as f64;
        if status == 200 {
            transport.push((http - children as f64) / 1e3);
        }
    }
    let (t, u) = (median(&traced), median(&untraced));
    TransportProbe {
        transport_us: median(&transport),
        overhead: ratio(t - u, u),
    }
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(c: &Checker, m: &Measured, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        ("setup_s", setup_s, "s"),
        ("p50_ms", percentile(&m.latencies_ms, 0.5), "ms"),
        ("tables_per_s", m.median_rate(|s| s.tables), "1/s"),
        // A feedback costs more the more corrections came before it
        // (each refit covers them all), so a run's fixed series of
        // feedbacks rises: its median would be one sample from the
        // middle, its mean averages every one.
        ("feedback_mean_ms", mean(&m.feedback_ms), "ms"),
        (
            "precision",
            ratio(c.correct as f64, c.predicted as f64),
            "ratio",
        ),
        (
            "coverage",
            ratio(c.predicted as f64, c.labelled as f64),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn per_layer(c: &Checker, m: &Measured, probe: TransportProbe, disk_bytes: u64) -> Vec<Metric> {
    let spans = c.rec.spans();
    let by_request = trace::self_time_by_request(spans);
    // Median over requests of a layer's per-request self time.
    let layer_us = |name: &str| {
        let xs: Vec<f64> = by_request
            .values()
            .filter_map(|layers| layers.get(name))
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        median(&xs)
    };
    let mut request_ns: HashMap<u64, u64> = HashMap::new();
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans {
        if s.name == "request" {
            request_ns.insert(s.request, s.duration_ns());
            total += s.duration_ns();
        } else if s.parent.is_some_and(|p| spans[p].name == "request") {
            covered += s.duration_ns();
        }
    }
    let waits: Vec<f64> = c
        .loaded_ms
        .iter()
        .filter_map(|(id, ms)| request_ns.get(id).map(|ns| ms - *ns as f64 / 1e6))
        .collect();
    let l = &c.layers;
    let per_col = |i: usize| ratio(l.step_probe_ns[i] as f64 / 1e3, l.step_probe_cols[i] as f64);
    let exit = |i: usize| ratio(l.step_exits[i] as f64, l.columns as f64);
    // Counts per annotated table, so they do not grow with the work done.
    let per_table = |n: u64| ratio(n as f64, l.tables as f64);
    vec![
        ("server.decode_us", layer_us("server.decode"), "us"),
        ("server.body_bytes", median(&l.body_bytes), "bytes"),
        ("server.encode_us", layer_us("server.encode"), "us"),
        ("server.transport_us", probe.transport_us, "us"),
        ("service.wait_p50_ms", percentile(&waits, 0.5), "ms"),
        ("service.wait_p99_ms", percentile(&waits, 0.99), "ms"),
        (
            "service.batch_setup_us",
            layer_us("service.batch_setup"),
            "us",
        ),
        ("tenant.admit_us", layer_us("tenant.admit"), "us"),
        ("tenant.grant_us", layer_us("tenant.grant"), "us"),
        ("tenant.settle_us", layer_us("tenant.settle"), "us"),
        ("cache.fingerprint_us", layer_us("cache.fingerprint"), "us"),
        ("cache.cells_hashed", per_table(l.cells_hashed), "1/table"),
        ("cache.hits", per_table(l.hits), "1/table"),
        ("cache.misses", per_table(l.misses), "1/table"),
        ("cache.inserts", per_table(l.inserts), "1/table"),
        (
            "cache.hit_ratio",
            ratio(l.hits as f64, (l.hits + l.misses) as f64),
            "ratio",
        ),
        ("diskcache.bytes", per_table(disk_bytes), "bytes/table"),
        ("delta.diff_us", layer_us("delta.diff"), "us"),
        ("delta.reused", per_table(l.delta_reused), "1/table"),
        (
            "delta.reuse_ratio",
            ratio(l.delta_reused as f64, l.delta_misses as f64),
            "ratio",
        ),
        ("step.header.us_per_col", per_col(0), "us"),
        ("step.lookup.us_per_col", per_col(1), "us"),
        ("step.embedding.us_per_col", per_col(2), "us"),
        ("step.header.cols", per_table(l.step_runs[0]), "1/table"),
        ("step.lookup.cols", per_table(l.step_runs[1]), "1/table"),
        ("step.embedding.cols", per_table(l.step_runs[2]), "1/table"),
        ("step.header.exit_ratio", exit(0), "ratio"),
        ("step.lookup.exit_ratio", exit(1), "ratio"),
        ("step.embedding.exit_ratio", exit(2), "ratio"),
        ("aggregate.us", layer_us("aggregate"), "us"),
        ("core.annotate_us", layer_us("core.annotate"), "us"),
        ("core.unattributed_us", median(&l.unattributed_us), "us"),
        ("local.feedback_ms", layer_us("local.feedback") / 1e3, "ms"),
        ("local.lfs", l.lfs as f64, "count"),
        (
            "loadgen.fail_rate",
            ratio(c.failed as f64, c.attempted as f64),
            "ratio",
        ),
        ("loadgen.p99_ms", percentile(&m.latencies_ms, 0.99), "ms"),
        (
            "loadgen.latency_samples",
            m.latencies_ms.len() as f64,
            "count",
        ),
        (
            "trace.coverage",
            ratio(covered as f64, total as f64),
            "ratio",
        ),
        ("trace.overhead", probe.overhead, "ratio"),
    ]
}
