//! The in-process twin of the server: the binary's model rebuilt in this
//! process (`train_global` is deterministic) behind a cache of the same
//! capacity. It replays every operation in the order the server saw
//! them, through the same public calls the server makes, and produces
//! the reference answer for each. With an enabled [`Recorder`] it also
//! times each layer call and re-runs the per-column layers (fingerprint,
//! delta, the three steps, aggregation) on exactly the inputs the
//! request used.

use crate::gen::{Endpoint, Lane, Op};
use crate::trace::Recorder;
use jsonshim::Json;
use sigmatyper::aggregate::{apply_tau, soft_majority_vote_with};
use sigmatyper::cache::{column_fingerprints, column_fingerprints_chained, ColumnHashState};
use sigmatyper::executor::CascadeExecutor;
use sigmatyper::request::{AnnotationOutcome, BudgetLedger, RequestOptions};
use sigmatyper::service::{AnnotationService, BoundedQueue, TrafficLane};
use sigmatyper::tenant::{ShapedBudget, TenantId, TenantRegistry, TrafficShaper, ANONYMOUS_TENANT};
use sigmatyper::{
    train_global, DurableEpochSource, SigmaTyper, StepId, StepScores, TieredStepCache,
    TrainingConfig,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use tu_server::wire;
use tu_table::{Table, TableDelta};

/// The server's defaults that shape an answer: two workers (batch
/// threads), queue capacity 64, L1 of 2^16 entries.
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const L1_CAPACITY: usize = 1 << 16;

/// The three built-in steps, in cascade order.
pub const STEPS: [StepId; 3] = [StepId::HEADER, StepId::LOOKUP, StepId::EMBEDDING];

fn step_index(id: StepId) -> Option<usize> {
    STEPS.iter().position(|s| *s == id)
}

/// Counters gathered by the traced replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// Request body sizes.
    pub body_bytes: Vec<f64>,
    /// Cells read by fingerprinting (plain and delta paths).
    pub cells_hashed: u64,
    /// Step-cache hits, misses and inserts from the outcomes' timings.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// See `hits`.
    pub inserts: u64,
    /// Columns answered by reusing a base crawl's scores.
    pub delta_reused: u64,
    /// Cache misses on delta recrawls; a column served by reuse was
    /// first an exact-fingerprint miss.
    pub delta_misses: u64,
    /// Per step: columns it ran on (cache hits excluded).
    pub step_runs: [u64; 3],
    /// Per step: columns whose last step it was.
    pub step_exits: [u64; 3],
    /// Per step: columns the re-run timed, and their total time.
    pub step_probe_cols: [u64; 3],
    /// See `step_probe_cols`.
    pub step_probe_ns: [u64; 3],
    /// Tables annotated.
    pub tables: u64,
    /// Columns annotated.
    pub columns: u64,
    /// Per single annotate: core time not covered by step timings.
    pub unattributed_us: Vec<f64>,
    /// Labeling functions in the local bank after the last feedback.
    pub lfs: usize,
}

/// The reference answer of one operation.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Normalised outcome per annotated table; `{"ok":true}` for a
    /// feedback.
    pub answers: Vec<String>,
    /// In-process wall time from decode to encode (0 for a reused
    /// answer).
    pub request_ns: u64,
}

/// The twin.
pub struct Twin {
    typer: RwLock<SigmaTyper>,
    shaper: TrafficShaper,
    queue: BoundedQueue<usize>,
    tenant: TenantId,
    /// Answers by table key, valid until the next feedback.
    memo: Mutex<HashMap<u64, String>>,
}

impl Twin {
    /// Build the binary's model (`database_like(42, 40)`,
    /// `TrainingConfig::fast()`) with a tiered cache and a durable epoch
    /// file under `dir`, as `annotation-server --cache-dir` does.
    pub fn open(dir: &Path) -> std::io::Result<Twin> {
        let ontology = tu_ontology::builtin_ontology();
        let corpus =
            tu_corpus::generate_corpus(&ontology, &tu_corpus::CorpusConfig::database_like(42, 40));
        let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
        std::fs::create_dir_all(dir)?;
        let tier = TieredStepCache::open(dir.join("cache"), L1_CAPACITY)?;
        let epochs = DurableEpochSource::open(dir.join("epoch"))?;
        let typer = SigmaTyper::builder(global)
            .step_cache(Arc::new(tier))
            .epoch_source(Arc::new(epochs))
            .build();
        let registry = Arc::new(TenantRegistry::new());
        let tenant = registry.intern(ANONYMOUS_TENANT);
        Ok(Twin {
            typer: RwLock::new(typer),
            shaper: TrafficShaper::new(registry, None, None, Duration::from_secs(1)),
            queue: BoundedQueue::new(QUEUE_CAPACITY),
            tenant,
            memo: Mutex::new(HashMap::new()),
        })
    }

    /// The twin's ontology (the builtin one, as in the server).
    #[must_use]
    pub fn ontology(&self) -> tu_ontology::Ontology {
        self.read().ontology().clone()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, SigmaTyper> {
        self.typer
            .read()
            .expect("no replay thread panics holding the model")
    }

    /// Untraced replay on as many threads as the server has workers:
    /// runs of consecutive single annotates (independent reads of one
    /// model state) run in parallel; batches and feedbacks run alone, in
    /// order. Answers of a table already answered under the current
    /// model are reused.
    pub fn replay(&self, ops: &[Op]) -> Vec<Reference> {
        let mut out: Vec<Option<Reference>> = vec![None; ops.len()];
        let mut i = 0;
        while i < ops.len() {
            let mut j = i + 1;
            if ops[i].endpoint == Endpoint::Annotate {
                while j < ops.len() && ops[j].endpoint == Endpoint::Annotate {
                    j += 1;
                }
            }
            let group = &ops[i..j];
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Reference>>> =
                group.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..WORKERS.min(group.len()) {
                    scope.spawn(|| {
                        let mut rec = Recorder::new(false);
                        let mut layers = Layers::default();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(op) = group.get(k) else { break };
                            let r = self.serve(op, &mut rec, 0, &mut layers, true);
                            *slots[k].lock().expect("no replay thread panics") = Some(r);
                        }
                    });
                }
            });
            for (k, slot) in slots.into_iter().enumerate() {
                out[i + k] = slot.into_inner().expect("no replay thread panics");
            }
            i = j;
        }
        out.into_iter()
            .map(|r| r.expect("every operation replayed"))
            .collect()
    }

    /// Traced replay on this thread, without answer reuse, so every
    /// layer runs as it did in the server. Request ids start at
    /// `first_id`.
    pub fn replay_traced(
        &self,
        ops: &[Op],
        rec: &mut Recorder,
        first_id: u64,
        layers: &mut Layers,
    ) -> Vec<Reference> {
        ops.iter()
            .enumerate()
            .map(|(k, op)| self.serve(op, rec, first_id + k as u64, layers, false))
            .collect()
    }

    /// One operation as the server handles it. Probes (the per-column
    /// layer re-runs) run only when `rec` is enabled.
    pub fn serve(
        &self,
        op: &Op,
        rec: &mut Recorder,
        id: u64,
        layers: &mut Layers,
        memo: bool,
    ) -> Reference {
        if memo && op.memo.iter().all(Option::is_some) && op.endpoint == Endpoint::Annotate {
            let key = op.memo[0].expect("checked above");
            if let Some(answer) = self.memo.lock().expect("memo lock").get(&key) {
                return Reference {
                    answers: vec![answer.clone()],
                    request_ns: 0,
                };
            }
        }
        layers.body_bytes.push(op.body.len() as f64);
        let reference = match op.endpoint {
            Endpoint::Annotate => self.serve_annotate(op, rec, id, layers),
            Endpoint::Batch => self.serve_batch(op, rec, id, layers),
            Endpoint::Feedback => self.serve_feedback(op, rec, id, layers),
        };
        if memo {
            let mut map = self.memo.lock().expect("memo lock");
            for (key, answer) in op.memo.iter().zip(&reference.answers) {
                if let Some(key) = key {
                    map.insert(*key, answer.clone());
                }
            }
        }
        reference
    }

    fn lane(op: &Op) -> TrafficLane {
        match op.lane {
            Lane::Interactive => TrafficLane::Interactive,
            Lane::Crawl => TrafficLane::Crawl,
        }
    }

    fn admit(&self, lane: TrafficLane) {
        self.shaper
            .admit(&self.queue, lane, self.tenant, 0)
            .expect("the twin's queue never fills: it holds one job at a time per thread");
        let _ = self.queue.pop();
    }

    fn serve_annotate(
        &self,
        op: &Op,
        rec: &mut Recorder,
        id: u64,
        layers: &mut Layers,
    ) -> Reference {
        let lane = Self::lane(op);
        let started = Instant::now();
        let root = rec.enter("request", id);
        let (table, base, options) = rec.time("server.decode", id, || {
            let body = Json::parse(&op.body).expect("generated bodies are JSON");
            let table_json = body.get("table").unwrap_or(&body);
            let table = wire::table_from_json(table_json).expect("generated tables decode");
            let base = body
                .get("base")
                .filter(|b| !b.is_null())
                .map(|b| wire::table_from_json(b).expect("generated bases decode"));
            let options = wire::options_from_json(body.get("options")).expect("no options sent");
            (table, base, options)
        });
        rec.time("tenant.admit", id, || self.admit(lane));
        let typer = self.read();
        let executor = CascadeExecutor::from_config(typer.config());
        let mut options: RequestOptions = options;
        options.tenant = Some(self.tenant);
        let (request_budget, _) = options.resolved();
        let grant = rec.time("tenant.grant", id, || {
            self.shaper
                .request_budget(lane, self.tenant, request_budget)
        });
        let core_started = Instant::now();
        let outcome = rec.time("core.annotate", id, || match &grant {
            ShapedBudget::Shared(ledger) => typer.annotate_request_shared_with_base(
                &table,
                base.as_ref(),
                &executor,
                &options,
                ledger,
            ),
            ShapedBudget::Local { cap_nanos, .. } => {
                let local = BudgetLedger::bounded(*cap_nanos);
                typer.annotate_request_shared_with_base(
                    &table,
                    base.as_ref(),
                    &executor,
                    &options,
                    &local,
                )
            }
        });
        let core_ns = core_started.elapsed().as_nanos() as f64;
        rec.time("tenant.settle", id, || {
            self.shaper.settle(
                lane,
                self.tenant,
                &grant,
                outcome.degradation.spent_nanos,
                u64::from(outcome.degraded()),
                outcome.degradation.delta_reused as u64,
            );
        });
        let body = rec.time("server.encode", id, || {
            wire::outcome_to_json(&outcome, typer.ontology()).to_string()
        });
        rec.exit(root);
        let request_ns = started.elapsed().as_nanos() as u64;
        if rec.enabled() {
            let step_ns: u128 = outcome.annotation.timings.iter().map(|t| t.nanos).sum();
            layers
                .unattributed_us
                .push((core_ns - step_ns as f64).max(0.0) / 1e3);
            count_outcome(layers, &outcome, base.is_some());
            probe(&typer, &table, base.as_ref(), &outcome, rec, id, layers);
        }
        Reference {
            answers: normalize(Endpoint::Annotate, &body).expect("the twin's own answer parses"),
            request_ns,
        }
    }

    fn serve_batch(&self, op: &Op, rec: &mut Recorder, id: u64, layers: &mut Layers) -> Reference {
        let lane = Self::lane(op);
        let started = Instant::now();
        let root = rec.enter("request", id);
        let (tables, options) = rec.time("server.decode", id, || {
            let body = Json::parse(&op.body).expect("generated bodies are JSON");
            let tables: Vec<Table> = body
                .get("tables")
                .and_then(Json::as_array)
                .expect("batch bodies carry tables")
                .iter()
                .map(|t| wire::table_from_json(t).expect("generated tables decode"))
                .collect();
            let options = wire::options_from_json(body.get("options")).expect("no options sent");
            (tables, options)
        });
        rec.time("tenant.admit", id, || self.admit(lane));
        let typer = self.read();
        let mut options: RequestOptions = options;
        options.tenant = Some(self.tenant);
        let service = rec.time("service.batch_setup", id, || {
            AnnotationService::for_customer(typer.clone()).with_threads(WORKERS)
        });
        let bases: Vec<Option<&Table>> = vec![None; tables.len()];
        let outcomes = rec.time("service.batch", id, || {
            service.annotate_batch_request_shaped(&tables, &bases, &options, &self.shaper, lane)
        });
        let body = rec.time("server.encode", id, || {
            Json::object(vec![(
                "outcomes",
                Json::Arr(
                    outcomes
                        .iter()
                        .map(|o| wire::outcome_to_json(o, typer.ontology()))
                        .collect(),
                ),
            )])
            .to_string()
        });
        rec.exit(root);
        let request_ns = started.elapsed().as_nanos() as u64;
        if rec.enabled() {
            for (table, outcome) in tables.iter().zip(&outcomes) {
                count_outcome(layers, outcome, false);
                probe(&typer, table, None, outcome, rec, id, layers);
            }
        }
        Reference {
            answers: normalize(Endpoint::Batch, &body).expect("the twin's own answer parses"),
            request_ns,
        }
    }

    fn serve_feedback(
        &self,
        op: &Op,
        rec: &mut Recorder,
        id: u64,
        layers: &mut Layers,
    ) -> Reference {
        let started = Instant::now();
        let root = rec.enter("request", id);
        let (table, col_idx, type_name) = rec.time("server.decode", id, || {
            let body = Json::parse(&op.body).expect("generated bodies are JSON");
            let table = wire::table_from_json(body.get("table").expect("feedback has a table"))
                .expect("generated tables decode");
            let col_idx = body
                .get("col_idx")
                .and_then(Json::as_usize)
                .expect("feedback has a column");
            let type_name = body
                .get("type")
                .and_then(Json::as_str)
                .expect("feedback has a type")
                .to_owned();
            (table, col_idx, type_name)
        });
        let mut typer = self
            .typer
            .write()
            .expect("no replay thread panics holding the model");
        let ty = typer
            .ontology()
            .lookup_exact(&type_name)
            .expect("labels come from the builtin ontology");
        rec.time("local.feedback", id, || {
            typer.feedback(&table, col_idx, ty, None)
        });
        let epoch = typer.cache_epoch();
        let body = rec.time("server.encode", id, || {
            Json::object(vec![("ok", Json::from(true)), ("epoch", Json::from(epoch))]).to_string()
        });
        rec.exit(root);
        let request_ns = started.elapsed().as_nanos() as u64;
        layers.lfs = typer.local().lfs.len();
        self.memo.lock().expect("memo lock").clear();
        Reference {
            answers: normalize(Endpoint::Feedback, &body).expect("the twin's own answer parses"),
            request_ns,
        }
    }
}

/// Add one outcome's step timings and cascade exits to `layers`.
fn count_outcome(layers: &mut Layers, outcome: &AnnotationOutcome, delta: bool) {
    for t in &outcome.annotation.timings {
        layers.hits += t.cache_hits as u64;
        layers.misses += t.cache_misses as u64;
        layers.inserts += t.cache_inserts as u64;
        if delta {
            layers.delta_misses += t.cache_misses as u64;
        }
        if let Some(i) = step_index(t.step) {
            layers.step_runs[i] += t.columns as u64;
        }
    }
    layers.delta_reused += outcome.degradation.delta_reused as u64;
    layers.tables += 1;
    for col in &outcome.annotation.columns {
        layers.columns += 1;
        if let Some(i) = col.steps_run.last().copied().and_then(step_index) {
            layers.step_exits[i] += 1;
        }
    }
}

/// Re-run the per-column layers of one annotated table on the inputs
/// the request used: fingerprinting (or the delta diff with base and
/// chained fingerprints), each step on the columns it was evaluated
/// for, and the vote plus τ.
fn probe(
    typer: &SigmaTyper,
    table: &Table,
    base: Option<&Table>,
    outcome: &AnnotationOutcome,
    rec: &mut Recorder,
    id: u64,
    layers: &mut Layers,
) {
    let config = *typer.config();
    let step_ids = typer.cascade().step_ids();
    let epoch = typer.cache_epoch();
    match base {
        Some(base) => {
            layers.cells_hashed += (base.n_rows() * base.n_cols()
                + (table.n_rows().saturating_sub(base.n_rows())) * table.n_cols())
                as u64;
            rec.time("delta.diff", id, || {
                let delta = TableDelta::between(base, table).expect("recrawls keep the shape");
                let base_fps = column_fingerprints(base, &step_ids, &config, epoch);
                let states: Vec<ColumnHashState> = base
                    .columns()
                    .iter()
                    .zip(table.columns())
                    .zip(&delta.columns)
                    .map(|((b, n), d)| {
                        let mut s = ColumnHashState::of(b);
                        s.apply_delta(n, d);
                        s
                    })
                    .collect();
                let fps = column_fingerprints_chained(table, &step_ids, &config, epoch, &states);
                std::hint::black_box((base_fps, fps, delta.movements()));
            });
        }
        None => {
            layers.cells_hashed += (table.n_rows() * table.n_cols()) as u64;
            rec.time("cache.fingerprint", id, || {
                std::hint::black_box(column_fingerprints(table, &step_ids, &config, epoch));
            });
        }
    }
    let global = typer.global();
    let local = typer.local();
    let cols = &outcome.annotation.columns;
    let headers = table.headers();
    let ran = |step: StepId| -> Vec<usize> {
        cols.iter()
            .filter(|c| c.steps_run.contains(&step))
            .map(|c| c.col_idx)
            .collect()
    };
    let names = ["step.header", "step.lookup", "step.embedding"];
    for (i, step) in STEPS.iter().enumerate() {
        let which = ran(*step);
        if which.is_empty() {
            continue;
        }
        let span = rec.enter(names[i], id);
        let started = Instant::now();
        for &ci in &which {
            let column = table.column(ci).expect("column in range");
            let scores: StepScores = match i {
                0 => global
                    .header
                    .match_header(headers[ci], &global.embedder, &config),
                1 => {
                    let neighbors: Vec<_> = cols
                        .iter()
                        .filter(|c| c.col_idx != ci && !c.predicted.is_unknown())
                        .map(|c| c.predicted)
                        .collect();
                    let banks = [&global.global_lfs[..], &local.lfs[..]];
                    global.lookup.lookup(
                        column,
                        &tu_text::normalize_header(headers[ci]),
                        &neighbors,
                        &banks,
                        &config,
                    )
                }
                _ => {
                    let neighbors: Vec<&str> = headers
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != ci)
                        .map(|(_, h)| *h)
                        .collect();
                    let scores = global.embedding.predict(column, &neighbors);
                    match &local.finetuned {
                        Some(model) => model.predict(column, &neighbors),
                        None => scores,
                    }
                }
            };
            std::hint::black_box(scores);
        }
        layers.step_probe_ns[i] += started.elapsed().as_nanos() as u64;
        layers.step_probe_cols[i] += which.len() as u64;
        rec.exit(span);
    }
    let cascade = typer.cascade();
    rec.time("aggregate", id, || {
        for col in cols {
            let executed: Vec<(StepId, &StepScores)> = col
                .steps_run
                .iter()
                .copied()
                .zip(&col.step_scores)
                .collect();
            let top = soft_majority_vote_with(&executed, &config, &|s| cascade.weight(s, &config));
            std::hint::black_box(apply_tau(&top, config.tau));
        }
    });
}

/// Canonical form of an answer body for comparison: per outcome, with
/// the timing fields (`spent_nanos`, `remaining_nanos`) zeroed; for a
/// feedback, only its `ok` flag (the epoch value is process-specific).
/// `None` when the body is not an answer of that endpoint.
#[must_use]
pub fn normalize(endpoint: Endpoint, body: &str) -> Option<Vec<String>> {
    let json = Json::parse(body).ok()?;
    match endpoint {
        Endpoint::Annotate => Some(vec![normalize_outcome(json)?]),
        Endpoint::Batch => {
            let Json::Obj(members) = json else {
                return None;
            };
            let (_, outcomes) = members.into_iter().find(|(k, _)| k == "outcomes")?;
            let Json::Arr(outcomes) = outcomes else {
                return None;
            };
            outcomes.into_iter().map(normalize_outcome).collect()
        }
        Endpoint::Feedback => {
            let ok = json.get("ok")?.as_bool()?;
            Some(vec![Json::object(vec![("ok", Json::from(ok))]).to_string()])
        }
    }
}

fn normalize_outcome(mut outcome: Json) -> Option<String> {
    let Json::Obj(members) = &mut outcome else {
        return None;
    };
    let (_, report) = members.iter_mut().find(|(k, _)| k == "degradation")?;
    let Json::Obj(report) = report else {
        return None;
    };
    for (k, v) in report.iter_mut() {
        if k == "spent_nanos" || k == "remaining_nanos" {
            *v = Json::UInt(0);
        }
    }
    members.iter().find(|(k, _)| k == "columns")?;
    Some(outcome.to_string())
}
