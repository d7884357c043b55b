//! Restart round-trips through the persistent step-cache tier.
//!
//! The in-memory `ShardedLruCache` dies with its process, so before
//! the disk tier every recrawl after a restart was cold — and, worse,
//! nothing tied cached scores to the *customer's adaptation state*
//! across processes: a stale cache file plus a reset epoch counter
//! could serve scores from before a correction. These tests pin the
//! fix end to end:
//!
//! * a fresh `SigmaTyper` in a "new process" (fresh instance, same
//!   global model, same cache directory) reruns **zero** steps and
//!   produces bit-identical annotations;
//! * a truncated segment file degrades to a *cold* cache — correct
//!   answers, never garbage, never a panic;
//! * the epoch file names the customer as built: adaptation moves the
//!   epoch in memory and never writes the file, so a restart after a
//!   correction (the local model is not persisted) resumes the
//!   starting epoch, runs zero steps and answers as the customer as
//!   built, never from entries the adapted model wrote; compaction
//!   under the starting epoch then drops the adapted lookup and
//!   embedding entries and keeps every header entry.
//!
//! The companion `persistent_cache_procs.rs` repeats the round-trip
//! across two real OS processes in CI.

use sigmatyper::{
    train_global, AnnotationRequest, DurableEpochSource, GlobalModel, SigmaTyper, SigmaTyperConfig,
    StepCache, StepId, TableAnnotation, TieredStepCache, TrainingConfig,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology, TypeId, ValueKind};
use tu_table::Table;

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0xD15C, 40));
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

fn warehouse() -> Vec<Table> {
    let o = builtin_ontology();
    generate_corpus(&o, &CorpusConfig::database_like(0x7AB1E5, 12))
        .tables
        .into_iter()
        .map(|at| at.table)
        .collect()
}

/// A throwaway directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| {
                d.subsec_nanos() as u128 + d.as_secs() as u128 * 1_000_000_000
            });
        let dir = std::env::temp_dir().join(format!(
            "sigmatyper-itest-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Step tallies summed over a batch.
#[derive(Debug, Default)]
struct Counts {
    /// Step-columns run, every step included.
    runs: usize,
    /// Cache hits of the header step.
    header_hits: usize,
    /// Cache hits of every other step.
    other_hits: usize,
}

fn counts(anns: &[TableAnnotation]) -> Counts {
    let mut c = Counts::default();
    for t in anns.iter().flat_map(|a| a.timings.iter()) {
        c.runs += t.columns;
        if t.step == StepId::HEADER {
            c.header_hits += t.cache_hits;
        } else {
            c.other_hits += t.cache_hits;
        }
    }
    c
}

/// Header columns − distinct header texts: the header hits of a
/// sequential cold crawl, each on an entry an earlier table of the
/// same crawl inserted under the same `Wg` state.
fn repeated_headers(tables: &[Table]) -> usize {
    let distinct: HashSet<&str> = tables.iter().flat_map(Table::headers).collect();
    tables.iter().map(Table::n_cols).sum::<usize>() - distinct.len()
}

/// A cold crawl runs every step; its only hits are header entries it
/// inserted itself.
fn assert_cold(c: &Counts, tables: &[Table]) {
    assert!(c.runs > 0, "a cold crawl must actually run steps");
    assert_eq!(c.other_hits, 0, "only header entries can hit cold");
    assert_eq!(
        c.header_hits,
        repeated_headers(tables),
        "header hits must come from this crawl's own entries"
    );
}

/// Everything except wall-clock timings must match bit for bit.
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

/// Build a customer instance over `dir` the way a process would at
/// startup: durable epoch beside the segment, disk tier behind an LRU.
fn open_typer(dir: &std::path::Path) -> SigmaTyper {
    let source = DurableEpochSource::open(dir.join("epoch")).expect("open epoch file");
    let cache = TieredStepCache::open(dir.join("cache"), 1 << 14).expect("open disk tier");
    SigmaTyper::builder(global())
        .config(SigmaTyperConfig::default())
        .step_cache(Arc::new(cache))
        .epoch_source(Arc::new(source))
        .build()
}

#[test]
fn restart_roundtrip_is_warm_and_bit_identical() {
    let scratch = Scratch::new("roundtrip");
    let tables = warehouse();

    // "Process A": cold crawl, memoized to disk through the tier.
    let first = {
        let typer = open_typer(&scratch.0);
        let anns: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
        assert_cold(&counts(&anns), &tables);
        typer
            .step_cache()
            .expect("cache attached")
            .flush()
            .expect("flush disk tier");
        anns
    }; // typer dropped: the "process" exits.

    // "Process B": fresh instance, same directory. The L1 LRU is
    // empty, but the disk tier serves every step, header included.
    let typer = open_typer(&scratch.0);
    let again: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    let c = counts(&again);
    assert_eq!(c.runs, 0, "restart recrawl must run zero steps");
    assert!(c.other_hits > 0, "the disk tier served the recrawl");
    assert!(
        c.header_hits > repeated_headers(&tables),
        "and its header entries"
    );
    for (a, b) in first.iter().zip(&again) {
        assert_identical(a, b);
    }
}

#[test]
fn truncated_segment_is_cold_never_garbage() {
    let scratch = Scratch::new("truncate");
    let tables = warehouse();

    // Reference annotations from a cache-less instance.
    let bare = SigmaTyper::new(global(), SigmaTyperConfig::default());
    let reference: Vec<TableAnnotation> = tables.iter().map(|t| bare.annotate(t)).collect();

    {
        let typer = open_typer(&scratch.0);
        for t in &tables {
            let _ = typer.annotate(t);
        }
        typer.step_cache().unwrap().flush().unwrap();
    }

    // Tear the segment mid-record, as a crash mid-append would.
    let segment = scratch.0.join("cache").join("cache.seg");
    let len = std::fs::metadata(&segment).expect("segment exists").len();
    assert!(len > 23, "crawl must have written records");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open segment");
    file.set_len(len - 7).expect("truncate mid-record");
    drop(file);

    // Reopen: the torn tail is discarded, the reachable prefix still
    // serves, and every annotation matches the cache-less reference.
    let typer = open_typer(&scratch.0);
    let after: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    for (a, b) in reference.iter().zip(&after) {
        assert_identical(a, b);
    }
    // Release the advisory writer lock before reopening below
    // (shadowing alone would keep the old handle — and its lock —
    // alive to the end of scope).
    drop(typer);

    // Sever the whole file down to a bare header: fully cold, still
    // correct.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open segment");
    file.set_len(16).expect("truncate to header");
    drop(file);
    let typer = open_typer(&scratch.0);
    let cold: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    // An empty segment means a cold crawl.
    assert_cold(&counts(&cold), &tables);
    for (a, b) in reference.iter().zip(&cold) {
        assert_identical(a, b);
    }
}

/// Each column's decision, confidence bits included.
fn decisions(ann: &TableAnnotation) -> Vec<(TypeId, u64)> {
    ann.columns
        .iter()
        .map(|c| (c.predicted, c.confidence.to_bits()))
        .collect()
}

/// `(step-columns run, inserts)` of the lookup and embedding steps of
/// a batch — the column-scoped steps, whose records carry an epoch.
fn column_step_traffic(anns: &[TableAnnotation]) -> (usize, usize) {
    anns.iter()
        .flat_map(|a| a.timings.iter())
        .filter(|t| t.step != StepId::HEADER)
        .fold((0, 0), |(runs, inserts), t| {
            (runs + t.columns, inserts + t.cache_inserts)
        })
}

#[test]
fn restart_after_adaptation_answers_as_built() {
    let scratch = Scratch::new("restart-adapted");
    let tables = warehouse();
    let bare = SigmaTyper::new(global(), SigmaTyperConfig::default());
    let as_built: Vec<TableAnnotation> = tables.iter().map(|t| bare.annotate(t)).collect();
    // A correction that overrides what the customer as built predicts,
    // under an informative header, so it changes `Wg` as well as the
    // local model.
    let city = builtin_id(&builtin_ontology(), "city");
    let (ti, ci) = as_built
        .iter()
        .enumerate()
        .flat_map(|(ti, a)| a.columns.iter().map(move |c| (ti, c)))
        .find(|(ti, c)| {
            let header = tu_text::normalize_header(tables[*ti].headers()[c.col_idx]);
            !c.predicted.is_unknown()
                && c.predicted != city
                && !tu_dp::infer::is_generic_header(&header)
        })
        .map(|(ti, c)| (ti, c.col_idx))
        .expect("a column predicted as something other than city");

    // Process A crawls, takes the correction, crawls again and exits.
    let (base, base_len, adapted_header_inserts, adapted_column_inserts) = {
        let mut typer = open_typer(&scratch.0);
        let base = typer.cache_epoch();
        let first: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
        assert_cold(&counts(&first), &tables);
        let cache = Arc::clone(typer.step_cache().expect("cache attached"));
        let base_len = cache.len();
        typer.feedback(&tables[ti], ci, city, None);
        assert_ne!(typer.cache_epoch(), base, "feedback re-draws the epoch");
        let adapted: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
        assert!(
            adapted
                .iter()
                .zip(&as_built)
                .any(|(a, b)| decisions(a) != decisions(b)),
            "the correction must change an answer for this test to mean anything"
        );
        let (column_runs, column_inserts) = column_step_traffic(&adapted);
        assert!(
            column_runs > 0 && column_inserts > 0,
            "A's recrawl wrote records"
        );
        let header_inserts = cache.len() - base_len - column_inserts;
        assert!(header_inserts > 0, "the correction changed a header's `Wg`");
        cache.flush().expect("flush disk tier");
        (base, base_len, header_inserts, column_inserts)
    };

    // Process B reopens the directory. Its local model is a fresh one,
    // so it resumes A's starting epoch and reads only the entries A
    // wrote as the customer as built: zero steps, and the answers of
    // the customer as built, cached or not.
    let typer = open_typer(&scratch.0);
    assert_eq!(typer.cache_epoch(), base, "B resumes A's starting epoch");
    let anns: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    assert_eq!(counts(&anns).runs, 0, "B's recrawl must run zero steps");
    for ((got, table), want) in anns.iter().zip(&tables).zip(&as_built) {
        let bypassed = typer
            .annotate_request(&AnnotationRequest::new(table).with_cache_bypassed())
            .into_annotation();
        assert_identical(got, &bypassed);
        assert_identical(got, want);
    }
    drop(typer);

    // Compaction under the starting epoch drops exactly A's
    // post-feedback lookup and embedding records and keeps every
    // header record, A's post-feedback ones included.
    let cache = TieredStepCache::open(scratch.0.join("cache"), 1 << 14).expect("reopen tier");
    let before_len = cache.l2().len();
    assert_eq!(
        before_len,
        base_len + adapted_header_inserts + adapted_column_inserts
    );
    let dropped = cache.compact(&[base]).expect("compact");
    assert_eq!(
        dropped, adapted_column_inserts,
        "A's post-feedback column records"
    );
    assert_eq!(cache.l2().len(), base_len + adapted_header_inserts);
    drop(cache);

    // A restart after compaction still runs no step and answers as
    // the customer as built.
    let typer = open_typer(&scratch.0);
    let after: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    assert_eq!(counts(&after).runs, 0, "compaction dropped a live entry");
    for (a, b) in as_built.iter().zip(&after) {
        assert_identical(a, b);
    }
}

/// Adaptation moves the epoch in memory and never writes the epoch
/// file, so the file keeps naming the customer as built.
#[test]
fn adaptation_never_writes_the_epoch_file() {
    let scratch = Scratch::new("epoch-file");
    let tables = warehouse();
    let path = scratch.0.join("epoch");
    let mut typer = open_typer(&scratch.0);
    let stored = std::fs::read(&path).expect("open wrote the epoch file");
    let base = typer.cache_epoch();
    let mut epochs = vec![base];
    let mut moved = |typer: &SigmaTyper, event: &str| {
        assert!(
            !epochs.contains(&typer.cache_epoch()),
            "{event} must draw a fresh epoch"
        );
        epochs.push(typer.cache_epoch());
        assert_eq!(
            std::fs::read(&path).expect("epoch file"),
            stored,
            "{event} wrote the epoch file"
        );
    };
    let city = builtin_id(typer.ontology(), "city");
    typer.feedback(&tables[0], 0, city, None);
    moved(&typer, "feedback");
    let ann = typer.annotate(&tables[1]);
    typer.implicit_approve(&tables[1], &ann);
    moved(&typer, "implicit_approve");
    typer
        .register_custom_type("widget", ValueKind::Textual, &[])
        .expect("new type name");
    moved(&typer, "register_custom_type");
    let _ = typer.cascade_mut();
    moved(&typer, "cascade_mut");
    typer.invalidate_cache();
    moved(&typer, "invalidate_cache");
    drop(typer);
    assert_eq!(
        DurableEpochSource::open(&path)
            .expect("reopen epoch file")
            .current(),
        base,
        "a reopen resumes the epoch the customer was built with"
    );
    assert_eq!(std::fs::read(&path).expect("epoch file"), stored);
}
