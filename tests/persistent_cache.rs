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
//! * an adaptation in one instance advances the durable epoch, so a
//!   second instance sharing the directory refuses every lookup and
//!   embedding entry the first one wrote, and reads only the header
//!   entries written under its own `Wg` state; compaction then drops
//!   the dead lookup and embedding entries and keeps the header ones.
//!
//! The companion `persistent_cache_procs.rs` repeats the round-trip
//! across two real OS processes in CI.

use sigmatyper::{
    train_global, DurableEpochSource, GlobalModel, SigmaTyper, SigmaTyperConfig, StepCache, StepId,
    TableAnnotation, TieredStepCache, TrainingConfig,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology};
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

#[test]
fn adaptation_in_one_process_invalidates_entries_read_by_another() {
    let scratch = Scratch::new("invalidate");
    let tables = warehouse();
    let o = builtin_ontology();

    // Process A crawls (filling the disk tier), then takes a
    // correction — which advances the *durable* epoch, write-ahead.
    let stale_epoch = {
        let mut typer = open_typer(&scratch.0);
        for t in &tables {
            let _ = typer.annotate(t);
        }
        let before = typer.cache_epoch();
        typer.feedback(&tables[0], 0, builtin_id(&o, "city"), None);
        assert_ne!(typer.cache_epoch(), before, "feedback re-draws the epoch");
        typer.step_cache().unwrap().flush().unwrap();
        before
    };

    // Process B starts later over the same directory. It resumes the
    // *advanced* epoch, so every column fingerprint moves and no
    // lookup or embedding score A wrote can be served. B's local model
    // is a fresh one, so its `Wg` state under every header is the one
    // A's crawl wrote its header entries under: every header column
    // hits one of those, and B answers what an uncached fresh customer
    // answers.
    let typer = open_typer(&scratch.0);
    assert_ne!(
        typer.cache_epoch(),
        stale_epoch,
        "the durable epoch carried the adaptation across processes"
    );
    let anns: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    let bare = SigmaTyper::new(global(), SigmaTyperConfig::default());
    for (got, table) in anns.iter().zip(&tables) {
        assert_identical(got, &bare.annotate(table));
    }
    let c = counts(&anns);
    assert!(c.runs > 0, "lookup and embedding must run again");
    assert_eq!(c.other_hits, 0, "no lookup or embedding entry survives");
    assert_eq!(
        c.header_hits,
        tables.iter().map(Table::n_cols).sum::<usize>(),
        "every header entry A wrote is still B's"
    );

    // Compaction under the live epoch reclaims A's unreachable
    // entries while keeping B's fresh ones. Dropping the typer first
    // releases the directory's advisory writer lock, else the reopen
    // would (correctly) refuse a second live writer.
    let live = typer.cache_epoch();
    drop(typer);
    let cache = TieredStepCache::open(scratch.0.join("cache"), 1 << 14).expect("reopen tier");
    let before_len = cache.l2().len();
    let dropped = cache.compact(&[live]).expect("compact");
    assert!(dropped > 0, "stale-epoch entries were reclaimed");
    assert_eq!(cache.l2().len(), before_len - dropped);
    assert!(!cache.l2().is_empty(), "live-epoch entries survive");
    drop(cache);

    // Compaction kept A's header entries, whose keys hash no epoch,
    // beside B's lookup and embedding entries: a crawl after it runs
    // no step and answers what B answered.
    let typer = open_typer(&scratch.0);
    let after: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    assert_eq!(counts(&after).runs, 0, "compaction dropped a live entry");
    for (a, b) in anns.iter().zip(&after) {
        assert_identical(a, b);
    }
}
