//! The restart round-trip across two *real* OS processes.
//!
//! `persistent_cache.rs` simulates a restart by dropping and
//! rebuilding the `SigmaTyper` inside one process. That cannot catch
//! a whole class of bugs — anything keyed off process-local state
//! (the in-memory epoch counter, pointer-derived hashes, HashMap
//! iteration order leaking into scores). This test is run twice by CI
//! as two separate `cargo test` invocations:
//!
//! ```text
//! SIGMATYPER_PERSIST_TEST_DIR=$DIR SIGMATYPER_PERSIST_PHASE=write \
//!     cargo test -q -p table-understanding --test persistent_cache_procs
//! SIGMATYPER_PERSIST_TEST_DIR=$DIR SIGMATYPER_PERSIST_PHASE=read \
//!     cargo test -q -p table-understanding --test persistent_cache_procs
//! ```
//!
//! The write phase crawls a deterministic warehouse through the disk
//! tier and dumps every decision (type + confidence bits) to a golden
//! file, then takes one correction and crawls again, writing the
//! adapted model's entries beside the golden ones. The read phase — a
//! different PID, a different address space, and a fresh local model,
//! since the local model is not persisted — reopens the directory,
//! asserts the recrawl runs **zero** steps, and bit-compares its
//! decisions against the golden dump: a restart answers as the
//! customer as built and never from the adapted model's entries.
//! With the env vars unset (the normal `cargo test` run) the test is
//! a no-op.

use sigmatyper::{
    train_global, DurableEpochSource, GlobalModel, SigmaTyper, SigmaTyperConfig, StepId,
    TableAnnotation, TieredStepCache, TrainingConfig,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_table::Table;

/// Both processes must derive the identical model and warehouse from
/// scratch — the disk tier is the only state they share.
fn setup() -> (Arc<GlobalModel>, Vec<Table>) {
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0x2F00C, 40));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
    let tables = generate_corpus(
        &builtin_ontology(),
        &CorpusConfig::database_like(0xCAFE, 12),
    )
    .tables
    .into_iter()
    .map(|at| at.table)
    .collect();
    (global, tables)
}

fn open_typer(global: Arc<GlobalModel>, dir: &Path) -> SigmaTyper {
    let source = DurableEpochSource::open(dir.join("epoch")).expect("open epoch file");
    let cache = TieredStepCache::open(dir.join("cache"), 1 << 14).expect("open disk tier");
    SigmaTyper::builder(global)
        .config(SigmaTyperConfig::default())
        .step_cache(Arc::new(cache))
        .epoch_source(Arc::new(source))
        .build()
}

/// `(step-columns run, header-step hits, other hits)` over a batch.
fn counts(anns: &[TableAnnotation]) -> (usize, usize, usize) {
    anns.iter()
        .flat_map(|a| a.timings.iter())
        .fold((0, 0, 0), |(runs, header, other), t| {
            if t.step == StepId::HEADER {
                (runs + t.columns, header + t.cache_hits, other)
            } else {
                (runs + t.columns, header, other + t.cache_hits)
            }
        })
}

/// Header columns − distinct header texts: the header hits of a
/// sequential cold crawl on entries it inserted itself.
fn repeated_headers(tables: &[Table]) -> usize {
    let distinct: HashSet<&str> = tables.iter().flat_map(Table::headers).collect();
    tables.iter().map(Table::n_cols).sum::<usize>() - distinct.len()
}

/// One line per column: everything that must survive the restart bit
/// for bit. Confidences are dumped as hex bit patterns — a text diff
/// of two dumps is a bit-identity check.
fn golden_dump(anns: &[TableAnnotation]) -> String {
    let mut out = String::new();
    for (ti, ann) in anns.iter().enumerate() {
        for col in &ann.columns {
            write!(
                out,
                "{ti} {} {} {:016x}",
                col.col_idx,
                col.predicted.0,
                col.confidence.to_bits()
            )
            .unwrap();
            for c in &col.top_k {
                write!(out, " {}:{:016x}", c.ty.0, c.confidence.to_bits()).unwrap();
            }
            for s in &col.steps_run {
                write!(out, " {s:?}").unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn persist_phase() {
    let Ok(dir) = std::env::var("SIGMATYPER_PERSIST_TEST_DIR") else {
        return; // Not the CI harness: nothing to do.
    };
    let phase = std::env::var("SIGMATYPER_PERSIST_PHASE").unwrap_or_default();
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    let (global, tables) = setup();

    match phase.as_str() {
        "write" => {
            let mut typer = open_typer(global, &dir);
            let anns: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
            let (runs, header_hits, other_hits) = counts(&anns);
            assert!(runs > 0, "cold crawl must run steps");
            assert_eq!(other_hits, 0, "first crawl hits only header entries");
            assert_eq!(header_hits, repeated_headers(&tables));
            let golden = golden_dump(&anns);
            std::fs::write(dir.join("golden.txt"), &golden).expect("write golden dump");
            // Correct a column that ran past the header step away from
            // its prediction — the local labeling functions and model
            // that correction grows feed the lookup and embedding steps —
            // then crawl again: the adapted model's entries land on disk
            // beside the golden ones.
            let city = typer.ontology().lookup_exact("city").expect("city type");
            let (ti, ci) = anns
                .iter()
                .enumerate()
                .find_map(|(ti, a)| {
                    a.columns
                        .iter()
                        .find(|c| {
                            c.steps_run.len() > 1
                                && !c.predicted.is_unknown()
                                && c.predicted != city
                        })
                        .map(|c| (ti, c.col_idx))
                })
                .expect("a column past the header step predicted as something other than city");
            typer.feedback(&tables[ti], ci, city, None);
            let adapted: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
            assert_ne!(
                golden_dump(&adapted),
                golden,
                "the correction must change an answer"
            );
            typer
                .step_cache()
                .unwrap()
                .flush()
                .expect("flush disk tier");
        }
        "read" => {
            let golden =
                std::fs::read_to_string(dir.join("golden.txt")).expect("golden dump from phase 1");
            let typer = open_typer(global, &dir);
            let anns: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
            let (runs, _, other_hits) = counts(&anns);
            assert_eq!(runs, 0, "fresh process must recrawl warm from disk");
            assert!(other_hits > 0, "the disk tier served the recrawl");
            assert_eq!(
                golden_dump(&anns),
                golden,
                "decisions must be bit-identical across processes"
            );
        }
        other => panic!("SIGMATYPER_PERSIST_PHASE must be write|read, got {other:?}"),
    }
}
