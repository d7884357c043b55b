//! Surviving a restart: the persistent step-cache tier.
//!
//! A data catalog crawls the same warehouse for months, but the
//! crawler itself restarts — deploys, crashes, autoscaling. The
//! in-memory LRU dies with the process, so before the disk tier every
//! restart meant a full recrawl. Here we crawl once, "restart" (a
//! fresh `SigmaTyper` over the same cache directory), and watch the
//! new process recrawl without running a single step — then
//! adapt the customer and watch the *durable* epoch invalidate the
//! on-disk lookup and embedding entries for every future process,
//! and a compaction reclaim those while keeping the header entries
//! that every process still reads.
//!
//! ```text
//! cargo run --release --example persistent_recrawl
//! ```

use sigmatyper::{
    train_global, DurableEpochSource, GlobalModel, SigmaTyper, StepCache, TieredStepCache,
    TrainingConfig,
};
use std::path::Path;
use std::sync::Arc;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology};
use tu_table::Table;

/// Sum `(step-columns run, cache hits)` over a batch.
fn counts(anns: &[sigmatyper::TableAnnotation]) -> (usize, usize) {
    anns.iter()
        .flat_map(|a| a.timings.iter())
        .fold((0, 0), |(runs, hits), t| {
            (runs + t.columns, hits + t.cache_hits)
        })
}

/// What a crawler process does at startup: durable epoch beside the
/// segment file, disk tier as L2 behind a sharded LRU.
fn start_process(global: Arc<GlobalModel>, dir: &Path) -> SigmaTyper {
    let source = DurableEpochSource::open(dir.join("epoch")).expect("open epoch file");
    let cache = TieredStepCache::open(dir.join("cache"), 1 << 16).expect("open disk tier");
    SigmaTyper::builder(global)
        .step_cache(Arc::new(cache))
        .epoch_source(Arc::new(source))
        .build()
}

fn main() {
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 40));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
    let warehouse: Vec<Table> = corpus.tables.iter().map(|at| at.table.clone()).collect();

    let dir = std::env::temp_dir().join(format!("sigmatyper-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");

    // Process 1: cold crawl, memoized through the tier to disk.
    let typer = start_process(Arc::clone(&global), &dir);
    let cold: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (cold_runs, _) = counts(&cold);
    println!("process 1 (cold):     {cold_runs:>4} step-columns run");
    typer.step_cache().expect("cache").flush().expect("flush");
    drop(typer); // deploy, crash, autoscale-down — the process exits.

    // Process 2: fresh instance, same directory. The L1 LRU is empty,
    // but the segment file serves every step, header step included —
    // and the annotations are bit-identical to the cold crawl's.
    let typer = start_process(Arc::clone(&global), &dir);
    let warm: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (warm_runs, warm_hits) = counts(&warm);
    println!("process 2 (restart):  {warm_runs:>4} step-columns run, {warm_hits:>4} disk hits");
    assert_eq!(warm_runs, 0, "a restart must not forfeit the cache");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.predictions(), b.predictions(), "cache must be invisible");
    }

    // The customer corrects a column. The epoch advance is written to
    // the epoch file *before* the correction takes effect, so no
    // process — current or future — can serve pre-correction scores.
    let mut typer = typer;
    let o = typer.ontology().clone();
    let before = typer.cache_epoch();
    typer.feedback(&warehouse[1].clone(), 0, builtin_id(&o, "city"), None);
    println!(
        "feedback applied:     epoch {before} -> {}",
        typer.cache_epoch()
    );
    drop(typer);

    // Process 3 resumes the advanced epoch: the old lookup and
    // embedding entries are unreachable and re-run, and a compaction
    // pass reclaims the dead bytes. The local model is not persisted,
    // so process 3's `Wg` state is a fresh one — the state process 1
    // wrote its header entries under, which therefore still serve.
    let typer = start_process(Arc::clone(&global), &dir);
    let adapted: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (adapted_runs, adapted_hits) = counts(&adapted);
    println!(
        "process 3 (adapted):  {adapted_runs:>4} step-columns run, {adapted_hits:>4} disk hits"
    );
    assert!(adapted_runs > 0, "stale entries must not serve");
    let live = typer.cache_epoch();
    drop(typer);
    let cache = TieredStepCache::open(dir.join("cache"), 1 << 16).expect("reopen tier");
    let before_len = cache.l2().len();
    let dropped = cache.compact(&[live]).expect("compact");
    println!(
        "compaction:           {before_len} entries -> {} ({dropped} stale dropped)",
        cache.l2().len()
    );
    assert!(dropped > 0);
    drop(cache);

    // Process 4 after compaction: header entries carry no epoch, so
    // compaction kept process 1's beside process 3's lookup and
    // embedding entries, and the recrawl runs nothing.
    let typer = start_process(global, &dir);
    let compacted: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (compacted_runs, compacted_hits) = counts(&compacted);
    println!(
        "process 4 (compacted): {compacted_runs:>3} step-columns run, {compacted_hits:>4} disk hits"
    );
    assert_eq!(compacted_runs, 0, "compaction must keep every live entry");
    for (a, b) in adapted.iter().zip(&compacted) {
        assert_eq!(a.predictions(), b.predictions(), "cache must be invisible");
    }
    drop(typer);

    let _ = std::fs::remove_dir_all(&dir);
    println!("restart survived, adaptation propagated, segment compacted.");
}
