//! Surviving a restart: the persistent step-cache tier.
//!
//! A data catalog crawls the same warehouse for months, but the
//! crawler itself restarts — deploys, crashes, autoscaling. The
//! in-memory LRU dies with the process, so before the disk tier every
//! restart meant a full recrawl. Here we crawl once, "restart" (a
//! fresh `SigmaTyper` over the same cache directory), and watch the
//! new process recrawl without running a single step — then adapt the
//! customer and crawl again. The adapted epoch lives in memory only:
//! the epoch file keeps naming the customer as built, which is what a
//! restart rebuilds (the local model is not persisted), so the next
//! process again runs nothing and answers as the first one did, and a
//! compaction under that epoch reclaims the adapted lookup and
//! embedding entries while keeping every header entry.
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
    let mut typer = start_process(Arc::clone(&global), &dir);
    let base = typer.cache_epoch();
    let warm: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (warm_runs, warm_hits) = counts(&warm);
    println!("process 2 (restart):  {warm_runs:>4} step-columns run, {warm_hits:>4} disk hits");
    assert_eq!(warm_runs, 0, "a restart must not forfeit the cache");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.predictions(), b.predictions(), "cache must be invisible");
    }

    // The customer corrects a column. The epoch moves in memory, so
    // this process never serves pre-correction lookup or embedding
    // scores; the epoch file is not written.
    let o = typer.ontology().clone();
    typer.feedback(&warehouse[1].clone(), 0, builtin_id(&o, "city"), None);
    println!(
        "feedback applied:     epoch {base} -> {}",
        typer.cache_epoch()
    );
    let adapted: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (adapted_runs, adapted_hits) = counts(&adapted);
    println!(
        "process 2 (adapted):  {adapted_runs:>4} step-columns run, {adapted_hits:>4} cache hits"
    );
    assert!(adapted_runs > 0, "pre-correction entries must not serve");
    typer.step_cache().expect("cache").flush().expect("flush");
    drop(typer);

    // Process 3 is the customer as built again — the local model is
    // not persisted — and resumes the starting epoch from the file, so
    // it reads process 1's entries, runs nothing, and answers as
    // process 1 did.
    let typer = start_process(Arc::clone(&global), &dir);
    assert_eq!(
        typer.cache_epoch(),
        base,
        "the epoch file names the customer as built"
    );
    let restarted: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (restarted_runs, restarted_hits) = counts(&restarted);
    println!(
        "process 3 (restart):  {restarted_runs:>4} step-columns run, {restarted_hits:>4} disk hits"
    );
    assert_eq!(restarted_runs, 0, "a restart must not forfeit the cache");
    for (a, b) in cold.iter().zip(&restarted) {
        assert_eq!(
            a.predictions(),
            b.predictions(),
            "a restart answers as built"
        );
    }
    drop(typer);

    // Compaction under the starting epoch drops process 2's
    // post-feedback lookup and embedding records, which no restart
    // reads, and keeps every header record.
    let cache = TieredStepCache::open(dir.join("cache"), 1 << 16).expect("reopen tier");
    let before_len = cache.l2().len();
    let dropped = cache.compact(&[base]).expect("compact");
    println!(
        "compaction:           {before_len} entries -> {} ({dropped} stale dropped)",
        cache.l2().len()
    );
    assert!(dropped > 0);
    drop(cache);

    // Process 4 after compaction: every record it reads survived, so
    // the recrawl runs nothing.
    let typer = start_process(global, &dir);
    let compacted: Vec<_> = warehouse.iter().map(|t| typer.annotate(t)).collect();
    let (compacted_runs, compacted_hits) = counts(&compacted);
    println!(
        "process 4 (compacted): {compacted_runs:>3} step-columns run, {compacted_hits:>4} disk hits"
    );
    assert_eq!(compacted_runs, 0, "compaction must keep every live entry");
    for (a, b) in cold.iter().zip(&compacted) {
        assert_eq!(a.predictions(), b.predictions(), "cache must be invisible");
    }
    drop(typer);

    let _ = std::fs::remove_dir_all(&dir);
    println!("restart survived, adapted entries unread, segment compacted.");
}
