//! Caching repeat crawls: attach the fingerprint-keyed step cache,
//! crawl a warehouse twice, and watch the warm pass run no step at
//! all — then adapt the customer and watch the epoch invalidate the
//! lookup and embedding entries while the header entries survive, and
//! those two steps redo only their customer's half: the global halves
//! the earlier crawls stored still hold.
//!
//! ```text
//! cargo run --release --example cached_recrawl
//! ```

use sigmatyper::{train_global, AnnotationService, SigmaTyperConfig, StepId, TrainingConfig};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology};
use tu_table::{Column, Table};

/// Sum `(step-columns run, cache hits)` over a batch's step timings.
/// The header step's entries are keyed by header text, so even a cold
/// crawl hits them for headers another table already used.
fn counts(anns: &[sigmatyper::TableAnnotation]) -> (usize, usize) {
    anns.iter()
        .flat_map(|a| a.timings.iter())
        .fold((0, 0), |(runs, hits), t| {
            (runs + t.columns, hits + t.cache_hits)
        })
}

fn main() {
    // Shared global model, pretrained once (Figure 2).
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 40));
    let global = std::sync::Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));

    // A "warehouse": the tables a data catalog crawls periodically.
    // Between crawls they barely change — the paper's deployment shape.
    let warehouse: Vec<Table> = corpus.tables.iter().map(|at| at.table.clone()).collect();

    // The batch service with the default sharded-LRU step cache.
    let mut service = AnnotationService::new(global, SigmaTyperConfig::default())
        .with_threads(4)
        .cached(1 << 16);

    // Crawl 1 (cold): every step runs, every result is memo'd — bar
    // the header step on headers an earlier table already used.
    let cold = service.annotate_batch(&warehouse);
    let (cold_runs, cold_hits) = counts(&cold);
    println!("crawl 1 (cold):    {cold_runs:>4} step-columns run, {cold_hits:>4} cache hits");

    // Crawl 2 (warm): nothing changed, so nothing runs.
    let warm = service.annotate_batch(&warehouse);
    let (warm_runs, warm_hits) = counts(&warm);
    println!("crawl 2 (warm):    {warm_runs:>4} step-columns run, {warm_hits:>4} cache hits");
    assert_eq!(
        warm_runs, 0,
        "unchanged warehouse: every step served from cache"
    );
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.predictions(), b.predictions(), "cache must be invisible");
    }

    // Crawl 3: one table gained a column ("Untidy Data": spreadsheets
    // evolve incrementally). Only that table re-runs; the rest hit.
    let mut evolved = warehouse.clone();
    let mut cols = evolved[0].clone().into_columns();
    let n = cols[0].len();
    cols.push(Column::from_raw("review_status", &vec!["approved"; n][..]));
    evolved[0] = Table::new("evolved_table", cols).expect("valid table");
    let drift = service.annotate_batch(&evolved);
    let (drift_runs, drift_hits) = counts(&drift);
    println!(
        "crawl 3 (1 table changed): {drift_runs:>4} step-columns run, {drift_hits:>4} cache hits"
    );
    assert!(drift_runs > 0 && drift_hits > 0);

    // Adaptation invalidates: after feedback, the customer's epoch
    // changes, every column fingerprint moves, and the next crawl
    // re-scores the lookup and embedding steps with the adapted models —
    // a warm cache can never serve their scores from before the
    // correction. What those steps read of the column and the global
    // model alone — lookup's unweighted KB, rule and global-LF
    // candidates; embedding's feature vector and global head — is kept
    // as a global half keyed by no epoch, so they run only their local
    // combine (`Wg`, the customer's LFs, the finetuned head). Header
    // entries are keyed by the header's `Wg` state instead of the
    // epoch, so the header step matches again only under a header
    // whose `Wg` the correction changed.
    let o = service.typer().ontology().clone();
    let epoch_before = service.typer().cache_epoch();
    let correction = warehouse[1].clone();
    let ty = builtin_id(&o, "city");
    let col = 0;
    service.typer_mut().feedback(&correction, col, ty, None);
    println!(
        "feedback applied:  epoch {} -> {}",
        epoch_before,
        service.typer().cache_epoch()
    );
    let post = service.annotate_batch(&warehouse);
    let (post_runs, post_hits) = counts(&post);
    let timings = || post.iter().flat_map(|a| a.timings.iter());
    let header_runs: usize = timings()
        .filter(|t| t.step == StepId::HEADER)
        .map(|t| t.columns)
        .sum();
    let (split_runs, global_hits) = timings()
        .filter(|t| t.step == StepId::LOOKUP || t.step == StepId::EMBEDDING)
        .fold((0, 0), |(runs, hits), t| {
            (runs + t.columns, hits + t.global_hits)
        });
    println!(
        "crawl 4 (adapted): {post_runs:>4} step-columns run ({header_runs} header matches), {post_hits:>4} cache hits"
    );
    println!(
        "                   {global_hits:>4} of {split_runs} lookup/embedding runs were combines on stored global halves"
    );
    assert!(post_runs > 0, "adaptation must invalidate cached scores");
    assert!(
        global_hits > 0 && global_hits <= split_runs,
        "the global halves survive the feedback"
    );
    let (rewarm_runs, rewarm_hits) = counts(&service.annotate_batch(&warehouse));
    println!("crawl 5 (re-warm): {rewarm_runs:>4} step-columns run, {rewarm_hits:>4} cache hits");
    assert_eq!(rewarm_runs, 0, "adapted state re-warms");

    // The default backend reports aggregate stats.
    println!(
        "\ncache entries now held: {}",
        service
            .typer()
            .step_cache()
            .expect("cache configured")
            .len()
    );
}
