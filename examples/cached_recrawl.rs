//! Caching repeat crawls: attach the fingerprint-keyed step cache,
//! crawl a warehouse twice, and watch the warm pass skip every
//! cacheable step — then adapt the customer and watch the epoch
//! invalidate the cache.
//!
//! ```text
//! cargo run --release --example cached_recrawl
//! ```

use sigmatyper::{train_global, AnnotationService, SigmaTyperConfig, StepId, TrainingConfig};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology};
use tu_table::{Column, Table};

/// Sum `(cacheable columns run, cache hits)` over a batch's step
/// timings. The header step opts out of memoization (cache admission,
/// see `HeaderStep::cacheable`), so its re-runs are expected on every
/// crawl and excluded from the "did the cache work" accounting.
fn counts(anns: &[sigmatyper::TableAnnotation]) -> (usize, usize) {
    anns.iter()
        .flat_map(|a| a.timings.iter())
        .fold((0, 0), |(runs, hits), t| {
            let cacheable_runs = if t.step == StepId::HEADER {
                0
            } else {
                t.columns
            };
            (runs + cacheable_runs, hits + t.cache_hits)
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

    // Crawl 1 (cold): every step runs, every result is memo'd.
    let cold = service.annotate_batch(&warehouse);
    let (cold_runs, cold_hits) = counts(&cold);
    println!("crawl 1 (cold):    {cold_runs:>4} step-columns run, {cold_hits:>4} cache hits");

    // Crawl 2 (warm): nothing changed, so nothing runs.
    let warm = service.annotate_batch(&warehouse);
    let (warm_runs, warm_hits) = counts(&warm);
    println!("crawl 2 (warm):    {warm_runs:>4} step-columns run, {warm_hits:>4} cache hits");
    assert_eq!(
        warm_runs, 0,
        "unchanged warehouse: every cacheable step served from cache"
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
    // changes, every fingerprint moves, and the next crawl recomputes
    // with the adapted models — a warm cache can never serve scores
    // from before the correction.
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
    let (post_runs, post_hits) = counts(&service.annotate_batch(&warehouse));
    println!("crawl 4 (adapted): {post_runs:>4} step-columns run, {post_hits:>4} cache hits");
    assert!(post_runs > 0, "adaptation must invalidate cached scores");
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
