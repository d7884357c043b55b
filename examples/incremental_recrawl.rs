//! Incremental re-annotation: recrawl a warehouse whose tables each
//! gained ~1% new rows, handing the service the previous crawl as the
//! *base* so barely-moved columns reuse the base crawl's step scores
//! instead of recomputing them — then flip the sensitivity to 0 and
//! watch the escape hatch fall back to bit-identical full
//! recomputation.
//!
//! ```text
//! cargo run --release --example incremental_recrawl
//! ```

use sigmatyper::{
    train_global, AnnotationService, RequestOptions, SigmaTyperConfig, TrainingConfig,
};
use std::time::Instant;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_table::{Column, Table};

/// The next crawl's snapshot: every column grows by ~1% (at least one
/// row), recycling head values — the "most columns barely change
/// between crawls" deployment shape.
fn recrawled(table: &Table) -> Table {
    let extra = (table.columns()[0].values.len() / 100).max(1);
    let columns = table
        .columns()
        .iter()
        .map(|c| {
            let mut values = c.values.clone();
            for i in 0..extra {
                values.push(c.values[i % c.values.len()].clone());
            }
            Column::new(c.name.clone(), values)
        })
        .collect();
    Table::new(table.name.clone(), columns).expect("still rectangular")
}

/// Total `(step-columns run, base scores reused)` across a batch of
/// outcomes.
fn counts(outcomes: &[sigmatyper::AnnotationOutcome]) -> (usize, usize) {
    outcomes.iter().fold((0, 0), |(runs, reused), o| {
        (
            runs + o
                .annotation
                .timings
                .iter()
                .map(|t| t.columns)
                .sum::<usize>(),
            reused + o.degradation.delta_reused,
        )
    })
}

fn main() {
    // Shared global model, pretrained once (Figure 2).
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 24));
    let global = std::sync::Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
    let service = AnnotationService::new(global, SigmaTyperConfig::default())
        .with_threads(4)
        .cached(1 << 16);

    let warehouse: Vec<Table> = corpus.tables.iter().map(|at| at.table.clone()).collect();
    let defaults = RequestOptions::default();

    // Crawl 1 (cold): every step runs; the cache fills under the base
    // fingerprints.
    let t0 = Instant::now();
    let cold = service.annotate_batch_request(&warehouse, &[], &defaults);
    let cold_time = t0.elapsed();
    let (cold_runs, _) = counts(&cold);
    println!("crawl 1 (cold):            {cold_runs:>4} step-columns run      {cold_time:>10.2?}");

    // Crawl 2: every table gained ~1% rows, so every fingerprint moved
    // — a plain recrawl would recompute everything. Handing the
    // previous snapshots as bases lets columns whose signals moved
    // less than the sensitivity threshold (config default here) reuse
    // the base crawl's scores.
    let recrawl: Vec<Table> = warehouse.iter().map(recrawled).collect();
    let bases: Vec<Option<&Table>> = warehouse.iter().map(Some).collect();
    let t1 = Instant::now();
    let delta = service.annotate_batch_request(&recrawl, &bases, &defaults);
    let delta_time = t1.elapsed();
    let (delta_runs, delta_reused) = counts(&delta);
    println!(
        "crawl 2 (1% delta, base):  {delta_runs:>4} run, {delta_reused:>4} reused {delta_time:>10.2?}"
    );
    assert!(delta_reused > 0, "the 1% recrawl must reuse base scores");

    // The same recrawl without bases: every value step recomputes from
    // scratch — the cost the delta path avoided. (The headers did not
    // change, so the header step is served from its cache either way.)
    let t2 = Instant::now();
    let full = service.annotate_batch_request(&recrawl, &[], &defaults);
    let full_time = t2.elapsed();
    let (full_runs, _) = counts(&full);
    println!("crawl 2 (no base):         {full_runs:>4} step-columns run      {full_time:>10.2?}");
    assert!(full_runs > delta_runs, "the base must have saved re-runs");

    // Escape hatch: sensitivity 0 turns the delta machinery off. The
    // request still carries a base, but nothing is reused and the
    // result is bit-identical to full recomputation.
    let exact_opts = RequestOptions::default().with_delta_sensitivity(0.0);
    let exact = service.annotate_batch_request(&recrawl, &bases, &exact_opts);
    let (_, exact_reused) = counts(&exact);
    assert_eq!(exact_reused, 0, "sensitivity 0 must not reuse");
    for (a, b) in exact.iter().zip(&full) {
        for (ca, cb) in a.annotation.columns.iter().zip(&b.annotation.columns) {
            assert_eq!(ca.predicted, cb.predicted);
            assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
        }
    }
    println!("sensitivity 0:                0 reused, bit-identical to the no-base recrawl");
}
