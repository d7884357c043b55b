//! Multi-backend embedding engine: pick how the embedding MLP runs.
//!
//! The embedding step is the numeric hot spot of the cascade — one
//! matrix–vector product per column per model. [`EmbeddingBackendKind`]
//! selects *how* that arithmetic executes without touching what it
//! computes:
//!
//! * `reference_f32` — the seed MLP, bit-identical, the default;
//! * `blocked_simd` — 8-lane blocked f32 dot products (approximate
//!   only in summation order).
//!
//! This walkthrough wires a backend in both ways (per-typer via the
//! builder, per-request via [`RequestOptions`]), measures wall clock
//! for each backend on an opaque crawl, and shows that the approximate
//! backend agrees with the reference on essentially every column.
//!
//! ```text
//! cargo run --release --example embed_backends
//! ```

use sigmatyper::{
    train_global, AnnotationRequest, EmbeddingBackendKind, RequestOptions, SigmaTyper,
    SigmaTyperConfig, TrainingConfig,
};
use std::sync::Arc;
use std::time::Instant;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_table::{Column, Table};

fn main() {
    // Shared global model, pretrained once.
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 60));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));

    // A wide opaque table: headers resolve nothing, so every column
    // rides the embedding step — the workload the backends differ on.
    let columns: Vec<Column> = (0..24)
        .map(|i| {
            let vals: Vec<String> = (0..20)
                .map(|r| format!("zk{} frag{}", (i * 13 + r) % 19, (r * 31 + i) % 89))
                .collect();
            Column::from_raw(format!("opaque_{i}"), &vals)
        })
        .collect();
    let table = Table::new("opaque_crawl", columns).expect("valid table");

    // One typer per backend, selected through the builder. Bypass the
    // cache so every run exercises the arithmetic, then keep the best
    // of three timed passes.
    let request =
        AnnotationRequest::with_options(&table, RequestOptions::default().with_cache_bypassed());
    let mut reference = None;
    println!("— builder-selected backends over a 24-column opaque table —");
    for kind in EmbeddingBackendKind::ALL {
        let typer = SigmaTyper::builder(Arc::clone(&global))
            .embedding_backend(kind)
            .build();
        let mut best = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..3 {
            let started = Instant::now();
            let got = typer.annotate_request(&request);
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
            outcome = Some(got);
        }
        let annotation = outcome.expect("three passes ran").annotation;
        let agree = match &reference {
            None => {
                reference = Some(annotation.clone());
                annotation.columns.len()
            }
            Some(golden) => golden
                .columns
                .iter()
                .zip(&annotation.columns)
                .filter(|(a, b)| a.predicted == b.predicted)
                .count(),
        };
        println!(
            "  {:<16} {:>7.2} ms   agrees with reference on {}/{} columns",
            kind.label(),
            best,
            agree,
            annotation.columns.len(),
        );
    }

    // The end-to-end numbers above are dominated by featurization and
    // the rest of the cascade. Timing the embedding arithmetic alone —
    // tiny single-cell columns so featurization is negligible — shows
    // what each backend actually buys.
    let model = &global.embedding;
    let sweep_cols: Vec<Column> = (0..64)
        .map(|i| Column::from_raw(format!("col_{i}"), &[format!("item {}", i % 7)]))
        .collect();
    let header_vecs: Vec<Vec<f32>> = sweep_cols
        .iter()
        .map(|col| model.header_vector(&col.name))
        .collect();
    let contexts: Vec<Vec<f32>> = (0..header_vecs.len())
        .map(|i| {
            let refs: Vec<&[f32]> = header_vecs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, v)| v.as_slice())
                .collect();
            model.context_of(&refs)
        })
        .collect();
    println!("— embedding arithmetic alone (64 sweeps over 64 tiny columns) —");
    let mut reference_secs = None;
    for kind in EmbeddingBackendKind::ALL {
        let backend = kind.backend();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            for _ in 0..64 {
                for (col, ctx) in sweep_cols.iter().zip(&contexts) {
                    std::hint::black_box(backend.predict_with_context(model, col, ctx));
                }
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        let speedup = match reference_secs {
            None => {
                reference_secs = Some(best);
                1.0
            }
            Some(reference) => reference / best,
        };
        println!(
            "  {:<16} {:>8.2} ms   {speedup:>5.2}x vs reference",
            kind.label(),
            best * 1e3,
        );
    }

    // The same switch per request: a default (reference) typer answers
    // one request with the blocked engine — no rebuild, and the cache
    // keys the override so entries never cross-serve.
    let typer = SigmaTyper::new(global, SigmaTyperConfig::default());
    let blocked = typer.annotate_request(&AnnotationRequest::with_options(
        &table,
        RequestOptions::default()
            .with_cache_bypassed()
            .with_embedding_backend(EmbeddingBackendKind::BlockedSimd),
    ));
    let golden = reference.expect("reference backend ran first");
    let agree = golden
        .columns
        .iter()
        .zip(&blocked.annotation.columns)
        .filter(|(a, b)| a.predicted == b.predicted)
        .count();
    println!("— per-request override on a default typer —");
    println!(
        "  blocked_simd via RequestOptions: agrees on {agree}/{} columns",
        golden.columns.len()
    );
}
