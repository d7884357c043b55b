//! Budgeted annotation requests: latency budgets, degradation
//! policies, and cost-aware step ordering.
//!
//! The production stance (paper §4) is *degrade, don't queue*: when a
//! request can't afford the whole cascade, shed the expensive tail
//! steps and return a high-precision partial answer — abstaining where
//! the evidence was defunded — instead of stretching latency. This
//! walkthrough issues the same table under four regimes and then lets
//! the measured cost model reorder the cascade.
//!
//! ```text
//! cargo run --release --example budgeted_annotate
//! ```

use sigmatyper::{
    train_global, AnnotationRequest, AnnotationService, DegradationPolicy, RequestOptions,
    SigmaTyper, SigmaTyperConfig, TrainingConfig,
};
use std::sync::Arc;
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_table::{Column, Table};

fn main() {
    // Shared global model, pretrained once (Figure 2).
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(21, 60));
    let global = Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()));
    let typer = SigmaTyper::new(global.clone(), SigmaTyperConfig::default());

    // A wide opaque table: nothing resolves at the header step, so the
    // full cascade is pending on every column — worst-case latency.
    let columns: Vec<Column> = (0..12)
        .map(|i| {
            let vals: Vec<String> = (0..24)
                .map(|r| format!("wq{} blob{}", (i * 11 + r) % 17, (r * 29 + i) % 83))
                .collect();
            Column::from_raw(format!("xq_{i}"), &vals)
        })
        .collect();
    let table = Table::new("opaque_crawl", columns).expect("valid table");

    // 1. The default request: Strict, unbounded — exactly annotate().
    let full = typer.annotate_request(&AnnotationRequest::new(&table));
    println!("— unbounded (Strict) —");
    println!(
        "  spent {:.2} ms, degraded: {}, abstained {}/{} columns",
        full.degradation.spent_nanos as f64 / 1e6,
        full.degraded(),
        full.annotation
            .columns
            .iter()
            .filter(|c| c.abstained())
            .count(),
        full.annotation.columns.len(),
    );

    // 2. Strict with a budget: overruns are *reported*, never acted on.
    let audited = typer.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(1_000_000) // 1 ms
            .with_policy(DegradationPolicy::Strict),
    );
    println!("— 1 ms budget (Strict) —");
    println!(
        "  spent {:.2} ms, over budget: {}, degraded: {}",
        audited.degradation.spent_nanos as f64 / 1e6,
        audited.degradation.over_budget(),
        audited.degraded(),
    );

    // 3. DropTailSteps: the ledger is enforced. Cheap steps run until
    //    the budget runs dry; the expensive tail is dropped whole and
    //    the report says exactly what was shed and why.
    let degraded = typer.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(1_000_000)
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    println!("— 1 ms budget (DropTailSteps) —");
    println!(
        "  spent {:.2} ms, remaining {:?} ns",
        degraded.degradation.spent_nanos as f64 / 1e6,
        degraded.degradation.remaining_nanos,
    );
    for skip in &degraded.degradation.skipped {
        println!(
            "  skipped '{}' ({:?}): {} columns pending, {} ran",
            skip.name, skip.reason, skip.pending, skip.ran
        );
    }
    let abstained = degraded
        .annotation
        .columns
        .iter()
        .filter(|c| c.abstained())
        .count();
    println!(
        "  {abstained}/{} columns abstain — degradation removes votes, it never fabricates",
        degraded.annotation.columns.len()
    );

    // 4. The batch front-end shares ONE ledger across the whole batch:
    //    an overloaded crawl degrades instead of queueing.
    let service = AnnotationService::for_customer(typer.clone()).with_threads(4);
    let batch: Vec<Table> = (0..6).map(|_| table.clone()).collect();
    let outcomes = service.annotate_batch_request(
        &batch,
        &[],
        &RequestOptions::default()
            .with_budget_nanos(5_000_000) // 5 ms for the whole batch
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    let degraded_tables = outcomes.iter().filter(|o| o.degraded()).count();
    println!("— 5 ms shared budget over a 6-table batch —");
    println!(
        "  {degraded_tables}/{} tables degraded; batch ledger ended at {:?} ns",
        outcomes.len(),
        outcomes.last().and_then(|o| o.degradation.remaining_nanos),
    );

    // 5. Cost-aware ordering: the annotations above fed an EWMA of
    //    per-step measured cost and yield; reorder the cascade by
    //    measured cost per unit yield (cheapest first).
    let mut tuned = typer.clone();
    println!("— measured cost model —");
    let mut snapshot = tuned.cost_model().snapshot();
    snapshot.sort_by_key(|(step, _)| *step);
    for (step, est) in snapshot {
        println!(
            "  {:?}: {:.1} µs/column at yield {:.2} → {:.1} µs per unit yield",
            step,
            est.nanos_per_column / 1e3,
            est.yield_rate,
            est.cost_per_yield() / 1e3,
        );
    }
    let changed = tuned.reorder_cascade_by_cost();
    println!(
        "  reorder_by_cost changed the order: {changed}; cascade is now {:?}",
        tuned.cascade().step_ids()
    );
}
