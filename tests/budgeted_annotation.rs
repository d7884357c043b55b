//! Degradation-path suite for the budgeted request API: ledger
//! exhaustion, tail drops, abstention guarantees and report
//! accounting. A request's budget is its own, so every test that
//! degrades sets its budget explicitly; the 1 ns `DropTailSteps` cases
//! exercise the tightest budget a request can carry.

use sigmatyper::{
    train_global, AnnotationRequest, AnnotationService, DegradationPolicy, GlobalModel,
    RequestOptions, SigmaTyper, SigmaTyperConfig, SkipReason, TrainingConfig,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::builtin_ontology;
use tu_table::{Column, Table};

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0xB0D, 30));
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

fn typer() -> SigmaTyper {
    SigmaTyper::new(global(), SigmaTyperConfig::default())
}

/// Opaque headers + free text: nothing resolves early, so the whole
/// cascade is pending on every column — the worst case a budget has to
/// shed.
fn opaque_table(cols: usize) -> Table {
    let columns: Vec<Column> = (0..cols)
        .map(|i| {
            Column::from_raw(
                format!("xq{i}_zz"),
                &["lorem ipsum", "dolor sit", "amet consect"],
            )
        })
        .collect();
    Table::new("opaque", columns).unwrap()
}

/// Clear exact-alias headers: resolved at the header step.
fn clear_table() -> Table {
    Table::new(
        "clear",
        vec![
            Column::from_raw("Income", &["50000", "60000"]),
            Column::from_raw("Cities", &["Oslo", "Lima"]),
        ],
    )
    .unwrap()
}

/// Everything except wall-clock timings must match bit for bit.
fn assert_identical(a: &sigmatyper::TableAnnotation, b: &sigmatyper::TableAnnotation) {
    assert_eq!(a.columns.len(), b.columns.len());
    for (ca, cb) in a.columns.iter().zip(&b.columns) {
        assert_eq!(ca.col_idx, cb.col_idx);
        assert_eq!(ca.predicted, cb.predicted);
        assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
        assert_eq!(ca.top_k, cb.top_k);
        assert_eq!(ca.steps_run, cb.steps_run);
        assert_eq!(ca.step_scores, cb.step_scores);
    }
}

/// `annotate` is a thin wrapper over a default request (`Strict`,
/// unbounded): the two answer bit-identically and the request's report
/// echoes its own budget and policy.
///
/// Warm-up calls run first so the compared pair sees a cost model
/// that has observed every step: annotations feed the model, and the
/// equivalence must hold whatever it has learned.
#[test]
fn annotate_is_the_default_request_in_every_environment() {
    let st = typer();
    for table in [opaque_table(3), clear_table()] {
        for _ in 0..=st.cascade().len() {
            let _ = st.annotate(&table);
        }
        let plain = st.annotate(&table);
        let outcome = st.annotate_request(&AnnotationRequest::new(&table));
        assert_identical(&plain, &outcome.annotation);
        let (budget, policy) = RequestOptions::default().resolved();
        assert_eq!(outcome.degradation.budget_nanos, budget);
        assert_eq!(outcome.degradation.policy, policy);
    }
}

/// A 1 ns `DropTailSteps` budget cannot survive the first charged
/// step, so the tail degrades and the report accounts for it honestly;
/// the same request unbudgeted degrades nothing and reports no budget.
#[test]
fn one_nanosecond_budget_degrades_where_the_unbudgeted_request_does_not() {
    let st = typer();
    let table = opaque_table(3);
    let tight = st.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(1)
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    assert!(tight.degraded(), "{:?}", tight.degradation);
    assert_eq!(tight.degradation.policy, DegradationPolicy::DropTailSteps);
    assert_eq!(tight.degradation.budget_nanos, Some(1));
    assert_eq!(tight.degradation.remaining_nanos, Some(0));

    let unbudgeted = st.annotate_request(
        &AnnotationRequest::new(&table).with_policy(DegradationPolicy::DropTailSteps),
    );
    assert!(!unbudgeted.degraded(), "{:?}", unbudgeted.degradation);
    assert_eq!(unbudgeted.degradation.budget_nanos, None);
    assert_eq!(unbudgeted.degradation.remaining_nanos, None);
}

/// Degradation sheds *later* steps first: unbudgeted and under a 1 ns
/// `DropTailSteps` budget alike, a fresh customer runs the first step
/// (the ledger is charged after, not before, and its cost model has
/// not priced the step yet), so header-resolved columns keep their
/// predictions — the cheap-first cascade is exactly what makes
/// degrade-don't-queue tolerable.
#[test]
fn first_step_always_runs_so_clear_headers_survive() {
    let table = clear_table();
    for options in [
        RequestOptions::default(),
        RequestOptions::default()
            .with_budget_nanos(1)
            .with_policy(DegradationPolicy::DropTailSteps),
    ] {
        let st = typer();
        let o = st.ontology().clone();
        let ann = st
            .annotate_request(&AnnotationRequest::with_options(&table, options))
            .into_annotation();
        assert_eq!(
            ann.columns[0].predicted,
            tu_ontology::builtin_id(&o, "salary"),
            "{options:?}"
        );
        assert_eq!(
            ann.columns[1].predicted,
            tu_ontology::builtin_id(&o, "city"),
            "{options:?}"
        );
        for col in &ann.columns {
            assert!(!col.steps_run.is_empty(), "step 1 must have run");
        }
    }
}

/// Explicit zero budget: fully deterministic degradation, no panics,
/// no division by zero, report lists exactly the configured steps.
#[test]
fn explicit_zero_budget_is_deterministic_in_every_environment() {
    let st = typer();
    let table = opaque_table(4);
    for policy in [
        DegradationPolicy::DropTailSteps,
        DegradationPolicy::BestEffort,
    ] {
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(0)
                .with_policy(policy),
        );
        assert_eq!(
            outcome
                .degradation
                .skipped
                .iter()
                .map(|s| (s.step, s.reason, s.pending, s.ran))
                .collect::<Vec<_>>(),
            st.cascade()
                .step_ids()
                .into_iter()
                .map(|id| (id, SkipReason::BudgetExhausted, 4, 0))
                .collect::<Vec<_>>(),
            "{policy:?}"
        );
        assert!(outcome.annotation.columns.iter().all(|c| c.abstained()));
        assert_eq!(outcome.degradation.spent_nanos, 0);
    }
}

/// Strict with an explicit budget never degrades: an overrun is only
/// reported.
#[test]
fn explicit_strict_budget_shields_a_request_from_the_environment() {
    let st = typer();
    let table = opaque_table(2);
    let outcome = st.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(1)
            .with_policy(DegradationPolicy::Strict),
    );
    assert!(!outcome.degraded());
    assert!(outcome.degradation.over_budget());
    // All three steps ran on the opaque columns.
    for col in &outcome.annotation.columns {
        assert_eq!(col.steps_run.len(), st.cascade().len());
    }
}

/// The abstention guarantee under degradation: a column that lost
/// every step abstains; a column that kept some steps either abstains
/// or predicts from *executed* evidence only.
#[test]
fn degraded_outcomes_never_fabricate() {
    let st = typer();
    let table = opaque_table(5);
    for budget in [0u64, 1, 1_000, 1_000_000] {
        let outcome = st.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(budget)
                .with_policy(DegradationPolicy::DropTailSteps),
        );
        for col in &outcome.annotation.columns {
            if col.steps_run.is_empty() {
                assert!(col.abstained(), "no evidence ⇒ must abstain");
                assert!(col.top_k.is_empty());
            } else {
                // Whatever was decided came from steps that ran.
                assert_eq!(col.steps_run.len(), col.step_scores.len());
            }
        }
    }
}

/// The batch front-end under a shared zero budget: every table
/// degrades (degrade-don't-queue), order is preserved, nothing panics.
#[test]
fn batch_requests_degrade_under_a_shared_exhausted_ledger() {
    let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(3);
    let o = builtin_ontology();
    let tables: Vec<Table> = generate_corpus(&o, &CorpusConfig::database_like(0xBA7, 6))
        .tables
        .into_iter()
        .map(|at| at.table)
        .collect();
    let widths: Vec<usize> = tables.iter().map(Table::n_cols).collect();
    let options = RequestOptions::default()
        .with_budget_nanos(0)
        .with_policy(DegradationPolicy::DropTailSteps);
    let outcomes = service.annotate_batch_request(&tables, &[], &options);
    assert_eq!(
        outcomes
            .iter()
            .map(|oc| oc.annotation.columns.len())
            .collect::<Vec<_>>(),
        widths,
        "output order must match input order"
    );
    for outcome in &outcomes {
        assert!(outcome
            .annotation
            .columns
            .iter()
            .all(sigmatyper::ColumnAnnotation::abstained));
    }
}

/// A generous explicit batch budget serves everything un-degraded —
/// bit-identical to the plain batch path.
#[test]
fn generous_batch_budget_matches_the_unbudgeted_batch() {
    let service = AnnotationService::new(global(), SigmaTyperConfig::default()).with_threads(4);
    let o = builtin_ontology();
    let tables: Vec<Table> = generate_corpus(&o, &CorpusConfig::database_like(0x6E1, 5))
        .tables
        .into_iter()
        .map(|at| at.table)
        .collect();
    let options = RequestOptions::default()
        .with_budget_nanos(u64::MAX)
        .with_policy(DegradationPolicy::DropTailSteps);
    let outcomes = service.annotate_batch_request(&tables, &[], &options);
    // The reference comes from per-table Strict requests under the
    // same budget.
    let strict = RequestOptions::default()
        .with_budget_nanos(u64::MAX)
        .with_policy(DegradationPolicy::Strict);
    for (outcome, table) in outcomes.iter().zip(&tables) {
        assert!(!outcome.degraded());
        let reference = service
            .typer()
            .annotate_request(&AnnotationRequest::with_options(table, strict));
        assert_identical(&reference.annotation, &outcome.annotation);
    }
}
