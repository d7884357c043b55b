//! Degradation-path suite for the budgeted request API.
//!
//! Every test here is written to pass **with or without** a forced
//! `SIGMATYPER_STEP_BUDGET_NANOS` in the environment: CI runs this
//! suite twice — once in the plain test leg, once with a 1 ns forced
//! budget — so the degradation machinery (ledger exhaustion, tail
//! drops, abstention guarantees, report accounting) is exercised under
//! real duress, not just under hand-picked budgets. Tests that need a
//! specific budget set one explicitly ([`RequestOptions::resolved`]
//! gives explicit budgets precedence over the environment); tests
//! probing the forced path branch on
//! [`forced_step_budget_nanos`].

use sigmatyper::{
    forced_step_budget_nanos, train_global, AnnotationRequest, AnnotationService,
    DegradationPolicy, GlobalModel, ParallelismPolicy, RequestOptions, SigmaTyper,
    SigmaTyperConfig, SkipReason, TrainingConfig,
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

/// `annotate` is a thin wrapper over a default request: both resolve
/// the environment identically, so the equivalence holds in the plain
/// leg *and* under a forced budget (where both degrade identically).
///
/// One warm-up call runs first because degradation is deliberately
/// history-dependent: annotations feed the cost model, and under a
/// tiny forced budget the first call's measurements teach the model to
/// drop steps *predictively* on the next call. After the warm-up the
/// model's decisions are stable (dropped steps produce no further
/// observations), so the compared pair sees identical state.
#[test]
fn annotate_is_the_default_request_in_every_environment() {
    let st = typer();
    for table in [opaque_table(3), clear_table()] {
        // Each degraded warm-up seeds one more not-yet-observed step
        // (predictive drops run the first unpriced step); after one
        // pass per configured step every estimate exists and the
        // decisions are stationary.
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

/// The forced environment budget must engage degradation on default
/// requests — and report its own accounting honestly.
#[test]
fn forced_env_budget_degrades_default_requests() {
    let st = typer();
    let table = opaque_table(3);
    let outcome = st.annotate_request(&AnnotationRequest::new(&table));
    match forced_step_budget_nanos() {
        Some(forced) => {
            assert_eq!(outcome.degradation.budget_nanos, Some(forced));
            assert_eq!(outcome.degradation.policy, DegradationPolicy::DropTailSteps);
            if forced < 1_000 {
                // A nanoseconds-scale budget cannot survive the first
                // charged step: the tail must degrade.
                assert!(outcome.degraded(), "{:?}", outcome.degradation);
                assert!(outcome.degradation.remaining_nanos == Some(0));
            }
        }
        None => {
            assert!(!outcome.degraded());
            assert_eq!(outcome.degradation.budget_nanos, None);
            assert_eq!(outcome.degradation.remaining_nanos, None);
        }
    }
}

/// Degradation sheds *later* steps first: even under a 1 ns forced
/// budget the first step runs (the ledger is charged after, not
/// before), so header-resolved columns keep their predictions — the
/// cheap-first cascade is exactly what makes degrade-don't-queue
/// tolerable.
#[test]
fn first_step_always_runs_so_clear_headers_survive() {
    let st = typer();
    let o = st.ontology().clone();
    let ann = st.annotate(&clear_table());
    assert_eq!(
        ann.columns[0].predicted,
        tu_ontology::builtin_id(&o, "salary")
    );
    assert_eq!(
        ann.columns[1].predicted,
        tu_ontology::builtin_id(&o, "city")
    );
    for col in &ann.columns {
        assert!(!col.steps_run.is_empty(), "step 1 must have run");
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

/// Strict with an explicit budget never degrades — even while the
/// environment is forcing budgets onto everything else.
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

/// The customer's execution settings: `parallelism` on `threads`
/// column workers.
fn typer_with(parallelism: ParallelismPolicy, column_threads: usize) -> SigmaTyper {
    SigmaTyper::new(
        global(),
        SigmaTyperConfig {
            parallelism,
            column_threads,
            ..SigmaTyperConfig::default()
        },
    )
}

/// `FixedChunk { columns: 0 }` must clamp, not divide by zero — end to
/// end, from the customer's config, with and without a budget.
#[test]
fn fixed_chunk_zero_columns_clamps_end_to_end() {
    let st = typer_with(ParallelismPolicy::FixedChunk { columns: 0 }, 3);
    let table = opaque_table(4);
    let request = AnnotationRequest::new(&table)
        .with_budget_nanos(u64::MAX)
        .with_policy(DegradationPolicy::DropTailSteps);
    let outcome = st.annotate_request(&request);
    assert_eq!(outcome.annotation.columns.len(), 4);
    assert!(!outcome.degraded(), "u64::MAX nanos cannot exhaust");
    // Zero-column chunks clamp to one column per chunk.
    assert!(outcome
        .annotation
        .timings
        .iter()
        .filter(|t| t.columns > 0)
        .all(|t| t.chunks == t.columns));
    // And the degenerate combination budget-0 × chunk-0 stays graceful.
    let degenerate = st.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(0)
            .with_policy(DegradationPolicy::BestEffort),
    );
    assert!(degenerate.annotation.columns.iter().all(|c| c.abstained()));
}

/// Mid-step budget re-checks (ROADMAP 5b): under `BestEffort` with
/// single-column chunks, a budget the first chunk already blows must
/// stop the step *mid-frontier* — some columns ran (forward progress
/// is guaranteed: every worker's first chunk is unconditional), the
/// rest never did — instead of finishing all columns and only then
/// noticing the overrun. No cost-model estimate exists on a fresh
/// typer, so the predictive gate stays silent and the truncation can
/// only come from the in-flight re-check.
#[test]
fn best_effort_rechecks_budget_between_chunks() {
    let st = typer_with(ParallelismPolicy::FixedChunk { columns: 1 }, 2);
    let cols = 8;
    let table = opaque_table(cols);
    let outcome = st.annotate_request(
        &AnnotationRequest::new(&table)
            .with_budget_nanos(1)
            .with_policy(DegradationPolicy::BestEffort),
    );
    assert!(outcome.degraded());
    let first = &outcome.degradation.skipped[0];
    assert_eq!(first.reason, SkipReason::FrontierTruncated);
    assert_eq!(first.pending, cols);
    assert!(
        first.ran >= 1 && first.ran < cols,
        "the first chunk runs, the re-check stops the rest: {first:?}"
    );
    // Every later step found the ledger exhausted up front.
    for later in &outcome.degradation.skipped[1..] {
        assert_eq!(later.reason, SkipReason::BudgetExhausted, "{later:?}");
        assert_eq!(later.ran, 0);
    }
    assert_eq!(outcome.degradation.remaining_nanos, Some(0));
    // Columns the stop left without any executed step abstain; columns
    // that ran decided from executed evidence only — never fabricate.
    let ran_some = outcome
        .annotation
        .columns
        .iter()
        .filter(|c| !c.steps_run.is_empty())
        .count();
    assert_eq!(ran_some, first.ran);
    for col in &outcome.annotation.columns {
        if col.steps_run.is_empty() {
            assert!(col.abstained());
        }
    }
}

/// The batch front-end under a shared zero budget: every table
/// degrades (degrade-don't-queue), order is preserved, nothing panics
/// — in every environment.
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
/// bit-identical to the plain batch path — regardless of environment.
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
    // The unbudgeted reference comes from per-table Strict requests
    // (annotate_batch would re-resolve the environment).
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
