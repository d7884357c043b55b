//! Golden suite for the incremental re-annotation (delta-aware
//! recrawl) path: [`AnnotationRequest::with_base`] plus
//! `delta_sensitivity`.
//!
//! Contract under test, on corpora mirroring the e1–e8 eval shapes:
//!
//! * **Sensitivity 0 is bit-exact.** A recrawl annotated against its
//!   base crawl with `delta_sensitivity` 0 must be bit-identical to a
//!   from-scratch annotation of the recrawled table — and must reuse
//!   nothing (`delta_reused == 0`). Zero sensitivity is the escape
//!   hatch that turns the whole delta machinery off.
//! * **Nonzero sensitivity is within golden tolerance.** With a
//!   permissive threshold the recrawl must actually reuse base-crawl
//!   scores (`delta_reused > 0` pooled), and its *decisions* must stay
//!   within a golden tolerance: per-corpus top-1 agreement with the
//!   full recomputation ≥ 0.85, pooled ≥ 0.9.
//! * **Reuse never poisons the cache.** After a reusing recrawl, a
//!   plain annotate of the same table through the same cache must
//!   still be bit-identical to a fresh, uncached run: approximated
//!   results are never inserted under the new fingerprint.
//!
//! The e1–e8 tables run their frontiers inline; the wide-table test at
//! the end holds the same promises while frontiers split across
//! threads.

use sigmatyper::{
    AnnotationRequest, ShardedLruCache, SigmaTyper, StepId, TableAnnotation, MIN_PARALLEL_COLUMNS,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig, GenParams};
use tu_eval::{Lab, Scale};
use tu_table::{Column, Table};

fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(Scale::Test))
}

/// Corpora mirroring the shapes of the e1–e8 experiments (reduced
/// table counts keep the suite CI-sized — each table is annotated
/// three ways here).
fn eval_corpora() -> Vec<(&'static str, tu_corpus::Corpus)> {
    let ontology = &lab().global.ontology;
    let n = 8;
    let mut shapes: Vec<(&'static str, CorpusConfig)> = Vec::new();
    let mut e1 = CorpusConfig::database_like(0xE1_70, n);
    e1.params = GenParams::shifted(0.5);
    e1.opaque_header_rate = 0.6;
    shapes.push(("e1_covariate", e1));
    shapes.push(("e2_labelshift", CorpusConfig::database_like(0xE2_01, n)));
    let mut e3 = CorpusConfig::database_like(0xE3_01, n);
    e3.ood_column_rate = 0.9;
    shapes.push(("e3_ood", e3));
    let mut e4 = CorpusConfig::database_like(0xE4_01, n);
    e4.params = GenParams::shifted(0.7);
    e4.opaque_header_rate = 0.5;
    shapes.push(("e4_adaptation", e4));
    shapes.push(("e5_dpbd", CorpusConfig::database_like(0xE5_01, n)));
    let mut e6 = CorpusConfig::database_like(0xE6_01, n);
    e6.opaque_header_rate = 0.45;
    e6.params = GenParams::shifted(0.2);
    shapes.push(("e6_cascade", e6));
    let mut e7 = CorpusConfig::database_like(0xE7_01, n);
    e7.ood_column_rate = 0.25;
    e7.opaque_header_rate = 0.45;
    e7.params = GenParams::shifted(0.2);
    shapes.push(("e7_precision", e7));
    let mut e8_web = CorpusConfig::web_like(0xE8_11, n);
    e8_web.opaque_header_rate = 0.7;
    shapes.push(("e8_web", e8_web));
    let mut e8_db = CorpusConfig::database_like(0xE8_12, n);
    e8_db.opaque_header_rate = 0.7;
    shapes.push(("e8_database", e8_db));
    shapes
        .into_iter()
        .map(|(name, cfg)| (name, generate_corpus(ontology, &cfg)))
        .collect()
}

/// A cache-carrying customer: same global model, fresh bounded LRU.
fn cached_customer() -> SigmaTyper {
    let mut typer = lab().customer();
    typer.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 15))));
    typer
}

/// The recrawl a crawler would hand back: every column grows by
/// ~1% (at least one row), recycling head values so the new cells
/// look like the old distribution.
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

/// Bit-for-bit comparison of two annotations (timings exempt — they
/// are wall-clock measurements).
fn assert_same_annotation(a: &TableAnnotation, b: &TableAnnotation) {
    assert_eq!(a.columns.len(), b.columns.len());
    for (ca, cb) in a.columns.iter().zip(&b.columns) {
        assert_eq!(ca.col_idx, cb.col_idx);
        assert_eq!(ca.predicted, cb.predicted, "prediction diverged");
        assert_eq!(
            ca.confidence.to_bits(),
            cb.confidence.to_bits(),
            "confidence diverged"
        );
        assert_eq!(ca.top_k, cb.top_k, "top-k diverged");
        assert_eq!(ca.steps_run, cb.steps_run, "steps_run diverged");
        assert_eq!(ca.step_scores, cb.step_scores, "step scores diverged");
    }
}

/// Sensitivity 0 must be bit-identical to full recomputation on every
/// e1–e8 corpus shape, and must never claim to have reused anything.
#[test]
fn zero_sensitivity_recrawl_is_bit_identical_on_e1_to_e8() {
    let reference = lab().customer();
    for (name, corpus) in &eval_corpora() {
        let warm = cached_customer();
        for at in &corpus.tables {
            let base = &at.table;
            let _ = warm.annotate(base);
            let new = recrawled(base);
            let outcome = warm.annotate_request(
                &AnnotationRequest::new(&new)
                    .with_base(base)
                    .with_delta_sensitivity(0.0),
            );
            assert_eq!(
                outcome.degradation.delta_reused, 0,
                "{name}/{}: sensitivity 0 must not reuse base scores",
                base.name
            );
            let fresh = reference.annotate(&new);
            assert_same_annotation(&fresh, &outcome.annotation);
        }
    }
}

/// A permissive sensitivity must actually engage the reuse path on
/// the ~1% appends, and its decisions must stay within the golden
/// tolerance of full recomputation: per-corpus top-1 agreement ≥ 0.85,
/// pooled ≥ 0.9.
#[test]
fn relaxed_sensitivity_stays_within_golden_tolerance_on_e1_to_e8() {
    let reference = lab().customer();
    let mut pooled_same = 0usize;
    let mut pooled_total = 0usize;
    let mut pooled_reused = 0usize;
    for (name, corpus) in &eval_corpora() {
        let warm = cached_customer();
        let mut same = 0usize;
        let mut total = 0usize;
        for at in &corpus.tables {
            let base = &at.table;
            let _ = warm.annotate(base);
            let new = recrawled(base);
            let outcome = warm.annotate_request(
                &AnnotationRequest::new(&new)
                    .with_base(base)
                    .with_delta_sensitivity(0.5),
            );
            pooled_reused += outcome.degradation.delta_reused;
            let fresh = reference.annotate(&new);
            for (ca, cb) in fresh.columns.iter().zip(&outcome.annotation.columns) {
                total += 1;
                same += usize::from(ca.predicted == cb.predicted);
            }
        }
        assert!(
            same * 100 >= total * 85,
            "{name}: only {same}/{total} columns agree with full recomputation"
        );
        pooled_same += same;
        pooled_total += total;
    }
    assert!(
        pooled_reused > 0,
        "the relaxed recrawls never engaged the delta-reuse path"
    );
    assert!(
        pooled_same * 10 >= pooled_total * 9,
        "pooled agreement {pooled_same}/{pooled_total} below 0.9"
    );
    println!(
        "incremental recrawl: pooled agreement {pooled_same}/{pooled_total}, \
         {pooled_reused} steps reused"
    );
}

/// The taint rule end to end: a reusing recrawl must leave the shared
/// step cache clean, so a later plain annotate of the recrawled table
/// through that same cache is still bit-identical to a fresh,
/// uncached run.
#[test]
fn reusing_recrawl_never_poisons_the_shared_cache() {
    let reference = lab().customer();
    let corpora = eval_corpora();
    let mut reused_any = 0usize;
    for (_, corpus) in corpora.iter().step_by(3) {
        let warm = cached_customer();
        for at in &corpus.tables {
            let base = &at.table;
            let _ = warm.annotate(base);
            let new = recrawled(base);
            let reusing = warm.annotate_request(
                &AnnotationRequest::new(&new)
                    .with_base(base)
                    .with_delta_sensitivity(0.5),
            );
            reused_any += reusing.degradation.delta_reused;
            // Through the same (possibly reuse-exercised) cache.
            let cached_full = warm.annotate(&new);
            let fresh = reference.annotate(&new);
            assert_same_annotation(&fresh, &cached_full);
        }
    }
    assert!(reused_any > 0, "the suite never exercised the reuse path");
}

/// A table of opaque-headed free-text columns `xq_0 …`: column `c`,
/// row `r` holds `words[(c + r + shift) % 6]` and a row tag, so a
/// different `shift` rewrites every cell.
fn wide_opaque_table(cols: usize, rows: usize, shift: usize) -> Table {
    let words = [
        "lorem ipsum",
        "dolor sit",
        "amet consect",
        "adipiscing elit",
        "sed do",
        "eiusmod tempor",
    ];
    let columns = (0..cols)
        .map(|c| {
            let values: Vec<String> = (0..rows)
                .map(|r| format!("{} {}", words[(c + r + shift) % words.len()], r + shift))
                .collect();
            Column::from_raw(format!("xq_{c}"), &values)
        })
        .collect();
    Table::new("wide", columns).expect("rectangular")
}

/// The recrawl contract while frontiers split across threads: a
/// 14-column opaque table on a 3-thread column budget, recrawled with
/// a one-row append on two columns and every cell of the other twelve
/// rewritten. At sensitivity 0 nothing is reused and the recrawl is
/// bit-identical to a fresh sequential annotate. At 0.5 the appended
/// columns reuse their base scores while the twelve rewritten ones
/// still form a frontier wide enough to split, and the cache stays
/// clean for a later plain annotate.
#[test]
fn wide_recrawl_splits_frontiers_and_keeps_the_contract() {
    let (cols, rows, appended) = (MIN_PARALLEL_COLUMNS + 2, 40, 2);
    let base = wide_opaque_table(cols, rows, 0);
    let rewritten = wide_opaque_table(cols, rows + 1, 1);
    let columns = (0..cols)
        .map(|c| {
            if c < cols - appended {
                return rewritten.columns()[c].clone();
            }
            let mut values = base.columns()[c].values.clone();
            values.push(values[0].clone());
            Column::new(base.columns()[c].name.clone(), values)
        })
        .collect();
    let new = Table::new("wide", columns).expect("rectangular");
    let mut sequential = lab().customer();
    sequential.config_mut().column_threads = 1;
    let fresh = sequential.annotate(&new);
    let parallel_customer = || {
        let mut typer = cached_customer();
        typer.config_mut().column_threads = 3;
        let _ = typer.annotate(&base);
        typer
    };
    let split = |outcome: &sigmatyper::AnnotationOutcome| {
        outcome
            .annotation
            .timings
            .iter()
            .any(|t| t.step != StepId::HEADER && t.chunks >= 2)
    };

    let exact = parallel_customer().annotate_request(
        &AnnotationRequest::new(&new)
            .with_base(&base)
            .with_delta_sensitivity(0.0),
    );
    assert_eq!(
        exact.degradation.delta_reused, 0,
        "sensitivity 0 reuses nothing"
    );
    assert!(split(&exact), "{:?}", exact.annotation.timings);
    assert_same_annotation(&fresh, &exact.annotation);

    let warm = parallel_customer();
    let relaxed = warm.annotate_request(
        &AnnotationRequest::new(&new)
            .with_base(&base)
            .with_delta_sensitivity(0.5),
    );
    assert!(
        relaxed.degradation.delta_reused > 0,
        "the appends must reuse"
    );
    assert!(split(&relaxed), "{:?}", relaxed.annotation.timings);
    assert_same_annotation(&fresh, &warm.annotate(&new));
}
