//! Golden-tolerance suite for the pluggable embedding backends
//! (`sigmatyper::backend`).
//!
//! Contract under test, per backend accuracy class:
//!
//! * **Bit-exact** — explicitly selecting `ReferenceF32` (the default)
//!   must be bit-identical to the default path everywhere: fresh,
//!   ablated, and adapted customers × cached and uncached × sequential
//!   and column-parallel. The default path itself is proven
//!   bit-identical to the seed transcription by
//!   `tests/golden_cascade.rs`, so equality here closes the triangle.
//! * **Approximate** — `BlockedSimd` may move bits (it reassociates
//!   the f32 accumulation), but on corpora mirroring the e1–e8 eval
//!   shapes the
//!   decisions must stay within a golden tolerance of the reference:
//!   high per-column agreement, small accuracy delta.
//!
//! Plus the cache-separation contract: a non-default backend must
//! never be served another backend's cached step scores.

use sigmatyper::{
    AccuracyClass, AnnotationRequest, EmbeddingBackendKind, ParallelismPolicy, RequestOptions,
    ShardedLruCache, SigmaTyper, StepCache, TableAnnotation,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig, GenParams};
use tu_eval::{evaluate, Lab, Scale};
use tu_ontology::builtin_id;
use tu_table::{Column, Table};

fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(Scale::Test))
}

/// Corpora mirroring the shapes of the e1–e8 experiments (reduced
/// table counts keep the suite CI-sized): covariate shift with opaque
/// headers (e1), plain in-distribution (e2/e5), OOD-heavy (e3), severe
/// shift (e4), the cascade/precision mixes (e6/e7), and the
/// web-vs-database representativeness pair (e8).
fn eval_corpora() -> Vec<(&'static str, tu_corpus::Corpus)> {
    let ontology = &lab().global.ontology;
    let n = 10;
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

/// A customer pinned to `backend` through the builder path.
fn customer_with(backend: EmbeddingBackendKind) -> SigmaTyper {
    SigmaTyper::builder(Arc::clone(&lab().global))
        .embedding_backend(backend)
        .build()
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

/// Per-column decision agreement (prediction identity, abstentions
/// included) between two customers over one corpus.
fn agreement(a: &SigmaTyper, b: &SigmaTyper, corpus: &tu_corpus::Corpus) -> (usize, usize) {
    let mut same = 0;
    let mut total = 0;
    for at in &corpus.tables {
        let aa = a.annotate(&at.table);
        let ab = b.annotate(&at.table);
        for (ca, cb) in aa.columns.iter().zip(&ab.columns) {
            total += 1;
            same += usize::from(ca.predicted == cb.predicted);
        }
    }
    (same, total)
}

/// Feed the phone-number correction loop until the local model
/// engages, so the blend path (global + finetuned) is exercised.
fn adapted(mut typer: SigmaTyper) -> SigmaTyper {
    let phone = builtin_id(typer.ontology(), "phone number");
    let mk = |seed: u64| {
        let vals: Vec<String> = (0..30)
            .map(|i| format!("{}", 20_000_000 + seed * 1000 + i * 137))
            .collect();
        Table::new(
            format!("contacts_{seed}"),
            vec![Column::from_raw("contact", &vals)],
        )
        .unwrap()
    };
    for s in 1..=3 {
        typer.feedback(&mk(s), 0, phone, None);
    }
    assert!(typer.local().finetuned.is_some());
    typer
}

/// A cache-carrying clone (shares models, adds a fresh bounded LRU).
fn with_cache(typer: &SigmaTyper) -> SigmaTyper {
    let mut cached = typer.clone();
    cached.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 15))));
    cached
}

/// A clone forced onto an execution strategy.
fn with_strategy(typer: &SigmaTyper, policy: ParallelismPolicy, threads: usize) -> SigmaTyper {
    let mut t = typer.clone();
    t.config_mut().parallelism = policy;
    t.config_mut().column_threads = threads;
    t
}

// ---- Bit-exact backends -------------------------------------------------

/// Explicitly selecting `ReferenceF32` must change nothing, bit for
/// bit, across fresh/ablated/adapted × cached/uncached ×
/// sequential/parallel — and the per-request override must match the
/// builder path.
#[test]
fn reference_backend_is_bit_identical_everywhere() {
    let corpora = eval_corpora();
    let tables: Vec<&Table> = corpora
        .iter()
        .flat_map(|(_, c)| c.tables.iter().map(|at| &at.table))
        .collect();

    let variants: Vec<(&str, SigmaTyper, SigmaTyper)> = vec![
        (
            "fresh",
            lab().customer(),
            customer_with(EmbeddingBackendKind::ReferenceF32),
        ),
        (
            "ablated",
            {
                let mut t = lab().customer();
                t.config_mut().enable_header = false;
                t
            },
            {
                let mut t = customer_with(EmbeddingBackendKind::ReferenceF32);
                t.config_mut().enable_header = false;
                t
            },
        ),
        (
            "adapted",
            adapted(lab().customer()),
            adapted(customer_with(EmbeddingBackendKind::ReferenceF32)),
        ),
    ];
    for (name, default_typer, reference_typer) in &variants {
        for (strategy, threads) in [
            (ParallelismPolicy::Off, 1usize),
            (ParallelismPolicy::FixedChunk { columns: 2 }, 3),
        ] {
            let default_t = with_strategy(default_typer, strategy, threads);
            let reference_t = with_strategy(reference_typer, strategy, threads);
            let default_cached = with_cache(&default_t);
            let reference_cached = with_cache(&reference_t);
            // Sample a slice of the pooled tables per regime to keep
            // the matrix CI-sized while covering every combination.
            for table in tables.iter().step_by(3) {
                let want = default_t.annotate(table);
                assert_same_annotation(&want, &reference_t.annotate(table));
                // Cold, then warm (second call hits the cache).
                assert_same_annotation(&want, &reference_cached.annotate(table));
                assert_same_annotation(&want, &reference_cached.annotate(table));
                assert_same_annotation(&want, &default_cached.annotate(table));
                // Per-request override path.
                let outcome = default_t.annotate_request(&AnnotationRequest::with_options(
                    table,
                    RequestOptions::default()
                        .with_embedding_backend(EmbeddingBackendKind::ReferenceF32),
                ));
                assert_same_annotation(&want, &outcome.annotation);
            }
            let _ = name;
        }
    }
}

// ---- Approximate backends: golden tolerance on e1–e8 --------------------

/// Every approximate backend's decisions must stay within the golden
/// tolerance of the reference on every e1–e8 corpus shape: per-corpus
/// top-1 agreement ≥ 0.85 (≥ 0.9 pooled) and per-corpus accuracy
/// delta ≤ 0.05.
#[test]
fn approximate_backends_stay_within_golden_tolerance_on_e1_to_e8() {
    let corpora = eval_corpora();
    let reference = lab().customer();
    for kind in EmbeddingBackendKind::ALL
        .into_iter()
        .filter(|k| k.backend().accuracy_class() == AccuracyClass::Approximate)
    {
        let approximate = customer_with(kind);
        let mut pooled_same = 0usize;
        let mut pooled_total = 0usize;
        for (name, corpus) in &corpora {
            let (same, total) = agreement(&reference, &approximate, corpus);
            pooled_same += same;
            pooled_total += total;
            assert!(
                same * 100 >= total * 85,
                "{} on {name}: only {same}/{total} columns agree with reference",
                kind.label()
            );
            let ref_stats = evaluate(&reference, corpus);
            let approx_stats = evaluate(&approximate, corpus);
            let delta = (ref_stats.accuracy() - approx_stats.accuracy()).abs();
            assert!(
                delta <= 0.05,
                "{} on {name}: accuracy delta {delta:.3} \
                 (reference {:.3}, approximate {:.3})",
                kind.label(),
                ref_stats.accuracy(),
                approx_stats.accuracy()
            );
        }
        assert!(
            pooled_same * 10 >= pooled_total * 9,
            "{} pooled agreement {pooled_same}/{pooled_total} below 0.9",
            kind.label()
        );
        println!(
            "{}: pooled agreement {pooled_same}/{pooled_total}",
            kind.label()
        );
    }
}

/// The approximate tolerance holds under the executor's other
/// execution shapes too: column-parallel chunking and a cache-bypassed
/// request.
#[test]
fn blocked_simd_tolerance_holds_parallel_and_uncached() {
    let corpora = eval_corpora();
    let reference = lab().customer();
    let blocked = with_strategy(
        &customer_with(EmbeddingBackendKind::BlockedSimd),
        ParallelismPolicy::FixedChunk { columns: 2 },
        3,
    );
    let mut same = 0usize;
    let mut total = 0usize;
    for (_, corpus) in corpora.iter().step_by(2) {
        for at in &corpus.tables {
            let a = reference.annotate(&at.table);
            let outcome = blocked.annotate_request(&AnnotationRequest::with_options(
                &at.table,
                RequestOptions::default().with_cache_bypassed(),
            ));
            for (ca, cb) in a.columns.iter().zip(&outcome.annotation.columns) {
                total += 1;
                same += usize::from(ca.predicted == cb.predicted);
            }
        }
    }
    assert!(
        same * 100 >= total * 85,
        "parallel+uncached blocked_simd agreement {same}/{total} below 0.85"
    );
}

// ---- Cache separation ----------------------------------------------------

/// One shared cache, two backends: the approximate backend must never
/// be served the reference's cached step scores (or vice versa). The
/// per-request override goes through the same fingerprint path, so a
/// warm reference cache plus a blocked-SIMD override must still
/// produce exactly what an uncached blocked-SIMD customer produces.
#[test]
fn backends_never_cross_serve_cache_entries() {
    let corpora = eval_corpora();
    let corpus = &corpora[0].1;
    let cache: Arc<ShardedLruCache> = Arc::new(ShardedLruCache::new(1 << 15));

    let mut reference = lab().customer();
    reference.set_step_cache(Some(Arc::clone(&cache) as _));
    let mut blocked = customer_with(EmbeddingBackendKind::BlockedSimd);
    blocked.set_step_cache(Some(Arc::clone(&cache) as _));
    let blocked_uncached = customer_with(EmbeddingBackendKind::BlockedSimd);
    let reference_uncached = lab().customer();

    // Cross-serving is only observable where the two backends' scores
    // differ in some bit; count those columns so the test cannot pass
    // vacuously.
    let mut distinguishable = 0usize;
    for at in corpus.tables.iter().take(5) {
        // Warm the shared cache with reference-backend entries...
        let ref_cold = reference.annotate(&at.table);
        // ... then annotate with the blocked backend through the same
        // store: it must match the uncached blocked path, not the
        // cached reference scores.
        let b_through_shared = blocked.annotate(&at.table);
        let b_uncached = blocked_uncached.annotate(&at.table);
        assert_same_annotation(&b_uncached, &b_through_shared);
        distinguishable += ref_cold
            .columns
            .iter()
            .zip(&b_uncached.columns)
            .filter(|(r, b)| r.step_scores != b.step_scores)
            .count();
        // And the reference entries stay intact for the reference.
        assert_same_annotation(&reference_uncached.annotate(&at.table), &ref_cold);
        assert_same_annotation(
            &reference_uncached.annotate(&at.table),
            &reference.annotate(&at.table),
        );
        // The per-request override separates keys the same way.
        let b_override = reference.annotate_request(&AnnotationRequest::with_options(
            &at.table,
            RequestOptions::default().with_embedding_backend(EmbeddingBackendKind::BlockedSimd),
        ));
        assert_same_annotation(&b_uncached, &b_override.annotation);
    }
    assert!(cache.len() > 0, "the shared cache must have been used");
    assert!(
        distinguishable > 0,
        "the backends never disagreed in a bit, so cross-serving is undetectable"
    );
}

// ---- Typed errors --------------------------------------------------------

/// Unknown backend names are a typed error listing the valid names —
/// the contract the server's 400 path is built on.
#[test]
fn unknown_backend_name_is_a_typed_error() {
    let err = EmbeddingBackendKind::parse("tpu_pod").unwrap_err();
    assert_eq!(err.requested, "tpu_pod");
    let msg = err.to_string();
    for kind in EmbeddingBackendKind::ALL {
        assert!(msg.contains(kind.label()), "{msg}");
        assert_eq!(EmbeddingBackendKind::parse(kind.label()), Ok(kind));
    }
}
