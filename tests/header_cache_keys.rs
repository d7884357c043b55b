//! The header step's cache key against stale reads.
//!
//! Header-scoped entries are keyed by exactly what the header step
//! reads — the global model's header fingerprint, the config, the raw
//! header text and the customer's `Wg` state under the normalized
//! header — and not by the cache epoch. These tests pin both sides of
//! that: an entry outlives every adaptation that leaves those inputs
//! alone, and is never served where they differ. Every cached answer
//! is checked bit for bit against an uncached customer given the same
//! events.

use sigmatyper::{
    train_global, GlobalModel, ShardedLruCache, SigmaTyper, StepCache, StepId, TableAnnotation,
    TrainingConfig,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology, ValueKind};
use tu_table::{Column, Table};

/// A global model trained with `seed` on a small corpus.
fn train(seed: u64) -> Arc<GlobalModel> {
    let ontology = builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(0x4EAD, 16));
    Arc::new(train_global(
        ontology,
        &corpus,
        &TrainingConfig {
            seed,
            ..TrainingConfig::fast()
        },
    ))
}

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL.get_or_init(|| train(1)).clone()
}

/// Four informative headers, each resolved by the header step, and
/// two opaque ones whose columns walk on to the lookup and embedding
/// steps.
fn staff() -> Table {
    Table::new(
        "staff",
        vec![
            Column::from_raw("salary", &["50000", "61000", "72000", "48000"]),
            Column::from_raw("city", &["Berlin", "Paris", "Madrid", "Rome"]),
            Column::from_raw(
                "email",
                &["ada@x.com", "bob@y.org", "eve@z.net", "max@w.io"],
            ),
            Column::from_raw("first name", &["Ada", "Bob", "Eve", "Max"]),
            Column::from_raw(
                "xq7_zz",
                &["lorem ipsum", "dolor sit", "amet", "consectetur"],
            ),
            Column::from_raw("c_17", &["3.5", "7.25", "1.75", "9.0"]),
        ],
    )
    .unwrap()
}

/// `(columns run, cache hits, cache misses)` of one step.
fn step(ann: &TableAnnotation, id: StepId) -> (usize, usize, usize) {
    ann.timings
        .iter()
        .find(|t| t.step == id)
        .map(|t| (t.columns, t.cache_hits, t.cache_misses))
        .expect("step timed")
}

/// Everything except wall-clock timings must match bit for bit.
fn assert_same(a: &TableAnnotation, b: &TableAnnotation) {
    assert_eq!(a.columns.len(), b.columns.len());
    for (ca, cb) in a.columns.iter().zip(&b.columns) {
        assert_eq!(ca.predicted, cb.predicted);
        assert_eq!(ca.confidence.to_bits(), cb.confidence.to_bits());
        assert_eq!(ca.top_k, cb.top_k);
        assert_eq!(ca.steps_run, cb.steps_run);
        assert_eq!(ca.step_scores, cb.step_scores);
    }
}

/// Read `table` through `cached` and check it against `plain`, an
/// uncached customer with the same history; return the cached answer.
fn read(cached: &SigmaTyper, plain: &SigmaTyper, table: &Table) -> TableAnnotation {
    let got = cached.annotate(table);
    assert_same(&plain.annotate(table), &got);
    got
}

/// A cached customer and an uncached one, on one global model.
fn pair() -> (SigmaTyper, SigmaTyper) {
    let cached = SigmaTyper::builder(global()).cached(1 << 14).build();
    let plain = SigmaTyper::builder(global()).build();
    (cached, plain)
}

/// The lookup and embedding steps missed on every column they ran on
/// and hit nothing: their keys hash the epoch, which moved.
fn assert_tail_missed(ann: &TableAnnotation) {
    for id in [StepId::LOOKUP, StepId::EMBEDDING] {
        let (columns, hits, misses) = step(ann, id);
        assert!(columns > 0, "{id:?} ran");
        assert_eq!((hits, misses), (0, columns), "{id:?} after an epoch move");
    }
}

#[test]
fn override_retires_only_the_overridden_headers_entry() {
    let (mut cached, mut plain) = pair();
    let table = staff();
    let salary = builtin_id(cached.ontology(), "salary");
    let age = builtin_id(cached.ontology(), "age");
    let cold = read(&cached, &plain, &table);
    assert_eq!(step(&cold, StepId::HEADER), (6, 0, 6));
    assert_eq!(cold.columns[0].predicted, salary);

    // Relabel the salary column: the customer overrides the global
    // prediction `salary` under the header "salary".
    cached.feedback(&table, 0, age, None);
    plain.feedback(&table, 0, age, None);
    assert!(cached.local().wg(salary, "salary") < 1.0, "Wg moved");

    // Only "salary" misses; its five neighbors hit the entries of the
    // cold read, and the answer is the uncached adapted one.
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (1, 5, 1));
    assert_tail_missed(&after);
    assert_ne!(
        after.columns[0].step_scores[0], cold.columns[0].step_scores[0],
        "the discount reached the header scores"
    );
    // The re-matched entry serves the next read.
    assert_eq!(
        step(&read(&cached, &plain, &table), StepId::HEADER),
        (0, 6, 0)
    );
}

#[test]
fn epoch_moves_that_leave_wg_alone_keep_every_header_entry() {
    let (mut cached, mut plain) = pair();
    let table = staff();
    let salary = builtin_id(cached.ontology(), "salary");
    let _ = read(&cached, &plain, &table);

    // A confirming feedback: the prediction is already right, so no
    // override is recorded, yet the epoch moves.
    let epoch = cached.cache_epoch();
    cached.feedback(&table, 0, salary, None);
    plain.feedback(&table, 0, salary, None);
    assert_ne!(cached.cache_epoch(), epoch);
    assert_eq!(cached.local().wg(salary, "salary"), 1.0);
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (0, 6, 0));
    assert_tail_missed(&after);

    // The other epoch moves change nothing the header key hashes
    // either: a custom type extends the customer's ontology, which the
    // header step never reads.
    cached.invalidate_cache();
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (0, 6, 0));
    assert_tail_missed(&after);

    cached
        .register_custom_type("badge code", ValueKind::Textual, &[])
        .expect("new type name");
    plain
        .register_custom_type("badge code", ValueKind::Textual, &[])
        .expect("new type name");
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (0, 6, 0));
    assert_tail_missed(&after);

    cached.implicit_approve(&table, &after);
    plain.implicit_approve(&table, &after);
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (0, 6, 0));
    assert_tail_missed(&after);

    let _ = cached.cascade_mut();
    let after = read(&cached, &plain, &table);
    assert_eq!(step(&after, StepId::HEADER), (0, 6, 0));
    assert_tail_missed(&after);
}

#[test]
fn global_models_from_different_seeds_never_share_header_entries() {
    let (first, second) = (global(), train(2));
    assert_ne!(first.header_fingerprint(), second.header_fingerprint());
    assert_eq!(
        first.header_fingerprint(),
        train(1).header_fingerprint(),
        "equal training inputs, equal fingerprints"
    );
    let cache: Arc<dyn StepCache> = Arc::new(ShardedLruCache::new(1 << 14));
    let on = |global: &Arc<GlobalModel>| {
        SigmaTyper::builder(Arc::clone(global))
            .step_cache(Arc::clone(&cache))
            .build()
    };
    let plain = |global: &Arc<GlobalModel>| SigmaTyper::builder(Arc::clone(global)).build();
    let table = staff();
    // The second model writes its header entries first; the first model
    // then reads the same headers through the same cache and hits none.
    let _ = read(&on(&second), &plain(&second), &table);
    let ann = read(&on(&first), &plain(&first), &table);
    assert_eq!(step(&ann, StepId::HEADER), (6, 0, 6));
    // Both models' entries now sit side by side, each serving its own
    // model.
    for model in [&first, &second] {
        let ann = read(&on(model), &plain(model), &table);
        assert_eq!(step(&ann, StepId::HEADER), (0, 6, 0));
    }
}

#[test]
fn customers_share_header_entries_exactly_when_their_wg_agrees() {
    let cache: Arc<dyn StepCache> = Arc::new(ShardedLruCache::new(1 << 14));
    let customer = || {
        let cached = SigmaTyper::builder(global())
            .step_cache(Arc::clone(&cache))
            .build();
        (cached, SigmaTyper::builder(global()).build())
    };
    let (mut a, mut plain_a) = customer();
    let (mut b, mut plain_b) = customer();
    let table = staff();
    let age = builtin_id(a.ontology(), "age");

    // B reads first and writes every header entry under the fresh `Wg`
    // state; A, still fresh, reads them all.
    assert_eq!(step(&read(&b, &plain_b, &table), StepId::HEADER), (6, 0, 6));
    assert_eq!(step(&read(&a, &plain_a, &table), StepId::HEADER), (0, 6, 0));

    // A overrides `salary` under "salary". Its next read misses that
    // header only: B holds no entry under A's new `Wg` state there.
    a.feedback(&table, 0, age, None);
    plain_a.feedback(&table, 0, age, None);
    let adapted = read(&a, &plain_a, &table);
    assert_eq!(step(&adapted, StepId::HEADER), (1, 5, 1));

    // B's `Wg` state still differs from A's under "salary": B reads
    // its own fresh entry there, never A's discounted one.
    let fresh = read(&b, &plain_b, &table);
    assert_eq!(step(&fresh, StepId::HEADER), (0, 6, 0));
    assert_ne!(
        fresh.columns[0].step_scores[0], adapted.columns[0].step_scores[0],
        "the two customers' header scores differ under \"salary\""
    );

    // The same correction on B: its `Wg` state under "salary" is now
    // A's, so B reads A's entry and matches its own uncached answer.
    b.feedback(&table, 0, age, None);
    plain_b.feedback(&table, 0, age, None);
    let caught_up = read(&b, &plain_b, &table);
    assert_eq!(step(&caught_up, StepId::HEADER), (0, 6, 0));
    assert_eq!(
        caught_up.columns[0].step_scores[0],
        adapted.columns[0].step_scores[0]
    );
}
