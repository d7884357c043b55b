//! The global halves of the split steps, lookup and embedding.
//!
//! A split step's global half reads only the column, the config, the
//! global model and (embedding) the other columns' headers, so its key
//! hashes exactly those: no epoch, table name or customer. These tests
//! pin who shares a half, what misses one, and that a column answered
//! from a stored half answers bit for bit what an uncached customer
//! given the same events answers.

use sigmatyper::{
    train_embedding_model, train_global, AnnotationRequest, AnnotationStep, CacheContext, Cascade,
    CascadeExecutor, DiskCache, GlobalModel, GlobalPartStats, LocalModel, ShardedLruCache,
    SigmaTyper, SigmaTyperConfig, StepCache, StepContext, StepId, StepScores, TableAnnotation,
    TrainingConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig, GenParams};
use tu_ontology::{builtin_id, builtin_ontology, TypeId};
use tu_table::{Column, Table, Value};

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

fn cached_on(global: &Arc<GlobalModel>, cache: &Arc<ShardedLruCache>) -> SigmaTyper {
    SigmaTyper::builder(Arc::clone(global))
        .step_cache(Arc::clone(cache) as Arc<dyn StepCache>)
        .build()
}

fn uncached(global: &Arc<GlobalModel>) -> SigmaTyper {
    SigmaTyper::builder(Arc::clone(global)).build()
}

fn parts(cache: &ShardedLruCache) -> GlobalPartStats {
    cache.global_parts().expect("the LRU owns a store").stats()
}

/// Tables of the database-like corpus drawn with `seed`.
fn tables(seed: u64, n: usize) -> Vec<Table> {
    let cfg = CorpusConfig::database_like(seed, n);
    generate_corpus(&builtin_ontology(), &cfg)
        .tables
        .into_iter()
        .map(|at| at.table)
        .collect()
}

/// Bit-for-bit comparison of two annotations (timings exempt — they
/// are wall-clock measurements).
fn assert_same_annotation(want: &TableAnnotation, got: &TableAnnotation) {
    assert_eq!(want.columns.len(), got.columns.len());
    for (a, b) in want.columns.iter().zip(&got.columns) {
        assert_eq!(a.predicted, b.predicted, "prediction diverged");
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.top_k, b.top_k, "top-k diverged");
        assert_eq!(a.steps_run, b.steps_run, "steps_run diverged");
        assert_eq!(a.step_scores, b.step_scores, "step scores diverged");
    }
}

/// `(columns run, global hits)` of each split step, lookup first.
fn split_counts(ann: &TableAnnotation) -> [(usize, usize); 2] {
    [StepId::LOOKUP, StepId::EMBEDDING].map(|step| {
        ann.timings
            .iter()
            .filter(|t| t.step == step)
            .fold((0, 0), |(c, h), t| (c + t.columns, h + t.global_hits))
    })
}

/// Columns whose trace holds `step`.
fn reached(ann: &TableAnnotation, step: StepId) -> Vec<usize> {
    ann.columns
        .iter()
        .filter(|c| c.steps_run.contains(&step))
        .map(|c| c.col_idx)
        .collect()
}

/// (a) Customers on one global model and one cache: the second runs
/// every split column from the first's halves and stores none of its
/// own, and after diverging histories each still answers as its
/// uncached mirror.
#[test]
fn customers_on_one_cache_share_exactly_the_global_halves() {
    let g = global();
    let cache = Arc::new(ShardedLruCache::new(1 << 15));
    let (mut a, mut b) = (cached_on(&g, &cache), cached_on(&g, &cache));
    let (mut plain_a, mut plain_b) = (uncached(&g), uncached(&g));
    let crawl = tables(0xA11, 6);

    for t in &crawl {
        assert_same_annotation(&plain_a.annotate(t), &a.annotate(t));
    }
    let stored = parts(&cache);
    assert!(stored.entries > 0 && stored.bytes > 0, "{stored:?}");

    // B's epoch misses every column entry A wrote, but every split
    // column it runs finds A's global half.
    for t in &crawl {
        let got = b.annotate(t);
        assert_same_annotation(&plain_b.annotate(t), &got);
        for (columns, hits) in split_counts(&got) {
            assert_eq!(hits, columns, "B reruns only combines");
        }
    }
    let shared = parts(&cache);
    assert_eq!(
        shared.entries, stored.entries,
        "B stores no half of its own"
    );
    assert_eq!(shared.bytes, stored.bytes);

    // Different corrections for each: both still answer as their
    // uncached mirrors, reading the one set of halves.
    let (t0, t1) = (&crawl[0], &crawl[1]);
    let ty = |typer: &SigmaTyper, t: &Table, c: usize| typer.annotate(t).columns[c].predicted;
    let (ta, tb) = (ty(&plain_a, t0, 0), TypeId(2));
    a.feedback(t0, 0, ta, None);
    plain_a.feedback(t0, 0, ta, None);
    b.feedback(t1, 1, tb, None);
    plain_b.feedback(t1, 1, tb, None);
    let before = parts(&cache);
    let mut hits = 0;
    for t in &crawl {
        for (cached, plain) in [(&a, &plain_a), (&b, &plain_b)] {
            let got = cached.annotate(t);
            assert_same_annotation(&plain.annotate(t), &got);
            hits += split_counts(&got).iter().map(|(_, h)| h).sum::<usize>();
        }
    }
    assert!(hits > 0);
    assert_eq!(parts(&cache).hits - before.hits, hits as u64);
}

/// (b) Models trained from different seeds key their halves apart: a
/// customer of the second model gets nothing from the first model's
/// halves — exactly the hits it gets on a cache of its own — and
/// answers as an uncached customer of its model.
#[test]
fn models_trained_from_different_seeds_never_share_a_half() {
    let (g1, g2) = (global(), train(2));
    let shared = Arc::new(ShardedLruCache::new(1 << 15));
    let own = Arc::new(ShardedLruCache::new(1 << 15));
    let (x, y) = (cached_on(&g1, &shared), cached_on(&g2, &shared));
    let (alone, plain) = (cached_on(&g2, &own), uncached(&g2));
    let crawl = tables(0xB2, 6);
    for t in &crawl {
        let _ = x.annotate(t);
    }
    let after_x = parts(&shared);
    assert!(after_x.entries > 0);
    for t in &crawl {
        let got = y.annotate(t);
        assert_same_annotation(&plain.annotate(t), &got);
        assert_eq!(split_counts(&got), split_counts(&alone.annotate(t)));
    }
    let after_y = parts(&shared);
    assert_eq!(after_y.entries, after_x.entries + parts(&own).entries);
    assert_eq!(after_y.hits - after_x.hits, parts(&own).hits);
}

/// A clone of the global model extended through a public field keys
/// its halves apart from the original's: on a cache the original
/// filled, it finds none of them and answers as it does uncached.
#[test]
fn an_extended_clone_of_the_model_never_reads_the_originals_halves() {
    let g = global();
    let mut extended = GlobalModel::clone(&g);
    let phone = builtin_id(&g.ontology, "phone number");
    extended
        .lookup
        .bank_mut()
        .add_shape(phone, "ZX-[0-9]+")
        .expect("a valid pattern");
    let extended = Arc::new(extended);
    let table = Table::new(
        "codes",
        vec![
            Column::from_raw("xq_1", &["ZX-101", "ZX-2202", "ZX-33", "ZX-4040"]),
            Column::from_raw("xq_2", &["lorem ipsum", "dolor sit", "amet", "sed do"]),
        ],
    )
    .expect("valid table");
    let plain = uncached(&extended).annotate(&table);
    let original = uncached(&g).annotate(&table);
    assert_ne!(
        plain.columns[0].step_scores, original.columns[0].step_scores,
        "the added shape changes the answer"
    );

    let cache = Arc::new(ShardedLruCache::new(1 << 12));
    assert_same_annotation(&original, &cached_on(&g, &cache).annotate(&table));
    let stored = parts(&cache);
    assert!(stored.entries > 0);
    let got = cached_on(&extended, &cache).annotate(&table);
    assert_same_annotation(&plain, &got);
    assert_eq!(split_counts(&got).map(|(_, hits)| hits), [0, 0]);
    assert_eq!(parts(&cache).hits, stored.hits);
}

/// Tables of the shapes the e1–e8 experiments crawl, one per shape.
fn e_shaped_tables() -> Vec<(Table, Vec<TypeId>)> {
    let mut shapes: Vec<CorpusConfig> = Vec::new();
    let mut e1 = CorpusConfig::database_like(0xE1_70, 1);
    e1.params = GenParams::shifted(0.5);
    e1.opaque_header_rate = 0.6;
    shapes.push(e1);
    shapes.push(CorpusConfig::database_like(0xE2_01, 1));
    let mut e3 = CorpusConfig::database_like(0xE3_01, 1);
    e3.ood_column_rate = 0.9;
    shapes.push(e3);
    let mut e4 = CorpusConfig::database_like(0xE4_01, 1);
    e4.params = GenParams::shifted(0.7);
    e4.opaque_header_rate = 0.5;
    shapes.push(e4);
    shapes.push(CorpusConfig::database_like(0xE5_01, 1));
    let mut e6 = CorpusConfig::database_like(0xE6_01, 1);
    e6.opaque_header_rate = 0.45;
    e6.params = GenParams::shifted(0.2);
    shapes.push(e6);
    let mut e7 = CorpusConfig::database_like(0xE7_01, 1);
    e7.ood_column_rate = 0.25;
    e7.opaque_header_rate = 0.45;
    e7.params = GenParams::shifted(0.2);
    shapes.push(e7);
    let mut e8_web = CorpusConfig::web_like(0xE8_11, 1);
    e8_web.opaque_header_rate = 0.7;
    shapes.push(e8_web);
    let mut e8_db = CorpusConfig::database_like(0xE8_12, 1);
    e8_db.opaque_header_rate = 0.7;
    shapes.push(e8_db);
    let ontology = builtin_ontology();
    shapes
        .iter()
        .flat_map(|cfg| generate_corpus(&ontology, cfg).tables)
        .map(|at| (at.table, at.labels))
        .collect()
}

/// (c) 64 corrections in the serving benchmark's rotation: tables take
/// turns, and each correction relabels the table's first labelled
/// column whose latest answer is wrong, or confirms one in turn. Every
/// read matches the uncached replay, and in the first read after each
/// feedback — whose epoch move misses every lookup and embedding
/// entry — every such column that reached the step in an earlier read
/// runs only its combine.
#[test]
fn corrections_in_rotation_rerun_only_the_combine() {
    let g = global();
    let tables = e_shaped_tables();
    let mut cached = SigmaTyper::builder(Arc::clone(&g)).cached(1 << 16).build();
    let mut plain = uncached(&g);
    let steps = [StepId::LOOKUP, StepId::EMBEDDING];
    // Per table and split step, the columns that reached the step in
    // any read so far.
    let mut seen: Vec<[Vec<bool>; 2]> = tables
        .iter()
        .map(|(t, _)| [vec![false; t.n_cols()], vec![false; t.n_cols()]])
        .collect();
    let mut latest: Vec<Vec<TypeId>> = tables.iter().map(|_| Vec::new()).collect();
    // The tables with a labelled column take turns.
    let rotation: Vec<usize> = (0..tables.len())
        .filter(|&i| tables[i].1.iter().any(|l| !l.is_unknown()))
        .collect();
    let mut rehits = 0;
    for round in 0..=64 {
        for (i, (t, _)) in tables.iter().enumerate() {
            let got = cached.annotate(t);
            assert_same_annotation(&plain.annotate(t), &got);
            let counts = split_counts(&got);
            for (s, &step) in steps.iter().enumerate() {
                let now = reached(&got, step);
                if round > 0 {
                    let (columns, hits) = counts[s];
                    assert_eq!(columns, now.len(), "round {round}: every entry missed");
                    let before = now.iter().filter(|&&c| seen[i][s][c]).count();
                    assert!(
                        (before..=columns).contains(&hits),
                        "round {round}, table {i}, {step:?}: {hits} hits for {before} seen columns"
                    );
                    rehits += before;
                }
                for c in now {
                    seen[i][s][c] = true;
                }
            }
            latest[i] = got.columns.iter().map(|c| c.predicted).collect();
        }
        if round == 64 {
            break;
        }
        let i = rotation[round % rotation.len()];
        let (t, labels) = &tables[i];
        let labelled: Vec<usize> = (0..labels.len())
            .filter(|&c| !labels[c].is_unknown())
            .collect();
        let col = labelled
            .iter()
            .copied()
            .find(|&c| latest[i][c] != labels[c])
            .unwrap_or(labelled[(round / rotation.len()) % labelled.len()]);
        cached.feedback(t, col, labels[col], None);
        plain.feedback(t, col, labels[col], None);
    }
    assert!(rehits > 0);
}

/// A throwaway directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "sigmatyper-global-parts-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// (f) Split steps where no store serves the request: a customer on a
/// standalone disk tier, whose `global_parts()` is the trait's `None`,
/// and one whose every request bypasses its LRU cache. Fresh and after
/// corrections, both compute every half, answer as an uncached
/// customer, and count no global hit, and a bypassed request leaves
/// the LRU's store — filled by another customer — as it found it.
#[test]
fn split_steps_without_a_store_compute_every_half() {
    let g = global();
    let tables = e_shaped_tables();
    let dir = Scratch::new("disk");
    let disk = DiskCache::open(&dir.0).expect("open the disk tier");
    assert!(disk.global_parts().is_none());
    let mut on_disk = SigmaTyper::builder(Arc::clone(&g))
        .step_cache(Arc::new(disk) as Arc<dyn StepCache>)
        .build();
    let lru = Arc::new(ShardedLruCache::new(1 << 16));
    let warm = cached_on(&g, &lru);
    for (t, _) in &tables {
        let _ = warm.annotate(t);
    }
    assert!(parts(&lru).entries > 0, "the store holds halves to read");
    let mut bypassing = cached_on(&g, &lru);
    let mut plain = uncached(&g);

    let mut split_columns = 0;
    for round in 0..=3 {
        for (t, _) in &tables {
            let want = plain.annotate(t);
            let got = on_disk.annotate(t);
            assert_same_annotation(&want, &got);
            assert_eq!(split_counts(&got).map(|(_, hits)| hits), [0, 0]);
            let before = parts(&lru);
            let got = bypassing
                .annotate_request(&AnnotationRequest::new(t).with_cache_bypassed())
                .annotation;
            assert_same_annotation(&want, &got);
            assert_eq!(split_counts(&got).map(|(_, hits)| hits), [0, 0]);
            assert_eq!(
                parts(&lru),
                before,
                "round {round}: the store was consulted"
            );
            split_columns += split_counts(&got).iter().map(|(c, _)| c).sum::<usize>();
        }
        if round == 3 {
            break;
        }
        // Correct the first labelled column of the next labelled table
        // to its true type.
        let (t, col, label) = tables
            .iter()
            .filter_map(|(t, labels)| {
                let col = labels.iter().position(|l| !l.is_unknown())?;
                Some((t, col, labels[col]))
            })
            .nth(round)
            .expect("three labelled tables");
        for typer in [&mut on_disk, &mut bypassing, &mut plain] {
            typer.feedback(t, col, label, None);
        }
    }
    assert!(split_columns > 0, "the split steps ran");
}

/// Four opaque headers, so every column walks on to the lookup step,
/// and free-text and code columns that walk on to the embedding step.
fn opaque() -> Table {
    Table::new(
        "opaque",
        vec![
            Column::from_raw("xq_1", &["lorem ipsum", "dolor sit", "amet", "sed do"]),
            Column::from_raw("xq_2", &["K-17", "B-22", "Z-09", "Q-31"]),
            Column::from_raw("xq_3", &["3.5", "7.25", "1.75", "9.0"]),
            Column::from_raw("xq_4", &["eiusmod", "tempor", "incididunt", "labore"]),
        ],
    )
    .expect("valid table")
}

/// `table` with one change: `edit` applied to its columns.
fn edited(table: &Table, edit: impl FnOnce(&mut Vec<Column>)) -> Table {
    let mut columns = table.columns().to_vec();
    edit(&mut columns);
    Table::new(table.name.clone(), columns).expect("valid table")
}

/// (d) A changed cell misses its column's halves and no other column's;
/// a renamed header misses its own column's lookup half and every
/// embedding half, since each other column's neighbor context named it.
#[test]
fn a_changed_cell_or_neighbor_header_misses_exactly_its_halves() {
    let g = global();
    let cached = SigmaTyper::builder(Arc::clone(&g)).cached(1 << 12).build();
    let plain = uncached(&g);
    let table = opaque();
    let first = cached.annotate(&table);
    assert_same_annotation(&plain.annotate(&table), &first);
    let lookup_cols = reached(&first, StepId::LOOKUP);
    let embedding_cols = reached(&first, StepId::EMBEDDING);
    assert!(lookup_cols.contains(&0) && lookup_cols.contains(&3));
    assert!(embedding_cols.contains(&0) && embedding_cols.len() >= 2);

    let cell = edited(&table, |cols| {
        cols[0].values[2] = Value::Text("magna".into())
    });
    let got = cached.annotate(&cell);
    assert_same_annotation(&plain.annotate(&cell), &got);
    assert_eq!(reached(&got, StepId::LOOKUP), lookup_cols);
    assert_eq!(reached(&got, StepId::EMBEDDING), embedding_cols);
    let [lookup, embedding] = split_counts(&got);
    assert_eq!(lookup, (lookup_cols.len(), lookup_cols.len() - 1));
    assert_eq!(embedding, (embedding_cols.len(), embedding_cols.len() - 1));

    let renamed = edited(&table, |cols| cols[3].name = "xq_9".into());
    let got = cached.annotate(&renamed);
    assert_same_annotation(&plain.annotate(&renamed), &got);
    assert_eq!(reached(&got, StepId::LOOKUP), lookup_cols);
    let [lookup, embedding] = split_counts(&got);
    assert_eq!(lookup, (lookup_cols.len(), lookup_cols.len() - 1));
    assert_eq!(embedding.1, 0, "every neighbor context changed");
}

/// (d) A finetuned head with a featurizer of its own featurizes through
/// it, also when the column's global half — with the global
/// featurizer's vector — is stored.
#[test]
fn a_finetuned_head_with_its_own_featurizer_still_featurizes_through_it() {
    let g = global();
    let table = opaque();
    let corpus = generate_corpus(&g.ontology, &CorpusConfig::database_like(0x0E5, 8));
    let own = train_embedding_model(
        &g.ontology,
        &corpus,
        &tu_embed::Embedder::untrained(16),
        &TrainingConfig::fast(),
    );
    assert!(!own.shares_featurizer(&g.embedding));
    // Scoring the head on the global featurizer's vector would give
    // another answer on this table.
    let headers = table.headers();
    let differs = table.columns().iter().enumerate().any(|(ci, column)| {
        let neighbors: Vec<&str> = (0..headers.len())
            .filter(|&j| j != ci)
            .map(|j| headers[j])
            .collect();
        let via_global = g.embedding.featurize(column, &neighbors);
        own.predict(column, &neighbors) != own.scores_from_logits(&own.mlp().logits(&via_global))
    });
    assert!(differs, "the two featurizers must disagree somewhere");
    let mut local = LocalModel::new();
    local.finetuned = Some(own);
    for ty in 0..g.embedding.n_classes() {
        local.record_feedback(TypeId(ty as u16));
    }

    let cascade = Cascade::standard();
    let config = SigmaTyperConfig::default();
    let executor = CascadeExecutor::new(1);
    let cache = ShardedLruCache::new(1 << 12);
    let run = |local: &LocalModel, epoch: Option<u64>| {
        let cache = epoch.map(|epoch| CacheContext {
            cache: &cache,
            epoch,
        });
        executor.run_budgeted(&cascade, &table, &g, local, &config, cache, None, None)
    };
    // A fresh customer stores the global halves; the finetuned one,
    // under another epoch, answers from them as uncached.
    let _ = run(&LocalModel::new(), Some(1));
    let cached = run(&local, Some(2)).trace;
    let plain = run(&local, None).trace;
    assert_eq!(cached.0, plain.0);
    let embedding = cached.1.iter().find(|t| t.step == StepId::EMBEDDING);
    let embedding = embedding.expect("an embedding timing");
    assert!(embedding.columns > 0);
    assert_eq!(embedding.global_hits, embedding.columns);
}

/// A custom step that counts its runs and scores a column by its
/// length.
#[derive(Debug)]
struct Tally(Arc<AtomicUsize>);

impl AnnotationStep for Tally {
    fn id(&self) -> StepId {
        StepId::custom(7)
    }

    fn name(&self) -> &str {
        "tally"
    }

    fn skip(&self, _: &StepContext<'_>) -> bool {
        false
    }

    fn run(&self, ctx: &StepContext<'_>) -> StepScores {
        self.0.fetch_add(1, Ordering::Relaxed);
        StepScores::from_candidates(vec![sigmatyper::Candidate {
            ty: TypeId(2),
            confidence: 1.0 / (1.0 + ctx.column().len() as f64),
        }])
    }
}

/// (e) A custom step without a global half runs as it always has: no
/// global hits, a run on every column its entries do not answer, and
/// the uncached answer.
#[test]
fn a_custom_step_without_a_global_half_runs_as_before() {
    let g = global();
    let runs = Arc::new(AtomicUsize::new(0));
    let plain_runs = Arc::new(AtomicUsize::new(0));
    assert!(Tally(Arc::clone(&runs)).split().is_none());
    let cache = Arc::new(ShardedLruCache::new(1 << 14));
    let mut cached = SigmaTyper::builder(Arc::clone(&g))
        .step(Tally(Arc::clone(&runs)))
        .step_cache(Arc::clone(&cache) as Arc<dyn StepCache>)
        .build();
    let mut plain = SigmaTyper::builder(Arc::clone(&g))
        .step(Tally(Arc::clone(&plain_runs)))
        .build();
    let tally = |ann: &TableAnnotation| {
        let t = ann.timings.iter().find(|t| t.step == StepId::custom(7));
        let t = t.expect("a tally timing");
        (t.columns, t.global_hits)
    };
    let crawl = tables(0xE, 3);
    let read = |cached: &SigmaTyper, plain: &SigmaTyper| {
        for t in &crawl {
            let got = cached.annotate(t);
            assert_same_annotation(&plain.annotate(t), &got);
            assert_eq!(tally(&got), (t.n_cols(), 0));
        }
    };
    read(&cached, &plain);
    let total: usize = crawl.iter().map(Table::n_cols).sum();
    assert_eq!(runs.load(Ordering::Relaxed), total);
    // A feedback moves the epoch: the step reruns on every column.
    let t = &crawl[0];
    let ty = plain.annotate(t).columns[0].predicted;
    cached.feedback(t, 0, ty, None);
    plain.feedback(t, 0, ty, None);
    let fed = runs.load(Ordering::Relaxed);
    read(&cached, &plain);
    assert_eq!(runs.load(Ordering::Relaxed), fed + total);
    assert!(
        parts(&cache).hits > 0,
        "the split steps reused their halves"
    );
}
