//! Golden-equivalence suite for the cascade API redesign.
//!
//! The seed implementation hardcoded the three-step pipeline inside
//! `SigmaTyper::annotate`. The redesign rebuilds it from pluggable
//! [`AnnotationStep`]s run by a [`Cascade`]. This suite keeps a literal
//! transcription of the seed pipeline (below) and asserts the
//! default-built cascade produces **bit-identical** `TableAnnotation`s
//! across a generated corpus — predictions, confidences, candidate
//! lists, `steps_run` traces, abstentions, and `resolving_step` — for
//! both a fresh customer and an adaptation-heavy one (local LFs,
//! finetuned model, `Wl`/`Wg` weights all engaged).

use sigmatyper::aggregate::{apply_tau, soft_majority_vote};
use sigmatyper::{
    train_global, AnnotationRequest, Candidate, CostModel, DegradationPolicy, GlobalModel,
    ShardedLruCache, SigmaTyper, SkipReason, Step, StepId, StepScores, TableAnnotation,
    TrainingConfig,
};
use std::sync::{Arc, OnceLock};
use tu_corpus::{generate_corpus, CorpusConfig};
use tu_ontology::{builtin_id, builtin_ontology, TypeId};
use tu_table::{Column, Table};

fn global() -> Arc<GlobalModel> {
    static GLOBAL: OnceLock<Arc<GlobalModel>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let ontology = builtin_ontology();
            let mut cfg = CorpusConfig::database_like(0x601D, 40);
            cfg.ood_column_rate = 0.2;
            let corpus = generate_corpus(&ontology, &cfg);
            Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
        })
        .clone()
}

/// A column's final state under the seed pipeline.
struct SeedColumn {
    steps_run: Vec<Step>,
    step_scores: Vec<StepScores>,
    top_k: Vec<Candidate>,
    predicted: TypeId,
    confidence: f64,
}

/// Literal transcription of the seed `SigmaTyper::annotate` (PR 1
/// state): hardcoded header → lookup → embedding with the boolean
/// ablation gates, the `[u128; 3]` timing array dropped (wall-clock is
/// the one field exempt from equivalence).
fn seed_annotate(typer: &SigmaTyper, table: &Table) -> Vec<SeedColumn> {
    let global = typer.global();
    let local = typer.local();
    let config = *typer.config();
    let n = table.n_cols();
    let normalized: Vec<String> = table
        .headers()
        .iter()
        .map(|h| tu_text::normalize_header(h))
        .collect();

    let mut per_column: Vec<Vec<(Step, StepScores)>> = vec![Vec::new(); n];

    // ---- Step 1: header matching -------------------------------
    if config.enable_header {
        for (ci, header) in table.headers().iter().enumerate() {
            let mut scores = global
                .header
                .match_header(header, &global.embedder, &config);
            for c in &mut scores.candidates {
                c.confidence *= local.wg(c.ty, &normalized[ci]);
            }
            per_column[ci].push((Step::Header, scores));
        }
    }

    // Tentative neighbor types from the best header candidates.
    let tentative: Vec<TypeId> = per_column
        .iter()
        .map(|steps| {
            steps
                .last()
                .and_then(|(_, s)| s.best())
                .map_or(TypeId::UNKNOWN, |c| c.ty)
        })
        .collect();

    let best_so_far = |steps: &[(Step, StepScores)]| {
        steps
            .iter()
            .map(|(_, s)| s.best_confidence())
            .fold(0.0, f64::max)
    };

    // ---- Step 2: value lookup (unresolved columns only) ---------
    for ci in 0..n {
        if !config.enable_lookup || best_so_far(&per_column[ci]) >= config.cascade_threshold {
            continue;
        }
        let neighbors: Vec<TypeId> = tentative
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != ci && !t.is_unknown())
            .map(|(_, t)| *t)
            .collect();
        let scores = global.lookup.lookup_weighted(
            table.column(ci).expect("column in range"),
            &normalized[ci],
            &neighbors,
            &[&global.global_lfs, &local.lfs],
            &config,
            &|t| local.wg(t, &normalized[ci]),
        );
        per_column[ci].push((Step::Lookup, scores));
    }

    // ---- Step 3: table-embedding model (still unresolved) -------
    let headers = table.headers();
    for ci in 0..n {
        if !config.enable_embedding || best_so_far(&per_column[ci]) >= config.cascade_threshold {
            continue;
        }
        let neighbors: Vec<&str> = headers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ci)
            .map(|(_, h)| *h)
            .collect();
        let column = table.column(ci).expect("column in range");
        let global_scores = global.embedding.predict(column, &neighbors);
        let scores = match &local.finetuned {
            Some(local_model) => {
                let local_scores = local_model.predict(column, &neighbors);
                seed_blend(typer, &global_scores, &local_scores, &normalized[ci])
            }
            None => global_scores,
        };
        per_column[ci].push((Step::Embedding, scores));
    }

    // ---- Aggregate + τ ------------------------------------------
    per_column
        .into_iter()
        .map(|steps| {
            let executed: Vec<(Step, &StepScores)> = steps.iter().map(|(s, sc)| (*s, sc)).collect();
            let mut top_k = soft_majority_vote(&executed, &config);
            seed_prefer_specific(typer, &mut top_k);
            let (predicted, confidence) = apply_tau(&top_k, config.tau);
            let (steps_run, step_scores): (Vec<Step>, Vec<StepScores>) = steps.into_iter().unzip();
            SeedColumn {
                steps_run,
                step_scores,
                top_k,
                predicted,
                confidence,
            }
        })
        .collect()
}

/// Seed `SigmaTyper::blend`, verbatim.
fn seed_blend(
    typer: &SigmaTyper,
    global: &StepScores,
    local_scores: &StepScores,
    normalized_header: &str,
) -> StepScores {
    let local = typer.local();
    let mut types: Vec<TypeId> = global
        .candidates
        .iter()
        .chain(&local_scores.candidates)
        .map(|c| c.ty)
        .collect();
    types.sort_unstable();
    types.dedup();
    let cands = types
        .into_iter()
        .map(|ty| {
            let wl = local.wl(ty);
            let wg = local.wg(ty, normalized_header);
            let g = global.confidence_for(ty);
            let l = local_scores.confidence_for(ty);
            const LOCAL_TRUST_FLOOR: f64 = 0.7;
            let local_term = if l >= LOCAL_TRUST_FLOOR { l } else { g * wg };
            Candidate {
                ty,
                confidence: (1.0 - wl) * wg * g + wl * local_term,
            }
        })
        .collect();
    StepScores::from_candidates(cands)
}

/// Seed `SigmaTyper::prefer_specific`, verbatim.
fn seed_prefer_specific(typer: &SigmaTyper, top_k: &mut [Candidate]) {
    const SPECIFICITY_MARGIN: f64 = 0.15;
    let ontology = typer.ontology();
    if top_k.len() < 2 {
        return;
    }
    let leader = top_k[0];
    if leader.ty.is_unknown() || leader.ty.index() >= ontology.len() {
        return;
    }
    for i in 1..top_k.len() {
        let challenger = top_k[i];
        if challenger.ty.is_unknown() || challenger.ty.index() >= ontology.len() {
            continue;
        }
        let challenger_is_descendant =
            ontology.is_a(challenger.ty, leader.ty) && challenger.ty != leader.ty;
        if challenger_is_descendant
            && challenger.confidence >= leader.confidence - SPECIFICITY_MARGIN
        {
            top_k[0..=i].rotate_right(1);
            return;
        }
    }
}

/// Bit-for-bit comparison of one table's annotation against the seed
/// reference (timings exempt — they are wall-clock measurements).
fn assert_golden(typer: &SigmaTyper, table: &Table) {
    let ann = typer.annotate(table);
    let seed = seed_annotate(typer, table);
    assert_eq!(ann.columns.len(), seed.len());
    for (got, want) in ann.columns.iter().zip(&seed) {
        assert_eq!(got.steps_run, want.steps_run, "steps_run diverged");
        assert_eq!(got.predicted, want.predicted, "prediction diverged");
        assert_eq!(
            got.confidence.to_bits(),
            want.confidence.to_bits(),
            "confidence diverged"
        );
        assert_eq!(got.top_k.len(), want.top_k.len());
        for (a, b) in got.top_k.iter().zip(&want.top_k) {
            assert_eq!(a.ty, b.ty, "top-k type diverged");
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "top-k confidence diverged"
            );
        }
        assert_eq!(got.step_scores.len(), want.step_scores.len());
        for (sa, sb) in got.step_scores.iter().zip(&want.step_scores) {
            assert_eq!(sa.candidates.len(), sb.candidates.len());
            for (a, b) in sa.candidates.iter().zip(&sb.candidates) {
                assert_eq!(a.ty, b.ty, "step candidate type diverged");
                assert_eq!(
                    a.confidence.to_bits(),
                    b.confidence.to_bits(),
                    "step candidate confidence diverged"
                );
            }
        }
        // resolving_step is derived from steps_run + step_scores, but
        // assert it explicitly — it is the cascade-trace API E6 uses.
        let c = typer.config().cascade_threshold;
        let want_resolving = want
            .steps_run
            .iter()
            .zip(&want.step_scores)
            .find(|(_, s)| s.best_confidence() >= c)
            .map(|(step, _)| *step);
        assert_eq!(got.resolving_step(c), want_resolving);
    }
}

/// A corpus hard enough to exercise every code path: opaque headers
/// push columns into lookup/embedding, OOD columns force abstentions,
/// mild shift keeps value signals imperfect.
fn hard_corpus(seed: u64, tables: usize) -> Vec<Table> {
    let o = builtin_ontology();
    let mut cfg = CorpusConfig::database_like(seed, tables);
    cfg.opaque_header_rate = 0.45;
    cfg.ood_column_rate = 0.2;
    cfg.params = tu_corpus::GenParams::shifted(0.2);
    generate_corpus(&o, &cfg)
        .tables
        .into_iter()
        .map(|at| at.table)
        .collect()
}

/// A cache-carrying clone of `typer` (shares models and adaptation
/// state, adds a fresh bounded LRU).
fn with_cache(typer: &SigmaTyper) -> SigmaTyper {
    let mut cached = typer.clone();
    cached.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 15))));
    cached
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

#[test]
fn default_cascade_is_bit_identical_to_seed_pipeline() {
    let typer = SigmaTyper::builder(global()).build();
    let tables = hard_corpus(0xBEEF, 30);
    let mut saw_multi_step = false;
    let mut saw_header_resolved = false;
    let mut saw_abstention = false;
    for table in &tables {
        assert_golden(&typer, table);
        let ann = typer.annotate(table);
        for col in &ann.columns {
            saw_multi_step |= col.steps_run.len() == 3;
            saw_header_resolved |=
                col.resolving_step(typer.config().cascade_threshold) == Some(Step::Header);
            saw_abstention |= col.abstained();
        }
    }
    // The corpus must actually cover the interesting regimes, or the
    // equivalence above proves nothing.
    assert!(saw_multi_step, "no column ran all three steps");
    assert!(saw_header_resolved, "no column resolved at the header step");
    assert!(saw_abstention, "no column abstained");
}

#[test]
fn default_cascade_matches_seed_under_ablations() {
    let tables = hard_corpus(0xAB1A, 8);
    for (header, lookup, embedding) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (false, true, true),
    ] {
        let mut typer = SigmaTyper::builder(global()).build();
        typer.config_mut().enable_header = header;
        typer.config_mut().enable_lookup = lookup;
        typer.config_mut().enable_embedding = embedding;
        for table in &tables {
            assert_golden(&typer, table);
        }
    }
}

#[test]
fn adapted_customer_is_bit_identical_to_seed_pipeline() {
    // Drive the full adaptation loop so the equivalence covers local
    // LFs, the finetuned model blend, and the Wl/Wg weights.
    let mut typer = SigmaTyper::builder(global()).build();
    let o = typer.ontology().clone();
    let phone = builtin_id(&o, "phone number");
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
    assert!(
        typer.local().finetuned.is_some(),
        "adaptation must engage the local model"
    );
    assert_golden(&typer, &mk(9));
    for table in &hard_corpus(0xADA7, 12) {
        assert_golden(&typer, table);
    }
}

// ---- Step-cache equivalence ------------------------------------------
//
// The fingerprint-keyed step cache must be invisible in the output:
// cold or warm, fresh or adapted, every cached annotation is required
// to be bit-identical to the uncached cascade — which the tests above
// already prove bit-identical to the seed pipeline.

#[test]
fn warm_cache_annotation_is_bit_identical_to_uncached() {
    let typer = SigmaTyper::builder(global()).build();
    let cached = with_cache(&typer);
    let tables = hard_corpus(0x9CAC4E, 20);

    // Cold crawl: populate, and already match the uncached path.
    for table in &tables {
        assert_same_annotation(&typer.annotate(table), &cached.annotate(table));
    }
    // Warm recrawl of the same corpus: still bit-identical to both the
    // uncached cascade AND the literal seed transcription, with every
    // previously executed *cacheable* column served from cache — the
    // header step opted out of memoization (cache admission), so it
    // re-runs its frontier instead.
    let mut warm_hits = 0usize;
    let mut warm_runs = 0usize;
    for table in &tables {
        assert_golden(&cached, table);
        let warm = cached.annotate(table);
        assert_same_annotation(&typer.annotate(table), &warm);
        warm_hits += warm.timings.iter().map(|t| t.cache_hits).sum::<usize>();
        warm_runs += warm
            .timings
            .iter()
            .filter(|t| t.step != StepId::HEADER)
            .map(|t| t.columns)
            .sum::<usize>();
    }
    assert!(warm_hits > 0, "warm recrawl must hit the cache");
    assert_eq!(warm_runs, 0, "warm recrawl must not run any cacheable step");
}

#[test]
fn warm_cache_matches_seed_under_ablations() {
    let tables = hard_corpus(0x9AB1A, 6);
    for (header, lookup, embedding) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (false, true, true),
    ] {
        let mut typer = SigmaTyper::builder(global()).cached(1 << 14).build();
        typer.config_mut().enable_header = header;
        typer.config_mut().enable_lookup = lookup;
        typer.config_mut().enable_embedding = embedding;
        for table in &tables {
            // Twice per table: the second pass is warm.
            assert_golden(&typer, table);
            assert_golden(&typer, table);
        }
    }
}

#[test]
fn adaptation_invalidates_warm_cache_entries() {
    // One cached and one uncached customer adapted in lockstep: after
    // every feedback event the cached instance must keep matching the
    // uncached one (no stale scores), and — once adapted — the seed
    // transcription of the adapted state.
    let mut cached = SigmaTyper::builder(global()).cached(1 << 15).build();
    let mut plain = SigmaTyper::builder(global()).build();
    let o = plain.ontology().clone();
    let phone = builtin_id(&o, "phone number");
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
    let tables = hard_corpus(0x9ADA7, 8);

    // Warm the cache on the pre-adaptation state.
    for table in &tables {
        let _ = cached.annotate(table);
    }
    let epoch_before = cached.cache_epoch();
    for s in 1..=3 {
        cached.feedback(&mk(s), 0, phone, None);
        plain.feedback(&mk(s), 0, phone, None);
        // After each adaptation event the two must still agree
        // everywhere — including on the tables whose pre-adaptation
        // scores are sitting in the cache.
        for table in &tables {
            assert_same_annotation(&plain.annotate(table), &cached.annotate(table));
        }
    }
    assert!(
        cached.cache_epoch() > epoch_before,
        "feedback must bump the epoch"
    );
    assert!(
        cached.local().finetuned.is_some(),
        "adaptation must engage the local model"
    );
    // The adapted, cache-carrying instance still matches the literal
    // seed transcription of its own state — warm pass included.
    assert_eq!(cached.annotate(&mk(9)).columns[0].predicted, phone);
    for table in &tables {
        assert_golden(&cached, table);
        assert_golden(&cached, table);
    }
    // And the post-adaptation state re-warms: a second crawl hits.
    let rewarm: usize = tables
        .iter()
        .map(|t| {
            cached
                .annotate(t)
                .timings
                .iter()
                .map(|x| x.cache_hits)
                .sum::<usize>()
        })
        .sum();
    assert!(rewarm > 0, "post-adaptation recrawl must hit again");
}

#[test]
fn interleaved_reads_and_feedback_match_the_uncached_replay() {
    // One cached customer reads a corpus through one cache between
    // corrections, in lockstep with an uncached one. Header entries are
    // keyed by the header's `Wg` state, not by the epoch, so they
    // outlive the epoch move of every feedback except under the header
    // it overrides: after each event every read must still match the
    // uncached replay bit for bit, and hit the header entries of every
    // header the feedback left alone.
    let o = builtin_ontology();
    let mut cfg = CorpusConfig::database_like(0x1EAF, 8);
    cfg.opaque_header_rate = 0.45;
    cfg.ood_column_rate = 0.2;
    cfg.params = tu_corpus::GenParams::shifted(0.2);
    let corpus = generate_corpus(&o, &cfg);
    let mut cached = SigmaTyper::builder(global()).cached(1 << 15).build();
    let mut plain = SigmaTyper::builder(global()).build();
    // Header cache hits of one read of the whole corpus.
    let read_all = |cached: &SigmaTyper, plain: &SigmaTyper| -> usize {
        let mut hits = 0;
        for at in &corpus.tables {
            let got = cached.annotate(&at.table);
            assert_same_annotation(&plain.annotate(&at.table), &got);
            hits += got
                .timings
                .iter()
                .filter(|t| t.step == StepId::HEADER)
                .map(|t| t.cache_hits)
                .sum::<usize>();
        }
        hits
    };
    let normalized: Vec<String> = corpus
        .tables
        .iter()
        .flat_map(|at| at.table.headers())
        .map(tu_text::normalize_header)
        .collect();
    let _ = read_all(&cached, &plain);

    // Even events confirm a prediction; odd events relabel a column
    // predicted under an informative header to another type, which
    // overrides that prediction and changes `Wg` under its header.
    let (age, city) = (builtin_id(&o, "age"), builtin_id(&o, "city"));
    let (mut overrides, mut confirmations) = (0, 0);
    for event in 0..10 {
        let at = &corpus.tables[event % corpus.tables.len()];
        let predicted = plain.annotate(&at.table);
        let n = at.table.n_cols();
        let Some(col) = (0..n).map(|k| (event + k) % n).find(|&c| {
            let header = tu_text::normalize_header(at.table.headers()[c]);
            !predicted.columns[c].predicted.is_unknown()
                && !tu_dp::infer::is_generic_header(&header)
        }) else {
            continue;
        };
        let header = tu_text::normalize_header(at.table.headers()[col]);
        let previous = predicted.columns[col].predicted;
        let ty = match event % 2 {
            0 => previous,
            _ if previous == age => city,
            _ => age,
        };
        let wg = plain.local().wg(previous, &header);
        cached.feedback(&at.table, col, ty, None);
        plain.feedback(&at.table, col, ty, None);
        let hits = read_all(&cached, &plain);
        if ty != previous {
            // Every column under another header hits the entry the
            // previous read wrote; the overridden header misses at
            // least once, since nothing was written under its new
            // state.
            assert!(plain.local().wg(previous, &header) < wg, "event {event}");
            overrides += 1;
            let kept = normalized.iter().filter(|h| **h != header).count();
            assert!(
                (kept..normalized.len()).contains(&hits),
                "event {event}: {hits} header hits, {kept} headers kept"
            );
        } else {
            confirmations += 1;
            assert_eq!(hits, normalized.len(), "event {event}: a confirmation");
        }
    }
    assert!(
        overrides > 0 && confirmations > 0,
        "the replay must both override and confirm: {overrides} and {confirmations}"
    );
}

// ---- Column-parallel equivalence ---------------------------------------
//
// The CascadeExecutor may chunk a step's pending-column frontier across
// scoped threads. Steps are deterministic and read-only and results are
// rejoined by column index, so the parallel path is required to be
// bit-identical to sequential execution — which the tests above prove
// bit-identical to the literal seed transcription. These tests close
// the triangle for fresh, ablated, and adaptation-heavy customers,
// with and without the step cache.

/// A clone of `typer` on a column-thread budget of `threads` (1 is
/// the sequential baseline: it never splits a frontier).
fn with_strategy(typer: &SigmaTyper, threads: usize) -> SigmaTyper {
    let mut t = typer.clone();
    t.config_mut().column_threads = threads;
    t
}

/// The column-thread budgets exercised against the sequential
/// baseline: a frontier of at least `MIN_PARALLEL_COLUMNS` columns
/// splits into one chunk per thread.
fn parallel_strategies() -> [usize; 3] {
    [4, 2, 3]
}

/// Hard-corpus tables joined four side by side (cut to the shortest's
/// rows, clashing headers suffixed): wide enough that the frontiers
/// the header step leaves behind still reach `MIN_PARALLEL_COLUMNS`.
fn wide_hard_corpus(seed: u64, tables: usize) -> Vec<Table> {
    hard_corpus(seed, 4 * tables)
        .chunks(4)
        .enumerate()
        .map(|(i, group)| {
            let rows = group.iter().map(Table::n_rows).min().unwrap_or(0);
            let mut columns: Vec<Column> = Vec::new();
            for (k, table) in group.iter().enumerate() {
                for column in table.columns() {
                    let mut name = column.name.clone();
                    while columns.iter().any(|c| c.name == name) {
                        name = format!("{name}_{k}");
                    }
                    columns.push(Column::new(name, column.values[..rows].to_vec()));
                }
            }
            Table::new(format!("wide_{i}"), columns).expect("rectangular, unique headers")
        })
        .collect()
}

/// Whether a step past the header step split its frontier.
fn split_past_header(ann: &TableAnnotation) -> bool {
    ann.timings
        .iter()
        .any(|t| t.step != StepId::HEADER && t.chunks >= 2)
}

#[test]
fn column_parallel_execution_is_bit_identical_to_sequential() {
    let typer = SigmaTyper::builder(global()).build();
    let sequential = with_strategy(&typer, 1);
    let tables = wide_hard_corpus(0x9A11E1, 5);
    for threads in parallel_strategies() {
        let parallel = with_strategy(&typer, threads);
        let mut saw_chunked_step = false;
        for table in &tables {
            let ann = parallel.annotate(table);
            assert_same_annotation(&sequential.annotate(table), &ann);
            // The parallel path must still match the literal seed
            // transcription, not just the sequential executor.
            assert_golden(&parallel, table);
            saw_chunked_step |= split_past_header(&ann);
        }
        assert!(
            saw_chunked_step,
            "{threads} threads never split a lookup or embedding frontier — \
             the equivalence above proved nothing about the parallel path"
        );
    }
}

#[test]
fn column_parallel_execution_matches_sequential_under_ablations() {
    let tables = wide_hard_corpus(0x9A11E2, 2);
    let mut saw_chunked_step = false;
    for (header, lookup, embedding) in [(true, false, false), (false, true, true)] {
        let mut typer = SigmaTyper::builder(global()).build();
        typer.config_mut().enable_header = header;
        typer.config_mut().enable_lookup = lookup;
        typer.config_mut().enable_embedding = embedding;
        let sequential = with_strategy(&typer, 1);
        for threads in parallel_strategies() {
            let parallel = with_strategy(&typer, threads);
            for table in &tables {
                let ann = parallel.annotate(table);
                assert_same_annotation(&sequential.annotate(table), &ann);
                saw_chunked_step |= split_past_header(&ann);
            }
        }
    }
    assert!(saw_chunked_step, "no lookup or embedding frontier split");
}

#[test]
fn column_parallel_execution_matches_sequential_for_adapted_customer() {
    // Adaptation engages the local LFs, the finetuned-model blend, and
    // the Wl/Wg weights — the batch override of the embedding step has
    // a dedicated code path for the blend, so this is the test that
    // holds it to the bit-identity contract under threading.
    let mut typer = SigmaTyper::builder(global()).build();
    let o = typer.ontology().clone();
    let phone = builtin_id(&o, "phone number");
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
    let sequential = with_strategy(&typer, 1);
    let tables = wide_hard_corpus(0x9A11E3, 3);
    let mut saw_chunked_step = false;
    for threads in parallel_strategies() {
        let parallel = with_strategy(&typer, threads);
        for table in &tables {
            let ann = parallel.annotate(table);
            assert_same_annotation(&sequential.annotate(table), &ann);
            assert_golden(&parallel, table);
            saw_chunked_step |= split_past_header(&ann);
        }
    }
    assert!(saw_chunked_step, "no lookup or embedding frontier split");
}

#[test]
fn column_parallel_execution_matches_sequential_with_warm_cache() {
    // Parallel workers share the step cache: a cold parallel crawl
    // populates it, the warm recrawl serves from it, and both stay
    // bit-identical to the uncached sequential baseline. The cache is
    // per-instance here so each strategy warms its own.
    let typer = SigmaTyper::builder(global()).build();
    let sequential = with_strategy(&typer, 1);
    let tables = wide_hard_corpus(0x9A11E4, 3);
    for threads in parallel_strategies() {
        let parallel_cached = with_cache(&with_strategy(&typer, threads));
        let mut saw_chunked_step = false;
        for table in &tables {
            let cold = parallel_cached.annotate(table);
            assert_same_annotation(&sequential.annotate(table), &cold);
            saw_chunked_step |= split_past_header(&cold);
        }
        assert!(saw_chunked_step, "no lookup or embedding frontier split");
        let mut warm_hits = 0usize;
        for table in &tables {
            let warm = parallel_cached.annotate(table);
            assert_same_annotation(&sequential.annotate(table), &warm);
            warm_hits += warm.timings.iter().map(|t| t.cache_hits).sum::<usize>();
            let warm_cacheable_runs: usize = warm
                .timings
                .iter()
                .filter(|t| t.step != StepId::HEADER)
                .map(|t| t.columns)
                .sum();
            assert_eq!(warm_cacheable_runs, 0, "warm parallel recrawl must hit");
        }
        assert!(warm_hits > 0);
    }
}

// ---- Budgeted-request equivalence ---------------------------------------
//
// `annotate(&Table)` is specified as a thin wrapper over a default
// `AnnotationRequest` (`Strict`, unbounded): the request path must be
// bit-identical to it — which the tests above prove bit-identical to
// the literal seed transcription — for fresh, ablated, and
// adaptation-heavy customers, cached and uncached, sequential and
// column-parallel. `tests/budgeted_annotation.rs` covers budgeted requests.

/// One assertion: the default request's annotation is bit-identical to
/// `annotate`, its report clean, and — through `assert_golden` — the
/// seed transcription still matches.
fn assert_request_golden(typer: &SigmaTyper, table: &Table) {
    let outcome = typer.annotate_request(&AnnotationRequest::new(table));
    assert!(!outcome.degraded(), "default requests must never degrade");
    assert!(outcome.degradation.skipped.is_empty());
    assert_same_annotation(&typer.annotate(table), &outcome.annotation);
    assert_golden(typer, table);
}

#[test]
fn default_request_is_bit_identical_for_fresh_customers() {
    let typer = SigmaTyper::builder(global()).build();
    for table in &hard_corpus(0xB1D6E7, 15) {
        assert_request_golden(&typer, table);
    }
}

#[test]
fn default_request_is_bit_identical_under_ablations() {
    let tables = hard_corpus(0xB1D6E8, 5);
    for (header, lookup, embedding) in [(true, false, false), (false, true, true)] {
        let mut typer = SigmaTyper::builder(global()).build();
        typer.config_mut().enable_header = header;
        typer.config_mut().enable_lookup = lookup;
        typer.config_mut().enable_embedding = embedding;
        for table in &tables {
            assert_request_golden(&typer, table);
        }
    }
}

#[test]
fn default_request_is_bit_identical_for_adapted_customers() {
    let mut typer = SigmaTyper::builder(global()).build();
    let o = typer.ontology().clone();
    let phone = builtin_id(&o, "phone number");
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
    for table in &hard_corpus(0xB1D6E9, 8) {
        assert_request_golden(&typer, table);
    }
}

#[test]
fn default_request_is_bit_identical_cached_and_parallel() {
    let typer = SigmaTyper::builder(global()).build();
    let tables = wide_hard_corpus(0xB1D6EA, 2);
    let mut saw_chunked_step = false;
    for threads in parallel_strategies() {
        let parallel = with_strategy(&typer, threads);
        let cached = with_cache(&parallel);
        for table in &tables {
            // Uncached parallel, cold cache, warm cache: all three
            // request paths match their `annotate` twin bit for bit.
            assert_request_golden(&parallel, table);
            assert_request_golden(&cached, table); // cold
            assert_request_golden(&cached, table); // warm
            saw_chunked_step |= split_past_header(&parallel.annotate(table));
        }
    }
    assert!(saw_chunked_step, "no lookup or embedding frontier split");
}

// ---- Degradation acceptance ---------------------------------------------

/// Under `DropTailSteps` with an exhausted (zero) budget the report
/// lists exactly the configured steps, in cascade order, and every
/// column abstains — degradation removes votes, never invents them.
#[test]
fn exhausted_drop_tail_reports_exactly_the_skipped_steps_and_abstains() {
    let typer = SigmaTyper::builder(global()).build();
    for table in hard_corpus(0xDE6BAD, 6) {
        if table.n_cols() == 0 {
            continue;
        }
        let outcome = typer.annotate_request(
            &AnnotationRequest::new(&table)
                .with_budget_nanos(0)
                .with_policy(DegradationPolicy::DropTailSteps),
        );
        assert_eq!(
            outcome
                .degradation
                .skipped
                .iter()
                .map(|s| s.step)
                .collect::<Vec<_>>(),
            typer.cascade().step_ids(),
            "the report must list exactly the dropped steps, in order"
        );
        assert!(outcome
            .degradation
            .skipped
            .iter()
            .all(|s| s.reason == SkipReason::BudgetExhausted
                && s.ran == 0
                && s.pending == table.n_cols()));
        for col in &outcome.annotation.columns {
            assert!(col.abstained(), "a defunded column must abstain");
            assert!(col.steps_run.is_empty());
            assert!(col.top_k.is_empty(), "no fabricated candidates");
        }
        // The timing schema survives: one record per configured step.
        assert_eq!(outcome.annotation.timings.len(), typer.cascade().len());
    }
}

// ---- Cost-aware ordering acceptance -------------------------------------

/// `Cascade::reorder_by_cost` over a synthetic cost model must change
/// the execution order (visible in the `StepTiming` sequence) without
/// changing any prediction on early-exit-free tables — columns where
/// no step clears the cascade threshold see every step run in *some*
/// order, and the soft majority vote is order-independent in its
/// decisions.
#[test]
fn reorder_by_cost_changes_execution_order_not_predictions() {
    let typer = SigmaTyper::builder(global()).build();
    // Single-column gibberish tables: no neighbor context to shift,
    // and (asserted below) no step resolves, so there is no early
    // exit for the order to interact with.
    let tables: Vec<Table> = (0..6)
        .map(|i| {
            let vals: Vec<String> = (0..8)
                .map(|r| format!("zq{}w {}kx", (i * 13 + r * 7) % 89, (r * 31 + i) % 97))
                .collect();
            Table::new(
                format!("gibberish_{i}"),
                vec![Column::from_raw(format!("xq{i}_zz"), &vals)],
            )
            .unwrap()
        })
        .collect();
    let threshold = typer.config().cascade_threshold;
    let baseline: Vec<TableAnnotation> = tables.iter().map(|t| typer.annotate(t)).collect();
    for ann in &baseline {
        assert_eq!(
            ann.timings.iter().map(|t| t.step).collect::<Vec<_>>(),
            vec![Step::Header, Step::Lookup, Step::Embedding],
            "baseline executes the standard order"
        );
        for col in &ann.columns {
            assert_eq!(
                col.resolving_step(threshold),
                None,
                "test tables must be early-exit-free"
            );
            assert_eq!(col.steps_run.len(), 3, "all steps must have run");
        }
    }

    // A synthetic model claiming the embedding step is by far the
    // best value and lookup the worst.
    let cost = CostModel::new();
    cost.set(Step::Header, 5_000.0, 0.2);
    cost.set(Step::Lookup, 50_000.0, 0.1);
    cost.set(Step::Embedding, 1_000.0, 0.9);
    let mut reordered = typer.clone();
    assert!(reordered.cascade_mut().reorder_by_cost(&cost));
    assert_eq!(
        reordered.cascade().step_ids(),
        vec![Step::Embedding, Step::Header, Step::Lookup]
    );

    for (table, base) in tables.iter().zip(&baseline) {
        let ann = reordered.annotate(table);
        // Execution order change is visible in the telemetry...
        assert_eq!(
            ann.timings.iter().map(|t| t.step).collect::<Vec<_>>(),
            vec![Step::Embedding, Step::Header, Step::Lookup]
        );
        assert_eq!(
            ann.columns[0].steps_run,
            vec![Step::Embedding, Step::Header, Step::Lookup]
        );
        // ... and every decision is unchanged. (Predictions and
        // abstentions must match exactly; confidences may differ in
        // the last ulp because float summation order changed.)
        for (got, want) in ann.columns.iter().zip(&base.columns) {
            assert_eq!(got.predicted, want.predicted, "prediction changed");
            assert_eq!(got.abstained(), want.abstained());
            assert_eq!(
                got.top_k.iter().map(|c| c.ty).collect::<Vec<_>>(),
                want.top_k.iter().map(|c| c.ty).collect::<Vec<_>>(),
                "candidate ranking changed"
            );
            assert!((got.confidence - want.confidence).abs() < 1e-9);
        }
    }
}

// ---- Degenerate tables through the executor ----------------------------

/// Every execution strategy, sequential included, over one table.
fn all_strategy_annotations(typer: &SigmaTyper, table: &Table) -> Vec<TableAnnotation> {
    let mut anns = vec![with_strategy(typer, 1).annotate(table)];
    for threads in parallel_strategies() {
        anns.push(with_strategy(typer, threads).annotate(table));
        anns.push(with_cache(&with_strategy(typer, threads)).annotate(table));
    }
    anns
}

#[test]
fn degenerate_zero_column_table() {
    let typer = SigmaTyper::builder(global()).build();
    let table = Table::new("empty", vec![]).expect("zero-column tables are valid");
    for ann in all_strategy_annotations(&typer, &table) {
        assert!(ann.columns.is_empty());
        // Telemetry keeps its stable one-record-per-step schema even
        // with nothing to do: empty frontiers, zero chunks.
        assert_eq!(ann.timings.len(), typer.cascade().len());
        assert!(ann
            .timings
            .iter()
            .all(|t| t.columns == 0 && t.chunks == 0 && t.parallel_nanos == 0));
    }
}

#[test]
fn degenerate_single_column_table() {
    let typer = SigmaTyper::builder(global()).build();
    let o = typer.ontology().clone();
    // Opaque header so the single column walks the whole cascade.
    let table = Table::new(
        "t",
        vec![Column::from_raw(
            "c_17",
            &["ada@x.com", "bob@y.org", "eve@z.net"],
        )],
    )
    .unwrap();
    let baseline = with_strategy(&typer, 1).annotate(&table);
    assert_eq!(baseline.columns[0].predicted, builtin_id(&o, "email"));
    for ann in all_strategy_annotations(&typer, &table) {
        assert_same_annotation(&baseline, &ann);
        // A one-column frontier can never be split.
        assert!(ann.timings.iter().all(|t| t.chunks <= 1));
    }
}

#[test]
fn degenerate_everything_resolves_at_step_one() {
    let typer = SigmaTyper::builder(global()).build();
    // Exact-alias headers: the header step resolves every column at
    // confidence 1.0, so the frontier of every later step is empty.
    let table = Table::new(
        "t",
        vec![
            Column::from_raw("Income", &["50000", "60000"]),
            Column::from_raw("Cities", &["Oslo", "Lima"]),
            Column::from_raw("Company", &["Adyen", "Sigma"]),
        ],
    )
    .unwrap();
    let baseline = with_strategy(&typer, 1).annotate(&table);
    for col in &baseline.columns {
        assert_eq!(
            col.steps_run,
            vec![Step::Header],
            "column must resolve at the header step"
        );
    }
    for ann in all_strategy_annotations(&typer, &table) {
        assert_same_annotation(&baseline, &ann);
        for t in &ann.timings {
            if t.step == StepId::HEADER {
                assert_eq!(t.columns, 3);
            } else {
                // The frontier emptied immediately: nothing ran, no
                // chunks were planned, no threads were spawned.
                assert_eq!((t.columns, t.chunks, t.parallel_nanos), (0, 0, 0));
            }
        }
    }
}
