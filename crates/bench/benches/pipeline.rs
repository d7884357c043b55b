//! Pipeline-step latency benches (the paper's §4.3 ordering claim:
//! header < lookup < embedding per-column cost) and end-to-end
//! annotation throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sigmatyper::{
    AnnotationRequest, AnnotationService, AnnotationStep, DegradationPolicy, DurableEpochSource,
    EmbeddingStep, LookupStep, RequestOptions, ShardedLruCache, SigmaTyper, StepContext,
    TieredStepCache,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tu_bench::BenchFixture;
use tu_table::{Column, Table};

/// Detected core count (1 when unknown).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Best-of-3 wall clock of `f` — enough repetition to dodge a single
/// scheduler hiccup without turning an acceptance check into a
/// full benchmark.
fn best_of_3(mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("three samples")
}

fn bench_steps(c: &mut Criterion) {
    let f = BenchFixture::new();
    let typer = f.customer();
    let at = &f.corpus.tables[0];
    let col = at.table.column(0).expect("column");
    let headers = at.table.headers();
    let neighbors: Vec<&str> = headers.iter().skip(1).copied().collect();
    let cfg = typer.config();

    c.bench_function("pipeline/step1_header_match", |b| {
        b.iter(|| {
            f.lab
                .global
                .header
                .match_header(black_box(headers[0]), &f.lab.global.embedder, cfg)
        })
    });
    let normalized = tu_text::normalize_header(headers[0]);
    c.bench_function("pipeline/step2_value_lookup", |b| {
        b.iter(|| {
            f.lab.global.lookup.lookup(
                black_box(col),
                &normalized,
                &[],
                &[&f.lab.global.global_lfs],
                cfg,
            )
        })
    });
    c.bench_function("pipeline/step3_embedding_predict", |b| {
        b.iter(|| f.lab.global.embedding.predict(black_box(col), &neighbors))
    });

    // Every column of the fixture corpus featurized with its neighbor
    // headers: the work start-up training does per column.
    let model = &f.lab.global.embedding;
    let corpus_columns: Vec<(&Column, Vec<&str>)> = f
        .corpus
        .tables
        .iter()
        .flat_map(|at| {
            let headers = at.table.headers();
            at.table.columns().iter().enumerate().map(move |(ci, col)| {
                let neighbors = headers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, h)| *h)
                    .collect();
                (col, neighbors)
            })
        })
        .collect();
    c.bench_function("pipeline/featurize_corpus", |b| {
        b.iter(|| {
            for (col, neighbors) in &corpus_columns {
                black_box(model.featurize(black_box(col), neighbors));
            }
        })
    });
}

fn bench_annotate(c: &mut Criterion) {
    let f = BenchFixture::new();
    let typer = f.customer();
    let table = &f.corpus.tables[0].table;
    c.bench_function("pipeline/annotate_table", |b| {
        b.iter(|| typer.annotate(black_box(table)))
    });
    let mut group = c.benchmark_group("pipeline/annotate_corpus");
    group.sample_size(20);
    group.bench_function("12_tables", |b| {
        b.iter(|| {
            for at in &f.corpus.tables {
                black_box(typer.annotate(&at.table));
            }
        })
    });
    group.finish();
}

/// The serving front-end: one customer annotating a large batch,
/// sequential vs. scheduled across worker threads. The scheduled path
/// must scale — the acceptance bar is ≥ 2x throughput at 4 threads,
/// asserted below whenever the hardware can express it
/// (`available_parallelism() >= 4`) and reported as skipped otherwise,
/// so single-core runners no longer fail the bar silently.
fn bench_batch_service(c: &mut Criterion) {
    let f = BenchFixture::new();
    let service = AnnotationService::for_customer(f.customer());
    let mut tables: Vec<Table> = Vec::new();
    for _ in 0..8 {
        tables.extend(f.corpus.tables.iter().map(|at| at.table.clone()));
    }
    let sequential = service.clone().with_threads(1);

    // Acceptance: ≥ 2x at 4 threads, gated on the hardware.
    if cores() >= 4 {
        let four = service.clone().with_threads(4);
        let seq_time = best_of_3(|| {
            black_box(sequential.annotate_batch(black_box(&tables)));
        });
        let par_time = best_of_3(|| {
            black_box(four.annotate_batch(black_box(&tables)));
        });
        let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9);
        println!(
            "pipeline/batch_annotate  4-thread speedup: {speedup:.2}x \
             (sequential {seq_time:?}, 4 threads {par_time:?})"
        );
        assert!(
            speedup >= 2.0,
            "batch service must reach ≥ 2x at 4 threads on ≥ 4 cores, got {speedup:.2}x"
        );
    } else {
        println!(
            "pipeline/batch_annotate  skipping ≥2x-at-4-threads assertion: \
             only {} core(s) available",
            cores()
        );
    }

    let mut group = c.benchmark_group("pipeline/batch_annotate");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(&sequential).annotate_batch(black_box(&tables)))
    });
    for threads in [2usize, 4, 8] {
        let sharded = service.clone().with_threads(threads);
        group.bench_with_input(BenchmarkId::new("sharded", threads), &threads, |b, _| {
            b.iter(|| black_box(&sharded).annotate_batch(black_box(&tables)))
        });
    }
    group.finish();
}

/// Intra-table column parallelism on one wide table (the
/// [`CascadeExecutor`] frontier chunking), a 1-thread budget (the
/// sequential baseline) vs larger per-table budgets. Before timing,
/// the bit-identity and chunking checks run once; the speedup
/// assertion is gated on multi-core hardware.
///
/// [`CascadeExecutor`]: sigmatyper::CascadeExecutor
fn bench_parallel_table(c: &mut Criterion) {
    let f = BenchFixture::new();
    // A wide table of opaque-headed free-text columns: the header step
    // resolves nothing, so the expensive tail steps see the full
    // 32-column frontier.
    let columns: Vec<Column> = (0..32)
        .map(|i| {
            let vals: Vec<String> = (0..48)
                .map(|r| format!("tok{} item{}", (i * 7 + r) % 13, (r * 31 + i) % 97))
                .collect();
            Column::from_raw(format!("xq_{i}"), &vals)
        })
        .collect();
    let wide = Table::new("wide", columns).expect("valid table");
    let budget = |threads: usize| -> SigmaTyper {
        let mut t = f.customer();
        t.config_mut().column_threads = threads;
        t
    };
    // A budget of one never splits a frontier: the sequential baseline.
    let sequential = budget(1);

    // Correctness evidence, checked once before any timing.
    let baseline = sequential.annotate(&wide);
    assert!(
        baseline.timings.iter().all(|t| t.chunks <= 1),
        "budget 1 chunked"
    );
    for threads in [2usize, 4] {
        let ann = budget(threads).annotate(&wide);
        assert_eq!(ann.columns.len(), baseline.columns.len());
        for (a, b) in ann.columns.iter().zip(&baseline.columns) {
            assert_eq!(a.predicted, b.predicted, "parallel prediction diverged");
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.steps_run, b.steps_run);
        }
        assert!(
            ann.timings.iter().any(|t| t.chunks >= 2),
            "budget {threads} never chunked a 32-column frontier"
        );
    }
    // Speedup assertion only where the hardware can express one.
    if cores() >= 4 {
        let seq_time = best_of_3(|| {
            black_box(sequential.annotate(black_box(&wide)));
        });
        let par_time = best_of_3(|| {
            black_box(budget(4).annotate(black_box(&wide)));
        });
        let speedup = seq_time.as_secs_f64() / par_time.as_secs_f64().max(1e-9);
        println!("pipeline/parallel_table  4-thread speedup: {speedup:.2}x");
        assert!(
            speedup >= 1.3,
            "column parallelism must speed up a 32-column table on ≥ 4 cores, got {speedup:.2}x"
        );
    } else {
        println!(
            "pipeline/parallel_table  skipping speedup assertion: only {} core(s) available",
            cores()
        );
    }

    let mut group = c.benchmark_group("pipeline/parallel_table");
    group.sample_size(20);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(&sequential).annotate(black_box(&wide)))
    });
    for threads in [2usize, 4, 8] {
        let typer = budget(threads);
        group.bench_with_input(BenchmarkId::new("columns", threads), &threads, |b, _| {
            b.iter(|| black_box(&typer).annotate(black_box(&wide)))
        });
    }
    group.finish();
}

/// Repeat crawls with the fingerprint-keyed step cache: a cold first
/// crawl (fresh cache, every step runs and inserts) vs. a warm second
/// pass over the same corpus (every step served from cache), with the
/// uncached path as the baseline. Before timing, one cold+warm pair is
/// checked explicitly: the warm pass must hit the cache and must not
/// run a single step (`columns` drops to 0) — so this bench doubles as
/// a smoke-level acceptance check when CI executes it.
///
/// `after_feedback` times the first crawl after an epoch move: a warm
/// customer takes one correction that overrides a global prediction,
/// and each iteration calls `invalidate_cache` before crawling, so the
/// lookup and embedding steps miss every entry and run only their local
/// combines on the global halves the earlier crawls stored, while the
/// header step reads the entries of every header whose `Wg` state the
/// correction left alone. Before timing, the first post-feedback crawl
/// is checked against an uncached customer given the same correction:
/// its header step must have run only under the corrected header, and
/// its split steps must have found stored global halves.
fn bench_cached_recrawl(c: &mut Criterion) {
    let f = BenchFixture::new();
    let tables: Vec<Table> = f.corpus.tables.iter().map(|at| at.table.clone()).collect();
    let uncached = f.customer();
    let fresh_cached = || {
        let mut t = f.customer();
        t.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 16))));
        t
    };

    // Correctness evidence, printed once alongside the timings.
    let warm_typer = fresh_cached();
    let cold_counts = crawl_counts(&warm_typer, &tables);
    let warm_counts = crawl_counts(&warm_typer, &tables);
    println!("pipeline/cached_recrawl  step (cold run/insert -> warm run/hit):");
    for (cold, warm) in cold_counts.iter().zip(&warm_counts) {
        println!(
            "  {:<12} cold: {:>4} run {:>4} insert | warm: {:>4} run {:>4} hit",
            cold.0, cold.1, cold.3, warm.1, warm.2
        );
    }
    let total_cold_runs: usize = cold_counts.iter().map(|c| c.1).sum();
    let total_warm_runs: usize = warm_counts.iter().map(|c| c.1).sum();
    let total_warm_hits: usize = warm_counts.iter().map(|c| c.2).sum();
    assert!(total_cold_runs > 0, "cold pass must execute steps");
    assert!(total_warm_hits > 0, "warm pass must hit the cache");
    assert_eq!(total_warm_runs, 0, "warm pass must run no step");
    let cache = warm_typer.step_cache().expect("cache configured");
    println!(
        "  cache: {} entries after recrawl (hits counted above)",
        cache.len()
    );

    let mut group = c.benchmark_group("pipeline/cached_recrawl");
    group.sample_size(20);
    group.bench_function("uncached", |b| {
        b.iter(|| {
            for table in &tables {
                black_box(uncached.annotate(black_box(table)));
            }
        })
    });
    group.bench_function("cold_first_crawl", |b| {
        b.iter(|| {
            // Fresh cache per iteration: first-crawl cost including
            // fingerprinting and inserts.
            let typer = fresh_cached();
            for table in &tables {
                black_box(typer.annotate(black_box(table)));
            }
        })
    });
    group.bench_function("warm_recrawl", |b| {
        b.iter(|| {
            for table in &tables {
                black_box(warm_typer.annotate(black_box(table)));
            }
        })
    });

    let mut adapted = fresh_cached();
    let mut adapted_uncached = f.customer();
    for table in &tables {
        let _ = adapted.annotate(table);
    }
    // Relabel the first column predicted under an informative header
    // to another type: the correction overrides that prediction.
    let (table, col, previous) = tables
        .iter()
        .find_map(|table| {
            let ann = uncached.annotate(table);
            (0..table.n_cols())
                .find(|&ci| {
                    let header = tu_text::normalize_header(table.headers()[ci]);
                    !ann.columns[ci].predicted.is_unknown()
                        && !tu_dp::infer::is_generic_header(&header)
                })
                .map(|ci| (table, ci, ann.columns[ci].predicted))
        })
        .expect("a column predicted under an informative header");
    let age = tu_ontology::builtin_id(adapted.ontology(), "age");
    let ty = if previous == age {
        tu_ontology::builtin_id(adapted.ontology(), "city")
    } else {
        age
    };
    adapted.feedback(table, col, ty, None);
    adapted_uncached.feedback(table, col, ty, None);
    let corrected = tu_text::normalize_header(table.headers()[col]);
    let (mut header_runs, mut global_hits) = (0usize, 0usize);
    for table in &tables {
        let got = adapted.annotate(table);
        let want = adapted_uncached.annotate(table);
        for (g, w) in got.columns.iter().zip(&want.columns) {
            assert_eq!(g.predicted, w.predicted, "post-feedback crawl diverged");
            assert_eq!(g.confidence.to_bits(), w.confidence.to_bits());
            assert_eq!(g.top_k, w.top_k);
            assert_eq!(g.steps_run, w.steps_run);
            assert_eq!(g.step_scores, w.step_scores);
        }
        let ran = got
            .timings
            .iter()
            .find(|t| t.step == sigmatyper::StepId::HEADER)
            .map_or(0, |t| t.columns);
        let under_corrected = table
            .headers()
            .iter()
            .filter(|h| tu_text::normalize_header(h) == corrected)
            .count();
        assert!(
            ran <= under_corrected,
            "the header step ran outside the corrected header"
        );
        header_runs += ran;
        global_hits += got.timings.iter().map(|t| t.global_hits).sum::<usize>();
    }
    assert!(header_runs > 0, "the corrected header was matched again");
    assert!(
        global_hits > 0,
        "the split steps reused stored global halves"
    );
    println!(
        "  after_feedback: header step re-ran on {header_runs} column(s), all under {corrected:?}; \
         {global_hits} lookup/embedding column(s) ran only their combine"
    );
    group.bench_function("after_feedback", |b| {
        b.iter(|| {
            adapted.invalidate_cache();
            for table in &tables {
                black_box(adapted.annotate(black_box(table)));
            }
        })
    });
    group.finish();
}

/// Recrawls against the persistent tier: a cold crawl (empty cache,
/// every step runs and is appended to disk) vs. a warm in-memory
/// recrawl (L1 LRU hit) vs. a **disk-warm restart** — a fresh
/// `SigmaTyper` per iteration, L1 empty, reopening the segment and
/// serving every step from L2. Before timing, the restart contract is
/// checked once: the fresh instance must run zero steps.
fn bench_persistent_recrawl(c: &mut Criterion) {
    let f = BenchFixture::new();
    let tables: Vec<Table> = f.corpus.tables.iter().map(|at| at.table.clone()).collect();
    let dir = std::env::temp_dir().join(format!("sigmatyper-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let open_typer = || {
        let source = DurableEpochSource::open(dir.join("epoch")).expect("open epoch file");
        let cache = TieredStepCache::open(dir.join("cache"), 1 << 16).expect("open disk tier");
        SigmaTyper::builder(Arc::clone(&f.lab.global))
            .step_cache(Arc::new(cache))
            .epoch_source(Arc::new(source))
            .build()
    };

    // Populate the segment once, then check the restart contract: a
    // fresh instance (empty L1) recrawls without running a single
    // step.
    {
        let typer = open_typer();
        for table in &tables {
            let _ = typer.annotate(table);
        }
        typer.step_cache().expect("cache").flush().expect("flush");
    }
    let fresh = open_typer();
    let counts = crawl_counts(&fresh, &tables);
    let runs: usize = counts.iter().map(|c| c.1).sum();
    let hits: usize = counts.iter().map(|c| c.2).sum();
    assert_eq!(runs, 0, "disk-warm restart must run zero steps");
    assert!(hits > 0, "disk-warm restart must hit the persistent tier");
    // The disk tier holds a single-writer advisory lock; release it
    // before the benches below reopen the directory.
    drop(fresh);

    let mut group = c.benchmark_group("pipeline/persistent_recrawl");
    group.sample_size(20);
    group.bench_function("cold_first_crawl", |b| {
        b.iter(|| {
            // Clearing truncates the segment to its header: each
            // iteration pays fingerprinting, execution, and appends.
            let typer = open_typer();
            typer.step_cache().expect("cache").clear();
            for table in &tables {
                black_box(typer.annotate(black_box(table)));
            }
        })
    });
    // Rebuild the segment once more (the cold bench left it populated
    // from its last iteration, but make the state explicit).
    {
        let typer = open_typer();
        for table in &tables {
            let _ = typer.annotate(table);
        }
        typer.step_cache().expect("cache").flush().expect("flush");
    }
    let memory_warm = open_typer();
    for table in &tables {
        let _ = memory_warm.annotate(table); // promote everything into L1
    }
    group.bench_function("memory_warm_recrawl", |b| {
        b.iter(|| {
            for table in &tables {
                black_box(memory_warm.annotate(black_box(table)));
            }
        })
    });
    // Release the advisory lock so each restart below can reopen.
    drop(memory_warm);
    group.bench_function("disk_warm_restart", |b| {
        b.iter(|| {
            // A fresh "process": reopen the segment (index rescan
            // included — that is the real restart cost) and recrawl
            // through L2.
            let typer = open_typer();
            for table in &tables {
                black_box(typer.annotate(black_box(table)));
            }
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delta-aware recrawls (`AnnotationRequest::with_base`): a cold
/// annotate of the recrawled corpus vs. a warm incremental recrawl —
/// base crawl cached, every column grown by ~1% appended rows, a
/// permissive sensitivity letting barely-moved columns reuse the base
/// crawl's scores. Before timing, the golden contract is checked
/// once: sensitivity 0 reuses nothing and is bit-identical to full
/// recomputation, the relaxed pass actually engages the reuse path,
/// and the warm delta recrawl beats the cold annotate by ≥ 10x, each
/// side's fastest of 10 samples taken in turns.
fn bench_incremental_recrawl(c: &mut Criterion) {
    /// Alternating samples per side in the speed check.
    const RECRAWL_SAMPLES: usize = 10;

    let f = BenchFixture::new();
    // Tall, opaque-headed free-text tables: the header step resolves
    // nothing, so the expensive value-scanning tail steps carry the
    // cost — the regime where the paper's production recrawls live and
    // where skipping a re-run is worth the bookkeeping.
    let bases: Vec<Table> = (0..4)
        .map(|t| {
            let columns: Vec<Column> = (0..8)
                .map(|i| {
                    let vals: Vec<String> = (0..1500)
                        .map(|r| {
                            format!("tok{} item{}", (t * 11 + i * 7 + r) % 13, (r * 31 + i) % 97)
                        })
                        .collect();
                    Column::from_raw(format!("xq_{t}_{i}"), &vals)
                })
                .collect();
            Table::new(format!("wide_{t}"), columns).expect("valid table")
        })
        .collect();
    // The recrawl a crawler would hand back: ~1% appended rows (at
    // least one), recycling head values so the new cells look like
    // the old distribution.
    let recrawls: Vec<Table> = bases
        .iter()
        .map(|table| {
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
        })
        .collect();
    // Both sides run the ablated customer (header step off, the
    // established ablation from the golden suites): opaque headers
    // resolve nothing here, and the header step's entries are keyed by
    // header text, so the warm side would hit them while the cold side
    // pays for them — a saving that has nothing to do with the
    // delta-reuse machinery this bench isolates.
    let ablated = || {
        let mut t = f.customer();
        t.config_mut().enable_header = false;
        // Tall tables warrant scanning more evidence per column — the
        // production-leaning sample also makes the lookup step carry
        // its real share of a cold crawl's cost.
        t.config_mut().lookup_sample = 400;
        t
    };
    let uncached = ablated();
    let fresh_warm = || {
        let t = {
            let mut t = ablated();
            t.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 16))));
            t
        };
        for base in &bases {
            let _ = t.annotate(base); // the base crawl populates the cache
        }
        t
    };

    // Correctness evidence, checked once before any timing. The
    // relaxed pass goes first: reused scores are never re-inserted
    // (the taint rule), but the sensitivity-0 pass *does* insert the
    // recrawl's fresh scores — running it first would turn every
    // later delta-reuse opportunity into an exact cache hit.
    let evidence = fresh_warm();
    let mut reused = 0usize;
    for (base, new) in bases.iter().zip(&recrawls) {
        let relaxed = evidence.annotate_request(
            &AnnotationRequest::new(new)
                .with_base(base)
                .with_delta_sensitivity(0.5),
        );
        reused += relaxed.degradation.delta_reused;
        let exact = evidence.annotate_request(
            &AnnotationRequest::new(new)
                .with_base(base)
                .with_delta_sensitivity(0.0),
        );
        assert_eq!(
            exact.degradation.delta_reused, 0,
            "sensitivity 0 must not reuse base scores"
        );
        let fresh = uncached.annotate(new);
        assert_eq!(fresh.columns.len(), exact.annotation.columns.len());
        for (a, b) in fresh.columns.iter().zip(&exact.annotation.columns) {
            assert_eq!(
                a.predicted, b.predicted,
                "sensitivity-0 prediction diverged"
            );
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
            assert_eq!(a.top_k, b.top_k);
            assert_eq!(a.steps_run, b.steps_run);
            assert_eq!(a.step_scores, b.step_scores);
        }
    }
    assert!(reused > 0, "the relaxed recrawl never reused a base score");
    println!("pipeline/incremental_recrawl  {reused} step scores reused across the corpus");

    // A clean warm instance for the timings: it has only seen the
    // base crawl, so the relaxed recrawl below exercises delta reuse,
    // not exact hits left behind by the evidence pass.
    let warm = fresh_warm();

    // The two sides take turns, so a slow or fast moment of the
    // machine lands on both, and each keeps its fastest sample.
    let (mut cold_time, mut warm_time) = (Duration::MAX, Duration::MAX);
    for _ in 0..RECRAWL_SAMPLES {
        let t0 = Instant::now();
        for new in &recrawls {
            black_box(uncached.annotate(black_box(new)));
        }
        cold_time = cold_time.min(t0.elapsed());
        let t0 = Instant::now();
        for (base, new) in bases.iter().zip(&recrawls) {
            black_box(
                warm.annotate_request(
                    &AnnotationRequest::new(black_box(new))
                        .with_base(base)
                        .with_delta_sensitivity(0.5),
                ),
            );
        }
        warm_time = warm_time.min(t0.elapsed());
    }
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    println!(
        "pipeline/incremental_recrawl  min of {RECRAWL_SAMPLES}: warm delta recrawl \
         {warm_time:?} vs cold {cold_time:?} ({speedup:.1}x)"
    );
    assert!(
        speedup >= 10.0,
        "a 1%-append recrawl must run ≥ 10x faster than a cold annotate, got {speedup:.1}x \
         ({warm_time:?} vs {cold_time:?})"
    );

    let mut group = c.benchmark_group("pipeline/incremental_recrawl");
    group.sample_size(20);
    group.bench_function("cold_annotate", |b| {
        b.iter(|| {
            for new in &recrawls {
                black_box(uncached.annotate(black_box(new)));
            }
        })
    });
    group.bench_function("warm_delta_recrawl", |b| {
        b.iter(|| {
            for (base, new) in bases.iter().zip(&recrawls) {
                black_box(
                    warm.annotate_request(
                        &AnnotationRequest::new(black_box(new))
                            .with_base(base)
                            .with_delta_sensitivity(0.5),
                    ),
                );
            }
        })
    });
    group.bench_function("zero_sensitivity_recrawl", |b| {
        b.iter(|| {
            for (base, new) in bases.iter().zip(&recrawls) {
                black_box(
                    warm.annotate_request(
                        &AnnotationRequest::new(black_box(new))
                            .with_base(base)
                            .with_delta_sensitivity(0.0),
                    ),
                );
            }
        })
    });
    group.finish();
}

/// Budgeted requests: unbounded `Strict` vs a deliberately exhausted
/// `DropTailSteps` budget — the degrade-don't-queue latency floor.
/// Before timing, the acceptance contract is checked once: a zero
/// budget drops every step and abstains everywhere (never fabricates),
/// a `u64::MAX` budget degrades nothing and stays bit-identical to the
/// plain path, and the batch front-end honors one shared ledger.
fn bench_budgeted(c: &mut Criterion) {
    let f = BenchFixture::new();
    let typer = f.customer();
    // Opaque wide table: the full cascade is pending on every column,
    // so a budget actually has work to shed.
    let columns: Vec<Column> = (0..16)
        .map(|i| {
            let vals: Vec<String> = (0..32)
                .map(|r| format!("wq{} blob{}", (i * 11 + r) % 17, (r * 29 + i) % 83))
                .collect();
            Column::from_raw(format!("xq_{i}"), &vals)
        })
        .collect();
    let wide = Table::new("wide", columns).expect("valid table");

    // Acceptance: exhausted budget ⇒ everything dropped, everything
    // abstains, report complete.
    let starved = typer.annotate_request(
        &AnnotationRequest::new(&wide)
            .with_budget_nanos(0)
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    assert!(starved.degraded());
    assert_eq!(
        starved.degradation.skipped.len(),
        typer.cascade().len(),
        "zero budget must drop every configured step"
    );
    assert!(starved.annotation.columns.iter().all(|c| c.abstained()));
    // Acceptance: unbounded-in-practice budget ⇒ no degradation,
    // bit-identical decisions to the plain path.
    let unbounded = typer.annotate_request(
        &AnnotationRequest::new(&wide)
            .with_budget_nanos(u64::MAX)
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    assert!(!unbounded.degraded());
    let plain = typer.annotate(&wide);
    for (a, b) in unbounded.annotation.columns.iter().zip(&plain.columns) {
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
    // Acceptance: the batch variant shares one ledger across workers.
    let service = AnnotationService::for_customer(f.customer()).with_threads(2);
    let batch: Vec<Table> = (0..4).map(|_| wide.clone()).collect();
    let outcomes = service.annotate_batch_request(
        &batch,
        &[],
        &RequestOptions::default()
            .with_budget_nanos(0)
            .with_policy(DegradationPolicy::DropTailSteps),
    );
    assert!(outcomes
        .iter()
        .all(|o| o.annotation.columns.iter().all(|col| col.abstained())));

    let mut group = c.benchmark_group("pipeline/budgeted_annotate");
    group.sample_size(20);
    group.bench_function("strict_unbounded", |b| {
        b.iter(|| typer.annotate_request(black_box(&AnnotationRequest::new(&wide))))
    });
    // A 200 µs budget on a multi-ms table: at first the cheap head
    // runs and the tail degrades; once the (shared) cost model has
    // learned that even the head exceeds the budget, requests shed
    // predictively to the floor — the degrade-don't-queue latency
    // contract under sustained overload.
    let tight = AnnotationRequest::new(&wide)
        .with_budget_nanos(200_000)
        .with_policy(DegradationPolicy::DropTailSteps);
    group.bench_function("drop_tail_200us", |b| {
        b.iter(|| typer.annotate_request(black_box(&tight)))
    });
    let starved_request = AnnotationRequest::new(&wide)
        .with_budget_nanos(0)
        .with_policy(DegradationPolicy::DropTailSteps);
    group.bench_function("drop_tail_exhausted", |b| {
        b.iter(|| typer.annotate_request(black_box(&starved_request)))
    });
    group.finish();
}

/// A table's wire JSON (`{"name", "columns": [{"header", "values"}]}`),
/// each cell sent as its rendered string.
fn to_json(table: &Table) -> jsonshim::Json {
    use jsonshim::Json;
    let columns: Vec<Json> = table
        .columns()
        .iter()
        .map(|col| {
            let values: Vec<Json> = col.values.iter().map(|v| Json::from(v.render())).collect();
            Json::object(vec![
                ("header", Json::from(col.name.as_str())),
                ("values", Json::Arr(values)),
            ])
        })
        .collect();
    Json::object(vec![
        ("name", Json::from(table.name.as_str())),
        ("columns", Json::Arr(columns)),
    ])
}

/// `table` grown (or cut) to `rows` rows by cycling its own rows.
fn cycled(table: &Table, rows: usize) -> Table {
    let columns = table
        .columns()
        .iter()
        .map(|col| {
            let values = (0..rows)
                .map(|r| col.values[r % col.values.len()].clone())
                .collect();
            Column::new(col.name.clone(), values)
        })
        .collect();
    Table::new(table.name.clone(), columns).expect("cycled rows stay rectangular")
}

/// The fewest whole cycles of `table`'s rows whose wire JSON takes at
/// least `bytes`.
fn rows_for(table: &Table, bytes: usize) -> usize {
    let mut rows = table.n_rows();
    while to_json(&cycled(table, rows)).to_string().len() < bytes {
        rows += table.n_rows();
    }
    rows
}

/// A recrawl `/annotate` body: `table` cycled to at least
/// `base_bytes` of JSON as the `"base"`, and 1% more rows as the
/// `"table"`.
fn recrawl_body(table: &Table, base_bytes: usize) -> String {
    let base_rows = rows_for(table, base_bytes);
    format!(
        r#"{{"table":{},"base":{}}}"#,
        to_json(&cycled(table, base_rows + (base_rows / 100).max(1))),
        to_json(&cycled(table, base_rows))
    )
}

/// Layer 1 of a served request, the wire decode: the streaming
/// decoder on a crawl's two body shapes, each iteration also freeing
/// the decoded tables, as a worker does after its reply. A recrawl
/// posted with its base (about 90 KB: a base of at least 40 KB) and a
/// batch of four tables (about 250 KB: at least 55 KB each), each
/// table the fixture's cycled to size.
fn bench_wire_decode(c: &mut Criterion) {
    use tu_server::wire::{AnnotateBody, BatchBody};

    let f = BenchFixture::new();
    let recrawl = recrawl_body(&f.corpus.tables[0].table, 40_000);
    let tables: Vec<String> = f.corpus.tables[..4]
        .iter()
        .map(|at| to_json(&cycled(&at.table, rows_for(&at.table, 55_000))).to_string())
        .collect();
    let batch = format!(r#"{{"tables":[{}]}}"#, tables.join(","));
    assert!(
        (80_000..100_000).contains(&recrawl.len()),
        "{} bytes",
        recrawl.len()
    );
    assert!(
        (225_000..275_000).contains(&batch.len()),
        "{} bytes",
        batch.len()
    );
    // The bodies decode, and to what the reference codec decodes.
    let reference = |body: &str| jsonshim::Json::parse(body).expect("json");
    assert_eq!(
        AnnotateBody::stream(&recrawl),
        AnnotateBody::from_json(&reference(&recrawl)).ok()
    );
    assert_eq!(
        BatchBody::stream(&batch),
        BatchBody::from_json(&reference(&batch)).ok()
    );

    let mut group = c.benchmark_group("pipeline/wire_decode");
    group.sample_size(10);
    group.bench_function("recrawl_body", |b| {
        b.iter(|| AnnotateBody::stream(black_box(&recrawl)).expect("decodes"))
    });
    group.bench_function("batch_body", |b| {
        b.iter(|| BatchBody::stream(black_box(&batch)).expect("decodes"))
    });
    group.finish();
}

/// The HTTP front-end tax: one table annotated directly vs over a
/// loopback connection to the annotation server, single connection vs
/// 8 concurrent connections. Before timing, the wire contract is
/// checked once: the HTTP outcome must be bit-identical to the direct
/// call on everything but wall-clock telemetry (`spent_nanos`).
fn bench_server_roundtrip(c: &mut Criterion) {
    use httpshim::HttpClient;
    use jsonshim::Json;
    use tu_server::{AnnotationServer, ServerConfig};

    let f = BenchFixture::new();
    let typer = f.customer();
    let table = &f.corpus.tables[0].table;
    let table_json = to_json(table);
    let body = format!(r#"{{"table":{table_json}}}"#);

    let server = AnnotationServer::start(
        "127.0.0.1:0",
        typer.clone(),
        &ServerConfig {
            workers: cores().clamp(2, 8),
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // The direct baseline annotates exactly the table the wire
    // delivers (cells re-typed from rendered strings).
    let wire_table =
        tu_server::wire::table_from_json(&Json::parse(&table_json.to_string()).expect("json"))
            .expect("wire table");
    let zero_spent = |mut v: Json| -> String {
        if let Json::Obj(fields) = &mut v {
            for (key, value) in fields.iter_mut() {
                if key == "degradation" {
                    if let Json::Obj(report) = value {
                        for (rk, rv) in report.iter_mut() {
                            if rk == "spent_nanos" {
                                *rv = Json::from(0u64);
                            }
                        }
                    }
                }
            }
        }
        v.to_string()
    };
    let direct = typer.annotate_request(&AnnotationRequest::new(&wire_table));
    let expected = zero_spent(tu_server::wire::outcome_to_json(&direct, typer.ontology()));
    let mut probe = HttpClient::connect(addr).expect("connect");
    let resp = probe.post_json("/annotate", &body, &[]).expect("annotate");
    assert_eq!(resp.status, 200);
    let got = zero_spent(Json::parse(&resp.body_str()).expect("outcome json"));
    assert_eq!(
        got, expected,
        "HTTP outcome must be bit-identical to direct annotate"
    );

    // A warm recrawl as a catalog crawl sends it: the table grown tall
    // by cycling its rows, then 1% more rows appended, posted with the
    // previous crawl as `base` (at least 30 KB, the size of the crawl
    // workload's median request) to a server whose step cache already
    // holds the answer.
    let recrawl_body = recrawl_body(table, 15_500);
    assert!(recrawl_body.len() >= 30_000, "{} bytes", recrawl_body.len());
    let mut cached = f.customer();
    cached.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 16))));
    let recrawl_server = AnnotationServer::start(
        "127.0.0.1:0",
        cached.clone(),
        &ServerConfig {
            workers: cores().clamp(2, 8),
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let recrawl_json = Json::parse(&recrawl_body).expect("recrawl json");
    let wire_part = |key: &str| {
        tu_server::wire::table_from_json(recrawl_json.get(key).expect("recrawl part"))
            .expect("wire table")
    };
    let (recrawl_table, recrawl_base) = (wire_part("table"), wire_part("base"));
    // The direct call fills the cache the server shares; the server's
    // warm answer must match it.
    let recrawl_request = AnnotationRequest::new(&recrawl_table).with_base(&recrawl_base);
    let direct_recrawl = cached.annotate_request(&recrawl_request);
    let mut recrawl_probe = HttpClient::connect(recrawl_server.local_addr()).expect("connect");
    let resp = recrawl_probe
        .post_json("/annotate", &recrawl_body, &[])
        .expect("recrawl");
    assert_eq!(resp.status, 200);
    assert_eq!(
        zero_spent(Json::parse(&resp.body_str()).expect("outcome json")),
        zero_spent(tu_server::wire::outcome_to_json(
            &direct_recrawl,
            cached.ontology()
        )),
        "HTTP recrawl must be bit-identical to the direct call"
    );

    let mut group = c.benchmark_group("pipeline/server_roundtrip");
    group.sample_size(10);
    group.bench_function("direct", |b| {
        b.iter(|| typer.annotate_request(black_box(&AnnotationRequest::new(&wire_table))))
    });
    group.bench_function("http_1_conn", |b| {
        b.iter(|| {
            let resp = probe
                .post_json("/annotate", black_box(&body), &[])
                .expect("annotate");
            assert_eq!(resp.status, 200);
            black_box(resp.body.len())
        })
    });
    group.bench_function("http_1_conn_recrawl", |b| {
        b.iter(|| {
            let resp = recrawl_probe
                .post_json("/annotate", black_box(&recrawl_body), &[])
                .expect("recrawl");
            assert_eq!(resp.status, 200);
            black_box(resp.body.len())
        })
    });
    let clients: Vec<std::sync::Mutex<HttpClient>> = (0..8)
        .map(|_| std::sync::Mutex::new(HttpClient::connect(addr).expect("connect")))
        .collect();
    group.bench_function("http_8_conns", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for client in &clients {
                    let body = &body;
                    scope.spawn(move || {
                        let mut client = client.lock().expect("client mutex");
                        let resp = client
                            .post_json("/annotate", black_box(body), &[])
                            .expect("annotate");
                        assert_eq!(resp.status, 200);
                        black_box(resp.body.len());
                    });
                }
            })
        })
    });
    group.finish();
    server.shutdown().expect("graceful shutdown");
    recrawl_server.shutdown().expect("graceful shutdown");
}

/// The load lab end to end: a small seeded workload replayed through
/// the in-process serving stack (bounded queue, worker pool, the
/// server's shaper path), fairness shaping on vs the accounting-only
/// baseline. Before timing, the lab's own acceptance contract is
/// checked once: workload generation replays bit-identically, both
/// reports validate their accounting, and on an unsaturated,
/// unbudgeted target the shaped and unshapen replays serve everything
/// and digest identically — shaping never changes results, only who
/// degrades first under pressure.
fn bench_load_lab(c: &mut Criterion) {
    use tu_loadlab::{generate_workload, run_in_process, TargetConfig, WorkloadConfig};

    let f = BenchFixture::new();
    let config = WorkloadConfig::smoke(0xBE0);
    let workload = generate_workload(&f.lab.global.ontology, &config);
    assert_eq!(
        workload.digest(),
        generate_workload(&f.lab.global.ontology, &config).digest(),
        "workload generation must replay bit-identically"
    );
    let shaped_target = TargetConfig::default();
    let unshapen_target = TargetConfig {
        shaping: false,
        ..TargetConfig::default()
    };

    // Acceptance: both stacks account every operation, serve the whole
    // (unsaturated) workload, and agree on every result.
    let shaped = run_in_process(Arc::clone(&f.lab.global), &workload, &shaped_target);
    let unshapen = run_in_process(Arc::clone(&f.lab.global), &workload, &unshapen_target);
    shaped.validate().expect("shaped report accounts every op");
    unshapen
        .validate()
        .expect("unshapen report accounts every op");
    let total = shaped.bucket(None, None);
    assert_eq!(total.served, workload.ops.len() as u64);
    assert_eq!(total.degraded, 0, "unbudgeted replay must not degrade");
    assert_eq!(
        shaped.deterministic_digest(),
        unshapen.deterministic_digest(),
        "shaping must not change results on an unsaturated target"
    );
    println!(
        "pipeline/load_lab  {} ops, shaped p99 {}ns vs unshapen p99 {}ns",
        total.submitted,
        total.p99_latency_nanos,
        unshapen.bucket(None, None).p99_latency_nanos
    );

    let mut group = c.benchmark_group("pipeline/load_lab");
    group.sample_size(10);
    group.bench_function("shaped_replay", |b| {
        b.iter(|| {
            black_box(run_in_process(
                Arc::clone(&f.lab.global),
                black_box(&workload),
                &shaped_target,
            ))
        })
    });
    group.bench_function("unshapen_replay", |b| {
        b.iter(|| {
            black_box(run_in_process(
                Arc::clone(&f.lab.global),
                black_box(&workload),
                &unshapen_target,
            ))
        })
    });
    group.finish();
}

/// The DPBD adaptation loop (Figure 3 ①–④): a fresh cached customer
/// takes 32 corrections in a fixed rotation over the fixture's
/// database-like tables, each labeling one column with its true type.
/// Every correction re-annotates the table, infers LFs, admits the
/// column to the local training set and refits the local model over
/// every example admitted so far, so one iteration times the whole
/// growing sequence. Only `SigmaTyper::feedback` is called.
fn bench_feedback(c: &mut Criterion) {
    const CORRECTIONS: usize = 32;
    let f = BenchFixture::new();
    let mut fresh = f.customer();
    fresh.set_step_cache(Some(Arc::new(ShardedLruCache::new(1 << 16))));
    let tables = &f.corpus.tables;
    let corrections: Vec<(&Table, usize, tu_ontology::TypeId)> = (0..CORRECTIONS)
        .map(|k| {
            let at = &tables[k % tables.len()];
            let col = (k / tables.len() + 3 * k) % at.table.n_cols();
            (&at.table, col, at.labels[col])
        })
        .collect();
    let correct_all = || {
        let mut typer = fresh.clone();
        for &(table, col, ty) in &corrections {
            typer.feedback(black_box(table), col, ty, None);
        }
        typer
    };
    let adapted = correct_all();
    assert_eq!(adapted.local().training.len(), CORRECTIONS);
    assert!(adapted.local().finetuned.is_some());

    let mut group = c.benchmark_group("pipeline/feedback");
    group.sample_size(10);
    group.bench_function("32_corrections", |b| b.iter(correct_all));
    group.finish();

    // `pipeline/step2_value_lookup`'s column and call, consulting the
    // local bank the corrections left as well as the global one.
    let at = &tables[0];
    let col = at.table.column(0).expect("column");
    let normalized = tu_text::normalize_header(at.table.headers()[0]);
    let banks = [&f.lab.global.global_lfs[..], &adapted.local().lfs[..]];
    c.bench_function("pipeline/step2_value_lookup_adapted", |b| {
        b.iter(|| {
            f.lab
                .global
                .lookup
                .lookup(black_box(col), &normalized, &[], &banks, adapted.config())
        })
    });

    // `pipeline/step3_embedding_predict`'s column through the embedding
    // step of the adapted customer, so the finetuned head runs beside
    // the global one: `run`, which builds both halves and combines them
    // for that one column, as the executor does for a one-column
    // frontier.
    let normalized_headers: Vec<String> = at
        .table
        .headers()
        .iter()
        .map(|h| tu_text::normalize_header(h))
        .collect();
    let ctx = StepContext {
        table: &at.table,
        col_idx: 0,
        normalized_headers: &normalized_headers,
        best_so_far: 0.0,
        global: adapted.global(),
        local: adapted.local(),
        config: adapted.config(),
    };
    c.bench_function("pipeline/step3_embedding_adapted", |b| {
        b.iter(|| EmbeddingStep.run(black_box(&ctx)))
    });

    // The same column through each split step's local combine alone, on
    // its global half computed once: what the adapted customer pays for
    // a column whose global half the step cache holds — after a
    // feedback, say. The combine is built and called for the one
    // column, as the executor does for a one-column frontier.
    let split_steps: [(&str, &dyn AnnotationStep); 2] = [
        ("pipeline/step2_value_lookup_local", &LookupStep),
        ("pipeline/step3_embedding_local", &EmbeddingStep),
    ];
    for (name, step) in split_steps {
        let split = step.split().expect("a split step");
        let half = split.global_half(ctx)(0);
        c.bench_function(name, |b| {
            b.iter(|| split.combine(black_box(ctx))(0, black_box(&half)))
        });
    }
}

/// Crawl once; per step return `(name, columns_run, hits, inserts)`
/// summed over the corpus.
fn crawl_counts(
    typer: &sigmatyper::SigmaTyper,
    tables: &[Table],
) -> Vec<(String, usize, usize, usize)> {
    let mut per_step: Vec<(String, usize, usize, usize)> = Vec::new();
    for table in tables {
        let ann = typer.annotate(table);
        for (i, t) in ann.timings.iter().enumerate() {
            if per_step.len() <= i {
                per_step.push((t.name.clone(), 0, 0, 0));
            }
            per_step[i].1 += t.columns;
            per_step[i].2 += t.cache_hits;
            per_step[i].3 += t.cache_inserts;
        }
    }
    per_step
}

criterion_group!(
    benches,
    bench_steps,
    bench_annotate,
    bench_batch_service,
    bench_parallel_table,
    bench_cached_recrawl,
    bench_persistent_recrawl,
    bench_incremental_recrawl,
    bench_budgeted,
    bench_wire_decode,
    bench_server_roundtrip,
    bench_load_lab,
    bench_feedback
);
criterion_main!(benches);
