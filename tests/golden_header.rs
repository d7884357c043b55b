//! Golden suite for the header-matching step.
//!
//! `HeaderMatcher` precomputes what it reads about each ontology surface
//! and skips surfaces whose fuzzy score provably stays below the
//! syntactic floor. This suite keeps a literal transcription of the
//! matcher that stems and fuzzy-scores every surface for every header
//! (below), and asserts both return `to_bits`-identical candidates for
//! every header of the e1–e8 corpora, every ontology surface with its
//! plural and `col_`-decorated forms, opaque headers, and degenerate
//! inputs — each under the default config and with `cascade_threshold`
//! at 0.0 and at 1.01, which skip and force the semantic pass.
//! (`tests/golden_cascade.rs` calls the real matcher on both of its
//! sides, so only this suite can catch a matcher regression.)

use sigmatyper::{
    train_global, Candidate, GlobalModel, SigmaTyperConfig, StepScores, TrainingConfig,
};
use std::collections::BTreeSet;
use std::sync::OnceLock;
use tu_corpus::{generate_corpus, CorpusConfig, GenParams};
use tu_embed::Embedder;
use tu_ontology::{builtin_ontology, Ontology, TypeId};
use tu_text::{fuzzy_score, normalize_header};

fn global() -> &'static GlobalModel {
    static GLOBAL: OnceLock<GlobalModel> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let ontology = builtin_ontology();
        let mut cfg = CorpusConfig::database_like(0x601D, 40);
        cfg.ood_column_rate = 0.2;
        let corpus = generate_corpus(&ontology, &cfg);
        train_global(ontology, &corpus, &TrainingConfig::fast())
    })
}

fn reference() -> &'static ReferenceMatcher {
    static REFERENCE: OnceLock<ReferenceMatcher> = OnceLock::new();
    REFERENCE.get_or_init(|| ReferenceMatcher::new(&global().ontology, &global().embedder))
}

/// Literal transcription of `HeaderMatcher` before bound pruning: `new`
/// keeps the surfaces and their phrase vectors, and `match_header`
/// stems and fuzzy-scores every surface for every header.
struct ReferenceMatcher {
    surfaces: Vec<(String, TypeId)>,
    surface_vectors: Vec<Vec<f32>>,
    syntactic_floor: f64,
    semantic_floor: f64,
}

impl ReferenceMatcher {
    fn new(ontology: &Ontology, embedder: &Embedder) -> Self {
        let surfaces: Vec<(String, TypeId)> = ontology
            .all_surfaces()
            .into_iter()
            .map(|(s, t)| (s.to_owned(), t))
            .collect();
        let surface_vectors = surfaces
            .iter()
            .map(|(s, _)| embedder.phrase_vector(s))
            .collect();
        ReferenceMatcher {
            surfaces,
            surface_vectors,
            syntactic_floor: 0.72,
            semantic_floor: 0.45,
        }
    }

    fn match_header(
        &self,
        header: &str,
        embedder: &Embedder,
        config: &SigmaTyperConfig,
    ) -> StepScores {
        let normalized = normalize_header(header);
        if normalized.is_empty() {
            return StepScores::default();
        }
        let stemmed = tu_text::stem_phrase(&normalized);
        let header_tokens: Vec<String> = normalized.split(' ').map(str::to_owned).collect();
        let mut cands: Vec<Candidate> = Vec::new();

        for (surface, ty) in &self.surfaces {
            if *surface == normalized {
                cands.push(Candidate {
                    ty: *ty,
                    confidence: 1.0,
                });
            } else if *surface == stemmed || tu_text::stem_phrase(surface) == stemmed {
                cands.push(Candidate {
                    ty: *ty,
                    confidence: 0.97,
                });
            } else {
                let mut s = fuzzy_score(&normalized, surface);
                let surface_tokens: Vec<&str> = surface.split(' ').collect();
                if surface_tokens
                    .iter()
                    .all(|t| header_tokens.iter().any(|h| h == t))
                {
                    let ratio = surface_tokens.len() as f64 / header_tokens.len() as f64;
                    s = s.max(0.78 + 0.22 * ratio.min(1.0));
                }
                if s >= self.syntactic_floor {
                    cands.push(Candidate {
                        ty: *ty,
                        confidence: s * 0.8,
                    });
                }
            }
        }

        let best_syntactic = cands.iter().map(|c| c.confidence).fold(0.0f64, f64::max);
        if best_syntactic < config.cascade_threshold {
            let hv = embedder.phrase_vector(&normalized);
            for ((_, ty), sv) in self.surfaces.iter().zip(&self.surface_vectors) {
                let cos = f64::from(tu_embed::cosine(&hv, sv));
                if cos >= self.semantic_floor {
                    cands.push(Candidate {
                        ty: *ty,
                        confidence: cos * 0.8,
                    });
                }
            }
        }

        let mut scores = StepScores::from_candidates(cands);
        scores.candidates.truncate(config.top_k.max(8));
        scores
    }
}

/// The default config, then `cascade_threshold` at 0.0 (the semantic
/// pass never runs) and at 1.01 (it always runs).
fn configs() -> [SigmaTyperConfig; 3] {
    let default = SigmaTyperConfig::default();
    [
        default,
        SigmaTyperConfig {
            cascade_threshold: 0.0,
            ..default
        },
        SigmaTyperConfig {
            cascade_threshold: 1.01,
            ..default
        },
    ]
}

/// How many checked headers reached each branch of the matcher, so a
/// passing suite also shows what it exercised.
#[derive(Debug, Default)]
struct Coverage {
    exact: usize,
    plural: usize,
    fuzzy: usize,
    semantic: usize,
}

/// Assert the matcher and the reference return bit-identical candidates
/// for every header under every config.
fn assert_golden<S: AsRef<str>>(headers: &[S]) -> Coverage {
    let g = global();
    let mut coverage = Coverage::default();
    for header in headers.iter().map(AsRef::as_ref) {
        let [_, skip, force] = configs().map(|config| {
            let got = g.header.match_header(header, &g.embedder, &config);
            let want = reference().match_header(header, &g.embedder, &config);
            assert_eq!(
                got.candidates.len(),
                want.candidates.len(),
                "candidate count diverged for {header:?} at threshold {}",
                config.cascade_threshold
            );
            for (a, b) in got.candidates.iter().zip(&want.candidates) {
                assert_eq!(a.ty, b.ty, "candidate type diverged for {header:?}");
                assert_eq!(
                    a.confidence.to_bits(),
                    b.confidence.to_bits(),
                    "candidate confidence diverged for {header:?} at threshold {}",
                    config.cascade_threshold
                );
            }
            got
        });
        let has = |conf: f64| skip.candidates.iter().any(|c| c.confidence == conf);
        coverage.exact += usize::from(has(1.0));
        coverage.plural += usize::from(has(0.97));
        coverage.fuzzy += usize::from(skip.candidates.iter().any(|c| c.confidence <= 0.8));
        coverage.semantic += usize::from(force.candidates.len() > skip.candidates.len());
    }
    coverage
}

/// Every distinct header of corpora shaped like the e1–e8 experiments
/// (the shapes `tests/embed_backends.rs` checks).
fn e1_to_e8_headers() -> Vec<String> {
    let n = 10;
    let mut shapes: Vec<CorpusConfig> = Vec::new();
    let mut e1 = CorpusConfig::database_like(0xE1_70, n);
    e1.params = GenParams::shifted(0.5);
    e1.opaque_header_rate = 0.6;
    shapes.push(e1);
    shapes.push(CorpusConfig::database_like(0xE2_01, n));
    let mut e3 = CorpusConfig::database_like(0xE3_01, n);
    e3.ood_column_rate = 0.9;
    shapes.push(e3);
    let mut e4 = CorpusConfig::database_like(0xE4_01, n);
    e4.params = GenParams::shifted(0.7);
    e4.opaque_header_rate = 0.5;
    shapes.push(e4);
    shapes.push(CorpusConfig::database_like(0xE5_01, n));
    let mut e6 = CorpusConfig::database_like(0xE6_01, n);
    e6.opaque_header_rate = 0.45;
    e6.params = GenParams::shifted(0.2);
    shapes.push(e6);
    let mut e7 = CorpusConfig::database_like(0xE7_01, n);
    e7.ood_column_rate = 0.25;
    e7.opaque_header_rate = 0.45;
    e7.params = GenParams::shifted(0.2);
    shapes.push(e7);
    let mut e8_web = CorpusConfig::web_like(0xE8_11, n);
    e8_web.opaque_header_rate = 0.7;
    shapes.push(e8_web);
    let mut e8_db = CorpusConfig::database_like(0xE8_12, n);
    e8_db.opaque_header_rate = 0.7;
    shapes.push(e8_db);

    let mut headers = BTreeSet::new();
    for cfg in &shapes {
        for at in generate_corpus(&global().ontology, cfg).tables {
            headers.extend(at.table.headers().into_iter().map(str::to_owned));
        }
    }
    headers.into_iter().collect()
}

#[test]
fn every_e1_to_e8_header_matches_the_reference() {
    let headers = e1_to_e8_headers();
    assert!(
        headers.len() > 100,
        "only {} distinct headers",
        headers.len()
    );
    let coverage = assert_golden(&headers);
    assert!(coverage.exact > 0, "{coverage:?}");
    assert!(coverage.fuzzy > 0, "{coverage:?}");
    assert!(coverage.semantic > 0, "{coverage:?}");
}

/// A crude English plural, enough to reach the stem lookups.
fn plural(word: &str) -> String {
    if let Some(stem) = word.strip_suffix('y') {
        format!("{stem}ies")
    } else if ["s", "x", "z", "ch", "sh"]
        .iter()
        .any(|s| word.ends_with(s))
    {
        format!("{word}es")
    } else {
        format!("{word}s")
    }
}

#[test]
fn every_ontology_surface_and_its_variants_match_the_reference() {
    let mut headers = Vec::new();
    for (surface, _) in global().ontology.all_surfaces() {
        let snake = surface.replace(' ', "_");
        headers.push(surface.to_owned());
        headers.push(plural(surface));
        headers.push(format!("col_{snake}"));
        headers.push(format!("{}_2", snake.to_uppercase()));
    }
    let coverage = assert_golden(&headers);
    assert!(coverage.exact > 0, "{coverage:?}");
    assert!(coverage.plural > 0, "{coverage:?}");
    assert!(coverage.fuzzy > 0, "{coverage:?}");
    assert!(coverage.semantic > 0, "{coverage:?}");
}

#[test]
fn opaque_and_degenerate_headers_match_the_reference() {
    let long: String = "shipping_address_line_"
        .repeat(10)
        .chars()
        .take(200)
        .collect();
    let repeated = "x".repeat(200);
    let headers = [
        // Opaque, as the corpora generate them.
        "field_3",
        "c7",
        "col_12",
        "x1",
        "f_0001",
        "attr_b",
        "v",
        "data",
        "value",
        // Empty and whitespace-only.
        "",
        " ",
        "   ",
        "\t\n",
        "___",
        "--",
        // Digits only.
        "0",
        "12345",
        "2021",
        // Non-ASCII.
        "Größe",
        "名前",
        "Straße",
        "İstanbul",
        "prix_€",
        "Ünit_Price",
        // 200 chars.
        long.as_str(),
        repeated.as_str(),
    ];
    assert_golden(&headers);
}
