//! Golden-equivalence suite for column featurization.
//!
//! The extractor reads each column once: `char_features` counts the 16
//! character classes and the length in one pass per value,
//! `global_features` renders each non-null value once and takes the
//! distinct count and the entropy from one count map, and the subword
//! embedder hashes each character n-gram's UTF-8 bytes in place into a
//! reused buffer. This suite keeps a literal transcription of the
//! extractor that did the same work with a pass per class, a rendered
//! `String` per cell (twice), a token `Vec` per text cell and a
//! `String` plus a `Vec<f32>` per n-gram ([`seed`]), and asserts that
//! every f32 bit agrees: `char_features`, `global_features`, the mean
//! value embedding, the header embedding, `word_vector`,
//! `phrase_vector` and `TableEmbeddingModel::featurize`.
//!
//! Inputs are corpora of the e1–e8 experiment shapes, every
//! `FeatureConfig` variant the system and the Sherlock baseline use
//! (plus sampling edge cases), and Unicode edge cells: `İ`, `ß`, `ﬁ`,
//! final sigma, combining marks, emoji, and empty or whitespace-only
//! cells.
//!
//! The one deliberate difference: the transcription sums the entropy
//! over distinct values in first-occurrence order. The old code summed
//! in `HashMap` iteration order, which differs between maps, so any
//! fixed order is one the old code could produce.

use sigmatyper::global::embedding_sequences;
use sigmatyper::{train_global, GlobalModel, TrainingConfig};
use std::sync::OnceLock;
use tu_corpus::{generate_corpus, Corpus, CorpusConfig, GenParams};
use tu_embed::{Embedder, SkipGramConfig};
use tu_features::{char_feature_dim, FeatureConfig, FeatureExtractor, GLOBAL_FEATURE_DIM};
use tu_ml::StandardScaler;
use tu_ontology::builtin_ontology;
use tu_table::{Column, Date, Value};

/// The extractor and embedder as they were, transcribed.
mod seed {
    use tu_embed::{SkipGramModel, Vocabulary};
    use tu_features::FeatureConfig;
    use tu_table::{Column, DataType};

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn hash_vector(seed: u64, dim: usize) -> Vec<f32> {
        let mut state = seed;
        let mut v: Vec<f32> = (0..dim)
            .map(|_| {
                let u = splitmix64(&mut state);
                (u as f64 / u64::MAX as f64 * 2.0 - 1.0) as f32
            })
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    fn char_ngrams(s: &str, n: usize) -> Vec<String> {
        let padded: Vec<char> = std::iter::once('<')
            .chain(s.chars().flat_map(char::to_lowercase))
            .chain(std::iter::once('>'))
            .collect();
        if padded.len() < n {
            return vec![padded.iter().collect()];
        }
        padded.windows(n).map(|w| w.iter().collect()).collect()
    }

    /// The old `tu_embed::Embedder`: trained vectors when `trained` is
    /// set (subword weight 0.15), pure subword hashing otherwise.
    pub struct Embedder {
        pub trained: Option<(Vocabulary, SkipGramModel)>,
        pub dim: usize,
    }

    impl Embedder {
        fn subword_weight(&self) -> f32 {
            if self.trained.is_some() {
                0.15
            } else {
                1.0
            }
        }

        fn subword_vector(&self, word: &str) -> Vec<f32> {
            let mut acc = vec![0.0f32; self.dim];
            let mut count = 0usize;
            for n in 3..=4 {
                for g in char_ngrams(word, n) {
                    let hv = hash_vector(fnv1a(g.as_bytes()), self.dim);
                    for (a, h) in acc.iter_mut().zip(&hv) {
                        *a += h;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for a in &mut acc {
                    *a /= count as f32;
                }
            }
            acc
        }

        pub fn word_vector(&self, word: &str) -> Vec<f32> {
            let word = word.to_lowercase();
            let mut v = self.subword_vector(&word);
            if let Some((vocab, model)) = &self.trained {
                if let Some(idx) = vocab.get(&word) {
                    for x in &mut v {
                        *x *= self.subword_weight();
                    }
                    let trained = model.vector(idx);
                    for (a, t) in v.iter_mut().zip(trained) {
                        *a += t;
                    }
                }
            }
            v
        }

        pub fn phrase_vector(&self, phrase: &str) -> Vec<f32> {
            let tokens = tu_text::word_tokens(phrase);
            if tokens.is_empty() {
                return vec![0.0; self.dim];
            }
            let mut acc = vec![0.0f32; self.dim];
            for t in &tokens {
                let v = self.word_vector(t);
                for (a, x) in acc.iter_mut().zip(&v) {
                    *a += x;
                }
            }
            for a in &mut acc {
                *a /= tokens.len() as f32;
            }
            acc
        }
    }

    type CharClass = fn(char) -> bool;

    const CHAR_CLASSES: &[CharClass] = &[
        |c| c.is_ascii_digit(),
        |c| c.is_ascii_lowercase(),
        |c| c.is_ascii_uppercase(),
        |c| c.is_whitespace(),
        |c| c.is_ascii_punctuation(),
        |c| c == '@',
        |c| c == '.',
        |c| c == '-',
        |c| c == '/',
        |c| c == ':',
        |c| c == '#',
        |c| c == '+',
        |c| c == ',',
        |c| c == '(' || c == ')',
        |c| c == '$' || c == '€' || c == '£',
        |c| c == '%',
    ];

    pub fn char_features<S: AsRef<str>>(values: &[S]) -> Vec<f32> {
        let dim = CHAR_CLASSES.len() * 4;
        if values.is_empty() {
            return vec![0.0; dim];
        }
        let n = values.len();
        let mut fractions = vec![vec![0.0f64; n]; CHAR_CLASSES.len()];
        for (vi, v) in values.iter().enumerate() {
            let s = v.as_ref();
            let len = s.chars().count();
            if len == 0 {
                continue;
            }
            for (ci, pred) in CHAR_CLASSES.iter().enumerate() {
                let count = s.chars().filter(|&c| pred(c)).count();
                fractions[ci][vi] = count as f64 / len as f64;
            }
        }
        let mut out = Vec::with_capacity(dim);
        for fr in &fractions {
            let mean = fr.iter().sum::<f64>() / n as f64;
            let var = fr.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let min = fr.iter().copied().fold(f64::INFINITY, f64::min);
            let max = fr.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            out.push(mean as f32);
            out.push(var.sqrt() as f32);
            out.push(min as f32);
            out.push(max as f32);
        }
        out
    }

    /// `tu_table::stats::entropy_of`, summing in first-occurrence order.
    fn entropy_of(items: &[String]) -> f64 {
        let mut order: Vec<&str> = Vec::new();
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for it in items {
            let c = counts.entry(it.as_str()).or_insert(0);
            if *c == 0 {
                order.push(it);
            }
            *c += 1;
        }
        let c: Vec<usize> = order.iter().map(|k| counts[k]).collect();
        tu_table::stats::entropy_from_counts(&c)
    }

    pub fn global_features(column: &Column) -> Vec<f32> {
        let n = column.len().max(1) as f64;
        let mut type_counts = [0usize; 6];
        for v in &column.values {
            let idx = match v.data_type() {
                DataType::Null => 0,
                DataType::Int => 1,
                DataType::Float => 2,
                DataType::Bool => 3,
                DataType::Date => 4,
                DataType::Text => 5,
            };
            type_counts[idx] += 1;
        }
        let rendered = column.rendered_values();
        let lens: Vec<f64> = rendered.iter().map(|s| s.chars().count() as f64).collect();
        let len_mean = tu_table::stats::mean(&lens);
        let len_std = tu_table::stats::std_dev(&lens);
        let entropy = entropy_of(&rendered);
        let nums = column.numeric_values();
        let (num_mean, num_std, num_min, num_max) = if nums.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            tu_table::stats::NumericSummary::of(&nums)
                .map(|s| (s.mean, s.std, s.min, s.max))
                .unwrap_or((0.0, 0.0, 0.0, 0.0))
        };
        let slog = |v: f64| (v.signum() * (v.abs() + 1.0).ln()) as f32;
        let mut out = Vec::with_capacity(18);
        for c in type_counts {
            out.push((c as f64 / n) as f32);
        }
        out.push(column.distinct_fraction() as f32);
        out.push((column.len() as f64).ln_1p() as f32);
        out.push(len_mean as f32 / 50.0);
        out.push(len_std as f32 / 50.0);
        out.push(entropy as f32 / 10.0);
        out.push(slog(num_mean));
        out.push(slog(num_std));
        out.push(slog(num_min));
        out.push(slog(num_max));
        let texts = column.text_values();
        let token_counts: Vec<f64> = texts
            .iter()
            .map(|t| tu_text::word_tokens(t).len() as f64)
            .collect();
        out.push(tu_table::stats::mean(&token_counts) as f32 / 5.0);
        out.push(tu_table::stats::std_dev(&token_counts) as f32 / 5.0);
        let leading_zero = rendered
            .iter()
            .filter(|s| s.len() > 1 && s.starts_with('0'))
            .count() as f64
            / rendered.len().max(1) as f64;
        out.push(leading_zero as f32);
        out
    }

    fn mean_value_embedding(embedder: &Embedder, sample: &[String]) -> Vec<f32> {
        let mut acc = vec![0.0f32; embedder.dim];
        let mut n = 0;
        for v in sample.iter().take(16) {
            let pv = embedder.phrase_vector(v);
            for (a, x) in acc.iter_mut().zip(&pv) {
                *a += x;
            }
            n += 1;
        }
        if n > 0 {
            for a in &mut acc {
                *a /= n as f32;
            }
        }
        acc
    }

    /// `FeatureExtractor::extract`.
    pub fn extract(embedder: &Embedder, config: &FeatureConfig, column: &Column) -> Vec<f32> {
        let sample: Vec<String> = column
            .sample(config.max_values)
            .into_iter()
            .map(tu_table::Value::render)
            .collect();
        let mut out = Vec::new();
        out.extend(char_features(&sample));
        out.extend(global_features(column));
        if config.value_embedding {
            out.extend(mean_value_embedding(embedder, &sample));
        }
        if config.header_embedding {
            out.extend(embedder.phrase_vector(&tu_text::normalize_header(&column.name)));
        }
        out
    }

    /// The old `context_vector`: every neighbor header encoded per call.
    pub fn context_vector(embedder: &Embedder, neighbor_headers: &[&str]) -> Vec<f32> {
        let vecs: Vec<Vec<f32>> = neighbor_headers
            .iter()
            .map(|h| embedder.phrase_vector(&tu_text::normalize_header(h)))
            .collect();
        let mut acc = vec![0.0f32; embedder.dim];
        if vecs.is_empty() {
            return acc;
        }
        for v in &vecs {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        for a in &mut acc {
            *a /= vecs.len() as f32;
        }
        acc
    }

    /// The unscaled row `train_embedding_model` and `featurize` built.
    pub fn raw_row(embedder: &Embedder, column: &Column, neighbor_headers: &[&str]) -> Vec<f32> {
        let mut f = extract(embedder, &FeatureConfig::default(), column);
        f.extend(context_vector(embedder, neighbor_headers));
        f
    }
}

/// The training corpus, the global model trained on it, and the
/// transcribed embedder trained the way `train_global` trains its own.
struct Fixture {
    corpus: Corpus,
    global: GlobalModel,
    trained: seed::Embedder,
    untrained: seed::Embedder,
}

const TRAINING_SEED: u64 = 0x60_1DE5;

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ontology = builtin_ontology();
        let mut cfg = CorpusConfig::database_like(TRAINING_SEED, 24);
        cfg.ood_column_rate = 0.2;
        let corpus = generate_corpus(&ontology, &cfg);
        let config = TrainingConfig::fast();
        let seqs = embedding_sequences(&ontology, &corpus);
        let vocab = tu_embed::Vocabulary::build(&seqs, 1);
        let model = tu_embed::train(
            &vocab,
            &seqs,
            &SkipGramConfig {
                dim: config.embed_dim,
                epochs: config.embed_epochs,
                seed: config.seed,
                ..SkipGramConfig::default()
            },
        );
        let global = train_global(ontology, &corpus, &config);
        Fixture {
            corpus,
            global,
            trained: seed::Embedder {
                trained: Some((vocab, model)),
                dim: config.embed_dim,
            },
            untrained: seed::Embedder {
                trained: None,
                dim: 16,
            },
        }
    })
}

/// Corpora in the shapes of the e1–e8 experiments, a few tables each.
fn eval_corpora() -> Vec<(&'static str, Corpus)> {
    let ontology = builtin_ontology();
    let n = 5;
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
    shapes.push(("e7_precision", e7));
    let mut e8_web = CorpusConfig::web_like(0xE8_11, n);
    e8_web.opaque_header_rate = 0.7;
    shapes.push(("e8_web", e8_web));
    let mut e8_db = CorpusConfig::database_like(0xE8_12, n);
    e8_db.opaque_header_rate = 0.7;
    shapes.push(("e8_database", e8_db));
    shapes
        .into_iter()
        .map(|(name, cfg)| (name, generate_corpus(&ontology, &cfg)))
        .collect()
}

fn text(cells: &[&str]) -> Vec<Value> {
    cells.iter().map(|s| Value::Text((*s).to_owned())).collect()
}

/// Columns of cells the corpora never produce: Unicode case mappings
/// that change length (`İ`, `ß`, `ﬁ`, final sigma), combining marks,
/// emoji sequences, non-ASCII whitespace and digits, empty and
/// whitespace-only text, signed zeros, non-finite floats, and long
/// cells.
fn edge_columns() -> Vec<Column> {
    let date = |y, m, d| Value::Date(Date::new(y, m, d).expect("valid date"));
    vec![
        Column::new(
            "İstanbul Straße",
            text(&["İstanbul", "İZMİR", "straße", "STRASSE", "ß", "İ"]),
        ),
        Column::new("ﬁle_name", text(&["ﬁle", "ﬂow", "ﬃx", "oﬁce", "ﬁ"])),
        Column::new(
            "cafe\u{301}",
            text(&[
                "cafe\u{301}",
                "a\u{308}b",
                "\u{301}",
                "n\u{303}o",
                "e\u{301}\u{301}",
            ]),
        ),
        Column::new(
            "emoji 😀",
            text(&[
                "😀",
                "👍🏽 ok",
                "👨\u{200d}👩\u{200d}👧",
                "🇳🇱",
                "a😀b",
                "😀😀😀",
            ]),
        ),
        Column::new(
            "blank",
            text(&["", " ", "\t", "\u{a0}", "\u{3000}", "  x  ", "", "\n\r"]),
        ),
        Column::new("ΟΔΟΣ", text(&["ΟΔΟΣ", "Σ", "ΣΑΣ ΣΑΣ", "σς", "ὈΔΥΣΣΕΎΣ"])),
        Column::new(
            "digits",
            text(&["١٢٣", "٤٥", "007", "0", "00", "0x1F", "½"]),
        ),
        Column::new(
            "money",
            text(&["$12.50", "€ 3,00", "£7", "(5%)", "a@b.c", "#1+2", "1/2:3"]),
        ),
        Column::new("", Vec::new()),
        Column::new("nulls", vec![Value::Null, Value::Null, Value::Null]),
        Column::new(
            "zeros",
            vec![
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(1.5),
                Value::Float(-0.0),
            ],
        ),
        Column::new(
            "neg zeros",
            vec![Value::Float(-0.0), Value::Float(0.0), Value::Int(0)],
        ),
        Column::new(
            "non finite",
            vec![
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Int(3),
                Value::Null,
            ],
        ),
        Column::new(
            "huge",
            vec![
                Value::Float(1e300),
                Value::Float(-1e300),
                Value::Int(i64::MAX),
                Value::Int(i64::MIN),
                Value::Float(1e15),
                Value::Float(0.1),
            ],
        ),
        Column::new(
            "mixed",
            vec![
                Value::Int(7),
                Value::Float(2.25),
                Value::Bool(true),
                Value::Bool(false),
                date(2021, 9, 11),
                date(1999, 12, 31),
                Value::Null,
                Value::Text("7".into()),
                Value::Text("seven days".into()),
                Value::Int(7),
            ],
        ),
        Column::new(
            "long cells",
            vec![
                Value::Text("a".repeat(300)),
                Value::Text("the quick brown fox jumps over the lazy dog ".repeat(12)),
                Value::Text("x-y_z.w/v:u#t+s,r(q)p$o%n".into()),
                Value::Text("MixedCASE words And1Digits2".into()),
            ],
        ),
        Column::new(
            "skewed",
            (0..80)
                .map(|i| {
                    Value::Text(
                        match i % 9 {
                            0..=4 => "common",
                            5 | 6 => "less common",
                            7 => "rare",
                            _ => "another rare one",
                        }
                        .to_owned(),
                    )
                })
                .collect(),
        ),
    ]
}

/// Every column the suite featurizes: the e1–e8 corpora's, then the
/// edge columns, each with the other headers of its table.
fn columns() -> Vec<(Column, Vec<String>)> {
    let mut out = Vec::new();
    for (_, corpus) in eval_corpora() {
        for at in &corpus.tables {
            let headers = at.table.headers();
            for (ci, col) in at.table.columns().iter().enumerate() {
                let neighbors = headers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, h)| (*h).to_owned())
                    .collect();
                out.push((col.clone(), neighbors));
            }
        }
    }
    let edges = edge_columns();
    let headers: Vec<String> = edges.iter().map(|c| c.name.clone()).collect();
    for (ci, col) in edges.into_iter().enumerate() {
        let neighbors = headers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ci)
            .map(|(_, h)| h.clone())
            .collect();
        out.push((col, neighbors));
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[track_caller]
fn assert_bits(new: &[f32], old: &[f32], what: &str) {
    assert_eq!(bits(new), bits(old), "{what}: {new:?} vs {old:?}");
}

/// The system's config, the Sherlock baseline's (values only), and
/// variants that drop the value embedding or sample few or all values.
fn configs() -> Vec<FeatureConfig> {
    let d = FeatureConfig::default();
    vec![
        d,
        FeatureConfig {
            header_embedding: false,
            ..d
        },
        FeatureConfig {
            value_embedding: false,
            ..d
        },
        FeatureConfig {
            value_embedding: false,
            header_embedding: false,
            ..d
        },
        FeatureConfig { max_values: 3, ..d },
        FeatureConfig { max_values: 0, ..d },
    ]
}

#[test]
fn extracted_features_match_the_transcription_bit_for_bit() {
    let fx = fixture();
    let embedders = [
        (&fx.global.embedder, &fx.trained, "trained"),
        (&Embedder::untrained(16), &fx.untrained, "untrained"),
    ];
    let char_dim = char_feature_dim();
    let mut checked = 0usize;
    for (col, _) in columns() {
        let sample: Vec<String> = col
            .sample(FeatureConfig::default().max_values)
            .into_iter()
            .map(Value::render)
            .collect();
        assert_bits(
            &tu_features::char_features(&sample),
            &seed::char_features(&sample),
            &format!("char_features of {:?}", col.name),
        );
        assert_bits(
            &tu_features::global_features(&col),
            &seed::global_features(&col),
            &format!("global_features of {:?}", col.name),
        );
        for (embedder, old, which) in &embedders {
            for config in configs() {
                let new = FeatureExtractor::new((*embedder).clone(), config).extract(&col);
                let old = seed::extract(old, &config, &col);
                let what = |part: &str| format!("{part} of {:?} ({which}, {config:?})", col.name);
                assert_eq!(new.len(), old.len(), "{}", what("length"));
                let (char_new, rest_new) = new.split_at(char_dim);
                let (char_old, rest_old) = old.split_at(char_dim);
                assert_bits(char_new, char_old, &what("char features"));
                let (global_new, emb_new) = rest_new.split_at(GLOBAL_FEATURE_DIM);
                let (global_old, emb_old) = rest_old.split_at(GLOBAL_FEATURE_DIM);
                assert_bits(global_new, global_old, &what("global features"));
                let dim = embedder.dim();
                if config.value_embedding {
                    assert_bits(
                        &emb_new[..dim],
                        &emb_old[..dim],
                        &what("mean value embedding"),
                    );
                }
                if config.header_embedding {
                    assert_bits(
                        &emb_new[emb_new.len() - dim..],
                        &emb_old[emb_old.len() - dim..],
                        &what("header embedding"),
                    );
                }
                assert_bits(&new, &old, &what("features"));
                checked += 1;
            }
        }
    }
    assert!(checked > 2_000, "only {checked} extractions checked");
}

#[test]
fn word_and_phrase_vectors_match_the_transcription_bit_for_bit() {
    let fx = fixture();
    let untrained = Embedder::untrained(16);
    let (vocab, _) = fx.trained.trained.as_ref().expect("trained transcription");
    assert_eq!(fx.global.embedder.vocab_len(), vocab.len());
    let mut words: Vec<String> = vocab.tokens().to_vec();
    words.extend(vocab.tokens().iter().map(|w| w.to_uppercase()));
    for col in edge_columns() {
        words.push(col.name.clone());
        words.extend(col.values.iter().map(Value::render));
    }
    words.extend(
        [
            "", "a", "ab", "abc", "A-B", "e-mail", "İ", "ß", "ﬁ", "Σ", "x\u{301}", "😀",
        ]
        .iter()
        .map(|s| (*s).to_owned()),
    );
    for w in &words {
        assert_bits(
            &fx.global.embedder.word_vector(w),
            &fx.trained.word_vector(w),
            &format!("trained word_vector({w:?})"),
        );
        assert_bits(
            &fx.global.embedder.phrase_vector(w),
            &fx.trained.phrase_vector(w),
            &format!("trained phrase_vector({w:?})"),
        );
        assert_bits(
            &untrained.word_vector(w),
            &fx.untrained.word_vector(w),
            &format!("untrained word_vector({w:?})"),
        );
        assert_bits(
            &untrained.phrase_vector(w),
            &fx.untrained.phrase_vector(w),
            &format!("untrained phrase_vector({w:?})"),
        );
    }
}

#[test]
fn featurize_matches_the_transcription_bit_for_bit() {
    let fx = fixture();
    // The scaler `train_global` fit, refit on transcribed rows of the
    // same corpus in the same order: equal rows give an equal scaler.
    let mut rows = Vec::new();
    for at in &fx.corpus.tables {
        let headers = at.table.headers();
        for (ci, col) in at.table.columns().iter().enumerate() {
            let neighbors: Vec<&str> = headers
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ci)
                .map(|(_, h)| *h)
                .collect();
            rows.push(seed::raw_row(&fx.trained, col, &neighbors));
        }
    }
    let scaler = StandardScaler::fit(&rows);
    let model = &fx.global.embedding;
    let mut columns = columns();
    columns.extend(fx.corpus.tables.iter().flat_map(|at| {
        let headers = at.table.headers();
        at.table
            .columns()
            .iter()
            .enumerate()
            .map(|(ci, col)| {
                let neighbors = headers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ci)
                    .map(|(_, h)| (*h).to_owned())
                    .collect();
                (col.clone(), neighbors)
            })
            .collect::<Vec<_>>()
    }));
    for (col, neighbors) in &columns {
        let neighbors: Vec<&str> = neighbors.iter().map(String::as_str).collect();
        for context in [&neighbors[..], &[]] {
            let mut old = seed::raw_row(&fx.trained, col, context);
            scaler.transform_inplace(&mut old);
            assert_bits(
                &model.featurize(col, context),
                &old,
                &format!("featurize({:?}, {context:?})", col.name),
            );
        }
    }
}
