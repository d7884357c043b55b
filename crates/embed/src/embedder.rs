//! The embedder: trained word vectors + subword hashing (FastText-like).

use crate::hashing::{fnv1a_extend, hash_vector, FNV1A_OFFSET};
use crate::skipgram::{cosine, train, SkipGramConfig, SkipGramModel};
use crate::vocab::Vocabulary;

/// Reusable buffers for [`Embedder::phrase_into`]: the current token,
/// its lowercased form, its padded characters and the vectors of one
/// n-gram and one word. They grow to the longest word seen and are
/// never shrunk, so embedding many phrases through one scratch
/// allocates nothing per phrase or n-gram, and per word only to
/// lowercase a non-ASCII one.
#[derive(Debug, Clone, Default)]
pub struct EmbedScratch {
    token: String,
    lower: String,
    padded: Vec<char>,
    gram: Vec<f32>,
    word: Vec<f32>,
}

/// Word/phrase embedder combining trained skip-gram vectors with
/// deterministic subword (character n-gram) hash vectors.
///
/// In-vocabulary words get `trained ⊕ subword` geometry; out-of-vocabulary
/// words still embed via their n-grams, so `"e-mail"` lands near
/// `"email"` — the OOV robustness FastText supplies in the paper.
#[derive(Debug, Clone)]
pub struct Embedder {
    vocab: Vocabulary,
    model: SkipGramModel,
    dim: usize,
    ngram_lo: usize,
    ngram_hi: usize,
    subword_weight: f32,
}

impl Embedder {
    /// Train an embedder over token sequences.
    #[must_use]
    pub fn train(sequences: &[Vec<String>], config: &SkipGramConfig) -> Self {
        let vocab = Vocabulary::build(sequences, 1);
        let model = if vocab.is_empty() {
            SkipGramModel {
                dim: config.dim,
                embeddings: Vec::new(),
            }
        } else {
            train(&vocab, sequences, config)
        };
        Embedder {
            vocab,
            model,
            dim: config.dim,
            ngram_lo: 3,
            ngram_hi: 4,
            subword_weight: 0.15,
        }
    }

    /// An untrained embedder: subword hashing only. Useful as a cold-start
    /// fallback and in tests.
    #[must_use]
    pub fn untrained(dim: usize) -> Self {
        Embedder {
            vocab: Vocabulary::default(),
            model: SkipGramModel {
                dim,
                embeddings: Vec::new(),
            },
            dim,
            ngram_lo: 3,
            ngram_hi: 4,
            subword_weight: 1.0,
        }
    }

    /// Embedding dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trained vocabulary words.
    #[must_use]
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Feed everything that decides this embedder's vectors to
    /// `absorb`, as little-endian bytes: the dimension, the n-gram
    /// range, the subword weight, then each vocabulary word
    /// (length-prefixed) with its trained vector, in vocabulary order.
    /// Embedders that feed equal bytes embed every phrase identically,
    /// so a hash of these bytes can stand for the embedder in a cache
    /// key.
    pub fn absorb_state(&self, mut absorb: impl FnMut(&[u8])) {
        for n in [self.dim, self.ngram_lo, self.ngram_hi, self.vocab.len()] {
            absorb(&(n as u64).to_le_bytes());
        }
        absorb(&self.subword_weight.to_bits().to_le_bytes());
        for (idx, word) in self.vocab.tokens().iter().enumerate() {
            absorb(&(word.len() as u64).to_le_bytes());
            absorb(word.as_bytes());
            for x in self.model.vector(idx) {
                absorb(&x.to_bits().to_le_bytes());
            }
        }
    }

    /// Mean of the hash vectors of `word`'s character n-grams (sizes
    /// `ngram_lo..=ngram_hi`, FastText's `<`/`>` padding, each character
    /// lowercased) into `out`. Each n-gram's UTF-8 bytes are hashed in
    /// place from the padded characters, and its vector is written into
    /// `scratch.gram`, so no n-gram allocates. A padded word shorter
    /// than `n` counts as one n-gram of all its characters.
    fn subword_into(&self, word: &str, scratch: &mut EmbedScratch, out: &mut [f32]) {
        let EmbedScratch { padded, gram, .. } = scratch;
        padded.clear();
        padded.push('<');
        padded.extend(word.chars().flat_map(char::to_lowercase));
        padded.push('>');
        gram.resize(self.dim, 0.0);
        out.fill(0.0);
        let mut count = 0usize;
        for n in self.ngram_lo..=self.ngram_hi {
            for g in padded.windows(n.min(padded.len())) {
                let mut utf8 = [0u8; 4];
                let h = g.iter().fold(FNV1A_OFFSET, |h, c| {
                    fnv1a_extend(h, c.encode_utf8(&mut utf8).as_bytes())
                });
                hash_vector(h, gram);
                for (a, h) in out.iter_mut().zip(gram.iter()) {
                    *a += h;
                }
                count += 1;
            }
        }
        if count > 0 {
            for a in out.iter_mut() {
                *a /= count as f32;
            }
        }
    }

    /// [`Embedder::word_vector`] into `out`, on reused buffers.
    fn word_into(&self, word: &str, scratch: &mut EmbedScratch, out: &mut [f32]) {
        let mut lower = std::mem::take(&mut scratch.lower);
        lower.clear();
        if word.is_ascii() {
            lower.push_str(word);
            lower.make_ascii_lowercase();
        } else {
            // `str::to_lowercase` has context rules (a final `Σ` becomes
            // `ς`) that per-character lowercasing lacks; only non-ASCII
            // words pay its allocation.
            lower.push_str(&word.to_lowercase());
        }
        self.subword_into(&lower, scratch, out);
        if let Some(idx) = self.vocab.get(&lower) {
            for x in out.iter_mut() {
                *x *= self.subword_weight;
            }
            let trained = self.model.vector(idx);
            for (a, t) in out.iter_mut().zip(trained) {
                *a += t;
            }
        }
        scratch.lower = lower;
    }

    /// Embed a single word (lowercased).
    ///
    /// In-vocabulary words are dominated by their trained vector (the
    /// subword component only adds a small spelling-robustness term);
    /// out-of-vocabulary words fall back to pure subword hashing.
    #[must_use]
    pub fn word_vector(&self, word: &str) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.word_into(word, &mut EmbedScratch::default(), &mut out);
        out
    }

    /// Embed a phrase: mean of word vectors over its tokens.
    #[must_use]
    pub fn phrase_vector(&self, phrase: &str) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.phrase_into(phrase, &mut EmbedScratch::default(), &mut out);
        out
    }

    /// [`Embedder::phrase_vector`] into `out` (of length
    /// [`Embedder::dim`]), reusing `scratch`'s buffers (see
    /// [`EmbedScratch`] for what still allocates). The tokens are the
    /// lowercased alphanumeric runs of `tu_text::word_tokens`, built one
    /// at a time in the scratch; the zero vector when there are none.
    pub fn phrase_into(&self, phrase: &str, scratch: &mut EmbedScratch, out: &mut [f32]) {
        out.fill(0.0);
        let mut token = std::mem::take(&mut scratch.token);
        let mut word = std::mem::take(&mut scratch.word);
        word.resize(self.dim, 0.0);
        let mut tokens = 0usize;
        let mut chars = phrase.chars().peekable();
        while chars.peek().is_some() {
            token.clear();
            for c in chars.by_ref() {
                if c.is_alphanumeric() {
                    token.extend(c.to_lowercase());
                } else if !token.is_empty() {
                    break;
                }
            }
            if token.is_empty() {
                break;
            }
            self.word_into(&token, scratch, &mut word);
            for (a, x) in out.iter_mut().zip(&word) {
                *a += x;
            }
            tokens += 1;
        }
        if tokens > 0 {
            for a in out.iter_mut() {
                *a /= tokens as f32;
            }
        }
        scratch.token = token;
        scratch.word = word;
    }

    /// Cosine similarity between two phrases.
    #[must_use]
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        cosine(&self.phrase_vector(a), &self.phrase_vector(b))
    }

    /// Rank `candidates` by similarity to `query`, best first.
    #[must_use]
    pub fn rank<'a>(&self, query: &str, candidates: &[&'a str]) -> Vec<(&'a str, f32)> {
        let qv = self.phrase_vector(query);
        let mut scored: Vec<(&str, f32)> = candidates
            .iter()
            .map(|c| (*c, cosine(&qv, &self.phrase_vector(c))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(b.0)));
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> Embedder {
        let mut seqs: Vec<Vec<String>> = Vec::new();
        let money = ["salary", "income", "wage", "pay"];
        let place = ["city", "town", "location"];
        for i in 0..150 {
            let m = money[i % money.len()];
            let p = place[i % place.len()];
            seqs.push(
                ["monthly", m, "gross", "amount"]
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect(),
            );
            seqs.push(
                ["office", p, "branch", "site"]
                    .iter()
                    .map(|s| (*s).to_string())
                    .collect(),
            );
        }
        Embedder::train(&seqs, &SkipGramConfig::default())
    }

    #[test]
    fn synonyms_beat_unrelated() {
        let e = trained();
        assert!(e.similarity("salary", "income") > e.similarity("salary", "city"));
    }

    #[test]
    fn oov_words_embed_via_subwords() {
        let e = trained();
        let v = e.word_vector("e-mail");
        assert!(v.iter().any(|x| *x != 0.0));
        // Similar spellings are geometrically close even untrained.
        let u = Embedder::untrained(32);
        assert!(u.similarity("email", "e-mail") > u.similarity("email", "latitude"));
    }

    #[test]
    fn phrase_embedding_and_empty() {
        let e = Embedder::untrained(16);
        let v = e.phrase_vector("first name");
        assert_eq!(v.len(), 16);
        let empty = e.phrase_vector("");
        assert!(empty.iter().all(|x| *x == 0.0));
        assert_eq!(e.similarity("", "anything"), 0.0);
    }

    #[test]
    fn ranking_orders_by_similarity() {
        let e = trained();
        let ranked = e.rank("income", &["city", "salary", "town"]);
        assert_eq!(ranked[0].0, "salary");
        assert!(ranked[0].1 >= ranked[1].1 && ranked[1].1 >= ranked[2].1);
    }

    #[test]
    fn deterministic() {
        let a = trained();
        let b = trained();
        assert_eq!(a.word_vector("salary"), b.word_vector("salary"));
    }

    #[test]
    fn untrained_has_no_vocab() {
        let u = Embedder::untrained(8);
        assert_eq!(u.vocab_len(), 0);
        assert_eq!(u.dim(), 8);
    }

    #[test]
    fn absorbed_state_is_deterministic_and_tells_embedders_apart() {
        let state = |e: &Embedder| {
            let mut bytes = Vec::new();
            e.absorb_state(|b| bytes.extend_from_slice(b));
            bytes
        };
        let seqs = vec![vec!["salary".to_string(), "income".to_string()]; 40];
        let with_seed = |seed| {
            Embedder::train(
                &seqs,
                &SkipGramConfig {
                    seed,
                    ..SkipGramConfig::default()
                },
            )
        };
        assert_eq!(state(&with_seed(1)), state(&with_seed(1)));
        assert_ne!(state(&with_seed(1)), state(&with_seed(2)));
        assert_ne!(
            state(&Embedder::untrained(8)),
            state(&Embedder::untrained(16))
        );
    }
}
