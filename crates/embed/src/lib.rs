//! # tu-embed
//!
//! A substitute for FastText, the pretrained subword word embeddings
//! behind the paper's semantic header matching, trained here from
//! scratch on the generated corpus: subword (character n-gram) hashing
//! embeddings combined with a skip-gram/negative-sampling trainer.
//! Supplies the two properties the paper's semantic header-matching
//! step needs — synonym geometry ("salary" ≈ "income") learned from
//! co-occurrence, and out-of-vocabulary robustness from subwords.

#![warn(missing_docs)]

pub mod embedder;
pub mod hashing;
pub mod skipgram;
pub mod vocab;

pub use embedder::{EmbedScratch, Embedder};
pub use skipgram::{cosine, train, SkipGramConfig, SkipGramModel};
pub use vocab::Vocabulary;
