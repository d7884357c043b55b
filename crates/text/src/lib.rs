//! # tu-text
//!
//! Text utilities shared across the reproduction: header/word tokenizers,
//! header normalization with abbreviation expansion, casing detection, and
//! the string-similarity metrics behind the syntactic header-matching step
//! of the SigmaTyper pipeline (§4.3 of the paper).

#![warn(missing_docs)]

pub mod normalize;
pub mod similarity;
pub mod stem;
pub mod tokenize;

pub use normalize::{apply_case, detect_case, normalize_header, normalize_value, CaseStyle};
pub use similarity::{edit_similarity, fuzzy_score, jaro_winkler, levenshtein, token_dice};
pub use stem::{stem_phrase, stem_token};
pub use tokenize::{char_ngrams, header_tokens, word_count, word_tokens};
