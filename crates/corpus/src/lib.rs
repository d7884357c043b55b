//! # tu-corpus
//!
//! A synthetic substitute for GitTables, the corpus of relational tables
//! from CSV files on GitHub that SigmaTyper pretrains on. No such corpus
//! ships with this workspace, so this crate generates one: a seeded
//! generator of annotated relational tables with ground-truth semantic
//! column types. Provides per-type value generators backed by the knowledge-base
//! dictionaries, schema templates with realistic column co-occurrence,
//! database-like vs. web-like structural profiles (§2.2 of the paper),
//! covariate-shift knobs, label-shift remapping, and out-of-distribution
//! column injection (Figure 1).

#![warn(missing_docs)]

pub mod corpus;
pub mod generators;
pub mod headers;
pub mod ood;
pub mod params;
pub mod shift;
pub mod templates;

pub use corpus::{generate_corpus, AnnotatedTable, Corpus, CorpusConfig};
pub use ood::OodKind;
pub use params::{DictSlice, GenParams};
pub use shift::{domain_corpus, remap_labels};
pub use templates::{TableProfile, Template, TEMPLATES};
