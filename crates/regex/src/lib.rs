//! # tu-regex
//!
//! A from-scratch regular-expression substrate for the CIDR'22 *Making
//! Table Understanding Work in Practice* reproduction:
//!
//! * a parser for a pragmatic dialect (classes, shorthand escapes,
//!   counted quantifiers, alternation, anchors),
//! * a Thompson-NFA / Pike-VM engine with **linear-time** matching —
//!   safe against pathological patterns when scanning untrusted cell
//!   values in the pipeline's value-lookup step,
//! * shape-based **regex synthesis** from example values, the mechanism
//!   DPBD uses to turn a demonstrated column into a labeling function
//!   (paper Figure 3, reference \[5\]),
//! * a naive backtracking [`oracle`] used for differential testing.

#![warn(missing_docs)]

pub mod ast;
pub mod nfa;
pub mod oracle;
pub mod parser;
pub mod synthesize;

pub use ast::{Ast, CharMatcher, ClassItem};
pub use nfa::Regex;
pub use parser::{parse, ParseError, MAX_REPEAT};
pub use synthesize::{synthesize, SynthesisConfig, SynthesizedRegex, MAX_SYNTHESIZED_STATES};
