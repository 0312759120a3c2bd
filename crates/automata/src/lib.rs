//! # staccato-automata
//!
//! Deterministic finite automata for Staccato's query language.
//!
//! The paper's queries are SQL `LIKE` predicates and a small regular-
//! expression dialect (keywords, `\d` for digits, `\x` for any character,
//! alternation, Kleene star), which Staccato "translates into a DFA using
//! standard techniques [Hopcroft–Motwani–Ullman]" (§2.1). This crate is
//! that compiler, written from scratch:
//!
//! * [`regex`] — parser for the paper's dialect into an AST;
//! * [`like`] — SQL `LIKE` patterns (`%`, `_`) translated to the same AST;
//! * [`nfa`] — Thompson construction;
//! * [`dfa`] — subset construction, Moore minimization, and the
//!   *containment closure* `Σ* · L(R) · Σ*` with absorbing accept states,
//!   which is the form queries take when asking "does the document contain
//!   a match" over probabilistic text;
//! * [`dense`] — byte-class-compressed dense transition tables, the form
//!   the scan kernel executes;
//! * [`trie`] — the dictionary trie-automaton of §4 (a DFA with one final
//!   state per dictionary term) used to build the inverted index;
//! * [`anchor`] — left-anchor extraction for index-assisted evaluation of
//!   anchored regular expressions (§2.1, §5.3).
//!
//! The alphabet is printable ASCII (`0x20..=0x7E`), matching the OCR
//! channel's output alphabet.

#![forbid(unsafe_code)]

pub mod anchor;
pub mod dense;
pub mod dfa;
pub mod error;
pub mod like;
pub mod nfa;
pub mod regex;
pub mod trie;

pub use anchor::{left_anchor, required_literal};
pub use dense::DenseDfa;
pub use dfa::Dfa;
pub use error::PatternError;
pub use like::like_to_ast;
pub use nfa::Nfa;
pub use regex::{parse, Ast, ByteClass};
pub use trie::{TermId, Trie};

/// Lowest byte of the query alphabet (space).
pub const ALPHA_LO: u8 = 0x20;
/// Highest byte of the query alphabet (`~`).
pub const ALPHA_HI: u8 = 0x7E;
