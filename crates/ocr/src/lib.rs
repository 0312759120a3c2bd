//! # staccato-ocr
//!
//! A stochastic OCR *channel simulator*, standing in for OCRopus plus the
//! paper's scanned datasets (Hathi Trust Congress acts, JSTOR literature,
//! self-scanned DB papers), none of which ship with the paper.
//!
//! What the Staccato experiments actually exercise is the **shape** of the
//! OCR output, not the pixels: a per-line stochastic finite automaton that
//! is a chain-with-bubbles DAG, carries a weighted arc for (almost) every
//! printable ASCII character per position, satisfies the unique path
//! property, and whose MAP string is wrong at a controlled per-character
//! rate while the true string survives with lower probability. This crate
//! reproduces exactly those properties with a seeded RNG:
//!
//! * [`confusion`] — the glyph-confusion model: which characters OCR
//!   mistakes for which (`o`↔`0`, `l`↔`1`↔`I`, `rn`↔`m`, …), with separate
//!   error rates for letters, digits, and punctuation;
//! * [`channel`] — clean line → SFA, with full-alphabet emission
//!   distributions and branching gadgets for segmentation uncertainty
//!   (missed spaces, merged glyph pairs), constructed so the unique path
//!   property provably holds (branch supports are disjoint on first
//!   characters);
//! * [`corpus`] — deterministic generators for the three evaluation
//!   datasets (CA/LT/DB) with the paper's query terms embedded at known
//!   rates, plus the Google-Books-style scale-up corpus of §5.4.

#![forbid(unsafe_code)]

pub mod channel;
pub mod confusion;
pub mod corpus;

pub use channel::{Channel, ChannelConfig};
pub use confusion::ConfusionModel;
pub use corpus::{generate, CorpusKind, Dataset, Document};
