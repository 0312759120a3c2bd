//! # staccato-sfa
//!
//! The stochastic finite automaton (SFA) data model of Kumar & Ré,
//! *Probabilistic Management of OCR Data using an RDBMS* (VLDB 2011),
//! together with the inference primitives every other Staccato subsystem is
//! built on.
//!
//! An SFA is a labelled DAG `S = (V, E, s, f, δ)` with a distinguished start
//! node `s` and final node `f`. The transition function
//! `δ : E × Σ⁺ → [0, 1]` assigns probabilities to *emissions* on each edge;
//! in an unpruned SFA the probabilities on the out-edges of each non-final
//! node sum to one. Each labelled source-to-sink path emits the
//! concatenation of its labels with probability equal to the product of its
//! emission probabilities, so the SFA is a discrete distribution over
//! strings — exactly the object OCRopus produces for one scanned line.
//!
//! This crate provides:
//!
//! * [`Sfa`] — the generalized SFA (edges may emit multi-character strings,
//!   as required by the paper's `Collapse` operation), with cheap edge-level
//!   mutation so the approximation algorithms in `staccato-core` can rewrite
//!   graphs in place.
//! * [`viterbi`] — the MAP string (the most likely emission).
//! * [`kbest`] — the k highest-probability labelled paths (k-MAP).
//! * [`mass`] — sum-product total retained probability mass and forward node
//!   masses.
//! * [`codec`] — the compact binary blob format used when SFAs are stored as
//!   large objects inside the RDBMS.
//! * [`validate`] — structural and stochastic invariant checks, including the
//!   paper's *unique path property*.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod kbest;
pub mod mass;
pub mod model;
pub mod validate;
pub mod viterbi;

pub use codec::{ArenaEdge, ArenaEmission, DecodeArena};
pub use error::SfaError;
pub use kbest::{k_best_paths, KBestPath};
pub use mass::{backward_mass, forward_mass, kl_divergence, string_probability, total_mass};
pub use model::{Edge, EdgeId, Emission, NodeId, Sfa, SfaBuilder};
pub use validate::{check_stochastic, check_structure, check_unique_paths};
pub use viterbi::{map_path, map_string};
