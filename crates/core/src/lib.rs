//! # staccato-core
//!
//! The Staccato approximation — the primary contribution of Kumar & Ré
//! (VLDB 2011, §3).
//!
//! Given a per-line OCR SFA, Staccato produces a smaller SFA whose edges
//! are *chunks*: each of the (at most) `m` remaining edges carries the `k`
//! highest-probability strings of the sub-SFA it replaced. With `m = 1`
//! the output is exactly k-MAP; as `m` grows toward the original edge
//! count the output approaches the full SFA — the knob that trades recall
//! for query performance.
//!
//! * [`findmin`] — `FindMinSFA` (Algorithm 1): grow a seed node set into
//!   the minimal region that forms a valid sub-SFA (unique entry, unique
//!   exit, no external edges on interior nodes).
//! * [`mod@collapse`] — replace a region with a single edge holding the
//!   region's top-k strings (`Collapse`). By Proposition 3.1 this is the
//!   mass-optimal choice per chunk.
//! * [`greedy`] — Algorithm 2: repeatedly collapse the adjacent-edge-pair
//!   region that loses the least probability mass, until at most `m` edges
//!   remain. Uses the forward/backward-mass factorization for O(1)
//!   candidate scoring and caches candidate regions across iterations, the
//!   paper's stated optimization.
//! * [`tuning`] — §3.2's automated parameter selection: fit the Table 1
//!   size model, then binary-search the smallest `m` meeting a recall
//!   constraint within a storage budget.

#![forbid(unsafe_code)]

mod chain;
pub mod collapse;
pub mod findmin;
pub mod greedy;
pub mod tuning;

pub use collapse::{collapse, extract_region};
pub use findmin::{find_min_sfa, Reach, Region};
pub use greedy::{approximate, StaccatoParams};
pub use tuning::{tune, SizeModel, TuningConstraints, TuningOutcome};
