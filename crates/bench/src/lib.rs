//! # staccato-bench
//!
//! Shared harness for the experiment drivers (`src/bin/experiments.rs`,
//! one sub-command per table/figure of the paper) and the load generators
//! in `src/bin/`.
//!
//! * [`workload`] — the paper's Table 6 query workload (7 queries per
//!   dataset: 5 keywords + 2 regexes) and dictionary construction;
//! * [`mem`] — an in-memory representation cache for parameter sweeps:
//!   full SFAs are built once per corpus and k-MAP/Staccato variants are
//!   derived (and memoized) per `(m, k)`, with blobs kept *encoded* so
//!   every evaluation pays the same decode cost a buffer-pool read would;
//! * [`timing`] — median-of-N wall-clock measurement (the paper averages
//!   over 7 runs).

#![forbid(unsafe_code)]

pub mod mem;
pub mod timing;
pub mod workload;

pub use mem::MemCorpus;
pub use timing::time_median;
pub use workload::{corpus_dictionary, table6_queries, QuerySpec};
