//! # staccato
//!
//! Facade crate for the Staccato reproduction: *Probabilistic Management of
//! OCR Data using an RDBMS* (Kumar & Ré, VLDB 2011).
//!
//! Staccato keeps the probabilistic model produced by OCR — a stochastic
//! finite automaton (SFA) per scanned line — inside a relational database
//! and lets SQL `LIKE` / regex predicates run directly over it, trading
//! recall for query performance through a chunk-based approximation.
//!
//! Each subsystem lives in its own crate and is re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sfa`] | `staccato-sfa` | SFA model, Viterbi/k-best/mass inference, blob codec |
//! | [`automata`] | `staccato-automata` | regex & LIKE → DFA compiler, dictionary trie |
//! | [`approx`] | `staccato-core` | FindMinSFA, Collapse, greedy chunking, parameter tuning |
//! | [`ocr`] | `staccato-ocr` | OCR channel simulator and the CA/LT/DB corpus generators |
//! | [`storage`] | `staccato-storage` | pages, buffer pool, heap files, B+-tree, blob store, catalog |
//! | [`query`] | `staccato-query` | representation stores, filescan/index executors, metrics |
//! | [`server`] | `staccato-server` | HTTP/1.1 service tier: SQL over the wire, rate limiting, stats |
//!
//! Querying goes through the [`Staccato`] session API: open (or load) a
//! store, optionally register a §4 inverted index, and run queries —
//! either as SQL text (`Staccato::sql` / `Staccato::prepare`, the
//! paper's §2.3 interface) or as fluent [`QueryRequest`]s. Both lower to
//! one planner, which picks the access path (filescan vs. index probe,
//! optionally wrapped in a streaming aggregate) and reports the plan and
//! [`ExecStats`] with every result.
//!
//! ```ignore
//! use staccato::{QueryRequest, SqlValue, Staccato};
//! let session = Staccato::load(db, &dataset, &opts)?;
//! let out = session.sql(
//!     "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Ford%' LIMIT 100",
//! )?;
//! let same = session.execute(&QueryRequest::like("%Ford%").num_ans(100))?;
//! ```
//!
//! See `examples/quickstart.rs` and `examples/sql_console.rs` for an
//! end-to-end tour and DESIGN.md for the experiment map.

#![forbid(unsafe_code)]

pub use staccato_automata as automata;
pub use staccato_core as approx;
pub use staccato_ocr as ocr;
pub use staccato_query as query;
pub use staccato_server as server;
pub use staccato_sfa as sfa;
pub use staccato_storage as storage;

pub use staccato_query::{
    AggregateFunc, AggregateResult, Answer, Approach, CheckpointPolicy, DocumentInput, ExecStats,
    HistoryRow, IngestBatch, IngestReceipt, IngestStats, Plan, PlanPreference, PreparedQuery,
    QueryOutput, QueryRequest, SqlTable, SqlValue, Staccato,
};
pub use staccato_storage::{SyncPolicy, WalStats};
