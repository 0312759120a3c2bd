//! # staccato-query
//!
//! Query processing over probabilistic OCR data stored in the RDBMS: the
//! layer that makes `SELECT … WHERE DocData LIKE '%Ford%'` work when
//! `DocData` is a distribution over strings.
//!
//! ## The session API
//!
//! All querying goes through a [`Staccato`] session. A session wraps a
//! loaded [`OcrStore`], owns any registered §4 inverted indexes, and
//! executes queries from either surface — a SQL string ([`sql`]) or the
//! declarative [`QueryRequest`] builder. Both lower to the same planner:
//! each request compiles into an explicit [`Plan`] — a streaming
//! `FileScan`, an `IndexProbe` chosen automatically
//! when the pattern is left-anchored and a registered index covers the
//! anchor, or an `Aggregate` folding either access path into a streaming
//! `COUNT(*)`/`SUM(Prob)`/`AVG(Prob)` — and every result carries the
//! chosen plan and its [`ExecStats`]:
//!
//! ```ignore
//! let session = Staccato::load(db, &dataset, &LoadOptions::default())?;
//! session.register_index(&trie, "inv")?;
//! let out = session.sql(
//!     "SELECT DataKey, Prob FROM StaccatoData \
//!      WHERE Data LIKE '%Ford%' AND Prob >= 0.25 LIMIT 100",
//! )?;
//! let prepared = session.prepare("SELECT COUNT(*) FROM MAPData WHERE Data LIKE ?")?;
//! let count = session.execute_prepared(&prepared, &[SqlValue::text("%Ford%")])?;
//! println!("{}", session.sql("EXPLAIN SELECT DataKey FROM StaccatoData \
//!      WHERE Data LIKE '%Ford%'")?.explain.unwrap());
//! ```
//!
//! Execution is streaming end to end: executors pull rows one line at a
//! time from the store's cursors and rank through a bounded top-k heap,
//! so query memory is `O(NumAns + one line)` regardless of corpus size.
//!
//! ## Modules
//!
//! * [`session`] — the [`Staccato`] session object and [`QueryOutput`];
//! * [`plan`] — [`QueryRequest`], the [`Plan`] enum, the planner, and
//!   [`ExecStats`];
//! * [`query`] — the compiled [`query::Query`]: a `LIKE` pattern or
//!   regex compiled to a containment DFA, with its left anchor and length
//!   bounds for index use;
//! * [`kernel`] — the compiled per-query [`ScanKernel`]: `Pr[q]` over an
//!   SFA blob via the forward dynamic program of \[Kimelfeld & Ré / Ré et
//!   al.\], over string sets for MAP/k-MAP (each string is a disjoint
//!   event, §3), and §4's projection from posted edges for index probes
//!   — the one evaluator every executor runs;
//! * [`mod@reference`] — the same semantics written naively
//!   ([`eval_sfa`]/[`eval_strings`]/[`reference::project_eval`]): the
//!   differential-test oracle the kernel is held bit-identical to,
//!   called by no product code;
//! * [`store`] — the Table 5 schema and its streaming row cursors:
//!   loading a corpus through the OCR channel into MasterData / kMAPData /
//!   FullSFAData / StaccatoData / StaccatoGraph / GroundTruth tables;
//! * [`exec`] — streaming filescan executors for the four access methods
//!   and the bounded [`exec::TopK`] answer ranking;
//! * [`metrics`] — ground truth and precision/recall/F1 (the paper's
//!   quality measures);
//! * [`sql`] — the textual SQL front-end: lexer → recursive-descent
//!   parser → AST → lowering into a [`QueryRequest`], plus prepared
//!   statements with `?` parameter binding;
//! * [`agg`] — probabilistic aggregation (`E[COUNT]`, `E[SUM]`, the
//!   Poisson–binomial count distribution) over answer relations, and the
//!   streaming accumulator behind SQL aggregate plans;
//! * [`invindex`] — §4's dictionary-based inverted index: construction
//!   (Algorithms 3–4), the direct-indexing blow-up counter (Figure 5),
//!   and the probe executor: left-anchor lookup, borrowed point fetch of
//!   each candidate blob, projection on the kernel;
//! * [`ingest`] — the WAL-backed write path's types: [`IngestBatch`],
//!   [`IngestReceipt`], the durable `StaccatoHistory` row, and the
//!   batch codec replayed by [`Staccato::recover`].

#![forbid(unsafe_code)]

pub mod agg;
pub mod cache;
pub mod error;
pub mod exec;
pub mod ingest;
pub mod invindex;
pub mod kernel;
pub mod metrics;
pub mod plan;
pub mod query;
pub mod reference;
pub mod session;
pub mod sql;
pub mod store;

pub use agg::{
    count_distribution, expected_count, expected_sum, threshold_probability, AggregateFunc,
    AggregateResult, StreamingAggregate,
};
pub use cache::QueryCacheStats;
pub use error::QueryError;
pub use exec::{Answer, Approach, TopK};
pub use ingest::{DocumentInput, HistoryRow, IngestBatch, IngestReceipt, IngestStats};
pub use invindex::{build_index, direct_posting_count_log10, InvertedIndex};
pub use kernel::{EvalOutcome, ScanKernel, ScanScratch};
pub use metrics::{evaluate_answers, ground_truth, Metrics};
pub use plan::{Dialect, ExecStats, Plan, PlanPreference, QueryRequest, WalCounters};
pub use query::Query;
pub use reference::{eval_sfa, eval_strings};
pub use session::{CheckpointPolicy, QueryOutput, RecoverOptions, Staccato};
pub use sql::{PreparedQuery, SqlError, SqlTable, SqlValue};
pub use store::{LoadOptions, OcrStore, RepresentationSizes};
