//! The `Staccato` session: the single entry point for querying a loaded
//! OCR store.
//!
//! A session wraps an [`OcrStore`], owns any registered §4 inverted
//! indexes, and executes queries arriving on either surface — the fluent
//! [`QueryRequest`] builder or a SQL string ([`Staccato::sql`],
//! [`Staccato::prepare`]): compile the pattern, let the planner pick a
//! [`Plan`], run the matching streaming executor, and return the ranked
//! answers (or aggregate scalar) together with the plan and its
//! [`ExecStats`]. This mirrors the paper's posture that probabilistic
//! queries are ordinary SQL — the user states *what* to match
//! (`LIKE '%Ford%'`) and the engine decides *how* (filescan vs.
//! index-assisted probe), transparently.
//!
//! # Sharing model
//!
//! Every public method takes `&self`, `Staccato` is `Send + Sync`
//! (asserted at compile time below), and a read that finds what it
//! wants takes read latches, plus a page slot's mutex for as long as an
//! `Arc` clone: a buffer-pool hit takes its shard's read side (the write
//! side covers misses/eviction only) and clones the page's snapshot,
//! the registered-index list is an `Arc` snapshot cloned under a read
//! latch (planning never blocks behind an index build), and a
//! compiled-query cache hit takes one read latch. Share one session
//! across client threads as `Arc<Staccato>` — no external locking:
//!
//! ```ignore
//! let session = Arc::new(Staccato::load(db, &dataset, &LoadOptions::default())?);
//! session.register_index(&trie, "inv")?;
//! let handles: Vec<_> = (0..8)
//!     .map(|_| {
//!         let session = Arc::clone(&session);
//!         std::thread::spawn(move || {
//!             session.sql("SELECT DataKey, Prob FROM StaccatoData \
//!                          WHERE Data LIKE '%Ford%' LIMIT 100")
//!         })
//!     })
//!     .collect();
//! ```
//!
//! Repeated patterns reuse a compiled DFA from a bounded cache whose
//! entries never go stale; the plan is derived again for every statement.

use crate::agg::{AggregateResult, StreamingAggregate};
use crate::cache::{QueryCache, QueryCacheStats};
use crate::error::QueryError;
use crate::exec::{exec_filescan, Answer, Sink, TopK};
use crate::ingest::{
    decode_batch, encode_batch, like_match, DecodedBatch, DecodedDoc, DocumentInput, HistoryRow,
    IngestBatch, IngestReceipt, IngestStats,
};
use crate::invindex::{build_index, exec_index_probe, forget_index, InvertedIndex, PostingScratch};
use crate::plan::{
    plan_request, render_explain, render_explain_analyze, ExecStats, Plan, QueryRequest,
    WalCounters,
};
use crate::query::Query;
use crate::sql::{
    parse_statement, HistorySelect, Insert, PreparedQuery, SqlError, SqlValue, Statement,
};
use crate::store::{build_line, build_line_from_sfa, LoadOptions, OcrStore, RepresentationSizes};
use parking_lot::{Mutex, RwLock};
use staccato_automata::Trie;
use staccato_ocr::Dataset;
use staccato_sfa::codec;
use staccato_storage::{Database, PoolStats, SyncPolicy, Wal, WalFlusher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Weak};
use std::time::Instant;

/// One registered inverted index. The index handle is `Arc`-shared so a
/// probe can keep executing against it after the registry lock is
/// released; the trie is retained so ingest can extend the postings
/// incrementally.
struct RegisteredIndex {
    name: String,
    index: Arc<InvertedIndex>,
    trie: Trie,
}

/// The single-writer half of the session: the attached WAL (if any),
/// the next batch sequence number, and the checkpoint-policy odometer.
/// Held while a batch is sequenced, logged, and applied — but *not*
/// while it is built or while its durability wait runs, so concurrent
/// writers construct in parallel and pipeline into the group-commit
/// flusher.
struct WriterState {
    wal: Option<Wal>,
    next_seq: u64,
    /// Batches applied since the last checkpoint (policy odometer).
    ckpt_batches_since: u64,
}

/// Session-cumulative ingest counters (the WAL's own counters live on
/// the [`Wal`] handle under the writer lock).
#[derive(Default)]
struct IngestTotals {
    batches: AtomicU64,
    docs: AtomicU64,
    replays: AtomicU64,
    checkpoints: AtomicU64,
}

/// Orders concurrent ingests so that they can build in parallel and
/// still commit in key order. [`Turnstile::reserve`] hands out a ticket
/// and a key range in one short critical section; the batch is built
/// with no latch held; [`Ticket::wait_turn`] admits tickets to the writer
/// latch strictly in the order they were issued; dropping the ticket
/// passes the turn on, whether its batch committed or failed.
#[derive(Default)]
struct Turnstile {
    state: Mutex<Turns>,
    turn: Condvar,
}

#[derive(Default)]
struct Turns {
    /// Tickets handed out so far (the next ticket's number).
    issued: u64,
    /// The ticket whose turn it is.
    serving: u64,
    /// First key of the next reservation: the committed tail plus the
    /// documents of every outstanding ticket.
    next_key: i64,
}

/// One batch's place in line. `first_key` is where its keys will land
/// unless an earlier ticket fails; the writer re-checks it against the
/// committed tail once its turn comes.
struct Ticket<'a> {
    turns: &'a Turnstile,
    number: u64,
    first_key: i64,
    docs: i64,
    committed: bool,
}

impl Turnstile {
    /// Take the next ticket and `docs` keys. `committed_tail` is asked
    /// only when no ticket is outstanding — the one moment it is exact —
    /// which also picks up lines that replay applied without tickets.
    fn reserve(&self, docs: usize, committed_tail: impl FnOnce() -> usize) -> Ticket<'_> {
        let mut t = self.state.lock();
        if t.issued == t.serving {
            t.next_key = committed_tail() as i64;
        }
        let ticket = Ticket {
            turns: self,
            number: t.issued,
            first_key: t.next_key,
            docs: docs as i64,
            committed: false,
        };
        t.issued += 1;
        t.next_key += docs as i64;
        ticket
    }

    fn wait_for(&self, number: u64) -> std::sync::MutexGuard<'_, Turns> {
        let mut t = self.state.lock();
        while t.serving != number {
            t = self.turn.wait(t).unwrap_or_else(|e| e.into_inner());
        }
        t
    }
}

impl Ticket<'_> {
    /// Block until every earlier ticket has passed its turn on.
    fn wait_turn(&self) {
        drop(self.turns.wait_for(self.number));
    }
}

impl Drop for Ticket<'_> {
    /// Pass the turn on — after waiting for it, so a ticket abandoned
    /// before its turn (a panicking build) cannot overtake an earlier
    /// one. An uncommitted batch hands its keys back: later
    /// reservations close the gap, and tickets already issued behind it
    /// find their range stale and rebuild.
    fn drop(&mut self) {
        let mut t = self.turns.wait_for(self.number);
        t.serving += 1;
        if !self.committed {
            t.next_key -= self.docs;
        }
        drop(t);
        self.turns.turn.notify_all();
    }
}

/// When the background checkpointer should snapshot the store. The
/// default is "never" (manual checkpoints only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many batches applied since the last one.
    every_batches: Option<u64>,
}

impl CheckpointPolicy {
    /// Checkpoint every `n` applied batches.
    pub fn every_batches(n: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_batches: Some(n.max(1)),
        }
    }

    fn due(&self, batches_since: u64) -> bool {
        self.every_batches.is_some_and(|n| batches_since >= n)
    }
}

/// Doorbell between the write path and the background checkpointer: the
/// ingest that crosses a policy threshold rings it (condvar, no
/// busy-wait) and moves on; the checkpointer thread snapshots off the
/// write path.
struct CheckpointSignal {
    state: Mutex<CheckpointerState>,
    wake: Condvar,
}

struct CheckpointerState {
    policy: CheckpointPolicy,
    pending: bool,
    shutdown: bool,
    thread: Option<std::thread::JoinHandle<()>>,
    runs: u64,
    errors: u64,
}

/// Owns the checkpointer's shutdown: dropped with the session (or when
/// [`Staccato::into_store`] dissolves it), it signals the thread and
/// joins it — unless the drop is running *on* that thread (the
/// checkpointer can hold the last `Arc<Staccato>`), where joining would
/// self-deadlock and detaching is correct: the loop observes `shutdown`
/// and returns right after.
struct CheckpointerSlot {
    signal: Arc<CheckpointSignal>,
}

impl CheckpointerSlot {
    fn new() -> CheckpointerSlot {
        CheckpointerSlot {
            signal: Arc::new(CheckpointSignal {
                state: Mutex::new(CheckpointerState {
                    policy: CheckpointPolicy::default(),
                    pending: false,
                    shutdown: false,
                    thread: None,
                    runs: 0,
                    errors: 0,
                }),
                wake: Condvar::new(),
            }),
        }
    }
}

impl Drop for CheckpointerSlot {
    fn drop(&mut self) {
        let handle = {
            let mut state = self.signal.state.lock();
            state.shutdown = true;
            state.thread.take()
        };
        self.signal.wake.notify_all();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// A query session over a loaded OCR store. All methods take `&self`;
/// share across threads as `Arc<Staccato>` (see the module docs).
///
/// # Write-path locking
///
/// An ingest takes its turn, then three latches order writers against
/// readers (always in this order — turn → writer → applies →
/// index_write):
///
/// 0. `turns` is not a latch but a queue. An ingest reserves a ticket
///    and its key range in one short critical section, builds its
///    artifacts (channel, k-best, `approximate`, encode) holding
///    nothing, then waits for its ticket's turn — so writers construct
///    in parallel and still commit in key order.
/// 1. `writer` serializes the sequenced part of an `ingest`: the WAL
///    append and the apply happen under it, in ticket order — so WAL
///    order always matches `DataKey` order. If an earlier ticket failed,
///    the batch is rebuilt here on the committed tail. The turn passes
///    on, and the *durability wait* runs, after the latch is released:
///    concurrent writers pipeline into the group-commit flusher and
///    share fsyncs.
/// 2. `applies` is the visibility gate. Queries hold its read side for
///    their whole execution; an ingest holds the write side while
///    inserting a batch's rows, history, and index postings — so a
///    reader observes a batch entirely or not at all, never partially.
/// 3. `index_write` serializes registrations. *Reads* of the registry
///    never wait for a build: `indexes` holds an `Arc` snapshot that
///    readers clone under its read side — the planner, ingest's posting
///    extension, and every registry getter work against the snapshot
///    that was current when they started, while `register_index` builds
///    the next one off to the side and swaps it in under the write side.
pub struct Staccato {
    store: OcrStore,
    /// The registered-index snapshot. Readers clone the `Arc` under the
    /// read side; only `register_index` (under `index_write`) replaces
    /// it.
    indexes: RwLock<Arc<Vec<Arc<RegisteredIndex>>>>,
    /// Serializes index registrations (duplicate-name check → build →
    /// publish must not interleave).
    index_write: Mutex<()>,
    cache: QueryCache,
    turns: Turnstile,
    writer: Mutex<WriterState>,
    applies: RwLock<()>,
    totals: IngestTotals,
    ckpt: CheckpointerSlot,
}

// The sharing contract, enforced at compile time: a session must be
// usable from many threads behind one `Arc`.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Staccato>();

/// Everything one execution returns: the ranked probabilistic relation
/// (or the aggregate scalar), the plan that produced it, and the
/// execution counters.
#[derive(Debug)]
pub struct QueryOutput {
    /// Ranked `(DataKey, probability)` rows, truncated to `num_ans`.
    /// Empty for aggregate and `EXPLAIN` statements.
    pub answers: Vec<Answer>,
    /// The access path the planner chose.
    pub plan: Plan,
    /// Counters and wall time for this execution.
    pub stats: ExecStats,
    /// The aggregate scalar, when the request projected one.
    pub aggregate: Option<AggregateResult>,
    /// The `EXPLAIN` text, when the statement was an `EXPLAIN` (nothing
    /// executed in that case).
    pub explain: Option<String>,
    /// The committed batch's receipt, when the statement was an `INSERT`.
    pub ingest: Option<IngestReceipt>,
    /// `StaccatoHistory` rows, when the statement selected them.
    pub history: Option<Vec<HistoryRow>>,
}

impl Staccato {
    /// Open a session over an already-loaded store.
    pub fn open(store: OcrStore) -> Staccato {
        Staccato {
            store,
            indexes: RwLock::new(Arc::new(Vec::new())),
            index_write: Mutex::new(()),
            cache: QueryCache::default(),
            turns: Turnstile::default(),
            writer: Mutex::new(WriterState {
                wal: None,
                next_seq: 1,
                ckpt_batches_since: 0,
            }),
            applies: RwLock::new(()),
            totals: IngestTotals::default(),
            ckpt: CheckpointerSlot::new(),
        }
    }

    /// Load `dataset` into `db` under all four representations and open a
    /// session over the result.
    pub fn load(
        db: Database,
        dataset: &Dataset,
        opts: &LoadOptions,
    ) -> Result<Staccato, QueryError> {
        Ok(Staccato::open(OcrStore::load(db, dataset, opts)?))
    }

    /// The underlying store (representation cursors, point lookups).
    pub fn store(&self) -> &OcrStore {
        &self.store
    }

    /// Give the store back, dropping the session.
    pub fn into_store(self) -> OcrStore {
        self.store
    }

    /// Number of lines (SFAs) in the store — loaded plus ingested,
    /// current as of the last fully applied batch.
    pub fn line_count(&self) -> usize {
        self.store.line_count()
    }

    /// Representation sizes, kept current by the ingest path.
    pub fn sizes(&self) -> RepresentationSizes {
        self.store.sizes()
    }

    /// Build a §4 dictionary inverted index over the Staccato
    /// representation and register it with the planner under `name`.
    /// Returns the number of postings inserted. Names must be unique per
    /// session; re-registering one errors with
    /// [`QueryError::DuplicateIndex`] instead of shadowing the original.
    /// A name registered by an earlier session over the same file (before
    /// a reopen or a recovery) is rebuilt: the registry is not saved, so
    /// its old trees are unreachable, and their pages stay so.
    ///
    /// Registration serializes on the registration latch (so two threads
    /// cannot race the same name), builds the index off to the side —
    /// planning keeps reading the previous registry snapshot, entirely
    /// unblocked — then publishes the extended snapshot atomically.
    /// Every statement plans against the snapshot current when it starts,
    /// so anchored Staccato queries may route through the new index from
    /// the next statement on.
    pub fn register_index(&self, trie: &Trie, name: &str) -> Result<u64, QueryError> {
        // Hold the apply latch (read side) across the build: concurrent
        // queries proceed, but no ingest batch can land mid-scan — every
        // line is either in the initial build or in a later incremental
        // extension, never missed between them. Lock order matches the
        // write path: applies before index_write.
        let _apply = self.applies.read();
        let _reg = self.index_write.lock();
        let current = self.index_snapshot();
        if current.iter().any(|r| r.name == name) {
            return Err(QueryError::DuplicateIndex(name.to_string()));
        }
        // The registry lives in the session only, so trees the file holds
        // under this name were built by an earlier session and no session
        // can reach them: the rebuild takes their names.
        forget_index(&self.store, name);
        let index = build_index(&self.store, trie, name)?;
        let postings = index.posting_count();
        let mut next = Vec::with_capacity(current.len() + 1);
        next.extend(current.iter().cloned());
        next.push(Arc::new(RegisteredIndex {
            name: name.to_string(),
            index: Arc::new(index),
            trie: trie.clone(),
        }));
        *self.indexes.write() = Arc::new(next);
        Ok(postings)
    }

    /// The current registry snapshot, cloned under the read side so
    /// callers can keep it across page I/O without holding the latch.
    fn index_snapshot(&self) -> Arc<Vec<Arc<RegisteredIndex>>> {
        Arc::clone(&self.indexes.read())
    }

    /// A registered index by name.
    pub fn index(&self, name: &str) -> Option<Arc<InvertedIndex>> {
        self.indexes
            .read()
            .iter()
            .find(|r| r.name == name)
            .map(|r| Arc::clone(&r.index))
    }

    /// Names of all registered indexes, in registration order.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.read().iter().map(|r| r.name.clone()).collect()
    }

    /// Is any index registered? (Planner hook — one read-latched peek,
    /// unlike [`Staccato::index_names`].)
    pub(crate) fn has_indexes(&self) -> bool {
        !self.indexes.read().is_empty()
    }

    /// Compiled-query cache effectiveness counters.
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.cache.stats()
    }

    /// Buffer-pool counters of the underlying store (shared by every
    /// query on this session).
    pub fn pool_stats(&self) -> PoolStats {
        self.store.db().pool().stats()
    }

    /// The first registered index whose dictionary contains `term`
    /// (planner hook). Works on a cloned snapshot because the dictionary
    /// probe does page I/O — too long to hold the registry's read latch.
    pub(crate) fn index_covering(&self, term: &str) -> Result<Option<String>, QueryError> {
        let indexes = self.index_snapshot();
        for reg in indexes.iter() {
            if reg.index.contains_term(self.store.db().pool(), term)? {
                return Ok(Some(reg.name.clone()));
            }
        }
        Ok(None)
    }

    /// The shared planning preamble: compile the pattern, choose the
    /// plan. Every surface (`plan`, `explain`, `execute`, SQL `EXPLAIN`)
    /// goes through here, so they agree by construction — and all of
    /// them share the compiled-query cache, so repeated traffic skips
    /// pattern compilation. The plan is chosen afresh every time: it is
    /// request fields plus at most one dictionary lookup per registered
    /// index, and never stale.
    fn compile_and_plan(&self, request: &QueryRequest) -> Result<(Arc<Query>, Plan), QueryError> {
        let query = self.cache.get_or_compile(request)?;
        let plan = plan_request(self, request, &query)?;
        Ok((query, plan))
    }

    /// Compile `request` and choose its access path without executing.
    pub fn plan(&self, request: &QueryRequest) -> Result<Plan, QueryError> {
        Ok(self.compile_and_plan(request)?.1)
    }

    /// The `EXPLAIN` text: the compiled pattern, its anchor, and the
    /// chosen plan, human-readable.
    pub fn explain(&self, request: &QueryRequest) -> Result<String, QueryError> {
        let (query, plan) = self.compile_and_plan(request)?;
        Ok(render_explain(request, &query, &plan))
    }

    /// Execute `request`: plan, run, rank (or aggregate), and account.
    /// Planning and execution are timed separately into
    /// [`ExecStats::plan_wall`] and [`ExecStats::exec_wall`]; the
    /// buffer-pool counters accumulated during the execution land in
    /// [`ExecStats::pool`].
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryOutput, QueryError> {
        Ok(self.execute_with_query(request)?.0)
    }

    /// [`Staccato::execute`], also handing back the compiled query it
    /// ran, so `EXPLAIN ANALYZE` can render the report for exactly the
    /// plan that executed without a second cache round-trip.
    fn execute_with_query(
        &self,
        request: &QueryRequest,
    ) -> Result<(QueryOutput, Arc<Query>), QueryError> {
        // Visibility gate: hold the apply latch (shared) for the whole
        // execution so a concurrent ingest batch becomes visible to this
        // query entirely or not at all.
        let _apply = self.applies.read();
        let pool_before = self.store.db().pool().stats();
        let planning = Instant::now();
        let (query, plan) = self.compile_and_plan(request)?;
        let mut stats = ExecStats {
            plan_wall: planning.elapsed(),
            ..ExecStats::default()
        };
        let executing = Instant::now();
        let (answers, aggregate) = match &plan {
            Plan::Aggregate { func, input } => {
                let mut agg = StreamingAggregate::new(request.min_prob);
                self.run_access_path(
                    input,
                    request,
                    &query,
                    &mut Sink::Aggregate(&mut agg),
                    &mut stats,
                )?;
                (
                    Vec::new(),
                    Some(AggregateResult {
                        func: *func,
                        value: agg.finish(*func),
                    }),
                )
            }
            access => {
                let mut topk =
                    TopK::with_limit_offset(request.num_ans, request.offset, request.min_prob);
                self.run_access_path(
                    access,
                    request,
                    &query,
                    &mut Sink::Ranked(&mut topk),
                    &mut stats,
                )?;
                (topk.into_ranked(), None)
            }
        };
        stats.exec_wall = executing.elapsed();
        stats.pool = self.store.db().pool().stats().delta_since(pool_before);
        Ok((
            QueryOutput {
                answers,
                plan,
                stats,
                aggregate,
                explain: None,
                ingest: None,
                history: None,
            },
            query,
        ))
    }

    /// Run one relational access path, delivering answers into `sink`.
    fn run_access_path(
        &self,
        plan: &Plan,
        request: &QueryRequest,
        query: &Query,
        sink: &mut Sink<'_>,
        stats: &mut ExecStats,
    ) -> Result<(), QueryError> {
        match plan {
            Plan::FileScan { approach } => {
                exec_filescan(&self.store, *approach, query, sink, stats)
            }
            Plan::IndexProbe { index, .. } => {
                let index = self
                    .index(index)
                    .expect("planner only returns registered indexes");
                exec_index_probe(&self.store, &index, query, sink, stats)
            }
            Plan::Aggregate { .. } => unreachable!(
                "aggregates wrap exactly one access path; request {:?}",
                request.pattern
            ),
            Plan::Ingest { .. } | Plan::HistoryScan => {
                unreachable!("write and history plans never come from the relational planner")
            }
        }
    }

    /// Run one SQL statement — the paper's §2.3 interface:
    ///
    /// ```ignore
    /// let out = session.sql(
    ///     "SELECT DataKey, Prob FROM StaccatoData \
    ///      WHERE Data LIKE '%Ford%' AND Prob >= 0.25 LIMIT 10",
    /// )?;
    /// let count = session.sql(
    ///     "SELECT COUNT(*) FROM StaccatoData WHERE Data LIKE '%Ford%'",
    /// )?;
    /// println!("{}", session.sql("EXPLAIN SELECT DataKey FROM MAPData \
    ///      WHERE Data REGEXP 'Public Law (8|9)\\d'")?.explain.unwrap());
    /// ```
    ///
    /// A statement without `LIMIT` returns at most the paper's `NumAns`
    /// default of 100 ranked rows (aggregates always see every
    /// qualifying line). Statements with `?` placeholders must go
    /// through [`Staccato::prepare`] / [`Staccato::execute_prepared`]
    /// instead.
    pub fn sql(&self, statement: &str) -> Result<QueryOutput, QueryError> {
        let stmt = parse_statement(statement)?;
        if stmt.param_count() > 0 {
            return Err(SqlError::new(
                0,
                "statement has '?' placeholders; use prepare() and execute_prepared()",
            )
            .into());
        }
        self.run_statement(&stmt)
    }

    /// Parse a SQL statement with `?` placeholders for later execution.
    pub fn prepare(&self, statement: &str) -> Result<PreparedQuery, QueryError> {
        PreparedQuery::new(statement)
    }

    /// Bind `params` to a prepared statement's placeholders (left to
    /// right) and run it.
    pub fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        params: &[SqlValue],
    ) -> Result<QueryOutput, QueryError> {
        self.run_statement(&prepared.bind(params)?)
    }

    fn run_statement(&self, stmt: &Statement) -> Result<QueryOutput, QueryError> {
        match stmt {
            Statement::Insert(insert) => return self.run_insert(insert),
            Statement::SelectHistory(select) => return self.run_history_select(select),
            _ => {}
        }
        let request = crate::sql::lower_statement(stmt)?;
        if stmt.is_explain_analyze() {
            // EXPLAIN ANALYZE: execute for real, then append the observed
            // counters to the same plan report `EXPLAIN` renders.
            let (mut out, query) = self.execute_with_query(&request)?;
            let returned = match &out.aggregate {
                Some(agg) => format!("{} = {}", agg.func.sql_name(), agg.value),
                None => format!("{} ranked row(s)", out.answers.len()),
            };
            out.explain = Some(render_explain_analyze(
                &request, &query, &out.plan, &out.stats, &returned,
            ));
            return Ok(out);
        }
        if !stmt.is_explain() {
            return self.execute(&request);
        }
        // EXPLAIN: plan only, render through the same path as `explain()`.
        let planning = Instant::now();
        let (query, plan) = self.compile_and_plan(&request)?;
        let stats = ExecStats {
            plan_wall: planning.elapsed(),
            ..ExecStats::default()
        };
        Ok(QueryOutput {
            answers: Vec::new(),
            explain: Some(render_explain(&request, &query, &plan)),
            plan,
            stats,
            aggregate: None,
            ingest: None,
            history: None,
        })
    }

    /// Execute a SQL `INSERT INTO StaccatoData …`: package the rows as an
    /// [`IngestBatch`] (provider `"sql"`) and push them through the same
    /// durable path as [`Staccato::ingest`].
    fn run_insert(&self, insert: &Insert) -> Result<QueryOutput, QueryError> {
        let started = Instant::now();
        let mut batch = IngestBatch::new();
        for row in &insert.rows {
            let name = row
                .doc_name
                .value()
                .ok_or_else(|| SqlError::new(0, "statement still has unbound '?' parameters"))?;
            let data = row
                .data
                .value()
                .ok_or_else(|| SqlError::new(0, "statement still has unbound '?' parameters"))?;
            let mut doc = DocumentInput::new(name.clone(), data.clone());
            doc.provider = "sql".to_string();
            batch = batch.doc(doc);
        }
        let (receipt, wal) = self.ingest_inner(batch)?;
        let rows = receipt.docs;
        let stats = ExecStats {
            exec_wall: started.elapsed(),
            wal,
            ..ExecStats::default()
        };
        Ok(QueryOutput {
            answers: Vec::new(),
            plan: Plan::Ingest { rows },
            stats,
            aggregate: None,
            explain: None,
            ingest: Some(receipt),
            history: None,
        })
    }

    /// Execute `SELECT * FROM StaccatoHistory …`: scan the durable
    /// ingest-history table, filter with `LIKE` on `FileName`, truncate
    /// to `LIMIT`.
    fn run_history_select(&self, select: &HistorySelect) -> Result<QueryOutput, QueryError> {
        let started = Instant::now();
        let pattern =
            match &select.file_like {
                Some(arg) => Some(arg.value().ok_or_else(|| {
                    SqlError::new(0, "statement still has unbound '?' parameters")
                })?),
                None => None,
            };
        let limit =
            match &select.limit {
                Some(arg) => Some(*arg.value().ok_or_else(|| {
                    SqlError::new(0, "statement still has unbound '?' parameters")
                })?),
                None => None,
            };
        let _apply = self.applies.read();
        let mut rows = self.store.history_rows()?;
        if let Some(pat) = pattern {
            rows.retain(|r| like_match(pat, &r.file_name));
        }
        if let Some(n) = limit {
            rows.truncate(n as usize);
        }
        let stats = ExecStats {
            rows_scanned: rows.len() as u64,
            exec_wall: started.elapsed(),
            ..ExecStats::default()
        };
        Ok(QueryOutput {
            answers: Vec::new(),
            plan: Plan::HistoryScan,
            stats,
            aggregate: None,
            explain: None,
            ingest: None,
            history: Some(rows),
        })
    }
}

/// Knobs for [`Staccato::recover_with`]. The defaults match
/// [`Staccato::recover`]: a 1024-frame pool, default load options, and
/// fsync-on-commit for the re-attached WAL.
pub struct RecoverOptions {
    /// Buffer-pool frames for the reopened database.
    pub pool_frames: usize,
    /// Channel/representation options the store was originally loaded
    /// with — replay rebuilds nothing, but fresh post-recovery ingests
    /// build artifacts with these.
    pub load: LoadOptions,
    /// Durability policy for the re-attached WAL.
    pub sync: SyncPolicy,
}

impl Default for RecoverOptions {
    fn default() -> RecoverOptions {
        RecoverOptions {
            pool_frames: 1024,
            load: LoadOptions::default(),
            sync: SyncPolicy::Commit,
        }
    }
}

impl Staccato {
    /// Attach a write-ahead log to this session, making [`Staccato::ingest`]
    /// durable. `dir` must not already contain WAL segments (recovery goes
    /// through [`Staccato::recover`] instead). Errors if a WAL is already
    /// attached.
    pub fn attach_wal(&self, dir: &Path, sync: SyncPolicy) -> Result<(), QueryError> {
        let mut writer = self.writer.lock();
        if writer.wal.is_some() {
            return Err(QueryError::Ingest("a WAL is already attached".to_string()));
        }
        writer.wal = Some(Wal::create(dir, sync)?);
        Ok(())
    }

    /// Ingest a batch of documents: build their artifacts, log the batch
    /// to the WAL (if attached), then apply it atomically — rows in all
    /// seven tables, a `StaccatoHistory` row per document, and postings
    /// appended to every registered inverted index. Readers see the whole
    /// batch or none of it. Concurrent calls build in parallel and commit
    /// in the order they reserved their keys; a batch with an undecodable
    /// SFA blob is rejected before it takes a key or a sequence number,
    /// and one whose SFA has an edge of only zero-probability emissions
    /// is rejected while it is built, handing its keys back.
    pub fn ingest(&self, batch: IngestBatch) -> Result<IngestReceipt, QueryError> {
        Ok(self.ingest_inner(batch)?.0)
    }

    /// [`Staccato::ingest`], also returning the per-call WAL counter
    /// deltas for [`ExecStats`].
    fn ingest_inner(&self, batch: IngestBatch) -> Result<(IngestReceipt, WalCounters), QueryError> {
        if batch.docs.is_empty() {
            return Err(QueryError::Ingest("batch has no documents".to_string()));
        }
        let ingested_at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs() as i64)
            .unwrap_or(0);
        // Validate before reserving: a document with a bad SFA blob
        // consumes no key and no sequence number.
        let sfas = batch
            .docs
            .iter()
            .map(|d| {
                d.sfa
                    .as_deref()
                    .map(|blob| {
                        codec::decode(blob).map_err(|e| {
                            QueryError::Ingest(format!("document {:?}: bad SFA blob: {e}", d.name))
                        })
                    })
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let opts = self.store.load_options();
        // The channel is seeded with the line key, so a batch is built
        // for the key range it will occupy.
        let build = |first_key: i64| -> Result<Vec<DecodedDoc>, QueryError> {
            batch
                .docs
                .iter()
                .zip(&sfas)
                .enumerate()
                .map(|(i, (d, sfa))| {
                    let mut art = match sfa {
                        Some(sfa) => build_line_from_sfa(opts, sfa, &d.text)?,
                        None => {
                            let key = first_key + i as i64;
                            build_line(self.store.channel(), opts, &d.text, key as u64)?
                        }
                    };
                    art.doc_name = d.name.clone().into();
                    art.sfa_num = 0;
                    Ok(DecodedDoc {
                        art,
                        provider: d.provider.clone().into(),
                        confidence: d.confidence,
                        processing_time_ms: d.processing_time_ms,
                        ingested_at,
                    })
                })
                .collect()
        };
        // Reserve a key range, then construct with no latch held:
        // concurrent writers build in parallel.
        let mut ticket = self
            .turns
            .reserve(batch.docs.len(), || self.store.line_count());
        let mut docs = build(ticket.first_key)?;
        // Commit in ticket order: every earlier batch has applied (or
        // failed) before this one takes the writer latch, so the latch
        // assigns sequence numbers and LSNs in key order.
        ticket.wait_turn();
        let mut writer = self.writer.lock();
        let first_key = self.store.line_count() as i64;
        if first_key != ticket.first_key {
            // An earlier ticket failed and handed its keys back: rebuild
            // on the committed tail, so keys never gap and never repeat.
            docs = build(first_key)?;
        }
        let batch_seq = writer.next_seq;
        let decoded = DecodedBatch {
            batch_seq,
            first_key,
            docs,
        };
        let mut wal_delta = WalCounters::default();
        let mut wal_bytes = 0u64;
        let mut durability: Option<(WalFlusher, u64)> = None;
        if let Some(wal) = writer.wal.as_mut() {
            let payload = encode_batch(&decoded);
            let sync_before = wal.appender_fsyncs();
            wal_bytes = wal.append(&payload)?;
            wal_delta.records_appended = 1;
            wal_delta.bytes_logged = wal_bytes;
            wal_delta.fsyncs = wal.appender_fsyncs() - sync_before;
            durability = Some((wal.flusher(), wal.last_lsn()));
        }
        self.apply_decoded(&decoded)?;
        ticket.committed = true;
        writer.next_seq = batch_seq + 1;
        // Checkpoint-policy odometer, read under the same latch that
        // ordered the batch. The crossing ingest rings the doorbell and
        // resets, so one threshold crossing wakes the checkpointer once.
        writer.ckpt_batches_since += 1;
        let ckpt_due = {
            let policy = self.ckpt.signal.state.lock().policy;
            policy.due(writer.ckpt_batches_since)
        };
        if ckpt_due {
            writer.ckpt_batches_since = 0;
        }
        let lsn = durability.as_ref().map(|(_, lsn)| *lsn).unwrap_or(0);
        // Group commit: release the writer latch *before* waiting for
        // durability, so the next writer can append while our fsync is
        // in flight — one leader's fsync then covers every batch
        // enqueued behind it. The batch is applied (visible) but not
        // yet acknowledged; only the Ok return below promises
        // durability, and recovery replays every batch whose receipt
        // was returned. The turn passes on right after the latch.
        drop(writer);
        drop(ticket);
        if ckpt_due {
            let mut state = self.ckpt.signal.state.lock();
            state.pending = true;
            drop(state);
            self.ckpt.signal.wake.notify_all();
        }
        if let Some((flusher, lsn)) = durability {
            let ticket = flusher.wait_durable(lsn)?;
            wal_delta.fsyncs += ticket.fsyncs_led;
            wal_delta.group_commits = ticket.fsyncs_led;
            wal_delta.flush_wait = ticket.wait;
        }
        let receipt = IngestReceipt {
            batch_seq,
            first_key,
            docs: decoded.docs.len(),
            wal_bytes,
            lsn,
        };
        Ok((receipt, wal_delta))
    }

    /// Apply one decoded batch to the store and every registered index,
    /// under the apply latch's write side — the atomic-visibility point
    /// of the write path. Caller holds the writer lock and its turn
    /// (ingest), or has the session to itself (replay).
    fn apply_decoded(&self, batch: &DecodedBatch<'_>) -> Result<(), QueryError> {
        let _apply = self.applies.write();
        // Snapshot clone: posting extension does page I/O and must not
        // hold the registry's read latch. A registration racing this
        // apply either sees the batch's lines in its build scan (it
        // holds `applies.read`, so it runs strictly before or after this
        // whole apply) or extends from the next batch on.
        let indexes = self.index_snapshot();
        let pool = self.store.db().pool();
        let mut scratch = PostingScratch::default();
        for (i, doc) in batch.docs.iter().enumerate() {
            let key = batch.first_key + i as i64;
            // The build derived the synopsis, so the blob is decoded only
            // for the postings of a registered index (a recovering session
            // has none): once per line, before any of its rows is inserted.
            let blob = &doc.art.stac_blob;
            if !indexes.is_empty() {
                scratch.decode(blob)?;
            }
            self.store.insert_line(key, &doc.art)?;
            self.store.insert_history(&HistoryRow {
                data_key: key,
                file_name: doc.art.doc_name.to_string(),
                provider: doc.provider.to_string(),
                confidence: doc.confidence,
                processing_time_ms: doc.processing_time_ms,
                ingested_at: doc.ingested_at,
                batch_seq: batch.batch_seq,
            })?;
            for reg in indexes.iter() {
                reg.index
                    .extend_with_line(pool, &reg.trie, key, blob, &mut scratch)?;
            }
        }
        self.store.bump_lines(batch.docs.len());
        self.totals.batches.fetch_add(1, Ordering::AcqRel);
        self.totals
            .docs
            .fetch_add(batch.docs.len() as u64, Ordering::AcqRel);
        Ok(())
    }

    /// Persist the store's pages to disk and garbage-collect the WAL.
    /// Taken under the writer lock, so a checkpoint always lands on a
    /// batch boundary — the database file never contains half a batch,
    /// which is what lets recovery replay the WAL idempotently on top
    /// of it.
    ///
    /// Ordering, which is also the segment-GC safety argument:
    /// 1. flush the WAL — everything applied is now durable in the log
    ///    (appended == applied under the writer latch), so the saved
    ///    database is always a subset of the durable log;
    /// 2. save the database — its contents now cover every appended
    ///    record;
    /// 3. rotate and delete the sealed segments — every deleted
    ///    record's effect is in the saved file, so recovery never needs
    ///    it. A crash between any two steps only leaves extra segments
    ///    behind, never missing ones.
    pub fn checkpoint(&self) -> Result<(), QueryError> {
        let mut writer = self.writer.lock();
        if let Some(wal) = writer.wal.as_mut() {
            wal.flush()?;
        }
        self.store.db().save()?;
        if let Some(wal) = writer.wal.as_mut() {
            wal.gc_after_checkpoint()?;
        }
        writer.ckpt_batches_since = 0;
        self.totals.checkpoints.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Start (or re-configure) the background checkpointer: a dedicated
    /// thread that waits on a doorbell — no busy-wait, no polling — and
    /// runs [`Staccato::checkpoint`] whenever the write path crosses
    /// `policy`'s batch threshold. Snapshots therefore happen
    /// off the write path: the triggering ingest only rings the
    /// doorbell and returns. The thread shuts down with the session.
    pub fn start_background_checkpoints(
        session: &Arc<Staccato>,
        policy: CheckpointPolicy,
    ) -> Result<(), QueryError> {
        let mut state = session.ckpt.signal.state.lock();
        state.policy = policy;
        if state.thread.is_none() {
            let weak = Arc::downgrade(session);
            let signal = Arc::clone(&session.ckpt.signal);
            let handle = std::thread::Builder::new()
                .name("staccato-checkpointer".to_string())
                .spawn(move || checkpointer_loop(weak, signal))
                .map_err(|e| QueryError::Ingest(format!("spawning the checkpointer: {e}")))?;
            state.thread = Some(handle);
        }
        Ok(())
    }

    /// Reopen a checkpointed database and replay `wal_dir` over it —
    /// the crash-recovery entry point. Torn trailing records are
    /// truncated, already-applied batches are skipped (replay is
    /// idempotent), and the session comes back with the WAL re-attached
    /// for further ingests.
    pub fn recover(db_path: &Path, wal_dir: &Path) -> Result<Staccato, QueryError> {
        Staccato::recover_with(db_path, wal_dir, &RecoverOptions::default())
    }

    /// [`Staccato::recover`] with explicit pool size, load options, and
    /// durability policy.
    pub fn recover_with(
        db_path: &Path,
        wal_dir: &Path,
        opts: &RecoverOptions,
    ) -> Result<Staccato, QueryError> {
        let db = Database::open(db_path, opts.pool_frames)?;
        let store = OcrStore::reopen(db, &opts.load)?;
        let session = Staccato::open(store);
        let (wal, records) = Wal::open(wal_dir, opts.sync)?;
        let mut max_seq = 0u64;
        let mut replayed = 0u64;
        for payload in records.iter() {
            let decoded = decode_batch(payload)?;
            max_seq = max_seq.max(decoded.batch_seq);
            let committed = session.store.line_count() as i64;
            if decoded.first_key + decoded.docs.len() as i64 <= committed {
                // The checkpoint already contains this batch; skip it.
                continue;
            }
            if decoded.first_key != committed {
                return Err(QueryError::CorruptWal(
                    "WAL batch does not align with the store's committed tail",
                ));
            }
            session.apply_decoded(&decoded)?;
            replayed += 1;
        }
        {
            let mut writer = session.writer.lock();
            writer.wal = Some(wal);
            writer.next_seq = max_seq + 1;
        }
        session.totals.replays.store(replayed, Ordering::Release);
        Ok(session)
    }

    /// Session-cumulative ingest and WAL counters for `/stats`.
    pub fn ingest_stats(&self) -> IngestStats {
        let writer = self.writer.lock();
        let wal = writer.wal.as_ref().map(|w| w.stats()).unwrap_or_default();
        drop(writer);
        let background_checkpoints = self.ckpt.signal.state.lock().runs;
        IngestStats {
            batches: self.totals.batches.load(Ordering::Acquire),
            docs: self.totals.docs.load(Ordering::Acquire),
            wal_records_appended: wal.records_appended,
            wal_bytes_logged: wal.bytes_logged,
            wal_fsyncs: wal.fsyncs,
            replays: self.totals.replays.load(Ordering::Acquire),
            wal_group_commits: wal.group_commits,
            wal_batches_per_fsync: wal.batches_per_fsync,
            wal_flush_wait_p95: wal.flush_wait_p95,
            wal_segments_deleted: wal.segments_deleted,
            checkpoints: self.totals.checkpoints.load(Ordering::Acquire),
            background_checkpoints,
        }
    }
}

/// The background checkpointer's main loop: sleep on the doorbell until
/// an ingest crosses the policy threshold (or shutdown), then snapshot
/// through the ordinary [`Staccato::checkpoint`] path. Holds only a
/// `Weak` session reference so it never keeps a dropped session alive;
/// if the upgrade fails the session is gone and the thread exits.
fn checkpointer_loop(session: Weak<Staccato>, signal: Arc<CheckpointSignal>) {
    loop {
        {
            let mut state = signal.state.lock();
            while !state.pending && !state.shutdown {
                state = signal.wake.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            if state.shutdown {
                return;
            }
            state.pending = false;
        }
        let Some(session) = session.upgrade() else {
            return;
        };
        let outcome = session.checkpoint();
        drop(session);
        let mut state = signal.state.lock();
        match outcome {
            Ok(()) => state.runs += 1,
            Err(_) => state.errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Approach;
    use crate::plan::PlanPreference;
    use staccato_core::StaccatoParams;
    use staccato_ocr::{generate, ChannelConfig, CorpusKind};

    fn session(lines: usize, seed: u64) -> Staccato {
        let dataset = generate(CorpusKind::CongressActs, lines, seed);
        let db = Database::in_memory(1024).unwrap();
        let opts = LoadOptions {
            channel: ChannelConfig::compact(seed),
            kmap_k: 8,
            staccato: StaccatoParams::new(10, 8),
            parallelism: 2,
        };
        Staccato::load(db, &dataset, &opts).unwrap()
    }

    #[test]
    fn execute_reports_plan_and_stats() {
        let s = session(30, 5);
        let out = s
            .execute(&QueryRequest::keyword("President").approach(Approach::Map))
            .unwrap();
        assert_eq!(
            out.plan,
            Plan::FileScan {
                approach: Approach::Map
            }
        );
        assert_eq!(out.stats.rows_scanned, 30);
        assert_eq!(out.stats.lines_evaluated, 30);
        assert!(out.answers.iter().all(|a| a.probability > 0.0));
    }

    #[test]
    fn no_index_means_filescan_even_when_anchored() {
        let s = session(20, 9);
        let plan = s.plan(&QueryRequest::keyword("President")).unwrap();
        assert_eq!(
            plan,
            Plan::FileScan {
                approach: Approach::Staccato
            }
        );
    }

    #[test]
    fn registered_index_flips_anchored_queries_to_probe() {
        let s = session(40, 21);
        let postings = s
            .register_index(&Trie::build(["president", "public"]), "inv")
            .unwrap();
        assert!(postings > 0);
        let plan = s.plan(&QueryRequest::keyword("President")).unwrap();
        assert_eq!(
            plan,
            Plan::IndexProbe {
                index: "inv".into(),
                anchor: "president".into()
            }
        );
        // Unanchored stays a scan; anchor outside the dictionary too.
        assert!(!s
            .plan(&QueryRequest::regex(r"\d\d\d"))
            .unwrap()
            .is_index_probe());
        assert!(!s
            .plan(&QueryRequest::keyword("Commission"))
            .unwrap()
            .is_index_probe());
        // Other representations never probe.
        assert!(!s
            .plan(&QueryRequest::keyword("President").approach(Approach::FullSfa))
            .unwrap()
            .is_index_probe());
    }

    #[test]
    fn forced_probe_surfaces_reasons() {
        let s = session(20, 2);
        let force = |req: QueryRequest| req.plan_preference(PlanPreference::ForceIndexProbe);
        assert!(matches!(
            s.plan(&force(QueryRequest::keyword("President"))),
            Err(QueryError::NoUsableIndex(_))
        ));
        s.register_index(&Trie::build(["public"]), "inv").unwrap();
        assert!(matches!(
            s.plan(&force(QueryRequest::keyword("President"))),
            Err(QueryError::TermNotInDictionary(_))
        ));
        assert!(matches!(
            s.plan(&force(QueryRequest::regex(r"\d\d\d"))),
            Err(QueryError::NotAnchored(_))
        ));
        assert!(matches!(
            s.plan(&force(
                QueryRequest::keyword("public").approach(Approach::Map)
            )),
            Err(QueryError::NoUsableIndex(_))
        ));
    }

    #[test]
    fn probe_stats_count_postings() {
        let s = session(50, 31);
        s.register_index(&Trie::build(["public"]), "inv").unwrap();
        let out = s
            .execute(&QueryRequest::regex(r"Public Law (8|9)\d"))
            .unwrap();
        assert!(out.plan.is_index_probe());
        assert!(out.stats.postings_probed > 0);
        assert!(
            out.stats.rows_scanned <= 50,
            "probe fetches candidates only"
        );
    }

    #[test]
    fn duplicate_index_names_are_rejected() {
        let s = session(20, 4);
        s.register_index(&Trie::build(["public"]), "inv").unwrap();
        let err = s
            .register_index(&Trie::build(["president"]), "inv")
            .unwrap_err();
        assert!(
            matches!(err, QueryError::DuplicateIndex(ref n) if n == "inv"),
            "{err}"
        );
        // The original registration is untouched and still first.
        assert_eq!(s.index_names(), vec!["inv"]);
        assert!(s.index("inv").is_some());
        // A different name is fine.
        s.register_index(&Trie::build(["president"]), "inv2")
            .unwrap();
        assert_eq!(s.index_names(), vec!["inv", "inv2"]);
    }

    #[test]
    fn sql_matches_builder_execution() {
        let s = session(30, 5);
        let via_sql = s
            .sql("SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP 'President' LIMIT 100")
            .unwrap();
        let via_builder = s
            .execute(&QueryRequest::keyword("President").approach(Approach::Map))
            .unwrap();
        assert_eq!(via_sql.plan, via_builder.plan);
        assert_eq!(via_sql.answers.len(), via_builder.answers.len());
        for (a, b) in via_sql.answers.iter().zip(&via_builder.answers) {
            assert_eq!(a.data_key, b.data_key);
            assert!((a.probability - b.probability).abs() < 1e-15);
        }
        assert!(via_sql.aggregate.is_none());
        assert!(via_sql.explain.is_none());
    }

    #[test]
    fn sql_threshold_filters_answers() {
        let s = session(30, 5);
        let all = s
            .sql("SELECT DataKey FROM FullSFAData WHERE Data REGEXP 'the' LIMIT 1000")
            .unwrap();
        let cutoff = 0.5;
        let thresholded = s
            .sql("SELECT DataKey FROM FullSFAData WHERE Data REGEXP 'the' AND Prob >= 0.5 LIMIT 1000")
            .unwrap();
        let expected: Vec<i64> = all
            .answers
            .iter()
            .filter(|a| a.probability >= cutoff)
            .map(|a| a.data_key)
            .collect();
        assert_eq!(
            thresholded
                .answers
                .iter()
                .map(|a| a.data_key)
                .collect::<Vec<_>>(),
            expected
        );
        assert!(thresholded.answers.len() < all.answers.len());
    }

    #[test]
    fn sql_aggregates_run_streamingly() {
        let s = session(25, 9);
        let rows = s
            .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 100000")
            .unwrap();
        let count = s
            .sql("SELECT COUNT(*) FROM StaccatoData WHERE Data REGEXP 'the'")
            .unwrap();
        let sum = s
            .sql("SELECT SUM(Prob) FROM StaccatoData WHERE Data REGEXP 'the'")
            .unwrap();
        let avg = s
            .sql("SELECT AVG(Prob) FROM StaccatoData WHERE Data REGEXP 'the'")
            .unwrap();
        assert_eq!(count.plan.kind(), "Aggregate");
        assert!(count.answers.is_empty());
        let count = count.aggregate.unwrap();
        let sum = sum.aggregate.unwrap();
        let avg = avg.aggregate.unwrap();
        assert_eq!(count.value, rows.answers.len() as f64);
        let expect_sum: f64 = rows.answers.iter().map(|a| a.probability).sum();
        assert!((sum.value - expect_sum).abs() < 1e-9);
        assert!((avg.value - expect_sum / count.value).abs() < 1e-9);
        // SUM(Prob) over the answer relation is E[COUNT(*)] (agg.rs).
        assert!(
            (sum.value - crate::agg::expected_count(&rows.answers)).abs() < 1e-9,
            "streaming SUM must equal the batch expected count"
        );
    }

    #[test]
    fn sql_explain_agrees_with_builder_explain() {
        let s = session(20, 13);
        s.register_index(&Trie::build(["president"]), "inv")
            .unwrap();
        let out = s
            .sql("EXPLAIN SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'President' LIMIT 100")
            .unwrap();
        let text = out.explain.expect("EXPLAIN sets the text");
        assert!(out.answers.is_empty(), "EXPLAIN must not execute");
        assert_eq!(out.stats.exec_wall.as_nanos(), 0);
        assert_eq!(
            text,
            s.explain(&QueryRequest::keyword("President")).unwrap(),
            "SQL EXPLAIN and builder explain() must agree byte for byte"
        );
        assert!(text.contains("IndexProbe"), "{text}");
    }

    #[test]
    fn sql_rejects_unbound_params_and_prepared_path_binds_them() {
        let s = session(20, 3);
        let err = s
            .sql("SELECT DataKey FROM MAPData WHERE Data LIKE ?")
            .unwrap_err();
        assert!(err.to_string().contains("prepare"), "{err}");
        let p = s
            .prepare("SELECT DataKey FROM MAPData WHERE Data REGEXP ? LIMIT ?")
            .unwrap();
        let out = s
            .execute_prepared(&p, &[SqlValue::text("President"), SqlValue::Int(5)])
            .unwrap();
        let direct = s
            .sql("SELECT DataKey FROM MAPData WHERE Data REGEXP 'President' LIMIT 5")
            .unwrap();
        assert_eq!(out.answers.len(), direct.answers.len());
        for (a, b) in out.answers.iter().zip(&direct.answers) {
            assert_eq!(a.data_key, b.data_key);
        }
    }

    #[test]
    fn stats_time_planning_and_execution_separately() {
        let s = session(25, 17);
        let out = s.execute(&QueryRequest::keyword("President")).unwrap();
        assert!(out.stats.plan_wall.as_nanos() > 0);
        assert!(out.stats.exec_wall.as_nanos() > 0);
        assert_eq!(out.stats.wall(), out.stats.plan_wall + out.stats.exec_wall);
    }

    #[test]
    fn compiled_query_cache_hits_and_registration_replans() {
        let s = session(30, 5);
        let req = QueryRequest::keyword("President");
        let first = s.execute(&req).unwrap();
        let before = s.query_cache_stats();
        assert!(before.misses >= 1);
        let second = s.execute(&req).unwrap();
        let after = s.query_cache_stats();
        assert!(after.hits > before.hits, "repeat traffic must hit");
        assert_eq!(first.answers, second.answers, "a cache hit changes nothing");
        // num_ans / min_prob only parameterize execution: same cache entry.
        s.execute(&req.clone().num_ans(5).min_prob(0.1)).unwrap();
        assert!(s.query_cache_stats().hits > after.hits);

        // Registering a covering index: the same request plans onto the
        // probe at its next statement.
        assert!(!s.plan(&req).unwrap().is_index_probe());
        s.register_index(&Trie::build(["president"]), "inv")
            .unwrap();
        assert!(s.plan(&req).unwrap().is_index_probe());
        let probed = s.execute(&req).unwrap();
        assert!(probed.plan.is_index_probe());
    }

    #[test]
    fn ingest_costs_no_recompile() {
        let s = session(30, 5);
        s.register_index(&Trie::build(["president"]), "inv")
            .unwrap();
        let anchored = QueryRequest::keyword("President");
        let map = QueryRequest::keyword("Senate").approach(Approach::Map);
        assert!(s.execute(&anchored).unwrap().plan.is_index_probe());
        s.execute(&map).unwrap();
        let before = s.query_cache_stats();
        let receipt = s
            .ingest(IngestBatch::new().doc(DocumentInput::new("s.png", "the Senate shall convene")))
            .unwrap();
        assert!(s.execute(&anchored).unwrap().plan.is_index_probe());
        let out = s.execute(&map).unwrap();
        let after = s.query_cache_stats();
        assert_eq!(after.misses, before.misses, "an ingest costs no recompile");
        assert_eq!(after.hits, before.hits + 2);
        // The cached compile still sees the new row.
        assert!(
            out.answers.iter().any(|a| a.data_key == receipt.first_key),
            "{:?}",
            out.answers
        );
    }

    #[test]
    fn parallelism_changes_neither_the_plan_nor_the_answers() {
        let s = session(20, 9);
        let request = QueryRequest::keyword("President");
        let before = s.query_cache_stats();
        let plain = s.plan(&request).unwrap();
        let asked = s.plan(&request.clone().parallelism(4)).unwrap();
        let after = s.query_cache_stats();
        assert_eq!(
            (after.misses - before.misses, after.hits - before.hits),
            (1, 1)
        );
        assert_eq!(
            plain,
            Plan::FileScan {
                approach: Approach::Staccato
            }
        );
        assert_eq!(asked, plain);
        let plain = s.execute(&request).unwrap();
        let asked = s.execute(&request.parallelism(4)).unwrap();
        assert_eq!(asked.answers, plain.answers);
        assert_eq!(
            (asked.stats.rows_scanned, asked.stats.lines_evaluated),
            (plain.stats.rows_scanned, plain.stats.lines_evaluated)
        );
    }

    #[test]
    fn execute_attributes_pool_activity() {
        let s = session(25, 11);
        let out = s
            .execute(&QueryRequest::keyword("President").approach(Approach::Map))
            .unwrap();
        assert!(
            out.stats.pool.hits + out.stats.pool.misses > 0,
            "a filescan reads pages: {:?}",
            out.stats.pool
        );
    }

    #[test]
    fn ingest_appends_rows_history_and_sizes() {
        let s = session(10, 5);
        let before = s.sizes();
        let batch = IngestBatch::new()
            .doc(DocumentInput::new("a.png", "the President of the Senate"))
            .doc(DocumentInput::new(
                "b.png",
                "Public Law 95 is hereby amended",
            ));
        let receipt = s.ingest(batch).unwrap();
        assert_eq!(receipt.batch_seq, 1);
        assert_eq!(receipt.first_key, 10);
        assert_eq!(receipt.docs, 2);
        assert_eq!(receipt.wal_bytes, 0, "no WAL attached");
        // Freshness: counts and sizes reflect the batch immediately.
        assert_eq!(s.line_count(), 12);
        let after = s.sizes();
        assert!(after.text > before.text);
        assert!(after.staccato > before.staccato);
        // The new lines are queryable through ordinary SQL.
        let out = s
            .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Senate%' LIMIT 100")
            .unwrap();
        assert!(
            out.answers.iter().any(|a| a.data_key == 10),
            "ingested line must match: {:?}",
            out.answers
        );
        // And recorded in the history table, loaded corpus lines are not.
        let hist = s.sql("SELECT * FROM StaccatoHistory").unwrap();
        assert_eq!(hist.plan, Plan::HistoryScan);
        let rows = hist.history.unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].data_key, 10);
        assert_eq!(rows[0].file_name, "a.png");
        assert_eq!(rows[1].file_name, "b.png");
        assert_eq!(rows[0].batch_seq, 1);

        let empty = s.ingest(IngestBatch::new()).unwrap_err();
        assert!(matches!(empty, QueryError::Ingest(_)), "{empty}");
    }

    #[test]
    fn sql_insert_goes_through_the_ingest_path() {
        let s = session(10, 7);
        let out = s
            .sql(
                "INSERT INTO StaccatoData (DocName, Data) VALUES ('x.png', 'the President'), \
                  ('y.png', 'Public Law 88')",
            )
            .unwrap();
        assert_eq!(out.plan, Plan::Ingest { rows: 2 });
        let receipt = out.ingest.unwrap();
        assert_eq!(receipt.first_key, 10);
        assert_eq!(s.line_count(), 12);
        // Prepared INSERT binds both strings.
        let p = s
            .prepare("INSERT INTO StaccatoData (DocName, Data) VALUES (?, ?)")
            .unwrap();
        let out = s
            .execute_prepared(
                &p,
                &[SqlValue::text("z.png"), SqlValue::text("hello world")],
            )
            .unwrap();
        assert_eq!(out.ingest.unwrap().first_key, 12);
        // History filters by LIKE and honors LIMIT; SQL inserts record
        // the "sql" provider.
        let rows = s
            .sql("SELECT * FROM StaccatoHistory WHERE FileName LIKE '%.png' LIMIT 2")
            .unwrap()
            .history
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.provider == "sql"));
        let rows = s
            .sql("SELECT * FROM StaccatoHistory WHERE FileName LIKE 'z%'")
            .unwrap()
            .history
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].file_name, "z.png");
        // Unbound placeholders refuse to execute.
        let err = s
            .sql("INSERT INTO StaccatoData (DocName, Data) VALUES (?, ?)")
            .unwrap_err();
        assert!(err.to_string().contains("prepare"), "{err}");
    }

    #[test]
    fn ingest_extends_registered_indexes_incrementally() {
        let s = session(15, 21);
        s.register_index(&Trie::build(["senate"]), "inv").unwrap();
        let before = s.index("inv").unwrap().posting_count();
        s.ingest(IngestBatch::new().doc(DocumentInput::new("n.png", "the Senate shall convene")))
            .unwrap();
        assert!(
            s.index("inv").unwrap().posting_count() > before,
            "ingest must add postings for dictionary terms it contains"
        );
        // The probe path sees the new line without re-registering.
        let req = QueryRequest::keyword("Senate");
        let out = s.execute(&req).unwrap();
        assert!(out.plan.is_index_probe());
        assert!(
            out.answers.iter().any(|a| a.data_key == 15),
            "{:?}",
            out.answers
        );
    }

    #[test]
    fn ingest_stats_count_batches_and_docs() {
        let s = session(5, 3);
        let stats = s.ingest_stats();
        assert_eq!((stats.batches, stats.docs, stats.replays), (0, 0, 0));
        s.ingest(
            IngestBatch::new()
                .doc(DocumentInput::new("a", "one line"))
                .doc(DocumentInput::new("b", "two lines")),
        )
        .unwrap();
        s.ingest(IngestBatch::new().doc(DocumentInput::new("c", "three")))
            .unwrap();
        let stats = s.ingest_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.docs, 3);
        assert_eq!(stats.wal_records_appended, 0, "no WAL attached");
    }

    #[test]
    fn turnstile_hands_out_dense_keys_and_turns_in_ticket_order() {
        // A failing assertion would drop the later tickets first, and a
        // dropped ticket waits for its turn: assert once they are gone.
        let turns = Turnstile::default();
        let mut a = turns.reserve(2, || 10);
        let b = turns.reserve(1, || unreachable!("a ticket is outstanding"));
        let c = turns.reserve(3, || unreachable!("a ticket is outstanding"));
        let reserved = [
            (a.number, a.first_key),
            (b.number, b.first_key),
            (c.number, c.first_key),
        ];
        let order = Mutex::new(Vec::new());
        let queued = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            // Later tickets queue first; neither may pass ticket 0.
            for mut ticket in [c, b] {
                let (order, queued) = (&order, &queued);
                scope.spawn(move || {
                    queued.wait();
                    ticket.wait_turn();
                    order.lock().push(ticket.number);
                    ticket.committed = true;
                    drop(ticket);
                });
            }
            queued.wait();
            assert!(order.lock().is_empty());
            a.committed = true;
            drop(a);
        });
        assert_eq!(reserved, [(0, 10), (1, 12), (2, 13)]);
        assert_eq!(*order.lock(), [1, 2]);
        // Nothing outstanding: the next range starts at the committed tail.
        assert_eq!(turns.reserve(1, || 16).first_key, 16);
    }

    #[test]
    fn turnstile_failed_ticket_hands_its_keys_back() {
        let turns = Turnstile::default();
        let a = turns.reserve(2, || 10);
        let mut b = turns.reserve(1, || unreachable!("a ticket is outstanding"));
        drop(a);
        b.wait_turn();
        let c = turns.reserve(1, || unreachable!("a ticket is outstanding"));
        let (stale, fresh) = (b.first_key, c.first_key);
        b.committed = true;
        drop(b);
        drop(c);
        // `b` reserved 12, but the committed tail is still 10: stale. A
        // ticket issued after the failure is not: 10 + b's one key.
        assert_eq!((stale, fresh), (12, 11));
        assert_eq!(turns.reserve(1, || 11).first_key, 11);
    }

    #[test]
    fn a_failed_predecessor_makes_its_successor_rebuild_on_the_committed_key() {
        let doc =
            || IngestBatch::new().doc(DocumentInput::new("r.png", "the Senate shall convene"));
        let lone = session(10, 5);
        let want = lone.ingest(doc()).unwrap();
        assert_eq!((want.first_key, want.batch_seq), (10, 1));

        let s = session(10, 5);
        let doomed = s.turns.reserve(2, || s.line_count());
        let got = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| s.ingest(doc()).unwrap());
            // Wait until the ingest holds the range behind `doomed`.
            while s.turns.state.lock().issued < 2 {
                std::thread::yield_now();
            }
            drop(doomed);
            ingest.join().unwrap()
        });
        assert_eq!((got.first_key, got.batch_seq), (10, 1));
        // Rebuilt on key 10: the same line a lone writer stores, not the
        // one the reserved key 12 seeds.
        let blob = |s: &Staccato| {
            s.store()
                .full_sfa_blobs()
                .unwrap()
                .map(Result::unwrap)
                .find(|(key, _)| *key == 10)
                .unwrap()
                .1
        };
        assert_eq!(blob(&s), blob(&lone));
        let opts = s.store().load_options();
        let at_12 = build_line(s.store().channel(), opts, "the Senate shall convene", 12).unwrap();
        assert_ne!(at_12.full_blob, blob(&s));
        // And the sequence stays dense.
        let next = s.ingest(doc()).unwrap();
        assert_eq!((next.first_key, next.batch_seq), (11, 2));
    }

    #[test]
    fn an_ingest_waits_for_the_turn_of_an_earlier_ticket() {
        let s = session(10, 5);
        let held = s.turns.reserve(2, || s.line_count());
        let (waited, receipt) = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                s.ingest(IngestBatch::new().doc(DocumentInput::new("w.png", "the Senate")))
                    .unwrap()
            });
            std::thread::sleep(std::time::Duration::from_millis(200));
            let waited = s.line_count();
            // The held ticket never commits: dropping it hands keys 10
            // and 11 back.
            drop(held);
            (waited, ingest.join().unwrap())
        });
        assert_eq!(waited, 10, "nothing commits before the earlier turn");
        assert_eq!((receipt.first_key, receipt.batch_seq), (10, 1));
        assert_eq!(s.line_count(), 11);
    }

    #[test]
    fn a_bad_sfa_blob_consumes_no_key_and_no_sequence_number() {
        let s = session(10, 5);
        let mut bad = DocumentInput::new("bad.png", "garbled");
        bad.sfa = Some(vec![1, 2, 3]);
        let bad = IngestBatch::new()
            .doc(DocumentInput::new("ok.png", "the President"))
            .doc(bad);
        assert!(matches!(s.ingest(bad.clone()), Err(QueryError::Ingest(_))));
        let via_sql = s
            .sql("INSERT INTO StaccatoData (DocName, Data) VALUES ('a.png', 'the Senate')")
            .unwrap()
            .ingest
            .unwrap();
        assert_eq!((via_sql.first_key, via_sql.batch_seq), (10, 1));
        assert!(matches!(s.ingest(bad), Err(QueryError::Ingest(_))));
        let direct = s
            .ingest(IngestBatch::new().doc(DocumentInput::new("b.png", "Public Law 95")))
            .unwrap();
        assert_eq!((direct.first_key, direct.batch_seq), (11, 2));
        let rows = s.store().history_rows().unwrap();
        let keys: Vec<_> = rows.iter().map(|r| (r.data_key, r.batch_seq)).collect();
        assert_eq!(keys, [(10, 1), (11, 2)]);
        assert_eq!(s.line_count(), 12);
    }

    #[test]
    fn concurrent_ingests_keep_keys_and_sequence_numbers_dense() {
        let s = session(10, 5);
        let receipts: Vec<IngestReceipt> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let s = &s;
                    scope.spawn(move || {
                        (0..5)
                            .map(|i| {
                                let batch =
                                    (0..1 + (w + i) % 2).fold(IngestBatch::new(), |b, d| {
                                        b.doc(DocumentInput::new(
                                            format!("{w}-{i}-{d}"),
                                            "the Senate",
                                        ))
                                    });
                                s.ingest(batch).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let mut receipts = receipts;
        receipts.sort_by_key(|r| r.batch_seq);
        let mut next_key = 10;
        for (i, r) in receipts.iter().enumerate() {
            assert_eq!(r.batch_seq, i as u64 + 1);
            assert_eq!(r.first_key, next_key, "{receipts:?}");
            next_key += r.docs as i64;
        }
        assert_eq!(s.line_count() as i64, next_key);
        let keys: Vec<i64> = s
            .store()
            .history_rows()
            .unwrap()
            .iter()
            .map(|r| r.data_key)
            .collect();
        assert_eq!(keys, (10..next_key).collect::<Vec<_>>());
    }

    #[test]
    fn explain_mentions_the_chosen_path() {
        let s = session(25, 7);
        let req = QueryRequest::keyword("President");
        assert!(s.explain(&req).unwrap().contains("FileScan"));
        s.register_index(&Trie::build(["president"]), "inv")
            .unwrap();
        let text = s.explain(&req).unwrap();
        assert!(text.contains("IndexProbe"), "{text}");
        assert!(text.contains("president"), "{text}");
    }
}
