//! Streaming filescan executors for the four access methods and bounded
//! top-NumAns ranking.
//!
//! All four produce a *probabilistic relation*: `(DataKey, probability)`
//! rows ranked by probability, truncated to `NumAns` (the paper sets 100,
//! "greater than the number of answers in the ground truth"). A line is
//! an answer iff its match probability is positive; FullSFA's noise floor
//! makes almost every line weakly positive, which is exactly why its
//! precision collapses while recall is perfect (§5.1).
//!
//! Execution is pull-based: each executor consumes a row cursor from
//! [`OcrStore`] one line at a time and feeds a bounded [`TopK`] heap, so
//! sequential query memory is `O(NumAns + one line)` regardless of
//! corpus size (a parallel scan holds one private accumulator per worker
//! plus a bounded in-flight window: `O(P · NumAns + P · 4 lines)`). With
//! `parallelism > 1` every representation scans morsel-style: one thread
//! drives the (sequential) heap scan and hands rows to worker threads
//! over a bounded channel; each worker folds its share into a private
//! accumulator (a [`TopK`] heap or a partial aggregate) and the driver
//! merges the per-worker accumulators in worker order once the scan is
//! drained (§5.4: per-line probability computations are independent, so
//! the scan partitions trivially). Merging bounded heaps is exact: every
//! answer of the global top-k survives in its worker's local top-k, and
//! the final heap re-applies the full ranking order, ties included.
//!
//! These executors are plumbing; the public entry point is
//! [`Staccato::execute`](crate::session::Staccato::execute) with a
//! [`QueryRequest`](crate::plan::QueryRequest).

use crate::agg::StreamingAggregate;
use crate::error::QueryError;
use crate::kernel::ScanScratch;
use crate::plan::ExecStats;
use crate::query::Query;
use crate::store::OcrStore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Which representation a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The single most likely transcription (what Google Books stores).
    Map,
    /// The k most likely transcriptions per line.
    KMap,
    /// The complete OCR SFA.
    FullSfa,
    /// The Staccato chunk graph.
    Staccato,
}

impl Approach {
    /// Display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            Approach::Map => "MAP",
            Approach::KMap => "k-MAP",
            Approach::FullSfa => "FullSFA",
            Approach::Staccato => "STACCATO",
        }
    }

    /// All four, in the paper's column order.
    pub fn all() -> [Approach; 4] {
        [
            Approach::Map,
            Approach::KMap,
            Approach::FullSfa,
            Approach::Staccato,
        ]
    }
}

/// Is a line with this match probability a tuple of the answer relation?
/// The single qualification rule shared by the ranked ([`TopK`]) and
/// aggregate ([`crate::agg::StreamingAggregate`]) sinks: positive
/// probability, at or above the request's `Prob >=` threshold.
pub fn qualifies(probability: f64, min_prob: f64) -> bool {
    probability > 0.0 && probability >= min_prob
}

/// Normalize a user-supplied probability threshold: NaN means "no
/// threshold", everything else clamps into `[0, 1]`. Applied at every
/// public entry point that accepts one
/// ([`QueryRequest::min_prob`](crate::plan::QueryRequest::min_prob),
/// [`TopK::with_min_prob`], [`StreamingAggregate::new`]), so a NaN can
/// never silently drop every answer.
///
/// [`StreamingAggregate::new`]: crate::agg::StreamingAggregate::new
pub fn sanitize_min_prob(min_prob: f64) -> f64 {
    if min_prob.is_nan() {
        0.0
    } else {
        min_prob.clamp(0.0, 1.0)
    }
}

/// One row of the probabilistic answer relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The line's DataKey.
    pub data_key: i64,
    /// Probability that the line matches the query.
    pub probability: f64,
}

/// `Answer` with the ranking order: higher probability first, ties broken
/// by smaller DataKey. `Ord` is total because probabilities are clamped
/// finite by construction (NaN compares as equal, keeping the heap sane).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RankedAnswer(Answer);

impl Eq for RankedAnswer {}

impl Ord for RankedAnswer {
    fn cmp(&self, other: &Self) -> Ordering {
        // "greater" = better = higher probability, then smaller key.
        self.0
            .probability
            .partial_cmp(&other.0.probability)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.0.data_key.cmp(&self.0.data_key))
    }
}

impl PartialOrd for RankedAnswer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded top-k accumulator: a min-heap of the best `k` answers seen so
/// far. `push` is `O(log k)`; a full filescan ranks in `O(n log k)`
/// instead of the full `O(n log n)` sort the first revision paid.
///
/// SQL `LIMIT n OFFSET m` lowers into one heap: the accumulator keeps
/// the best `n + m` answers and [`TopK::into_ranked`] drops the leading
/// `m`, so a paged query ranks against the *whole* relation (honest
/// pagination) while memory stays `O(n + m)`.
#[derive(Debug)]
pub struct TopK {
    cap: usize,
    skip: usize,
    min_prob: f64,
    heap: BinaryHeap<std::cmp::Reverse<RankedAnswer>>,
}

impl TopK {
    /// Keep the best `cap` answers.
    pub fn new(cap: usize) -> TopK {
        TopK::with_min_prob(cap, 0.0)
    }

    /// Keep the best `cap` answers with probability `>= min_prob` — the
    /// SQL `AND Prob >= t` filter, applied before anything enters the
    /// heap so below-threshold rows cost nothing to rank. The threshold
    /// is sanitized by [`sanitize_min_prob`].
    pub fn with_min_prob(cap: usize, min_prob: f64) -> TopK {
        TopK::with_limit_offset(cap, 0, min_prob)
    }

    /// Keep the best `limit` answers *after* skipping the `offset`
    /// best-ranked ones — SQL `LIMIT limit OFFSET offset`. The heap holds
    /// `limit + offset` candidates so the skipped prefix is ranked
    /// exactly, and [`TopK::into_ranked`] drops it.
    pub fn with_limit_offset(limit: usize, offset: usize, min_prob: f64) -> TopK {
        let cap = limit.saturating_add(offset);
        TopK {
            cap,
            skip: offset,
            min_prob: sanitize_min_prob(min_prob),
            heap: BinaryHeap::with_capacity(cap.min(4096).saturating_add(1)),
        }
    }

    /// Offer one answer. Non-positive or below-threshold probabilities
    /// are not answers.
    pub fn push(&mut self, answer: Answer) {
        if !qualifies(answer.probability, self.min_prob) || self.cap == 0 {
            return;
        }
        let entry = std::cmp::Reverse(RankedAnswer(answer));
        if self.heap.len() < self.cap {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.0 > worst.0 {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Total candidates this heap retains (`limit + offset`).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Ranked answers skipped by [`TopK::into_ranked`] (the `OFFSET`).
    pub fn skip(&self) -> usize {
        self.skip
    }

    /// The qualification threshold (already sanitized).
    pub fn min_prob(&self) -> f64 {
        self.min_prob
    }

    /// Answers currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the accumulator empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Finish: answers in rank order (probability descending, DataKey
    /// ascending on ties), with the first `skip` (OFFSET) rows dropped.
    pub fn into_ranked(self) -> Vec<Answer> {
        let mut out: Vec<RankedAnswer> = self.heap.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out.into_iter().skip(self.skip).map(|r| r.0).collect()
    }
}

/// Rank candidate answers: positive probability only, descending, ties by
/// DataKey, truncated to `num_ans`. Heap-bounded: `O(n log num_ans)`.
pub fn rank_answers(answers: Vec<Answer>, num_ans: usize) -> Vec<Answer> {
    let mut topk = TopK::new(num_ans);
    for a in answers {
        topk.push(a);
    }
    topk.into_ranked()
}

/// Where executors deliver per-line answers: the bounded ranking heap for
/// `SELECT DataKey` queries, or the constant-space accumulator for
/// aggregate projections. Both apply the same qualification (positive
/// probability, above any threshold), so switching the projection never
/// changes which lines count as answers.
#[derive(Debug)]
pub(crate) enum Sink<'a> {
    /// Rank into a bounded top-k heap.
    Ranked(&'a mut TopK),
    /// Fold into a streaming aggregate.
    Aggregate(&'a mut StreamingAggregate),
}

impl Sink<'_> {
    /// Deliver one line's answer.
    pub(crate) fn offer(&mut self, answer: Answer) {
        match self {
            Sink::Ranked(topk) => topk.push(answer),
            Sink::Aggregate(agg) => agg.fold(answer),
        }
    }

    /// An owned, empty accumulator of the same kind and qualification
    /// rules — the per-worker sink of the morsel-parallel scan.
    fn fork(&self) -> OwnedSink {
        match self {
            Sink::Ranked(topk) => {
                OwnedSink::Ranked(TopK::with_min_prob(topk.cap(), topk.min_prob()))
            }
            Sink::Aggregate(agg) => OwnedSink::Aggregate(StreamingAggregate::new(agg.min_prob())),
        }
    }

    /// Fold one worker's accumulator back in. Ranked merges re-offer the
    /// worker's surviving candidates into the shared heap — exact,
    /// because the heap's total order (probability, then DataKey) decides
    /// every tie the same way a sequential scan would.
    fn absorb(&mut self, local: OwnedSink) {
        match (self, local) {
            (Sink::Ranked(topk), OwnedSink::Ranked(local)) => {
                for answer in local.into_ranked() {
                    topk.push(answer);
                }
            }
            (Sink::Aggregate(agg), OwnedSink::Aggregate(local)) => agg.merge(&local),
            _ => unreachable!("forked sink kind always matches its parent"),
        }
    }
}

/// A worker's private accumulator (see [`Sink::fork`]).
enum OwnedSink {
    Ranked(TopK),
    Aggregate(StreamingAggregate),
}

impl OwnedSink {
    fn offer(&mut self, answer: Answer) {
        match self {
            OwnedSink::Ranked(topk) => topk.push(answer),
            OwnedSink::Aggregate(agg) => agg.fold(answer),
        }
    }
}

/// Streaming filescan over `approach`, evaluating lines on up to
/// `parallelism` workers, delivering answers into `sink`, counting into
/// `stats`. Every representation partitions the same way: the scan stays
/// sequential (one buffer pool cursor) while per-line evaluation fans
/// out.
///
/// Evaluation runs through the query's compiled [`ScanKernel`]
/// (see [`crate::kernel`]): rows stream as raw bytes and are decoded
/// *borrowed* inside each worker (no per-line `String`/`Sfa`
/// materialization), blobs run through the arena DP with interned label
/// transitions, and the anchor prescreen skips lines that provably
/// cannot match — counted in [`ExecStats::prescreen_skipped`]. Skipped
/// lines still count as evaluated: the prescreen changes *how* a line's
/// probability is computed, never whether it is.
///
/// [`ScanKernel`]: crate::kernel::ScanKernel
pub(crate) fn exec_filescan(
    store: &OcrStore,
    approach: Approach,
    query: &Query,
    parallelism: usize,
    sink: &mut Sink<'_>,
    stats: &mut ExecStats,
) -> Result<(), QueryError> {
    let parallelism = parallelism.max(1);
    let kernel = &query.kernel;
    let skipped = AtomicU64::new(0);
    let skipped = &skipped;
    let result = match approach {
        Approach::Map => scan_into(
            store.map_raw_cursor()?,
            |_| 1,
            || {
                move |bytes: &Vec<u8>| {
                    let (s, p) = crate::store::decode_map_row(bytes)?;
                    let out = kernel.eval_string(s, p);
                    if out.prescreened {
                        skipped.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    Ok(out.probability)
                }
            },
            parallelism,
            sink,
            stats,
        ),
        Approach::KMap => scan_into(
            store.kmap_raw_cursor()?,
            |rows| rows.len() as u64,
            || {
                move |rows: &Vec<Vec<u8>>| {
                    let mut decoded = Vec::with_capacity(rows.len());
                    for row in rows {
                        decoded.push(crate::store::decode_kmap_row(row)?);
                    }
                    let out = kernel.eval_string_group(decoded.iter().copied());
                    if out.prescreened {
                        skipped.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    Ok(out.probability)
                }
            },
            parallelism,
            sink,
            stats,
        ),
        Approach::FullSfa | Approach::Staccato => {
            if parallelism <= 1 {
                // Single-threaded blob scans stream borrowed bytes through
                // one reusable blob buffer (no per-row `Vec`); the morsel
                // path below needs owned rows to ship across the channel.
                let mut scratch = ScanScratch::new();
                let stats = &mut *stats;
                let each = move |key: i64, blob: &[u8]| -> Result<(), QueryError> {
                    stats.rows_scanned += 1;
                    stats.lines_evaluated += 1;
                    let out = kernel.eval_blob(&mut scratch, blob)?;
                    if out.prescreened {
                        skipped.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    sink.offer(Answer {
                        data_key: key,
                        probability: out.probability,
                    });
                    Ok(())
                };
                match approach {
                    Approach::FullSfa => store.for_each_full_sfa_blob(each),
                    _ => store.for_each_staccato_blob(each),
                }
            } else {
                let cursor = match approach {
                    Approach::FullSfa => store.full_sfa_blobs()?,
                    _ => store.staccato_blobs()?,
                };
                scan_into(
                    cursor,
                    |_| 1,
                    || {
                        let mut scratch = ScanScratch::new();
                        move |blob: &Vec<u8>| {
                            let out = kernel.eval_blob(&mut scratch, blob)?;
                            if out.prescreened {
                                skipped.fetch_add(1, AtomicOrdering::Relaxed);
                            }
                            Ok(out.probability)
                        }
                    },
                    parallelism,
                    sink,
                    stats,
                )
            }
        }
    };
    stats.prescreen_skipped += skipped.load(AtomicOrdering::Relaxed);
    result
}

/// The shared scan driver: pull `(DataKey, payload)` rows off `cursor`
/// and fold per-line probabilities into `sink`, sequentially or
/// morsel-parallel. `rows_of` is the physical row count a payload
/// represents (k-MAP reads k rows per line). `make_eval` builds one
/// evaluation closure per worker — the closure owns that worker's
/// mutable scan scratch (decode arena, label memo, DP vector pool), so
/// workers never contend on shared state.
fn scan_into<T, E>(
    cursor: impl Iterator<Item = Result<(i64, T), QueryError>>,
    rows_of: impl Fn(&T) -> u64,
    make_eval: impl Fn() -> E + Sync,
    parallelism: usize,
    sink: &mut Sink<'_>,
    stats: &mut ExecStats,
) -> Result<(), QueryError>
where
    T: Send,
    E: FnMut(&T) -> Result<f64, QueryError>,
{
    if parallelism <= 1 {
        let mut eval = make_eval();
        for item in cursor {
            let (key, payload) = item?;
            stats.rows_scanned += rows_of(&payload);
            stats.lines_evaluated += 1;
            sink.offer(Answer {
                data_key: key,
                probability: eval(&payload)?,
            });
        }
        return Ok(());
    }
    morsel_scan(cursor, rows_of, make_eval, parallelism, sink, stats)
}

/// What one scan worker hands back when the work queue drains.
struct WorkerOutcome {
    sink: OwnedSink,
    lines: u64,
    error: Option<QueryError>,
}

/// Fan per-line evaluation out to `parallelism` workers while this
/// thread drives the (sequential) heap scan. Workers pull rows from a
/// bounded queue and fold answers into private accumulators; the driver
/// merges them in worker-index order once the scan is drained, so merged
/// ranked results are identical to a sequential run.
fn morsel_scan<T, E>(
    cursor: impl Iterator<Item = Result<(i64, T), QueryError>>,
    rows_of: impl Fn(&T) -> u64,
    make_eval: impl Fn() -> E + Sync,
    parallelism: usize,
    sink: &mut Sink<'_>,
    stats: &mut ExecStats,
) -> Result<(), QueryError>
where
    T: Send,
    E: FnMut(&T) -> Result<f64, QueryError>,
{
    std::thread::scope(|scope| -> Result<(), QueryError> {
        // Bounded work queue: the scan stays ahead of the workers without
        // ever materializing more than a window of rows.
        let (work_tx, work_rx) = mpsc::sync_channel::<(i64, T)>(parallelism * 4);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let make_eval = &make_eval;
        let mut handles = Vec::with_capacity(parallelism);
        for _ in 0..parallelism {
            let work_rx = Arc::clone(&work_rx);
            let mut local = sink.fork();
            handles.push(scope.spawn(move || {
                // Per-worker evaluation state, built on the worker's own
                // thread: scratch buffers are owned, never shared.
                let mut eval = make_eval();
                let mut lines = 0u64;
                let mut error = None;
                loop {
                    let next = work_rx.lock().expect("queue lock").recv();
                    let Ok((key, payload)) = next else { break };
                    if error.is_some() {
                        continue; // drain cheaply; the query already failed
                    }
                    match eval(&payload) {
                        Ok(probability) => {
                            lines += 1;
                            local.offer(Answer {
                                data_key: key,
                                probability,
                            });
                        }
                        Err(e) => error = Some(e),
                    }
                }
                WorkerOutcome {
                    sink: local,
                    lines,
                    error,
                }
            }));
        }
        // Drop the driver's receiver handle: if every worker dies (only
        // on panic), the channel closes and `send` below errors instead
        // of blocking forever once the bounded queue fills.
        drop(work_rx);

        let mut scan_error = None;
        for item in cursor {
            match item {
                Ok((key, payload)) => {
                    stats.rows_scanned += rows_of(&payload);
                    if work_tx.send((key, payload)).is_err() {
                        break; // all workers gone (only on panic)
                    }
                }
                Err(e) => {
                    scan_error = Some(e);
                    break;
                }
            }
        }
        drop(work_tx);

        let mut eval_error = None;
        for handle in handles {
            let outcome = handle.join().expect("scan worker panicked");
            stats.lines_evaluated += outcome.lines;
            if let Some(e) = outcome.error {
                eval_error = Some(e);
            }
            sink.absorb(outcome.sink);
        }
        match (scan_error, eval_error) {
            (Some(e), _) | (None, Some(e)) => Err(e),
            (None, None) => Ok(()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LoadOptions, OcrStore};
    use staccato_core::StaccatoParams;
    use staccato_ocr::{generate, ChannelConfig, CorpusKind, Dataset};
    use staccato_storage::Database;

    fn store_with(lines: usize, seed: u64) -> (OcrStore, Dataset) {
        let dataset = generate(CorpusKind::DbPapers, lines, seed);
        let db = Database::in_memory(512).unwrap();
        let opts = LoadOptions {
            channel: ChannelConfig::compact(seed),
            kmap_k: 10,
            staccato: StaccatoParams::new(10, 10),
            parallelism: 2,
        };
        (OcrStore::load(db, &dataset, &opts).unwrap(), dataset)
    }

    fn run(store: &OcrStore, approach: Approach, query: &Query, num_ans: usize) -> Vec<Answer> {
        let mut stats = ExecStats::default();
        let mut topk = TopK::new(num_ans);
        exec_filescan(
            store,
            approach,
            query,
            1,
            &mut Sink::Ranked(&mut topk),
            &mut stats,
        )
        .unwrap();
        topk.into_ranked()
    }

    #[test]
    fn rank_answers_orders_and_truncates() {
        let raw = vec![
            Answer {
                data_key: 1,
                probability: 0.2,
            },
            Answer {
                data_key: 2,
                probability: 0.0,
            },
            Answer {
                data_key: 3,
                probability: 0.9,
            },
            Answer {
                data_key: 4,
                probability: 0.2,
            },
        ];
        let ranked = rank_answers(raw, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].data_key, 3);
        assert_eq!(ranked[1].data_key, 1); // tie with 4 broken by key
    }

    #[test]
    fn offset_windows_agree_with_the_unpaged_ranking() {
        // LIMIT n OFFSET m must return rows m..m+n of the full ranking —
        // including past adversarial ties — and an offset past the end is
        // an empty page, not an error.
        let answers: Vec<Answer> = (0..150)
            .map(|i| Answer {
                data_key: 149 - i,
                probability: ((i % 5) as f64 + 1.0) / 6.0,
            })
            .collect();
        let full = rank_answers(answers.clone(), usize::MAX);
        for (limit, offset) in [
            (10usize, 0usize),
            (10, 10),
            (7, 33),
            (50, 140),
            (10, 10_000),
        ] {
            let mut topk = TopK::with_limit_offset(limit, offset, 0.0);
            for a in &answers {
                topk.push(*a);
            }
            let page = topk.into_ranked();
            let expect: Vec<Answer> = full.iter().skip(offset).take(limit).copied().collect();
            assert_eq!(page, expect, "LIMIT {limit} OFFSET {offset}");
        }
    }

    #[test]
    fn topk_equals_full_sort_on_adversarial_ties() {
        // Many duplicate probabilities so heap tie-breaks are exercised.
        let answers: Vec<Answer> = (0..200)
            .map(|i| Answer {
                data_key: 199 - i,
                probability: ((i % 7) as f64) / 7.0,
            })
            .collect();
        for num_ans in [1usize, 3, 50, 200, 500] {
            let mut sorted = answers.clone();
            sorted.retain(|a| a.probability > 0.0);
            sorted.sort_by(|a, b| {
                b.probability
                    .partial_cmp(&a.probability)
                    .unwrap()
                    .then(a.data_key.cmp(&b.data_key))
            });
            sorted.truncate(num_ans);
            assert_eq!(
                rank_answers(answers.clone(), num_ans),
                sorted,
                "num_ans={num_ans}"
            );
        }
    }

    #[test]
    fn fullsfa_recall_dominates_map() {
        let (store, dataset) = store_with(40, 11);
        let query = Query::keyword("database").unwrap();
        let truth: Vec<i64> = dataset
            .lines()
            .enumerate()
            .filter(|(_, (_, _, l))| l.contains("database"))
            .map(|(i, _)| i as i64)
            .collect();
        assert!(!truth.is_empty(), "corpus must contain the term");

        let map = run(&store, Approach::Map, &query, 100);
        let full = run(&store, Approach::FullSfa, &query, 100);
        let found = |answers: &[Answer], key: i64| answers.iter().any(|a| a.data_key == key);
        // FullSFA must find every true line (the truth always survives in
        // the full model).
        for &t in &truth {
            assert!(found(&full, t), "FullSFA missed true line {t}");
        }
        // And MAP can never find more true lines than FullSFA.
        let map_tp = truth.iter().filter(|&&t| found(&map, t)).count();
        let full_tp = truth.iter().filter(|&&t| found(&full, t)).count();
        assert!(map_tp <= full_tp);
    }

    #[test]
    fn approach_ordering_map_kmap_staccato_fullsfa() {
        // Retained mass ordering implies per-line probability ordering:
        // P_MAP ≤ P_kMAP and P_STACCATO ≤ P_FullSFA for every line.
        let (store, _) = store_with(15, 23);
        let query = Query::keyword("data").unwrap();
        let by_key = |answers: Vec<Answer>| -> std::collections::HashMap<i64, f64> {
            answers
                .into_iter()
                .map(|a| (a.data_key, a.probability))
                .collect()
        };
        let map = by_key(run(&store, Approach::Map, &query, 1000));
        let kmap = by_key(run(&store, Approach::KMap, &query, 1000));
        let stac = by_key(run(&store, Approach::Staccato, &query, 1000));
        let full = by_key(run(&store, Approach::FullSfa, &query, 1000));
        for (key, p) in &map {
            assert!(
                kmap.get(key).copied().unwrap_or(0.0) >= p - 1e-9,
                "kMAP < MAP at {key}"
            );
        }
        for (key, p) in &stac {
            assert!(
                full.get(key).copied().unwrap_or(0.0) >= p - 1e-9,
                "Full < Stac at {key}"
            );
        }
    }

    #[test]
    fn num_ans_caps_result_size() {
        let (store, _) = store_with(30, 7);
        // 'a' appears nearly everywhere → FullSFA matches nearly all lines.
        let query = Query::keyword("a").unwrap();
        let full = run(&store, Approach::FullSfa, &query, 5);
        assert_eq!(full.len(), 5);
        for w in full.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn approach_names_for_tables() {
        assert_eq!(Approach::Map.name(), "MAP");
        assert_eq!(Approach::all().len(), 4);
    }

    #[test]
    fn parallel_scan_equals_sequential() {
        let (store, _) = store_with(25, 13);
        for pattern in ["database", r"Sec(\x)*\d"] {
            let query = Query::regex(pattern).unwrap();
            for ap in Approach::all() {
                let mut seq_stats = ExecStats::default();
                let mut seq_topk = TopK::new(1000);
                exec_filescan(
                    &store,
                    ap,
                    &query,
                    1,
                    &mut Sink::Ranked(&mut seq_topk),
                    &mut seq_stats,
                )
                .unwrap();
                let seq = seq_topk.into_ranked();
                let mut par_stats = ExecStats::default();
                let mut par_topk = TopK::new(1000);
                exec_filescan(
                    &store,
                    ap,
                    &query,
                    4,
                    &mut Sink::Ranked(&mut par_topk),
                    &mut par_stats,
                )
                .unwrap();
                let par = par_topk.into_ranked();
                assert_eq!(seq.len(), par.len(), "{} {pattern}", ap.name());
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.data_key, b.data_key);
                    assert!((a.probability - b.probability).abs() < 1e-12);
                }
                assert_eq!(seq_stats.rows_scanned, par_stats.rows_scanned);
                assert_eq!(seq_stats.lines_evaluated, par_stats.lines_evaluated);
            }
        }
    }

    #[test]
    fn parallel_aggregate_count_is_exact() {
        // COUNT(*) is merge-order independent, so the morsel scan must
        // produce the exact sequential count on every representation
        // (SUM/AVG may differ in ulps; COUNT may not).
        let (store, _) = store_with(25, 29);
        let query = Query::keyword("data").unwrap();
        for ap in Approach::all() {
            let count_with = |threads: usize| {
                let mut agg = crate::agg::StreamingAggregate::new(0.0);
                let mut stats = ExecStats::default();
                exec_filescan(
                    &store,
                    ap,
                    &query,
                    threads,
                    &mut Sink::Aggregate(&mut agg),
                    &mut stats,
                )
                .unwrap();
                (agg.rows(), stats)
            };
            let (seq, seq_stats) = count_with(1);
            let (par, par_stats) = count_with(4);
            assert_eq!(seq, par, "{}", ap.name());
            assert_eq!(seq_stats.rows_scanned, par_stats.rows_scanned);
            assert_eq!(seq_stats.lines_evaluated, par_stats.lines_evaluated);
        }
    }

    fn stats_of(store: &OcrStore, approach: Approach, query: &Query) -> ExecStats {
        let mut stats = ExecStats::default();
        let mut topk = TopK::new(100);
        exec_filescan(
            store,
            approach,
            query,
            1,
            &mut Sink::Ranked(&mut topk),
            &mut stats,
        )
        .unwrap();
        stats
    }

    #[test]
    fn filescan_stats_count_rows_and_lines() {
        let (store, _) = store_with(12, 3);
        let query = Query::keyword("data").unwrap();
        let stats = stats_of(&store, Approach::Staccato, &query);
        assert_eq!(stats.rows_scanned, 12);
        assert_eq!(stats.lines_evaluated, 12);
        assert_eq!(stats.postings_probed, 0);
        // k-MAP scans k rows per line but still evaluates one line each.
        let stats = stats_of(&store, Approach::KMap, &query);
        assert_eq!(stats.lines_evaluated, 12);
        assert!(stats.rows_scanned > 12, "k-MAP reads k rows per line");
    }

    #[test]
    fn topk_threshold_drops_rows_before_the_heap() {
        let answers: Vec<Answer> = [0.1, 0.5, 0.49999, 0.9, 0.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| Answer {
                data_key: i as i64,
                probability: p,
            })
            .collect();
        let mut topk = TopK::with_min_prob(10, 0.5);
        for &a in &answers {
            topk.push(a);
        }
        let ranked = topk.into_ranked();
        assert_eq!(
            ranked.iter().map(|a| a.data_key).collect::<Vec<_>>(),
            vec![3, 1]
        );
        // Threshold 0.0 behaves exactly like the unthresholded heap.
        let mut a = TopK::new(10);
        let mut b = TopK::with_min_prob(10, 0.0);
        for &x in &answers {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a.into_ranked(), b.into_ranked());
        // Threshold 1.0 keeps only certain answers.
        let mut c = TopK::with_min_prob(10, 1.0);
        for &x in &answers {
            c.push(x);
        }
        assert!(c.is_empty());
        c.push(Answer {
            data_key: 9,
            probability: 1.0,
        });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn aggregate_sink_agrees_with_ranked_sink_on_qualification() {
        let (store, _) = store_with(15, 19);
        let query = Query::keyword("data").unwrap();
        for min_prob in [0.0, 0.3, 1.0] {
            let mut stats = ExecStats::default();
            let mut topk = TopK::with_min_prob(10_000, min_prob);
            exec_filescan(
                &store,
                Approach::Staccato,
                &query,
                1,
                &mut Sink::Ranked(&mut topk),
                &mut stats,
            )
            .unwrap();
            let ranked = topk.into_ranked();
            let mut agg = crate::agg::StreamingAggregate::new(min_prob);
            let mut stats = ExecStats::default();
            exec_filescan(
                &store,
                Approach::Staccato,
                &query,
                1,
                &mut Sink::Aggregate(&mut agg),
                &mut stats,
            )
            .unwrap();
            assert_eq!(agg.rows() as usize, ranked.len(), "min_prob={min_prob}");
            let sum: f64 = ranked.iter().map(|a| a.probability).sum();
            assert!(
                (agg.finish(crate::agg::AggregateFunc::SumProb) - sum).abs() < 1e-12,
                "min_prob={min_prob}"
            );
        }
    }
}
