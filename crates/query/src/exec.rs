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
//! [`OcrStore`] one line at a time, on the calling thread, and feeds a
//! bounded [`TopK`] heap, so query memory is `O(NumAns + one line)`
//! regardless of corpus size. Per-line probability computations are
//! independent (§5.4), so a scan could fan lines out to worker threads;
//! none does, because concurrency comes from statements running side by
//! side on one shared session.
//!
//! These executors are plumbing; the public entry point is
//! [`Staccato::execute`](crate::session::Staccato::execute) with a
//! [`QueryRequest`](crate::plan::QueryRequest).

use crate::agg::StreamingAggregate;
use crate::error::QueryError;
use crate::kernel::{EvalOutcome, ScanScratch};
use crate::plan::ExecStats;
use crate::query::Query;
use crate::store::OcrStore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
}

/// Streaming filescan over `approach` on the calling thread, delivering
/// answers into `sink`, counting into `stats`.
///
/// Evaluation runs through the query's compiled [`ScanKernel`]
/// (see [`crate::kernel`]): rows stream as raw bytes and are decoded
/// *borrowed* (no per-line `String`/`Sfa` materialization), blobs run
/// through the arena DP with interned label transitions, and the anchor
/// prescreen skips lines that provably cannot match — counted in
/// [`ExecStats::prescreen_skipped`]. A Staccato line that tier 0 rejects
/// from its row's synopsis is never fetched — also counted in
/// [`ExecStats::blobs_skipped`]. Skipped lines still count as
/// evaluated: the prescreen changes *how* a line's probability is
/// computed, never whether it is.
///
/// [`ScanKernel`]: crate::kernel::ScanKernel
pub(crate) fn exec_filescan(
    store: &OcrStore,
    approach: Approach,
    query: &Query,
    sink: &mut Sink<'_>,
    stats: &mut ExecStats,
) -> Result<(), QueryError> {
    let kernel = &query.kernel;
    match approach {
        Approach::Map => {
            for item in store.map_raw_cursor()? {
                let (key, bytes) = item?;
                stats.rows_scanned += 1;
                stats.lines_evaluated += 1;
                let (s, p) = crate::store::decode_map_row(&bytes)?;
                deliver(sink, stats, key, kernel.eval_string(s, p));
            }
            Ok(())
        }
        Approach::KMap => {
            for item in store.kmap_raw_cursor()? {
                let (key, rows) = item?;
                stats.rows_scanned += rows.len() as u64;
                stats.lines_evaluated += 1;
                let mut decoded = Vec::with_capacity(rows.len());
                for row in &rows {
                    decoded.push(crate::store::decode_kmap_row(row)?);
                }
                deliver(
                    sink,
                    stats,
                    key,
                    kernel.eval_string_group(decoded.iter().copied()),
                );
            }
            Ok(())
        }
        // Blob scans stream borrowed bytes through one reusable blob
        // buffer and one scan scratch (no per-row `Vec`).
        Approach::FullSfa => {
            let mut scratch = ScanScratch::new();
            store.for_each_full_sfa_blob(|key, blob| {
                stats.rows_scanned += 1;
                stats.lines_evaluated += 1;
                let out = kernel.eval_blob(&mut scratch, blob)?;
                deliver(sink, stats, key, out);
                Ok(())
            })
        }
        // Tier 0 decides a Staccato row from the synopsis in its heap row;
        // only the rows it admits fetch and decode their blob.
        Approach::Staccato => {
            let mut scratch = ScanScratch::new();
            store.for_each_staccato_row(|row| {
                stats.rows_scanned += 1;
                stats.lines_evaluated += 1;
                let key = row.key;
                let synopsis = row
                    .synopsis
                    .ok_or(QueryError::MissingRepresentation("StaccatoGraph synopsis"))?;
                let out = match kernel.eval_synopsis(synopsis) {
                    Some(out) => {
                        stats.blobs_skipped += 1;
                        out
                    }
                    None => row.with_blob(|blob| kernel.eval_blob(&mut scratch, blob))??,
                };
                deliver(sink, stats, key, out);
                Ok(())
            })
        }
    }
}

/// Count one evaluated line's prescreen skip and offer its answer.
fn deliver(sink: &mut Sink<'_>, stats: &mut ExecStats, key: i64, out: EvalOutcome) {
    if out.prescreened {
        stats.prescreen_skipped += 1;
    }
    sink.offer(Answer {
        data_key: key,
        probability: out.probability,
    });
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

    fn stats_of(store: &OcrStore, approach: Approach, query: &Query) -> ExecStats {
        let mut stats = ExecStats::default();
        let mut topk = TopK::new(100);
        exec_filescan(
            store,
            approach,
            query,
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
