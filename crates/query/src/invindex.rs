//! Dictionary-based inverted indexing over SFA data (§4).
//!
//! Directly indexing every term of every retained string blows up
//! exponentially with the number of chunks `m` (Figure 5) — so, following
//! the paper, the index only covers terms from a user-supplied dictionary
//! compiled to a trie automaton. Construction is Algorithms 3–4
//! ([`blob_postings`]): a topological walk over the *stored* chunk graph —
//! the Staccato blob decoded into a reusable arena, labels read in place —
//! that starts a fresh trie walk at every character offset of every
//! retained string and carries in-flight walks across edges as *augmented
//! states*, so terms straddling chunk boundaries are still found. A
//! posting records where a term starts, `(DataKey, edge, path, offset)`,
//! in the blob's own edge and emission numbering; index build and ingest
//! both walk the bytes they store, so no owned graph is made.
//!
//! Postings live in a relational B+-tree (`term ␀ DataKey seq → packed
//! location`), mirroring "we implement the index as a relational table
//! with a B+-tree on top of it" (§5.3). Probing takes a query's left
//! anchor (§2.1), fetches each candidate line's encoded graph point-wise
//! through the primary key as borrowed bytes, and evaluates only a
//! *projection* of it — the nodes within the pattern's span of the posted
//! start (§4, "Projection") — on the compiled scan kernel
//! ([`ScanKernel::eval_projection`](crate::kernel::ScanKernel::eval_projection)).
//! That decodes only what the projection reads: a skeleton pass checks
//! the whole blob's counts, lengths and structure, and only the emission
//! runs of the projected edges are decoded and checked (the arena and
//! codec the filescan uses, at the codec's shallow depth). The naive
//! projection it replaced is the test oracle
//! [`crate::reference::project_eval`].

use crate::error::QueryError;
use crate::exec::{Answer, Sink};
use crate::kernel::ScanScratch;
use crate::plan::ExecStats;
use crate::query::Query;
use crate::store::OcrStore;
use staccato_automata::{TermId, Trie};
use staccato_sfa::codec::{self, decode_into_arena};
use staccato_sfa::{DecodeArena, Sfa, SfaError};
use staccato_storage::{BTree, BufferPool, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};

/// A term-start location within one line's chunk graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Edge (chunk) id within the stored graph.
    pub edge: u32,
    /// Which retained string (path rank) on that edge.
    pub path: u16,
    /// Byte offset of the term start within that string.
    pub offset: u16,
}

impl Posting {
    fn pack(self) -> u64 {
        (self.edge as u64) << 32 | (self.path as u64) << 16 | self.offset as u64
    }

    fn unpack(v: u64) -> Posting {
        Posting {
            edge: (v >> 32) as u32,
            path: (v >> 16) as u16,
            offset: v as u16,
        }
    }
}

/// Handle to a built inverted index. The posting counter is atomic so
/// the ingest path can extend a registered (Arc-shared) index in place.
pub struct InvertedIndex {
    postings: BTree,
    dict: BTree,
    posting_count: AtomicU64,
}

impl InvertedIndex {
    /// Is `term` in the index dictionary? (The planner's legality check:
    /// distinguishes "no matches" from "term not indexed".)
    pub fn contains_term(&self, pool: &BufferPool, term: &str) -> Result<bool, QueryError> {
        Ok(self.dict.get(pool, term.as_bytes())?.is_some())
    }

    /// Number of postings inserted (Figure 19/20's index size), including
    /// any added by live ingest.
    pub fn posting_count(&self) -> u64 {
        self.posting_count.load(Ordering::Acquire)
    }

    /// Index one more line's stored chunk graph — the ingest path's
    /// incremental maintenance hook, run on the Staccato blob the line is
    /// stored as, whose decode `scratch` holds ([`PostingScratch::decode`]).
    /// Inserts the same `(term ␀ DataKey seq)` keys a full rebuild would
    /// produce for `key`, so an extended index equals one built after the
    /// fact.
    pub(crate) fn extend_with_line(
        &self,
        pool: &BufferPool,
        trie: &Trie,
        key: i64,
        blob: &[u8],
        scratch: &mut PostingScratch,
    ) -> Result<(), QueryError> {
        let posts = decoded_postings(trie, blob, scratch);
        insert_line_postings(&self.postings, pool, trie, key, posts)?;
        self.posting_count
            .fetch_add(posts.len() as u64, Ordering::AcqRel);
        Ok(())
    }
}

/// Insert one line's sorted postings into the index's B+-tree, numbering
/// each term's postings from 0. Shared by [`build_index`] and
/// [`InvertedIndex::extend_with_line`].
fn insert_line_postings(
    postings: &BTree,
    pool: &BufferPool,
    trie: &Trie,
    key: i64,
    posts: &[(TermId, Posting)],
) -> Result<(), QueryError> {
    let mut seq = 0u32;
    for (i, &(term, posting)) in posts.iter().enumerate() {
        if i > 0 && posts[i - 1].0 != term {
            seq = 0;
        }
        let mut k = Vec::with_capacity(trie.term(term).len() + 13);
        k.extend_from_slice(trie.term(term).as_bytes());
        k.push(0);
        k.extend_from_slice(&key.to_be_bytes());
        k.extend_from_slice(&seq.to_be_bytes());
        seq += 1;
        postings.insert(pool, &k, posting.pack())?;
    }
    Ok(())
}

/// Reusable buffers for [`blob_postings`]: the decode arena, the
/// in-flight trie walks per node, and the postings found.
#[derive(Default)]
pub struct PostingScratch {
    arena: DecodeArena,
    walks: Vec<Vec<(u32, Posting)>>,
    found: Vec<(TermId, Posting)>,
}

/// Algorithm 3–4: all dictionary-term start locations in one stored
/// chunk graph, read from its blob through `scratch`'s decode arena.
///
/// Nodes are visited in topological order. Each retained string starts a
/// fresh trie walk at every offset (Algorithm 4's `SO` set) and carries
/// the walks that reach its edge's source on (its second loop); the walks
/// still alive at the end of the string wait at the edge's target as
/// *augmented states*, so terms straddling chunk boundaries are found.
/// Returns `(term, posting)` pairs sorted and deduplicated: a start that
/// completes the same term along two downstream branches is one posting.
pub fn blob_postings<'s>(
    trie: &Trie,
    blob: &[u8],
    scratch: &'s mut PostingScratch,
) -> Result<&'s [(TermId, Posting)], SfaError> {
    scratch.decode(blob)?;
    Ok(decoded_postings(trie, blob, scratch))
}

impl PostingScratch {
    /// Decode `blob` into the arena [`InvertedIndex::extend_with_line`]
    /// reads: one decode serves every registered index.
    pub(crate) fn decode(&mut self, blob: &[u8]) -> Result<(), SfaError> {
        decode_into_arena(blob, &mut self.arena)
    }
}

/// [`blob_postings`] of `blob`, whose decode `scratch`'s arena holds.
fn decoded_postings<'s>(
    trie: &Trie,
    blob: &[u8],
    scratch: &'s mut PostingScratch,
) -> &'s [(TermId, Posting)] {
    let PostingScratch {
        arena,
        walks,
        found,
    } = scratch;
    found.clear();
    walks.iter_mut().for_each(Vec::clear);
    walks.resize_with(walks.len().max(arena.node_count() as usize), Vec::new);
    for &v in arena.topo() {
        let incoming = std::mem::take(&mut walks[v as usize]);
        for &eid in arena.out_edges(v) {
            let edge = arena.edges()[eid as usize];
            let emissions = &arena.emissions()[edge.em_start as usize..edge.em_end as usize];
            let out = &mut walks[edge.to as usize];
            for (path, em) in emissions.iter().enumerate() {
                let bytes = &blob[em.label_range()];
                for offset in 0..bytes.len() {
                    let origin = Posting {
                        edge: eid,
                        path: path as u16,
                        offset: offset as u16,
                    };
                    if let Some(st) = walk(trie, trie.root(), &bytes[offset..], origin, found) {
                        out.push((st, origin));
                    }
                }
                for &(st, origin) in &incoming {
                    if let Some(st) = walk(trie, st, bytes, origin, found) {
                        out.push((st, origin));
                    }
                }
            }
        }
        // Hand the list back: the next line clears it and reuses its capacity.
        walks[v as usize] = incoming;
    }
    found.sort_unstable();
    found.dedup();
    found
}

/// Step a trie walk from `state` through `bytes`, recording `origin`
/// under every term it completes. Returns the state it ends in, or `None`
/// if it dies mid-string.
fn walk(
    trie: &Trie,
    mut state: u32,
    bytes: &[u8],
    origin: Posting,
    found: &mut Vec<(TermId, Posting)>,
) -> Option<u32> {
    for &c in bytes {
        state = trie.step(state, c)?;
        if let Some(term) = trie.terminal(state) {
            found.push((term, origin));
        }
    }
    Some(state)
}

/// [`blob_postings`] on an owned graph, by way of its encoding: postings
/// name the edges as [`codec::encode`] numbers them. This form exists only
/// because the repo benchmark and `tests/bench_surface.rs` name it; the
/// product indexes the stored blobs.
pub fn line_postings(trie: &Trie, sfa: &Sfa) -> Vec<(TermId, Posting)> {
    blob_postings(trie, &codec::encode(sfa), &mut PostingScratch::default())
        .expect("an encoded SFA decodes")
        .to_vec()
}

/// The catalog names of index `name`'s two B+-trees: postings, dictionary.
fn tree_names(name: &str) -> [String; 2] {
    [format!("{name}_postings"), format!("{name}_dict")]
}

/// Drop the catalog entries of the trees [`build_index`] made under
/// `name`, if the store has them, so it can build under that name again.
/// Their pages are not reclaimed.
pub(crate) fn forget_index(store: &OcrStore, name: &str) {
    for tree in tree_names(name) {
        store.db().drop_index(&tree);
    }
}

/// Build the inverted index over the Staccato representation.
///
/// Creates two B+-trees in the store's database: `<name>_postings` and
/// `<name>_dict` (dictionary membership, so probes can tell "no matches"
/// apart from "term not indexed").
pub fn build_index(store: &OcrStore, trie: &Trie, name: &str) -> Result<InvertedIndex, QueryError> {
    let [postings, dict] = tree_names(name);
    let postings = store.create_index(&postings)?;
    let dict = store.create_index(&dict)?;
    let pool = store.db().pool();
    for tid in 0..trie.term_count() as u32 {
        dict.insert(pool, trie.term(tid).as_bytes(), 1)?;
    }
    // Owned bytes per line: no heap page stays pinned while the postings
    // pages are written.
    let mut scratch = PostingScratch::default();
    let mut posting_count = 0u64;
    for item in store.staccato_blobs()? {
        let (key, blob) = item?;
        let posts = blob_postings(trie, &blob, &mut scratch)?;
        insert_line_postings(&postings, pool, trie, key, posts)?;
        posting_count += posts.len() as u64;
    }
    Ok(InvertedIndex {
        postings,
        dict,
        posting_count: AtomicU64::new(posting_count),
    })
}

/// All postings for `term`, grouped by line. A key under the term's
/// prefix that is not `term ␀ DataKey seq` long — which no build writes —
/// is reported as a corrupt index page instead of being sliced.
pub fn probe_term(
    store: &OcrStore,
    index: &InvertedIndex,
    term: &str,
) -> Result<Vec<(i64, Vec<Posting>)>, QueryError> {
    let mut prefix = term.as_bytes().to_vec();
    prefix.push(0);
    let pool = store.db().pool();
    let mut grouped: Vec<(i64, Vec<Posting>)> = Vec::new();
    for (k, v) in index.postings.scan_prefix(pool, &prefix)? {
        // `DataKey` then `seq`, after the prefix the scan matched.
        let rest = &k[prefix.len()..];
        if rest.len() != 12 {
            return Err(StorageError::CorruptPage {
                page: index.postings.meta_page(),
                reason: "posting key is not term, NUL, DataKey and sequence number",
            }
            .into());
        }
        let data_key = i64::from_be_bytes(rest[..8].try_into().expect("length checked"));
        let posting = Posting::unpack(v);
        match grouped.last_mut() {
            Some((dk, v)) if *dk == data_key => v.push(posting),
            _ => grouped.push((data_key, vec![posting])),
        }
    }
    Ok(grouped)
}

/// Index-assisted execution of a left-anchored query (§5.3's protocol):
/// check the anchor against the dictionary, look up its postings, fetch
/// each candidate line's encoded graph point-wise as borrowed bytes, and
/// evaluate §4's projection from the posted edges on the scan kernel
/// ([`ScanKernel::eval_projection`](crate::kernel::ScanKernel::eval_projection))
/// — one skeleton pass plus the projected emission runs into the
/// statement's [`ScanScratch`] arena per candidate, no owned `Sfa`. Counts
/// work, including the runs decoded and skipped, into `stats`. The returned *answer set*
/// equals a Staccato filescan for anchored patterns; probabilities are the
/// projection's (over)estimate conditioned on the match starting at a
/// posted location.
pub(crate) fn exec_index_probe(
    store: &OcrStore,
    index: &InvertedIndex,
    query: &Query,
    sink: &mut Sink<'_>,
    stats: &mut ExecStats,
) -> Result<(), QueryError> {
    let anchor = query
        .anchor
        .as_deref()
        .ok_or_else(|| QueryError::NotAnchored(query.pattern.clone()))?;
    if !index.contains_term(store.db().pool(), anchor)? {
        return Err(QueryError::TermNotInDictionary(anchor.to_string()));
    }
    // The pattern spans at most `max_span` edges past the posted one.
    let depth = query.max_span().unwrap_or(usize::MAX).saturating_add(1);
    let mut reader = store.staccato_point_reader()?;
    let mut scratch = ScanScratch::new();
    let mut start_edges: Vec<u32> = Vec::new();
    for (data_key, posts) in probe_term(store, index, anchor)? {
        stats.postings_probed += posts.len() as u64;
        start_edges.clear();
        start_edges.extend(posts.iter().map(|p| p.edge));
        let probability = reader.with_blob(data_key, |blob| {
            query
                .kernel
                .eval_projection(&mut scratch, blob, &start_edges, depth)
        })??;
        let (decoded, runs) = scratch.projected_runs();
        stats.runs_decoded += u64::from(decoded);
        stats.runs_skipped += u64::from(runs - decoded);
        stats.rows_scanned += 1;
        stats.lines_evaluated += 1;
        sink.offer(Answer {
            data_key,
            probability,
        });
    }
    Ok(())
}

/// Figure 5's counter: how many postings *direct* indexing of one chunk
/// graph would create — the number of `(path, word-start)` pairs across
/// all `kᵐ` retained strings. Returned as `f64` because it overflows
/// 64-bit integers already at moderate `m` (the paper hits the overflow
/// at `m = 60, k = 50`).
pub fn direct_posting_count(sfa: &Sfa) -> f64 {
    // Path count DP.
    let mut cnt = vec![0.0f64; sfa.num_node_slots() as usize];
    cnt[sfa.start() as usize] = 1.0;
    for v in sfa.topo_order() {
        let c = cnt[v as usize];
        if c == 0.0 {
            continue;
        }
        for &eid in sfa.out_edges(v) {
            let e = sfa.edge(eid).expect("live");
            cnt[e.to as usize] += c * e.emissions.len() as f64;
        }
    }
    let paths = cnt[sfa.finish() as usize];
    // Words per retained string ≈ words in the most likely string.
    let words = staccato_sfa::map_string(sfa)
        .map(|(s, _)| s.split_whitespace().count().max(1))
        .unwrap_or(1) as f64;
    paths * words
}

/// `log₁₀` of [`direct_posting_count`], convenient for Figure 5's
/// log-scale axes.
pub fn direct_posting_count_log10(sfa: &Sfa) -> f64 {
    direct_posting_count(sfa).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TopK;
    use crate::plan::{PlanPreference, QueryRequest};
    use crate::session::Staccato;
    use crate::store::{LoadOptions, OcrStore};
    use staccato_core::StaccatoParams;
    use staccato_ocr::{generate, ChannelConfig, CorpusKind};
    use staccato_sfa::{Emission, NodeId, SfaBuilder};
    use staccato_storage::Database;
    use std::collections::{HashMap, HashSet};

    /// Chunk graph whose chunks split "my Ford car" as "my Fo" + "rd car",
    /// so the term 'ford' straddles the chunk boundary.
    fn straddle_graph() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<_> = (0..3).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![Emission::new("my Fo", 0.6), Emission::new("my F0", 0.4)],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![Emission::new("rd car", 0.7), Emission::new("rd  ar", 0.3)],
        );
        b.build(n[0], n[2]).unwrap()
    }

    #[test]
    fn postings_found_within_one_chunk() {
        let trie = Trie::build(["car", "my"]);
        let posts = line_postings(&trie, &straddle_graph());
        let terms: Vec<&str> = posts.iter().map(|(t, _)| trie.term(*t)).collect();
        assert!(terms.contains(&"my"));
        assert!(terms.contains(&"car"));
        // 'my' starts at edge 0 offset 0 on both paths.
        let my_id = trie.lookup("my").unwrap();
        let my_posts: Vec<&Posting> = posts
            .iter()
            .filter(|(t, _)| *t == my_id)
            .map(|(_, p)| p)
            .collect();
        assert!(my_posts
            .iter()
            .any(|p| p.edge == 0 && p.offset == 0 && p.path == 0));
        assert!(my_posts
            .iter()
            .any(|p| p.edge == 0 && p.offset == 0 && p.path == 1));
    }

    #[test]
    fn postings_straddle_chunk_boundaries() {
        // The defining feature of Algorithms 3–4: 'ford' starts in chunk 0
        // ("my Fo", offset 3) and completes in chunk 1 ("rd car").
        let trie = Trie::build(["ford"]);
        let posts = line_postings(&trie, &straddle_graph());
        assert_eq!(posts.len(), 1);
        let (_, p) = posts[0];
        assert_eq!(p.edge, 0);
        assert_eq!(p.offset, 3);
        assert_eq!(p.path, 0); // only the "my Fo" path starts the term
    }

    #[test]
    fn case_folding_in_postings() {
        let trie = Trie::build(["fo"]);
        let posts = line_postings(&trie, &straddle_graph());
        // "Fo" matches case-insensitively.
        assert!(!posts.is_empty());
    }

    #[test]
    fn dead_walks_produce_no_postings() {
        let trie = Trie::build(["xyzzy"]);
        assert!(line_postings(&trie, &straddle_graph()).is_empty());
    }

    #[test]
    fn direct_count_grows_exponentially_with_chunks() {
        // Chain of m chunks, k strings each → kᵐ paths.
        let build = |m: usize, k: usize| {
            let mut b = SfaBuilder::new();
            let mut prev = b.add_node();
            let start = prev;
            for _ in 0..m {
                let next = b.add_node();
                let ems = (0..k)
                    .map(|i| Emission::new(format!("w{i} "), 1.0 / k as f64))
                    .collect();
                b.add_edge(prev, next, ems);
                prev = next;
            }
            b.build(start, prev).unwrap()
        };
        let c5 = direct_posting_count(&build(5, 10));
        let c10 = direct_posting_count(&build(10, 10));
        let c60 = direct_posting_count(&build(60, 50));
        assert!(c10 / c5 >= 1e4, "exponential growth expected: {c5} → {c10}");
        // Paper: k=50 overflows u64 beyond m=60.
        assert!(c60 > u64::MAX as f64);
        assert!(direct_posting_count_log10(&build(60, 50)) > 19.0);
    }

    fn keys(answers: &[Answer]) -> std::collections::BTreeSet<i64> {
        answers.iter().map(|a| a.data_key).collect()
    }

    fn anchored_store() -> OcrStore {
        let mut dataset = generate(CorpusKind::CongressActs, 60, 31);
        // One line long enough that its chunk graph spans several blob
        // pages, so point fetches take the assembled-buffer arm too.
        dataset.docs.push(staccato_ocr::Document {
            name: "long-line".to_string(),
            lines: vec![format!(
                "{}the President signed Public Law 89 of the Commission{}",
                "whereas it is further enacted and provided that ".repeat(14),
                " and for other purposes as amended by the Congress".repeat(14),
            )],
        });
        let db = Database::in_memory(1024).unwrap();
        let opts = LoadOptions {
            channel: ChannelConfig::compact(31),
            kmap_k: 8,
            staccato: StaccatoParams::new(10, 8),
            parallelism: 2,
        };
        OcrStore::load(db, &dataset, &opts).unwrap()
    }

    #[test]
    fn indexed_query_matches_filescan_answer_set() {
        let session = Staccato::open(anchored_store());
        let trie = Trie::build(["public", "president", "commission"]);
        let postings = session.register_index(&trie, "inv").unwrap();
        assert!(postings > 0);

        for pattern in ["President", r"Public Law (8|9)\d"] {
            let probe = session
                .execute(&QueryRequest::regex(pattern).num_ans(1000))
                .unwrap();
            assert!(probe.plan.is_index_probe(), "{pattern:?} should auto-probe");
            let scan = session
                .execute(
                    &QueryRequest::regex(pattern)
                        .num_ans(1000)
                        .plan_preference(PlanPreference::ForceFileScan),
                )
                .unwrap();
            assert!(!scan.plan.is_index_probe());
            assert_eq!(
                keys(&scan.answers),
                keys(&probe.answers),
                "answer sets differ for {pattern:?}"
            );
        }
    }

    /// Auto-planned probe answers equal a probe rebuilt from the public
    /// pieces and the reference evaluator — keys and `to_bits`
    /// probabilities, in rank order — with the parent's work counters,
    /// and still equal the filescan as a key set.
    #[test]
    fn probe_equals_reference_probe_bit_for_bit() {
        use crate::reference::project_eval;
        use staccato_storage::blob::BLOB_PAYLOAD;

        let session = Staccato::open(anchored_store());
        let trie = Trie::build(["public", "president", "commission", "the"]);
        session.register_index(&trie, "inv").unwrap();
        let index = session.index("inv").unwrap();
        let store = session.store();
        let graphs: HashMap<i64, Sfa> = store
            .staccato_cursor()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let blob_len: HashMap<i64, usize> = store
            .staccato_blobs()
            .unwrap()
            .map(|item| item.map(|(k, b)| (k, b.len())))
            .collect::<Result<_, _>>()
            .unwrap();
        let (mut single_page, mut multi_page) = (0, 0);

        for pattern in ["President", r"Public Law (8|9)\d", "the (\\x)*of"] {
            let request = QueryRequest::regex(pattern).num_ans(1000);
            let probe = session.execute(&request).unwrap();
            assert!(probe.plan.is_index_probe(), "{pattern:?} should auto-probe");

            let query = Query::regex(pattern).unwrap();
            let depth = query.max_span().unwrap_or(usize::MAX).saturating_add(1);
            let candidates = probe_term(store, &index, query.anchor.as_deref().unwrap()).unwrap();
            assert!(!candidates.is_empty(), "{pattern:?} has no candidates");
            let mut postings = 0u64;
            let mut expected = Vec::new();
            for (data_key, posts) in &candidates {
                postings += posts.len() as u64;
                if blob_len[data_key] <= BLOB_PAYLOAD {
                    single_page += 1;
                } else {
                    multi_page += 1;
                }
                let graph = &graphs[data_key];
                let sources: HashSet<NodeId> = posts
                    .iter()
                    .filter_map(|p| graph.edge(p.edge))
                    .map(|e| e.from)
                    .collect();
                let probability = sources
                    .into_iter()
                    .map(|from| project_eval(&query.dfa, graph, from, depth))
                    .fold(0.0f64, f64::max);
                expected.push(Answer {
                    data_key: *data_key,
                    probability,
                });
            }
            let expected = crate::exec::rank_answers(expected, 1000);
            assert_eq!(probe.answers.len(), expected.len(), "{pattern:?}");
            for (got, want) in probe.answers.iter().zip(&expected) {
                assert_eq!(got.data_key, want.data_key, "{pattern:?}");
                assert_eq!(
                    got.probability.to_bits(),
                    want.probability.to_bits(),
                    "{pattern:?} line {}",
                    got.data_key
                );
            }
            assert_eq!(probe.stats.postings_probed, postings);
            assert_eq!(probe.stats.rows_scanned, candidates.len() as u64);
            assert_eq!(probe.stats.lines_evaluated, candidates.len() as u64);

            let scan = session
                .execute(&request.plan_preference(PlanPreference::ForceFileScan))
                .unwrap();
            assert_eq!(keys(&scan.answers), keys(&probe.answers), "{pattern:?}");
        }
        // Both arms of the borrowed blob fetch were exercised.
        assert!(
            single_page > 0 && multi_page > 0,
            "single-page {single_page}, multi-page {multi_page}"
        );
    }

    #[test]
    fn unanchored_query_is_rejected() {
        let store = anchored_store();
        let trie = Trie::build(["public"]);
        let index = build_index(&store, &trie, "inv2").unwrap();
        let query = Query::regex(r"\d\d\d").unwrap();
        let mut stats = ExecStats::default();
        let mut topk = TopK::new(10);
        assert!(matches!(
            exec_index_probe(
                &store,
                &index,
                &query,
                &mut Sink::Ranked(&mut topk),
                &mut stats
            ),
            Err(QueryError::NotAnchored(_))
        ));
    }

    #[test]
    fn missing_dictionary_term_is_rejected() {
        let store = anchored_store();
        let trie = Trie::build(["public"]);
        let index = build_index(&store, &trie, "inv3").unwrap();
        assert!(index.contains_term(store.db().pool(), "public").unwrap());
        assert!(!index.contains_term(store.db().pool(), "president").unwrap());
        let query = Query::keyword("President").unwrap();
        let mut stats = ExecStats::default();
        let mut topk = TopK::new(10);
        assert!(matches!(
            exec_index_probe(
                &store,
                &index,
                &query,
                &mut Sink::Ranked(&mut topk),
                &mut stats
            ),
            Err(QueryError::TermNotInDictionary(_))
        ));
    }

    #[test]
    fn posting_pack_roundtrip() {
        let p = Posting {
            edge: 123_456,
            path: 42,
            offset: 999,
        };
        assert_eq!(Posting::unpack(p.pack()), p);
    }
}
