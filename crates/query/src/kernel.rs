//! The compiled scan kernel: per-query machinery that replaces the naive
//! per-row evaluation loop on the filescan and index-probe hot paths.
//!
//! [`crate::reference::eval_sfa`] is the reference semantics — a forward DP
//! over `(SFA node, DFA state)` pairs — but its inner loop re-walks every
//! emission label through the DFA once *per live DFA state per row*, and
//! every row pays a fresh `Sfa` decode (nodes, adjacency `Vec`s, one
//! `String` per label). [`ScanKernel`] + [`ScanScratch`] keep the
//! semantics and drop the per-row work:
//!
//! * **Dense DFA** — the query automaton is compiled once into a
//!   byte-class-compressed [`DenseDfa`] table (see
//!   `staccato_automata::dense`).
//! * **Arena batch decode** — blobs decode into a reusable
//!   [`DecodeArena`] (borrowed labels, CSR adjacency, recycled buffers);
//!   the DP's state vectors are pooled and reused across rows. The
//!   decode also records the set of bytes that occur in any label.
//! * **Three-tier prescreen** — rows that provably cannot match are
//!   skipped before the full DP. Tier 0 ([`ScanKernel::eval_synopsis`])
//!   reads a Staccato line's label synopsis ([`blob_synopsis`]), stored
//!   in its heap row, and decides the row before its blob is fetched:
//!   the literal's bytes against the label-byte set, then its adjacent
//!   pairs against a 64 × 64 byte-class bigram matrix. Tier 1 tests the
//!   pattern's required literal against the decode's label-byte set
//!   (four word operations; substring containment for MAP/k-MAP
//!   strings), tier 2 is a bitset reachability DP over `(node,
//!   DFA-state set)`. Every tier only ever skips rows whose exact
//!   probability is `+0.0`, so results stay **bit-identical** to the
//!   naive path (see the soundness notes on [`ScanKernel::eval_blob`]).
//! * **Label transitions by class sequence** — a label's `state → state`
//!   function depends only on its sequence of [`DenseDfa::class`]es.
//!   1- and 2-byte labels index one flat `k + k²` memo of composed
//!   transition vectors ([`DenseDfa::compose_label`]), filled lazily per
//!   kernel, so resolving an emission is two array reads and the DP's
//!   `dfa.run_from(s, label)` becomes a gather. Longer labels are walked
//!   in place.
//!
//! On the benchmark corpus (seed 1, 300 lines, the seven Table 6
//! patterns, 2-core box) tier 0 costs 24–27 ns a Staccato row and decides
//! 93.9 % of them; an admitted row pays its ≈ 7 µs fetch and 38–40 µs of
//! kernel: decode 12–13 µs, label resolution ≈ 7 µs, tier 2 ≈ 5 µs and,
//! on the 74 % that tier 2 does not reject, the DP ≈ 20 µs.
//!
//! Every floating-point operation of the reference implementation is
//! replicated in the same order — same topological order (the arena
//! reproduces `Sfa::try_topo_order`'s tie-breaking), same edge and
//! emission order, same `dst[s2] += mass * prob` accumulation, same final
//! summation — so `f64::to_bits` equality with [`crate::reference::eval_sfa`]
//! / [`crate::reference::eval_strings`] holds on every row, which the
//! differential proptests in `tests/kernel.rs` enforce.
//!
//! The index probe enters through [`ScanKernel::eval_projection`], which
//! decodes at the codec's shallow depth: a skeleton pass over the whole
//! blob (every count, every length, the graph's structure), then only the
//! emission runs of the edges inside some posted start node's projection,
//! then §4's depth-bounded projection DP from each start node — held
//! bit-identical to [`crate::reference::project_eval`] the same way. The
//! probe validates every byte it reads and none of the runs it skips: a
//! bad label or probability outside every projection does not fail it,
//! as a row tier 0 rejects unfetched does not fail a filescan.

use staccato_automata::{DenseDfa, Dfa};
use staccato_sfa::{codec, DecodeArena, SfaError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone kernel ids, used to bind a [`ScanScratch`]'s label memo to
/// the kernel that composed it (ids start at 1 so a fresh scratch never
/// appears bound).
static KERNEL_IDS: AtomicU64 = AtomicU64::new(1);

/// Sentinel transition id for emissions with `prob <= 0.0`, which the DP
/// skips without ever consulting a transition vector.
const SKIPPED: u32 = u32::MAX;

/// Sentinel transition id for emissions whose label is evaluated by
/// walking the dense table directly instead of through the memo.
const RAW: u32 = u32::MAX - 1;

/// Memo slot whose class sequence has no composed vector yet.
const UNSET: u32 = u32::MAX;

/// Longest label (in bytes) resolved through the memo. 1- and 2-byte
/// labels — FullSFA's per-character emissions, most of Staccato's —
/// index a `k + k²` table by their byte-class sequence, so the memo is
/// bounded by the DFA, not by the corpus. Longer labels (line-specific
/// chunk text) are walked in place by the convergence-aware set walks
/// ([`DenseDfa::advance_mask`], [`DenseDfa::advance_states`]) —
/// identical transitions, no allocation.
const MEMO_LABEL_MAX: usize = 2;

/// Bytes of a Staccato line's label synopsis, the `Synopsis` column of
/// its `StaccatoGraph` row: 68 little-endian `u64` words. Words 0–3 are
/// the 256-bit label-byte set laid out like [`DecodeArena::label_bytes`];
/// word `4 + c` has bit `d` set when some string the graph can emit holds
/// a byte of synopsis class `c` directly followed by one of class `d`.
/// The classes are `a`–`z` (0–25), `A`–`Z` (26–51), `0`–`9` (52–61),
/// space (62), and every other byte (63).
pub const SYNOPSIS_LEN: usize = 8 * (4 + 64);

/// Synopsis class of every byte value (see [`SYNOPSIS_LEN`]).
const SYNOPSIS_CLASS: [u8; 256] = {
    let mut t = [63u8; 256];
    let mut i = 0;
    while i < 26 {
        t[b'a' as usize + i] = i as u8;
        t[b'A' as usize + i] = 26 + i as u8;
        if i < 10 {
            t[b'0' as usize + i] = 52 + i as u8;
        }
        i += 1;
    }
    t[b' ' as usize] = 62;
    t
};

/// The synopsis word at `index` (see [`SYNOPSIS_LEN`]).
#[inline]
fn synopsis_word(synopsis: &[u8; SYNOPSIS_LEN], index: usize) -> u64 {
    u64::from_le_bytes(
        synopsis[8 * index..8 * index + 8]
            .try_into()
            .expect("eight bytes"),
    )
}

/// Derive the label synopsis of an encoded chunk graph through the one
/// blob decoder. Every emission counts, whatever its probability. A pair
/// inside an emitted string lies either inside one label or across two
/// consecutive labels at one node, so the bigram words hold each label's
/// own pairs plus, at every node, each class of a label's last byte on an
/// in-edge × each class of a label's first byte on an out-edge (labels
/// are never empty). The result over-approximates the graph's strings:
/// a pair it lacks occurs in no emitted string.
pub fn blob_synopsis(blob: &[u8]) -> Result<[u8; SYNOPSIS_LEN], SfaError> {
    thread_local! {
        static ARENA: std::cell::RefCell<DecodeArena> = std::cell::RefCell::default();
    }
    ARENA.with(|arena| {
        let arena = &mut *arena.borrow_mut();
        codec::decode_into_arena(blob, arena)?;
        Ok(decoded_synopsis(arena, blob))
    })
}

/// [`blob_synopsis`] of `blob` read off `arena`, which holds its decode.
fn decoded_synopsis(arena: &DecodeArena, blob: &[u8]) -> [u8; SYNOPSIS_LEN] {
    let mut words = [0u64; 4 + 64];
    words[..4].copy_from_slice(&arena.label_bytes());
    let pairs = &mut words[4..];
    // Per node, the classes of the label ends `[into, out of]` it.
    let mut ends = vec![[0u64; 2]; arena.node_count() as usize];
    for e in arena.edges() {
        let (mut first, mut last) = (0u64, 0u64);
        for em in &arena.emissions()[e.em_start as usize..e.em_end as usize] {
            let label = &blob[em.label_range()];
            let mut prev = usize::from(SYNOPSIS_CLASS[usize::from(label[0])]);
            first |= 1 << prev;
            for &b in &label[1..] {
                let c = SYNOPSIS_CLASS[usize::from(b)];
                pairs[prev] |= 1 << c;
                prev = usize::from(c);
            }
            last |= 1 << prev;
        }
        ends[e.to as usize][0] |= last;
        ends[e.from as usize][1] |= first;
    }
    for [mut into, out] in ends {
        while into != 0 {
            pairs[into.trailing_zeros() as usize] |= out;
            into &= into - 1;
        }
    }
    let mut out = [0u8; SYNOPSIS_LEN];
    for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Result of evaluating one line through the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Match probability — bit-identical to the naive evaluation.
    pub probability: f64,
    /// Whether the prescreen rejected the line without running the full
    /// DP (the probability is then the exact zero — sign included — the
    /// naive evaluation would have produced).
    pub prescreened: bool,
}

/// Per-query compiled scan state: the dense DFA, the required literal for
/// the prescreen, and the accepting-state mask for the bitset tier.
/// Immutable after construction and shared by every statement that runs
/// the cached query; all mutable state lives in [`ScanScratch`].
#[derive(Debug)]
pub struct ScanKernel {
    id: u64,
    dense: DenseDfa,
    /// Required literal: every accepted line contains it (case-sensitive).
    literal: Option<String>,
    /// The literal's bytes as a 256-bit set, laid out like
    /// [`DecodeArena::label_bytes`] for the tier-1 test.
    literal_bitmap: [u64; 4],
    /// The literal's adjacent byte pairs for the tier-0 test, by synopsis
    /// class: `(c, mask)` asks that bigram word `c` hold every bit of
    /// `mask`.
    literal_pairs: Vec<(usize, u64)>,
    /// Bit per accepting DFA state; `None` when `q > 64` (tier 2 disabled).
    accept_mask: Option<u64>,
    /// What `eval_strings` returns when nothing is accepted: the empty
    /// `f64` sum. Its sign is a property of the standard library's fold
    /// identity, so it is captured here rather than assumed, keeping
    /// prescreen skips bit-identical.
    string_zero: f64,
    /// What `eval_sfa` returns when no mass reaches an accepting state:
    /// the sum of one `+0.0` per accepting DFA state over the same fold.
    blob_zero: f64,
}

impl ScanKernel {
    /// Compile the kernel for a query DFA. `literal` must be a string
    /// every accepted line provably contains (see
    /// `staccato_automata::required_literal`); pass `None` to disable the
    /// tier-1 prescreen.
    pub fn new(dfa: &Dfa, literal: Option<String>) -> ScanKernel {
        let dense = DenseDfa::new(dfa);
        let q = dense.state_count();
        let accept_mask = (q <= 64).then(|| {
            (0..q as u32)
                .filter(|&s| dense.is_accept(s))
                .fold(0u64, |m, s| m | 1u64 << s)
        });
        let mut literal_bitmap = [0u64; 4];
        for b in literal.iter().flat_map(|l| l.bytes()) {
            literal_bitmap[usize::from(b >> 6)] |= 1u64 << (b & 63);
        }
        let mut literal_pairs: Vec<(usize, u64)> = Vec::new();
        for w in literal.iter().flat_map(|l| l.as_bytes().windows(2)) {
            let [c, d] = [w[0], w[1]].map(|b| usize::from(SYNOPSIS_CLASS[usize::from(b)]));
            match literal_pairs.iter_mut().find(|(row, _)| *row == c) {
                Some((_, mask)) => *mask |= 1 << d,
                None => literal_pairs.push((c, 1 << d)),
            }
        }
        let string_zero: f64 = std::iter::empty::<f64>().sum();
        let blob_zero: f64 = (0..q as u32)
            .filter(|&s| dense.is_accept(s))
            .map(|_| 0.0f64)
            .sum();
        ScanKernel {
            id: KERNEL_IDS.fetch_add(1, Ordering::Relaxed),
            dense,
            literal,
            literal_bitmap,
            literal_pairs,
            accept_mask,
            string_zero,
            blob_zero,
        }
    }

    /// Evaluate one MAP string. Equivalent to
    /// `eval_strings(dfa, once((s, p)))`: `p` if the string is accepted,
    /// `+0.0` otherwise. The prescreen skips the DFA run when the
    /// required literal is absent — the DFA could only reject.
    pub fn eval_string(&self, s: &str, p: f64) -> EvalOutcome {
        self.eval_string_group(std::iter::once((s, p)))
    }

    /// Evaluate a k-MAP group: the sum of `p` over accepted strings, in
    /// iteration order — the accumulation [`crate::reference::eval_strings`]
    /// performs. `prescreened` is true when every string (of a non-empty
    /// group) was rejected by the literal test alone: without the literal
    /// the DFA could only reject, so the naive sum skips the string.
    pub fn eval_string_group<'a, I>(&self, strings: I) -> EvalOutcome
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        let mut total = self.string_zero;
        let mut seen = 0usize;
        let mut skipped = 0usize;
        for (s, p) in strings {
            seen += 1;
            if let Some(lit) = &self.literal {
                if !s.contains(lit.as_str()) {
                    skipped += 1;
                    continue;
                }
            }
            if self.dense.matches(s.as_bytes()) {
                total += p;
            }
        }
        EvalOutcome {
            probability: total,
            prescreened: seen > 0 && skipped == seen,
        }
    }

    /// Tier 0: decide a Staccato row from its label synopsis alone (see
    /// [`blob_synopsis`]), before its blob is fetched. Returns the
    /// prescreened outcome [`ScanKernel::eval_blob`] would give a row
    /// that cannot match — `blob_zero`, `prescreened: true` — when some
    /// byte of the required literal is in no label or some adjacent pair
    /// of it is in no emitted string; `None` when the row must be fetched
    /// and evaluated. An accepted string contains the literal, hence
    /// every byte and adjacent pair of it, so a rejected row's exact
    /// probability is `+0.0` (see the soundness notes on `eval_blob`).
    pub fn eval_synopsis(&self, synopsis: &[u8; SYNOPSIS_LEN]) -> Option<EvalOutcome> {
        let lacks = |word: usize, mask: u64| mask & !synopsis_word(synopsis, word) != 0;
        let rejected = (0..4).any(|w| lacks(w, self.literal_bitmap[w]))
            || self
                .literal_pairs
                .iter()
                .any(|&(c, mask)| lacks(4 + c, mask));
        rejected.then_some(EvalOutcome {
            probability: self.blob_zero,
            prescreened: true,
        })
    }

    /// Evaluate an encoded SFA blob: decode into the scratch arena, run
    /// prescreen tiers 1 and 2, then (on any hit) the exact DP.
    ///
    /// **Prescreen soundness** — a skip is taken only when the naive DP
    /// provably returns exactly `+0.0`:
    ///
    /// * *Tier 1 (byte presence)*: every string the SFA can emit draws
    ///   its bytes from the union of all emission labels. An accepted
    ///   string contains the required literal, hence every distinct byte
    ///   of it. If some literal byte appears in no label, no emitted
    ///   string is accepted, so no mass ever reaches an accepting DFA
    ///   state at the finish node — the naive sum is a sum of never-
    ///   written `+0.0` entries.
    /// * *Tier 2 (bitset reachability)*: an over-approximation of the
    ///   exact DP's support. `bits[v]` ⊇ {DFA states reachable at node
    ///   `v` along any path whose emissions all have `prob > 0`} — the
    ///   only (node, state) pairs the DP can write to, regardless of
    ///   floating-point underflow (underflow loses a *skip*, never
    ///   soundness). If no accepting state is reachable at the finish
    ///   node, the accepting entries of the finish vector are never
    ///   written and the naive result is again exactly `+0.0`.
    pub fn eval_blob(
        &self,
        scratch: &mut ScanScratch,
        blob: &[u8],
    ) -> Result<EvalOutcome, SfaError> {
        let ScanScratch {
            bound,
            arena,
            memo,
            trans,
            compose_tmp,
            em_trans,
            bits,
            pairs,
            dests,
            vectors,
            free,
            ..
        } = scratch;
        let (q, k) = (self.dense.state_count(), self.dense.num_classes());
        // A scratch carries transition vectors composed against one
        // kernel's DFA; rebind (and drop the memo) if it last served a
        // different kernel.
        if *bound != self.id {
            memo.clear();
            memo.resize((1..=MEMO_LABEL_MAX as u32).map(|n| k.pow(n)).sum(), UNSET);
            trans.clear();
            *bound = self.id;
        }
        codec::decode_into_arena(blob, arena)?;

        // Tier 1: every byte of the literal must occur in some label. The
        // decode recorded the set of label bytes, so this is four word
        // operations.
        let present = arena.label_bytes();
        if (0..4).any(|w| self.literal_bitmap[w] & !present[w] != 0) {
            return Ok(EvalOutcome {
                probability: self.blob_zero,
                prescreened: true,
            });
        }

        // Resolve each positive-probability emission to a transition id.
        // A label of at most `MEMO_LABEL_MAX` bytes indexes the memo by
        // its byte-class sequence, read as a bijective base-`k` numeral
        // (1-byte labels land in `0..k`, 2-byte ones in `k..k + k²`), and
        // its vector is composed on first sight. The memo persists across
        // rows of the same kernel and cannot overflow. Longer labels are
        // walked in place.
        em_trans.clear();
        for em in arena.emissions() {
            if em.prob <= 0.0 {
                em_trans.push(SKIPPED);
                continue;
            }
            let label = &blob[em.label_range()];
            if label.len() > MEMO_LABEL_MAX {
                em_trans.push(RAW);
                continue;
            }
            let slot = label
                .iter()
                .fold(0, |acc, &b| acc * k + self.dense.class(b) + 1)
                - 1;
            if memo[slot] == UNSET {
                self.dense.compose_label(label, compose_tmp);
                memo[slot] = (trans.len() / q) as u32;
                trans.extend_from_slice(compose_tmp);
            }
            em_trans.push(memo[slot]);
        }

        // Tier 2: bitset reachability over (node, DFA-state set). The
        // pass exists only to *prove absence*; the moment an accepting
        // state becomes reachable anywhere the proof is lost, so bail to
        // the exact DP rather than finish the walk (the DP is the
        // reference computation, so running it is always bit-identical —
        // tier-2 thresholds affect cost, never results).
        if let Some(mask) = self.accept_mask {
            let n = arena.node_count() as usize;
            bits.clear();
            bits.resize(n, 0);
            bits[arena.start() as usize] = 1u64 << self.dense.start();
            let mut accept_seen = false;
            'tier2: for &v in arena.topo() {
                let bv = bits[v as usize];
                if bv == 0 {
                    continue;
                }
                for &eid in arena.out_edges(v) {
                    let e = arena.edges()[eid as usize];
                    let mut out_bits = 0u64;
                    for ei in e.em_start..e.em_end {
                        let t = em_trans[ei as usize];
                        if t == SKIPPED {
                            continue;
                        }
                        if t == RAW {
                            let em = arena.emissions()[ei as usize];
                            out_bits |= self.dense.advance_mask(bv, &blob[em.label_range()]);
                        } else {
                            let tv = &trans[t as usize * q..];
                            let mut rem = bv;
                            while rem != 0 {
                                let s = rem.trailing_zeros() as usize;
                                rem &= rem - 1;
                                out_bits |= 1u64 << tv[s];
                            }
                        }
                    }
                    if out_bits & mask != 0 {
                        accept_seen = true;
                        break 'tier2;
                    }
                    bits[e.to as usize] |= out_bits;
                }
            }
            if !accept_seen && bits[arena.finish() as usize] & mask == 0 {
                return Ok(EvalOutcome {
                    probability: self.blob_zero,
                    prescreened: true,
                });
            }
        }

        // Exact DP — the loop of `eval_sfa`, with the label walk replaced
        // by the memoized transition gather and state vectors drawn from
        // a pool instead of allocated per row.
        let n = arena.node_count() as usize;
        if vectors.len() < n {
            vectors.resize_with(n, Vec::new);
        }
        let mut start_vec = zeroed(free, q);
        start_vec[self.dense.start() as usize] = 1.0;
        vectors[arena.start() as usize] = start_vec;

        for &v in arena.topo() {
            if vectors[v as usize].is_empty() {
                continue;
            }
            let src = std::mem::take(&mut vectors[v as usize]);
            // The massy sources are fixed for the whole node, so collect
            // them once instead of rescanning the q-length vector for
            // every emission on every out edge.
            pairs.clear();
            for (s, &mass) in src.iter().enumerate() {
                if mass != 0.0 {
                    pairs.push((s as u32, mass));
                }
            }
            if !pairs.is_empty() {
                for &eid in arena.out_edges(v) {
                    let e = arena.edges()[eid as usize];
                    for ei in e.em_start..e.em_end {
                        let t = em_trans[ei as usize];
                        if t == SKIPPED {
                            continue;
                        }
                        let em = arena.emissions()[ei as usize];
                        // Destinations first: memoized labels gather from
                        // the composed vector, un-memoized ones share one
                        // convergence-aware walk of the dense table — the
                        // same `state → state` function either way. The
                        // accumulation below then runs in the reference
                        // order (ascending source state).
                        dests.clear();
                        dests.extend(pairs.iter().map(|&(s, _)| s));
                        if t == RAW {
                            self.dense.advance_states(dests, &blob[em.label_range()]);
                        } else {
                            let tv = &trans[t as usize * q..];
                            for d in dests.iter_mut() {
                                *d = tv[*d as usize];
                            }
                        }
                        let dst = &mut vectors[e.to as usize];
                        if dst.is_empty() {
                            *dst = zeroed(free, q);
                        }
                        for (&(_, mass), &d) in pairs.iter().zip(dests.iter()) {
                            dst[d as usize] += mass * em.prob;
                        }
                    }
                }
            }
            if v == arena.finish() {
                vectors[v as usize] = src;
            } else {
                free.push(src);
            }
        }

        let fin = &vectors[arena.finish() as usize];
        let probability: f64 = (0..q)
            .filter(|&s| self.dense.is_accept(s as u32))
            .map(|s| fin.get(s).copied().unwrap_or(0.0))
            .sum();

        // Recycle every vector touched this row.
        for slot in vectors[..n].iter_mut() {
            if !slot.is_empty() {
                free.push(std::mem::take(slot));
            }
        }
        Ok(EvalOutcome {
            probability,
            prescreened: false,
        })
    }

    /// Evaluate §4's *projection* of an encoded chunk graph: the index
    /// probe's per-candidate evaluator. `start_edges` are the posted edge
    /// ids of one line; the result is the maximum, over their distinct
    /// source nodes, of the probability that a fresh DFA started there
    /// accepts within `depth` edges (shortest distance; `usize::MAX` for
    /// unbounded), with absorbing accepts and the total clamped to `1.0`
    /// — bit-identical to folding [`crate::reference::project_eval`] with
    /// `f64::max` from `+0.0` over those nodes.
    ///
    /// The blob is decoded at the codec's shallow depth: one skeleton pass
    /// per call ([`codec::decode_skeleton`]: every count, length and the
    /// graph's structure), then, per start node, a BFS for the projected
    /// node set and a decode of the emission runs of the edges with both
    /// ends in it ([`codec::decode_run`]) — a superset of what the DP
    /// reads — before that node's DP. A run is decoded at most once per
    /// call; the runs of the other edges are never read, so a defect in
    /// their labels or probabilities does not fail the probe. Each start
    /// node runs its own bounded DP (the score is a `max`, so the DPs do
    /// not merge). Labels are walked in place through the dense table
    /// rather than through the label memo: a projection touches a fraction
    /// of a line's emissions once or twice, so resolving them would cost
    /// more than the walks it saves — the `state → state` function is the
    /// same either way. Edge ids that are not edges of the blob — a stale
    /// or corrupt posting — are skipped; with no usable start edge the
    /// result is `+0.0`. [`ScanScratch::projected_runs`] reports how many
    /// runs the call decoded.
    pub fn eval_projection(
        &self,
        scratch: &mut ScanScratch,
        blob: &[u8],
        start_edges: &[u32],
        depth: usize,
    ) -> Result<f64, SfaError> {
        scratch.projected_runs = (0, 0);
        codec::decode_skeleton(blob, &mut scratch.arena)?;
        let mut decoded = 0;
        let n = scratch.arena.node_count() as usize;
        scratch.started.clear();
        scratch.started.resize(n, false);
        let mut best = 0.0f64;
        for &eid in start_edges {
            let Some(edge) = scratch.arena.edges().get(eid as usize) else {
                continue;
            };
            let from = edge.from;
            // Distinct start nodes only; several postings on one edge (or
            // on edges sharing a source) evaluate identically from it.
            if std::mem::replace(&mut scratch.started[from as usize], true) {
                continue;
            }
            decoded += decode_projection(scratch, blob, from, depth)?;
            best = best.max(self.project_from(scratch, blob, from));
        }
        scratch.projected_runs = (decoded, scratch.arena.edges().len() as u32);
        Ok(best)
    }

    /// One projection DP over the line held in `scratch`, whose `dist`
    /// holds the projected node set of `from` and whose arena holds the
    /// runs of every edge inside that set ([`decode_projection`]) — the loop of
    /// [`crate::reference::project_eval`] in the same accumulation order
    /// (topo → out-edge → emission → ascending source state), over the
    /// arena's CSR with pooled vectors.
    fn project_from(&self, scratch: &mut ScanScratch, blob: &[u8], from: u32) -> f64 {
        let ScanScratch {
            arena,
            pairs,
            dests,
            vectors,
            free,
            dist,
            ..
        } = scratch;
        let n = arena.node_count() as usize;
        let q = self.dense.state_count();
        if vectors.len() < n {
            vectors.resize_with(n, Vec::new);
        }
        let mut start_vec = zeroed(free, q);
        start_vec[self.dense.start() as usize] = 1.0;
        vectors[from as usize] = start_vec;
        let mut matched = 0.0f64;
        // Vectors only ever land on projected nodes downstream of `from`,
        // and each is consumed when the walk reaches its node, so none is
        // left behind for the next start node or row.
        for &v in arena.topo() {
            if vectors[v as usize].is_empty() {
                continue;
            }
            let src = std::mem::take(&mut vectors[v as usize]);
            pairs.clear();
            for (s, &mass) in src.iter().enumerate() {
                if mass != 0.0 && !self.dense.is_accept(s as u32) {
                    pairs.push((s as u32, mass));
                }
            }
            free.push(src);
            if pairs.is_empty() {
                continue;
            }
            for &eid in arena.out_edges(v) {
                let e = arena.edges()[eid as usize];
                if dist[e.to as usize] == UNREACHED {
                    continue;
                }
                for em in &arena.emissions()[e.em_start as usize..e.em_end as usize] {
                    if em.prob <= 0.0 {
                        continue;
                    }
                    dests.clear();
                    dests.extend(pairs.iter().map(|&(s, _)| s));
                    self.dense.advance_states(dests, &blob[em.label_range()]);
                    for (&(_, mass), &d) in pairs.iter().zip(dests.iter()) {
                        let add = mass * em.prob;
                        if self.dense.is_accept(d) {
                            // Absorbing: collected once, not propagated.
                            matched += add;
                        } else {
                            let dst = &mut vectors[e.to as usize];
                            if dst.is_empty() {
                                *dst = zeroed(free, q);
                            }
                            dst[d as usize] += add;
                        }
                    }
                }
            }
        }
        matched.min(1.0)
    }
}

/// `dist` value of a node outside the projected set.
const UNREACHED: u32 = u32::MAX;

/// Stamp the projected node set of `from` into `scratch`'s `dist` —
/// shortest edge distance ≤ `depth`, by level-order BFS over the arena's
/// skeleton — and decode the emission runs of the edges with both ends in
/// it that are not decoded yet, returning how many it decoded.
fn decode_projection(
    scratch: &mut ScanScratch,
    blob: &[u8],
    from: u32,
    depth: usize,
) -> Result<u32, SfaError> {
    let ScanScratch {
        arena, dist, queue, ..
    } = scratch;
    dist.clear();
    dist.resize(arena.node_count() as usize, UNREACHED);
    dist[from as usize] = 0;
    queue.clear();
    queue.push(from);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let d = dist[v as usize];
        if d as usize >= depth {
            continue;
        }
        for &eid in arena.out_edges(v) {
            let to = arena.edges()[eid as usize].to as usize;
            if dist[to] == UNREACHED {
                dist[to] = d + 1;
                queue.push(to as u32);
            }
        }
    }
    let mut decoded = 0;
    for &v in queue.iter() {
        for i in 0..arena.out_edges(v).len() {
            let eid = arena.out_edges(v)[i];
            let to = arena.edges()[eid as usize].to;
            if dist[to as usize] != UNREACHED && !arena.run_decoded(eid) {
                codec::decode_run(blob, arena, eid)?;
                decoded += 1;
            }
        }
    }
    Ok(decoded)
}

/// A zeroed `q`-length DP state vector, recycled from `free` when one is
/// spare.
#[inline]
fn zeroed(free: &mut Vec<Vec<f64>>, q: usize) -> Vec<f64> {
    let mut v = free.pop().unwrap_or_default();
    v.clear();
    v.resize(q, 0.0);
    v
}

/// Mutable scan state: the decode arena, the label-transition memo, and
/// pooled DP vectors. One per scan or probe; never shared.
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Id of the kernel whose transitions are currently memoized
    /// (0 = none yet).
    bound: u64,
    arena: DecodeArena,
    /// Byte-class sequence of a short label → its vector id in `trans`,
    /// or [`UNSET`].
    memo: Vec<u32>,
    /// Memoized `state → state` transition vectors, `q` entries each.
    trans: Vec<u32>,
    compose_tmp: Vec<u32>,
    /// Per-emission resolved transition id for the current row.
    em_trans: Vec<u32>,
    /// Tier-2 per-node DFA-state bitsets.
    bits: Vec<u64>,
    /// Per-node massy `(state, mass)` sources for the DP inner loop.
    pairs: Vec<(u32, f64)>,
    /// Per-emission destination states, parallel to `pairs`.
    dests: Vec<u32>,
    /// DP state vectors, indexed by node slot.
    vectors: Vec<Vec<f64>>,
    /// Pool of spent state vectors.
    free: Vec<Vec<f64>>,
    /// Projection: per-node shortest edge distance from the start node.
    dist: Vec<u32>,
    /// Projection: the BFS queue.
    queue: Vec<u32>,
    /// Projection: nodes already evaluated as a start node for this line.
    started: Vec<bool>,
    /// Projection: the emission runs the last call decoded, and the runs
    /// its blob holds.
    projected_runs: (u32, u32),
}

impl ScanScratch {
    /// Fresh scratch. Buffers grow to the working set of the scan and are
    /// reused row to row.
    pub fn new() -> ScanScratch {
        ScanScratch::default()
    }

    /// The emission runs the last [`ScanKernel::eval_projection`] decoded,
    /// and the runs its blob holds (one per edge); `(0, 0)` before the
    /// first call and after a failed one.
    pub fn projected_runs(&self) -> (u32, u32) {
        self.projected_runs
    }

    /// Number of label class sequences whose transition vector is
    /// currently memoized (diagnostics).
    pub fn interned_labels(&self) -> usize {
        self.memo.iter().filter(|&&t| t != UNSET).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::reference::{eval_sfa, eval_strings};
    use staccato_sfa::{Emission, Sfa, SfaBuilder};

    fn figure1() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![Emission::new("F", 0.8), Emission::new("T", 0.2)],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![Emission::new("0", 0.6), Emission::new("o", 0.4)],
        );
        b.add_edge(n[2], n[3], vec![Emission::new(" ", 0.6)]);
        b.add_edge(n[2], n[4], vec![Emission::new("r", 0.4)]);
        b.add_edge(
            n[3],
            n[4],
            vec![Emission::new("r", 0.8), Emission::new("m", 0.2)],
        );
        b.add_edge(
            n[4],
            n[5],
            vec![Emission::new("d", 0.9), Emission::new("3", 0.1)],
        );
        b.build(n[0], n[5]).unwrap()
    }

    #[test]
    fn blob_eval_is_bit_identical_to_naive() {
        let sfa = figure1();
        let blob = codec::encode(&sfa);
        let mut scratch = ScanScratch::new();
        for pattern in ["Ford", "F0", "rd", "m3", "zzz", "o", " ", "xyzzy"] {
            let q = Query::keyword(pattern).unwrap();
            let naive = eval_sfa(&q.dfa, &codec::decode(&blob).unwrap());
            let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
            assert_eq!(
                out.probability.to_bits(),
                naive.to_bits(),
                "pattern {pattern:?}: kernel={} naive={}",
                out.probability,
                naive
            );
        }
    }

    #[test]
    fn prescreen_skips_only_zero_probability_rows() {
        let sfa = figure1();
        let blob = codec::encode(&sfa);
        let mut scratch = ScanScratch::new();
        // 'xyzzy' shares no bytes with the SFA: tier-1 skip.
        let q = Query::keyword("xyzzy").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(out.prescreened);
        assert_eq!(out.probability.to_bits(), 0.0f64.to_bits());
        assert_eq!(eval_sfa(&q.dfa, &codec::decode(&blob).unwrap()), 0.0);
        // 'dF' uses present bytes but is unreachable in order: tier-2 skip.
        let q = Query::keyword("dF").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(out.prescreened, "tier-2 should reject 'dF'");
        assert_eq!(eval_sfa(&q.dfa, &codec::decode(&blob).unwrap()), 0.0);
        // A hit is never prescreened.
        let q = Query::keyword("Ford").unwrap();
        let out = q.kernel.eval_blob(&mut scratch, &blob).unwrap();
        assert!(!out.prescreened && out.probability > 0.0);
    }

    #[test]
    fn string_eval_matches_eval_strings() {
        let q = Query::keyword("Ford").unwrap();
        let strings = [("a Ford here", 0.25), ("no match", 0.5), ("Ford Ford", 0.1)];
        let naive = eval_strings(&q.dfa, strings.iter().map(|(s, p)| (*s, *p)));
        let out = q
            .kernel
            .eval_string_group(strings.iter().map(|(s, p)| (*s, *p)));
        assert_eq!(out.probability.to_bits(), naive.to_bits());
        for (s, p) in strings {
            let single = q.kernel.eval_string(s, p);
            let naive = eval_strings(&q.dfa, std::iter::once((s, p)));
            assert_eq!(single.probability.to_bits(), naive.to_bits());
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_rows() {
        let blob1 = codec::encode(&figure1());
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("Ford", 1.0)]);
        let blob2 = codec::encode(&b.build(s, f).unwrap());
        let q = Query::keyword("Ford").unwrap();
        let mut scratch = ScanScratch::new();
        let mut fresh = ScanScratch::new();
        for blob in [&blob1, &blob2, &blob1, &blob2, &blob1] {
            let reused = q.kernel.eval_blob(&mut scratch, blob).unwrap();
            let cold = q.kernel.eval_blob(&mut fresh, blob).unwrap();
            assert_eq!(reused.probability.to_bits(), cold.probability.to_bits());
            fresh = ScanScratch::new();
        }
        assert!(scratch.interned_labels() > 0);
    }
}
