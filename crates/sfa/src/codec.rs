//! Binary blob codec for SFAs.
//!
//! In the paper, FullSFA stores "the entire SFA as a BLOB inside the RDBMS"
//! and Staccato stores its chunk graph the same way (Table 5's `SFABlob` /
//! `GraphBlob` columns). This module defines that byte format, `SFA2`.
//!
//! Layout (a varint is an unsigned LEB128 `u32` in its shortest form, at
//! most five bytes):
//!
//! ```text
//! magic  b"SFA2"
//! varint node count   varint start   varint finish   varint edge count
//! varint label count  varint label bytes
//!                     the labels' bytes back to back (UTF-8), then per
//!                     label: varint byte length
//! varint prob count   per prob: u64 LE (the f64's bits)
//! per edge:  varint from   varint to   varint emission count
//! per edge, its run:  per emission a label id, then a prob id
//! ```
//!
//! An id is little-endian in the fewest of one, two or four bytes that
//! number every entry of its dictionary, so every emission of a blob
//! takes the same bytes, each edge's run offset follows from the emission
//! counts before it, and a run decodes without a branch per id length.
//! The runs close the blob.
//!
//! The two dictionaries hold each distinct label and each distinct
//! probability once, in ascending order — labels by their bytes,
//! probabilities by their bits — so the coding is lossless, an SFA always
//! encodes to the same bytes, and a repeated entry shows against the one
//! before it. An OCR edge emits the whole alphabet from a handful of
//! confusion weights, so a FullSFA blob is about a fifth of the `SFA1`
//! layout the paper's cost model counts ([`table1_size`]), and a Staccato
//! blob about a third.
//!
//! The SFA is written in its topological renumbering — nodes numbered in
//! [`Sfa::topo_order`], live edges in id order — straight from the graph:
//! tombstones never hit disk, and no compacted copy is made.
//! Decoding is hardened against corrupt blobs: every count is checked
//! against the remaining length before allocating, so a hostile or
//! truncated blob produces a typed error instead of an OOM or panic.
//!
//! The format is read here only, at two depths:
//!
//! * [`decode_skeleton`] then [`decode_run`] — the index probe's shallow
//!   entry. The skeleton reads the header, both dictionaries and every
//!   edge header, and checks them in full — every count, that the runs
//!   fill the rest of the blob, each label's UTF-8, each probability's
//!   range, the order that rules out a repeated entry — and the graph's
//!   structure; each run the probe's projection reads is then decoded
//!   with its ids checked. The runs it skips are not read, so a bad id
//!   there does not fail the probe — the stance the filescan's tier-0
//!   prescreen takes for the rows it never fetches.
//! * [`decode_into_arena`] — the full entry: the skeleton, the label-byte
//!   set, then every run. The filescan, ingest, replay and index build
//!   read blobs through it (and [`decode`] through them).

use crate::error::SfaError;
use crate::model::{Emission, Sfa, SfaBuilder};
use std::cmp::Ordering;
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"SFA2";

/// Serialize an SFA into a fresh byte buffer.
pub fn encode(sfa: &Sfa) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_into(sfa, &mut buf);
    buf
}

/// Serialize an SFA, appending to `buf`.
pub fn encode_into(sfa: &Sfa, buf: &mut Vec<u8>) {
    let remap = sfa.topo_remap();
    // Each distinct label and probability, and per emission the two, as
    // ids in order of first occurrence. A one-byte label — every FullSFA
    // label — is looked up by its byte, and a probability equal to the
    // previous emission's (a run is sorted by probability) by its id:
    // without the first a FullSFA line encodes in ≈ 1.9× the time, without
    // the second ≈ 1.4× (DESIGN.md, "Blob format").
    let mut labels: Vec<&[u8]> = Vec::new();
    let mut label_ids: HashMap<&[u8], u32> = HashMap::new();
    let mut byte_ids = [u32::MAX; 256];
    let mut probs: Vec<u64> = Vec::new();
    let mut prob_ids: HashMap<u64, u32> = HashMap::new();
    let mut ids = Vec::with_capacity(sfa.edges().map(|(_, e)| e.emissions.len()).sum());
    for (_, e) in sfa.edges() {
        let mut last = None;
        for em in &e.emissions {
            let bytes = em.label.as_bytes();
            let label = match bytes {
                [b] => &mut byte_ids[usize::from(*b)],
                _ => label_ids.entry(bytes).or_insert(u32::MAX),
            };
            if *label == u32::MAX {
                *label = labels.len() as u32;
                labels.push(bytes);
            }
            let bits = em.prob.to_bits();
            let prob = match last {
                Some((seen, id)) if seen == bits => id,
                _ => *prob_ids.entry(bits).or_insert_with(|| {
                    probs.push(bits);
                    probs.len() as u32 - 1
                }),
            };
            last = Some((bits, prob));
            ids.push((*label, prob));
        }
    }
    // The dictionaries are stored in ascending order, and the ids renamed
    // to match.
    let label_rank = sort_dictionary(&mut labels, |label| prefix_word(label, 0, label.len()));
    let prob_rank = sort_dictionary(&mut probs, |bits| bits);
    buf.extend_from_slice(MAGIC);
    let (start, finish) = (remap[sfa.start() as usize], remap[sfa.finish() as usize]);
    for v in [
        sfa.node_count() as u32,
        start,
        finish,
        sfa.edge_count() as u32,
    ] {
        put_varint(buf, v);
    }
    put_varint(buf, labels.len() as u32);
    put_varint(buf, labels.iter().map(|label| label.len() as u32).sum());
    labels.iter().for_each(|label| buf.extend_from_slice(label));
    for label in &labels {
        put_varint(buf, label.len() as u32);
    }
    put_varint(buf, probs.len() as u32);
    for bits in &probs {
        buf.extend_from_slice(&bits.to_le_bytes());
    }
    for (_, e) in sfa.edges() {
        let (from, to) = (remap[e.from as usize], remap[e.to as usize]);
        for v in [from, to, e.emissions.len() as u32] {
            put_varint(buf, v);
        }
    }
    let widths = (id_width(labels.len()), id_width(probs.len()));
    for (label, prob) in ids {
        put_id(buf, label_rank[label as usize], widths.0);
        put_id(buf, prob_rank[prob as usize], widths.1);
    }
}

/// Size in bytes of `sfa` in the paper's cost model — the storage cost
/// that Table 1, Table 2 and §5.5's tuner account for: the `SFA1` layout,
/// a 20-byte header, 12 bytes per edge, and per emission a `u16` label
/// length, the label bytes and an `f64`. [`encode`] stores the same SFA
/// in fewer bytes.
pub fn table1_size(sfa: &Sfa) -> usize {
    let mut size = 4 + 4 + 4 + 4 + 4; // magic + node count + start + finish + edge count
    for (_, e) in sfa.edges() {
        size += 4 + 4 + 4;
        for em in &e.emissions {
            size += 2 + em.label.len() + 8;
        }
    }
    size
}

/// Bytes per id of a dictionary of `entries`: one, two or four, the
/// fewest that number every entry.
fn id_width(entries: usize) -> usize {
    match entries {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

/// Append `id` in `width` bytes (see [`id_width`]).
#[inline]
fn put_id(buf: &mut Vec<u8>, id: u32, width: usize) {
    match width {
        1 => buf.push(id as u8),
        2 => buf.extend_from_slice(&(id as u16).to_le_bytes()),
        _ => buf.extend_from_slice(&id.to_le_bytes()),
    }
}

/// An id of `width` bytes (see [`id_width`]) from the front of `bytes`.
#[inline]
fn read_id(bytes: &[u8], width: usize) -> u32 {
    match width {
        1 => u32::from(bytes[0]),
        2 => u32::from(u16::from_le_bytes([bytes[0], bytes[1]])),
        _ => u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Sort a dictionary of distinct entries into ascending order, returning
/// each entry's new position by its old one. `word` is a prefix of the
/// order, compared first: an integer comparison settles all but ties,
/// which fall back to the entries themselves. Sorted by its bytes alone, a
/// Staccato line's label dictionary takes ≈ 12 µs (≈ 20 %) more of its
/// encode.
fn sort_dictionary<T: Ord + Copy>(entries: &mut [T], word: impl Fn(T) -> u64) -> Vec<u32> {
    let mut order: Vec<(u64, T, u32)> = entries
        .iter()
        .zip(0..)
        .map(|(&entry, i)| (word(entry), entry, i))
        .collect();
    order.sort_unstable();
    let mut rank = vec![0; order.len()];
    for (at, (_, entry, i)) in order.into_iter().enumerate() {
        entries[at] = entry;
        rank[i as usize] = at as u32;
    }
    rank
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SfaError> {
        if self.buf.len() - self.pos < n {
            return Err(SfaError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SfaError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len checked"),
        ))
    }

    /// A varint: an overlong encoding or a value above `u32::MAX` is
    /// [`SfaError::BadVarint`], so every value has one encoding.
    #[inline]
    fn varint(&mut self) -> Result<u32, SfaError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u32::from(b))
            }
            _ => self.long_varint(),
        }
    }

    /// [`Reader::varint`] past its one-byte case.
    #[cold]
    fn long_varint(&mut self) -> Result<u32, SfaError> {
        let mut v = 0u32;
        for shift in [0, 7, 14, 21, 28] {
            let b = *self.buf.get(self.pos).ok_or(SfaError::Truncated)?;
            self.pos += 1;
            if shift == 28 && b > 0x0F {
                break;
            }
            v |= u32::from(b & 0x7F) << shift;
            if b < 0x80 {
                return if b == 0 && shift > 0 {
                    Err(SfaError::BadVarint)
                } else {
                    Ok(v)
                };
            }
        }
        Err(SfaError::BadVarint)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Deserialize an SFA previously produced by [`encode`] into an owned
/// [`Sfa`]: [`decode_into_arena`] parses and validates the bytes — the
/// format is read in this module only — and the arena is then
/// materialised through [`SfaBuilder`], so a decoded blob is as
/// trustworthy as a freshly built SFA and the two decoders cannot
/// disagree on which blobs they accept or which error they report.
pub fn decode(buf: &[u8]) -> Result<Sfa, SfaError> {
    // The arena is per thread and reused: a fresh one per call is a dozen
    // short-lived buffers, and concurrent callers pay for that churn in
    // the allocator.
    thread_local! {
        static ARENA: std::cell::RefCell<DecodeArena> = std::cell::RefCell::default();
    }
    ARENA.with(|arena| {
        let arena = &mut *arena.borrow_mut();
        decode_into_arena(buf, arena)?;
        let mut b = SfaBuilder::new();
        for _ in 0..arena.nodes {
            b.add_node();
        }
        for e in &arena.edges {
            let emissions = arena.emissions[e.em_start as usize..e.em_end as usize]
                .iter()
                .map(|em| Emission {
                    label: std::str::from_utf8(&buf[em.label_range()])
                        .expect("label validated by decode_into_arena")
                        .to_string(),
                    prob: em.prob,
                })
                .collect();
            // Endpoints, labels and probabilities were all checked by the
            // arena decode, so the builder's own checks cannot fire.
            b.add_edge(e.from, e.to, emissions);
        }
        b.build(arena.start, arena.finish)
    })
}

/// One emission decoded into a [`DecodeArena`]: the byte range of its
/// label's entry in the source blob's label dictionary (the label is
/// *not* copied) plus its probability.
#[derive(Debug, Clone, Copy)]
pub struct ArenaEmission {
    /// Start offset of the label bytes in the decoded blob.
    pub label_start: u32,
    /// End offset (exclusive) of the label bytes in the decoded blob.
    pub label_end: u32,
    /// Emission probability.
    pub prob: f64,
}

impl ArenaEmission {
    /// Byte range of the label within the blob this arena was decoded from.
    #[inline]
    pub fn label_range(&self) -> std::ops::Range<usize> {
        self.label_start as usize..self.label_end as usize
    }
}

/// One edge decoded into a [`DecodeArena`]: endpoints plus the index range
/// of its emissions in [`DecodeArena::emissions`].
#[derive(Debug, Clone, Copy)]
pub struct ArenaEdge {
    /// Source node.
    pub from: u32,
    /// Target node.
    pub to: u32,
    /// First emission index (into [`DecodeArena::emissions`]).
    pub em_start: u32,
    /// One past the last emission index.
    pub em_end: u32,
}

/// Where an edge's emission run starts in the blob, and its emission
/// count.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u32,
    count: u32,
}

/// Reusable, allocation-free decode target for SFA blobs — what the
/// codec's two entries, [`decode_into_arena`] and [`decode_skeleton`] with
/// [`decode_run`], fill.
///
/// An owned [`Sfa`] is a `Vec` of nodes, a `Vec` per adjacency list, and
/// one `String` per emission label. On a filescan that is the dominant
/// allocation cost — millions of tiny `Vec`s and `String`s that live for
/// exactly one row. `DecodeArena` holds the decoded blob in flat buffers
/// that are cleared (not freed) between rows:
///
/// * emission labels stay **borrowed** — stored as byte ranges into the
///   source blob's label dictionary (the codec validated them as UTF-8);
/// * adjacency is CSR (one offsets array + one flat edge-index array)
///   instead of per-node `Vec`s;
/// * the topological order is computed into a reusable buffer with the
///   exact tie-breaking of [`Sfa::try_topo_order`] (zero in-degree nodes
///   ascending, then FIFO following edge-index order), so evaluation over
///   the arena visits nodes in the same order as over a decoded [`Sfa`].
///
/// The full entry, [`decode_into_arena`], applies every check on
/// untrusted bytes — header, count and offset checks, UTF-8 and
/// probability checks on the dictionaries, id checks on the runs, and the
/// structural invariants of `SfaBuilder::build` (acyclicity, distinct
/// start/finish with no in-/out-edges respectively, full start→finish
/// reachability). [`decode`] materialises its [`Sfa`] from a filled arena,
/// so both accept exactly the same blobs with the same [`SfaError`]
/// values. The shallow entry, [`decode_skeleton`], fills everything but
/// the emission runs and applies every check but the runs' id checks;
/// [`decode_run`] then decodes and checks one edge's run at a time. After
/// an error the arena contents are unspecified; the next decode resets it.
#[derive(Debug, Default)]
pub struct DecodeArena {
    nodes: u32,
    start: u32,
    finish: u32,
    edges: Vec<ArenaEdge>,
    emissions: Vec<ArenaEmission>,
    /// Byte range of each label dictionary entry in the blob.
    labels: Vec<(u32, u32)>,
    /// Each probability dictionary entry.
    probs: Vec<f64>,
    /// CSR offsets: out-edges of node `v` are
    /// `out_edges[out_off[v] as usize..out_off[v + 1] as usize]`.
    out_off: Vec<u32>,
    out_edges: Vec<u32>,
    /// Target node per CSR slot (`edges[out_edges[i]].to` precomputed), so
    /// the topo/reachability passes touch one flat array instead of
    /// chasing edge indices.
    out_to: Vec<u32>,
    topo: Vec<u32>,
    /// Per edge, where its emission run lies.
    runs: Vec<Run>,
    /// Set of byte values occurring in any label, bit `b & 63` of word
    /// `b >> 6` for byte `b`.
    label_bytes: [u64; 4],
    // Scratch reused across decodes.
    indeg: Vec<u32>,
    head: Vec<u32>,
    fwd: Vec<bool>,
    bwd: Vec<bool>,
}

impl DecodeArena {
    /// An empty arena. Buffers grow to fit the largest blob decoded and
    /// are retained between rows.
    pub fn new() -> DecodeArena {
        DecodeArena::default()
    }

    /// Node count of the last decoded blob.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Start node of the last decoded blob.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Finish node of the last decoded blob.
    #[inline]
    pub fn finish(&self) -> u32 {
        self.finish
    }

    /// All decoded edges, in blob order (which is also [`Sfa`] edge-id
    /// order for blobs produced by [`encode`]).
    #[inline]
    pub fn edges(&self) -> &[ArenaEdge] {
        &self.edges
    }

    /// All decoded emissions; index with an edge's `em_start..em_end`.
    /// After [`decode_skeleton`] it holds only the runs [`decode_run`]
    /// decoded, in the order they were decoded.
    #[inline]
    pub fn emissions(&self) -> &[ArenaEmission] {
        &self.emissions
    }

    /// Whether edge `edge`'s emission run is decoded: always after
    /// [`decode_into_arena`], after [`decode_skeleton`] once [`decode_run`]
    /// has decoded it. A decoded run is never empty.
    #[inline]
    pub fn run_decoded(&self, edge: u32) -> bool {
        let e = self.edges[edge as usize];
        e.em_start != e.em_end
    }

    /// Byte range of edge `edge`'s emission run in the blob: the bytes
    /// [`decode_run`] reads for it.
    pub fn run_range(&self, edge: u32) -> std::ops::Range<usize> {
        let run = self.runs[edge as usize];
        let width = id_width(self.labels.len()) + id_width(self.probs.len());
        run.start as usize..run.start as usize + run.count as usize * width
    }

    /// Out-edge indexes of node `v`, ascending (same order as
    /// [`Sfa::out_edges`] on the decoded graph).
    #[inline]
    pub fn out_edges(&self, v: u32) -> &[u32] {
        let lo = self.out_off[v as usize] as usize;
        let hi = self.out_off[v as usize + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Topological order of the decoded graph, identical to
    /// [`Sfa::try_topo_order`] on the equivalent decoded [`Sfa`].
    #[inline]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// The 256-bit set of byte values that occur in any label of the last
    /// decoded blob's dictionary (bit `b & 63` of word `b >> 6` for byte
    /// `b`), whatever the emission's probability. Each decode replaces it;
    /// only [`decode_into_arena`] fills it ([`decode_skeleton`] leaves it
    /// empty).
    #[inline]
    pub fn label_bytes(&self) -> [u64; 4] {
        self.label_bytes
    }
}

/// Parse and validate an SFA blob into a reusable [`DecodeArena`] without
/// per-row allocation: the full entry, [`decode_skeleton`] and then every
/// edge's run in edge order, so it applies every check of the format, and
/// the label-byte set. See [`DecodeArena`] for the ordering guarantees.
pub fn decode_into_arena(buf: &[u8], arena: &mut DecodeArena) -> Result<(), SfaError> {
    decode_skeleton(buf, arena)?;
    // The labels lie back to back. One flag per byte value, packed at the
    // end: a plain store per byte is cheaper than setting bits in place.
    let mut seen = [false; 256];
    if let (Some(first), Some(last)) = (arena.labels.first(), arena.labels.last()) {
        for &b in &buf[first.0 as usize..last.1 as usize] {
            seen[usize::from(b)] = true;
        }
    }
    for (b, &hit) in seen.iter().enumerate() {
        arena.label_bytes[b >> 6] |= u64::from(hit) << (b & 63);
    }
    (0..arena.edges.len() as u32).try_for_each(|edge| decode_run(buf, arena, edge))
}

/// The probe's shallow entry, first pass: parse and check the header, both
/// dictionaries (each label's UTF-8, each probability's range, no entry
/// twice) and every edge header (endpoints, emission counts, and that the
/// runs fill the rest of the blob), then run the structural validation.
/// No emission run is read: every edge's `em_start..em_end` is empty
/// until [`decode_run`] decodes it.
///
/// A blob this rejects is rejected by [`decode_into_arena`] with the same
/// [`SfaError`]. What it does not check — the ids of each run —
/// [`decode_run`] checks for the runs a caller reads.
pub fn decode_skeleton(buf: &[u8], arena: &mut DecodeArena) -> Result<(), SfaError> {
    let (mut r, edge_count) = read_header(buf, arena)?;
    read_dictionaries(&mut r, arena)?;
    for _ in 0..edge_count {
        let (from, to, count) = read_edge_header(&mut r, arena.nodes)?;
        arena.runs.push(Run { start: 0, count });
        arena.edges.push(ArenaEdge {
            from,
            to,
            em_start: 0,
            em_end: 0,
        });
    }
    // The runs follow the edge headers back to back in edge order: none
    // may end past the blob, and the last ends it.
    let width = (id_width(arena.labels.len()) + id_width(arena.probs.len())) as u64;
    let (mut end, len) = (r.pos as u64, buf.len() as u64);
    for (edge, run) in arena.runs.iter_mut().enumerate() {
        run.start = end as u32;
        end += u64::from(run.count) * width;
        if end > len || (edge + 1 == edge_count as usize && end != len) {
            return Err(SfaError::BadRunOffset { edge: edge as u32 });
        }
    }
    validate_arena_structure(arena)
}

/// The probe's shallow entry, second pass: decode edge `edge`'s emission
/// run into `arena`, which holds [`decode_skeleton`]'s pass over the same
/// `buf`, checking each label and probability id against the dictionaries,
/// and stably re-sorting an unsorted run by decreasing probability. The
/// run is appended to [`DecodeArena::emissions`] and the edge's
/// `em_start..em_end` set to it; a run already decoded is left as it is.
///
/// # Panics
///
/// If `edge` is not an edge of the decoded blob.
pub fn decode_run(buf: &[u8], arena: &mut DecodeArena, edge: u32) -> Result<(), SfaError> {
    if arena.run_decoded(edge) {
        return Ok(());
    }
    let em_start = arena.emissions.len() as u32;
    read_run(&buf[arena.run_range(edge)], edge, arena)?;
    let e = &mut arena.edges[edge as usize];
    e.em_start = em_start;
    e.em_end = arena.emissions.len() as u32;
    Ok(())
}

/// Reset `arena` and parse the blob header — magic, node count, start,
/// finish, edge count — with its count and node checks. Returns the
/// reader, positioned at the label dictionary, and the edge count.
fn read_header<'a>(buf: &'a [u8], arena: &mut DecodeArena) -> Result<(Reader<'a>, u32), SfaError> {
    arena.edges.clear();
    arena.emissions.clear();
    arena.labels.clear();
    arena.probs.clear();
    arena.label_bytes = [0; 4];
    arena.runs.clear();
    arena.out_off.clear();
    arena.out_edges.clear();
    arena.topo.clear();
    arena.nodes = 0;

    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SfaError::BadMagic);
    }
    let nodes = r.varint()?;
    if nodes as usize > buf.len() {
        return Err(SfaError::CorruptCount {
            what: "node",
            count: nodes as u64,
        });
    }
    let start = r.varint()?;
    let finish = r.varint()?;
    let edge_count = r.varint()?;
    // An edge takes at least three one-byte header varints and a two-byte
    // run (a one-byte label id and a one-byte probability id).
    if edge_count as u64 * 5 > r.remaining() as u64 {
        return Err(SfaError::CorruptCount {
            what: "edge",
            count: edge_count as u64,
        });
    }
    if start >= nodes || finish >= nodes {
        return Err(SfaError::InvalidNode(start.max(finish)));
    }
    arena.nodes = nodes;
    arena.start = start;
    arena.finish = finish;
    Ok((r, edge_count))
}

/// Parse both dictionaries into `arena` with every check on their entries:
/// the label lengths are non-zero and add up to the label bytes, a label
/// is UTF-8, a probability is in `[0, 1]` (NaN and the infinities out),
/// and each dictionary ascends strictly — labels in byte order,
/// probabilities by their bits — so no entry repeats another.
fn read_dictionaries(r: &mut Reader<'_>, arena: &mut DecodeArena) -> Result<(), SfaError> {
    let bad = |what, index| Err(SfaError::BadEntry { what, index });
    // An entry against the one before it: `[repeated, unsorted]` name the
    // two defects of its dictionary.
    let order = |before: Ordering, index, [repeated, unsorted]: [&'static str; 2]| match before {
        Ordering::Less => Ok(()),
        Ordering::Equal => bad(repeated, index),
        Ordering::Greater => bad(unsorted, index),
    };
    let (count, total) = (r.varint()?, r.varint()? as usize);
    if count as u64 * 2 > r.remaining() as u64 {
        return Err(SfaError::CorruptCount {
            what: "label",
            count: count as u64,
        });
    }
    // The labels' bytes back to back, then each label's length. ASCII (the
    // overwhelmingly common case for OCR text) is valid UTF-8 by
    // construction. Otherwise the bytes must be valid UTF-8 as a whole and
    // every label must start on a character boundary (not on a
    // continuation byte, `0x80..=0xBF`): then each label is valid alone.
    let (buf, base) = (r.buf, r.pos);
    let bytes = r.take(total)?;
    let ascii = bytes.is_ascii();
    if !ascii && std::str::from_utf8(bytes).is_err() {
        return Err(SfaError::BadLabel);
    }
    let (mut start, mut before) = (0, (0, &bytes[..0]));
    for index in 0..count {
        let len = r.varint()? as usize;
        if len == 0 || start + len > total {
            return bad("label length", index);
        }
        let label = &bytes[start..start + len];
        if !ascii && (label[0] as i8) < -0x40 {
            return Err(SfaError::BadLabel);
        }
        // Each label sorts after the one before: its first eight bytes,
        // read as one word, decide all but ties.
        let word = prefix_word(buf, base + start, len);
        if index > 0 {
            let cmp = before.0.cmp(&word).then_with(|| before.1.cmp(label));
            order(cmp, index, ["repeated label", "unsorted label"])?;
        }
        before = (word, label);
        let at = (base + start) as u32;
        arena.labels.push((at, at + len as u32));
        start += len;
    }
    if start != total {
        return Err(SfaError::CorruptCount {
            what: "label byte",
            count: total as u64,
        });
    }

    let count = r.varint()?;
    if count as u64 * 8 > r.remaining() as u64 {
        return Err(SfaError::CorruptCount {
            what: "probability",
            count: count as u64,
        });
    }
    for index in 0..count {
        let bits = r.u64()?;
        let prob = f64::from_bits(bits);
        // The range test also rejects NaN and both infinities.
        if !(0.0..=1.0 + 1e-9).contains(&prob) {
            return bad("out-of-range probability", index);
        }
        if let Some(before) = arena.probs.last() {
            let cmp = before.to_bits().cmp(&bits);
            order(cmp, index, ["repeated probability", "unsorted probability"])?;
        }
        arena.probs.push(prob);
    }
    Ok(())
}

/// The label at `buf[at..at + len]`'s first eight bytes as a big-endian
/// word, zero-padded: words order labels as their first eight bytes do.
/// It is one load and a mask, where a slice comparison is a `memcmp` call:
/// checking the dictionary's order with `before.cmp(label)` alone makes a
/// Staccato skeleton ≈ 0.7 µs (≈ 10–20 %) slower (DESIGN.md, "Blob format").
#[inline]
fn prefix_word(buf: &[u8], at: usize, len: usize) -> u64 {
    let Some(word) = buf.get(at..at + 8) else {
        let bytes = buf[at..at + len.min(8)].iter().enumerate();
        return bytes.fold(0, |word, (i, &b)| word | u64::from(b) << (56 - 8 * i));
    };
    let word = u64::from_be_bytes(word.try_into().expect("eight bytes"));
    word & !u64::MAX.checked_shr(8 * len as u32).unwrap_or(0)
}

/// Parse one edge header's `from`, `to` and emission count, checking both
/// endpoints against `nodes` and the count against the bytes left (an
/// edge emits at least one label).
#[inline]
fn read_edge_header(r: &mut Reader<'_>, nodes: u32) -> Result<(u32, u32, u32), SfaError> {
    let from = r.varint()?;
    let to = r.varint()?;
    if from >= nodes || to >= nodes {
        return Err(SfaError::InvalidNode(from.max(to)));
    }
    let count = r.varint()?;
    if count == 0 || count as u64 * 2 > r.remaining() as u64 {
        return Err(SfaError::CorruptCount {
            what: "emission",
            count: count as u64,
        });
    }
    Ok((from, to, count))
}

/// Parse edge `edge`'s run, `run`, into `arena.emissions`, resolving each
/// id through the dictionaries, and stably re-sort the run by decreasing
/// probability if it is not sorted.
#[inline]
fn read_run(run: &[u8], edge: u32, arena: &mut DecodeArena) -> Result<(), SfaError> {
    let DecodeArena {
        labels,
        probs,
        emissions,
        ..
    } = arena;
    let (label_width, prob_width) = (id_width(labels.len()), id_width(probs.len()));
    let em_start = emissions.len();
    let (mut sorted, mut prev) = (true, f64::INFINITY);
    for ids in run.chunks_exact(label_width + prob_width) {
        let label_id = read_id(ids, label_width);
        let prob_id = read_id(&ids[label_width..], prob_width);
        let bad = |what, id| Err(SfaError::BadId { edge, what, id });
        let Some(&(label_start, label_end)) = labels.get(label_id as usize) else {
            return bad("label", label_id);
        };
        let Some(&prob) = probs.get(prob_id as usize) else {
            return bad("probability", prob_id);
        };
        sorted &= prev >= prob;
        prev = prob;
        emissions.push(ArenaEmission {
            label_start,
            label_end,
            prob,
        });
    }
    // `Sfa::add_edge` stably sorts emissions by decreasing probability;
    // replicate it so evaluation visits emissions in the same order.
    // Blobs written by `encode` are already in that order (the `Sfa`
    // sorted at construction), so the loop above tracks whether the
    // run is sorted before paying the sort — the probabilities were
    // validated finite, making `>=` a faithful stand-in for the sort's
    // comparator.
    if !sorted {
        emissions[em_start..].sort_by(|a, b| {
            b.prob
                .partial_cmp(&a.prob)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    Ok(())
}

/// The structural checks of `SfaBuilder::build` (`check_structure`) over
/// the arena representation, producing identical errors: topological order
/// with `CyclicGraph` on a cycle, distinct start/finish, no in-edges into
/// start / out-edges out of finish, and full forward/backward reachability.
fn validate_arena_structure(arena: &mut DecodeArena) -> Result<(), SfaError> {
    let n = arena.nodes as usize;

    // CSR out-adjacency by counting sort over edges in index order: each
    // node's slice ends up ascending, matching `Sfa::out_edges` (adjacency
    // is pushed in edge-insertion order, which is blob order here).
    arena.out_off.clear();
    arena.out_off.resize(n + 1, 0);
    arena.indeg.clear();
    arena.indeg.resize(n, 0);
    for e in &arena.edges {
        arena.out_off[e.from as usize + 1] += 1;
        arena.indeg[e.to as usize] += 1;
    }
    for v in 0..n {
        arena.out_off[v + 1] += arena.out_off[v];
    }
    arena.out_edges.clear();
    arena.out_edges.resize(arena.edges.len(), 0);
    arena.out_to.clear();
    arena.out_to.resize(arena.edges.len(), 0);
    arena.head.clear();
    arena.head.extend_from_slice(&arena.out_off[..n]);
    for (idx, e) in arena.edges.iter().enumerate() {
        let slot = arena.head[e.from as usize] as usize;
        arena.out_edges[slot] = idx as u32;
        arena.out_to[slot] = e.to;
        arena.head[e.from as usize] += 1;
    }

    // "No edges into start" (checked after the cycle test below) is
    // exactly `indeg[start] == 0`; capture it before Kahn's consumes the
    // in-degree counts.
    let edges_into_start = arena.indeg[arena.start as usize] != 0;

    // Kahn's algorithm with `try_topo_order`'s exact tie-breaking: the
    // initial zero in-degree set ascending (0..n scan), then FIFO,
    // successors appended in out-edge index order.
    arena.topo.clear();
    for v in 0..n {
        if arena.indeg[v] == 0 {
            arena.topo.push(v as u32);
        }
    }
    let mut queue_head = 0usize;
    while queue_head < arena.topo.len() {
        let v = arena.topo[queue_head];
        queue_head += 1;
        let lo = arena.out_off[v as usize] as usize;
        let hi = arena.out_off[v as usize + 1] as usize;
        for &to in &arena.out_to[lo..hi] {
            arena.indeg[to as usize] -= 1;
            if arena.indeg[to as usize] == 0 {
                arena.topo.push(to);
            }
        }
    }
    if arena.topo.len() != n {
        return Err(SfaError::CyclicGraph);
    }

    if arena.start == arena.finish {
        return Err(SfaError::Disconnected { node: arena.start });
    }
    if edges_into_start {
        return Err(SfaError::Disconnected { node: arena.start });
    }
    if arena.out_off[arena.finish as usize] != arena.out_off[arena.finish as usize + 1] {
        return Err(SfaError::Disconnected { node: arena.finish });
    }

    // Forward reachability from start, backward from finish, over the topo
    // order — same traversal (and same first-failing node) as
    // `check_structure`. Graphs with at most 64 nodes (every Staccato
    // graph in practice) use u64 bitsets; larger ones fall back to the
    // byte-per-node buffers.
    if n <= 64 {
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut fwd: u64 = 1u64 << arena.start;
        for i in 0..n {
            let v = arena.topo[i] as usize;
            if fwd >> v & 1 == 0 {
                continue;
            }
            let (lo, hi) = (arena.out_off[v] as usize, arena.out_off[v + 1] as usize);
            for &to in &arena.out_to[lo..hi] {
                fwd |= 1u64 << to;
            }
        }
        let mut bwd: u64 = 1u64 << arena.finish;
        for i in (0..n).rev() {
            let v = arena.topo[i] as usize;
            let (lo, hi) = (arena.out_off[v] as usize, arena.out_off[v + 1] as usize);
            for &to in &arena.out_to[lo..hi] {
                bwd |= (bwd >> to & 1) << v;
            }
        }
        let live = fwd & bwd;
        if live != full {
            for &v in &arena.topo {
                if live >> v & 1 == 0 {
                    return Err(SfaError::Disconnected { node: v });
                }
            }
        }
        return Ok(());
    }
    arena.fwd.clear();
    arena.fwd.resize(n, false);
    arena.fwd[arena.start as usize] = true;
    for i in 0..arena.topo.len() {
        let v = arena.topo[i];
        if !arena.fwd[v as usize] {
            continue;
        }
        let (lo, hi) = (
            arena.out_off[v as usize] as usize,
            arena.out_off[v as usize + 1] as usize,
        );
        for &to in &arena.out_to[lo..hi] {
            arena.fwd[to as usize] = true;
        }
    }
    arena.bwd.clear();
    arena.bwd.resize(n, false);
    arena.bwd[arena.finish as usize] = true;
    for i in (0..arena.topo.len()).rev() {
        let v = arena.topo[i];
        let (lo, hi) = (
            arena.out_off[v as usize] as usize,
            arena.out_off[v as usize + 1] as usize,
        );
        for &to in &arena.out_to[lo..hi] {
            if arena.bwd[to as usize] {
                arena.bwd[v as usize] = true;
            }
        }
    }
    for &v in &arena.topo {
        if !arena.fwd[v as usize] || !arena.bwd[v as usize] {
            return Err(SfaError::Disconnected { node: v });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Emission, SfaBuilder};

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
    fn roundtrip_preserves_distribution() {
        let sfa = figure1();
        let blob = encode(&sfa);
        let back = decode(&blob).unwrap();
        let mut a = sfa.enumerate_strings(1000);
        let mut b = back.enumerate_strings(1000);
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a.len(), b.len());
        for ((sa, pa), (sb, pb)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert!((pa - pb).abs() < 1e-12);
        }
    }

    #[test]
    fn table1_size_counts_the_sfa1_layout() {
        let sfa = figure1();
        // 20 header bytes, 12 per edge, 2 + 1 + 8 per one-byte emission.
        assert_eq!(table1_size(&sfa), 20 + 6 * 12 + 10 * 11);
        assert!(encode(&sfa).len() < table1_size(&sfa));
    }

    /// `blob` with the `len` bytes at `at` replaced by `with`.
    fn splice(blob: &[u8], at: usize, len: usize, with: &[u8]) -> Vec<u8> {
        let mut out = blob[..at].to_vec();
        out.extend_from_slice(with);
        out.extend_from_slice(&blob[at + len..]);
        out
    }

    /// Offset of `prob`'s entry in `blob`'s probability dictionary.
    fn prob_entry(blob: &[u8], prob: f64) -> usize {
        let bits = prob.to_bits().to_le_bytes();
        blob.windows(8)
            .position(|w| w == bits)
            .expect("a dictionary entry")
    }

    #[test]
    fn dictionaries_hold_each_entry_once_in_ascending_order() {
        let sfa = figure1();
        let blob = encode(&sfa);
        assert_eq!(encode(&sfa), blob);
        let mut arena = DecodeArena::new();
        decode_skeleton(&blob, &mut arena).unwrap();
        let labels: Vec<&[u8]> = arena
            .labels
            .iter()
            .map(|&(s, e)| &blob[s as usize..e as usize])
            .collect();
        // Edge by edge the labels are "F" "T", "0" "o", " ", "r", "r" "m",
        // "d" "3"; stored, each once and in byte order.
        let want: Vec<&[u8]> = [" ", "0", "3", "F", "T", "d", "m", "o", "r"]
            .iter()
            .map(|l| l.as_bytes())
            .collect();
        assert_eq!(labels, want);
        assert_eq!(arena.probs, [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]);
        // The runs close the blob: ten emissions, two one-byte ids each.
        assert_eq!(arena.run_range(0).start, blob.len() - 20);
    }

    #[test]
    fn long_single_emission_chains_roundtrip() {
        // An edge of a clean line is three one-byte header varints and a
        // two-byte run, five bytes: the least an edge takes, so these
        // blobs hold the edge count against the bytes left at its tightest.
        let line =
            "the commission shall report to the congress on the state of the public lands now";
        for text in ["a".repeat(14), "a".repeat(200), line.to_string()] {
            let sfa = Sfa::from_string(&text);
            let blob = encode(&sfa);
            let mut arena = DecodeArena::new();
            decode_skeleton(&blob, &mut arena).unwrap();
            let back = decode(&blob).unwrap();
            assert_eq!(back.enumerate_strings(2), [(text, 1.0)]);
            assert_eq!(encode(&back), blob);
        }
    }

    #[test]
    fn multichar_labels_roundtrip() {
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(
            s,
            f,
            vec![Emission::new("Ford", 0.6), Emission::new("F0 rd", 0.4)],
        );
        let sfa = b.build(s, f).unwrap();
        let back = decode(&encode(&sfa)).unwrap();
        assert_eq!(back.edge(0).unwrap().emissions[0].label, "Ford");
        assert_eq!(back.edge(0).unwrap().emissions[1].label, "F0 rd");
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE????????").unwrap_err(), SfaError::BadMagic);
    }

    #[test]
    fn truncation_at_every_boundary_rejected() {
        let blob = encode(&figure1());
        for cut in 0..blob.len() {
            let err = decode(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SfaError::Truncated
                        | SfaError::BadMagic
                        | SfaError::CorruptCount { .. }
                        | SfaError::BadRunOffset { .. }
                        | SfaError::Disconnected { .. }
                ),
                "cut at {cut} gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_edge_count_rejected_before_allocation() {
        // Overwrite the edge count (the one-byte varint after magic, node
        // count, start and finish) with an absurd value.
        let blob = splice(&encode(&figure1()), 7, 1, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert!(matches!(
            decode(&blob).unwrap_err(),
            SfaError::CorruptCount { what: "edge", .. }
        ));
    }

    #[test]
    fn corrupt_probability_rejected() {
        let mut blob = encode(&figure1());
        let at = prob_entry(&blob, 0.1);
        blob[at..at + 8].copy_from_slice(&42.0f64.to_le_bytes());
        assert_eq!(
            decode(&blob).unwrap_err(),
            SfaError::BadEntry {
                what: "out-of-range probability",
                index: 0
            }
        );
    }

    #[test]
    fn invalid_utf8_label_rejected() {
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("ab", 1.0)]);
        let sfa = b.build(s, f).unwrap();
        let mut blob = encode(&sfa);
        // The label dictionary's one entry, "ab"; stomp it.
        let pos = blob.iter().position(|&b| b == b'a').unwrap();
        blob[pos] = 0xFF;
        blob[pos + 1] = 0xFE;
        assert_eq!(decode(&blob).unwrap_err(), SfaError::BadLabel);
    }

    /// Assert the arena decode of `blob` is structurally identical to the
    /// allocating decode: same nodes/start/finish, same edges in the same
    /// order, same emissions (label bytes and probability) in the same
    /// order, same adjacency, same topological order.
    fn assert_arena_matches_decode(blob: &[u8]) {
        let sfa = decode(blob).unwrap();
        let mut arena = DecodeArena::new();
        decode_into_arena(blob, &mut arena).unwrap();
        assert_eq!(arena.node_count() as usize, sfa.node_count());
        assert_eq!(arena.start(), sfa.start());
        assert_eq!(arena.finish(), sfa.finish());
        assert_eq!(arena.edges().len(), sfa.edge_count());
        for (idx, (id, e)) in sfa.edges().enumerate() {
            assert_eq!(id as usize, idx);
            let ae = arena.edges()[idx];
            assert_eq!((ae.from, ae.to), (e.from, e.to));
            let ems = &arena.emissions()[ae.em_start as usize..ae.em_end as usize];
            assert_eq!(ems.len(), e.emissions.len());
            for (am, em) in ems.iter().zip(&e.emissions) {
                assert_eq!(&blob[am.label_range()], em.label.as_bytes());
                assert_eq!(am.prob.to_bits(), em.prob.to_bits());
            }
        }
        for v in 0..arena.node_count() {
            assert_eq!(arena.out_edges(v), sfa.out_edges(v));
        }
        assert_eq!(arena.topo(), &sfa.try_topo_order().unwrap()[..]);
    }

    #[test]
    fn arena_decode_matches_decode_on_valid_blobs() {
        assert_arena_matches_decode(&encode(&figure1()));
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(
            s,
            f,
            vec![Emission::new("Ford", 0.6), Emission::new("F0 rd", 0.4)],
        );
        assert_arena_matches_decode(&encode(&b.build(s, f).unwrap()));
    }

    #[test]
    fn arena_decode_matches_decode_on_corrupt_blobs() {
        let blob = encode(&figure1());
        let mut arena = DecodeArena::new();
        // Truncation at every boundary must produce the same typed error
        // as the allocating decode.
        for cut in 0..blob.len() {
            let expect = decode(&blob[..cut]).unwrap_err();
            let got = decode_into_arena(&blob[..cut], &mut arena).unwrap_err();
            assert_eq!(got, expect, "cut at {cut}");
        }
        // Single-byte stomps: both decoders must agree on Ok vs the same Err.
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x41;
            match (decode(&bad), decode_into_arena(&bad, &mut arena)) {
                (Ok(_), Ok(())) => assert_arena_matches_decode(&bad),
                (Err(a), Err(b)) => assert_eq!(a, b, "stomp at {pos}"),
                (a, b) => panic!("stomp at {pos}: decode={a:?} arena={b:?}"),
            }
        }
    }

    /// Assert the shallow entry agrees with the full one on `blob`: where
    /// the skeleton rejects it, the full entry rejects it with the same
    /// error; where the skeleton accepts it, decoding the runs in edge
    /// order reports the full entry's result, and on success yields the
    /// full entry's arena.
    fn assert_skeleton_agrees(blob: &[u8], full: &mut DecodeArena, shallow: &mut DecodeArena) {
        let want = decode_into_arena(blob, full);
        let got = decode_skeleton(blob, shallow);
        if got.is_err() {
            assert_eq!(got, want);
            return;
        }
        assert!(shallow.emissions().is_empty());
        assert_eq!(shallow.label_bytes(), [0; 4]);
        let runs =
            (0..shallow.edges().len() as u32).try_for_each(|edge| decode_run(blob, shallow, edge));
        assert_eq!(runs, want);
        if want.is_err() {
            return;
        }
        assert_eq!(
            (shallow.node_count(), shallow.start(), shallow.finish()),
            (full.node_count(), full.start(), full.finish())
        );
        assert_eq!(shallow.topo(), full.topo());
        assert_eq!(shallow.edges().len(), full.edges().len());
        for (edge, (s, f)) in shallow.edges().iter().zip(full.edges()).enumerate() {
            assert_eq!((s.from, s.to), (f.from, f.to));
            assert_eq!(shallow.out_edges(s.from), full.out_edges(f.from));
            let run = |a: &DecodeArena, e: &ArenaEdge| {
                a.emissions()[e.em_start as usize..e.em_end as usize]
                    .iter()
                    .map(|em| (em.label_range(), em.prob.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(run(shallow, s), run(full, f), "edge {edge}");
        }
        // A second request for a decoded run changes nothing.
        let before = shallow.emissions().len();
        decode_run(blob, shallow, 0).unwrap();
        assert_eq!(shallow.emissions().len(), before);
    }

    #[test]
    fn skeleton_rejects_what_the_full_entry_rejects_with_the_same_error() {
        let (mut full, mut shallow) = (DecodeArena::new(), DecodeArena::new());
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("ab", 1.0)]);
        let small = encode(&b.build(s, f).unwrap());
        let fig = encode(&figure1());
        decode_skeleton(&fig, &mut shallow).unwrap();
        let (run0, last_header) = (shallow.run_range(0), shallow.run_range(0).start - 1);
        // Edge 0 of figure 1 holds "F" 0.8 then "T" 0.2, two id pairs:
        // swapped, the run is unsorted.
        let mut unsorted = fig.clone();
        unsorted[run0].rotate_left(2);
        for blob in [&fig, &small, &unsorted] {
            assert_skeleton_agrees(blob, &mut full, &mut shallow);
            for cut in 0..blob.len() {
                assert_skeleton_agrees(&blob[..cut], &mut full, &mut shallow);
            }
            for pos in 0..blob.len() {
                for stomp in [0x41, 0xFF] {
                    let mut bad = blob.clone();
                    bad[pos] ^= stomp;
                    assert_skeleton_agrees(&bad, &mut full, &mut shallow);
                }
            }
        }
        // The hostile cases, one by one, each with its typed error.
        let entry = |what, index| SfaError::BadEntry { what, index };
        let mut nan_prob = fig.clone();
        let at = prob_entry(&fig, 0.1);
        nan_prob[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let mut negative_prob = fig.clone();
        negative_prob[at..at + 8].copy_from_slice(&(-0.5f64).to_le_bytes());
        // Sorted, figure 1's probabilities are 0.1, 0.2, 0.4, ... and its
        // labels " 03FTdmor".
        let mut repeated_prob = fig.clone();
        let at = prob_entry(&fig, 0.2);
        repeated_prob[at..at + 8].copy_from_slice(&0.1f64.to_le_bytes());
        let mut unsorted_prob = fig.clone();
        unsorted_prob[at..at + 8].copy_from_slice(&0.8f64.to_le_bytes());
        let mut bad_label = small.clone();
        let at = small.iter().position(|&b| b == b'a').unwrap();
        bad_label[at..at + 2].copy_from_slice(&[0xFF, 0xFE]);
        let mut repeated_label = fig.clone();
        let at = fig.iter().position(|&b| b == b'T').unwrap();
        repeated_label[at] = b'F';
        let mut unsorted_label = fig.clone();
        unsorted_label[at + 1] = b'!';
        let mut bad_id = fig.clone();
        bad_id[shallow.run_range(0).start] = 0x7F;
        // The last edge header ends in its emission count, 2: at 3, its
        // run would end past the blob; one more byte, and it would not end it.
        let mut far_run = fig.clone();
        far_run[last_header] = 3;
        let mut trailing = fig.clone();
        trailing.push(0);
        let cases = [
            (&b"NOPE????????"[..], SfaError::BadMagic),
            (
                &splice(&fig, 7, 1, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
                SfaError::CorruptCount {
                    what: "edge",
                    count: u32::MAX as u64,
                },
            ),
            (&nan_prob, entry("out-of-range probability", 0)),
            (&negative_prob, entry("out-of-range probability", 0)),
            (&repeated_prob, entry("repeated probability", 1)),
            (&unsorted_prob, entry("unsorted probability", 2)),
            (&bad_label, SfaError::BadLabel),
            (&repeated_label, entry("repeated label", 4)),
            (&unsorted_label, entry("unsorted label", 5)),
            (&splice(&fig, 4, 1, &[0x86, 0x00]), SfaError::BadVarint),
            (
                &splice(&fig, 4, 1, &[0x86, 0x80, 0x80, 0x80, 0x10]),
                SfaError::BadVarint,
            ),
            (&far_run, SfaError::BadRunOffset { edge: 5 }),
            (&trailing, SfaError::BadRunOffset { edge: 5 }),
            (
                &bad_id,
                SfaError::BadId {
                    edge: 0,
                    what: "label",
                    id: 0x7F,
                },
            ),
        ];
        for (blob, err) in cases {
            assert_skeleton_agrees(blob, &mut full, &mut shallow);
            assert_eq!(decode_into_arena(blob, &mut full), Err(err));
        }
        // The skeleton reads every dictionary entry, wherever it is used...
        assert!(decode_skeleton(&nan_prob, &mut shallow).is_err());
        assert!(decode_skeleton(&bad_label, &mut shallow).is_err());
        // ...and no run: an id is checked by the run that holds it.
        decode_skeleton(&bad_id, &mut shallow).unwrap();
        decode_run(&bad_id, &mut shallow, 1).unwrap();
        assert!(matches!(
            decode_run(&bad_id, &mut shallow, 0),
            Err(SfaError::BadId { edge: 0, .. })
        ));
    }

    /// The largest number of elements any of `arena`'s buffers has room for.
    fn footprint(arena: &DecodeArena) -> usize {
        [
            arena.edges.capacity(),
            arena.emissions.capacity(),
            arena.labels.capacity(),
            arena.probs.capacity(),
            arena.out_off.capacity(),
            arena.out_edges.capacity(),
            arena.out_to.capacity(),
            arena.topo.capacity(),
            arena.runs.capacity(),
            arena.indeg.capacity(),
            arena.head.capacity(),
            arena.fwd.capacity(),
            arena.bwd.capacity(),
        ]
        .into_iter()
        .max()
        .unwrap()
    }

    #[test]
    fn a_cut_or_stomped_blob_never_grows_the_arena_past_twice_its_length() {
        let mut b = SfaBuilder::new();
        let n: Vec<_> = (0..12).map(|_| b.add_node()).collect();
        for w in n.windows(2) {
            let emissions = (0..40u8)
                .map(|i| Emission::new(char::from(b'0' + i).to_string(), 0.025))
                .collect();
            b.add_edge(w[0], w[1], emissions);
        }
        let chain = encode(&b.build(n[0], n[11]).unwrap());
        for blob in [encode(&figure1()), chain] {
            let mut variants: Vec<Vec<u8>> =
                (0..blob.len()).map(|cut| blob[..cut].to_vec()).collect();
            for pos in 0..blob.len() {
                for stomp in [0x41, 0x80, 0xFF] {
                    let mut bad = blob.clone();
                    bad[pos] ^= stomp;
                    variants.push(bad);
                }
            }
            for bad in &variants {
                // A fresh arena each time: its buffers hold this blob only,
                // a count checked against its length, doubled at most by
                // a `Vec`'s growth.
                let mut arena = DecodeArena::new();
                let _ = decode_into_arena(bad, &mut arena);
                assert!(
                    footprint(&arena) <= 2 * bad.len() + 4,
                    "{} elements for {} bytes",
                    footprint(&arena),
                    bad.len()
                );
            }
        }
    }

    #[test]
    fn arena_is_reusable_across_rows() {
        let big = encode(&figure1());
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("x", 1.0)]);
        let small = encode(&b.build(s, f).unwrap());
        let mut arena = DecodeArena::new();
        for blob in [&big, &small, &big, &small] {
            decode_into_arena(blob, &mut arena).unwrap();
            let sfa = decode(blob).unwrap();
            assert_eq!(arena.node_count() as usize, sfa.node_count());
            assert_eq!(arena.edges().len(), sfa.edge_count());
            assert_eq!(arena.topo(), &sfa.try_topo_order().unwrap()[..]);
        }
        // An error mid-stream leaves the arena usable for the next row.
        assert!(decode_into_arena(&big[..big.len() - 3], &mut arena).is_err());
        decode_into_arena(&small, &mut arena).unwrap();
        assert_eq!(arena.node_count(), 2);
    }

    #[test]
    fn label_byte_set_is_the_union_of_label_bytes_and_each_decode_replaces_it() {
        let fig = encode(&figure1());
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        // A two-byte UTF-8 label, and a label whose emission has no mass.
        let emissions = vec![Emission::new("\u{e9}~", 0.75), Emission::new("x", 0.0)];
        b.add_edge(s, f, emissions);
        let other = encode(&b.build(s, f).unwrap());
        let mut arena = DecodeArena::new();
        // Each blob's set is its own union, never the previous one's too.
        let mut shallow = DecodeArena::new();
        for blob in [&fig, &other, &fig, &other] {
            decode_into_arena(blob, &mut arena).unwrap();
            decode_skeleton(blob, &mut shallow).unwrap();
            assert_eq!(shallow.label_bytes(), [0; 4]);
            let mut union = [0u64; 4];
            for em in arena.emissions() {
                for &byte in &blob[em.label_range()] {
                    union[usize::from(byte >> 6)] |= 1u64 << (byte & 63);
                }
            }
            assert_eq!(arena.label_bytes(), union);
        }
    }

    #[test]
    fn tombstoned_graph_encodes_compacted() {
        let mut sfa = figure1();
        let incident: Vec<_> = sfa
            .edges()
            .filter(|(_, e)| e.from == 3 || e.to == 3)
            .map(|(id, _)| id)
            .collect();
        for id in incident {
            sfa.remove_edge(id).unwrap();
        }
        sfa.remove_node(3).unwrap();
        assert_eq!(encode(&sfa), encode(&sfa.clone().into_compact()));
        let back = decode(&encode(&sfa)).unwrap();
        assert_eq!(back.node_count(), 5);
        assert_eq!(back.num_node_slots(), 5);
    }
}
