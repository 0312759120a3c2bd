//! Binary blob codec for SFAs.
//!
//! In the paper, FullSFA stores "the entire SFA as a BLOB inside the RDBMS"
//! and Staccato stores its chunk graph the same way (Table 5's `SFABlob` /
//! `GraphBlob` columns). This module defines that byte format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  b"SFA1"
//! u32    node count          u32 start    u32 finish
//! u32    edge count
//! per edge:
//!   u32 from   u32 to   u32 emission count
//!   per emission: u16 label byte length, label bytes (UTF-8), f64 prob
//! ```
//!
//! The SFA is written in its topological renumbering — nodes numbered in
//! [`Sfa::topo_order`], live edges in id order — straight from the graph:
//! tombstones never hit disk, and no compacted copy is made.
//! Decoding is hardened against corrupt blobs: every count is checked
//! against the remaining length before allocating, so a hostile or
//! truncated blob produces a typed error instead of an OOM or panic.
//!
//! The format is read here only, through one header parser, one
//! edge-header parser and one emission-run parser, at two depths:
//!
//! * [`decode_into_arena`] — the full entry, one fused pass that decodes
//!   and checks everything. The filescan, ingest, replay and index build
//!   read blobs through it (and [`decode`] through them).
//! * [`decode_skeleton`] then [`decode_run`] — the index probe's shallow
//!   entry. The skeleton checks every count, every length and the graph's
//!   structure, and decodes no emission; each run the probe's projection
//!   reads is then decoded with every per-emission check. The labels and
//!   probabilities of the runs it skips are not validated — the stance
//!   the filescan's tier-0 prescreen takes for the rows it never fetches.

use crate::error::SfaError;
use crate::model::{Emission, Sfa, SfaBuilder};

const MAGIC: &[u8; 4] = b"SFA1";

/// Serialize an SFA into a fresh byte buffer.
pub fn encode(sfa: &Sfa) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_size(sfa));
    encode_into(sfa, &mut buf);
    buf
}

/// Serialize an SFA, appending to `buf`.
pub fn encode_into(sfa: &Sfa, buf: &mut Vec<u8>) {
    let remap = sfa.topo_remap();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(sfa.node_count() as u32).to_le_bytes());
    buf.extend_from_slice(&remap[sfa.start() as usize].to_le_bytes());
    buf.extend_from_slice(&remap[sfa.finish() as usize].to_le_bytes());
    buf.extend_from_slice(&(sfa.edge_count() as u32).to_le_bytes());
    for (_, e) in sfa.edges() {
        buf.extend_from_slice(&remap[e.from as usize].to_le_bytes());
        buf.extend_from_slice(&remap[e.to as usize].to_le_bytes());
        buf.extend_from_slice(&(e.emissions.len() as u32).to_le_bytes());
        for em in &e.emissions {
            let bytes = em.label.as_bytes();
            debug_assert!(bytes.len() <= u16::MAX as usize, "label too long to encode");
            buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            buf.extend_from_slice(bytes);
            buf.extend_from_slice(&em.prob.to_le_bytes());
        }
    }
}

/// Exact size in bytes [`encode`] will produce. This is the storage cost
/// that Table 1 and the dataset statistics (Table 2) account for.
pub fn encoded_size(sfa: &Sfa) -> usize {
    let mut size = 4 + 4 + 4 + 4 + 4; // magic + node count + start + finish + edge count
    for (_, e) in sfa.edges() {
        size += 4 + 4 + 4;
        for em in &e.emissions {
            size += 2 + em.label.len() + 8;
        }
    }
    size
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

    fn u32(&mut self) -> Result<u32, SfaError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("len checked"),
        ))
    }

    /// One whole emission record — `u16` label length, label bytes, and
    /// the `f64` probability — under two bounds checks total. Decoding
    /// pays this per emission, so the fused read matters.
    fn emission(&mut self) -> Result<(&'a [u8], f64), SfaError> {
        let rem = &self.buf[self.pos..];
        if rem.len() < 2 {
            return Err(SfaError::Truncated);
        }
        let len = u16::from_le_bytes([rem[0], rem[1]]) as usize;
        if rem.len() < 2 + len + 8 {
            return Err(SfaError::Truncated);
        }
        let label = &rem[2..2 + len];
        let prob = f64::from_le_bytes(rem[2 + len..2 + len + 8].try_into().expect("len checked"));
        self.pos += 2 + len + 8;
        Ok((label, prob))
    }

    /// Step over one emission record under the same bounds checks as
    /// [`Reader::emission`], returning its label's byte length.
    #[inline]
    fn skip_emission(&mut self) -> Result<usize, SfaError> {
        let rem = &self.buf[self.pos..];
        if rem.len() < 2 {
            return Err(SfaError::Truncated);
        }
        let len = u16::from_le_bytes([rem[0], rem[1]]) as usize;
        if rem.len() < 2 + len + 8 {
            return Err(SfaError::Truncated);
        }
        self.pos += 2 + len + 8;
        Ok(len)
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

/// One emission decoded into a [`DecodeArena`]: a byte range into the
/// source blob (the label is *not* copied) plus its probability.
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
///   source blob (the codec validated them as UTF-8);
/// * adjacency is CSR (one offsets array + one flat edge-index array)
///   instead of per-node `Vec`s;
/// * the topological order is computed into a reusable buffer with the
///   exact tie-breaking of [`Sfa::try_topo_order`] (zero in-degree nodes
///   ascending, then FIFO following edge-index order), so evaluation over
///   the arena visits nodes in the same order as over a decoded [`Sfa`].
///
/// The full entry, [`decode_into_arena`], applies every check on
/// untrusted bytes — header and count checks, UTF-8 and probability
/// checks, and the structural invariants of `SfaBuilder::build`
/// (acyclicity, distinct start/finish with no in-/out-edges respectively,
/// full start→finish reachability). [`decode`] materialises its [`Sfa`]
/// from a filled arena, so both accept exactly the same blobs with the
/// same [`SfaError`] values. The shallow entry, [`decode_skeleton`], fills
/// everything but the emission runs and applies every check but the
/// per-emission ones; [`decode_run`] then decodes and checks one edge's
/// run at a time. After an error the arena contents are unspecified; the
/// next decode resets it.
#[derive(Debug, Default)]
pub struct DecodeArena {
    nodes: u32,
    start: u32,
    finish: u32,
    edges: Vec<ArenaEdge>,
    emissions: Vec<ArenaEmission>,
    /// CSR offsets: out-edges of node `v` are
    /// `out_edges[out_off[v] as usize..out_off[v + 1] as usize]`.
    out_off: Vec<u32>,
    out_edges: Vec<u32>,
    /// Target node per CSR slot (`edges[out_edges[i]].to` precomputed), so
    /// the topo/reachability passes touch one flat array instead of
    /// chasing edge indices.
    out_to: Vec<u32>,
    topo: Vec<u32>,
    /// Per edge, the blob offset of its emission run and the run's
    /// emission count — recorded by [`decode_skeleton`] only.
    runs: Vec<(u32, u32)>,
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
    /// decoded blob (bit `b & 63` of word `b >> 6` for byte `b`), whatever
    /// the emission's probability. Each decode replaces it; only
    /// [`decode_into_arena`] fills it ([`decode_skeleton`] leaves it empty).
    #[inline]
    pub fn label_bytes(&self) -> [u64; 4] {
        self.label_bytes
    }
}

/// Parse and validate an SFA blob into a reusable [`DecodeArena`] without
/// per-row allocation: the full entry, one fused pass that applies every
/// check of the format and decodes every emission run. See [`DecodeArena`]
/// for the ordering guarantees.
pub fn decode_into_arena(buf: &[u8], arena: &mut DecodeArena) -> Result<(), SfaError> {
    let (mut r, edge_count) = read_header(buf, arena)?;
    // One flag per byte value, packed into `label_bytes` at the end: a
    // plain store per label byte is cheaper than setting bits in place.
    let mut seen = [false; 256];
    for edge_idx in 0..edge_count {
        let (from, to, n_em) = read_edge_header(&mut r, arena.nodes)?;
        let em_start = arena.emissions.len() as u32;
        read_run(&mut r, edge_idx, n_em, &mut arena.emissions, &mut seen)?;
        arena.edges.push(ArenaEdge {
            from,
            to,
            em_start,
            em_end: arena.emissions.len() as u32,
        });
    }
    arena.label_bytes = [0; 4];
    for (b, &hit) in seen.iter().enumerate() {
        arena.label_bytes[b >> 6] |= u64::from(hit) << (b & 63);
    }

    validate_arena_structure(arena)
}

/// The probe's shallow entry, first pass: parse the header and every edge
/// header, walk every emission's length with the truncation, count and
/// empty-label checks of [`decode_into_arena`], record where each edge's
/// run starts, and run the same structural validation. No emission run is
/// decoded: every edge's `em_start..em_end` is empty until
/// [`decode_run`] decodes it, and [`DecodeArena::label_bytes`] is empty.
///
/// A blob this rejects is rejected by [`decode_into_arena`] with the same
/// [`SfaError`] whenever its first defect is one of those checks. What it
/// does not check — labels' UTF-8 and probabilities' range — is checked
/// by [`decode_run`] for the runs a caller reads, and never for the rest.
pub fn decode_skeleton(buf: &[u8], arena: &mut DecodeArena) -> Result<(), SfaError> {
    let (mut r, edge_count) = read_header(buf, arena)?;
    for edge_idx in 0..edge_count {
        let (from, to, n_em) = read_edge_header(&mut r, arena.nodes)?;
        let at = r.pos as u32;
        for _ in 0..n_em {
            if r.skip_emission()? == 0 {
                return Err(SfaError::EmptyLabel { edge: edge_idx });
            }
        }
        arena.runs.push((at, n_em));
        arena.edges.push(ArenaEdge {
            from,
            to,
            em_start: 0,
            em_end: 0,
        });
    }
    arena.label_bytes = [0; 4];
    validate_arena_structure(arena)
}

/// The probe's shallow entry, second pass: decode edge `edge`'s emission
/// run into `arena`, which holds [`decode_skeleton`]'s pass over the same
/// `buf`, with every per-emission check of [`decode_into_arena`] (UTF-8,
/// probability range, the stable re-sort of an unsorted run). The run is
/// appended to [`DecodeArena::emissions`] and the edge's `em_start..em_end`
/// set to it; a run already decoded is left as it is.
///
/// # Panics
///
/// If `edge` is not an edge of the decoded blob.
pub fn decode_run(buf: &[u8], arena: &mut DecodeArena, edge: u32) -> Result<(), SfaError> {
    if arena.run_decoded(edge) {
        return Ok(());
    }
    let (pos, n_em) = arena.runs[edge as usize];
    let mut r = Reader {
        buf,
        pos: pos as usize,
    };
    let em_start = arena.emissions.len() as u32;
    read_run(&mut r, edge, n_em, &mut arena.emissions, &mut [false; 256])?;
    let e = &mut arena.edges[edge as usize];
    e.em_start = em_start;
    e.em_end = arena.emissions.len() as u32;
    Ok(())
}

/// Reset `arena` and parse the blob header — magic, node count, start,
/// finish, edge count — with its count and node checks. Returns the
/// reader, positioned at the first edge header, and the edge count.
fn read_header<'a>(buf: &'a [u8], arena: &mut DecodeArena) -> Result<(Reader<'a>, u32), SfaError> {
    arena.edges.clear();
    arena.emissions.clear();
    arena.runs.clear();
    arena.out_off.clear();
    arena.out_edges.clear();
    arena.topo.clear();
    arena.nodes = 0;

    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SfaError::BadMagic);
    }
    let nodes = r.u32()?;
    if nodes as usize > buf.len() {
        return Err(SfaError::CorruptCount {
            what: "node",
            count: nodes as u64,
        });
    }
    let start = r.u32()?;
    let finish = r.u32()?;
    let edge_count = r.u32()?;
    if edge_count as u64 * 12 > r.remaining() as u64 {
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

/// Parse one edge header — `from`, `to`, emission count — checking both
/// endpoints against `nodes` and the count against the bytes left (an
/// edge emits at least one label).
#[inline]
fn read_edge_header(r: &mut Reader<'_>, nodes: u32) -> Result<(u32, u32, u32), SfaError> {
    let from = r.u32()?;
    let to = r.u32()?;
    if from >= nodes || to >= nodes {
        return Err(SfaError::InvalidNode(from.max(to)));
    }
    let n_em = r.u32()?;
    if n_em == 0 || n_em as u64 * 10 > r.remaining() as u64 {
        return Err(SfaError::CorruptCount {
            what: "emission",
            count: n_em as u64,
        });
    }
    Ok((from, to, n_em))
}

/// Parse edge `edge_idx`'s run of `n_em` emissions into `emissions` with
/// every per-emission check, flagging each label byte in `seen`, and
/// stably re-sort the run by decreasing probability if it is not sorted.
#[inline]
fn read_run(
    r: &mut Reader<'_>,
    edge_idx: u32,
    n_em: u32,
    emissions: &mut Vec<ArenaEmission>,
    seen: &mut [bool; 256],
) -> Result<(), SfaError> {
    let em_start = emissions.len();
    let (mut sorted, mut prev) = (true, f64::INFINITY);
    for _ in 0..n_em {
        let label_start = r.pos + 2;
        let (label_bytes, prob) = r.emission()?;
        // ASCII (the overwhelmingly common case for OCR text) is
        // valid UTF-8 by construction; labels are a few bytes, so a
        // branchless OR-fold beats the library `is_ascii` call and
        // only genuinely multi-byte labels pay the full validator.
        // The same pass flags each byte for the label-byte set.
        let mut or = 0u8;
        for &b in label_bytes {
            or |= b;
            seen[usize::from(b)] = true;
        }
        if or >= 0x80 && std::str::from_utf8(label_bytes).is_err() {
            return Err(SfaError::BadLabel);
        }
        if label_bytes.is_empty() {
            return Err(SfaError::EmptyLabel { edge: edge_idx });
        }
        // The range test also rejects NaN and both infinities.
        if !(0.0..=1.0 + 1e-9).contains(&prob) {
            return Err(SfaError::BadProbability {
                edge: edge_idx,
                prob,
            });
        }
        sorted &= prev >= prob;
        prev = prob;
        emissions.push(ArenaEmission {
            label_start: label_start as u32,
            label_end: (label_start + label_bytes.len()) as u32,
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
    fn encoded_size_is_exact() {
        let sfa = figure1();
        assert_eq!(encode(&sfa).len(), encoded_size(&sfa));
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
                        | SfaError::Disconnected { .. }
                ),
                "cut at {cut} gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_edge_count_rejected_before_allocation() {
        let mut blob = encode(&figure1());
        // Overwrite the edge count (offset 16) with an absurd value.
        blob[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&blob).unwrap_err(),
            SfaError::CorruptCount { what: "edge", .. }
        ));
    }

    #[test]
    fn corrupt_probability_rejected() {
        let mut blob = encode(&figure1());
        let len = blob.len();
        // The last 8 bytes are the final emission's probability.
        blob[len - 8..].copy_from_slice(&42.0f64.to_le_bytes());
        assert!(matches!(
            decode(&blob).unwrap_err(),
            SfaError::BadProbability { .. }
        ));
    }

    #[test]
    fn invalid_utf8_label_rejected() {
        let mut b = SfaBuilder::new();
        let s = b.add_node();
        let f = b.add_node();
        b.add_edge(s, f, vec![Emission::new("ab", 1.0)]);
        let sfa = b.build(s, f).unwrap();
        let mut blob = encode(&sfa);
        // Label bytes for "ab" sit right after the u16 length; stomp them.
        let pos = blob.len() - 8 - 2;
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
    /// the full entry's error is a header, count, length or structure
    /// defect, the skeleton fails with the same error; where the full
    /// entry accepts, the skeleton accepts and decoding every run yields
    /// the full arena; where the full entry rejects a label or a
    /// probability, the skeleton fails or decoding the runs in edge order
    /// reports that same error.
    fn assert_skeleton_agrees(blob: &[u8], full: &mut DecodeArena, shallow: &mut DecodeArena) {
        let want = decode_into_arena(blob, full);
        let got = decode_skeleton(blob, shallow);
        let per_emission = matches!(
            want,
            Err(SfaError::BadLabel | SfaError::BadProbability { .. })
        );
        if !per_emission {
            assert_eq!(got, want);
        }
        if got.is_err() {
            return;
        }
        assert!(shallow.emissions().is_empty());
        let runs =
            (0..shallow.edges().len() as u32).try_for_each(|edge| decode_run(blob, shallow, edge));
        if per_emission {
            // Debug text, so a NaN probability compares equal to itself.
            assert_eq!(format!("{runs:?}"), format!("{want:?}"));
            return;
        }
        runs.unwrap();
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
        // Edge 0 of figure 1 holds "F" 0.8 then "T" 0.2, one 11-byte
        // record each from offset 32: swapped, the run is unsorted.
        let mut unsorted = fig.clone();
        unsorted[32..54].rotate_left(11);
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
        // The hostile cases above, one by one.
        let mut huge_edges = fig.clone();
        huge_edges[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut bad_prob = fig.clone();
        let len = bad_prob.len();
        bad_prob[len - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        let mut bad_label = small.clone();
        let len = bad_label.len();
        bad_label[len - 10..len - 8].copy_from_slice(&[0xFF, 0xFE]);
        for blob in [&b"NOPE????????"[..], &huge_edges, &bad_prob, &bad_label] {
            assert_skeleton_agrees(blob, &mut full, &mut shallow);
        }
        assert_eq!(
            decode_skeleton(&huge_edges, &mut shallow),
            decode_into_arena(&huge_edges, &mut full)
        );
        // The skeleton does not read the labels or probabilities...
        decode_skeleton(&bad_prob, &mut shallow).unwrap();
        decode_skeleton(&bad_label, &mut shallow).unwrap();
        // ...the run that holds one does.
        assert!(matches!(
            decode_run(&bad_label, &mut shallow, 0),
            Err(SfaError::BadLabel)
        ));
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
        for blob in [&fig, &other, &fig, &other] {
            decode_into_arena(blob, &mut arena).unwrap();
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
