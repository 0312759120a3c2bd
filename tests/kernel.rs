//! Differential tests for the compiled scan kernel: on every row the
//! kernel must produce *bit-identical* (`f64::to_bits`) probabilities to
//! the naive reference evaluators (`eval_sfa` / `eval_strings`), across
//! random SFAs, random patterns, and all four representations — and a
//! prescreen skip must only ever happen on rows whose exact probability
//! under the full DP is zero. Which rows are prescreened is held to its
//! definition over the decoded graph. The index probe's projection entry
//! (`eval_projection`) is held to `reference::project_eval` the same way.
//! A blob's label synopsis is held to its definition over the strings the
//! graph emits, and a tier-0 rejection to what `eval_blob` computes.

use proptest::prelude::*;
use staccato::approx::{approximate, StaccatoParams};
use staccato::automata::required_literal;
use staccato::query::kernel::{blob_synopsis, ScanScratch, SYNOPSIS_LEN};
use staccato::query::reference::project_eval;
use staccato::query::{eval_sfa, eval_strings, EvalOutcome, Query};
use staccato::sfa::{codec, Emission, Sfa, SfaBuilder};
use std::collections::BTreeSet;

/// A small random SFA shaped like OCR output — a chain with occasional
/// two-branch bubbles (same shape `tests/properties.rs` uses).
fn sfa_strategy() -> impl Strategy<Value = Sfa> {
    let position =
        prop::collection::vec((prop::sample::select([2usize, 3, 4]), any::<u32>()), 2..8);
    (position, any::<bool>()).prop_map(|(positions, bubble)| {
        let mut b = SfaBuilder::new();
        let start = b.add_node();
        let mut cur = start;
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789".chars().collect();
        for (i, (fanout, salt)) in positions.iter().enumerate() {
            let next = b.add_node();
            let mut chars: Vec<char> = (0..*fanout)
                .map(|j| alphabet[((salt >> (j * 5)) as usize + j * 7 + i) % alphabet.len()])
                .collect();
            chars.sort_unstable();
            chars.dedup();
            let n = chars.len();
            let emissions: Vec<Emission> = chars
                .into_iter()
                .enumerate()
                .map(|(j, c)| {
                    let p = (j + 1) as f64 / (n * (n + 1) / 2) as f64;
                    Emission::new(c.to_string(), p)
                })
                .collect();
            if bubble && i == 1 && emissions.len() >= 2 {
                let (left, right) = emissions.split_at(1);
                let mid = b.add_node();
                b.add_edge(cur, mid, left.to_vec());
                b.add_edge(mid, next, vec![Emission::new("_", 1.0)]);
                b.add_edge(cur, next, right.to_vec());
            } else {
                b.add_edge(cur, next, emissions);
            }
            cur = next;
        }
        b.build(start, cur).expect("generated SFA is valid")
    })
}

/// A random SFA with multi-byte labels: each emission's label is 1–6
/// bytes of pattern bytes (`a`, `b`, `c`, digits) and bytes no pattern of
/// `pattern_strategy` uses (`x`, `y`, `z`, space, the two bytes of `é`),
/// and some emissions carry no mass. It drives the 2-byte memo, the
/// in-place walk of longer labels, and distinct labels that share one
/// byte-class sequence.
fn multibyte_sfa_strategy() -> impl Strategy<Value = Sfa> {
    let chars = prop::sample::select(vec!['a', 'b', 'c', '0', '1', 'x', 'y', 'z', ' ', '\u{e9}']);
    let label = prop::collection::vec(chars, 1..7).prop_map(|chars| {
        let mut label = String::new();
        for c in chars {
            if label.len() + c.len_utf8() > 6 {
                break;
            }
            label.push(c);
        }
        label
    });
    let position = prop::collection::vec((label, 0u32..4), 1..4);
    (prop::collection::vec(position, 2..7), any::<bool>()).prop_map(|(positions, bubble)| {
        let mut b = SfaBuilder::new();
        let start = b.add_node();
        let mut cur = start;
        for (i, position) in positions.into_iter().enumerate() {
            let next = b.add_node();
            let total = position.iter().map(|&(_, w)| w).sum::<u32>().max(1);
            let emissions: Vec<Emission> = position
                .into_iter()
                .map(|(label, w)| Emission::new(label, f64::from(w) / f64::from(total)))
                .collect();
            if bubble && i == 1 {
                let mid = b.add_node();
                b.add_edge(cur, mid, emissions.clone());
                b.add_edge(mid, next, vec![Emission::new("y\u{e9}", 1.0)]);
            }
            b.add_edge(cur, next, emissions);
            cur = next;
        }
        b.build(start, cur).expect("generated SFA is valid")
    })
}

/// A random pattern in the supported dialect, built from an AST so it is
/// always syntactically valid.
fn pattern_strategy() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec![
        "a".to_string(),
        "b".to_string(),
        "c".to_string(),
        r"\d".to_string(),
        "[ab]".to_string(),
    ]);
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
            inner.clone().prop_map(|a| format!("({a})*")),
            inner.clone().prop_map(|a| format!("({a})?")),
            inner.prop_map(|a| format!("({a})+")),
        ]
    })
}

/// Assert the kernel evaluates `blob` bit-identically to the naive DP,
/// and that a prescreen skip only happens on exactly-zero rows.
fn assert_blob_identity(q: &Query, blob: &[u8], scratch: &mut ScanScratch) {
    let naive = eval_sfa(&q.dfa, &codec::decode(blob).unwrap());
    let out = q.kernel.eval_blob(scratch, blob).unwrap();
    assert_eq!(
        out.probability.to_bits(),
        naive.to_bits(),
        "pattern {:?}: kernel={} naive={} (prescreened={})",
        q.pattern,
        out.probability,
        naive,
        out.prescreened
    );
    if out.prescreened {
        assert_eq!(naive, 0.0, "prescreen skipped a row with mass");
    }
}

/// Whether the kernel must prescreen `blob` under the regex query `q`, by
/// definition: some byte of the required literal occurs in no label, or —
/// where the bitset tier runs (`q ≤ 64` DFA states) — no accepting DFA
/// state is reached along any path of positive-probability emissions.
fn prescreened_by_definition(q: &Query, blob: &[u8]) -> bool {
    let sfa = codec::decode(blob).unwrap();
    let label_bytes: BTreeSet<u8> = sfa
        .edges()
        .flat_map(|(_, e)| &e.emissions)
        .flat_map(|em| em.label.bytes())
        .collect();
    let literal = required_literal(&q.ast).unwrap_or_default();
    if literal.bytes().any(|b| !label_bytes.contains(&b)) {
        return true;
    }
    if q.dfa.state_count() > 64 {
        return false;
    }
    let mut reached = vec![BTreeSet::new(); sfa.node_count()];
    reached[sfa.start() as usize].insert(q.dfa.start());
    for v in sfa.try_topo_order().unwrap() {
        let states = std::mem::take(&mut reached[v as usize]);
        for &eid in sfa.out_edges(v) {
            let e = sfa.edge(eid).unwrap();
            for em in e.emissions.iter().filter(|em| em.prob > 0.0) {
                for &s in &states {
                    let t = q.dfa.run_from(s, &em.label);
                    if q.dfa.is_accept(t) {
                        return false;
                    }
                    reached[e.to as usize].insert(t);
                }
            }
        }
    }
    true
}

/// Assert one kernel evaluation of `blob` is bit-identical to the naive
/// DP and prescreened exactly when [`prescreened_by_definition`] says so.
fn assert_blob_exact(q: &Query, blob: &[u8], scratch: &mut ScanScratch) {
    let naive = eval_sfa(&q.dfa, &codec::decode(blob).unwrap());
    let out = q.kernel.eval_blob(scratch, blob).unwrap();
    assert_eq!(
        out.probability.to_bits(),
        naive.to_bits(),
        "pattern {:?}: kernel={} naive={}",
        q.pattern,
        out.probability,
        naive
    );
    assert_eq!(
        out.prescreened,
        prescreened_by_definition(q, blob),
        "pattern {:?}: prescreened flag against its definition",
        q.pattern
    );
}

/// Assert `eval_projection` over `blob` from `start_edges` equals the
/// reference projection folded with `max` over the distinct source nodes
/// of the start edges that exist, bit for bit.
fn assert_projection_identity(
    q: &Query,
    blob: &[u8],
    start_edges: &[u32],
    depth: usize,
    scratch: &mut ScanScratch,
) {
    let sfa = codec::decode(blob).unwrap();
    let sources: std::collections::BTreeSet<u32> = start_edges
        .iter()
        .filter_map(|&eid| sfa.edge(eid))
        .map(|e| e.from)
        .collect();
    let want = sources
        .into_iter()
        .map(|from| project_eval(&q.dfa, &sfa, from, depth))
        .fold(0.0f64, f64::max);
    let got = q
        .kernel
        .eval_projection(scratch, blob, start_edges, depth)
        .unwrap();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "pattern {:?} from edges {start_edges:?} depth {depth}: kernel={got} reference={want}",
        q.pattern
    );
}

/// The synopsis class of a byte, by definition: `a`–`z`, `A`–`Z`, `0`–`9`,
/// space, and one class for every other byte.
fn synopsis_class(b: u8) -> usize {
    match b {
        b'a'..=b'z' => usize::from(b - b'a'),
        b'A'..=b'Z' => 26 + usize::from(b - b'A'),
        b'0'..=b'9' => 52 + usize::from(b - b'0'),
        b' ' => 62,
        _ => 63,
    }
}

/// Bit `bit` of a synopsis read as one little-endian bit string: bits
/// 0–255 are the label-byte set, bit `256 + 64c + d` the class bigram
/// `(c, d)`.
fn synopsis_bit(synopsis: &[u8; SYNOPSIS_LEN], bit: usize) -> bool {
    synopsis[bit / 8] >> (bit % 8) & 1 == 1
}

/// Assert every byte and every adjacent byte-class pair of every string
/// `sfa` can emit is in its blob's synopsis.
fn assert_synopsis_covers(sfa: &Sfa) {
    let synopsis = blob_synopsis(&codec::encode(sfa)).unwrap();
    for (string, _) in sfa.enumerate_strings(usize::MAX) {
        let bytes = string.as_bytes();
        for &b in bytes {
            assert!(
                synopsis_bit(&synopsis, usize::from(b)),
                "byte {b} of {string:?}"
            );
        }
        for w in bytes.windows(2) {
            let bit = 256 + 64 * synopsis_class(w[0]) + synopsis_class(w[1]);
            assert!(synopsis_bit(&synopsis, bit), "pair {w:?} of {string:?}");
        }
    }
}

/// Tier 0's verdict on `blob`, beside what `eval_blob` and the naive DP
/// compute for it: `(rejection, eval_blob outcome, naive probability)`.
fn tier0_and_eval_blob(
    q: &Query,
    blob: &[u8],
    scratch: &mut ScanScratch,
) -> (Option<EvalOutcome>, EvalOutcome, f64) {
    let rejected = q.kernel.eval_synopsis(&blob_synopsis(blob).unwrap());
    let out = q.kernel.eval_blob(scratch, blob).unwrap();
    (
        rejected,
        out,
        eval_sfa(&q.dfa, &codec::decode(blob).unwrap()),
    )
}

/// A query over words of `sfa`: a piece of its most likely string (often
/// admitted by tier 0), that piece reversed (its bytes present, its
/// pairs often not), a random word, a random regex, or — `kind` 4 — a
/// regex of more than 64 DFA states.
fn tier0_query(sfa: &Sfa, cut: (u16, usize), kind: usize, word: &str, pattern: &str) -> Query {
    let (map, _) = staccato::sfa::map_string(sfa).expect("non-empty SFA");
    let at = cut.0 as usize % map.len();
    let piece = &map[at..(at + cut.1).min(map.len())];
    let reversed: String = piece.chars().rev().collect();
    match kind {
        0 => Query::keyword(piece),
        1 => Query::keyword(&reversed),
        2 => Query::keyword(word),
        3 => Query::regex(pattern),
        _ => Query::regex(&format!(r"{piece}(\x)*[a-m]\x\x\x\x\x\x[n-z0-9]")),
    }
    .unwrap()
}

/// The reconvergent graph that separates shortest-distance projection
/// from first-discovery order: `y` is two edges from `s` via `x` and
/// three via `a, b`, so at depth 3 the match completing on `y→z` counts.
#[test]
fn projection_reaches_every_node_within_depth() {
    let mut bld = SfaBuilder::new();
    let [s, x, a, b, y, z] = std::array::from_fn(|_| bld.add_node());
    bld.add_edge(s, x, vec![Emission::new("F", 0.5)]);
    bld.add_edge(s, a, vec![Emission::new("q", 0.5)]);
    bld.add_edge(a, b, vec![Emission::new("q", 1.0)]);
    bld.add_edge(b, y, vec![Emission::new("q", 1.0)]);
    bld.add_edge(x, y, vec![Emission::new("or", 1.0)]);
    bld.add_edge(y, z, vec![Emission::new("d", 1.0)]);
    let blob = codec::encode(&bld.build(s, z).unwrap());
    let q = Query::keyword("Ford").unwrap();
    let mut scratch = ScanScratch::new();
    // Edges 0 and 1 both leave `s`.
    for (depth, want) in [(2, 0.0), (3, 0.5), (usize::MAX, 0.5)] {
        let got = q
            .kernel
            .eval_projection(&mut scratch, &blob, &[0, 1], depth)
            .unwrap();
        assert_eq!(got, want, "depth {depth}");
        assert_projection_identity(&q, &blob, &[0, 1], depth, &mut scratch);
    }
}

/// The edges whose ends both lie within `depth` edges (shortest distance)
/// of the source of some start edge: the emission runs a projection may
/// read, by definition over the decoded graph.
fn projected_edges(sfa: &Sfa, start_edges: &[u32], depth: usize) -> BTreeSet<u32> {
    let mut edges = BTreeSet::new();
    for from in start_edges
        .iter()
        .filter_map(|&eid| sfa.edge(eid))
        .map(|e| e.from)
    {
        let mut dist = std::collections::HashMap::from([(from, 0usize)]);
        let mut frontier = std::collections::VecDeque::from([from]);
        while let Some(v) = frontier.pop_front() {
            if dist[&v] < depth {
                for &eid in sfa.out_edges(v) {
                    let to = sfa.edge(eid).unwrap().to;
                    if !dist.contains_key(&to) {
                        dist.insert(to, dist[&v] + 1);
                        frontier.push_back(to);
                    }
                }
            }
        }
        edges.extend(
            sfa.edges()
                .filter(|(_, e)| dist.contains_key(&e.from) && dist.contains_key(&e.to))
                .map(|(id, _)| id),
        );
    }
    edges
}

thread_local! {
    /// One scratch for every case of the projection proptest, so state
    /// leaking from one row, kernel or entry point into the next shows.
    static SHARED_SCRATCH: std::cell::RefCell<ScanScratch> = std::cell::RefCell::default();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The probe's projection against its oracle: random graphs × random
    // and hand-picked patterns × random start-edge sets, on one scratch
    // shared by all cases and interleaved with `eval_blob`.
    #[test]
    fn kernel_projection_is_bit_identical(
        sfa in sfa_strategy(),
        pattern in pattern_strategy(),
        cut in (any::<u16>(), 1usize..4),
        pattern_kind in 0usize..4,
        picks in prop::collection::vec(any::<u32>(), 0..6),
        depth_kind in 0usize..4,
    ) {
        // A piece of the most likely string, so the patterns below match
        // somewhere in the graph more often than a random word would.
        let (map, _) = staccato::sfa::map_string(&sfa).expect("non-empty SFA");
        let at = cut.0 as usize % map.len();
        let word = &map[at..(at + cut.1).min(map.len())];
        let q = match pattern_kind {
            0 => Query::regex(&pattern),
            1 => Query::keyword(word),
            // No `max_span`: the probe runs it at unbounded depth.
            2 => Query::regex(&format!(r"{word}(\x)*\x")),
            // More than 64 DFA states (the bitset prescreen is off).
            _ => Query::regex(&format!(r"({word}|[a-m]\x\x\x\x\x\x[n-z0-9])")),
        }
        .unwrap();
        if pattern_kind == 2 {
            assert_eq!(q.max_span(), None);
        }
        if pattern_kind == 3 {
            assert!(q.dfa.state_count() > 64);
        }
        let depth = match depth_kind {
            0 => 0,
            1 => 1,
            2 => q.max_span().unwrap_or(usize::MAX).saturating_add(1),
            _ => usize::MAX,
        };
        SHARED_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let graphs = [
                sfa.clone(),
                approximate(&sfa, StaccatoParams::new(3, 2)),
                approximate(&sfa, StaccatoParams::new(8, 4)),
            ];
            for graph in &graphs {
                let blob = codec::encode(graph);
                let stored = codec::decode(&blob).unwrap();
                let edge_count = stored.edge_count() as u32;
                // Random picks, two of every `edge_count + 2` out of
                // range (stale postings); then a duplicate, every edge
                // leaving the first pick's source node, and the edge into
                // the finish node.
                let mut start_edges: Vec<u32> =
                    picks.iter().map(|p| p % (edge_count + 2)).collect();
                if let Some(first) = start_edges.first().and_then(|&eid| stored.edge(eid)) {
                    let from = first.from;
                    start_edges.push(start_edges[0]);
                    start_edges.extend(stored.out_edges(from));
                }
                start_edges.extend(
                    stored
                        .edges()
                        .filter(|(_, e)| e.to == stored.finish())
                        .map(|(id, _)| id),
                );
                assert_blob_identity(&q, &blob, scratch);
                assert_projection_identity(&q, &blob, &start_edges, depth, scratch);
                assert_projection_identity(&q, &blob, &[], depth, scratch);
                assert_blob_identity(&q, &blob, scratch);
            }
        });
    }

    // The probe decodes only the runs its projection reads. On both graph
    // strategies, with the first label id of every run outside the
    // projected edges out of range — a run the full decode would reject —
    // the shallow projection still equals the reference over the full
    // decode, bit for bit, and reports exactly the projected runs as
    // decoded.
    #[test]
    fn shallow_projection_equals_the_full_decode(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
        pattern in pattern_strategy(),
        picks in prop::collection::vec(any::<u32>(), 0..6),
        depth in 0usize..6,
    ) {
        let depth = if depth == 5 { usize::MAX } else { depth };
        let q = Query::regex(&pattern).unwrap();
        SHARED_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let graphs = [approximate(&sfa, StaccatoParams::new(3, 2)), sfa, multi];
            for graph in &graphs {
                let blob = codec::encode(graph);
                let stored = codec::decode(&blob).unwrap();
                let edge_count = stored.edge_count() as u32;
                let start_edges: Vec<u32> = picks.iter().map(|p| p % (edge_count + 1)).collect();
                let projected = projected_edges(&stored, &start_edges, depth);
                let mut arena = staccato::sfa::DecodeArena::new();
                codec::decode_into_arena(&blob, &mut arena).unwrap();
                let mut broken = blob.clone();
                for eid in (0..edge_count).filter(|eid| !projected.contains(eid)) {
                    // The run's first label id, one byte wide in these
                    // small dictionaries: 255 names no label they hold.
                    broken[arena.run_range(eid).start] = 0xFF;
                }
                let want = start_edges
                    .iter()
                    .filter_map(|&eid| stored.edge(eid))
                    .map(|e| e.from)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .map(|from| project_eval(&q.dfa, &stored, from, depth))
                    .fold(0.0f64, f64::max);
                for bytes in [&blob, &broken] {
                    let got = q
                        .kernel
                        .eval_projection(scratch, bytes, &start_edges, depth)
                        .unwrap();
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} from {:?}", q.pattern, start_edges);
                    prop_assert_eq!(scratch.projected_runs(), (projected.len() as u32, edge_count));
                }
                prop_assert!(projected.len() as u32 == edge_count || codec::decode(&broken).is_err());
            }
        });
    }

    // A blob has one encoding: encoding is deterministic, a decoded blob
    // re-encodes to the same bytes, and both dictionaries list each entry
    // once in ascending order — labels by their bytes, probabilities by
    // their bits — so an entry that sorts later lies later in the blob.
    // A clean line, a long chain of single emissions, packs its edges
    // as tightly as the format allows.
    #[test]
    fn sfa2_blobs_are_canonical_with_sorted_dictionaries(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
        line in "[a-z ]{1,200}",
    ) {
        for graph in [&sfa, &multi, &Sfa::from_string(&line)] {
            let blob = codec::encode(graph);
            prop_assert_eq!(&codec::encode(graph), &blob);
            prop_assert_eq!(&codec::encode(&codec::decode(&blob).unwrap()), &blob);
            let mut arena = staccato::sfa::DecodeArena::new();
            codec::decode_into_arena(&blob, &mut arena).unwrap();
            // Each distinct entry by where it lies in the blob.
            let mut labels: Vec<_> = arena.emissions().iter().map(|em| em.label_range()).collect();
            let mut probs: Vec<_> = arena
                .emissions()
                .iter()
                .map(|em| {
                    let bits = em.prob.to_bits();
                    (blob.windows(8).position(|w| w == bits.to_le_bytes()).unwrap(), bits)
                })
                .collect();
            labels.sort_by_key(|range| range.start);
            labels.dedup();
            probs.sort_unstable();
            probs.dedup();
            let labels: Vec<&[u8]> = labels.into_iter().map(|range| &blob[range]).collect();
            prop_assert!(labels.windows(2).all(|w| w[0] < w[1]), "{:?}", labels);
            prop_assert!(probs.windows(2).all(|w| w[0].1 < w[1].1), "{:?}", probs);
        }
    }

    // FullSFA and Staccato blobs under random regex patterns. The
    // Staccato approximations exercise multi-character chunk labels and
    // the label-transition memo; the scratch is reused across every blob
    // of a case, as a scan worker would.
    #[test]
    fn kernel_blob_eval_is_bit_identical(sfa in sfa_strategy(), pattern in pattern_strategy()) {
        let q = Query::regex(&pattern).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
        for (m, k) in [(3usize, 2usize), (8, 4)] {
            let blob = codec::encode(&approximate(&sfa, StaccatoParams::new(m, k)));
            assert_blob_identity(&q, &blob, &mut scratch);
        }
    }

    // Keyword queries carry a required literal, so this drives both
    // prescreen tiers hard: most random keywords miss most random SFAs.
    #[test]
    fn kernel_prescreen_is_sound_on_keywords(
        sfa in sfa_strategy(),
        word in "[a-z0-9]{1,4}",
    ) {
        let q = Query::keyword(&word).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
        let blob = codec::encode(&approximate(&sfa, StaccatoParams::new(4, 3)));
        assert_blob_identity(&q, &blob, &mut scratch);
    }

    // LIKE queries compile to exact-match DFAs with a different literal
    // derivation (leading `%` stripped first).
    #[test]
    fn kernel_like_eval_is_bit_identical(
        sfa in sfa_strategy(),
        word in "[a-z0-9]{1,3}",
        contains in any::<bool>(),
    ) {
        let pattern = if contains { format!("%{word}%") } else { format!("{word}%") };
        let q = Query::like(&pattern).unwrap();
        let mut scratch = ScanScratch::new();
        assert_blob_identity(&q, &codec::encode(&sfa), &mut scratch);
    }

    // MAP / k-MAP: the kernel's string evaluators must reproduce
    // `eval_strings` exactly — the whole group sum and each
    // single-string evaluation.
    #[test]
    fn kernel_string_eval_is_bit_identical(
        raw in prop::collection::vec(("[a-z ]{0,12}", 1u32..1000), 0..8),
        pattern in pattern_strategy(),
        word in "[a-z]{1,3}",
        keyword in any::<bool>(),
    ) {
        let strings: Vec<(String, f64)> = raw
            .into_iter()
            .map(|(s, millis)| (s, millis as f64 / 1000.0))
            .collect();
        let q = if keyword { Query::keyword(&word) } else { Query::regex(&pattern) }.unwrap();
        let naive = eval_strings(&q.dfa, strings.iter().map(|(s, p)| (s.as_str(), *p)));
        let group = q.kernel.eval_string_group(strings.iter().map(|(s, p)| (s.as_str(), *p)));
        assert_eq!(group.probability.to_bits(), naive.to_bits());
        if group.prescreened {
            assert_eq!(naive, 0.0);
        }
        for (s, p) in &strings {
            let single = q.kernel.eval_string(s, *p);
            let naive = eval_strings(&q.dfa, std::iter::once((s.as_str(), *p)));
            assert_eq!(
                single.probability.to_bits(),
                naive.to_bits(),
                "string {:?} under {:?}",
                s,
                q.pattern
            );
        }
    }

    // Multi-byte labels under random regexes and keywords: 1-byte labels
    // and 2-byte labels resolve through the class-sequence memo, longer
    // ones through the in-place walk, and labels of different bytes but
    // one class sequence share a vector. One scratch serves every blob
    // and both kernels, as consecutive statements on one scan would.
    #[test]
    fn kernel_multibyte_blob_eval_is_bit_identical(
        sfa in multibyte_sfa_strategy(),
        other in multibyte_sfa_strategy(),
        pattern in pattern_strategy(),
        word in "[abcxyz01]{1,4}",
    ) {
        let mut scratch = ScanScratch::new();
        for q in [Query::regex(&pattern).unwrap(), Query::keyword(&word).unwrap()] {
            for graph in [&sfa, &other, &sfa] {
                assert_blob_exact(&q, &codec::encode(graph), &mut scratch);
            }
        }
    }

    // `prescreened` against its definition on both strategies, rows of
    // different label sets alternating on one scratch. The literal comes
    // from the first graph, so it is present in one row and often absent
    // from the next; the third pattern kind has more than 64 DFA states,
    // so tier 1 alone decides its rows and a label-byte set left over
    // from the previous row shows.
    #[test]
    fn kernel_prescreen_matches_its_definition(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
        pattern in pattern_strategy(),
        cut in (any::<u16>(), 2usize..5),
        pattern_kind in 0usize..3,
    ) {
        let (map, _) = staccato::sfa::map_string(&sfa).expect("non-empty SFA");
        let at = cut.0 as usize % map.len();
        let word = &map[at..(at + cut.1).min(map.len())];
        let q = match pattern_kind {
            0 => Query::regex(&pattern),
            1 => Query::keyword(word),
            _ => Query::regex(&format!(r"{word}(\x)*[a-m]\x\x\x\x\x\x[n-z0-9]")),
        }
        .unwrap();
        if pattern_kind == 2 {
            assert!(q.dfa.state_count() > 64);
        }
        let approx = approximate(&sfa, StaccatoParams::new(4, 3));
        let mut scratch = ScanScratch::new();
        for graph in [&sfa, &multi, &approx, &multi, &sfa] {
            assert_blob_exact(&q, &codec::encode(graph), &mut scratch);
        }
    }

    // The synopsis against its definition: every byte and class bigram
    // of every string each graph emits — labels of one byte and of
    // several, pairs inside a label and across two labels at a node,
    // bubbles, zero-mass emissions — is in the blob's synopsis.
    #[test]
    fn synopsis_holds_every_byte_and_class_bigram_of_every_emitted_string(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
    ) {
        assert_synopsis_covers(&sfa);
        assert_synopsis_covers(&approximate(&sfa, StaccatoParams::new(3, 2)));
        assert_synopsis_covers(&multi);
    }

    // A tier-0 rejection stands for the row's exact result: its
    // probability is bit-identical to `eval_blob`'s and the naive DP's,
    // on every pattern kind, the > 64-state one included. Some rows of
    // every case are rejected, so the check is never vacuous.
    #[test]
    fn tier0_rejection_is_the_exact_zero_eval_blob_computes(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
        pattern in pattern_strategy(),
        word in "[abcxyz01]{2,4}",
        cut in (any::<u16>(), 2usize..5),
        kind in 0usize..5,
    ) {
        let q = tier0_query(&sfa, cut, kind, &word, &pattern);
        let mut scratch = ScanScratch::new();
        let zero = q.kernel.eval_synopsis(&[0; SYNOPSIS_LEN]);
        let literal = required_literal(&q.ast);
        prop_assert_eq!(zero.is_some(), literal.is_some());
        let approx = approximate(&sfa, StaccatoParams::new(4, 3));
        for graph in [&sfa, &multi, &approx, &multi] {
            let (rejected, out, naive) = tier0_and_eval_blob(&q, &codec::encode(graph), &mut scratch);
            if let Some(rejected) = rejected {
                prop_assert!(rejected.prescreened);
                prop_assert_eq!(rejected.probability.to_bits(), out.probability.to_bits());
                prop_assert_eq!(rejected.probability.to_bits(), naive.to_bits());
            }
        }
    }

    // Where tier 2 runs (q ≤ 64 DFA states), every row tier 0 rejects is
    // one `eval_blob` prescreens too, so moving the decision before the
    // fetch leaves `prescreen_skipped` where it was.
    #[test]
    fn tier0_rejections_are_rows_eval_blob_prescreens(
        sfa in sfa_strategy(),
        multi in multibyte_sfa_strategy(),
        pattern in pattern_strategy(),
        word in "[abcxyz01]{2,4}",
        cut in (any::<u16>(), 2usize..5),
        kind in 0usize..4,
    ) {
        let q = tier0_query(&sfa, cut, kind, &word, &pattern);
        let mut scratch = ScanScratch::new();
        let approx = approximate(&sfa, StaccatoParams::new(4, 3));
        for graph in [&sfa, &multi, &approx, &multi] {
            let (rejected, out, _) = tier0_and_eval_blob(&q, &codec::encode(graph), &mut scratch);
            let tier2_runs = q.dfa.state_count() <= 64;
            prop_assert!(!tier2_runs || rejected.is_none() || out.prescreened, "{:?}", q.pattern);
        }
    }
}
