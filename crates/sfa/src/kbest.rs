//! The k highest-probability labelled paths of an SFA (k-MAP, §3).
//!
//! The paper computes top-k strings with "an incremental variant by Yen et
//! al"; on a DAG the equivalent (and simpler) formulation is a dynamic
//! program that carries the k best partial paths per node in topological
//! order — any prefix of a globally top-k path is a top-k path to its
//! intermediate node, because extending a path multiplies its probability
//! by a factor independent of the prefix.
//!
//! Under the unique path property the k best *paths* are the k most likely
//! *strings*, which is what k-MAP stores.
//!
//! **The dominance cut.** Per in-edge, the DP extends each of the
//! predecessor's (at most k) candidates by each emission; it then
//! stable-sorts a node's extensions descending and keeps `k`. Both lists
//! are sorted descending — candidates by that sort, emissions by the
//! [`Edge`](crate::Edge) invariant — and f64 addition is monotone, so the
//! pair (candidate `slot`, emission `i`) scores no higher than the
//! `(slot+1)(i+1) − 1` other pairs `(s ≤ slot, j ≤ i)` of its in-edge.
//! The loop visits `i` outer and `slot` inner, so all of those come
//! earlier in discovery order, and in the uncut stable sort each one
//! lands ahead of the pair, ties included. A pair with
//! `(slot+1)(i+1) > k` therefore sorts at position `k` or later, and the
//! loop skips exactly those (`i < k`, `slot < k / (i + 1)`); emissions of
//! probability 0, which sort last, end it. Removing elements that sort at
//! `k` or later leaves the first `k` of a stable sort unchanged, order
//! and ties included, so by induction over the topological order every
//! node keeps the list the uncut DP keeps. Only work goes: the ≈ 25 × 91
//! pushes per in-edge of a line SFA become at most
//! `Σ ⌊k / (i + 1)⌋ = 87` for `k = 25`.
//!
//! The DP runs on a whole SFA ([`k_best_paths`]) or, in place, on the
//! sub-SFA a node set induces ([`region_k_best_paths`], or
//! [`region_k_best_mass`] when only the retained mass is wanted); each
//! hands the one loop a topological order.

use crate::model::{EdgeId, NodeId, Sfa};

/// One of the k best labelled paths.
#[derive(Debug, Clone, PartialEq)]
pub struct KBestPath {
    /// The emitted string (concatenated labels).
    pub string: String,
    /// Path probability (product of emission probabilities).
    pub prob: f64,
    /// The labelled path itself: `(edge id, emission index)` per hop.
    pub edges: Vec<(EdgeId, u32)>,
}

#[derive(Clone, Copy)]
struct Cand {
    logp: f64,
    /// Predecessor node, slot in that node's candidate list, and the
    /// transition taken. `edge == u32::MAX` marks the start sentinel.
    from: NodeId,
    slot: u32,
    edge: EdgeId,
    emission: u32,
}

/// Compute the `k` most likely labelled paths, most likely first.
/// Returns fewer than `k` if the SFA has fewer positive-probability paths.
/// Ties are broken deterministically by discovery order (the paper breaks
/// ties arbitrarily).
pub fn k_best_paths(sfa: &Sfa, k: usize) -> Vec<KBestPath> {
    let cands = k_best_dp(sfa, &sfa.topo_order(), sfa.start(), k);
    paths(sfa, &cands, sfa.finish())
}

/// [`k_best_paths`] of the sub-SFA that the sorted node set `nodes`
/// induces between `entry` and `exit`, computed on `sfa` in place.
///
/// Equal — order, `string` and `prob` bits — to [`k_best_paths`] on the
/// extracted copy (nodes in `nodes` order, induced edges in id order),
/// because [`Sfa::region_topo_order`] visits the nodes as that copy's
/// `topo_order` does and in-edges keep ascending id order; `edges` names
/// `sfa`'s edge ids. `nodes` must form a valid region: `entry` its
/// unique source, `exit` its unique sink.
pub fn region_k_best_paths(
    sfa: &Sfa,
    nodes: &[NodeId],
    entry: NodeId,
    exit: NodeId,
    k: usize,
) -> Vec<KBestPath> {
    let cands = k_best_dp(sfa, &sfa.region_topo_order(nodes, entry), entry, k);
    paths(sfa, &cands, exit)
}

/// The probabilities of [`region_k_best_paths`] summed in rank order —
/// the mass a collapse of the region keeps — without building the paths.
pub fn region_k_best_mass(
    sfa: &Sfa,
    nodes: &[NodeId],
    entry: NodeId,
    exit: NodeId,
    k: usize,
) -> f64 {
    let cands = k_best_dp(sfa, &sfa.region_topo_order(nodes, entry), entry, k);
    cands[exit as usize].iter().map(|c| c.logp.exp()).sum()
}

/// The DP over the nodes of `order` (topological, `start` first): the k
/// best partial paths per node slot, most likely first. An in-edge from a
/// node outside `order` finds no candidates there and pushes nothing, so
/// no membership test is needed.
fn k_best_dp(sfa: &Sfa, order: &[NodeId], start: NodeId, k: usize) -> Vec<Vec<Cand>> {
    let slots = sfa.num_node_slots() as usize;
    let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); slots];
    cands[start as usize].push(Cand {
        logp: 0.0,
        from: start,
        slot: 0,
        edge: u32::MAX,
        emission: 0,
    });

    let mut scratch: Vec<Cand> = Vec::new();
    for &v in order {
        if v == start {
            continue;
        }
        scratch.clear();
        for &eid in sfa.in_edges(v) {
            let edge = sfa.edge(eid).expect("live adjacency");
            debug_assert!(
                edge.emissions.is_sorted_by(|a, b| a.prob >= b.prob),
                "the dominance cut needs emissions sorted descending"
            );
            let from_cands = &cands[edge.from as usize];
            // The dominance cut (module doc): emission `i` can only rank
            // with the first `k / (i + 1)` predecessor candidates.
            for (i, em) in edge.emissions.iter().enumerate().take(k) {
                if em.prob <= 0.0 {
                    break; // sorted descending: no positive emission remains
                }
                let lp = em.prob.ln();
                for (slot, c) in from_cands.iter().enumerate().take(k / (i + 1)) {
                    scratch.push(Cand {
                        logp: c.logp + lp,
                        from: edge.from,
                        slot: slot as u32,
                        edge: eid,
                        emission: i as u32,
                    });
                }
            }
        }
        // Stable sort keeps discovery order among ties → deterministic.
        scratch.sort_by(|a, b| {
            b.logp
                .partial_cmp(&a.logp)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        scratch.truncate(k);
        cands[v as usize] = scratch.clone();
    }
    cands
}

/// Walk the backpointers of `finish`'s candidates into labelled paths.
fn paths(sfa: &Sfa, cands: &[Vec<Cand>], finish: NodeId) -> Vec<KBestPath> {
    let fin = &cands[finish as usize];
    let mut out = Vec::with_capacity(fin.len());
    for c in fin {
        // Walk backpointers.
        let mut edges_rev: Vec<(EdgeId, u32)> = Vec::new();
        let mut cur = *c;
        while cur.edge != u32::MAX {
            edges_rev.push((cur.edge, cur.emission));
            cur = cands[cur.from as usize][cur.slot as usize];
        }
        edges_rev.reverse();
        let mut string = String::new();
        for &(eid, i) in &edges_rev {
            string.push_str(&sfa.edge(eid).expect("live edge").emissions[i as usize].label);
        }
        out.push(KBestPath {
            string,
            prob: c.logp.exp(),
            edges: edges_rev,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Emission, Sfa, SfaBuilder};
    use proptest::prelude::*;

    /// The DP without the dominance cut: every (candidate × emission)
    /// pair of every in-edge is pushed, sorted and truncated. The oracle
    /// the cut is held to.
    fn k_best_paths_uncut(sfa: &Sfa, k: usize) -> Vec<KBestPath> {
        if k == 0 {
            return Vec::new();
        }
        let mut cands: Vec<Vec<Cand>> = vec![Vec::new(); sfa.num_node_slots() as usize];
        cands[sfa.start() as usize].push(Cand {
            logp: 0.0,
            from: sfa.start(),
            slot: 0,
            edge: u32::MAX,
            emission: 0,
        });
        for v in sfa.topo_order() {
            if v == sfa.start() {
                continue;
            }
            let mut scratch = Vec::new();
            for &eid in sfa.in_edges(v) {
                let edge = sfa.edge(eid).unwrap();
                for (i, em) in edge.emissions.iter().enumerate() {
                    if em.prob <= 0.0 {
                        continue;
                    }
                    for (slot, c) in cands[edge.from as usize].iter().enumerate() {
                        scratch.push(Cand {
                            logp: c.logp + em.prob.ln(),
                            from: edge.from,
                            slot: slot as u32,
                            edge: eid,
                            emission: i as u32,
                        });
                    }
                }
            }
            scratch.sort_by(|a, b| b.logp.partial_cmp(&a.logp).unwrap());
            scratch.truncate(k);
            cands[v as usize] = scratch;
        }
        paths(sfa, &cands, sfa.finish())
    }

    /// Probabilities from a small grid (zero included), so that tied
    /// partial paths are common.
    const GRID: [f64; 7] = [0.5, 0.25, 0.25, 0.125, 0.125, 0.1, 0.0];

    /// Random DAG SFAs: nodes `0..n` in topological order, each entered
    /// from an earlier node and left towards a later one, plus a few
    /// random forward edges; 1–30 grid emissions per edge.
    fn random_dag() -> impl Strategy<Value = Sfa> {
        prop::collection::vec(any::<u32>(), 8..64).prop_map(|words| {
            let mut w = words.into_iter().cycle();
            let mut pick = move |n: usize| w.next().unwrap() as usize % n;
            let n = 2 + pick(7);
            let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (pick(v), v)).collect();
            edges.extend((0..n - 1).map(|v| (v, v + 1 + pick(n - 1 - v))));
            edges.extend(
                (0..pick(4))
                    .map(|_| (pick(n), pick(n)))
                    .filter(|(x, y)| x < y),
            );
            let mut b = SfaBuilder::new();
            for _ in 0..n {
                b.add_node();
            }
            for (from, to) in edges {
                let label = |c: usize| ((b'a' + c as u8) as char).to_string();
                let ems = (0..1 + pick(30))
                    .map(|_| Emission::new(label(pick(26)), GRID[pick(GRID.len())]))
                    .collect();
                b.add_edge(from as NodeId, to as NodeId, ems);
            }
            b.build(0, n as NodeId - 1).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dominance_cut_equals_the_uncut_dp(sfa in random_dag()) {
            for k in [1, 2, 3, 5, 25, 100] {
                let (cut, uncut) = (k_best_paths(&sfa, k), k_best_paths_uncut(&sfa, k));
                prop_assert_eq!(cut.len(), uncut.len());
                for (c, u) in cut.iter().zip(&uncut) {
                    prop_assert_eq!(&c.string, &u.string);
                    prop_assert_eq!(c.prob.to_bits(), u.prob.to_bits());
                    prop_assert_eq!(&c.edges, &u.edges);
                }
            }
        }
    }

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

    /// The Figure 2 SFA: a 4-hop chain with 3 emissions per edge, used to
    /// illustrate k-MAP vs Staccato.
    fn figure2() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![
                Emission::new("a", 0.6),
                Emission::new("p", 0.2),
                Emission::new("w", 0.1),
            ],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![
                Emission::new("b", 0.5),
                Emission::new("q", 0.3),
                Emission::new("x", 0.2),
            ],
        );
        b.add_edge(
            n[2],
            n[3],
            vec![
                Emission::new("c", 0.4),
                Emission::new("r", 0.3),
                Emission::new("y", 0.1),
            ],
        );
        b.add_edge(
            n[3],
            n[4],
            vec![
                Emission::new("d", 0.7),
                Emission::new("s", 0.2),
                Emission::new("z", 0.1),
            ],
        );
        b.build(n[0], n[4]).unwrap()
    }

    #[test]
    fn figure2_top3_matches_paper() {
        // Paper Figure 2: k-MAP with k=3 keeps abcd (0.0840), abrd (0.0630),
        // aqcd (0.0504).
        let top = k_best_paths(&figure2(), 3);
        let got: Vec<(&str, f64)> = top.iter().map(|p| (p.string.as_str(), p.prob)).collect();
        assert_eq!(got[0].0, "abcd");
        assert!((got[0].1 - 0.0840).abs() < 1e-9);
        assert_eq!(got[1].0, "abrd");
        assert!((got[1].1 - 0.0630).abs() < 1e-9);
        assert_eq!(got[2].0, "aqcd");
        assert!((got[2].1 - 0.0504).abs() < 1e-9);
    }

    #[test]
    fn k1_equals_viterbi() {
        let sfa = figure1();
        let top = k_best_paths(&sfa, 1);
        let map = crate::viterbi::map_path(&sfa).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].string, map.string);
        assert!((top[0].prob - map.prob).abs() < 1e-12);
    }

    #[test]
    fn kbest_matches_exhaustive_enumeration() {
        let sfa = figure1();
        let mut all = sfa.enumerate_strings(1000);
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top = k_best_paths(&sfa, 5);
        for (i, p) in top.iter().enumerate() {
            assert!(
                (p.prob - all[i].1).abs() < 1e-9,
                "rank {i}: {} vs {}",
                p.prob,
                all[i].1
            );
        }
    }

    #[test]
    fn kbest_is_sorted_and_distinct() {
        let top = k_best_paths(&figure1(), 100);
        for w in top.windows(2) {
            assert!(w[0].prob >= w[1].prob - 1e-12);
        }
        let mut paths: Vec<_> = top.iter().map(|p| p.edges.clone()).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), top.len(), "paths must be pairwise distinct");
    }

    #[test]
    fn k_larger_than_path_count_returns_all() {
        // Figure 1 has 2*2*(1*2 + 1)*2 = 24 source-to-sink labelled paths.
        let top = k_best_paths(&figure1(), 1000);
        assert_eq!(top.len(), 24);
        let total: f64 = top.iter().map(|p| p.prob).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "all paths account for all mass, got {total}"
        );
    }

    #[test]
    fn k0_returns_empty() {
        assert!(k_best_paths(&figure1(), 0).is_empty());
    }

    #[test]
    fn strings_unique_under_unique_path_property() {
        let top = k_best_paths(&figure1(), 1000);
        let mut strings: Vec<_> = top.iter().map(|p| p.string.clone()).collect();
        strings.sort();
        strings.dedup();
        assert_eq!(strings.len(), 24);
    }
}
