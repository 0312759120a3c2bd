//! Algorithm 2: the greedy chunk-merging heuristic.
//!
//! Repeat until at most `m` edges remain: for every adjacent edge pair
//! `(x,y), (y,z)`, grow `{x,y,z}` with `FindMinSFA`, score the collapse by
//! the probability mass it would retain, and apply the best one.
//!
//! Two optimizations from the paper are implemented:
//!
//! * **incremental scoring** — the retained-mass change of collapsing a
//!   region factors as `forward[entry] · (region mass − top-k mass) ·
//!   backward[exit]`, so candidates are scored without materializing the
//!   collapsed graph ("a faster incremental variant is actually used in
//!   Staccato", §3.1);
//! * **candidate caching** — regions and their local mass loss are cached
//!   across iterations and only invalidated when they overlap the applied
//!   collapse ("a simple optimization … is to cache those candidates we
//!   have considered in previous iterations", §3.1).
//!
//! Regions are scored in place on the working SFA
//! ([`staccato_sfa::region_k_best_mass`] and the region form of the
//! forward-mass DP), with the same arithmetic in the same order as on an
//! extracted copy, so the output is the copy-based output bit for bit.
//!
//! **Where the time goes** (200 CongressActs lines, `(m, k) = (40, 25)`,
//! a 2-core Xeon, timers around each step; ≈ 460 µs per line): ≈ 23
//! iterations per line; fresh candidates ≈ 260 µs — 132 two-edge chains
//! in closed form (≈ 130 µs), 5 chains with a bypass edge (≈ 10 µs) and
//! 23 general regions (≈ 115 µs, a fifth of it `FindMinSFA`); the
//! truncated copy of the input ≈ 65 µs (cloning ≈ 1 600 labels);
//! `collapse` ≈ 65 µs, mostly building the 25 new labels; the rescan's
//! cache probes ≈ 30 µs; topological order and both mass DPs ≈ 25 µs;
//! cache `retain` ≈ 20 µs; compaction ≈ 7 µs.

use crate::chain::{chain_local_loss, has_bypass};
use crate::collapse::collapse;
use crate::findmin::{find_min_sfa, Reach, Region};
use staccato_sfa::{region_k_best_mass, NodeId, Sfa};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The two knobs of the approximation (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaccatoParams {
    /// Maximum number of edges (chunks) retained. `m = 1` collapses the
    /// whole line into one chunk (equivalent to k-MAP); `m ≥ |E|` keeps
    /// every transition as its own chunk (the full SFA, pruned to k
    /// strings per edge).
    pub m: usize,
    /// Number of strings retained per chunk.
    pub k: usize,
}

impl StaccatoParams {
    /// Convenience constructor.
    pub fn new(m: usize, k: usize) -> Self {
        assert!(m >= 1, "m (number of chunks) must be at least 1");
        assert!(k >= 1, "k (paths per chunk) must be at least 1");
        StaccatoParams { m, k }
    }
}

#[derive(Clone)]
struct Cached {
    region: Region,
    /// `region mass − retained top-k mass` — independent of the rest of
    /// the graph, so it survives collapses elsewhere.
    local_loss: f64,
}

/// Multiply–xor hasher for the `(x, y, z)` candidate keys. The greedy
/// scan performs thousands of cache probes per line, where SipHash's
/// per-lookup setup dominates; node-id triples need no DoS resistance.
#[derive(Default)]
struct TripleHasher(u64);

impl Hasher for TripleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type CandidateCache = HashMap<(NodeId, NodeId, NodeId), Cached, BuildHasherDefault<TripleHasher>>;

/// [`staccato_sfa::forward_mass`] from `source` along `topo`, with the
/// per-edge masses precomputed and the output buffer reused across
/// iterations — the greedy loop recomputes the DP after every collapse,
/// and on line SFAs the allocations and repeated `Edge::mass()` sums
/// dominate the DP itself. Arithmetic is identical (same traversal, same
/// summation order), so results match the public function bit for bit:
/// on the whole SFA (`topo_order`, `start`), or on a region
/// (`region_topo_order`, entry), whose extracted copy it matches at the
/// exit — out-edges that leave the region only write nodes `topo` never
/// reads.
fn forward_mass_into(
    sfa: &Sfa,
    topo: &[NodeId],
    source: NodeId,
    edge_mass: &[f64],
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(sfa.num_node_slots() as usize, 0.0);
    out[source as usize] = 1.0;
    for &v in topo {
        let mv = out[v as usize];
        if mv == 0.0 {
            continue;
        }
        for &eid in sfa.out_edges(v) {
            let to = sfa.edge(eid).expect("live adjacency").to;
            out[to as usize] += mv * edge_mass[eid as usize];
        }
    }
}

/// [`staccato_sfa::backward_mass`] under the same precomputation; see
/// [`forward_mass_into`].
fn backward_mass_into(sfa: &Sfa, topo: &[NodeId], edge_mass: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.resize(sfa.num_node_slots() as usize, 0.0);
    out[sfa.finish() as usize] = 1.0;
    for &v in topo.iter().rev() {
        if v == sfa.finish() {
            continue;
        }
        let mut mv = 0.0;
        for &eid in sfa.out_edges(v) {
            let edge = sfa.edge(eid).expect("live adjacency");
            mv += edge_mass[eid as usize] * out[edge.to as usize];
        }
        out[v as usize] = mv;
    }
}

/// A region's local mass loss for a given k, scored on `sfa` in place:
/// bit-identical to `total_mass − Σ k-best` on its extracted copy.
fn local_loss(sfa: &Sfa, region: &Region, k: usize, edge_mass: &[f64]) -> f64 {
    let mut mass = Vec::new();
    let order = sfa.region_topo_order(&region.nodes, region.entry);
    forward_mass_into(sfa, &order, region.entry, edge_mass, &mut mass);
    let retained = region_k_best_mass(sfa, &region.nodes, region.entry, region.exit, k);
    (mass[region.exit as usize] - retained).max(0.0)
}

/// Build the Staccato approximation of `original` with parameters
/// `(m, k)`: prune each edge to its top-k emissions, then greedily merge
/// chunks until at most `m` edges remain. The result is compacted
/// (densely numbered) and structurally valid; it intentionally retains
/// less than unit probability mass.
pub fn approximate(original: &Sfa, params: StaccatoParams) -> Sfa {
    let StaccatoParams { m, k } = params;
    assert!(m >= 1 && k >= 1, "StaccatoParams must be at least (1, 1)");
    // Step 0: restrict every edge to at most k strings, keeping the
    // highest-probability ones (emissions are maintained sorted).
    let mut sfa = original.truncated(k);

    let mut cache: CandidateCache = CandidateCache::default();

    // Per-edge masses, indexed by edge slot. Edges never change emissions
    // once created (collapse only removes edges and inserts new ones), so
    // each mass is summed exactly once.
    let mut edge_mass: Vec<f64> = vec![0.0; sfa.num_edge_slots() as usize];
    for (id, e) in sfa.edges() {
        edge_mass[id as usize] = e.mass();
    }
    let (mut fwd, mut bwd): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());

    while sfa.edge_count() > m {
        // The reachability oracle is only consulted by FindMinSFA's repair
        // loop; chain-triple candidates (the overwhelming majority on line
        // SFAs) validate immediately, so build it lazily.
        let mut reach: Option<Reach> = None;
        let topo = sfa.topo_order();
        forward_mass_into(&sfa, &topo, sfa.start(), &edge_mass, &mut fwd);
        backward_mass_into(&sfa, &topo, &edge_mass, &mut bwd);

        let mut best: Option<(f64, (NodeId, NodeId, NodeId))> = None;
        let nodes: Vec<NodeId> = sfa.nodes().collect();
        for &y in &nodes {
            for &ein in sfa.in_edges(y) {
                let x = sfa.edge(ein).expect("live").from;
                for &eout in sfa.out_edges(y) {
                    let z = sfa.edge(eout).expect("live").to;
                    let key = (x, y, z);
                    let cached = match cache.entry(key) {
                        std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            // When y's only edges are the pair under
                            // consideration, {x, y, z} is already a valid
                            // region (unique entry/exit, no external edge on
                            // the interior) and FindMinSFA would return it
                            // unchanged — skip straight to it, and score it
                            // with the closed-form chain loss unless an
                            // x → z bypass edge makes the region three-edged.
                            let chain = sfa.in_edges(y).len() == 1 && sfa.out_edges(y).len() == 1;
                            let fresh = if chain {
                                let mut nodes3 = vec![x, y, z];
                                nodes3.sort_unstable();
                                let region = Region {
                                    nodes: nodes3,
                                    entry: x,
                                    exit: z,
                                };
                                let loss = if has_bypass(&sfa, x, z) {
                                    local_loss(&sfa, &region, k, &edge_mass)
                                } else {
                                    chain_local_loss(
                                        sfa.edge(ein).expect("live"),
                                        sfa.edge(eout).expect("live"),
                                        k,
                                    )
                                };
                                Cached {
                                    region,
                                    local_loss: loss,
                                }
                            } else {
                                let reach = reach.get_or_insert_with(|| Reach::new(&sfa));
                                let region = find_min_sfa(&sfa, reach, &[x, y, z]);
                                let loss = local_loss(&sfa, &region, k, &edge_mass);
                                Cached {
                                    region,
                                    local_loss: loss,
                                }
                            };
                            slot.insert(fresh)
                        }
                    };
                    let loss = fwd[cached.region.entry as usize]
                        * cached.local_loss
                        * bwd[cached.region.exit as usize];
                    if best.as_ref().is_none_or(|(b, _)| loss < *b) {
                        best = Some((loss, key));
                    }
                }
            }
        }

        let Some((_, best_key)) = best else {
            // No adjacent edge pair exists (the graph is a single edge or a
            // bundle of parallel edges between start and finish with no
            // interior node) — nothing further can be merged.
            break;
        };
        // The winning candidate overlaps its own region, so the retain
        // below would evict it anyway — take ownership instead of cloning.
        let region = cache
            .remove(&best_key)
            .expect("best candidate is cached")
            .region;

        let new_edge = collapse(&mut sfa, &region, k);
        if edge_mass.len() <= new_edge as usize {
            edge_mass.resize(new_edge as usize + 1, 0.0);
        }
        edge_mass[new_edge as usize] = sfa.edge(new_edge).expect("just inserted").mass();

        // Invalidate cached candidates overlapping the collapsed region
        // (their seed nodes may be gone or their sub-SFA changed).
        let touched = |n: NodeId| region.nodes.binary_search(&n).is_ok();
        cache.retain(|&(x, y, z), c| {
            !(touched(x) || touched(y) || touched(z) || c.region.nodes.iter().any(|&n| touched(n)))
        });
    }

    sfa.into_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::{extract_region, region_top_k};
    use proptest::prelude::*;
    use staccato_sfa::{
        check_structure, check_unique_paths, k_best_paths, region_k_best_paths, total_mass, EdgeId,
        Emission, SfaBuilder,
    };

    /// Figure 2's chain SFA: 4 edges, 3 emissions each.
    fn figure2() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node()).collect();
        let rows: [&[(&str, f64)]; 4] = [
            &[("a", 0.6), ("p", 0.2), ("w", 0.1), ("!", 0.1)],
            &[("b", 0.5), ("q", 0.3), ("x", 0.2)],
            &[("c", 0.4), ("r", 0.3), ("y", 0.1), ("@", 0.2)],
            &[("d", 0.7), ("s", 0.2), ("z", 0.1)],
        ];
        for (i, row) in rows.iter().enumerate() {
            b.add_edge(
                n[i],
                n[i + 1],
                row.iter().map(|&(l, p)| Emission::new(l, p)).collect(),
            );
        }
        b.build(n[0], n[4]).unwrap()
    }

    /// Probabilities from a small grid (zero included), so that tied
    /// partial paths are common.
    const GRID: [f64; 7] = [0.5, 0.25, 0.25, 0.125, 0.125, 0.1, 0.0];

    /// Random DAG SFAs (nodes `0..n` in topological order, each entered
    /// from an earlier node and left towards a later one, plus a few
    /// random forward edges; 1–30 grid emissions per edge), then one
    /// collapse of a random region when `words[0]` is odd, so that the
    /// graph carries tombstones and a fresh edge as Algorithm 2's does.
    fn random_dag() -> impl Strategy<Value = Sfa> {
        prop::collection::vec(any::<u32>(), 8..64).prop_map(|words| {
            let mut w = words.into_iter().cycle();
            let mut pick = move |n: usize| w.next().unwrap() as usize % n;
            let collapse_first = pick(2) == 1;
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
            let mut sfa = b.build(0, n as NodeId - 1).unwrap();
            if collapse_first {
                let region = find_min_sfa(&sfa, &Reach::new(&sfa), &seed_pair(&sfa, &mut pick));
                if !region_top_k(&sfa, &region, 25).is_empty() {
                    collapse(&mut sfa, &region, 25);
                }
            }
            sfa
        })
    }

    /// Two distinct live nodes.
    fn seed_pair(sfa: &Sfa, pick: &mut impl FnMut(usize) -> usize) -> [NodeId; 2] {
        let live: Vec<NodeId> = sfa.nodes().collect();
        let x = pick(live.len());
        let y = (x + 1 + pick(live.len() - 1)) % live.len();
        [live[x], live[y]]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn in_place_region_scoring_equals_the_extracted_copy(
            sfa in random_dag(),
            words in prop::collection::vec(any::<u32>(), 2..3),
        ) {
            let mut w = words.into_iter().cycle();
            let region = find_min_sfa(
                &sfa,
                &Reach::new(&sfa),
                &seed_pair(&sfa, &mut |n| w.next().unwrap() as usize % n),
            );
            let (sub, map) = extract_region(&sfa, &region);
            // The copy adds the induced edges in id order.
            let inside = |n: NodeId| map.iter().any(|&(old, _)| old == n);
            let induced: Vec<EdgeId> = sfa
                .edges()
                .filter(|(_, e)| inside(e.from) && inside(e.to))
                .map(|(id, _)| id)
                .collect();
            let mut edge_mass = vec![0.0; sfa.num_edge_slots() as usize];
            for (id, e) in sfa.edges() {
                edge_mass[id as usize] = e.mass();
            }
            for k in [1, 2, 3, 5, 25, 100] {
                let copy = k_best_paths(&sub, k);
                let in_place = region_k_best_paths(&sfa, &region.nodes, region.entry, region.exit, k);
                let top = region_top_k(&sfa, &region, k);
                prop_assert_eq!(in_place.len(), copy.len());
                prop_assert_eq!(top.len(), copy.len());
                for ((p, c), t) in in_place.iter().zip(&copy).zip(&top) {
                    prop_assert_eq!(&p.string, &c.string);
                    prop_assert_eq!(p.prob.to_bits(), c.prob.to_bits());
                    let renamed: Vec<_> = c.edges.iter().map(|&(e, i)| (induced[e as usize], i)).collect();
                    prop_assert_eq!(&p.edges, &renamed);
                    prop_assert_eq!(&t.label, &c.string);
                    prop_assert_eq!(t.prob.to_bits(), c.prob.to_bits());
                }
                let retained: f64 = copy.iter().map(|p| p.prob).sum();
                let expect = (total_mass(&sub) - retained).max(0.0);
                prop_assert_eq!(local_loss(&sfa, &region, k, &edge_mass).to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn m_at_least_edge_count_only_prunes_k() {
        // Paper §5.2: "When m ≥ |E|, the algorithm picks each transition as
        // a block, and terminates."
        let s = figure2();
        let approx = approximate(&s, StaccatoParams::new(10, 3));
        assert_eq!(approx.edge_count(), 4);
        for (_, e) in approx.edges() {
            assert!(e.emissions.len() <= 3);
        }
        // Figure 2 math: with k=3 per edge and m=Max=4, the retained mass
        // per edge is the top-3 sum.
        check_structure(&approx).unwrap();
    }

    #[test]
    fn figure2_m2_k3_matches_paper_split() {
        // Paper Figure 2 (right): m=2, k=3 splits the chain into two chunks
        // of two edges; the left chunk keeps ab(0.30), aq(0.18), ax(0.12).
        let s = figure2();
        let approx = approximate(&s, StaccatoParams::new(2, 3));
        assert_eq!(approx.edge_count(), 2);
        // 3 strings per chunk → up to 9 emitted strings.
        let strings = approx.enumerate_strings(100);
        assert_eq!(strings.len(), 9);
        check_structure(&approx).unwrap();
        check_unique_paths(&approx).unwrap();
    }

    #[test]
    fn m1_equals_kmap() {
        // With one chunk the approximation must retain exactly the k-MAP
        // strings of the original.
        let s = figure2();
        let k = 5;
        let approx = approximate(&s, StaccatoParams::new(1, k));
        assert_eq!(approx.edge_count(), 1);
        let mut got: Vec<(String, f64)> = approx.enumerate_strings(100);
        got.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let expect = k_best_paths(&s, k);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.0, e.string);
            assert!((g.1 - e.prob).abs() < 1e-12);
        }
    }

    #[test]
    fn no_new_strings_ever() {
        let s = figure2();
        let original: std::collections::HashSet<String> = s
            .enumerate_strings(10_000)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        for (m, k) in [(1, 2), (2, 2), (3, 1), (2, 100), (4, 3)] {
            let approx = approximate(&s, StaccatoParams::new(m, k));
            for (t, _) in approx.enumerate_strings(10_000) {
                assert!(original.contains(&t), "({m},{k}) invented string {t:?}");
            }
        }
    }

    #[test]
    fn retained_mass_grows_with_k_and_m() {
        let s = figure2();
        let mass = |m, k| total_mass(&approximate(&s, StaccatoParams::new(m, k)));
        // More strings per chunk can only help.
        assert!(mass(2, 3) >= mass(2, 1) - 1e-12);
        assert!(mass(2, 100) >= mass(2, 3) - 1e-12);
        // With k saturated, more chunks retain more (km strings).
        assert!(mass(4, 3) >= mass(1, 3) - 1e-12);
        // Full parameters retain everything.
        assert!((mass(4, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branching_sfa_approximation_is_valid() {
        // Figure 1-style branch: approximation must stay structurally valid
        // and unique-path across parameter settings.
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
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
        let s = b.build(n[0], n[5]).unwrap();
        for (m, k) in [(1, 4), (2, 4), (3, 2), (4, 2), (6, 3)] {
            let approx = approximate(&s, StaccatoParams::new(m, k));
            assert!(approx.edge_count() <= m.max(1), "({m},{k})");
            check_structure(&approx).unwrap();
            check_unique_paths(&approx).unwrap();
            assert!(total_mass(&approx) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn greedy_prefers_low_loss_merges() {
        // A chain where one edge pair is deterministic (no loss to merge)
        // and another is high-entropy: with k=1 and m=3, the greedy step
        // must merge in the deterministic region first.
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node()).collect();
        b.add_edge(n[0], n[1], vec![Emission::new("a", 1.0)]);
        b.add_edge(n[1], n[2], vec![Emission::new("b", 1.0)]);
        b.add_edge(
            n[2],
            n[3],
            vec![Emission::new("c", 0.5), Emission::new("r", 0.5)],
        );
        b.add_edge(
            n[3],
            n[4],
            vec![Emission::new("d", 0.5), Emission::new("s", 0.5)],
        );
        let s = b.build(n[0], n[4]).unwrap();
        let approx = approximate(&s, StaccatoParams::new(3, 1));
        // Merging (0,1)+(1,2) loses nothing; the result keeps mass 0.25
        // (the two coin-flip edges pruned to 1 string each).
        assert!((total_mass(&approx) - 0.25).abs() < 1e-12);
        assert_eq!(approx.edge_count(), 3);
        let strings = approx.enumerate_strings(10);
        assert_eq!(strings.len(), 1);
        assert_eq!(strings[0].0, "abcd");
    }

    #[test]
    fn single_edge_sfa_is_a_fixed_point() {
        let mut b = SfaBuilder::new();
        let u = b.add_node();
        let v = b.add_node();
        b.add_edge(u, v, vec![Emission::new("x", 0.7), Emission::new("y", 0.3)]);
        let s = b.build(u, v).unwrap();
        let approx = approximate(&s, StaccatoParams::new(1, 1));
        assert_eq!(approx.edge_count(), 1);
        assert_eq!(approx.enumerate_strings(10), vec![("x".to_string(), 0.7)]);
    }

    #[test]
    #[should_panic(expected = "m (number of chunks) must be at least 1")]
    fn zero_m_panics() {
        StaccatoParams::new(0, 1);
    }
}
