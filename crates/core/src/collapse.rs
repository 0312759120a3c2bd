//! `Collapse`: replace a valid sub-SFA region with a single edge that
//! retains the region's k highest-probability strings (§3.1).
//!
//! Correctness conditions (Figure 3 of the paper, verified by tests and
//! property tests):
//!
//! * no new strings: everything the collapsed SFA emits was emitted by the
//!   original;
//! * mass-optimal pruning: the retained strings are exactly the top-k of
//!   the region (Proposition 3.1 shows this maximizes retained mass among
//!   per-chunk choices);
//! * the unique path property is preserved.

use crate::chain::{chain_edges, top_products};
use crate::findmin::Region;
use staccato_sfa::{region_k_best_paths, Emission, NodeId, Sfa, SfaBuilder};

/// Materialize the region's induced sub-SFA as a standalone automaton
/// (entry becomes the start node, exit the final node). Also returns the
/// node remapping used (old node id → new node id).
///
/// Construction scores regions in place ([`region_k_best_paths`]); this
/// copy is the oracle the tests hold the in-place scorer to.
pub fn extract_region(sfa: &Sfa, region: &Region) -> (Sfa, Vec<(NodeId, NodeId)>) {
    let mut b = SfaBuilder::new();
    let mut map: Vec<(NodeId, NodeId)> = Vec::with_capacity(region.nodes.len());
    for &n in &region.nodes {
        let new = b.add_node();
        map.push((n, new));
    }
    let lookup =
        |old: NodeId| -> Option<NodeId> { map.iter().find(|&&(o, _)| o == old).map(|&(_, n)| n) };
    for (_, e) in sfa.edges() {
        if let (Some(from), Some(to)) = (lookup(e.from), lookup(e.to)) {
            b.add_edge(from, to, e.emissions.clone());
        }
    }
    let start = lookup(region.entry).expect("entry is in the region");
    let finish = lookup(region.exit).expect("exit is in the region");
    let sub = b
        .build(start, finish)
        .expect("a valid FindMinSFA region induces a structurally valid SFA");
    (sub, map)
}

/// The top-k strings of a region, as emissions for the replacement edge.
/// Probabilities are the labelled-path products within the region — i.e.
/// the conditional probability of the string given arrival at the entry.
pub fn region_top_k(sfa: &Sfa, region: &Region, k: usize) -> Vec<Emission> {
    // Two-edge chain regions (the common case on line SFAs) have a closed
    // form that reproduces the general DP's output exactly — see
    // `crate::chain`.
    if let Some((e1, e2)) = chain_edges(sfa, region) {
        let (e1, e2) = (
            sfa.edge(e1).expect("live edge"),
            sfa.edge(e2).expect("live edge"),
        );
        return top_products(e1, e2, k)
            .into_iter()
            .map(|(lp, i, j)| {
                let mut label = String::with_capacity(
                    e1.emissions[i as usize].label.len() + e2.emissions[j as usize].label.len(),
                );
                label.push_str(&e1.emissions[i as usize].label);
                label.push_str(&e2.emissions[j as usize].label);
                Emission {
                    label,
                    prob: lp.exp(),
                }
            })
            .collect();
    }
    region_k_best_paths(sfa, &region.nodes, region.entry, region.exit, k)
        .into_iter()
        .map(|p| Emission {
            label: p.string,
            prob: p.prob,
        })
        .collect()
}

/// Collapse `region` in place: delete every induced edge and interior
/// node, then insert one entry→exit edge carrying the region's top-k
/// strings. Returns the new edge id.
///
/// # Panics
///
/// Panics if the region has no positive-probability path (it then retains
/// zero strings, which would disconnect the graph); FindMinSFA regions on
/// live SFAs always have one.
pub fn collapse(sfa: &mut Sfa, region: &Region, k: usize) -> staccato_sfa::EdgeId {
    let emissions = region_top_k(sfa, region, k);
    assert!(
        !emissions.is_empty(),
        "collapse of a region with no retained strings"
    );
    let member = |n: NodeId| region.nodes.binary_search(&n).is_ok();
    let doomed: Vec<_> = sfa
        .edges()
        .filter(|(_, e)| member(e.from) && member(e.to))
        .map(|(id, _)| id)
        .collect();
    for id in doomed {
        sfa.remove_edge(id).expect("edge was live");
    }
    for n in region.interior() {
        sfa.remove_node(n)
            .expect("interior nodes have no surviving edges");
    }
    sfa.add_edge(region.entry, region.exit, emissions)
        .expect("entry and exit stay alive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findmin::{find_min_sfa, Reach};
    use staccato_sfa::{check_structure, check_unique_paths, total_mass};

    fn figure3() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        b.add_edge(n[0], n[1], vec![Emission::new("a", 1.0)]);
        b.add_edge(n[1], n[2], vec![Emission::new("b", 0.5)]);
        b.add_edge(n[2], n[3], vec![Emission::new("c", 1.0)]);
        b.add_edge(n[3], n[5], vec![Emission::new("d", 1.0)]);
        b.add_edge(n[1], n[4], vec![Emission::new("e", 0.5)]);
        b.add_edge(n[4], n[5], vec![Emission::new("f", 1.0)]);
        b.build(n[0], n[5]).unwrap()
    }

    #[test]
    fn good_merge_emits_bc_on_new_edge() {
        // Paper Figure 3B: collapsing {1,2,3} yields edge (1,3) emitting "bc".
        let mut s = figure3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 3]);
        let eid = collapse(&mut s, &region, 10);
        let e = s.edge(eid).unwrap();
        assert_eq!((e.from, e.to), (1, 3));
        assert_eq!(e.emissions.len(), 1);
        assert_eq!(e.emissions[0].label, "bc");
        assert!((e.emissions[0].prob - 0.5).abs() < 1e-12);
        // The SFA still emits exactly aef and abcd.
        let mut strings: Vec<String> = s
            .enumerate_strings(100)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        strings.sort();
        assert_eq!(strings, vec!["abcd".to_string(), "aef".to_string()]);
        check_structure(&s).unwrap();
        check_unique_paths(&s).unwrap();
    }

    #[test]
    fn bad_merge_region_collapse_keeps_language() {
        // Paper Figure 3D: seed {1,2,4} grows to {1..5}; collapsing it must
        // not create strings like "abf".
        let mut s = figure3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 4]);
        collapse(&mut s, &region, 10);
        let mut strings: Vec<String> = s
            .enumerate_strings(100)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        strings.sort();
        assert_eq!(strings, vec!["abcd".to_string(), "aef".to_string()]);
        // The whole tail collapsed into a single edge (0→1 plus 1→5).
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn top_k_truncation_keeps_highest_mass() {
        // Collapse Figure 3's {1..5} with k=1: only "ef" or "bcd" survives —
        // they tie at 0.5, so the retained one must carry 0.5 mass.
        let mut s = figure3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 4]);
        collapse(&mut s, &region, 1);
        assert!((total_mass(&s) - 0.5).abs() < 1e-12);
        assert_eq!(s.enumerate_strings(10).len(), 1);
    }

    #[test]
    fn collapse_never_increases_mass() {
        let mut s = figure3();
        let before = total_mass(&s);
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 3]);
        collapse(&mut s, &region, 10);
        let after = total_mass(&s);
        assert!(after <= before + 1e-12);
    }

    #[test]
    fn collapse_merges_parallel_edges() {
        // Two parallel edges u→v merge into one edge with both labels.
        let mut b = SfaBuilder::new();
        let u = b.add_node();
        let v = b.add_node();
        let w = b.add_node();
        b.add_edge(u, v, vec![Emission::new("a", 0.6)]);
        b.add_edge(u, v, vec![Emission::new("b", 0.4)]);
        b.add_edge(v, w, vec![Emission::new("c", 1.0)]);
        let mut s = b.build(u, w).unwrap();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[u, v]);
        let eid = collapse(&mut s, &region, 10);
        let e = s.edge(eid).unwrap();
        assert_eq!(e.emissions.len(), 2);
        assert_eq!(e.emissions[0].label, "a");
        assert_eq!(e.emissions[1].label, "b");
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn extract_region_is_standalone_valid() {
        let s = figure3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 4]);
        let (sub, map) = extract_region(&s, &region);
        check_structure(&sub).unwrap();
        assert_eq!(map.len(), region.nodes.len());
        let mut strings: Vec<String> = sub
            .enumerate_strings(100)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        strings.sort();
        assert_eq!(strings, vec!["bcd".to_string(), "ef".to_string()]);
    }

    #[test]
    fn region_top_k_is_sorted_by_mass() {
        let s = figure3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[1, 2, 4]);
        let top = region_top_k(&s, &region, 10);
        assert_eq!(top.len(), 2);
        assert!(top[0].prob >= top[1].prob);
        let sum: f64 = top.iter().map(|e| e.prob).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
