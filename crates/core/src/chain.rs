//! Fast path for chain regions: `entry → mid → exit` with exactly two
//! induced edges.
//!
//! On OCR line SFAs almost every candidate region the greedy heuristic
//! scores has this shape (the channel emits a chain per character), so
//! `approximate` spends most of its time materializing two-edge sub-SFAs
//! and running the general k-best DP over them. For a two-edge chain both
//! collapse to closed forms:
//!
//! * region mass factors as `mass(e1) · mass(e2)`;
//! * the k best paths are the k largest pairwise products
//!   `p_i · q_j`, directly enumerable from the (sorted) emission lists.
//!
//! The helpers here replicate [`k_best_paths`]'s arithmetic **exactly** —
//! same log-space accumulation (`ln p + ln q`, exponentiated at the end),
//! same stable sort with the same comparator, same discovery order for
//! ties, and the same dominance cut: a pair `(i, j)` with
//! `(i+1)(j+1) > k` is never pushed, and the `kbest` module doc shows
//! that the kept pairs' stable sort has the same first `k`, ties
//! included. Swapping them in therefore changes no observable output,
//! only the constant factor. Regions with a bypass edge (`entry → exit`
//! parallel to the chain) or parallel edges do not qualify and take the
//! general path.
//!
//! [`k_best_paths`]: staccato_sfa::k_best_paths

use crate::findmin::Region;
use staccato_sfa::{Edge, EdgeId, Sfa};

/// If `region` is exactly a two-edge chain — three nodes, the interior
/// node having a single in-edge from `entry` and a single out-edge to
/// `exit`, and no direct `entry → exit` edge — return `(in_edge,
/// out_edge)`. Any other shape returns `None`.
pub(crate) fn chain_edges(sfa: &Sfa, region: &Region) -> Option<(EdgeId, EdgeId)> {
    if region.nodes.len() != 3 {
        return None;
    }
    let mid = region.interior().next()?;
    let (ein, eout) = (sfa.in_edges(mid), sfa.out_edges(mid));
    let (&[e1], &[e2]) = (ein, eout) else {
        return None;
    };
    if sfa.edge(e1)?.from != region.entry || sfa.edge(e2)?.to != region.exit {
        return None;
    }
    if has_bypass(sfa, region.entry, region.exit) {
        return None;
    }
    Some((e1, e2))
}

/// Is there a direct `entry → exit` edge (which would be a third induced
/// edge of the region, invalidating the two-edge factorization)?
pub(crate) fn has_bypass(
    sfa: &Sfa,
    entry: staccato_sfa::NodeId,
    exit: staccato_sfa::NodeId,
) -> bool {
    sfa.out_edges(entry)
        .iter()
        .any(|&e| sfa.edge(e).expect("live adjacency").to == exit)
}

/// The k best labelled paths of the chain `e1 · e2`, as
/// `(log-prob, e1 emission index, e2 emission index)`, most likely first.
///
/// Bit-for-bit equivalent to running [`staccato_sfa::k_best_paths`] on
/// the extracted two-edge sub-SFA: the DP there seeds the interior node
/// with the first `min(k, positive)` emissions of `e1` (emissions are
/// kept sorted by decreasing probability, so the stable sort is a no-op),
/// then scores `ln p_i + ln q_j` per pair in `(j, i)` discovery order —
/// `j < k` and `i < k / (j + 1)`, its dominance cut — stable-sorts
/// descending and truncates to `k`.
pub(crate) fn top_products(e1: &Edge, e2: &Edge, k: usize) -> Vec<(f64, u32, u32)> {
    debug_assert!(sorted(e1) && sorted(e2), "the cut needs sorted emissions");
    let mid: Vec<(u32, f64)> = e1
        .emissions
        .iter()
        .enumerate()
        .filter(|(_, em)| em.prob > 0.0)
        .take(k)
        .map(|(i, em)| (i as u32, em.prob.ln()))
        .collect();
    let mut scratch: Vec<(f64, u32, u32)> = Vec::with_capacity(3 * k);
    for (j, em) in e2.emissions.iter().enumerate().take(k) {
        if em.prob <= 0.0 {
            break; // sorted descending: no positive emission remains
        }
        let lq = em.prob.ln();
        for &(i, lp) in mid.iter().take(k / (j + 1)) {
            scratch.push((lp + lq, i, j as u32));
        }
    }
    scratch.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scratch.truncate(k);
    scratch
}

/// `region mass − retained top-k mass` for the chain `e1 · e2`, matching
/// `greedy::local_loss` on the extracted sub-SFA: the forward DP's total
/// mass is `mass(e1) · mass(e2)` and the retained mass sums the top-k
/// path probabilities in descending order.
///
/// Only the probability *values* matter for the loss, so the enumeration
/// prunes pairs that cannot rank in the top k: with both emission lists
/// sorted descending, pair `(i, j)` is dominated by the `(i+1)·(j+1)`
/// pairs at or above it (f64 addition is monotone), so pairs with
/// `(i+1)·(j+1) > k` never contribute — the top-k value multiset lives
/// entirely inside the hyperbola, shrinking the candidate set from `k²`
/// to `O(k log k)`.
pub(crate) fn chain_local_loss(e1: &Edge, e2: &Edge, k: usize) -> f64 {
    debug_assert!(sorted(e1) && sorted(e2), "the cut needs sorted emissions");
    let sub_mass = e1.mass() * e2.mass();
    let mut vals: Vec<f64> = Vec::with_capacity(3 * k);
    for (i, em1) in e1.emissions.iter().enumerate().take(k) {
        if em1.prob <= 0.0 {
            break; // sorted descending: no positive emissions remain
        }
        let lp = em1.prob.ln();
        for em2 in e2.emissions.iter().take(k / (i + 1)) {
            if em2.prob <= 0.0 {
                break;
            }
            vals.push(lp + em2.prob.ln());
        }
    }
    // Only the top-k values and their descending order matter (tied
    // values are equal, so their relative order cannot change the sum).
    let desc = |a: &f64, b: &f64| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal);
    if vals.len() > k {
        vals.select_nth_unstable_by(k - 1, desc);
        vals.truncate(k);
    }
    vals.sort_unstable_by(desc);
    let retained: f64 = vals.iter().map(|lp| lp.exp()).sum();
    (sub_mass - retained).max(0.0)
}

/// Are `e`'s emissions sorted descending, as every cut here assumes?
fn sorted(e: &Edge) -> bool {
    e.emissions.is_sorted_by(|a, b| a.prob >= b.prob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::extract_region;
    use crate::findmin::{find_min_sfa, Reach};
    use proptest::prelude::*;
    use staccato_sfa::{k_best_paths, total_mass, Emission, NodeId, SfaBuilder};

    fn chain3() -> Sfa {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        b.add_edge(
            n[0],
            n[1],
            vec![
                Emission::new("a", 0.5),
                Emission::new("b", 0.3),
                Emission::new("c", 0.2),
            ],
        );
        b.add_edge(
            n[1],
            n[2],
            vec![
                Emission::new("x", 0.6),
                Emission::new("y", 0.25),
                Emission::new("z", 0.15),
            ],
        );
        b.add_edge(n[2], n[3], vec![Emission::new("!", 1.0)]);
        b.build(n[0], n[3]).unwrap()
    }

    #[test]
    fn chain_loss_matches_general_path_bit_for_bit() {
        let s = chain3();
        let reach = Reach::new(&s);
        for k in 1..=9 {
            let region = find_min_sfa(&s, &reach, &[0, 1, 2]);
            let (e1, e2) = chain_edges(&s, &region).expect("two-edge chain");
            let fast = chain_local_loss(s.edge(e1).unwrap(), s.edge(e2).unwrap(), k);
            let (sub, _) = extract_region(&s, &region);
            let retained: f64 = k_best_paths(&sub, k).iter().map(|p| p.prob).sum();
            let general = (total_mass(&sub) - retained).max(0.0);
            assert_eq!(fast.to_bits(), general.to_bits(), "k={k}");
        }
    }

    #[test]
    fn top_products_match_kbest_strings_and_probs() {
        let s = chain3();
        let reach = Reach::new(&s);
        let region = find_min_sfa(&s, &reach, &[0, 1, 2]);
        let (e1, e2) = chain_edges(&s, &region).unwrap();
        let (sub, _) = extract_region(&s, &region);
        for k in [1, 3, 5, 9, 20] {
            let fast = top_products(s.edge(e1).unwrap(), s.edge(e2).unwrap(), k);
            let general = k_best_paths(&sub, k);
            assert_eq!(fast.len(), general.len(), "k={k}");
            for (f, g) in fast.iter().zip(&general) {
                let (lp, i, j) = *f;
                let label = format!(
                    "{}{}",
                    s.edge(e1).unwrap().emissions[i as usize].label,
                    s.edge(e2).unwrap().emissions[j as usize].label
                );
                assert_eq!(label, g.string);
                assert_eq!(lp.exp().to_bits(), g.prob.to_bits());
            }
        }
    }

    /// Random two-edge chains: 1–30 emissions per edge, probabilities from
    /// a small grid (zero included) so that tied products are common.
    fn random_chain() -> impl Strategy<Value = Sfa> {
        let grid = [0.5, 0.25, 0.125, 0.1, 0.0];
        let edge = || prop::collection::vec((0u8..26, prop::sample::select(grid)), 1..31);
        (edge(), edge()).prop_map(|(e1, e2)| {
            let mut b = SfaBuilder::new();
            let n: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
            for (i, ems) in [e1, e2].into_iter().enumerate() {
                let ems = ems
                    .into_iter()
                    .map(|(c, p)| Emission::new(((b'a' + c) as char).to_string(), p))
                    .collect();
                b.add_edge(n[i], n[i + 1], ems);
            }
            b.build(n[0], n[2]).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn top_products_and_chain_loss_equal_kbest_on_random_chains(s in random_chain()) {
            let region = Region { nodes: vec![0, 1, 2], entry: 0, exit: 2 };
            let (e1, e2) = chain_edges(&s, &region).expect("two-edge chain");
            let (e1, e2) = (s.edge(e1).unwrap(), s.edge(e2).unwrap());
            let (sub, _) = extract_region(&s, &region);
            for k in [1, 2, 3, 5, 25, 100] {
                let general = k_best_paths(&sub, k);
                let fast = top_products(e1, e2, k);
                prop_assert_eq!(fast.len(), general.len());
                for (&(lp, i, j), g) in fast.iter().zip(&general) {
                    prop_assert_eq!(&g.edges, &vec![(0, i), (1, j)]);
                    prop_assert_eq!(lp.exp().to_bits(), g.prob.to_bits());
                }
                let retained: f64 = general.iter().map(|p| p.prob).sum();
                let loss = (total_mass(&sub) - retained).max(0.0);
                prop_assert_eq!(chain_local_loss(e1, e2, k).to_bits(), loss.to_bits());
            }
        }
    }

    #[test]
    fn bypass_edge_disqualifies_the_region() {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
        b.add_edge(n[0], n[1], vec![Emission::new("a", 0.5)]);
        b.add_edge(n[1], n[2], vec![Emission::new("b", 0.5)]);
        b.add_edge(n[0], n[2], vec![Emission::new("c", 0.5)]);
        let s = b.build(n[0], n[2]).unwrap();
        let region = Region {
            nodes: vec![0, 1, 2],
            entry: 0,
            exit: 2,
        };
        assert!(chain_edges(&s, &region).is_none());
    }

    #[test]
    fn parallel_in_edges_disqualify_the_region() {
        let mut b = SfaBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
        b.add_edge(n[0], n[1], vec![Emission::new("a", 0.4)]);
        b.add_edge(n[0], n[1], vec![Emission::new("b", 0.4)]);
        b.add_edge(n[1], n[2], vec![Emission::new("c", 1.0)]);
        let s = b.build(n[0], n[2]).unwrap();
        let region = Region {
            nodes: vec![0, 1, 2],
            entry: 0,
            exit: 2,
        };
        assert!(chain_edges(&s, &region).is_none());
    }
}
