//! The reference evaluators: `Pr[q]` for a containment DFA against each
//! representation, written for clarity, not speed.
//!
//! This module is the **differential-test oracle**. Nothing the system
//! ships calls it: every executor, bench harness and example evaluates
//! through the compiled [`ScanKernel`](crate::kernel::ScanKernel), and
//! `tests/kernel.rs`, `tests/properties.rs`, the `scan` bench's naive
//! baseline and the repo benchmark's reference answers compare the kernel
//! against these functions bit for bit (`f64::to_bits`).
//!
//! For string sets (MAP, k-MAP) each retained string is a disjoint
//! probabilistic event, so `Pr[q] = Σ_{strings s matching q} p(s)` (§3,
//! "Baseline Approaches").
//!
//! For SFAs (FullSFA, Staccato chunk graphs) the evaluation is the
//! forward dynamic program over `(SFA node, DFA state)` pairs: the
//! matrix-multiplication algorithm of \[45\] specialised to a deterministic
//! query automaton — linear in the data size and (at most) quadratic in
//! the number of DFA states, matching Table 1's cost model.
//!
//! [`project_eval`] is the same DP restricted to §4's *projection* — the
//! oracle for [`ScanKernel::eval_projection`](crate::kernel::ScanKernel::eval_projection),
//! the evaluator behind every index probe.

use staccato_automata::Dfa;
use staccato_sfa::{NodeId, Sfa};
use std::collections::{HashMap, VecDeque};

/// Probability that a string drawn from the (sub-stochastic) set matches
/// the query DFA.
pub fn eval_strings<'a, I>(dfa: &Dfa, strings: I) -> f64
where
    I: IntoIterator<Item = (&'a str, f64)>,
{
    strings
        .into_iter()
        .filter(|(s, _)| dfa.is_accept(dfa.run_from(dfa.start(), s)))
        .map(|(_, p)| p)
        .sum()
}

/// Probability that the SFA emits a string accepted by the DFA.
///
/// State vectors are dense per SFA node (`q` floats); emissions advance
/// the DFA by running it over the label. Works for single-character OCR
/// SFAs and for Staccato's multi-character chunk edges alike.
pub fn eval_sfa(dfa: &Dfa, sfa: &Sfa) -> f64 {
    let q = dfa.state_count();
    let slots = sfa.num_node_slots() as usize;
    let mut vectors: Vec<Vec<f64>> = vec![Vec::new(); slots];
    let mut start_vec = vec![0.0; q];
    start_vec[dfa.start() as usize] = 1.0;
    vectors[sfa.start() as usize] = start_vec;

    let order = sfa.topo_order();
    for &v in &order {
        if vectors[v as usize].is_empty() {
            continue;
        }
        let src = std::mem::take(&mut vectors[v as usize]);
        for &eid in sfa.out_edges(v) {
            let edge = sfa.edge(eid).expect("live adjacency");
            for em in &edge.emissions {
                if em.prob <= 0.0 {
                    continue;
                }
                for (s, &mass) in src.iter().enumerate() {
                    if mass == 0.0 {
                        continue;
                    }
                    let s2 = dfa.run_from(s as u32, &em.label);
                    let dst = &mut vectors[edge.to as usize];
                    if dst.is_empty() {
                        *dst = vec![0.0; q];
                    }
                    dst[s2 as usize] += mass * em.prob;
                }
            }
        }
        if v == sfa.finish() {
            vectors[v as usize] = src;
        }
    }

    let fin = &vectors[sfa.finish() as usize];
    (0..q)
        .filter(|&s| dfa.is_accept(s as u32))
        .map(|s| fin.get(s).copied().unwrap_or(0.0))
        .sum()
}

/// §4's *projection*: the match probability of a fresh DFA started at
/// node `from`, evaluated over only the nodes within `depth` edges of it
/// (shortest edge distance) — an (over)estimate of how far the pattern
/// can extend from a posted term start. Accepting states are absorbing:
/// mass that reaches one is collected once and not propagated, and the
/// total is clamped to `1.0`.
pub fn project_eval(dfa: &Dfa, sfa: &Sfa, from: NodeId, depth: usize) -> f64 {
    // Level-order BFS: a node is stamped with its shortest distance, so
    // the projected set does not depend on exploration order when paths
    // of different lengths reconverge.
    let mut dist: HashMap<NodeId, usize> = HashMap::new();
    dist.insert(from, 0);
    let mut frontier = VecDeque::from([from]);
    while let Some(v) = frontier.pop_front() {
        let d = dist[&v];
        if d >= depth {
            continue;
        }
        for &eid in sfa.out_edges(v) {
            let to = sfa.edge(eid).expect("live adjacency").to;
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(to) {
                e.insert(d + 1);
                frontier.push_back(to);
            }
        }
    }
    let q = dfa.state_count();
    let mut vectors: HashMap<NodeId, Vec<f64>> = HashMap::new();
    let mut v0 = vec![0.0; q];
    v0[dfa.start() as usize] = 1.0;
    vectors.insert(from, v0);
    let mut matched = 0.0;
    for v in sfa.topo_order() {
        if !dist.contains_key(&v) {
            continue;
        }
        let Some(src) = vectors.remove(&v) else {
            continue;
        };
        for &eid in sfa.out_edges(v) {
            let edge = sfa.edge(eid).expect("live adjacency");
            if !dist.contains_key(&edge.to) {
                continue;
            }
            for em in &edge.emissions {
                if em.prob <= 0.0 {
                    continue;
                }
                for (s, &mass) in src.iter().enumerate() {
                    if mass == 0.0 || dfa.is_accept(s as u32) {
                        continue;
                    }
                    let s2 = dfa.run_from(s as u32, &em.label);
                    let add = mass * em.prob;
                    if dfa.is_accept(s2) {
                        matched += add;
                    } else {
                        vectors.entry(edge.to).or_insert_with(|| vec![0.0; q])[s2 as usize] += add;
                    }
                }
            }
        }
    }
    matched.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use staccato_sfa::{Emission, SfaBuilder};

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
    fn figure1_ford_probability_is_012() {
        // The paper's running example: LIKE '%Ford%' finds the claim with
        // probability ≈ 0.12 (0.8 · 0.4 · 0.4 · 0.9).
        let q = Query::like("%Ford%").unwrap();
        let p = eval_sfa(&q.dfa, &figure1());
        assert!((p - 0.1152).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn eval_sfa_matches_enumeration_on_small_sfas() {
        let sfa = figure1();
        for pattern in ["Ford", "F0", "rd", "m3", "zzz", "o", " "] {
            let q = Query::keyword(pattern).unwrap();
            let brute: f64 = sfa
                .enumerate_strings(10_000)
                .into_iter()
                .filter(|(s, _)| s.contains(pattern))
                .map(|(_, p)| p)
                .sum();
            let dp = eval_sfa(&q.dfa, &sfa);
            assert!(
                (dp - brute).abs() < 1e-12,
                "pattern {pattern:?}: dp={dp} brute={brute}"
            );
        }
    }

    #[test]
    fn eval_sfa_regex_matches_enumeration() {
        let sfa = figure1();
        let q = Query::regex(r"(F|T)(0|o) r").unwrap();
        let brute: f64 = sfa
            .enumerate_strings(10_000)
            .into_iter()
            .filter(|(s, _)| {
                s.contains("F0 r") || s.contains("Fo r") || s.contains("T0 r") || s.contains("To r")
            })
            .map(|(_, p)| p)
            .sum();
        assert!((eval_sfa(&q.dfa, &sfa) - brute).abs() < 1e-12);
    }

    #[test]
    fn eval_strings_sums_disjoint_events() {
        let q = Query::keyword("Ford").unwrap();
        let strings = [("a Ford here", 0.25), ("no match", 0.5), ("Ford Ford", 0.1)];
        let p = eval_strings(&q.dfa, strings.iter().map(|(s, p)| (*s, *p)));
        assert!((p - 0.35).abs() < 1e-12);
    }

    #[test]
    fn eval_sfa_on_multichar_chunk_graph() {
        // A Staccato-style chunk SFA: labels span several characters and
        // matches may straddle a chunk boundary.
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
        let sfa = b.build(n[0], n[2]).unwrap();
        let q = Query::keyword("Ford").unwrap();
        // P(contains 'Ford') = P("my Fo") · 1.0 (both right chunks complete it).
        let p = eval_sfa(&q.dfa, &sfa);
        assert!((p - 0.6).abs() < 1e-12, "got {p}");
        let q2 = Query::keyword("rd c").unwrap();
        assert!((eval_sfa(&q2.dfa, &sfa) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn impossible_pattern_has_zero_probability() {
        let q = Query::keyword("xyzzy").unwrap();
        assert_eq!(eval_sfa(&q.dfa, &figure1()), 0.0);
    }

    #[test]
    fn pruned_sfa_probability_shrinks() {
        let mut sfa = figure1();
        let full = eval_sfa(&Query::keyword("Ford").unwrap().dfa, &sfa);
        // Remove the 'o' emission: 'Ford' becomes impossible.
        sfa.edge_mut(1)
            .unwrap()
            .emissions
            .retain(|e| e.label != "o");
        let pruned = eval_sfa(&Query::keyword("Ford").unwrap().dfa, &sfa);
        assert!(full > 0.0 && pruned == 0.0);
    }

    #[test]
    fn projection_uses_shortest_edge_distance() {
        // s→x, s→a, a→b, b→y, x→y, y→z: `y` is two edges from `s` (via
        // `x`) and three via `a, b`, so `z` is within depth 3 and the
        // match completing on y→z must count whichever path is explored
        // first.
        let mut bld = SfaBuilder::new();
        let [s, x, a, b, y, z] = std::array::from_fn(|_| bld.add_node());
        bld.add_edge(s, x, vec![Emission::new("F", 0.5)]);
        bld.add_edge(s, a, vec![Emission::new("q", 0.5)]);
        bld.add_edge(a, b, vec![Emission::new("q", 1.0)]);
        bld.add_edge(b, y, vec![Emission::new("q", 1.0)]);
        bld.add_edge(x, y, vec![Emission::new("or", 1.0)]);
        bld.add_edge(y, z, vec![Emission::new("d", 1.0)]);
        let sfa = bld.build(s, z).unwrap();
        let q = Query::keyword("Ford").unwrap();
        assert_eq!(project_eval(&q.dfa, &sfa, s, 3), 0.5);
        // One edge short of `z`: nothing completes.
        assert_eq!(project_eval(&q.dfa, &sfa, s, 2), 0.0);
        // Unbounded depth is the whole graph downstream of `from`.
        assert_eq!(project_eval(&q.dfa, &sfa, s, usize::MAX), 0.5);
        assert_eq!(project_eval(&q.dfa, &sfa, x, usize::MAX), 0.0);
    }
}
