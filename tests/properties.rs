//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;
use staccato::approx::{approximate, StaccatoParams};
use staccato::automata::{parse, Dfa, Nfa};
use staccato::query::{eval_sfa, Query};
use staccato::sfa::{
    check_structure, check_unique_paths, codec, string_probability, total_mass, DecodeArena,
    Emission, Sfa, SfaBuilder,
};
use std::collections::HashSet;

/// Strategy: a small random SFA shaped like OCR output — a chain with
/// occasional two-branch bubbles, distinct characters per position so the
/// unique path property holds by construction.
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
            // Distinct chars for this position derived from the salt.
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
                // Split this position into two parallel branches with
                // disjoint supports (keeps unique paths).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_sfas_satisfy_invariants(sfa in sfa_strategy()) {
        check_structure(&sfa).unwrap();
        check_unique_paths(&sfa).unwrap();
        let mass = total_mass(&sfa);
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
    }

    #[test]
    fn codec_roundtrips_any_sfa(sfa in sfa_strategy()) {
        let back = codec::decode(&codec::encode(&sfa)).unwrap();
        let mut a = sfa.enumerate_strings(100_000);
        let mut b = back.enumerate_strings(100_000);
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        prop_assert_eq!(a.len(), b.len());
        for ((sa, pa), (sb, pb)) in a.iter().zip(&b) {
            prop_assert_eq!(sa, sb);
            prop_assert!((pa - pb).abs() < 1e-12);
        }
    }

    #[test]
    fn owned_decode_is_the_stored_graph_in_the_arena_order(sfa in sfa_strategy()) {
        let blob = codec::encode(&sfa);
        let back = codec::decode(&blob).unwrap();
        // `encode` stores the compacted graph: the owned decode returns
        // exactly it, edge for edge and emission for emission.
        let stored = sfa.compact();
        prop_assert_eq!(
            (back.start(), back.finish(), back.num_node_slots()),
            (stored.start(), stored.finish(), stored.num_node_slots())
        );
        prop_assert_eq!(
            back.edges().collect::<Vec<_>>(),
            stored.edges().collect::<Vec<_>>()
        );
        // And it visits nodes in the order the scan kernel's arena does.
        let mut arena = DecodeArena::new();
        codec::decode_into_arena(&blob, &mut arena).unwrap();
        prop_assert_eq!(back.topo_order(), arena.topo());
    }

    #[test]
    fn approximation_never_invents_strings_and_never_gains_mass(
        sfa in sfa_strategy(),
        m in 1usize..6,
        k in 1usize..5,
    ) {
        let approx = approximate(&sfa, StaccatoParams::new(m, k));
        check_structure(&approx).unwrap();
        check_unique_paths(&approx).unwrap();
        prop_assert!(approx.edge_count() <= m.max(1) || approx.edge_count() <= sfa.edge_count());
        let original: HashSet<String> =
            sfa.enumerate_strings(100_000).into_iter().map(|(s, _)| s).collect();
        for (s, p) in approx.enumerate_strings(100_000) {
            prop_assert!(original.contains(&s), "invented string {s:?}");
            let p0 = string_probability(&sfa, &s);
            prop_assert!((p - p0).abs() < 1e-9, "probability changed for {s:?}: {p} vs {p0}");
        }
        prop_assert!(total_mass(&approx) <= 1.0 + 1e-9);
    }

    #[test]
    fn staccato_mass_monotone_in_k(sfa in sfa_strategy(), m in 1usize..5) {
        let m1 = total_mass(&approximate(&sfa, StaccatoParams::new(m, 1)));
        let m2 = total_mass(&approximate(&sfa, StaccatoParams::new(m, 2)));
        let m4 = total_mass(&approximate(&sfa, StaccatoParams::new(m, 4)));
        prop_assert!(m1 <= m2 + 1e-12);
        prop_assert!(m2 <= m4 + 1e-12);
    }

    #[test]
    fn eval_sfa_equals_enumeration(sfa in sfa_strategy(), needle in "[a-z0-9]{1,3}") {
        let query = Query::keyword(&needle).unwrap();
        let brute: f64 = sfa
            .enumerate_strings(100_000)
            .into_iter()
            .filter(|(s, _)| s.contains(&needle))
            .map(|(_, p)| p)
            .sum();
        let dp = eval_sfa(&query.dfa, &sfa);
        prop_assert!((dp - brute).abs() < 1e-9, "dp {dp} vs brute {brute}");
    }

    #[test]
    fn string_probability_equals_enumeration(sfa in sfa_strategy()) {
        for (s, p) in sfa.enumerate_strings(64) {
            let dp = string_probability(&sfa, &s);
            prop_assert!((dp - p).abs() < 1e-9);
        }
    }
}

/// Strategy: a random pattern in the supported dialect, built from an AST
/// so it is always syntactically valid.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dfa_equals_nfa_reference(pattern in pattern_strategy(), input in "[abc0-9]{0,8}") {
        let ast = parse(&pattern).unwrap();
        let nfa = Nfa::compile(&ast);
        let dfa = Dfa::compile(&ast);
        prop_assert_eq!(
            dfa.accepts(&input),
            nfa.accepts(&input),
            "pattern {} on {:?}", pattern, input
        );
    }

    #[test]
    fn containment_dfa_matches_substring_semantics(
        pattern in "[abc]{1,4}",
        input in "[abc]{0,10}",
    ) {
        let q = Query::keyword(&pattern).unwrap();
        prop_assert_eq!(
            q.dfa.is_accept(q.dfa.run_from(q.dfa.start(), &input)),
            input.contains(&pattern)
        );
    }
}

/// B+-tree behaves like a sorted map under arbitrary operation sequences.
mod btree_model {
    use proptest::prelude::*;
    use staccato::storage::{BTree, BufferPool, MemDisk};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, u64),
        Delete(Vec<u8>),
        Get(Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = prop::collection::vec(0u8..8, 1..5);
        prop_oneof![
            (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Delete),
            key.prop_map(Op::Get),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..120)) {
            let pool = BufferPool::new(Box::new(MemDisk::new()), 64);
            let tree = BTree::create(&pool).unwrap();
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(tree.insert(&pool, &k, v).unwrap(), model.insert(k, v));
                    }
                    Op::Delete(k) => {
                        prop_assert_eq!(tree.delete(&pool, &k).unwrap(), model.remove(&k).is_some());
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(tree.get(&pool, &k).unwrap(), model.get(&k).copied());
                    }
                }
            }
            let ours = tree.scan_range(&pool, &[], None).unwrap();
            let theirs: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
            prop_assert_eq!(ours, theirs);
        }
    }
}
