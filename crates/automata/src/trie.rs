//! The dictionary trie-automaton of §4.
//!
//! "A dictionary of about 60,000 terms … was converted to a prefix-trie
//! automaton, and used for index construction." The trie is a DFA with one
//! final state per term; the index builder (Algorithms 3–4) advances trie
//! states over SFA emissions, starting a fresh walk at every offset and
//! carrying in-flight walks across edges as *augmented states*.
//!
//! Matching is case-insensitive (terms are stored folded to lowercase), and
//! a match only counts at a word boundary on the left — the builder
//! enforces that; the trie itself just answers state-machine questions.

use std::collections::HashMap;

/// Identifier of a dictionary term (index into the term list).
pub type TermId = u32;

/// Trie state id. State 0 is the root.
pub type TrieState = u32;

#[derive(Debug, Default, Clone)]
struct Node {
    /// Sorted by byte for binary search; children are (byte, state).
    children: Vec<(u8, TrieState)>,
    /// Term ending at this node, if any.
    terminal: Option<TermId>,
}

/// A prefix-trie automaton over lowercase ASCII terms.
#[derive(Debug, Clone)]
pub struct Trie {
    nodes: Vec<Node>,
    terms: Vec<String>,
}

impl Trie {
    /// Build a trie from a dictionary. Terms are folded to lowercase and
    /// deduplicated; empty and non-ASCII terms are skipped, and so are terms
    /// holding a NUL byte: the inverted index keys a posting as
    /// `term ␀ DataKey seq`, so the keys of `data\0zz` would sort under the
    /// `data ␀` prefix a probe of `data` scans.
    pub fn build<I, S>(terms: I) -> Trie
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut trie = Trie {
            nodes: vec![Node::default()],
            terms: Vec::new(),
        };
        let mut seen: HashMap<String, ()> = HashMap::new();
        for term in terms {
            let folded = term.as_ref().to_ascii_lowercase();
            if folded.is_empty() || !folded.is_ascii() || folded.contains('\0') {
                continue;
            }
            if seen.insert(folded.clone(), ()).is_some() {
                continue;
            }
            let id = trie.terms.len() as TermId;
            trie.terms.push(folded.clone());
            let mut state: TrieState = 0;
            for b in folded.bytes() {
                state = match trie.child(state, b) {
                    Some(next) => next,
                    None => {
                        let next = trie.nodes.len() as TrieState;
                        trie.nodes.push(Node::default());
                        let node = &mut trie.nodes[state as usize];
                        let pos = node
                            .children
                            .binary_search_by_key(&b, |&(c, _)| c)
                            .expect_err("child absent");
                        node.children.insert(pos, (b, next));
                        next
                    }
                };
            }
            trie.nodes[state as usize].terminal = Some(id);
        }
        trie
    }

    fn child(&self, state: TrieState, b: u8) -> Option<TrieState> {
        let node = &self.nodes[state as usize];
        node.children
            .binary_search_by_key(&b, |&(c, _)| c)
            .ok()
            .map(|i| node.children[i].1)
    }

    /// The root state.
    pub fn root(&self) -> TrieState {
        0
    }

    /// Advance one (case-folded) byte; `None` means the walk dies.
    #[inline]
    pub fn step(&self, state: TrieState, b: u8) -> Option<TrieState> {
        self.child(state, b.to_ascii_lowercase())
    }

    /// The term that ends exactly at `state`, if any.
    #[inline]
    pub fn terminal(&self, state: TrieState) -> Option<TermId> {
        self.nodes[state as usize].terminal
    }

    /// Look up a whole term, returning its id.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        let mut state = self.root();
        for b in term.bytes() {
            state = self.step(state, b)?;
        }
        self.terminal(state)
    }

    /// The term text for an id.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Number of terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of trie states (§4's construction is linear in this).
    pub fn state_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trie {
        Trie::build(["public", "law", "president", "pub", "laws"])
    }

    #[test]
    fn lookup_finds_exact_terms() {
        let t = sample();
        assert!(t.lookup("public").is_some());
        assert!(t.lookup("law").is_some());
        assert!(t.lookup("laws").is_some());
        assert!(t.lookup("pub").is_some());
        assert!(t.lookup("lawx").is_none());
        assert!(t.lookup("la").is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let t = sample();
        assert_eq!(t.lookup("Public"), t.lookup("PUBLIC"));
        assert!(t.lookup("PrEsIdEnT").is_some());
    }

    #[test]
    fn prefixes_share_states() {
        let t = Trie::build(["law", "laws"]);
        // l-a-w-s plus root = 5 states.
        assert_eq!(t.state_count(), 5);
        assert_eq!(t.term_count(), 2);
    }

    #[test]
    fn step_walks_incrementally() {
        let t = sample();
        let mut s = t.root();
        for b in b"pub" {
            s = t.step(s, *b).unwrap();
        }
        assert_eq!(t.terminal(s).map(|id| t.term(id)), Some("pub"));
        // Continue to "public".
        for b in b"lic" {
            s = t.step(s, *b).unwrap();
        }
        assert_eq!(t.terminal(s).map(|id| t.term(id)), Some("public"));
        assert!(t.step(s, b'z').is_none());
    }

    #[test]
    fn duplicates_and_empties_skipped() {
        let t = Trie::build(["a", "A", "", "a"]);
        assert_eq!(t.term_count(), 1);
    }

    #[test]
    fn nul_bearing_terms_skipped() {
        let t = Trie::build(["data", "data\0zz", "\0", "x\0"]);
        assert_eq!(t.term_count(), 1);
        assert!(t.lookup("data").is_some());
        assert!(t.lookup("data\0zz").is_none());
        // The skipped term left no states behind: d-a-t-a plus root.
        assert_eq!(t.state_count(), 5);
    }

    #[test]
    fn large_dictionary_scales() {
        // Synthetic 10k-term dictionary; state count stays linear.
        let terms: Vec<String> = (0..10_000).map(|i| format!("term{i:05}")).collect();
        let t = Trie::build(&terms);
        assert_eq!(t.term_count(), 10_000);
        assert!(t.lookup("term04217").is_some());
        assert!(t.lookup("term10000").is_none());
        assert!(t.state_count() < 60_000);
    }
}
