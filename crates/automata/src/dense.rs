//! Byte-class-compressed dense DFA: the scan kernel's transition table.
//!
//! [`crate::Dfa`] stores one 128-entry row per state — simple, but a query
//! DFA rarely distinguishes more than a few dozen byte values, so most of
//! each row is duplicated columns and every `run_from` walks a sparse
//! 512-byte stride per state. [`DenseDfa`] compresses the table at query
//! compile time:
//!
//! * all 256 byte values (ASCII plus the out-of-alphabet range, which the
//!   source DFA sends to its dead state) are grouped into equivalence
//!   classes — two bytes share a class iff every state maps them to the
//!   same successor;
//! * the transition table is flattened to one contiguous `q × k` `u32`
//!   array (`k` = class count, typically well under 32), indexed
//!   `state * k + class`, so the inner loop is two dependent loads over a
//!   table that usually fits in L1;
//! * each state is classified by its self-loop escape set: states no byte
//!   leaves (the dead state, absorbing accepts) stop a run immediately,
//!   and states exactly one byte value leaves — where keyword containment
//!   runs spend almost all their time — advance by a word-at-a-time
//!   search for that byte instead of per-byte table loads.
//!
//! The dense table is transition-for-transition equivalent to the source
//! [`crate::Dfa`] over **all** byte values — including ≥ 0x80, which both
//! send to the dead state — so results computed through either table are
//! identical.

use crate::dfa::{Dfa, TABLE_WIDTH};

/// Self-loop classification: no byte value leaves the state (dead and
/// absorbing-accept states) — a run can return immediately.
const ESC_NONE: u16 = 256;
/// Self-loop classification: two or more byte values leave the state —
/// the run walks the table byte by byte.
const ESC_MANY: u16 = 257;

/// A byte-class-compressed, contiguous-table DFA compiled from a [`Dfa`].
#[derive(Debug, Clone)]
pub struct DenseDfa {
    /// Byte → equivalence class, for all 256 byte values.
    classes: [u8; 256],
    /// Row-major `q × k` successor table: `table[s * k + c]`.
    table: Vec<u32>,
    /// Number of byte classes (`k`).
    num_classes: usize,
    /// Per-state self-loop escape: the single byte value that leaves the
    /// state, or [`ESC_NONE`] / [`ESC_MANY`]. Keyword containment DFAs
    /// spend almost all their time in the no-progress state, which only
    /// the pattern's first byte escapes — `run_from` can then skip ahead
    /// with a word-at-a-time byte search instead of two table loads per
    /// input byte.
    escape: Vec<u16>,
    accept: Vec<bool>,
    start: u32,
    dead: u32,
}

/// Position of the first `needle` byte in `hay`, word-at-a-time (the
/// classic SWAR zero-byte test, eight bytes per step): the self-loop skip
/// of [`DenseDfa::run_from`].
#[inline]
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let broadcast = u64::from(needle) * ONES;
    let mut i = 0;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("width"));
        let x = w ^ broadcast;
        let hit = x.wrapping_sub(ONES) & !x & HIGHS;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == needle).map(|j| i + j)
}

impl DenseDfa {
    /// Compress `dfa` into a dense byte-class table. Cost is one pass over
    /// the 128-column table (`O(128 · q · k)`), paid once per compiled
    /// query.
    pub fn new(dfa: &Dfa) -> DenseDfa {
        let q = dfa.state_count();
        let dead = dfa.dead();
        let mut classes = [0u8; 256];
        // One representative column per class, in first-seen order.
        let mut reps: Vec<Vec<u32>> = Vec::new();
        let mut col: Vec<u32> = vec![0; q];
        // Column TABLE_WIDTH is the synthetic out-of-alphabet column: every
        // state maps bytes >= 0x80 to the dead state (see `Dfa::next`).
        for b in 0..=TABLE_WIDTH {
            for (s, slot) in col.iter_mut().enumerate() {
                *slot = if b < TABLE_WIDTH {
                    dfa.row(s as u32)[b]
                } else {
                    dead
                };
            }
            let id = match reps.iter().position(|r| *r == col) {
                Some(id) => id,
                None => {
                    reps.push(col.clone());
                    reps.len() - 1
                }
            } as u8;
            if b < TABLE_WIDTH {
                classes[b] = id;
            } else {
                for slot in classes.iter_mut().skip(TABLE_WIDTH) {
                    *slot = id;
                }
            }
        }
        let k = reps.len();
        let mut table = vec![0u32; q * k];
        for (c, rep) in reps.iter().enumerate() {
            for (s, &t) in rep.iter().enumerate() {
                table[s * k + c] = t;
            }
        }
        let escape = (0..q)
            .map(|s| {
                let mut esc = ESC_NONE;
                for b in 0..=255u8 {
                    if table[s * k + classes[b as usize] as usize] != s as u32 {
                        esc = if esc == ESC_NONE {
                            u16::from(b)
                        } else {
                            ESC_MANY
                        };
                        if esc == ESC_MANY {
                            break;
                        }
                    }
                }
                esc
            })
            .collect();
        DenseDfa {
            classes,
            table,
            num_classes: k,
            escape,
            accept: (0..q as u32).map(|s| dfa.is_accept(s)).collect(),
            start: dfa.start(),
            dead,
        }
    }

    /// Number of states (`q`), same as the source DFA.
    pub fn state_count(&self) -> usize {
        self.accept.len()
    }

    /// Number of byte equivalence classes (`k ≤ 129`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The start state.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// The dead state (absorbs every byte, never accepts).
    #[inline]
    pub fn dead(&self) -> u32 {
        self.dead
    }

    /// Whether `state` accepts.
    #[inline]
    pub fn is_accept(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// Byte equivalence class of `b` (`< num_classes()`). Two labels
    /// with the same class sequence drive every state to the same
    /// successor, so they share one composed transition vector.
    #[inline]
    pub fn class(&self, b: u8) -> usize {
        usize::from(self.classes[b as usize])
    }

    /// Transition: successor of `state` on byte `b` (any byte value).
    #[inline]
    pub fn next(&self, state: u32, b: u8) -> u32 {
        self.table[state as usize * self.num_classes + self.class(b)]
    }

    /// Run the table over `input` from `state`.
    ///
    /// States that no byte escapes (the dead state, absorbing accept
    /// states) return immediately; states that exactly one byte value
    /// escapes — a keyword containment DFA's no-progress state, where
    /// such runs spend almost all their bytes — skip ahead to that
    /// byte's next occurrence with [`find_byte`] instead of walking the
    /// table. Both shortcuts leave the reached state exactly as the
    /// plain byte-by-byte walk would.
    #[inline]
    pub fn run_from(&self, mut state: u32, input: &[u8]) -> u32 {
        let mut i = 0;
        while i < input.len() {
            match self.escape[state as usize] {
                ESC_NONE => return state,
                ESC_MANY => {
                    state = self.next(state, input[i]);
                    i += 1;
                }
                esc => match find_byte(&input[i..], esc as u8) {
                    Some(j) => {
                        state = self.next(state, input[i + j]);
                        i += j + 1;
                    }
                    None => return state,
                },
            }
        }
        state
    }

    /// Whether the DFA accepts the full input.
    #[inline]
    pub fn matches(&self, input: &[u8]) -> bool {
        self.is_accept(self.run_from(self.start, input))
    }

    /// Advance a set of states (bit `s` = state `s` live; requires
    /// `q ≤ 64`) through `label` in one pass. Equivalent to the union of
    /// `run_from(s, label)` over every live `s`, but the walk is shared:
    /// states that converge mid-label are advanced once, and the moment
    /// the set collapses to a single state the rest of the label runs
    /// through the scalar loop. Containment DFAs collapse on the first
    /// out-of-pattern byte (every state falls back to the no-progress
    /// state), so this is near `O(len)` instead of `O(len · |set|)`.
    pub fn advance_mask(&self, mut set: u64, label: &[u8]) -> u64 {
        debug_assert!(self.state_count() <= 64);
        let mut i = 0;
        while i < label.len() {
            if set & set.wrapping_sub(1) == 0 {
                return match set {
                    0 => 0,
                    _ => 1u64 << self.run_from(set.trailing_zeros(), &label[i..]),
                };
            }
            let c = self.class(label[i]);
            let mut out = 0u64;
            let mut rem = set;
            while rem != 0 {
                let s = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                out |= 1u64 << self.table[s * self.num_classes + c];
            }
            set = out;
            i += 1;
        }
        set
    }

    /// Advance each entry of `states` through `label` in place, sharing
    /// the walk. Result is exactly `run_from(states[k], label)` for every
    /// slot (duplicates allowed, any `q`). Once all entries converge to
    /// one state — which containment DFAs do on the first out-of-pattern
    /// byte — the remaining bytes are walked once, not per entry.
    pub fn advance_states(&self, states: &mut [u32], label: &[u8]) {
        if states.is_empty() {
            return;
        }
        let mut i = 0;
        while i < label.len() {
            let first = states[0];
            if states.iter().all(|&s| s == first) {
                let fin = self.run_from(first, &label[i..]);
                states.fill(fin);
                return;
            }
            let c = self.class(label[i]);
            for s in states.iter_mut() {
                *s = self.table[*s as usize * self.num_classes + c];
            }
            i += 1;
        }
    }

    /// Compose `label` into a full `state → state` transition vector:
    /// `out[s]` = the state reached from `s` after consuming all of
    /// `label`. `out` is overwritten and resized to `q`.
    ///
    /// Walking column-by-column over all states at once is equivalent to
    /// `q` independent `run_from` calls but touches each class column
    /// sequentially, and costs `O(len · q)` *once* per distinct label
    /// instead of per (row, state) pair in the evaluation DP.
    pub fn compose_label(&self, label: &[u8], out: &mut Vec<u32>) {
        let q = self.state_count();
        out.clear();
        out.extend(0..q as u32);
        for &b in label {
            let c = self.class(b);
            for s in out.iter_mut() {
                *s = self.table[*s as usize * self.num_classes + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse;

    fn dense(pattern: &str, containment: bool) -> (Dfa, DenseDfa) {
        let ast = parse(pattern).unwrap();
        let dfa = if containment {
            Dfa::compile_containment(&ast)
        } else {
            Dfa::compile(&ast)
        };
        let d = DenseDfa::new(&dfa);
        (dfa, d)
    }

    #[test]
    fn dense_agrees_with_dfa_on_every_transition() {
        for (pat, containment) in [
            ("Ford", true),
            (r"U.S.C. 2\d\d\d", true),
            (r"Sec(\x)*\d", true),
            ("a(b|c)*d", false),
            ("", true),
        ] {
            let (dfa, dense) = dense(pat, containment);
            assert_eq!(dense.state_count(), dfa.state_count());
            assert_eq!(dense.start(), dfa.start());
            assert_eq!(dense.dead(), dfa.dead());
            for s in 0..dfa.state_count() as u32 {
                assert_eq!(dense.is_accept(s), dfa.is_accept(s));
                for b in 0..=255u8 {
                    assert_eq!(dense.next(s, b), dfa.next(s, b), "{pat:?} s={s} b={b}");
                }
            }
        }
    }

    #[test]
    fn class_count_is_small_for_typical_queries() {
        let (_, d) = dense("President", true);
        // Distinct letters of the keyword + everything-else + dead column.
        assert!(d.num_classes() <= 12, "{} classes", d.num_classes());
        assert!(d.num_classes() >= 2);
    }

    #[test]
    fn run_from_matches_dfa_run_even_with_non_ascii() {
        let (dfa, d) = dense("Ford", true);
        for input in ["a Ford pickup", "no match", "", "F\u{00e9}ord Ford"] {
            assert_eq!(
                d.run_from(d.start(), input.as_bytes()),
                dfa.run_from(dfa.start(), input),
                "{input:?}"
            );
            assert_eq!(d.matches(input.as_bytes()), dfa.accepts(input));
        }
    }

    #[test]
    fn compose_label_equals_per_state_runs() {
        let (dfa, d) = dense(r"Public Law (8|9)\d", true);
        let mut out = Vec::new();
        for label in ["Pub", "lic", " Law 89", "zz", "", "\u{00ff}x"] {
            d.compose_label(label.as_bytes(), &mut out);
            assert_eq!(out.len(), dfa.state_count());
            for s in 0..dfa.state_count() as u32 {
                assert_eq!(out[s as usize], dfa.run_from(s, label), "{label:?} s={s}");
            }
        }
    }

    #[test]
    fn equal_class_sequences_compose_to_equal_vectors() {
        // Bytes inside the pattern, outside it, and outside ASCII.
        let bytes = b"Pu9xyz!~\xff";
        let (_, d) = dense(r"Public Law (8|9)\d", true);
        let mut by_classes = std::collections::HashMap::new();
        let (mut out, mut labels) = (Vec::new(), 0);
        for len in 1..=3 {
            for n in 0..bytes.len().pow(len) {
                let label: Vec<u8> = (0..len)
                    .map(|i| bytes[n / bytes.len().pow(i) % bytes.len()])
                    .collect();
                d.compose_label(&label, &mut out);
                let seq: Vec<usize> = label.iter().map(|&b| d.class(b)).collect();
                let first = by_classes.entry(seq).or_insert_with(|| out.clone());
                assert_eq!(*first, out, "{label:?}");
                labels += 1;
            }
        }
        // Non-vacuous: most labels share their class sequence with another.
        assert!(
            by_classes.len() * 4 < labels,
            "{} sequences",
            by_classes.len()
        );
        assert!((0..=255u8).all(|b| d.class(b) < d.num_classes()));
    }

    #[test]
    fn advance_mask_equals_per_state_runs() {
        for (pat, containment) in [
            ("Ford", true),
            (r"Public Law (8|9)\d", true),
            ("abc", false),
        ] {
            let (dfa, d) = dense(pat, containment);
            let q = dfa.state_count() as u32;
            assert!(q <= 64);
            for label in ["Pub", "zzzz", "Ford", " Law 89", "", "ab\u{00ff}c"] {
                for set in [
                    1u64 << d.start(),
                    (1u64 << q) - 1,
                    0,
                    0b101 & ((1 << q) - 1),
                ] {
                    let mut expect = 0u64;
                    for s in 0..q {
                        if set & (1 << s) != 0 {
                            expect |= 1u64 << dfa.run_from(s, label);
                        }
                    }
                    assert_eq!(
                        d.advance_mask(set, label.as_bytes()),
                        expect,
                        "{pat:?} {label:?} set={set:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn advance_states_equals_per_state_runs() {
        for (pat, containment) in [
            ("Ford", true),
            (r"Public Law (8|9)\d", true),
            (r"Sec(\x)*\d", true),
            ("abc", false),
        ] {
            let (dfa, d) = dense(pat, containment);
            let q = dfa.state_count() as u32;
            for label in ["Sec 9", "zz zz zz", "", "S", " Law 89", "ab\u{00ff}c"] {
                // Duplicates and arbitrary order are allowed.
                let mut states: Vec<u32> = (0..q).chain([0, q / 2, q - 1]).rev().collect();
                let expect: Vec<u32> = states.iter().map(|&s| dfa.run_from(s, label)).collect();
                d.advance_states(&mut states, label.as_bytes());
                assert_eq!(states, expect, "{pat:?} {label:?}");
                d.advance_states(&mut [], label.as_bytes());
            }
        }
    }

    #[test]
    fn escape_shortcuts_match_reference_runs() {
        // Long inputs exercise the word-at-a-time skip (≥ 8 bytes per
        // step), matches exercise the absorbing-accept early return, and
        // `\u{00ff}` the out-of-alphabet column.
        for (pat, containment) in [("the", true), (r"Public Law (8|9)\d", true), ("the", false)] {
            let (dfa, d) = dense(pat, containment);
            for input in [
                "a line with no pattern bytes at all, just prose............",
                "ttttttttttttttttttthe pattern appears mid-line and then more text",
                "the start",
                "ends with the",
                "t-h-e split up, then Public Law 89 and trailing text after a match",
                "short",
                "",
                "high bytes \u{00ff}\u{00ff} interleaved \u{00ff} with text",
            ] {
                for s in 0..dfa.state_count() as u32 {
                    assert_eq!(
                        d.run_from(s, input.as_bytes()),
                        dfa.run_from(s, input),
                        "{pat:?} (containment={containment}) from {s} over {input:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_break_does_not_change_results() {
        // Exact-match DFAs hit the dead state quickly; the early break in
        // run_from must be invisible.
        let (dfa, d) = dense("abc", false);
        for input in ["abcd", "zabc", "abc", "ab"] {
            assert_eq!(d.matches(input.as_bytes()), dfa.accepts(input));
        }
    }
}
