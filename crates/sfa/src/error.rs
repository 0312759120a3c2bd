//! Error types for SFA construction, validation, and (de)serialization.

use std::fmt;

/// Errors raised by SFA construction, validation, and codec routines.
#[derive(Debug, Clone, PartialEq)]
pub enum SfaError {
    /// A node id referenced a node that does not exist (or was removed).
    InvalidNode(u32),
    /// An edge id referenced an edge that does not exist (or was removed).
    InvalidEdge(u32),
    /// The graph contains a directed cycle; SFAs must be DAGs.
    CyclicGraph,
    /// A node other than the final node has no outgoing edges, or a node
    /// other than the start node has no incoming edges (it can emit nothing).
    Disconnected { node: u32 },
    /// An emission probability is outside `[0, 1]` or not finite.
    BadProbability { edge: u32, prob: f64 },
    /// An emission label is empty; δ is defined on `Σ⁺`.
    EmptyLabel { edge: u32 },
    /// The outgoing probability mass of a node deviates from 1 by more than
    /// the permitted tolerance (only reported by the *stochastic* check,
    /// which pruned SFAs are expected to fail).
    NotStochastic { node: u32, sum: f64 },
    /// Two distinct labelled paths emit the same string, violating the
    /// unique path property.
    AmbiguousString(String),
    /// The serialized blob did not start with the expected magic bytes —
    /// also what a blob of the previous format, `SFA1`, gets.
    BadMagic,
    /// The serialized blob ended before the declared content.
    Truncated,
    /// A serialized label was not valid UTF-8.
    BadLabel,
    /// The blob declares more nodes/edges/emissions than its length could
    /// possibly hold — a corruption guard so decoding never over-allocates.
    CorruptCount { what: &'static str, count: u64 },
    /// A dictionary entry of a serialized SFA is invalid: an empty label,
    /// a probability outside `[0, 1]` or not finite, or a repeat of an
    /// earlier entry of the same dictionary (`what` says which).
    BadEntry { what: &'static str, index: u32 },
    /// An emission of edge `edge` names a `what` dictionary entry the
    /// serialized SFA does not hold.
    BadId {
        edge: u32,
        what: &'static str,
        id: u32,
    },
    /// A serialized varint is longer than its shortest form or exceeds
    /// `u32::MAX`.
    BadVarint,
    /// Edge `edge`'s emission run does not lie where its header says: an
    /// offset outside the blob or out of edge order, or a run that does
    /// not fill the bytes up to the next run exactly.
    BadRunOffset { edge: u32 },
}

impl fmt::Display for SfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SfaError::InvalidNode(n) => write!(f, "invalid node id {n}"),
            SfaError::InvalidEdge(e) => write!(f, "invalid edge id {e}"),
            SfaError::CyclicGraph => write!(f, "SFA graph contains a cycle"),
            SfaError::Disconnected { node } => {
                write!(f, "node {node} is not on any start-to-final path")
            }
            SfaError::BadProbability { edge, prob } => {
                write!(f, "edge {edge} has out-of-range probability {prob}")
            }
            SfaError::EmptyLabel { edge } => write!(f, "edge {edge} has an empty emission label"),
            SfaError::NotStochastic { node, sum } => {
                write!(f, "outgoing mass of node {node} is {sum}, expected 1")
            }
            SfaError::AmbiguousString(s) => {
                write!(f, "string {s:?} is emitted by more than one labelled path")
            }
            SfaError::BadMagic => write!(
                f,
                "blob does not start with the SFA2 magic (a store written before SFA2 must be reloaded)"
            ),
            SfaError::Truncated => write!(f, "serialized SFA is truncated"),
            SfaError::BadLabel => write!(f, "serialized emission label is not valid UTF-8"),
            SfaError::CorruptCount { what, count } => {
                write!(f, "implausible {what} count {count} in serialized SFA")
            }
            SfaError::BadEntry { what, index } => {
                write!(f, "{what} at dictionary entry {index} of serialized SFA")
            }
            SfaError::BadId { edge, what, id } => {
                write!(f, "edge {edge} names {what} {id}, which the dictionary lacks")
            }
            SfaError::BadVarint => write!(f, "overlong or out-of-range varint in serialized SFA"),
            SfaError::BadRunOffset { edge } => {
                write!(f, "emission run of edge {edge} is not where its header says")
            }
        }
    }
}

impl std::error::Error for SfaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let msgs = [
            SfaError::InvalidNode(3).to_string(),
            SfaError::CyclicGraph.to_string(),
            SfaError::NotStochastic { node: 1, sum: 0.5 }.to_string(),
            SfaError::Truncated.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SfaError::BadMagic);
    }
}
