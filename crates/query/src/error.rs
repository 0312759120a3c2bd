//! Query-layer error type.

use crate::sql::SqlError;
use staccato_automata::PatternError;
use staccato_sfa::SfaError;
use staccato_storage::StorageError;
use std::fmt;

/// Errors from query compilation and execution.
#[derive(Debug)]
pub enum QueryError {
    /// Pattern failed to parse.
    Pattern(PatternError),
    /// Storage layer failure.
    Storage(StorageError),
    /// A stored SFA blob failed to decode.
    Sfa(SfaError),
    /// The store is missing an expected table (not loaded, or wrong file).
    MissingRepresentation(&'static str),
    /// The query has no usable left anchor for index-assisted execution.
    NotAnchored(String),
    /// The requested term is not in the index dictionary.
    TermNotInDictionary(String),
    /// An index probe was forced but no registered index can serve it.
    NoUsableIndex(String),
    /// A SQL statement failed to lex, parse, lower, or bind.
    Sql(SqlError),
    /// `register_index` was called with a name that is already registered.
    DuplicateIndex(String),
    /// A WAL batch payload failed to decode during replay, or the log
    /// disagrees with the store about what was committed.
    CorruptWal(&'static str),
    /// An ingest batch was rejected before logging (empty, or malformed
    /// document input).
    Ingest(String),
    /// A reopened file's saved counters are missing or disagree with its
    /// rows: it is not a saved store as it stood at its last save.
    StoreMismatch(&'static str),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Pattern(e) => write!(f, "bad pattern: {e}"),
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::Sfa(e) => write!(f, "corrupt SFA blob: {e}"),
            QueryError::MissingRepresentation(r) => {
                write!(f, "store has no {r} representation loaded")
            }
            QueryError::NotAnchored(p) => {
                write!(f, "pattern {p:?} has no left anchor; use a filescan")
            }
            QueryError::TermNotInDictionary(t) => {
                write!(f, "anchor term {t:?} is not in the index dictionary")
            }
            QueryError::NoUsableIndex(why) => {
                write!(f, "index probe is not executable: {why}")
            }
            QueryError::Sql(e) => write!(f, "SQL error: {e}"),
            QueryError::DuplicateIndex(name) => {
                write!(f, "an index named {name:?} is already registered")
            }
            QueryError::CorruptWal(why) => write!(f, "corrupt write-ahead log: {why}"),
            QueryError::Ingest(why) => write!(f, "ingest rejected: {why}"),
            QueryError::StoreMismatch(why) => write!(f, "store does not match its save: {why}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Pattern(e) => Some(e),
            QueryError::Storage(e) => Some(e),
            QueryError::Sfa(e) => Some(e),
            QueryError::Sql(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for QueryError {
    fn from(e: PatternError) -> Self {
        QueryError::Pattern(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

impl From<SfaError> for QueryError {
    fn from(e: SfaError) -> Self {
        QueryError::Sfa(e)
    }
}

impl From<SqlError> for QueryError {
    fn from(e: SqlError) -> Self {
        QueryError::Sql(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: QueryError = PatternError {
            position: 0,
            message: "x".into(),
        }
        .into();
        assert!(e.to_string().contains("bad pattern"));
        let e: QueryError = StorageError::PoolExhausted.into();
        assert!(e.to_string().contains("storage"));
        let e: QueryError = SfaError::BadMagic.into();
        assert!(e.to_string().contains("SFA"));
        assert!(QueryError::NotAnchored("(a|b)".into())
            .to_string()
            .contains("anchor"));
    }
}
