//! Storage-engine error type.

use std::fmt;

/// Errors from the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A page id beyond the end of the device.
    PageOutOfBounds(u64),
    /// A page's content violates its expected layout.
    CorruptPage { page: u64, reason: &'static str },
    /// A tuple is too large to ever fit in a page.
    TupleTooLarge { size: usize, max: usize },
    /// A RID pointed at a missing tuple.
    TupleNotFound { page: u64, slot: u16 },
    /// The buffer pool has no evictable frame (everything is pinned).
    PoolExhausted,
    /// A named catalog object does not exist.
    NoSuchObject(String),
    /// A catalog object with this name already exists.
    DuplicateObject(String),
    /// Row bytes did not match the declared schema.
    SchemaMismatch(&'static str),
    /// A blob chain is malformed (cycle or truncation).
    CorruptBlob { first_page: u64 },
    /// The file was written in a format this build no longer reads; load
    /// it again from its source.
    OldFormat(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::PageOutOfBounds(p) => write!(f, "page {p} is out of bounds"),
            StorageError::CorruptPage { page, reason } => {
                write!(f, "corrupt page {page}: {reason}")
            }
            StorageError::TupleTooLarge { size, max } => {
                write!(f, "tuple of {size} bytes exceeds page capacity {max}")
            }
            StorageError::TupleNotFound { page, slot } => {
                write!(f, "no tuple at rid ({page}, {slot})")
            }
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted: all frames pinned"),
            StorageError::NoSuchObject(n) => write!(f, "no table or index named {n:?}"),
            StorageError::DuplicateObject(n) => write!(f, "object {n:?} already exists"),
            StorageError::SchemaMismatch(m) => write!(f, "row does not match schema: {m}"),
            StorageError::CorruptBlob { first_page } => {
                write!(f, "corrupt blob chain starting at page {first_page}")
            }
            StorageError::OldFormat(what) => write!(f, "{what}; reload it from its source"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<StorageError> = vec![
            StorageError::PageOutOfBounds(9),
            StorageError::CorruptPage {
                page: 1,
                reason: "bad slot",
            },
            StorageError::TupleTooLarge {
                size: 9000,
                max: 8000,
            },
            StorageError::TupleNotFound { page: 2, slot: 3 },
            StorageError::PoolExhausted,
            StorageError::NoSuchObject("t".into()),
            StorageError::DuplicateObject("t".into()),
            StorageError::SchemaMismatch("short row"),
            StorageError::CorruptBlob { first_page: 5 },
            StorageError::OldFormat("old file"),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
