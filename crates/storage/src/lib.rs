//! # staccato-storage
//!
//! A from-scratch mini-RDBMS storage engine standing in for the
//! PostgreSQL 9.0.3 instance the paper ran on (§5: "implemented in C++
//! using PostgreSQL"). Everything the experiments exercise is here:
//!
//! * [`disk`] — the page-device abstraction (file-backed or in-memory);
//! * [`pager`] — an 8 KiB-page buffer pool with LRU eviction, pinning, and
//!   I/O statistics (the experiments' cost asymmetry between reading MAP
//!   tuples and multi-gigabyte FullSFA blobs is an I/O-volume effect, so
//!   the pool counts every disk read/write), its frame table split into
//!   shards of one read-write lock each and its pages handed out as
//!   `Arc` snapshots;
//! * [`page`] — slotted-page layout for variable-length tuples;
//! * [`heap`] — heap files (linked page chains) with RID addressing;
//! * [`btree`] — a page-based B+-tree over byte-string keys, used for the
//!   primary keys of Table 5 and the inverted-index table of §5.3 ("we
//!   implement the index as a relational table with a B+-tree on top");
//! * [`blob`] — multi-page large objects, the Postgres `OID` analogue that
//!   stores `SFABlob` / `GraphBlob`;
//! * [`row`] — typed values and row (de)serialization;
//! * [`catalog`] — named tables/indexes bound to their root pages,
//!   persisted in the database file;
//! * [`wal`] — an append-only write-ahead log (CRC-framed records in
//!   rotating segment files) backing the query layer's ingest path and
//!   crash recovery.

#![forbid(unsafe_code)]

pub mod blob;
pub mod btree;
pub mod catalog;
pub mod disk;
pub mod error;
pub mod heap;
pub mod page;
pub mod pager;
pub mod row;
pub mod wal;

pub use blob::BlobStore;
pub use btree::BTree;
pub use catalog::{Catalog, Database, TableDef};
pub use disk::{Disk, FileDisk, MemDisk, PAGE_SIZE};
pub use error::StorageError;
pub use heap::{HeapFile, HeapScan, Rid};
pub use pager::{BufferPool, PoolStats};
pub use row::{ColumnType, Row, RowReader, Schema, Value};
pub use wal::{FlushTicket, SyncPolicy, Wal, WalFlusher, WalRecords, WalStats};

/// Identifier of a page on disk.
pub type PageId = u64;

/// Sentinel for "no page".
pub const NO_PAGE: PageId = u64::MAX;
