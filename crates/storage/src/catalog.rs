//! The catalog: named tables and indexes bound to their root pages, plus
//! the [`Database`] facade tying pool + catalog together.
//!
//! Layout: page 0 is the database anchor — magic bytes and the page id of
//! the serialized catalog blob. [`Database::save`] rewrites the catalog
//! blob and repoints the anchor (superseded catalog pages are leaked; a
//! vacuum pass is future work, as it was for the paper's prototype).

use crate::blob::BlobStore;
use crate::btree::BTree;
use crate::disk::{Disk, FileDisk, MemDisk};
use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::pager::BufferPool;
use crate::row::{ColumnType, Schema};
use crate::{PageId, NO_PAGE};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

const MAGIC: &[u8; 4] = b"STDB";

/// A table's catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// First page of the heap file.
    pub first_page: PageId,
}

/// An index's catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name.
    pub name: String,
    /// Meta page of the B+-tree.
    pub meta_page: PageId,
}

/// The set of named objects in a database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, TableDef>,
    indexes: BTreeMap<String, IndexDef>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct CatReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CatReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.buf.len() - self.pos < n {
            return Err(StorageError::CorruptPage {
                page: 0,
                reason: "catalog truncated",
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, StorageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    fn string(&mut self) -> Result<String, StorageError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StorageError::CorruptPage {
            page: 0,
            reason: "catalog name not UTF-8",
        })
    }
}

impl Catalog {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.tables.len() as u16).to_le_bytes());
        for t in self.tables.values() {
            put_str(&mut out, &t.name);
            out.extend_from_slice(&(t.schema.cols.len() as u16).to_le_bytes());
            for (cn, ct) in &t.schema.cols {
                put_str(&mut out, cn);
                out.push(match ct {
                    ColumnType::Int => 0,
                    ColumnType::Float => 1,
                    ColumnType::Text => 2,
                    ColumnType::Blob => 3,
                    ColumnType::Bytes => 4,
                });
            }
            out.extend_from_slice(&t.first_page.to_le_bytes());
        }
        out.extend_from_slice(&(self.indexes.len() as u16).to_le_bytes());
        for i in self.indexes.values() {
            put_str(&mut out, &i.name);
            out.extend_from_slice(&i.meta_page.to_le_bytes());
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Catalog, StorageError> {
        let mut r = CatReader { buf, pos: 0 };
        let mut cat = Catalog::default();
        let ntables = r.u16()?;
        for _ in 0..ntables {
            let name = r.string()?;
            let ncols = r.u16()?;
            let mut cols = Vec::with_capacity(ncols as usize);
            for _ in 0..ncols {
                let cn = r.string()?;
                let ct = match r.take(1)?[0] {
                    0 => ColumnType::Int,
                    1 => ColumnType::Float,
                    2 => ColumnType::Text,
                    3 => ColumnType::Blob,
                    4 => ColumnType::Bytes,
                    _ => {
                        return Err(StorageError::CorruptPage {
                            page: 0,
                            reason: "unknown column type",
                        })
                    }
                };
                cols.push((cn, ct));
            }
            let first_page = r.u64()?;
            cat.tables.insert(
                name.clone(),
                TableDef {
                    name,
                    schema: Schema { cols },
                    first_page,
                },
            );
        }
        let nindexes = r.u16()?;
        for _ in 0..nindexes {
            let name = r.string()?;
            let meta_page = r.u64()?;
            cat.indexes
                .insert(name.clone(), IndexDef { name, meta_page });
        }
        Ok(cat)
    }
}

/// A database: buffer pool + catalog.
pub struct Database {
    pool: BufferPool,
    catalog: Mutex<Catalog>,
    /// One heap handle per table for the life of the database, so every
    /// [`Database::table`] caller shares its tail hint. Taken after
    /// `catalog`.
    heaps: Mutex<HashMap<String, HeapFile>>,
}

impl Database {
    fn bootstrap(disk: Box<dyn Disk>, frames: usize) -> Result<Database, StorageError> {
        let pool = BufferPool::new(disk, frames);
        // Page 0: anchor.
        let p0 = pool.allocate()?;
        debug_assert_eq!(p0, 0);
        let mut anchor = pool.fetch_write(0)?;
        anchor[0..4].copy_from_slice(MAGIC);
        anchor[4..12].copy_from_slice(&NO_PAGE.to_le_bytes());
        drop(anchor);
        Ok(Database {
            pool,
            catalog: Mutex::new(Catalog::default()),
            heaps: Mutex::new(HashMap::new()),
        })
    }

    /// Create an in-memory database (tests, CPU-bound experiments).
    pub fn in_memory(frames: usize) -> Result<Database, StorageError> {
        Self::bootstrap(Box::new(MemDisk::new()), frames)
    }

    /// Create a file-backed database, truncating any existing file.
    pub fn create(path: impl AsRef<Path>, frames: usize) -> Result<Database, StorageError> {
        Self::bootstrap(Box::new(FileDisk::create(path)?), frames)
    }

    /// Open an existing file-backed database and load its catalog.
    pub fn open(path: impl AsRef<Path>, frames: usize) -> Result<Database, StorageError> {
        let pool = BufferPool::new(Box::new(FileDisk::open(path)?), frames);
        let anchor = pool.fetch_read(0)?;
        if &anchor[0..4] != MAGIC {
            return Err(StorageError::CorruptPage {
                page: 0,
                reason: "bad database magic",
            });
        }
        let cat_blob = u64::from_le_bytes(anchor[4..12].try_into().expect("len"));
        drop(anchor);
        let catalog = if cat_blob == NO_PAGE {
            Catalog::default()
        } else {
            Catalog::decode(&BlobStore::get(&pool, cat_blob)?)?
        };
        Ok(Database {
            pool,
            catalog: Mutex::new(catalog),
            heaps: Mutex::new(HashMap::new()),
        })
    }

    /// The buffer pool (for direct heap/btree/blob operations).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Create a table; errors if the name exists.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<HeapFile, StorageError> {
        let mut cat = self.catalog.lock();
        if cat.tables.contains_key(name) {
            return Err(StorageError::DuplicateObject(name.to_string()));
        }
        let heap = HeapFile::create(&self.pool)?;
        cat.tables.insert(
            name.to_string(),
            TableDef {
                name: name.to_string(),
                schema,
                first_page: heap.first_page(),
            },
        );
        self.heaps.lock().insert(name.to_string(), heap.clone());
        Ok(heap)
    }

    /// Look up a table. The heap handle shares its tail hint with every
    /// other handle to the table, so appends start at the last page.
    pub fn table(&self, name: &str) -> Result<(Schema, HeapFile), StorageError> {
        let cat = self.catalog.lock();
        let def = cat
            .tables
            .get(name)
            .ok_or_else(|| StorageError::NoSuchObject(name.to_string()))?;
        let heap = self
            .heaps
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| HeapFile::open(def.first_page))
            .clone();
        Ok((def.schema.clone(), heap))
    }

    /// Create a B+-tree index; errors if the name exists.
    pub fn create_index(&self, name: &str) -> Result<BTree, StorageError> {
        let mut cat = self.catalog.lock();
        if cat.indexes.contains_key(name) {
            return Err(StorageError::DuplicateObject(name.to_string()));
        }
        let tree = BTree::create(&self.pool)?;
        cat.indexes.insert(
            name.to_string(),
            IndexDef {
                name: name.to_string(),
                meta_page: tree.meta_page(),
            },
        );
        Ok(tree)
    }

    /// Look up an index.
    pub fn index(&self, name: &str) -> Result<BTree, StorageError> {
        let cat = self.catalog.lock();
        let def = cat
            .indexes
            .get(name)
            .ok_or_else(|| StorageError::NoSuchObject(name.to_string()))?;
        Ok(BTree::open(def.meta_page))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.lock().tables.keys().cloned().collect()
    }

    /// Names of all indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.catalog.lock().indexes.keys().cloned().collect()
    }

    /// Persist the catalog and flush every dirty page. The catalog is
    /// written to a fresh blob only when it differs from the anchored one
    /// (after DDL): an unchanged catalog costs no page.
    pub fn save(&self) -> Result<(), StorageError> {
        let encoded = self.catalog.lock().encode();
        let anchored = u64::from_le_bytes(self.pool.fetch_read(0)?[4..12].try_into().expect("len"));
        if anchored == NO_PAGE || BlobStore::get(&self.pool, anchored)? != encoded {
            let blob = BlobStore::put(&self.pool, &encoded)?;
            let mut anchor = self.pool.fetch_write(0)?;
            anchor[4..12].copy_from_slice(&blob.to_le_bytes());
        }
        self.pool.flush_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{decode_row, encode_row, Value};

    fn claims_schema() -> Schema {
        Schema::new(&[
            ("DocID", ColumnType::Int),
            ("Year", ColumnType::Int),
            ("Loss", ColumnType::Float),
            ("DocData", ColumnType::Blob),
        ])
    }

    #[test]
    fn create_and_use_table_in_memory() {
        let db = Database::in_memory(32).unwrap();
        let heap = db.create_table("Claims", claims_schema()).unwrap();
        let (schema, _) = db.table("Claims").unwrap();
        let row = vec![
            Value::Int(1),
            Value::Int(2010),
            Value::Float(5.0),
            Value::Blob(0),
        ];
        let rid = heap
            .insert(db.pool(), &encode_row(&schema, &row).unwrap())
            .unwrap();
        let bytes = heap.get(db.pool(), rid).unwrap();
        assert_eq!(decode_row(&schema, &bytes).unwrap(), row);
    }

    #[test]
    fn duplicate_names_rejected() {
        let db = Database::in_memory(32).unwrap();
        db.create_table("t", claims_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", claims_schema()),
            Err(StorageError::DuplicateObject(_))
        ));
        db.create_index("i").unwrap();
        assert!(matches!(
            db.create_index("i"),
            Err(StorageError::DuplicateObject(_))
        ));
    }

    #[test]
    fn missing_objects_error() {
        let db = Database::in_memory(32).unwrap();
        assert!(matches!(
            db.table("nope"),
            Err(StorageError::NoSuchObject(_))
        ));
        assert!(matches!(
            db.index("nope"),
            Err(StorageError::NoSuchObject(_))
        ));
    }

    #[test]
    fn catalog_roundtrips_through_bytes() {
        let mut cat = Catalog::default();
        cat.tables.insert(
            "Claims".into(),
            TableDef {
                name: "Claims".into(),
                schema: claims_schema(),
                first_page: 7,
            },
        );
        cat.tables.insert(
            "Graph".into(),
            TableDef {
                name: "Graph".into(),
                schema: Schema::new(&[("Key", ColumnType::Int), ("Syn", ColumnType::Bytes)]),
                first_page: 8,
            },
        );
        cat.indexes.insert(
            "inv".into(),
            IndexDef {
                name: "inv".into(),
                meta_page: 9,
            },
        );
        let bytes = cat.encode();
        assert_eq!(Catalog::decode(&bytes).unwrap(), cat);
    }

    #[test]
    fn save_and_reopen_from_file() {
        let dir = std::env::temp_dir().join(format!("staccato-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cat.db");
        let rid;
        {
            let db = Database::create(&path, 32).unwrap();
            let heap = db
                .create_table(
                    "MasterData",
                    Schema::new(&[
                        ("DataKey", ColumnType::Int),
                        ("DocName", ColumnType::Text),
                        ("SFANum", ColumnType::Int),
                    ]),
                )
                .unwrap();
            let schema = db.table("MasterData").unwrap().0;
            let row = vec![
                Value::Int(1),
                Value::Text("CA_doc_000".into()),
                Value::Int(17),
            ];
            rid = heap
                .insert(db.pool(), &encode_row(&schema, &row).unwrap())
                .unwrap();
            let idx = db.create_index("pk").unwrap();
            idx.insert(db.pool(), b"1", rid.to_u64()).unwrap();
            db.save().unwrap();
        }
        {
            let db = Database::open(&path, 32).unwrap();
            assert_eq!(db.table_names(), vec!["MasterData".to_string()]);
            assert_eq!(db.index_names(), vec!["pk".to_string()]);
            let (schema, heap) = db.table("MasterData").unwrap();
            let idx = db.index("pk").unwrap();
            let found = idx.get(db.pool(), b"1").unwrap().unwrap();
            let bytes = heap
                .get(db.pool(), crate::heap::Rid::from_u64(found))
                .unwrap();
            let row = decode_row(&schema, &bytes).unwrap();
            assert_eq!(row[1].as_text(), Some("CA_doc_000"));
            assert_eq!(row[2].as_int(), Some(17));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_non_database_file() {
        let dir = std::env::temp_dir().join(format!("staccato-db-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.db");
        std::fs::write(&path, vec![0u8; crate::PAGE_SIZE]).unwrap();
        assert!(matches!(
            Database::open(&path, 16),
            Err(StorageError::CorruptPage { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_twice_keeps_latest_catalog() {
        let dir = std::env::temp_dir().join(format!("staccato-db2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.db");
        {
            let db = Database::create(&path, 32).unwrap();
            db.create_table("a", claims_schema()).unwrap();
            db.save().unwrap();
            db.create_table("b", claims_schema()).unwrap();
            db.save().unwrap();
        }
        let db = Database::open(&path, 32).unwrap();
        assert_eq!(db.table_names(), vec!["a".to_string(), "b".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
