//! Heap files: unordered tuple storage over a linked chain of slotted
//! pages, addressed by RID (page, slot) — the layout behind every table in
//! the paper's Table 5 schema.

use crate::error::StorageError;
use crate::page::SlottedPage;
use crate::pager::BufferPool;
use crate::{PageId, NO_PAGE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record id: a physical tuple address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page id.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Pack into a u64 for storage in index values (page in the high 48
    /// bits, slot in the low 16).
    pub fn to_u64(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Unpack from [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid {
            page: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// A heap file rooted at its first page. Clones share one tail hint, so
/// a handle kept for the life of a database (see
/// [`crate::Database::table`]) appends in O(1) pages.
#[derive(Clone)]
pub struct HeapFile {
    first: PageId,
    /// The last page of the chain, where every append goes. A fresh
    /// handle starts at the first page; its first insert walks on to the
    /// tail once under read latches, and every clone starts there from
    /// then on. Only a hint: any page of the chain is a correct start.
    last_hint: Arc<AtomicU64>,
}

impl HeapFile {
    /// Create a fresh heap file (allocates and initializes its first page).
    pub fn create(pool: &BufferPool) -> Result<HeapFile, StorageError> {
        let first = pool.allocate()?;
        let mut page = pool.fetch_write(first)?;
        SlottedPage::init(&mut page);
        Ok(HeapFile::open(first))
    }

    /// Reopen a heap file by its first page (from the catalog).
    pub fn open(first: PageId) -> HeapFile {
        HeapFile {
            first,
            last_hint: Arc::new(AtomicU64::new(first)),
        }
    }

    /// The first page (persisted in the catalog).
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// Append a tuple to the last page, growing the chain when it is
    /// full. Only the tail page is write-latched (and dirtied), and rows
    /// land in insertion order: a later row never fills a gap in an
    /// earlier page, so rows inserted together stay clustered.
    pub fn insert(&self, pool: &BufferPool, tuple: &[u8]) -> Result<Rid, StorageError> {
        if tuple.len() > crate::page::MAX_TUPLE {
            return Err(StorageError::TupleTooLarge {
                size: tuple.len(),
                max: crate::page::MAX_TUPLE,
            });
        }
        let mut pid = self.last_hint.load(Ordering::Relaxed);
        loop {
            let mut page = pool.fetch_write(pid)?;
            let mut sp = SlottedPage::new(&mut page);
            let next = sp.next();
            if next != NO_PAGE {
                // The hint is behind the tail (a fresh handle, or another
                // handle's append): find the tail without write-latching
                // the pages in between.
                drop(page);
                pid = walk(pool, next)?.1;
                continue;
            }
            if let Some(slot) = sp.insert(tuple) {
                self.last_hint.store(pid, Ordering::Relaxed);
                return Ok(Rid { page: pid, slot });
            }
            // Grow the chain.
            let new_pid = pool.allocate()?;
            sp.set_next(new_pid);
            drop(page);
            let mut new_page = pool.fetch_write(new_pid)?;
            SlottedPage::init(&mut new_page);
            drop(new_page);
            pid = new_pid;
        }
    }

    /// Fetch a tuple by RID, under the page's read latch.
    pub fn get(&self, pool: &BufferPool, rid: Rid) -> Result<Vec<u8>, StorageError> {
        let page = pool.fetch_read(rid.page)?;
        crate::page::read_tuple(&page, rid.slot)
            .map(|b| b.to_vec())
            .map_err(|_| StorageError::TupleNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Delete a tuple by RID (tombstone).
    pub fn delete(&self, pool: &BufferPool, rid: Rid) -> Result<(), StorageError> {
        let mut page = pool.fetch_write(rid.page)?;
        let mut sp = SlottedPage::new(&mut page);
        sp.delete(rid.slot)
            .map_err(|_| StorageError::TupleNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Visit every tuple in chain order with *borrowed* bytes: each page
    /// is copied once into a reusable buffer, its latch released, and `f`
    /// called on tuple slices into that copy. The allocation-free sibling
    /// of [`HeapFile::scan`] for tight sequential scans — no per-row
    /// `Vec`, and `f` runs with no page pinned, so it may take as long as
    /// it likes without blocking writers or eviction.
    pub fn for_each_row<E: From<StorageError>>(
        &self,
        pool: &BufferPool,
        mut f: impl FnMut(Rid, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut copy: Box<[u8; crate::PAGE_SIZE]> = Box::new([0u8; crate::PAGE_SIZE]);
        let mut pid = self.first;
        while pid != NO_PAGE {
            {
                let page = pool.fetch_read(pid)?;
                copy.copy_from_slice(&page[..]);
            }
            let sp = SlottedPage::new(&mut copy);
            let next = sp.next();
            for (slot, bytes) in sp.iter() {
                f(Rid { page: pid, slot }, bytes)?;
            }
            pid = next;
        }
        Ok(())
    }

    /// Full scan in chain order. Tuples are copied out page by page, so
    /// the iterator holds no page pins between steps.
    pub fn scan<'p>(&self, pool: &'p BufferPool) -> HeapScan<'p> {
        HeapScan {
            pool,
            next_page: self.first,
            buffer: Vec::new(),
            pos: 0,
            failed: false,
        }
    }
}

/// Iterator over `(Rid, tuple bytes)` of a heap file.
pub struct HeapScan<'p> {
    pool: &'p BufferPool,
    next_page: PageId,
    buffer: Vec<(Rid, Vec<u8>)>,
    pos: usize,
    failed: bool,
}

impl Iterator for HeapScan<'_> {
    type Item = Result<(Rid, Vec<u8>), StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if self.pos < self.buffer.len() {
                let item = self.buffer[self.pos].clone();
                self.pos += 1;
                return Some(Ok(item));
            }
            if self.next_page == NO_PAGE {
                return None;
            }
            let pid = self.next_page;
            let mut page = match self.pool.fetch_write(pid) {
                Ok(p) => p,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            let sp = SlottedPage::new(&mut page);
            self.buffer = sp
                .iter()
                .map(|(slot, t)| (Rid { page: pid, slot }, t.to_vec()))
                .collect();
            self.pos = 0;
            self.next_page = sp.next();
        }
    }
}

/// Number of pages a heap file occupies (walks the chain, read-only).
pub fn chain_length(pool: &BufferPool, first: PageId) -> Result<u64, StorageError> {
    if first == NO_PAGE {
        return Ok(0);
    }
    Ok(walk(pool, first)?.0)
}

/// Follow a page chain from `first` under read latches: the number of
/// pages and the last one.
fn walk(pool: &BufferPool, first: PageId) -> Result<(u64, PageId), StorageError> {
    let limit = pool.page_count() + 1;
    let (mut n, mut pid) = (1, first);
    loop {
        let next = crate::page::read_next(&*pool.fetch_read(pid)?);
        if next == NO_PAGE {
            return Ok((n, pid));
        }
        n += 1;
        if n > limit {
            return Err(StorageError::CorruptPage {
                page: next,
                reason: "page chain cycle",
            });
        }
        pid = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::disk::PAGE_SIZE;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new()), 16)
    }

    #[test]
    fn insert_get_roundtrip() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let r1 = heap.insert(&pool, b"alpha").unwrap();
        let r2 = heap.insert(&pool, b"beta").unwrap();
        assert_eq!(heap.get(&pool, r1).unwrap(), b"alpha");
        assert_eq!(heap.get(&pool, r2).unwrap(), b"beta");
    }

    #[test]
    fn for_each_row_matches_scan() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        for i in 0..120u32 {
            // Mixed sizes so rows cross page boundaries.
            let t = vec![i as u8; 40 + (i as usize % 500)];
            heap.insert(&pool, &t).unwrap();
        }
        let scanned: Vec<(Rid, Vec<u8>)> = heap
            .scan(&pool)
            .collect::<Result<_, StorageError>>()
            .unwrap();
        let mut visited = Vec::new();
        heap.for_each_row(&pool, |rid, bytes| -> Result<(), StorageError> {
            visited.push((rid, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, scanned);
        // Early error stops the walk and surfaces through `E`.
        let mut seen = 0;
        let err = heap.for_each_row(&pool, |_, _| -> Result<(), StorageError> {
            seen += 1;
            if seen == 3 {
                Err(StorageError::SchemaMismatch("stop"))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(seen, 3);
    }

    #[test]
    fn grows_across_pages_and_scans_in_order() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let tuple = vec![9u8; 1000];
        let n = 50; // 50 KB ≫ one page
        let mut rids = Vec::new();
        for i in 0..n {
            let mut t = tuple.clone();
            t[0] = i as u8;
            rids.push(heap.insert(&pool, &t).unwrap());
        }
        assert!(chain_length(&pool, heap.first_page()).unwrap() >= 7);
        let scanned: Vec<(Rid, Vec<u8>)> = heap.scan(&pool).collect::<Result<_, _>>().unwrap();
        assert_eq!(scanned.len(), n);
        for (i, (rid, t)) in scanned.iter().enumerate() {
            assert_eq!(*rid, rids[i]);
            assert_eq!(t[0], i as u8);
        }
    }

    #[test]
    fn delete_hides_from_scan_and_get() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let a = heap.insert(&pool, b"a").unwrap();
        let b = heap.insert(&pool, b"b").unwrap();
        heap.delete(&pool, a).unwrap();
        assert!(heap.get(&pool, a).is_err());
        let left: Vec<Vec<u8>> = heap.scan(&pool).map(|r| r.unwrap().1).collect();
        assert_eq!(left, vec![b"b".to_vec()]);
        assert_eq!(heap.get(&pool, b).unwrap(), b"b");
    }

    #[test]
    fn oversized_tuple_rejected() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        let e = heap.insert(&pool, &vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(e, StorageError::TupleTooLarge { .. }));
    }

    #[test]
    fn reopen_by_first_page() {
        let pool = pool();
        let first;
        {
            let heap = HeapFile::create(&pool).unwrap();
            first = heap.first_page();
            heap.insert(&pool, b"persisted").unwrap();
        }
        let heap = HeapFile::open(first);
        let all: Vec<Vec<u8>> = heap.scan(&pool).map(|r| r.unwrap().1).collect();
        assert_eq!(all, vec![b"persisted".to_vec()]);
    }

    #[test]
    fn rid_u64_roundtrip() {
        let rid = Rid {
            page: 123_456,
            slot: 789,
        };
        assert_eq!(Rid::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let pool = pool();
        let heap = HeapFile::create(&pool).unwrap();
        assert_eq!(heap.scan(&pool).count(), 0);
    }
}
