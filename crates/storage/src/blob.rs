//! Large-object storage: byte strings of arbitrary length as page chains.
//!
//! This is the analogue of PostgreSQL's large objects (the `OID` columns
//! of Table 5): `FullSFAData.SFABlob` and `StaccatoGraph.GraphBlob` are
//! stored here. A blob id is the id of its first page.
//!
//! Page layout: `[next u64][len u32][payload …]`, so a blob of `n` bytes
//! takes `⌈n / 8 180⌉` pages. On the benchmark corpus a FullSFA line blob
//! is ≈ 12 KB, two pages, and a Staccato one ≈ 4 KB, one page; the
//! paper's FullSFA baseline pays this I/O amplification in proportion.

use crate::error::StorageError;
use crate::pager::BufferPool;
use crate::{PageId, NO_PAGE, PAGE_SIZE};

const HEADER: usize = 12;
/// Payload bytes per blob page.
pub const BLOB_PAYLOAD: usize = PAGE_SIZE - HEADER;

/// Stateless accessor for blob chains.
pub struct BlobStore;

impl BlobStore {
    /// Store `bytes`, returning the blob id.
    pub fn put(pool: &BufferPool, bytes: &[u8]) -> Result<PageId, StorageError> {
        let chunks: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[][..]]
        } else {
            bytes.chunks(BLOB_PAYLOAD).collect()
        };
        // Allocate the whole chain first so `next` pointers are known.
        let mut pids = Vec::with_capacity(chunks.len());
        for _ in 0..chunks.len() {
            pids.push(pool.allocate()?);
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let mut page = pool.fetch_write(pids[i])?;
            let next = pids.get(i + 1).copied().unwrap_or(NO_PAGE);
            page[0..8].copy_from_slice(&next.to_le_bytes());
            page[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            page[HEADER..HEADER + chunk.len()].copy_from_slice(chunk);
        }
        Ok(pids[0])
    }

    /// Read a whole blob.
    pub fn get(pool: &BufferPool, id: PageId) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::new();
        Self::get_into(pool, id, &mut out)?;
        Ok(out)
    }

    /// Read a whole blob into a caller-owned buffer, which is cleared
    /// first. On a blob-table scan this keeps one warm buffer per worker
    /// instead of allocating (and growing) a fresh `Vec` per row.
    pub fn get_into(pool: &BufferPool, id: PageId, out: &mut Vec<u8>) -> Result<(), StorageError> {
        out.clear();
        Self::append_chain(pool, id, id, out)
    }

    /// Append the payloads of blob `id`'s chain from page `from` on.
    fn append_chain(
        pool: &BufferPool,
        id: PageId,
        from: PageId,
        out: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        let mut pid = from;
        let mut hops: u64 = 0;
        let limit = pool.page_count() + 1;
        while pid != NO_PAGE {
            hops += 1;
            if hops > limit {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            let page = pool.fetch_read(pid)?;
            let next = u64::from_le_bytes(page[0..8].try_into().expect("len"));
            let len = u32::from_le_bytes(page[8..12].try_into().expect("len")) as usize;
            if len > BLOB_PAYLOAD {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            out.extend_from_slice(&page[HEADER..HEADER + len]);
            pid = next;
        }
        Ok(())
    }

    /// Run `f` over a blob's bytes without materializing them when
    /// possible: a single-page blob (at most `BLOB_PAYLOAD`, 8 180 bytes —
    /// a Staccato line blob of the benchmark corpus) is borrowed straight
    /// from the buffer-pool page under its read latch; a longer chain — a
    /// FullSFA line blob — is assembled into `buf` first. `f` runs with
    /// the latch held, so it must not write through the same pool (reads
    /// of other pages are fine).
    pub fn with_blob<R>(
        pool: &BufferPool,
        id: PageId,
        buf: &mut Vec<u8>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StorageError> {
        let rest = {
            let page = pool.fetch_read(id)?;
            let next = u64::from_le_bytes(page[0..8].try_into().expect("len"));
            let len = u32::from_le_bytes(page[8..12].try_into().expect("len")) as usize;
            if len > BLOB_PAYLOAD {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            if next == NO_PAGE {
                return Ok(f(&page[HEADER..HEADER + len]));
            }
            // The first page is in hand: copy it out and follow the chain
            // from the second.
            buf.clear();
            buf.extend_from_slice(&page[HEADER..HEADER + len]);
            next
        };
        Self::append_chain(pool, id, rest, buf)?;
        Ok(f(buf))
    }

    /// Length of a blob in bytes without materializing it.
    pub fn len(pool: &BufferPool, id: PageId) -> Result<usize, StorageError> {
        let mut total = 0usize;
        let mut pid = id;
        let mut hops: u64 = 0;
        let limit = pool.page_count() + 1;
        while pid != NO_PAGE {
            hops += 1;
            if hops > limit {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            let page = pool.fetch_read(pid)?;
            let len = u32::from_le_bytes(page[8..12].try_into().expect("len")) as usize;
            if len > BLOB_PAYLOAD {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            total += len;
            pid = u64::from_le_bytes(page[0..8].try_into().expect("len"));
        }
        Ok(total)
    }

    /// Number of pages in a blob chain.
    pub fn page_span(pool: &BufferPool, id: PageId) -> Result<u64, StorageError> {
        let mut hops: u64 = 0;
        let mut pid = id;
        let limit = pool.page_count() + 1;
        while pid != NO_PAGE {
            hops += 1;
            if hops > limit {
                return Err(StorageError::CorruptBlob { first_page: id });
            }
            let page = pool.fetch_read(pid)?;
            pid = u64::from_le_bytes(page[0..8].try_into().expect("len"));
        }
        Ok(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemDisk::new()), 32)
    }

    #[test]
    fn small_blob_roundtrip() {
        let pool = pool();
        let id = BlobStore::put(&pool, b"tiny").unwrap();
        assert_eq!(BlobStore::get(&pool, id).unwrap(), b"tiny");
        assert_eq!(BlobStore::len(&pool, id).unwrap(), 4);
        assert_eq!(BlobStore::page_span(&pool, id).unwrap(), 1);
    }

    #[test]
    fn multi_page_blob_roundtrip() {
        let pool = pool();
        // ~600 kB, the paper's per-line SFA size.
        let data: Vec<u8> = (0..600_000u32).map(|i| (i % 251) as u8).collect();
        let id = BlobStore::put(&pool, &data).unwrap();
        assert_eq!(BlobStore::get(&pool, id).unwrap(), data);
        assert_eq!(BlobStore::len(&pool, id).unwrap(), data.len());
        let span = BlobStore::page_span(&pool, id).unwrap();
        assert_eq!(span, data.len().div_ceil(BLOB_PAYLOAD) as u64);
        assert!(span >= 73, "a 600 kB blob must span many pages, got {span}");
    }

    #[test]
    fn empty_blob_roundtrip() {
        let pool = pool();
        let id = BlobStore::put(&pool, b"").unwrap();
        assert_eq!(BlobStore::get(&pool, id).unwrap(), Vec::<u8>::new());
        assert_eq!(BlobStore::len(&pool, id).unwrap(), 0);
    }

    #[test]
    fn exact_boundary_sizes() {
        let pool = pool();
        for size in [
            BLOB_PAYLOAD - 1,
            BLOB_PAYLOAD,
            BLOB_PAYLOAD + 1,
            2 * BLOB_PAYLOAD,
        ] {
            let data = vec![7u8; size];
            let id = BlobStore::put(&pool, &data).unwrap();
            assert_eq!(
                BlobStore::get(&pool, id).unwrap().len(),
                size,
                "size {size}"
            );
        }
    }

    #[test]
    fn cyclic_chain_detected() {
        let pool = pool();
        let id = BlobStore::put(&pool, &vec![1u8; 2 * BLOB_PAYLOAD]).unwrap();
        // Corrupt: point the second page back at the first.
        {
            let first = pool.fetch_read(id).unwrap();
            let second = u64::from_le_bytes(first[0..8].try_into().unwrap());
            drop(first);
            let mut p = pool.fetch_write(second).unwrap();
            p[0..8].copy_from_slice(&id.to_le_bytes());
        }
        assert!(matches!(
            BlobStore::get(&pool, id),
            Err(StorageError::CorruptBlob { .. })
        ));
        assert!(matches!(
            BlobStore::len(&pool, id),
            Err(StorageError::CorruptBlob { .. })
        ));
    }

    #[test]
    fn corrupt_length_detected() {
        let pool = pool();
        let id = BlobStore::put(&pool, b"data").unwrap();
        {
            let mut p = pool.fetch_write(id).unwrap();
            p[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
        }
        assert!(matches!(
            BlobStore::get(&pool, id),
            Err(StorageError::CorruptBlob { .. })
        ));
    }
}
