//! The page-device abstraction: fixed-size pages addressed by id.

use crate::error::StorageError;
use crate::PageId;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Page size in bytes. 8 KiB, PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

/// A device that stores fixed-size pages.
pub trait Disk: Send {
    /// Read page `pid` into `buf` (`buf.len() == PAGE_SIZE`).
    fn read_page(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), StorageError>;
    /// Write `buf` to page `pid`.
    fn write_page(&mut self, pid: PageId, buf: &[u8]) -> Result<(), StorageError>;
    /// Append a zeroed page, returning its id.
    fn allocate(&mut self) -> Result<PageId, StorageError>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Flush to durable storage.
    fn sync(&mut self) -> Result<(), StorageError>;
}

/// An in-memory device — for tests and for experiments that want to
/// isolate CPU cost from the filesystem.
#[derive(Default)]
pub struct MemDisk {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl MemDisk {
    /// Create an empty in-memory device.
    pub fn new() -> Self {
        MemDisk::default()
    }
}

impl Disk for MemDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        let page = self
            .pages
            .get(pid as usize)
            .ok_or(StorageError::PageOutOfBounds(pid))?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8]) -> Result<(), StorageError> {
        let page = self
            .pages
            .get_mut(pid as usize)
            .ok_or(StorageError::PageOutOfBounds(pid))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(self.pages.len() as PageId - 1)
    }

    fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// A single-file device, one page per `PAGE_SIZE` slice of the file.
///
/// [`Disk::allocate`] only counts the page. The file grows to every
/// allocated page with one `set_len` at the first write or
/// [`Disk::sync`] that needs it, so no write extends the file and a run
/// of allocations costs no `ftruncate` each. An allocated page the file
/// does not reach yet reads as zeros, as the extension would.
pub struct FileDisk {
    file: File,
    /// Pages allocated, written or not.
    pages: u64,
    /// Pages the file holds (`len <= pages`).
    len: u64,
}

impl FileDisk {
    /// Create (truncating) a database file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            file,
            pages: 0,
            len: 0,
        })
    }

    /// Open an existing database file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::CorruptPage {
                page: len / PAGE_SIZE as u64,
                reason: "file length is not a multiple of the page size",
            });
        }
        let pages = len / PAGE_SIZE as u64;
        Ok(FileDisk {
            file,
            pages,
            len: pages,
        })
    }

    fn check(&self, pid: PageId) -> Result<(), StorageError> {
        if pid >= self.pages {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        Ok(())
    }

    /// Extend the file to every allocated page in one `set_len`; the
    /// extension reads as zeros.
    fn grow(&mut self) -> Result<(), StorageError> {
        if self.len < self.pages {
            self.file.set_len(self.pages * PAGE_SIZE as u64)?;
            self.len = self.pages;
        }
        Ok(())
    }
}

impl Disk for FileDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.check(pid)?;
        if pid >= self.len {
            buf.fill(0);
            return Ok(());
        }
        self.file.seek(SeekFrom::Start(pid * PAGE_SIZE as u64))?;
        self.file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&mut self, pid: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.check(pid)?;
        if pid >= self.len {
            self.grow()?;
        }
        self.file.seek(SeekFrom::Start(pid * PAGE_SIZE as u64))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    /// Count the page, touching no file: the buffer pool installs it as a
    /// zeroed dirty frame ([`crate::BufferPool::allocate`]), so its
    /// bytes reach the file at eviction or at the next flush, which grows
    /// the file first.
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.pages += 1;
        Ok(self.pages - 1)
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.grow()?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &mut dyn Disk) {
        let p0 = disk.allocate().unwrap();
        let p1 = disk.allocate().unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(disk.page_count(), 2);

        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        disk.write_page(p1, &buf).unwrap();

        let mut out = vec![0u8; PAGE_SIZE];
        disk.read_page(p1, &mut out).unwrap();
        assert_eq!(out, buf);
        // Page 0 stays zeroed.
        disk.read_page(p0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));

        assert!(matches!(
            disk.read_page(99, &mut out),
            Err(StorageError::PageOutOfBounds(99))
        ));
        disk.sync().unwrap();
    }

    #[test]
    fn memdisk_roundtrip() {
        exercise(&mut MemDisk::new());
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("staccato-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.db");
        {
            let mut d = FileDisk::create(&path).unwrap();
            exercise(&mut d);
        }
        {
            let mut d = FileDisk::open(&path).unwrap();
            assert_eq!(d.page_count(), 2);
            let mut out = vec![0u8; PAGE_SIZE];
            d.read_page(1, &mut out).unwrap();
            assert_eq!(out[0], 0xAB);
            assert_eq!(out[PAGE_SIZE - 1], 0xCD);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh database file under the temp dir, and its length.
    fn temp_file(tag: &str) -> (std::path::PathBuf, impl Fn() -> u64) {
        let path =
            std::env::temp_dir().join(format!("staccato-disk-{tag}-{}.db", std::process::id()));
        let probe = path.clone();
        (path, move || std::fs::metadata(&probe).unwrap().len())
    }

    #[test]
    fn filedisk_allocate_leaves_the_file_length_unchanged() {
        let (path, file_len) = temp_file("alloc");
        let mut d = FileDisk::create(&path).unwrap();
        for n in 0..3 {
            assert_eq!(d.allocate().unwrap(), n);
            assert_eq!(file_len(), 0);
        }
        assert_eq!(d.page_count(), 3);
        // Allocated and never written: zeros, though the file is empty.
        let mut out = vec![0xFFu8; PAGE_SIZE];
        d.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert!(matches!(
            d.read_page(3, &mut out),
            Err(StorageError::PageOutOfBounds(3))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filedisk_first_write_back_grows_the_file_to_every_allocated_page() {
        let (path, file_len) = temp_file("grow");
        let page = PAGE_SIZE as u64;
        {
            let mut d = FileDisk::create(&path).unwrap();
            for _ in 0..4 {
                d.allocate().unwrap();
            }
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[0] = 0x5A;
            d.write_page(1, &buf).unwrap();
            assert_eq!(file_len(), 4 * page, "one step to every allocated page");
            d.write_page(3, &buf).unwrap();
            assert_eq!(file_len(), 4 * page);
            // Pages 0 and 2 were allocated and never written.
            let mut out = vec![0xFFu8; PAGE_SIZE];
            for pid in [0, 2] {
                d.read_page(pid, &mut out).unwrap();
                assert!(out.iter().all(|&b| b == 0), "page {pid}");
            }
            d.allocate().unwrap();
            assert_eq!(file_len(), 4 * page);
        }
        // The fifth page never reached the file: a reopen counts four.
        let mut d = FileDisk::open(&path).unwrap();
        assert_eq!(d.page_count(), 4);
        let mut out = vec![0u8; PAGE_SIZE];
        d.read_page(3, &mut out).unwrap();
        assert_eq!(out[0], 0x5A);
        d.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filedisk_sync_grows_the_file_to_every_allocated_page() {
        let (path, file_len) = temp_file("sync");
        {
            let mut d = FileDisk::create(&path).unwrap();
            for _ in 0..3 {
                d.allocate().unwrap();
            }
            assert_eq!(file_len(), 0);
            d.sync().unwrap();
            assert_eq!(file_len(), 3 * PAGE_SIZE as u64);
        }
        let mut d = FileDisk::open(&path).unwrap();
        assert_eq!(d.page_count(), 3);
        let mut out = vec![0xFFu8; PAGE_SIZE];
        d.read_page(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn filedisk_open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("staccato-disk-rg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(matches!(
            FileDisk::open(&path),
            Err(StorageError::CorruptPage { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
