//! Slotted-page layout for variable-length tuples.
//!
//! ```text
//! 0        8        10        12       14            free_start   free_end
//! [next u64][nslots ][free_st ][free_end][slot array →]  ...gap...  [←tuple data]
//! ```
//!
//! The first 8 bytes hold a `next page` pointer so heap files and blob
//! chains can link pages without a separate directory. Slots grow from the
//! low end after the header; tuple bytes grow downward from the page end.
//! Deleted slots are tombstoned (`offset == u16::MAX`) and their space is
//! reclaimed only on compaction (not implemented — the paper's workload is
//! append-then-scan).

use crate::disk::PAGE_SIZE;
use crate::error::StorageError;

const HEADER: usize = 14;
const SLOT_BYTES: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Largest tuple a single page can hold.
pub const MAX_TUPLE: usize = PAGE_SIZE - HEADER - SLOT_BYTES;

/// Read the tuple in `slot` of a slotted page held under a *read* latch
/// ([`SlottedPage`] needs `&mut`): point reads neither take the write
/// latch nor dirty the page.
pub(crate) fn read_tuple(buf: &[u8; PAGE_SIZE], slot: u16) -> Result<&[u8], StorageError> {
    let nslots = u16::from_le_bytes(buf[8..10].try_into().expect("len"));
    if slot >= nslots {
        return Err(StorageError::TupleNotFound { page: 0, slot });
    }
    let off = HEADER + slot as usize * SLOT_BYTES;
    let o = u16::from_le_bytes(buf[off..off + 2].try_into().expect("len"));
    let l = u16::from_le_bytes(buf[off + 2..off + 4].try_into().expect("len"));
    if o == TOMBSTONE {
        return Err(StorageError::TupleNotFound { page: 0, slot });
    }
    let (o, l) = (o as usize, l as usize);
    if o + l > PAGE_SIZE || o < HEADER {
        return Err(StorageError::CorruptPage {
            page: 0,
            reason: "slot out of range",
        });
    }
    Ok(&buf[o..o + l])
}

/// The `next page` pointer of a page held under a read latch.
pub(crate) fn read_next(buf: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(buf[0..8].try_into().expect("len"))
}

/// A slotted-page view over a page buffer.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8; PAGE_SIZE],
}

impl<'a> SlottedPage<'a> {
    /// Interpret `buf` as a slotted page (no validation; use [`Self::init`]
    /// for fresh pages).
    pub fn new(buf: &'a mut [u8; PAGE_SIZE]) -> Self {
        SlottedPage { buf }
    }

    /// Initialize a fresh page: no slots, no next pointer.
    pub fn init(buf: &'a mut [u8; PAGE_SIZE]) -> Self {
        buf.fill(0);
        let mut p = SlottedPage { buf };
        p.set_next(crate::NO_PAGE);
        p.set_nslots(0);
        p.set_free_start(HEADER as u16);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    /// The `next page` pointer.
    pub fn next(&self) -> u64 {
        u64::from_le_bytes(self.buf[0..8].try_into().expect("len"))
    }

    /// Set the `next page` pointer.
    pub fn set_next(&mut self, next: u64) {
        self.buf[0..8].copy_from_slice(&next.to_le_bytes());
    }

    fn nslots(&self) -> u16 {
        u16::from_le_bytes(self.buf[8..10].try_into().expect("len"))
    }

    fn set_nslots(&mut self, n: u16) {
        self.buf[8..10].copy_from_slice(&n.to_le_bytes());
    }

    fn free_start(&self) -> u16 {
        u16::from_le_bytes(self.buf[10..12].try_into().expect("len"))
    }

    fn set_free_start(&mut self, v: u16) {
        self.buf[10..12].copy_from_slice(&v.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.buf[12..14].try_into().expect("len"))
    }

    fn set_free_end(&mut self, v: u16) {
        self.buf[12..14].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let off = HEADER + i as usize * SLOT_BYTES;
        let o = u16::from_le_bytes(self.buf[off..off + 2].try_into().expect("len"));
        let l = u16::from_le_bytes(self.buf[off + 2..off + 4].try_into().expect("len"));
        (o, l)
    }

    fn set_slot(&mut self, i: u16, offset: u16, len: u16) {
        let off = HEADER + i as usize * SLOT_BYTES;
        self.buf[off..off + 2].copy_from_slice(&offset.to_le_bytes());
        self.buf[off + 2..off + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of slots ever created (including tombstones).
    pub fn slot_count(&self) -> u16 {
        self.nslots()
    }

    /// Contiguous free bytes available for one more insert (tuple + slot).
    pub fn free_space(&self) -> usize {
        (self.free_end() as usize).saturating_sub(self.free_start() as usize + SLOT_BYTES)
    }

    /// Insert a tuple; returns the slot id, or `None` if it does not fit.
    pub fn insert(&mut self, tuple: &[u8]) -> Option<u16> {
        if tuple.len() > MAX_TUPLE || tuple.len() >= TOMBSTONE as usize {
            return None;
        }
        if self.free_space() < tuple.len() {
            return None;
        }
        let slot = self.nslots();
        let end = self.free_end() as usize;
        let start = end - tuple.len();
        self.buf[start..end].copy_from_slice(tuple);
        self.set_slot(slot, start as u16, tuple.len() as u16);
        self.set_nslots(slot + 1);
        self.set_free_start((HEADER + (slot as usize + 1) * SLOT_BYTES) as u16);
        self.set_free_end(start as u16);
        Some(slot)
    }

    /// Read the tuple in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8], StorageError> {
        read_tuple(self.buf, slot)
    }

    /// Tombstone a slot. Space is not reclaimed.
    pub fn delete(&mut self, slot: u16) -> Result<(), StorageError> {
        if slot >= self.nslots() {
            return Err(StorageError::TupleNotFound { page: 0, slot });
        }
        let (o, _) = self.slot(slot);
        if o == TOMBSTONE {
            return Err(StorageError::TupleNotFound { page: 0, slot });
        }
        self.set_slot(slot, TOMBSTONE, 0);
        Ok(())
    }

    /// Iterate live `(slot, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.nslots()).filter_map(move |i| {
            let (o, l) = self.slot(i);
            if o == TOMBSTONE {
                None
            } else {
                Some((i, &self.buf[o as usize..(o + l) as usize]))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_until_capacity() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let tuple = [7u8; 100];
        let mut n = 0;
        while p.insert(&tuple).is_some() {
            n += 1;
        }
        // 8192 - 14 header; each tuple costs 104 → ~78 tuples.
        assert!((75..=80).contains(&n), "inserted {n}");
        // Everything is still readable.
        for i in 0..n {
            assert_eq!(p.get(i as u16).unwrap(), &tuple[..]);
        }
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
        assert!(p.insert(&vec![0u8; MAX_TUPLE]).is_some());
    }

    #[test]
    fn delete_tombstones() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let a = p.insert(b"dead").unwrap();
        let b = p.insert(b"alive").unwrap();
        p.delete(a).unwrap();
        assert!(matches!(p.get(a), Err(StorageError::TupleNotFound { .. })));
        assert!(matches!(
            p.delete(a),
            Err(StorageError::TupleNotFound { .. })
        ));
        assert_eq!(p.get(b).unwrap(), b"alive");
        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn next_pointer_roundtrips() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        assert_eq!(p.next(), crate::NO_PAGE);
        p.set_next(12345);
        assert_eq!(p.next(), 12345);
        // Inserts don't clobber the header.
        p.insert(b"x").unwrap();
        assert_eq!(p.next(), 12345);
    }

    #[test]
    fn get_bad_slot_errors() {
        let mut buf = fresh();
        let p = SlottedPage::init(&mut buf);
        assert!(matches!(p.get(0), Err(StorageError::TupleNotFound { .. })));
    }

    #[test]
    fn empty_tuple_is_fine() {
        let mut buf = fresh();
        let mut p = SlottedPage::init(&mut buf);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }
}
