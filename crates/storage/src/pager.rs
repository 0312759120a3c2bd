//! The buffer pool: a fixed set of in-memory frames caching disk pages,
//! with LRU eviction, pin tracking, dirty write-back, and I/O statistics.
//!
//! # Pages are snapshots
//!
//! A frame's bytes are an `Arc<[u8; PAGE_SIZE]>` kept in the frame's
//! slot, a `Mutex` plus a `Condvar`. [`BufferPool::fetch_read`] clones
//! that `Arc`: a [`PageRead`] is an immutable snapshot and holds no latch
//! once returned. [`BufferPool::fetch_write`] *takes* the `Arc` out of the
//! slot, so writers of one page exclude each other by construction — only
//! one of them can hold the page — and a reader that arrives meanwhile
//! waits until the [`PageWrite`] is dropped and puts the page back. A
//! write goes through `Arc::make_mut`, which copies the page only while
//! an older snapshot of it is still alive; that snapshot keeps the bytes
//! it was taken with.
//!
//! # One lock per shard
//!
//! The frame table is split into up to 16 shards keyed by a hash of the
//! `PageId`. Each shard is one `RwLock` over its `PageId → Frame` map
//! and capacity budget. A page *hit* — the hot case for read-heavy
//! query traffic — takes the read side: a hash lookup, a relaxed
//! recency store and an `Arc` pin. The write side is taken only on the
//! miss path (disk read, eviction, write-back). `flush_all` takes the
//! read side, so hits keep flowing during a checkpoint. Statistics are
//! relaxed per-shard atomics aggregated on demand by
//! [`BufferPool::stats`], so `EXPLAIN ANALYZE` attribution never
//! touches the fetch path.
//!
//! # Eviction
//!
//! Pinning is an `Arc` clone of the frame's slot, held by every live
//! `PageRead` and `PageWrite` (`strong_count > 1` ⇔ pinned), and a pin
//! can only begin under one of the shard's locks. The evictor holds the
//! write lock, which excludes every hitter, so a `strong_count == 1`
//! check is final and takes no per-frame lock: the least-recently-used
//! such frame is written back (if dirty) from its slot's current page
//! and only then removed. A failed write-back returns the error before
//! the removal, so the victim stays in the map, still dirty — its frame
//! holds the only copy of the bytes. The write lock's acquire also
//! orders every hitter's dirty mark before the evictor reads it.
//!
//! Lock order is shard → (neighbor shard, `try_write` only) → frame slot
//! → disk; no path blocks on a second shard latch, and no path acquires
//! a shard latch or a slot while holding the disk latch.
//!
//! # Exhaustion fairness
//!
//! A shard whose frames are all pinned no longer fails while its
//! neighbors have room: the miss path *steals a frame of capacity* from
//! the first neighbor shard (probed in order, `try_write` so two shards
//! can never deadlock stealing from each other) that can evict one of
//! its own unpinned frames. The donor shrinks by one frame, the
//! starved shard grows by one — total pool capacity is conserved, and a
//! shard never donates below half its original budget (or 2 frames),
//! so drift is bounded. Only when every reachable neighbor is also
//! pinned-out does [`StorageError::PoolExhausted`] surface.

use crate::disk::{Disk, PAGE_SIZE};
use crate::error::StorageError;
use crate::PageId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, PoisonError};

type PageBuf = [u8; PAGE_SIZE];

/// Upper bound on the number of frame-table shards.
const MAX_SHARDS: usize = 16;

/// A snapshot of a page's bytes; it pins the page's frame until dropped.
pub struct PageRead {
    page: Arc<PageBuf>,
    _pin: Arc<Slot>,
}

impl std::ops::Deref for PageRead {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.page
    }
}

/// A page taken out of its frame for writing; dropping it puts the page
/// back. Acquiring one marks the frame dirty.
pub struct PageWrite {
    /// `Some` until drop hands it back to `slot`.
    page: Option<Arc<PageBuf>>,
    slot: Arc<Slot>,
}

const HELD: &str = "a PageWrite holds its page until dropped";

impl std::ops::Deref for PageWrite {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        self.page.as_deref().expect(HELD)
    }
}

impl std::ops::DerefMut for PageWrite {
    fn deref_mut(&mut self) -> &mut Self::Target {
        Arc::make_mut(self.page.as_mut().expect(HELD))
    }
}

impl Drop for PageWrite {
    fn drop(&mut self) {
        self.slot.put_back(self.page.take());
    }
}

/// Where a frame's page lives between fetches.
struct Slot {
    state: Mutex<SlotState>,
    /// Signalled when a writer puts the page back while someone waits.
    returned: Condvar,
}

struct SlotState {
    /// `None` while a [`PageWrite`] has the page out.
    page: Option<Arc<PageBuf>>,
    /// Someone waits on `returned`. `std`'s notify is a system call even
    /// with nobody waiting, so the put-back notifies only when this is set.
    waiting: bool,
}

impl Slot {
    /// The page once no writer has it out: a clone (a snapshot), or with
    /// `take` the page itself, which leaves the slot empty until
    /// [`Slot::put_back`].
    fn page(&self, take: bool) -> Arc<PageBuf> {
        let mut state = self.state.lock();
        loop {
            let page = if take {
                state.page.take()
            } else {
                state.page.clone()
            };
            if let Some(page) = page {
                return page;
            }
            state.waiting = true;
            state = self
                .returned
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn put_back(&self, page: Option<Arc<PageBuf>>) {
        let mut state = self.state.lock();
        state.page = page;
        if std::mem::take(&mut state.waiting) {
            self.returned.notify_all();
        }
    }
}

/// One resident page. Hitters touch `last_used`/`dirty` under the
/// shard's read lock, so both are atomics; `slot`'s strong count
/// doubles as the pin count (1 = only the frame itself holds it).
struct Frame {
    slot: Arc<Slot>,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

impl Frame {
    /// Pin the page for a fetch stamped `tick`, marking it dirty first
    /// when the fetch is for writing.
    fn pin(&self, dirty: bool, tick: u64) -> Arc<Slot> {
        if dirty {
            self.dirty.store(true, AtomicOrdering::Release);
        }
        self.last_used.store(tick, AtomicOrdering::Relaxed);
        Arc::clone(&self.slot)
    }
}

/// Buffer-pool counters; the experiment harness reports these as the I/O
/// cost of each query plan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from memory.
    pub hits: u64,
    /// Page requests that went to disk.
    pub misses: u64,
    /// Dirty pages written back during eviction or flush.
    pub writebacks: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Frames of capacity stolen from a neighbor shard because every
    /// local frame was pinned.
    pub steals: u64,
}

impl PoolStats {
    /// The counters accumulated since `earlier` was sampled — per-query
    /// I/O accounting for `EXPLAIN ANALYZE`. Saturates at zero so a
    /// `reset_stats` between the two samples cannot underflow.
    pub fn delta_since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            steals: self.steals.saturating_sub(earlier.steals),
        }
    }

    /// Fraction of page requests served from memory (1.0 when idle).
    pub fn hit_rate(self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The lock-protected half of a shard: the resident set and its
/// capacity budget.
struct ShardInner {
    frames: HashMap<PageId, Frame>,
    capacity: usize,
    /// The capacity this shard was built with — the floor for donations
    /// is derived from it, so steal drift stays bounded.
    original_capacity: usize,
}

/// One shard: the locked resident set + the relaxed statistics bumped
/// outside the lock.
struct Shard {
    inner: RwLock<ShardInner>,
    /// LRU clock; fetches bump it before taking the lock.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writebacks: AtomicU64,
    evictions: AtomicU64,
    steals: AtomicU64,
}

impl Shard {
    fn with_capacity(capacity: usize) -> Shard {
        Shard {
            inner: RwLock::new(ShardInner {
                frames: HashMap::new(),
                capacity,
                original_capacity: capacity,
            }),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Next LRU clock value (relaxed — the clock orders recency, it
    /// synchronizes nothing).
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Evict the least-recently-used unpinned frame, writing it back
    /// first if dirty. Returns `false` if every frame is pinned. The
    /// caller holds the write lock, so no pin can begin meanwhile (see
    /// the module docs); a failed write-back leaves the victim in place.
    fn evict_one(
        &self,
        inner: &mut ShardInner,
        disk: &Mutex<Box<dyn Disk>>,
    ) -> Result<bool, StorageError> {
        let victim = inner
            .frames
            .iter()
            .filter(|(_, f)| Arc::strong_count(&f.slot) == 1)
            .min_by_key(|(_, f)| f.last_used.load(AtomicOrdering::Relaxed));
        let Some((&pid, frame)) = victim else {
            return Ok(false);
        };
        if frame.dirty.load(AtomicOrdering::Acquire) {
            let page = frame.slot.page(false);
            disk.lock().write_page(pid, &page[..])?;
            Shard::bump(&self.writebacks);
        }
        inner.frames.remove(&pid);
        Shard::bump(&self.evictions);
        Ok(true)
    }
}

/// The buffer pool: locked frame shards over one shared device.
pub struct BufferPool {
    disk: Mutex<Box<dyn Disk>>,
    shards: Vec<Shard>,
    /// log2 of `shards.len()`, for the pid → shard hash.
    shard_bits: u32,
}

/// Shard count for a pool of `capacity` frames: the largest power of two
/// `<= MAX_SHARDS` leaving every shard at least 32 frames (so a shard can
/// absorb the handful of simultaneously pinned pages a B+-tree split
/// holds). Pools under 64 frames stay unsharded and keep the original
/// global-LRU behavior exactly.
fn shard_count(capacity: usize) -> usize {
    let limit = (capacity / 32).clamp(1, MAX_SHARDS);
    1 << (usize::BITS - 1 - limit.leading_zeros())
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`.
    pub fn new(disk: Box<dyn Disk>, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "a useful pool needs at least two frames");
        let n = shard_count(capacity);
        let base = capacity / n;
        let extra = capacity % n;
        let shards = (0..n)
            .map(|i| Shard::with_capacity(base + usize::from(i < extra)))
            .collect();
        BufferPool {
            disk: Mutex::new(disk),
            shards,
            shard_bits: n.trailing_zeros(),
        }
    }

    fn shard_of(&self, pid: PageId) -> usize {
        // Fibonacci multiplicative hash: consecutive PageIds (the common
        // allocation pattern) spread across shards instead of clustering.
        let h = pid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if self.shard_bits == 0 {
            0
        } else {
            (h >> (64 - self.shard_bits)) as usize
        }
    }

    /// Fetch a snapshot of a page for reading. Waits while a writer has
    /// the page out.
    pub fn fetch_read(&self, pid: PageId) -> Result<PageRead, StorageError> {
        let slot = self.fetch_slot(pid, false)?;
        Ok(PageRead {
            page: slot.page(false),
            _pin: slot,
        })
    }

    /// Take a page out for writing (marks it dirty). Waits while another
    /// writer has the page out.
    pub fn fetch_write(&self, pid: PageId) -> Result<PageWrite, StorageError> {
        let slot = self.fetch_slot(pid, true)?;
        Ok(PageWrite {
            page: Some(slot.page(true)),
            slot,
        })
    }

    /// Allocate a fresh zeroed page on disk and return its id.
    pub fn allocate(&self) -> Result<PageId, StorageError> {
        self.disk.lock().allocate()
    }

    /// Number of pages on the underlying device.
    pub fn page_count(&self) -> u64 {
        self.disk.lock().page_count()
    }

    /// Write all dirty frames back and sync the device.
    ///
    /// The dirty flag is cleared *before* the page is snapshotted (swap,
    /// then clone): a hitter that re-dirties the page concurrently
    /// leaves the flag set for the next flush instead of being lost.
    /// A failed write sets the flag again before the error is returned,
    /// so the page is still written by the next flush. A write guard
    /// already handed out before this flush is — as in every prior
    /// revision — the caller's to order; the checkpoint path holds the
    /// session writer latch for exactly that reason. Each shard is
    /// walked under its read lock, so hits proceed during the flush.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            let inner = shard.inner.read();
            for (&pid, frame) in &inner.frames {
                if frame.dirty.swap(false, AtomicOrdering::AcqRel) {
                    let page = frame.slot.page(false);
                    let written = self.disk.lock().write_page(pid, &page[..]);
                    if let Err(e) = written {
                        frame.dirty.store(true, AtomicOrdering::Release);
                        return Err(e);
                    }
                    Shard::bump(&shard.writebacks);
                }
            }
        }
        self.disk.lock().sync()
    }

    /// Current I/O statistics, aggregated across shards. Lock-free: safe
    /// to sample around every query without touching the fetch path.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            total.hits += s.hits.load(AtomicOrdering::Relaxed);
            total.misses += s.misses.load(AtomicOrdering::Relaxed);
            total.writebacks += s.writebacks.load(AtomicOrdering::Relaxed);
            total.evictions += s.evictions.load(AtomicOrdering::Relaxed);
            total.steals += s.steals.load(AtomicOrdering::Relaxed);
        }
        total
    }

    /// Reset statistics (used between experiment phases).
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.hits.store(0, AtomicOrdering::Relaxed);
            s.misses.store(0, AtomicOrdering::Relaxed);
            s.writebacks.store(0, AtomicOrdering::Relaxed);
            s.evictions.store(0, AtomicOrdering::Relaxed);
            s.steals.store(0, AtomicOrdering::Relaxed);
        }
    }

    fn fetch_slot(&self, pid: PageId, dirty: bool) -> Result<Arc<Slot>, StorageError> {
        let idx = self.shard_of(pid);
        let shard = &self.shards[idx];
        let tick = shard.next_tick();
        let hit = shard
            .inner
            .read()
            .frames
            .get(&pid)
            .map(|f| f.pin(dirty, tick));
        if let Some(slot) = hit {
            Shard::bump(&shard.hits);
            return Ok(slot);
        }

        // Miss path: take the write lock, then re-check — a racing miss
        // on the same page may have loaded it while we waited, and
        // caching one copy per page is the pool's invariant.
        let mut inner = shard.inner.write();
        if let Some(frame) = inner.frames.get(&pid) {
            Shard::bump(&shard.hits);
            return Ok(frame.pin(dirty, tick));
        }
        Shard::bump(&shard.misses);

        // The write lock is held across the disk read so two threads
        // missing on the same page cannot both load it (and diverge on
        // which copy is cached).
        let mut page = Arc::new([0u8; PAGE_SIZE]);
        let fresh = Arc::get_mut(&mut page).expect("a new Arc is unique");
        self.disk.lock().read_page(pid, fresh)?;
        if inner.frames.len() >= inner.capacity && !shard.evict_one(&mut inner, &self.disk)? {
            // Every local frame is pinned: borrow capacity from a
            // neighbor before giving up (see module docs).
            if !self.steal_capacity(idx, &mut inner) {
                return Err(StorageError::PoolExhausted);
            }
            Shard::bump(&shard.steals);
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState {
                page: Some(page),
                waiting: false,
            }),
            returned: Condvar::new(),
        });
        let frame = Frame {
            slot: Arc::clone(&slot),
            dirty: AtomicBool::new(dirty),
            last_used: AtomicU64::new(tick),
        };
        inner.frames.insert(pid, frame);
        Ok(slot)
    }

    /// Try to move one frame of capacity from a neighbor shard into
    /// `starved` (whose write guard the caller holds). Probes neighbors
    /// in index order with `try_write`, so two starved shards can never
    /// deadlock on each other; a donor must be able to evict an unpinned
    /// frame *and* stay at or above its donation floor.
    fn steal_capacity(&self, starved: usize, inner: &mut ShardInner) -> bool {
        let n = self.shards.len();
        for step in 1..n {
            let donor = &self.shards[(starved + step) % n];
            let Some(mut donor_inner) = donor.inner.try_write() else {
                continue;
            };
            let floor = (donor_inner.original_capacity / 2).max(2);
            if donor_inner.capacity <= floor {
                continue;
            }
            // A full donor must free a frame to shrink.
            let donated = donor_inner.frames.len() < donor_inner.capacity
                || matches!(donor.evict_one(&mut donor_inner, &self.disk), Ok(true));
            if donated {
                donor_inner.capacity -= 1;
                inner.capacity += 1;
                return true;
            }
        }
        false
    }

    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[cfg(test)]
    fn shard_of_for_tests(&self, pid: PageId) -> usize {
        self.shard_of(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(frames: usize, pages: usize) -> BufferPool {
        let mut disk = MemDisk::new();
        for _ in 0..pages {
            disk.allocate().unwrap();
        }
        BufferPool::new(Box::new(disk), frames)
    }

    #[test]
    fn read_after_write_roundtrips() {
        let p = pool(4, 2);
        {
            let mut w = p.fetch_write(1).unwrap();
            w[0] = 42;
            w[PAGE_SIZE - 1] = 7;
        }
        let r = p.fetch_read(1).unwrap();
        assert_eq!(r[0], 42);
        assert_eq!(r[PAGE_SIZE - 1], 7);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2, 4);
        {
            let mut w = p.fetch_write(0).unwrap();
            w[0] = 99;
        }
        // Touch three more pages to force 0 out of the 2-frame pool.
        for pid in 1..4 {
            let _ = p.fetch_read(pid).unwrap();
        }
        let stats = p.stats();
        assert!(stats.evictions >= 2, "{stats:?}");
        assert!(stats.writebacks >= 1, "{stats:?}");
        // Re-reading page 0 must see the written value (from disk).
        let r = p.fetch_read(0).unwrap();
        assert_eq!(r[0], 99);
    }

    #[test]
    fn writers_of_one_page_exclude_each_other() {
        // Each writer takes the page out, so no increment is lost to a
        // second writer working on a copy of the same bytes.
        let p = pool(4, 1);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        let mut page = p.fetch_write(0).unwrap();
                        let n = u64::from_le_bytes(page[..8].try_into().unwrap());
                        page[..8].copy_from_slice(&(n + 1).to_le_bytes());
                    }
                });
            }
        });
        let page = p.fetch_read(0).unwrap();
        assert_eq!(u64::from_le_bytes(page[..8].try_into().unwrap()), 2000);
    }

    #[test]
    fn a_read_is_a_snapshot() {
        let p = pool(4, 1);
        let before = p.fetch_read(0).unwrap();
        p.fetch_write(0).unwrap()[0] = 7;
        assert_eq!(before[0], 0, "a snapshot keeps the bytes it was taken with");
        assert_eq!(p.fetch_read(0).unwrap()[0], 7);
        // A flush writes the frame's page, not an older snapshot.
        p.flush_all().unwrap();
        let mut on_disk = [0u8; PAGE_SIZE];
        p.disk.lock().read_page(0, &mut on_disk).unwrap();
        assert_eq!(on_disk[0], 7);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let p = pool(2, 5);
        let pinned = p.fetch_read(0).unwrap();
        for pid in 1..5 {
            let _ = p.fetch_read(pid).unwrap();
        }
        // Page 0 must still be readable through the held guard.
        assert_eq!(pinned[0], 0);
    }

    #[test]
    fn all_pinned_pool_errors() {
        let p = pool(2, 3);
        let _a = p.fetch_read(0).unwrap();
        let _b = p.fetch_read(1).unwrap();
        assert!(matches!(p.fetch_read(2), Err(StorageError::PoolExhausted)));
    }

    #[test]
    fn hits_and_misses_counted() {
        let p = pool(4, 2);
        let _ = p.fetch_read(0).unwrap();
        let _ = p.fetch_read(0).unwrap();
        let _ = p.fetch_read(1).unwrap();
        let s = p.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        p.reset_stats();
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn flush_all_persists_and_clears_dirty() {
        let p = pool(4, 2);
        {
            let mut w = p.fetch_write(0).unwrap();
            w[10] = 5;
        }
        p.flush_all().unwrap();
        let s = p.stats();
        assert_eq!(s.writebacks, 1);
        // A second flush has nothing to do.
        p.flush_all().unwrap();
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn out_of_bounds_page_errors() {
        let p = pool(2, 1);
        assert!(matches!(
            p.fetch_read(9),
            Err(StorageError::PageOutOfBounds(9))
        ));
    }

    #[test]
    fn lru_prefers_older_frames() {
        let p = pool(2, 3);
        let _ = p.fetch_read(0).unwrap(); // old
        let _ = p.fetch_read(1).unwrap(); // newer
        let _ = p.fetch_read(0).unwrap(); // refresh 0 → 1 is now LRU
        let _ = p.fetch_read(2).unwrap(); // evicts 1
                                          // 0 still cached: hit.
        let before = p.stats().hits;
        let _ = p.fetch_read(0).unwrap();
        assert_eq!(p.stats().hits, before + 1);
    }

    #[test]
    fn small_pools_collapse_to_one_shard() {
        assert_eq!(pool(2, 1).shard_count(), 1);
        assert_eq!(pool(63, 1).shard_count(), 1);
        assert_eq!(pool(64, 1).shard_count(), 2);
        assert_eq!(pool(128, 1).shard_count(), 4);
        assert_eq!(pool(256, 1).shard_count(), 8);
        assert_eq!(pool(512, 1).shard_count(), 16);
        assert_eq!(pool(4096, 1).shard_count(), 16);
    }

    #[test]
    fn sharded_pool_roundtrips_and_aggregates_stats() {
        let p = pool(1024, 64);
        assert_eq!(p.shard_count(), MAX_SHARDS);
        for pid in 0..64u64 {
            let mut w = p.fetch_write(pid).unwrap();
            w[0] = pid as u8;
        }
        for pid in 0..64u64 {
            assert_eq!(p.fetch_read(pid).unwrap()[0], pid as u8);
        }
        let s = p.stats();
        assert_eq!(s.misses, 64, "{s:?}");
        assert_eq!(s.hits, 64, "{s:?}");
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        p.flush_all().unwrap();
        assert_eq!(p.stats().writebacks, 64);
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let a = PoolStats {
            hits: 10,
            misses: 4,
            writebacks: 1,
            evictions: 2,
            steals: 0,
        };
        let b = PoolStats {
            hits: 25,
            misses: 4,
            writebacks: 3,
            evictions: 2,
            steals: 1,
        };
        let d = b.delta_since(a);
        assert_eq!(d.hits, 15);
        assert_eq!(d.misses, 0);
        assert_eq!(d.writebacks, 2);
        assert_eq!(d.evictions, 0);
        assert_eq!(d.steals, 1);
        // A reset between samples saturates instead of underflowing.
        let d = a.delta_since(b);
        assert_eq!(d.hits, 0);
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let p = std::sync::Arc::new(pool(256, 64));
        for pid in 0..64u64 {
            let mut w = p.fetch_write(pid).unwrap();
            w[..8].copy_from_slice(&pid.to_le_bytes());
        }
        std::thread::scope(|scope| {
            for t in 0..8 {
                let p = std::sync::Arc::clone(&p);
                scope.spawn(move || {
                    for round in 0..4u64 {
                        for pid in 0..64u64 {
                            let pid = (pid + t + round) % 64;
                            let r = p.fetch_read(pid).unwrap();
                            assert_eq!(
                                u64::from_le_bytes(r[..8].try_into().unwrap()),
                                pid,
                                "page content raced"
                            );
                        }
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 64 + 8 * 4 * 64);
    }

    #[test]
    fn concurrent_hits_race_eviction_without_losing_pages() {
        // A pool under heavy eviction pressure (32 frames/shard over
        // ~128 pages/shard) with 8 threads: evicting only unpinned frames
        // under the shard's write lock must never serve torn or stale
        // page contents and never lose a write-back.
        let p = std::sync::Arc::new(pool(64, 256));
        for pid in 0..256u64 {
            let mut w = p.fetch_write(pid).unwrap();
            w[..8].copy_from_slice(&pid.to_le_bytes());
        }
        p.flush_all().unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let p = std::sync::Arc::clone(&p);
                scope.spawn(move || {
                    for round in 0..8u64 {
                        for i in 0..64u64 {
                            let pid = (i * 7 + t * 13 + round) % 256;
                            let r = p.fetch_read(pid).unwrap();
                            assert_eq!(
                                u64::from_le_bytes(r[..8].try_into().unwrap()),
                                pid,
                                "page {pid} torn under eviction pressure"
                            );
                        }
                    }
                });
            }
        });
        let s = p.stats();
        assert!(s.evictions > 0, "pressure must evict: {s:?}");
        assert_eq!(s.hits + s.misses, 256 + 8 * 8 * 64);
    }

    #[test]
    fn starved_shard_steals_capacity_from_a_neighbor() {
        // Two shards of 32 frames each. Pin every frame of one shard,
        // then fetch one more page of that shard: instead of
        // PoolExhausted, the miss must steal capacity from the other
        // (entirely free) shard.
        let p = pool(64, 512);
        assert_eq!(p.shard_count(), 2);
        let shard0: Vec<PageId> = (0..512)
            .filter(|&pid| p.shard_of_for_tests(pid) == 0)
            .collect();
        assert!(shard0.len() > 33, "hash must spread pages over shard 0");
        let pins: Vec<_> = shard0[..32]
            .iter()
            .map(|&pid| p.fetch_read(pid).unwrap())
            .collect();
        // 33rd page of shard 0: every local frame pinned, neighbor free.
        let extra = p.fetch_read(shard0[32]).unwrap();
        assert_eq!(extra[0], 0);
        assert_eq!(p.stats().steals, 1, "{:?}", p.stats());
        drop(pins);
        // Donation floor: capacity cannot be stolen below half the
        // donor's original budget — 16 more steals must eventually fail.
        let mut pins = vec![p.fetch_read(shard0[32]).unwrap(), extra];
        let mut exhausted = false;
        for &pid in &shard0[..shard0.len().min(128)] {
            match p.fetch_read(pid) {
                Ok(g) => pins.push(g),
                Err(StorageError::PoolExhausted) => {
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(exhausted, "the donation floor must eventually hold");
    }

    #[test]
    fn steals_conserve_total_capacity() {
        let p = pool(64, 512);
        let shard0: Vec<PageId> = (0..512)
            .filter(|&pid| p.shard_of_for_tests(pid) == 0)
            .collect();
        let _pins: Vec<_> = shard0[..32]
            .iter()
            .map(|&pid| p.fetch_read(pid).unwrap())
            .collect();
        let _extra = p.fetch_read(shard0[32]).unwrap();
        let total: usize = p.shards.iter().map(|s| s.inner.read().capacity).sum();
        assert_eq!(total, 64, "steals move capacity, never create it");
    }

    #[test]
    fn dirty_writes_survive_concurrent_eviction() {
        // Four writers stamp disjoint page sets with (pid, round) while
        // four readers cycle through every page of a pool an eighth the
        // size of the device. Evicted pages are re-read from disk, so a
        // dirty mark lost to an eviction shows up as a stale stamp.
        const PAGES: u64 = 512;
        const WRITERS: u64 = 4;
        const ROUNDS: u64 = 6;
        let p = pool(64, PAGES as usize);
        let stamp = |page: &[u8; PAGE_SIZE]| {
            let word = |at: usize| u64::from_le_bytes(page[at..at + 8].try_into().unwrap());
            (word(0), word(8))
        };
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let p = &p;
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        for pid in (w..PAGES).step_by(WRITERS as usize) {
                            let mut page = p.fetch_write(pid).unwrap();
                            page[..8].copy_from_slice(&pid.to_le_bytes());
                            page[8..16].copy_from_slice(&round.to_le_bytes());
                        }
                    }
                });
            }
            for r in 0..4u64 {
                let p = &p;
                scope.spawn(move || {
                    for i in 0..2 * PAGES {
                        let pid = (i * 7 + r * 131) % PAGES;
                        let (owner, round) = stamp(&p.fetch_read(pid).unwrap());
                        assert!(owner == pid || (owner, round) == (0, 0), "page {pid} torn");
                    }
                });
            }
        });
        for pid in 0..PAGES {
            let page = p.fetch_read(pid).unwrap();
            assert_eq!(stamp(&page), (pid, ROUNDS), "page {pid} lost a write");
        }
        let s = p.stats();
        assert!(s.evictions > 0 && s.writebacks > 0, "{s:?}");
    }
}
