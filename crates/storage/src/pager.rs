//! The buffer pool: a fixed set of in-memory frames caching disk pages,
//! with LRU eviction, pin tracking, dirty write-back, and I/O statistics.
//!
//! # Contention-free hits
//!
//! The frame table is split into up to [`MAX_SHARDS`] shards keyed by a
//! hash of the `PageId`. Each shard publishes its `PageId → Frame` map
//! as an RCU snapshot ([`RcuCell`]): a page *hit* — the hot case for
//! read-heavy query traffic — is a gate-protected hash lookup plus an
//! `Arc` pin, with **no latch at all**. The per-shard mutex is taken
//! only on the miss path (disk reads, eviction, write-backs) and by
//! `flush_all`. Statistics are relaxed per-shard atomics aggregated on
//! demand by [`BufferPool::stats`], so `EXPLAIN ANALYZE` attribution
//! never touches the fetch path either.
//!
//! # Eviction vs. lock-free pinning
//!
//! Pinning is an `Arc` clone of the frame's data (`strong_count > 1` ⇔
//! pinned), and hitters pin without a latch, so eviction cannot rely on
//! a stable count check alone. The protocol (under the shard mutex):
//!
//! 1. pick the least-recently-used candidate with `strong_count == 1`;
//! 2. *unpublish* it — store a snapshot without the victim; the RCU
//!    store drains all in-gate readers before returning, so after it no
//!    new pin of the victim can begin (the miss path for its `PageId`
//!    blocks on the shard mutex we hold);
//! 3. re-check `strong_count == 1`: a reader that pinned in the window
//!    between the candidate scan and the drain is now visible. If it
//!    raced us, restore the victim and try the next candidate;
//! 4. only then write back (if dirty) and reuse the slot; if the write
//!    fails, restore the victim as in step 3 — its frame holds the only
//!    copy of the bytes — and return the error.
//!
//! The dirty flag rides the same drain: hitters set it inside the
//! reader gate (`Release`), so once the drain completes the evictor's
//! `Acquire` load observes any flag set through the unpublished map.
//!
//! Lock order is shard → (neighbor shard, `try_lock` only) → disk; no
//! path blocks on a second shard latch, and no path acquires a shard
//! latch while holding the disk latch.
//!
//! # Exhaustion fairness
//!
//! A shard whose frames are all pinned no longer fails while its
//! neighbors have room: the miss path *steals a frame of capacity* from
//! the first neighbor shard (probed in order, `try_lock` so two shards
//! can never deadlock stealing from each other) that can evict one of
//! its own unpinned frames. The donor shrinks by one frame, the
//! starved shard grows by one — total pool capacity is conserved, and a
//! shard never donates below half its original budget (or 2 frames),
//! so drift is bounded. Only when every reachable neighbor is also
//! pinned-out does [`StorageError::PoolExhausted`] surface.

use crate::disk::{Disk, PAGE_SIZE};
use crate::error::StorageError;
use crate::rcu::RcuCell;
use crate::PageId;
use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

type PageBuf = Box<[u8; PAGE_SIZE]>;
type PageArc = Arc<RwLock<PageBuf>>;

/// Upper bound on the number of frame-table shards.
pub const MAX_SHARDS: usize = 16;

/// Read guard over a page's bytes.
pub struct PageRead {
    guard: ArcRwLockReadGuard<RawRwLock, PageBuf>,
}

impl std::ops::Deref for PageRead {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

/// Write guard over a page's bytes. Acquiring one marks the frame dirty.
pub struct PageWrite {
    guard: ArcRwLockWriteGuard<RawRwLock, PageBuf>,
}

impl std::ops::Deref for PageWrite {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl std::ops::DerefMut for PageWrite {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

/// One resident page. Hitters touch `last_used`/`dirty` without the
/// shard mutex, so both are atomics; `data`'s strong count doubles as
/// the pin count (1 = only the frame itself holds it).
struct Frame {
    pid: PageId,
    data: PageArc,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

type FrameRef = Arc<Frame>;
type FrameMap = HashMap<PageId, FrameRef>;

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

/// The mutex-protected half of a shard: the authoritative resident set
/// and its capacity budget. The published [`FrameMap`] snapshot always
/// mirrors `frames` exactly at mutex release.
struct ShardInner {
    frames: Vec<FrameRef>,
    capacity: usize,
    /// The capacity this shard was built with — the floor for donations
    /// is derived from it, so steal drift stays bounded.
    original_capacity: usize,
}

impl ShardInner {
    fn position(&self, pid: PageId) -> Option<usize> {
        self.frames.iter().position(|f| f.pid == pid)
    }
}

/// One shard: RCU-published read snapshot + mutexed writer state + the
/// relaxed statistics hitters bump outside any latch.
struct Shard {
    map: RcuCell<FrameMap>,
    inner: Mutex<ShardInner>,
    /// LRU clock; hitters bump it without the mutex.
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
            map: RcuCell::new(Arc::new(FrameMap::new())),
            inner: Mutex::new(ShardInner {
                frames: Vec::with_capacity(capacity),
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

    /// Publish the current `frames` vec as the read snapshot. Called
    /// with the shard mutex held; returns after draining readers.
    fn publish(&self, inner: &ShardInner) {
        let map: FrameMap = inner
            .frames
            .iter()
            .map(|f| (f.pid, Arc::clone(f)))
            .collect();
        self.map.store(Arc::new(map));
    }

    /// Next LRU clock value (relaxed — the clock orders recency, it
    /// synchronizes nothing).
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Evict the least-recently-used unpinned frame, following the
    /// unpublish → drain → re-check protocol from the module docs.
    /// Returns the freed frame's slot index, or `None` if every frame
    /// is pinned. Writes back dirty victims. Caller holds the mutex.
    fn evict_one(
        &self,
        inner: &mut ShardInner,
        disk: &Mutex<Box<dyn Disk>>,
    ) -> Result<Option<usize>, StorageError> {
        loop {
            let victim = inner
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| Arc::strong_count(&f.data) == 1)
                .min_by_key(|(_, f)| f.last_used.load(AtomicOrdering::Relaxed))
                .map(|(i, _)| i);
            let Some(slot) = victim else {
                return Ok(None);
            };
            let frame = Arc::clone(&inner.frames[slot]);
            // Unpublish: after this store returns, no reader can begin a
            // new pin of the victim (its PageId now misses, and the miss
            // path blocks on the mutex we hold).
            inner.frames.remove(slot);
            self.publish(inner);
            if Arc::strong_count(&frame.data) != 1 {
                // A reader pinned it between the scan and the drain —
                // put it back and look for another victim.
                inner.frames.insert(slot, frame);
                self.publish(inner);
                continue;
            }
            // Quiescent: nobody holds the data Arc, nobody can set the
            // dirty flag anymore (the drain flushed in-gate setters).
            if frame.dirty.load(AtomicOrdering::Acquire) {
                let buf = frame.data.read();
                let written = disk.lock().write_page(frame.pid, &buf[..]);
                drop(buf);
                if let Err(e) = written {
                    // The only copy of these bytes is this frame: put it
                    // back (still dirty) so a later flush or eviction
                    // can retry the write, then report the failure.
                    inner.frames.insert(slot, frame);
                    self.publish(inner);
                    return Err(e);
                }
                Shard::bump(&self.writebacks);
            }
            Shard::bump(&self.evictions);
            return Ok(Some(slot));
        }
    }
}

/// The buffer pool: RCU-snapshot frame shards over one shared device.
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

    /// Number of frame-table shards (1 for small pools).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Fetch a page for reading.
    pub fn fetch_read(&self, pid: PageId) -> Result<PageRead, StorageError> {
        let arc = self.fetch_arc(pid, false)?;
        Ok(PageRead {
            guard: RwLock::read_arc(&arc),
        })
    }

    /// Fetch a page for writing (marks it dirty).
    pub fn fetch_write(&self, pid: PageId) -> Result<PageWrite, StorageError> {
        let arc = self.fetch_arc(pid, true)?;
        Ok(PageWrite {
            guard: RwLock::write_arc(&arc),
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
    /// The dirty flag is cleared *before* the bytes are copied (swap,
    /// then read): a hitter that re-dirties the page concurrently
    /// leaves the flag set for the next flush instead of being lost.
    /// A failed write sets the flag again before the error is returned,
    /// so the page is still written by the next flush. A write guard
    /// already handed out before this flush is — as in every prior
    /// revision — the caller's to order; the checkpoint path holds the
    /// session writer latch for exactly that reason.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        for shard in &self.shards {
            let inner = shard.inner.lock();
            for frame in &inner.frames {
                if frame.dirty.swap(false, AtomicOrdering::AcqRel) {
                    let buf = frame.data.read();
                    let written = self.disk.lock().write_page(frame.pid, &buf[..]);
                    drop(buf);
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

    /// The latch-free hit path: one gate-protected snapshot lookup.
    /// Pins (clones the data Arc) *inside* the reader gate, so eviction's
    /// drain orders every pin against its re-check; `dirty`/`last_used`
    /// ride the same gate section.
    fn try_hit(&self, shard: &Shard, pid: PageId, dirty: bool, tick: u64) -> Option<PageArc> {
        shard.map.with(|map| {
            let frame = map.get(&pid)?;
            let data = Arc::clone(&frame.data);
            if dirty {
                // Release pairs with the evictor's Acquire after drain.
                frame.dirty.store(true, AtomicOrdering::Release);
            }
            frame.last_used.store(tick, AtomicOrdering::Relaxed);
            Some(data)
        })
    }

    fn fetch_arc(&self, pid: PageId, dirty: bool) -> Result<PageArc, StorageError> {
        let idx = self.shard_of(pid);
        let shard = &self.shards[idx];
        let tick = shard.next_tick();
        if let Some(data) = self.try_hit(shard, pid, dirty, tick) {
            Shard::bump(&shard.hits);
            return Ok(data);
        }

        // Miss path: serialize on the shard mutex. Re-check first — a
        // racing miss on the same page may have loaded it while we
        // waited, and caching one copy per page is the pool's invariant.
        let mut inner = shard.inner.lock();
        if let Some(slot) = inner.position(pid) {
            let frame = &inner.frames[slot];
            let data = Arc::clone(&frame.data);
            if dirty {
                frame.dirty.store(true, AtomicOrdering::Release);
            }
            frame.last_used.store(tick, AtomicOrdering::Relaxed);
            Shard::bump(&shard.hits);
            return Ok(data);
        }
        Shard::bump(&shard.misses);

        // Read the page from disk into a fresh buffer. The shard mutex
        // is held across the read so two threads missing on the same
        // page cannot both load it (and diverge on which copy is
        // cached); hits on other pages of this shard proceed latch-free
        // the whole time.
        let mut buf: PageBuf = Box::new([0u8; PAGE_SIZE]);
        self.disk.lock().read_page(pid, &mut buf[..])?;
        let frame = Arc::new(Frame {
            pid,
            data: Arc::new(RwLock::new(buf)),
            dirty: AtomicBool::new(dirty),
            last_used: AtomicU64::new(tick),
        });
        let data = Arc::clone(&frame.data);

        if inner.frames.len() >= inner.capacity {
            let evicted = shard.evict_one(&mut inner, &self.disk)?;
            if evicted.is_none() {
                // Every local frame is pinned: borrow capacity from a
                // neighbor before giving up (see module docs).
                if !self.steal_capacity(idx, &mut inner) {
                    return Err(StorageError::PoolExhausted);
                }
                Shard::bump(&shard.steals);
            }
        }
        inner.frames.push(frame);
        shard.publish(&inner);
        Ok(data)
    }

    /// Try to move one frame of capacity from a neighbor shard into
    /// `starved` (whose mutex guard the caller holds). Probes neighbors
    /// in index order with `try_lock`, so two starved shards can never
    /// deadlock on each other; a donor must be able to evict an unpinned
    /// frame *and* stay at or above its donation floor.
    fn steal_capacity(&self, starved: usize, inner: &mut ShardInner) -> bool {
        let n = self.shards.len();
        for step in 1..n {
            let donor_idx = (starved + step) % n;
            let donor = &self.shards[donor_idx];
            let Some(mut donor_inner) = donor.inner.try_lock() else {
                continue;
            };
            let floor = (donor_inner.original_capacity / 2).max(2);
            if donor_inner.capacity <= floor {
                continue;
            }
            let donated = if donor_inner.frames.len() >= donor_inner.capacity {
                // Donor is full: it must free a frame to shrink.
                match donor.evict_one(&mut donor_inner, &self.disk) {
                    Ok(Some(_)) => true,
                    Ok(None) | Err(_) => false,
                }
            } else {
                true
            };
            if donated {
                donor_inner.capacity -= 1;
                inner.capacity += 1;
                return true;
            }
        }
        false
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
        // ~128 pages/shard) with 8 threads: the unpublish → drain →
        // re-check protocol must never serve torn or stale page
        // contents and never lose a write-back.
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
        let total: usize = p.shards.iter().map(|s| s.inner.lock().capacity).sum();
        assert_eq!(total, 64, "steals move capacity, never create it");
    }
}
