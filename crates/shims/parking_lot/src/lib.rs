//! Offline stand-in for the `parking_lot` crate.
//!
//! Provides the surface `staccato-storage` uses: a non-poisoning
//! [`Mutex`], and an [`RwLock`] with both borrowed
//! (`read`/`write`/`try_write`) and Arc-owned (`read_arc`/`write_arc`,
//! the `arc_lock` feature) guards.
//!
//! The rwlock is a single atomic word (reader count, with a writer bit):
//! acquiring or releasing a read lock is **one uncontended RMW** — no
//! mutex, no condvar, no futex hand-off. This matters because the query
//! layer's read hot path takes two rwlocks per page touch (the buffer
//! pool shard's read side, then the page-data latch) and one per
//! statement (the batch-visibility gate); the earlier mutex+condvar
//! implementation made every one of those a global-mutex critical
//! section, which under concurrent clients turned into scheduler churn.
//! Waiters spin briefly then `yield_now` — acceptable because writers
//! (ingest applies, page writes) are rare and short in this workload;
//! writer-preference fairness and parking-lot's adaptive parking are
//! out of scope. Swap this crate for the registry `parking_lot` when a
//! network is available.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Marker type standing in for `parking_lot::RawRwLock` in guard
/// signatures (`ArcRwLockReadGuard<RawRwLock, T>`).
pub struct RawRwLock(());

/// Guard-type aliases matching `parking_lot::lock_api`.
pub mod lock_api {
    pub use crate::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
}

// ---------------------------------------------------------------- Mutex --

/// Non-poisoning mutex: `lock()` returns the guard directly.
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning (parking_lot has none).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: StdMutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// --------------------------------------------------------------- RwLock --

/// Writer bit in [`RwLock::state`]; the bits below it count readers.
const WRITER: usize = 1 << (usize::BITS - 1);

/// Readers-writer lock with Arc-owned guard support. One atomic word:
/// the high bit is the writer flag, the rest the reader count.
pub struct RwLock<T: ?Sized> {
    state: AtomicUsize,
    data: UnsafeCell<T>,
}

// Safety: access to `data` is mediated by the reader/writer protocol.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            state: AtomicUsize::new(0),
            data: UnsafeCell::new(value),
        }
    }
}

/// Spin briefly, then hand the core to whoever holds the lock. The
/// yield path matters on small machines: a waiter that only spins would
/// starve the holder of its time slice.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl<T: ?Sized> RwLock<T> {
    fn acquire_read(&self) {
        let mut spins = 0u32;
        loop {
            // Optimistic increment: if no writer held or arrived, done
            // in one RMW. AcqRel: acquire pairs with a releasing writer
            // so the reader sees its writes; release orders the
            // announcement for the writer's drain.
            let prev = self.state.fetch_add(1, Ordering::AcqRel);
            if prev & WRITER == 0 {
                return;
            }
            // A writer holds the lock: undo and wait.
            self.state.fetch_sub(1, Ordering::Release);
            while self.state.load(Ordering::Relaxed) & WRITER != 0 {
                backoff(&mut spins);
            }
        }
    }

    fn acquire_write(&self) {
        let mut spins = 0u32;
        // Claim the writer bit (one writer at a time) ...
        while self.state.fetch_or(WRITER, Ordering::AcqRel) & WRITER != 0 {
            backoff(&mut spins);
        }
        // ... then wait for the readers present at claim time to drain.
        // New readers see the bit and back off, so this terminates.
        while self.state.load(Ordering::Acquire) != WRITER {
            backoff(&mut spins);
        }
    }

    fn release_read(&self) {
        self.state.fetch_sub(1, Ordering::Release);
    }

    fn release_write(&self) {
        self.state.fetch_and(!WRITER, Ordering::Release);
    }

    /// Borrowed shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.acquire_read();
        RwLockReadGuard { lock: self }
    }

    /// Borrowed exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.acquire_write();
        RwLockWriteGuard { lock: self }
    }

    /// Borrowed exclusive access only if no reader or writer holds the
    /// lock right now (parking_lot's `try_write`).
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| RwLockWriteGuard { lock: self })
    }

    /// Owned shared access through an `Arc` (parking_lot's `arc_lock`).
    pub fn read_arc(this: &Arc<RwLock<T>>) -> ArcRwLockReadGuard<RawRwLock, T> {
        this.acquire_read();
        ArcRwLockReadGuard {
            lock: this.clone(),
            _raw: PhantomData,
        }
    }

    /// Owned exclusive access through an `Arc` (parking_lot's `arc_lock`).
    pub fn write_arc(this: &Arc<RwLock<T>>) -> ArcRwLockWriteGuard<RawRwLock, T> {
        this.acquire_write();
        ArcRwLockWriteGuard {
            lock: this.clone(),
            _raw: PhantomData,
        }
    }
}

/// Borrowed read guard.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: reader count > 0 excludes writers.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release_read();
    }
}

/// Borrowed write guard.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: exclusive hold.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: exclusive hold.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.release_write();
    }
}

/// Owned read guard keeping its lock alive via `Arc`.
pub struct ArcRwLockReadGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

impl<R, T: ?Sized> std::ops::Deref for ArcRwLockReadGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: reader count > 0 excludes writers.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockReadGuard<R, T> {
    fn drop(&mut self) {
        self.lock.release_read();
    }
}

/// Owned write guard keeping its lock alive via `Arc`.
pub struct ArcRwLockWriteGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    _raw: PhantomData<R>,
}

impl<R, T: ?Sized> std::ops::Deref for ArcRwLockWriteGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: exclusive hold.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> std::ops::DerefMut for ArcRwLockWriteGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: exclusive hold.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockWriteGuard<R, T> {
    fn drop(&mut self) {
        self.lock.release_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn try_write_fails_while_read_or_write_held() {
        let l = RwLock::new(5);
        {
            let _read = l.read();
            assert!(l.try_write().is_none(), "a reader holds it");
        }
        {
            let _write = l.write();
            assert!(l.try_write().is_none(), "a writer holds it");
        }
        *l.try_write().expect("free now") += 1;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn rwlock_shared_then_exclusive() {
        let l = Arc::new(RwLock::new(vec![1, 2]));
        {
            let a = RwLock::read_arc(&l);
            let b = l.read(); // two concurrent readers
            assert_eq!(a.len() + b.len(), 4);
        }
        {
            let mut w = RwLock::write_arc(&l);
            w.push(3);
        }
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn arc_guard_outlives_binding_scope() {
        let guard;
        {
            let l = Arc::new(RwLock::new(7u8));
            guard = RwLock::read_arc(&l);
        } // original Arc dropped; guard keeps the lock alive
        assert_eq!(*guard, 7);
    }

    #[test]
    fn writer_excludes_readers_across_threads() {
        let l = Arc::new(RwLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = l.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let mut w = RwLock::write_arc(&l);
                    *w += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.read(), 4000);
    }
}
