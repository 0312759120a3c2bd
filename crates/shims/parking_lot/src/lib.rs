//! Offline stand-in for the `parking_lot` crate: `parking_lot`'s
//! non-poisoning `lock`/`read`/`write`/`try_write` over `std::sync`.
//!
//! The guards are `std`'s own, so a `std::sync::Condvar` can wait on a
//! [`MutexGuard`]. Poisoning is ignored, as in `parking_lot`, which has
//! none: a lock released by a panicking thread holds whatever that
//! thread left in it.

#![forbid(unsafe_code)]

use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// Non-poisoning mutex: `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Non-poisoning readers-writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access only if no reader or writer holds the lock right
    /// now.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
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
}
