//! Poison-tolerant `std::sync` helpers: the one place this workspace
//! decides what a poisoned lock means.
//!
//! A handler panic must not wedge an event loop, a scrape or a mailbox,
//! and every structure these guard (queues, maps, registries, tick
//! stamps) is valid between any two statements that hold the guard, so
//! the poison flag is ignored and the data passed on.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a writer panicked.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers the guard from a poisoned mutex.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that recovers the guard from a poisoned
/// mutex. Whether the wait timed out is not reported: callers re-check
/// their condition and their own deadline, as spurious wake-ups require
/// anyway.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock(&m), 7, "guard recovered with state intact");
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = Arc::new(RwLock::new(vec![1]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().unwrap();
            panic!("poison the lock");
        })
        .join();
        write(&l).push(2);
        assert_eq!(read(&l).len(), 2);
    }
}
