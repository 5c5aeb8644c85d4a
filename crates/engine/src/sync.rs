//! Acquiring the crate's `std::sync` locks.
//!
//! A panic while a lock is held poisons it.  These helpers take the data of
//! a poisoned lock anyway, so a panic in one request does not make every
//! later request that needs the lock panic as well.  For a session lock
//! that means the session keeps serving in whatever state the panic left
//! it.  ROADMAP item 2 changes that for session locks: a panicking request
//! will evict its session, which then rehydrates from checkpoint plus WAL.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `mutex`, taking its data even if it is poisoned.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Share `lock`, taking its data even if it is poisoned.
pub(crate) fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Lock `lock` exclusively, taking its data even if it is poisoned.
pub(crate) fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}
