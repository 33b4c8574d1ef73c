//! In-tree shim for the subset of `parking_lot` used by this workspace.
//!
//! Wraps `std::sync::Mutex` with `parking_lot`'s panic-free, non-poisoning
//! API (`lock()` returns the guard directly, `try_lock()` returns an
//! `Option`). Poisoning is deliberately ignored: a panicked place handle
//! leaves plain data (task queues) behind, and the scheduler's abort path
//! already contains panics — see `scheduler::SpawnCtx::run_one`.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard, TryLockError};

/// Mutual exclusion primitive (non-poisoning facade over `std`).
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// RAII guard; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: StdGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_try_lock() {
        let m = Mutex::new(1);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock blocks try_lock");
        }
        assert_eq!(*m.try_lock().unwrap(), 2);
    }

    #[test]
    fn survives_poisoning() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock() ignores poisoning");
    }
}
