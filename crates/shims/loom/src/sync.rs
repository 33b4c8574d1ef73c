//! Model-checked `Mutex` and `Condvar`, mirroring `std::sync`.

use crate::rt;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, TryLockError, TryLockResult};
use std::time::Duration;

pub mod atomic;

/// Mutex whose lock/unlock are visible operations of the model.
///
/// Never poisons: a model-thread panic aborts the whole execution, so
/// `lock()` always returns `Ok` — matching loom, whose mutex is also
/// poison-free behind a `LockResult` signature.
pub struct Mutex<T: ?Sized> {
    id: rt::Loc,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// Guard for [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex (registers it with the active model execution).
    pub fn new(data: T) -> Mutex<T> {
        Mutex {
            id: rt::mutex_register(),
            data: UnsafeCell::new(data),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire, blocking the model thread until available.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        rt::mutex_lock(self.id);
        Ok(MutexGuard { lock: self })
    }

    /// Non-blocking acquire attempt.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        if rt::mutex_try_lock(self.id) {
            Ok(MutexGuard { lock: self })
        } else {
            Err(TryLockError::WouldBlock)
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the model scheduler enforces mutual exclusion — this
        // guard exists only while the runtime records us as the owner.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; ownership is exclusive by construction.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        rt::mutex_unlock(self.lock.id);
    }
}

/// Result of a timed condvar wait; mirrors `std::sync::WaitTimeoutResult`
/// (which has no public constructor, hence this local type).
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the (model) timeout fired.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model condition variable.
///
/// Untimed waits never wake spuriously: a lost notification therefore
/// shows up as a model deadlock instead of being papered over. Timed
/// waits may be woken by a scheduler-chosen timeout. Registration with
/// the execution is deferred to first use.
#[derive(Default)]
pub struct Condvar {
    id_cell: std::sync::OnceLock<rt::Loc>,
}

impl Condvar {
    fn id(&self) -> rt::Loc {
        *self.id_cell.get_or_init(rt::condvar_register)
    }

    /// Release the guard's mutex, wait for a notification, reacquire.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        std::mem::forget(guard);
        rt::condvar_wait(self.id(), lock.id, false);
        Ok(MutexGuard { lock })
    }

    /// Timed wait; the duration is ignored (model time), the timeout is a
    /// scheduler choice instead.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let lock = guard.lock;
        std::mem::forget(guard);
        let timed_out = rt::condvar_wait(self.id(), lock.id, true);
        Ok((MutexGuard { lock }, WaitTimeoutResult(timed_out)))
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        rt::condvar_notify_all(self.id());
    }
}
