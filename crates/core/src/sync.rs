//! Synchronization facade: the one place this crate names a concurrency
//! primitive.
//!
//! Every atomic, fence, `UnsafeCell`, lock, condvar, and
//! thread operation in `priosched-core` routes through this module.
//! Normal builds re-export `std` / `parking_lot` types one-to-one — the
//! facade compiles away entirely and the hot paths are byte-for-byte
//! what they were before it existed. Under `RUSTFLAGS="--cfg loom"` the
//! same paths resolve to the in-tree loom shim (`crates/shims/loom`), so
//! the models in `tests/loom_models.rs` explore every bounded
//! interleaving — including TSO store-buffer reorderings — of the *real*
//! crate code, not a transliteration of it.
//!
//! Code outside this module must not name `std::sync::atomic`,
//! `std::thread`, or `parking_lot` directly (test modules excepted); the
//! `atomics-audit` binary in `crates/bench` fails CI when one slips in.
//!
//! What is deliberately *not* modeled:
//!
//! * [`thread::scope`] is always `std`'s. The scheduler's scoped worker
//!   fleets drive whole runs — far past any model's state budget; loom
//!   models target the leaf protocols (parker, free list, MultiQueue
//!   pop) instead, and those use plain [`thread::spawn`].
//! * `Arc` — refcounts are not part of the checked state (real loom
//!   models them to catch leaks; the shim does not).

/// Atomic types, [`Ordering`](atomic::Ordering), and
/// [`fence`](atomic::fence).
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// `UnsafeCell` with loom's closure-based access API.
///
/// Under the model every `with` / `with_mut` is a scheduling point, which
/// lets the explorer preempt between a cell write and the atomic publish
/// that is supposed to order it — the exact window publish-before-write
/// bugs live in. In normal builds the closures inline to raw-pointer
/// access on a plain [`std::cell::UnsafeCell`].
pub mod cell {
    #[cfg(loom)]
    pub use loom::cell::UnsafeCell;

    #[cfg(not(loom))]
    pub use imp::UnsafeCell;

    #[cfg(not(loom))]
    mod imp {
        /// Zero-cost stand-in for `loom::cell::UnsafeCell`.
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

        impl<T> UnsafeCell<T> {
            /// Wraps a value.
            #[inline]
            pub fn new(data: T) -> UnsafeCell<T> {
                UnsafeCell(std::cell::UnsafeCell::new(data))
            }

            /// Consumes the cell and returns the inner value.
            #[inline]
            pub fn into_inner(self) -> T {
                self.0.into_inner()
            }
        }

        impl<T: ?Sized> UnsafeCell<T> {
            /// Immutable access through a raw pointer. The caller upholds
            /// the usual `UnsafeCell` aliasing rules; under the model this
            /// is additionally a scheduling point.
            #[inline]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.0.get())
            }

            /// Mutable access through a raw pointer; see [`Self::with`].
            #[inline]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.0.get())
            }

            /// Exclusive access (no scheduling point: `&mut self` proves
            /// no concurrent accessor exists).
            #[inline]
            pub fn get_mut(&mut self) -> &mut T {
                self.0.get_mut()
            }
        }
    }
}

/// Thread spawning, yielding, and sleeping.
pub mod thread {
    #[cfg(loom)]
    pub use loom::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
    #[cfg(not(loom))]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};

    // Scoped worker fleets are not modeled (see the module docs): real
    // OS threads under both cfgs.
    pub use std::thread::scope;
}

#[cfg(not(loom))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(loom)]
pub use pl::{Mutex, MutexGuard};

/// `parking_lot`-flavor facade over the model mutex: `lock()` returns the
/// guard directly, `try_lock()` returns an `Option`, and poisoning does
/// not exist (a model-thread panic aborts the whole execution).
#[cfg(loom)]
mod pl {
    use std::fmt;

    /// Mutual exclusion primitive (model-checked under `--cfg loom`).
    pub struct Mutex<T: ?Sized>(loom::sync::Mutex<T>);

    /// RAII guard; unlocks on drop.
    pub struct MutexGuard<'a, T: ?Sized>(loom::sync::MutexGuard<'a, T>);

    impl<T> Mutex<T> {
        /// Creates an unlocked mutex.
        pub fn new(value: T) -> Self {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking the model thread until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
        }

        /// Attempts to acquire the lock without blocking.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            self.0.try_lock().ok().map(MutexGuard)
        }

        /// Mutable access without locking (requires exclusive ownership).
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut().unwrap_or_else(|e| e.into_inner())
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    impl<T: ?Sized> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Mutex { .. }")
        }
    }
}

/// `std`-flavor lock + condvar (the poisoning `LockResult` API), for the
/// parker's eventcount — the only place in the crate that blocks on a
/// condvar.
pub mod stdsync {
    #[cfg(loom)]
    pub use loom::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    #[cfg(not(loom))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
}
