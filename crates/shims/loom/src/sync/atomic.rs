//! Model-checked atomics with TSO store-buffer semantics.
//!
//! Non-SeqCst stores land in the owning thread's store buffer and become
//! visible to other threads only when the scheduler drains them (or a
//! flush point — SeqCst store/fence, RMW, lock edge — forces it). Loads
//! forward from the thread's own buffer first. This is the x86 memory
//! model, which is exactly what the crate's documented fence-pairing
//! arguments are written against.

use crate::rt;
use std::marker::PhantomData;

pub use std::sync::atomic::Ordering;

/// SeqCst fences flush the issuing thread's store buffer; weaker fences
/// are no-ops on TSO (but still scheduling points).
pub fn fence(order: Ordering) {
    rt::fence(order);
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $ty:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            loc: rt::Loc,
        }

        // The casts are identity for the u64 instantiation.
        #[allow(clippy::unnecessary_cast)]
        impl $name {
            /// Create and register with the active model execution.
            pub fn new(v: $ty) -> $name {
                $name { loc: rt::atomic_register(v as u64) }
            }

            /// Atomic load (all orderings equivalent under TSO).
            pub fn load(&self, order: Ordering) -> $ty {
                rt::atomic_load(self.loc, order) as $ty
            }

            /// Atomic store; buffered unless `SeqCst`.
            pub fn store(&self, v: $ty, order: Ordering) {
                rt::atomic_store(self.loc, v as u64, order);
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$ty, $ty> {
                rt::atomic_cas(self.loc, current as u64, new as u64)
                    .map(|v| v as $ty)
                    .map_err(|v| v as $ty)
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: $ty, _order: Ordering) -> $ty {
                rt::atomic_rmw(self.loc, |x| (x as $ty).wrapping_add(v) as u64) as $ty
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: $ty, _order: Ordering) -> $ty {
                rt::atomic_rmw(self.loc, |x| (x as $ty).wrapping_sub(v) as u64) as $ty
            }
        }

        impl Default for $name {
            fn default() -> $name {
                $name::new(0)
            }
        }
    };
}

int_atomic!(
    /// Model `AtomicU8`.
    AtomicU8,
    u8
);
int_atomic!(
    /// Model `AtomicU32`.
    AtomicU32,
    u32
);
int_atomic!(
    /// Model `AtomicU64`.
    AtomicU64,
    u64
);
int_atomic!(
    /// Model `AtomicUsize`.
    AtomicUsize,
    usize
);

/// Model `AtomicBool`.
pub struct AtomicBool {
    loc: rt::Loc,
}

impl AtomicBool {
    /// Create and register with the active model execution.
    pub fn new(v: bool) -> AtomicBool {
        AtomicBool {
            loc: rt::atomic_register(v as u64),
        }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        rt::atomic_load(self.loc, order) != 0
    }

    /// Atomic store; buffered unless `SeqCst`.
    pub fn store(&self, v: bool, order: Ordering) {
        rt::atomic_store(self.loc, v as u64, order);
    }

    /// Atomic swap.
    pub fn swap(&self, v: bool, _order: Ordering) -> bool {
        rt::atomic_rmw(self.loc, |_| v as u64) != 0
    }
}

/// Model `AtomicPtr`; the pointer is stored as its address.
pub struct AtomicPtr<T> {
    loc: rt::Loc,
    _marker: PhantomData<*mut T>,
}

// SAFETY: same bounds as `std::sync::atomic::AtomicPtr`.
unsafe impl<T> Send for AtomicPtr<T> {}
unsafe impl<T> Sync for AtomicPtr<T> {}

impl<T> AtomicPtr<T> {
    /// Create and register with the active model execution.
    pub fn new(p: *mut T) -> AtomicPtr<T> {
        AtomicPtr {
            loc: rt::atomic_register(p as usize as u64),
            _marker: PhantomData,
        }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> *mut T {
        rt::atomic_load(self.loc, order) as usize as *mut T
    }

    /// Atomic store; buffered unless `SeqCst`.
    pub fn store(&self, p: *mut T, order: Ordering) {
        rt::atomic_store(self.loc, p as usize as u64, order);
    }

    /// Atomic compare-exchange.
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        _success: Ordering,
        _failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        rt::atomic_cas(self.loc, current as usize as u64, new as usize as u64)
            .map(|v| v as usize as *mut T)
            .map_err(|v| v as usize as *mut T)
    }
}
