//! `loom::cell::UnsafeCell`: unsynchronized data whose accesses are
//! visible scheduling points.
//!
//! The data lives natively (a plain `std::cell::UnsafeCell`), so reads
//! and writes take effect immediately — but each access passes through a
//! model decision point, which lets the explorer preempt between a cell
//! write and the atomic publish that is supposed to order it. That is
//! enough to catch publish-before-write bugs (the store-buffer modeling
//! of the *atomic* side supplies the reordering).

/// Model `UnsafeCell` with loom's closure-based access API.
pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

impl<T> UnsafeCell<T> {
    /// Wrap a value.
    pub fn new(data: T) -> UnsafeCell<T> {
        UnsafeCell(std::cell::UnsafeCell::new(data))
    }
}

impl<T: ?Sized> UnsafeCell<T> {
    /// Immutable access through a raw pointer.
    ///
    /// # Safety contract (checked by convention, not the model)
    ///
    /// The caller promises the usual `UnsafeCell` aliasing rules; the
    /// model only inserts a scheduling point.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        crate::rt::cell_access();
        f(self.0.get())
    }

    /// Mutable access through a raw pointer; see [`UnsafeCell::with`].
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        crate::rt::cell_access();
        f(self.0.get())
    }
}
