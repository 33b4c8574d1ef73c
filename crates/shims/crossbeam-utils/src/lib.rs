//! In-tree shim for the subset of `crossbeam-utils` used by this workspace.
//!
//! The build environment is fully offline, so the two small utilities the
//! scheduler relies on are reimplemented here with the same API:
//!
//! * [`CachePadded`] — aligns a value to its own cache line to prevent
//!   false sharing between per-place shared records;
//! * [`Backoff`] — exponential spin/yield backoff for poll loops.

use std::ops::Deref;

/// Pads and aligns a value to the length of a cache line.
///
/// 128 bytes covers the common cases: x86_64 prefetches cache-line pairs
/// (effectively 128 B) and Apple/ARM big cores use 128-B lines; on 64-B-line
/// machines the extra padding is harmless.
#[derive(Debug)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads and aligns `value` to a cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Exponential backoff for spin loops: spin for a while, then start
/// yielding to the OS scheduler.
#[derive(Default)]
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Creates a backoff in its initial (shortest-wait) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the initial state (call after useful work was found).
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Busy-spins a bounded, exponentially growing number of times.
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..1u32 << step {
            std::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Spins while cheap, then yields the thread.
    pub fn snooze(&self) {
        if self.step.get() <= SPIN_LIMIT {
            self.spin();
        } else {
            std::thread::yield_now();
            if self.step.get() <= YIELD_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }
    }

    /// `true` once waiting has escalated past busy-spinning, i.e. callers
    /// that can block should.
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let x = CachePadded::new(7u64);
        assert_eq!(*x, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
