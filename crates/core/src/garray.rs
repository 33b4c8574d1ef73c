//! Lock-free unbounded global array (linked list of segments).
//!
//! §4.1.3: "we implemented the global array as a linked list of arrays.
//! Whenever an index is requested that is outside the bounds of the existing
//! arrays, a new array is allocated and added to the end of the linked list
//! using a single compare-and-swap operation."
//!
//! Slots hold item pointers and are written at most once (null → item); they
//! are never cleared — *taking* a task flips the item's tag, not the slot.
//! Consequently every slot below the published `tail` of the centralized
//! structure is non-null forever, which §4.1's pop relies on — and a slot
//! once seen non-null stays non-null, which is what lets a pusher remember
//! how far it has walked a k-window instead of re-reading it
//! ([`crate::centralized`], "The window walk").
//!
//! Reclamation: the paper frees exhausted segments through a GC scheme \[18\]
//! plus per-place reference counts, while the run goes on. Here segments
//! are owned by the array and freed when it drops, with the pool at the end
//! of the run or service that built it; no segment is ever freed while a
//! place handle is live, so handles may cache raw segment pointers as
//! cursor hints without any epoch protection. Freeing exhausted segments
//! inside a long-running service needs the paper's scheme; it is not
//! implemented.

use crate::item::Item;
use crate::sync::atomic::{AtomicPtr, Ordering};
use std::ptr;

/// Slots per segment. Large enough that segment hops are rare, small enough
/// that sparse tails don't waste much memory. (Tiny under the model, where
/// each slot registers with the execution.)
pub const SEGMENT_LEN: usize = if cfg!(loom) { 8 } else { 1024 };

/// One fixed-size chunk of the global array.
pub struct Segment<T> {
    /// Global index of `slots[0]`.
    base: u64,
    next: AtomicPtr<Segment<T>>,
    slots: Box<[AtomicPtr<Item<T>>]>,
}

impl<T> Segment<T> {
    fn boxed(base: u64) -> Box<Self> {
        let slots = (0..SEGMENT_LEN)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        Box::new(Segment {
            base,
            next: AtomicPtr::new(ptr::null_mut()),
            slots,
        })
    }

    #[inline]
    fn contains(&self, pos: u64) -> bool {
        pos >= self.base && pos < self.base + SEGMENT_LEN as u64
    }
}

/// The unbounded array: a grow-only linked list of [`Segment`]s starting at
/// global index 0.
pub struct GlobalArray<T> {
    head: AtomicPtr<Segment<T>>,
}

/// A per-place cursor caching the segment that served the last access, so
/// an access near the previous one finds its segment without walking from
/// the head. A place keeps one per access pattern: the scan of
/// `[head, tail)` takes whole segment runs ([`GlobalArray::run`]: one cursor
/// check per segment), the push walk takes single slots that follow one
/// another inside a k-window ([`GlobalArray::slot_or_grow`]), and the
/// fallback probe jumps about above the tail.
pub struct SegmentCursor<T> {
    seg: *const Segment<T>,
}

impl<T> Default for SegmentCursor<T> {
    fn default() -> Self {
        SegmentCursor { seg: ptr::null() }
    }
}

// SAFETY: cursors cache pointers into segments owned by a `GlobalArray` the
// holder also keeps alive (via Arc of the enclosing structure); segments are
// never freed before the array drops.
unsafe impl<T: Send> Send for SegmentCursor<T> {}

impl<T: Send> GlobalArray<T> {
    /// Creates the array with one preallocated segment at base index 0.
    pub fn new() -> Self {
        let first = Box::into_raw(Segment::boxed(0));
        GlobalArray {
            head: AtomicPtr::new(first),
        }
    }

    /// Returns the slots from `pos` to the end of the segment holding it, if
    /// that segment already exists; never allocates. The run is never
    /// empty and `run[i]` is the slot at `pos + i`, so a scan of `[a, b)`
    /// pays the cursor check once per segment instead of once per
    /// position.
    pub fn run(&self, pos: u64, cursor: &mut SegmentCursor<T>) -> Option<&[AtomicPtr<Item<T>>]> {
        let mut seg = cursor.seg;
        // (Re)start from the head when the cursor is unset or ahead of pos.
        // SAFETY: a non-null cursor points into this array's segment list,
        // and segments are never freed while `self` is alive.
        if seg.is_null() || unsafe { (*seg).base } > pos {
            seg = self.head.load(Ordering::Acquire);
        }
        loop {
            // SAFETY: segments are never freed while `self` is alive.
            let s = unsafe { &*seg };
            if s.contains(pos) {
                cursor.seg = seg;
                return Some(&s.slots[(pos - s.base) as usize..]);
            }
            let next = s.next.load(Ordering::Acquire);
            if next.is_null() {
                cursor.seg = seg; // best-known position for future calls
                return None;
            }
            seg = next;
        }
    }

    /// Returns the slot at `pos` if its segment already exists; never
    /// allocates. Used by the push walk and the random fallback probe.
    pub fn slot(&self, pos: u64, cursor: &mut SegmentCursor<T>) -> Option<&AtomicPtr<Item<T>>> {
        self.run(pos, cursor)?.first()
    }

    /// Returns the slot at `pos`, growing the array as needed (push path).
    pub fn slot_or_grow(&self, pos: u64, cursor: &mut SegmentCursor<T>) -> &AtomicPtr<Item<T>> {
        loop {
            if let Some(slot) = self.slot(pos, cursor) {
                return slot;
            }
            // Cursor now rests on the last existing segment; append after it.
            let last = cursor.seg;
            debug_assert!(!last.is_null());
            // SAFETY: `slot` left the cursor on a live segment; segments
            // are never freed while `self` is alive.
            let s = unsafe { &*last };
            let fresh = Box::into_raw(Segment::boxed(s.base + SEGMENT_LEN as u64));
            // Single CAS appends the new array (§4.1.3). On failure another
            // thread grew the list; retry the lookup through its segment.
            if s.next
                .compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // SAFETY: `fresh` never became visible to other threads.
                drop(unsafe { Box::from_raw(fresh) });
            }
        }
    }

    /// Number of segments currently allocated (test/diagnostic use).
    pub fn segment_count(&self) -> usize {
        let mut n = 0;
        let mut seg = self.head.load(Ordering::Acquire);
        while !seg.is_null() {
            n += 1;
            // SAFETY: non-null list node; segments are never freed while
            // `self` is alive.
            seg = unsafe { &*seg }.next.load(Ordering::Acquire);
        }
        n
    }
}

impl<T: Send> Default for GlobalArray<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for GlobalArray<T> {
    fn drop(&mut self) {
        // Relaxed load instead of `get_mut`: `&mut self` already proves
        // exclusivity (the model's atomics have no `get_mut`).
        let mut seg = self.head.load(Ordering::Relaxed);
        while !seg.is_null() {
            // SAFETY: drop has exclusive ownership of the whole chain.
            let boxed = unsafe { Box::from_raw(seg) };
            seg = boxed.next.load(Ordering::Relaxed);
        }
    }
}

// SAFETY: all slot access is through atomics; segment links are atomics;
// item pointees are managed by the ItemPool.
unsafe impl<T: Send> Send for GlobalArray<T> {}
unsafe impl<T: Send> Sync for GlobalArray<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemPool;

    #[test]
    fn slot_absent_before_growth() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        assert!(arr.slot(0, &mut cur).is_some(), "segment 0 preallocated");
        assert!(arr.slot(SEGMENT_LEN as u64, &mut cur).is_none());
    }

    #[test]
    fn grow_allocates_contiguous_segments() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        let far = 5 * SEGMENT_LEN as u64 + 3;
        let _ = arr.slot_or_grow(far, &mut cur);
        assert_eq!(arr.segment_count(), 6);
        // All intermediate positions now resolve.
        for pos in [0, SEGMENT_LEN as u64, 2 * SEGMENT_LEN as u64 + 7, far] {
            assert!(arr.slot(pos, &mut cur).is_some(), "pos {pos}");
        }
    }

    #[test]
    fn cursor_restarts_when_behind() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        let _ = arr.slot_or_grow(3 * SEGMENT_LEN as u64, &mut cur);
        // Cursor now sits on segment 3; a lookup at pos 0 must restart.
        assert!(arr.slot(0, &mut cur).is_some());
        assert!(arr.slot(3 * SEGMENT_LEN as u64 + 1, &mut cur).is_some());
    }

    #[test]
    fn slots_store_and_load_items() {
        let arr: GlobalArray<u64> = GlobalArray::new();
        let pool: ItemPool<u64> = ItemPool::new();
        let mut cur = SegmentCursor::default();
        let item = pool.acquire();
        unsafe { (*item).init(0, 1, 9, 99) };
        unsafe { &*item }.tag.store(4, Ordering::Release);
        let slot = arr.slot_or_grow(4, &mut cur);
        assert!(slot
            .compare_exchange(
                ptr::null_mut(),
                item as *mut _,
                Ordering::AcqRel,
                Ordering::Relaxed
            )
            .is_ok());
        let loaded = arr.slot(4, &mut cur).unwrap().load(Ordering::Acquire);
        assert_eq!(loaded as *const _, item);
        assert_eq!(unsafe { &*loaded }.try_take(4), Some(99));
        unsafe { pool.release(item) };
    }

    #[test]
    fn concurrent_growth_yields_one_chain() {
        let arr = std::sync::Arc::new(GlobalArray::<u32>::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let arr = arr.clone();
                s.spawn(move || {
                    let mut cur = SegmentCursor::default();
                    for i in 0..20u64 {
                        let _ = arr.slot_or_grow(i * SEGMENT_LEN as u64, &mut cur);
                    }
                });
            }
        });
        // Exactly 20 segments despite racing growers (no duplicates/leaks).
        assert_eq!(arr.segment_count(), 20);
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;

    #[test]
    fn positions_straddling_segment_boundary() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        let boundary = SEGMENT_LEN as u64;
        // Last slot of segment 0 and first slot of segment 1.
        let _ = arr.slot_or_grow(boundary - 1, &mut cur);
        let _ = arr.slot_or_grow(boundary, &mut cur);
        assert!(arr.slot(boundary - 1, &mut cur).is_some());
        assert!(arr.slot(boundary, &mut cur).is_some());
        assert_eq!(arr.segment_count(), 2);
    }

    #[test]
    fn run_ends_at_its_segment_and_indexes_from_pos() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        let len = SEGMENT_LEN as u64;
        let _ = arr.slot_or_grow(len, &mut cur);
        for (pos, want) in [(0, len), (3, len - 3), (len - 1, 1), (len, len)] {
            let run = arr.run(pos, &mut cur).expect("segment exists");
            assert_eq!(run.len() as u64, want, "pos {pos}");
            let first = arr.slot(pos, &mut cur).unwrap();
            assert!(ptr::eq(first, &run[0]), "run[0] is the slot at pos {pos}");
        }
        assert!(arr.run(2 * len, &mut cur).is_none(), "never allocates");
        assert_eq!(arr.segment_count(), 2);
    }

    #[test]
    fn cursor_survives_forward_and_backward_hops() {
        let arr: GlobalArray<u32> = GlobalArray::new();
        let mut cur = SegmentCursor::default();
        let far = 4 * SEGMENT_LEN as u64;
        let _ = arr.slot_or_grow(far, &mut cur);
        // Zig-zag across segments with one cursor.
        for pos in [far, 0, far - 1, SEGMENT_LEN as u64, far, 1] {
            assert!(arr.slot(pos, &mut cur).is_some(), "pos {pos}");
        }
    }
}
