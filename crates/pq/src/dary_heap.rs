//! Array-backed d-ary min-heap (const-generic arity) — the one array
//! heap of this crate; [`BinaryHeap`] and [`QuaternaryHeap`] are aliases.
//!
//! §4.1 of the paper leaves the place-local priority queue open ("any
//! sequential implementation of a priority queue can be used"). A d-ary
//! heap with d = 4 trades a shallower tree (cheaper `pop` sift-downs, the
//! dominant operation in scheduling queues that are popped as often as
//! pushed) for more comparisons per level, and its children sit in one or
//! two cache lines.
//!
//! # How the hot paths move elements
//!
//! Both sifts are written the way `std::collections::BinaryHeap` writes
//! them, around a `Hole`: the element being placed is read out of the
//! array once, every level then costs *one* move (the parent or child
//! slides into the hole) instead of a three-move `swap`, and the element
//! is written back once when the hole is dropped. Indexing inside the
//! hole is unchecked; the two facts it rests on (every index is below
//! `len`, and never equals the hole's own position) are established by
//! the loop bounds of the three sift functions in this file and nowhere
//! else. Because the write-back lives in `Drop`, a panicking `Ord`
//! implementation leaves the array a permutation of what it was: nothing
//! is leaked or duplicated, only the heap order may be broken.
//!
//! `pop` is *bottom-up*: the last array element replaces the root, the
//! hole walks down along the smallest-child path all the way to a leaf
//! (`D − 1` comparisons per level, none against the displaced element),
//! and the element is then sifted up from there. The displaced element
//! came from the bottom of the heap, so the classical top-down sift —
//! `D` comparisons per level — almost never stops early, while the
//! final sift-up almost always stops after one comparison.
//! Heapify keeps the top-down sift: there most elements settle within a
//! level or two of where they start.

use crate::SequentialPriorityQueue;
use std::mem::ManuallyDrop;
use std::ptr;

/// Array-backed min-heap with `D` children per node (`D ≥ 2`, checked at
/// compile time when the heap type is instantiated).
///
/// `data[0]` is the minimum; children of `i` are `D·i + 1 ..= D·i + D`.
#[derive(Clone, Debug)]
pub struct DaryHeap<T, const D: usize> {
    data: Vec<T>,
}

/// Binary heap: the `D = 2` instance, kept as the sequential oracles'
/// queue and as the arity baseline of the benchmark's `pq.*` metrics.
pub type BinaryHeap<T> = DaryHeap<T, 2>;

/// Four-ary heap — the place-local queue of all five pools (see the
/// crate docs for the measurements behind the arity).
pub type QuaternaryHeap<T> = DaryHeap<T, 4>;

/// A slot of `data` whose element has been read out and is held aside
/// while its final position is found. Dropping the hole writes the
/// element back, so `data` is whole again on every exit, unwinding
/// included.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Opens a hole at `pos`.
    ///
    /// # Safety
    /// `pos < data.len()`.
    unsafe fn new(data: &'a mut [T], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        // SAFETY: `pos` is in bounds by the caller's contract. The slot is
        // now logically uninitialised; nothing reads it (`get` excludes
        // `pos`) until `move_to` or `drop` overwrites it.
        let elt = unsafe { ptr::read(data.get_unchecked(pos)) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// The element looking for its place.
    fn element(&self) -> &T {
        &self.elt
    }

    /// # Safety
    /// `index < data.len()` and `index != self.pos`.
    unsafe fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: in bounds and not the hole, by the caller's contract, so
        // the slot holds an initialised element.
        unsafe { self.data.get_unchecked(index) }
    }

    /// Slides the element at `index` into the hole; the hole is then at
    /// `index`.
    ///
    /// # Safety
    /// `index < data.len()` and `index != self.pos`.
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos && index < self.data.len());
        // SAFETY: both slots are in bounds and distinct by the caller's
        // contract, so the copy does not overlap; the source becomes the
        // new (uninitialised) hole, so no element is duplicated.
        unsafe {
            let base = self.data.as_mut_ptr();
            ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1);
        }
        self.pos = index;
    }
}

impl<T> Drop for Hole<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `pos` is in bounds (set by `new` or `move_to`, both of
        // which require it) and is the one uninitialised slot; `elt` is
        // never used again, so the element is moved, not duplicated.
        unsafe {
            ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(self.pos), 1);
        }
    }
}

impl<T, const D: usize> DaryHeap<T, D> {
    /// Evaluated once per instantiated arity, at monomorphization: a
    /// `DaryHeap<_, 0>` or `<_, 1>` does not build.
    const ARITY_OK: () = assert!(D >= 2, "arity must be at least 2");

    /// Every constructor goes through here, so every arity in use is
    /// checked. Does not establish the heap order.
    fn wrap(data: Vec<T>) -> Self {
        let () = Self::ARITY_OK;
        DaryHeap { data }
    }
}

impl<T, const D: usize> Default for DaryHeap<T, D> {
    fn default() -> Self {
        Self::wrap(Vec::new())
    }
}

impl<T: Ord, const D: usize> DaryHeap<T, D> {
    /// Creates an empty heap with at least `cap` preallocated slots.
    ///
    /// The pools preallocate place-local queues to keep the hot push/pop
    /// path free of reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Self::wrap(Vec::with_capacity(cap))
    }

    /// Builds a heap from an arbitrary vector in O(n) (Floyd's heapify).
    pub fn from_vec(data: Vec<T>) -> Self {
        let mut h = Self::wrap(data);
        h.heapify();
        h
    }

    fn heapify(&mut self) {
        let n = self.data.len();
        if n < 2 {
            return;
        }
        for i in (0..=(n - 2) / D).rev() {
            self.sift_down(i);
        }
    }

    /// Restores the invariant after `data[old..]` was appended to a valid
    /// heap `data[..old]`: per-element sift-up touches only the insertion
    /// paths (O(m log n)), Floyd's heapify costs O(n) regardless of m. The
    /// crossover is approximated as `m ≥ n / log₂(n)`; an empty original
    /// heap always rebuilds.
    fn repair_tail(&mut self, old: usize) {
        let n = self.data.len();
        if n == old {
            return;
        }
        let log_n = (usize::BITS - n.leading_zeros()) as usize;
        if old == 0 || n - old >= n / log_n {
            self.heapify();
        } else {
            for i in old..n {
                self.sift_up(i);
            }
        }
    }

    /// Moves `data[pos]` towards the root until its parent is not larger.
    /// `pos` must be in bounds.
    fn sift_up(&mut self, pos: usize) {
        assert!(pos < self.data.len());
        // SAFETY: `pos < len` was just checked.
        let mut hole = unsafe { Hole::new(&mut self.data, pos) };
        while hole.pos > 0 {
            let parent = (hole.pos - 1) / D;
            // SAFETY: `parent < hole.pos < len`.
            if hole.element() >= unsafe { hole.get(parent) } {
                break;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Index of the smallest of the children `first..last` of the hole's
    /// position (the first one among equals).
    ///
    /// # Safety
    /// `first < last <= data.len()` and `hole.pos < first`.
    unsafe fn min_child(hole: &Hole<'_, T>, first: usize, last: usize) -> usize {
        let mut best = first;
        for c in first + 1..last {
            // SAFETY: `c` and `best` lie in `first..last`, which is in
            // bounds and strictly above the hole's position.
            if unsafe { hole.get(c) < hole.get(best) } {
                best = c;
            }
        }
        best
    }

    /// Top-down sift: moves `data[pos]` towards the leaves until no child
    /// is smaller. `pos` must be in bounds.
    fn sift_down(&mut self, pos: usize) {
        let end = self.data.len();
        assert!(pos < end);
        // SAFETY: `pos < len` was just checked.
        let mut hole = unsafe { Hole::new(&mut self.data, pos) };
        loop {
            let first = D * hole.pos + 1;
            if first >= end {
                return;
            }
            let last = (first + D).min(end);
            // SAFETY: `hole.pos < first < last <= end == len`.
            let best = unsafe { Self::min_child(&hole, first, last) };
            // SAFETY: `best` is in `first..last`, see above.
            if hole.element() <= unsafe { hole.get(best) } {
                return;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(best) };
        }
    }

    /// Bottom-up sift for `pop`: walks the hole opened at the root down
    /// the smallest-child path to a leaf without looking at the displaced
    /// element, then sifts that element up from the leaf. The heap must
    /// be non-empty.
    fn sift_down_to_bottom(&mut self) {
        let end = self.data.len();
        assert!(end > 0);
        // SAFETY: `0 < len` was just checked.
        let mut hole = unsafe { Hole::new(&mut self.data, 0) };
        let mut first = 1;
        // Nodes with all `D` children: a constant trip count the compiler
        // unrolls.
        while first + D <= end {
            // SAFETY: `hole.pos < first` (a child index) and
            // `first + D <= end == len`.
            unsafe {
                let best = Self::min_child(&hole, first, first + D);
                hole.move_to(best);
            }
            first = D * hole.pos + 1;
        }
        // At most one node on the path has a partial set of children.
        if first < end {
            // SAFETY: `hole.pos < first < end == len`.
            unsafe {
                let best = Self::min_child(&hole, first, end);
                hole.move_to(best);
            }
        }
        let leaf = hole.pos;
        drop(hole);
        self.sift_up(leaf);
    }

    /// The element [`peek`] returns after one [`pop`], without popping:
    /// the least of the root's children, the first among equals as the
    /// sift takes it. `None` when the heap holds fewer than two elements.
    ///
    /// [`peek`]: SequentialPriorityQueue::peek
    /// [`pop`]: SequentialPriorityQueue::pop
    pub fn peek_after_pop(&self) -> Option<&T> {
        self.data.get(1..)?.iter().take(D).min()
    }

    /// Checks the heap invariant; used by tests.
    pub fn is_valid_heap(&self) -> bool {
        (1..self.data.len()).all(|i| self.data[(i - 1) / D] <= self.data[i])
    }

    /// Read-only view of the backing array (heap order, not sorted).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Ord, const D: usize> SequentialPriorityQueue<T> for DaryHeap<T, D> {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, item: T) {
        self.data.push(item);
        self.sift_up(self.data.len() - 1);
    }

    fn pop(&mut self) -> Option<T> {
        let mut item = self.data.pop()?;
        if !self.data.is_empty() {
            std::mem::swap(&mut item, &mut self.data[0]);
            self.sift_down_to_bottom();
        }
        Some(item)
    }

    fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn clear(&mut self) {
        self.data.clear();
    }

    /// Removes ⌈len/2⌉ elements and returns them as a new heap.
    ///
    /// Elements at even positions of the backing array are taken; because
    /// a heap's array interleaves "good" and "bad" elements at every
    /// level, this yields two halves of comparable priority mix, which is
    /// what the steal-half policy wants (the thief should get useful work,
    /// not just the victim's worst tasks). Both halves are re-heapified in
    /// O(n).
    fn split_half(&mut self) -> Self {
        let n = self.data.len();
        if n <= 1 {
            // Stealing from a queue with one element takes that element:
            // ⌈1/2⌉ = 1. The victim keeps nothing.
            return Self::wrap(std::mem::take(&mut self.data));
        }
        let mut stolen = Vec::with_capacity(n / 2 + 1);
        let mut kept = Vec::with_capacity(n - n / 2);
        for (i, x) in std::mem::take(&mut self.data).into_iter().enumerate() {
            if i % 2 == 0 {
                stolen.push(x);
            } else {
                kept.push(x);
            }
        }
        self.data = kept;
        self.heapify();
        DaryHeap::from_vec(stolen)
    }

    fn append(&mut self, other: &mut Self) {
        if other.data.len() > self.data.len() {
            std::mem::swap(&mut self.data, &mut other.data);
        }
        let old = self.data.len();
        self.data.append(&mut other.data);
        self.repair_tail(old);
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Bulk insertion with a single invariant repair: the batch is
    /// appended to the backing array and the cheaper of sift-up per
    /// element and one heapify restores the order; both produce a valid
    /// heap over the same multiset.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let old = self.data.len();
        self.data.extend(iter);
        self.repair_tail(old);
    }
}

impl<T: Ord, const D: usize> FromIterator<T> for DaryHeap<T, D> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped<const D: usize>(mut h: DaryHeap<i64, D>) -> Vec<i64> {
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn sorted_output_for_each_arity() {
        let items = [9i64, -4, 7, 0, 7, 3, -4, 12, 1];
        let mut expect = items.to_vec();
        expect.sort();
        assert_eq!(popped::<2>(items.into_iter().collect()), expect);
        assert_eq!(popped::<3>(items.into_iter().collect()), expect);
        assert_eq!(popped::<4>(items.into_iter().collect()), expect);
        assert_eq!(popped::<8>(items.into_iter().collect()), expect);
    }

    #[test]
    fn heapify_builds_valid_heap() {
        let h: DaryHeap<i64, 4> = DaryHeap::from_vec((0..100).rev().collect());
        assert!(h.is_valid_heap());
    }

    #[test]
    fn split_half_sizes_and_invariants() {
        for n in 0..50usize {
            let mut h: DaryHeap<usize, 4> = (0..n).collect();
            let stolen = h.split_half();
            assert_eq!(stolen.len(), n.div_ceil(2));
            assert_eq!(h.len(), n / 2);
            assert!(h.is_valid_heap());
            assert!(stolen.is_valid_heap());
        }
    }

    #[test]
    fn append_keeps_the_heap_order() {
        let mut h: DaryHeap<i64, 4> = (0..15).map(|x| 2 * x).collect();
        let mut other: DaryHeap<i64, 4> = [1, 3].into_iter().collect();
        h.append(&mut other);
        assert!(other.is_empty());
        assert!(h.is_valid_heap());
        let out = popped(h);
        assert_eq!(out[..4], [0, 1, 2, 3]);
    }

    #[test]
    fn agrees_with_binary_heap() {
        let items: Vec<i64> = (0..500).map(|i| (i * 7919) % 263 - 100).collect();
        let mut a: DaryHeap<i64, 4> = items.iter().copied().collect();
        let mut b: BinaryHeap<i64> = items.iter().copied().collect();
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn quaternary_alias_works() {
        let mut h: QuaternaryHeap<i64> = QuaternaryHeap::new();
        h.push(2);
        h.push(1);
        assert_eq!(h.pop(), Some(1));
    }
}
