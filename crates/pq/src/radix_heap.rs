//! Exact radix heap over `u64` keys — the place-local queue of the
//! work-stealing, centralized and hybrid pools.
//!
//! A radix heap (Ahuja, Mehlhorn, Orlin, Tarjan) keeps a pivot key `last`
//! and files every element above it into one of 64 buckets, by the highest
//! bit in which its key differs from `last`. Elements of bucket `i` agree
//! with `last` above bit `i` and have bit `i` set, so every key of a lower
//! bucket is smaller than every key of a higher one: when the small end runs
//! dry, only the lowest non-empty bucket is looked at, its least key becomes
//! the new `last`, and each of its elements moves to `b0` or to a strictly
//! lower bucket. A push costs O(1), and an element moves at most 64 times
//! over its life.
//!
//! The textbook structure needs monotone pushes (nothing below `last`).
//! This one is exact for any push order, because the small end is a
//! [`QuaternaryHeap`], `b0`, that holds every element whose key is
//! ≤ `last`. A push below `last` (a foreign reference ingested late, a
//! lane drained after a pop) goes there, and pops come only from there, so
//! ties on the key still break by the element's full [`Ord`] (the pools'
//! tag). `b0` holds the minimum whenever the heap is non-empty: a push into
//! an empty heap makes its key `last`, and a pop that empties `b0` refills
//! it at once. Over a strict total order the heap therefore pops the same
//! sequence as any other queue of this crate.
//!
//! Buckets are chains of 256-entry vectors (`CHUNK`). A chunk goes back to
//! the heap's spare list as soon as a refill or a split has drained it, so
//! the buckets together hold no more chunks than their elements fill, plus
//! one partly filled chunk per bucket. (Growable vector buckets keep each
//! bucket's high-water capacity; see the crate docs for what that cost.)
//!
//! The only comparisons are `b0`'s, so a panicking [`Ord`] leaks nothing
//! and duplicates nothing: `b0`'s sifts leave it a permutation of what it
//! held (see [`DaryHeap`](crate::DaryHeap)), and a refill that unwinds
//! drops the elements it had not yet moved with the chunks that held them.

use crate::{QuaternaryHeap, SequentialPriorityQueue};

/// A `u64` key that orders elements the way their [`Ord`] does, so that a
/// [`RadixHeap`] can file them into buckets without comparing them.
///
/// The contract is that a smaller key means a smaller element: if
/// `a.radix_key() < b.radix_key()` then `a < b`. Elements with equal keys
/// may compare either way; the heap orders them by `Ord`.
pub trait RadixKey {
    /// The element's key.
    fn radix_key(&self) -> u64;
}

impl RadixKey for u64 {
    fn radix_key(&self) -> u64 {
        *self
    }
}

/// Flipping the sign bit maps `i64::MIN..=i64::MAX` onto `0..=u64::MAX` in
/// order.
impl RadixKey for i64 {
    fn radix_key(&self) -> u64 {
        *self as u64 ^ (1 << 63)
    }
}

/// As for `i64`: `i32::MIN..=i32::MAX` maps onto `0..=u32::MAX`.
impl RadixKey for i32 {
    fn radix_key(&self) -> u64 {
        (*self as u32 ^ (1 << 31)) as u64
    }
}

/// Keyed by the first component, as the tuple's lexicographic order is.
impl<A: RadixKey, B> RadixKey for (A, B) {
    fn radix_key(&self) -> u64 {
        self.0.radix_key()
    }
}

/// Entries per bucket chunk.
const CHUNK: usize = 256;

/// Exact min-queue with O(1) pushes above the last refill's key; see the
/// [module docs](self).
pub struct RadixHeap<T> {
    /// Every element whose key is ≤ `last`; holds the minimum whenever the
    /// heap is non-empty.
    b0: QuaternaryHeap<T>,
    /// The pivot: the least key of the last refilled bucket, or the key of
    /// the push that found the heap empty.
    last: u64,
    /// `buckets[i]`: elements whose key is above `last` and differs from it
    /// first in bit `i`, as a chain of chunks of at most `CHUNK` entries.
    buckets: [Vec<Vec<T>>; 64],
    /// Bit `i` is set when `buckets[i]` is non-empty.
    occupied: u64,
    /// Elements in `buckets`.
    in_buckets: usize,
    /// Drained chunks, empty and with their capacity, for reuse.
    spare: Vec<Vec<T>>,
}

impl<T> Default for RadixHeap<T> {
    fn default() -> Self {
        RadixHeap {
            b0: QuaternaryHeap::default(),
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            in_buckets: 0,
            spare: Vec::new(),
        }
    }
}

/// Appends `item` to `chain`, opening a chunk from `spare` (or a new one)
/// when the last is full.
fn chain_push<T>(chain: &mut Vec<Vec<T>>, spare: &mut Vec<Vec<T>>, item: T) {
    match chain.last_mut() {
        Some(chunk) if chunk.len() < CHUNK => chunk.push(item),
        _ => {
            let mut chunk = spare.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
            chunk.push(item);
            chain.push(chunk);
        }
    }
}

impl<T: Ord + RadixKey> RadixHeap<T> {
    /// Appends `item`, whose key is above `last`, to its bucket.
    fn file(&mut self, key: u64, item: T) {
        debug_assert!(key > self.last);
        let i = 63 - (key ^ self.last).leading_zeros() as usize;
        chain_push(&mut self.buckets[i], &mut self.spare, item);
        self.occupied |= 1 << i;
        self.in_buckets += 1;
    }

    /// Refills the empty `b0` from the lowest non-empty bucket: its least
    /// key becomes `last`, the elements with that key go to `b0` and the
    /// rest to strictly lower buckets.
    fn refill(&mut self) {
        debug_assert!(self.b0.is_empty() && self.occupied != 0);
        let i = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << i);
        let chain = std::mem::take(&mut self.buckets[i]);
        // A loop per chunk: a flattened iterator's `min` replayed a
        // recorded `sssp_sparse` queue trace measurably slower.
        let mut last = u64::MAX;
        for chunk in &chain {
            self.in_buckets -= chunk.len();
            for item in chunk {
                last = last.min(item.radix_key());
            }
        }
        self.last = last;
        for mut chunk in chain {
            for item in chunk.drain(..) {
                let key = item.radix_key();
                if key == last {
                    self.b0.push(item);
                } else {
                    self.file(key, item);
                }
            }
            self.spare.push(chunk);
        }
    }

    /// Steal-half (§3.1): removes ⌈len/2⌉ elements and returns them as a
    /// new heap.
    ///
    /// Keeps the pivot and files nothing again. The thief takes `b0`'s
    /// [`DaryHeap`] half (every other slot, the root first), so it gets the
    /// least element, and then every other element of each bucket, by one
    /// parity that carries on from `b0`'s: it ends with ⌈n/2⌉ elements.
    /// Both halves keep `last`, so each element stays in the bucket of the
    /// same index; a side whose `b0` the split left empty refills it. The
    /// thief's chunks come from this heap's spare list.
    ///
    /// [`DaryHeap`]: crate::DaryHeap
    pub fn split_half(&mut self) -> Self {
        let mut stolen = Self {
            b0: self.b0.split_half(),
            last: self.last,
            ..Self::default()
        };
        // The thief took ⌈|b0|/2⌉; the next element is its if |b0| was even.
        let mut to_thief = stolen.b0.len() == self.b0.len();
        let mut rest = self.occupied;
        self.occupied = 0;
        self.in_buckets = 0;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            for mut chunk in std::mem::take(&mut self.buckets[i]) {
                for item in chunk.drain(..) {
                    if to_thief {
                        chain_push(&mut stolen.buckets[i], &mut self.spare, item);
                        stolen.in_buckets += 1;
                    } else {
                        chain_push(&mut self.buckets[i], &mut self.spare, item);
                        self.in_buckets += 1;
                    }
                    to_thief = !to_thief;
                }
                self.spare.push(chunk);
            }
            if !self.buckets[i].is_empty() {
                self.occupied |= 1 << i;
            }
            if !stolen.buckets[i].is_empty() {
                stolen.occupied |= 1 << i;
            }
        }
        for side in [&mut *self, &mut stolen] {
            if side.b0.is_empty() && side.occupied != 0 {
                side.refill();
            }
        }
        stolen
    }

    /// Moves `other`'s `b0`, pivot and chains into this heap, which must
    /// be empty, and each heap keeps its own spare chunks: a thief appends
    /// its half into its own empty queue without filing anything again.
    ///
    /// # Panics
    /// If this heap is not empty.
    pub fn append(&mut self, other: &mut Self) {
        assert!(self.is_empty(), "append into a non-empty radix heap");
        std::mem::swap(&mut self.b0, &mut other.b0);
        std::mem::swap(&mut self.buckets, &mut other.buckets);
        self.last = other.last;
        self.occupied = std::mem::take(&mut other.occupied);
        self.in_buckets = std::mem::take(&mut other.in_buckets);
    }
}

impl<T: Ord + RadixKey> SequentialPriorityQueue<T> for RadixHeap<T> {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, item: T) {
        let key = item.radix_key();
        if self.b0.is_empty() {
            // `b0` is empty only when the whole heap is.
            self.last = key;
        }
        if key <= self.last {
            self.b0.push(item);
        } else {
            self.file(key, item);
        }
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.b0.pop()?;
        if self.b0.is_empty() && self.occupied != 0 {
            self.refill();
        }
        Some(item)
    }

    fn peek(&self) -> Option<&T> {
        self.b0.peek()
    }

    fn len(&self) -> usize {
        self.b0.len() + self.in_buckets
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        let mut out = self.b0.drain_unordered();
        out.reserve(self.in_buckets);
        for chain in &mut self.buckets {
            for mut chunk in chain.drain(..) {
                out.append(&mut chunk);
                self.spare.push(chunk);
            }
        }
        self.occupied = 0;
        self.in_buckets = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn popped<T: Ord + RadixKey>(mut h: RadixHeap<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pushes_below_last_pop_in_order() {
        let mut h = RadixHeap::new();
        h.extend_batch([40u64, 7, 1000, 9, u64::MAX, 0]);
        assert_eq!(h.pop(), Some(0));
        assert_eq!(h.pop(), Some(7));
        // `last` is 7 now; these land in `b0` and in the buckets.
        h.extend_batch([3u64, 8, 7, u64::MAX - 1]);
        assert_eq!(popped(h), [3, 7, 8, 9, 40, 1000, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn equal_keys_break_ties_by_ord() {
        let mut h = RadixHeap::new();
        for tag in [5u32, 2, 9, 0] {
            h.push((1u64 << 40, tag));
        }
        h.push((3u64, 1));
        let tags: Vec<u32> = popped(h).into_iter().map(|(_, t)| t).collect();
        assert_eq!(tags, [1, 0, 2, 5, 9]);
    }

    /// The hold model with SSSP-shaped keys (pop the least, push it back
    /// plus a random increment): the buckets hold at most one partly
    /// filled chunk each, and drained chunks are reused, not reallocated.
    #[test]
    fn chunks_stay_bounded_under_the_hold_model() {
        let n = 4 * CHUNK;
        let mut h = RadixHeap::new();
        h.extend_batch((0..n as u64).map(|x| x * 1000));
        let mut x = 1u64;
        for _ in 0..50_000 {
            let least = h.pop().unwrap();
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            h.push(least + (x >> 44));
            let held = h.buckets.iter().map(Vec::len).sum::<usize>();
            assert!(held <= h.in_buckets / CHUNK + 64);
            assert!(held + h.spare.len() <= n / CHUNK + 2 * 64);
        }
        assert_eq!(h.len(), n);
    }

    /// Checks the heap's invariants: `b0` at or below `last`, every bucket
    /// element above it and in the bucket its key names, and the counts.
    fn check<T: Ord + RadixKey>(h: &RadixHeap<T>) {
        assert!(h.b0.is_valid_heap());
        assert!(h.b0.as_slice().iter().all(|x| x.radix_key() <= h.last));
        let mut held = 0;
        for (i, chain) in h.buckets.iter().enumerate() {
            assert_eq!(chain.is_empty(), h.occupied & (1 << i) == 0);
            for item in chain.iter().flatten() {
                let key = item.radix_key();
                assert!(key > h.last);
                assert_eq!(63 - (key ^ h.last).leading_zeros() as usize, i);
                held += 1;
            }
        }
        assert_eq!(held, h.in_buckets);
        assert_eq!(h.b0.is_empty(), h.len() == 0);
    }

    /// `n` elements after 5 000 steps of the hold model, tagged by a
    /// counter so that every element is distinct.
    fn sssp_hold(n: usize) -> RadixHeap<(u64, u32)> {
        let mut h = RadixHeap::new();
        h.extend_batch((0..n as u32).map(|t| (t as u64 * 1000, t)));
        let (mut x, mut tag) = (1u64, n as u32);
        for _ in 0..5_000 {
            let (least, _) = h.pop().unwrap();
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            tag += 1;
            h.push((least + (x >> 44), tag));
        }
        h
    }

    /// What `h` holds, sorted.
    fn contents<T: Ord + Copy>(h: &RadixHeap<T>) -> Vec<T> {
        let mut v: Vec<T> = h.b0.as_slice().to_vec();
        v.extend(h.buckets.iter().flatten().flatten().copied());
        v.sort();
        v
    }

    /// With `extra` + 1 elements pushed onto the pivot key, `b0` holds two
    /// or more and neither side refills: both keep the pivot, every element
    /// stays in its bucket, the thief holds ⌈n/2⌉ and the least element,
    /// and nothing is lost or duplicated. With one element in `b0` (no
    /// extra push) the victim refills and still peeks its least.
    #[test]
    fn split_of_an_sssp_hold_keeps_the_pivot_and_loses_nothing() {
        // Both parities of the bucket count for each `b0` size.
        let cases = [3 * CHUNK + 17, 3 * CHUNK + 18]
            .map(|size| [None, Some(0), Some(1), Some(2), Some(3)].map(|extra| (size, extra)));
        for (size, extra) in cases.into_iter().flatten() {
            let mut h = sssp_hold(size);
            let last = h.last;
            for t in 0..extra.map_or(0, |e| e + 1) {
                h.push((last, u32::MAX - t));
            }
            let (n, least, all) = (h.len(), *h.peek().unwrap(), contents(&h));
            let stolen = h.split_half();
            check(&h);
            check(&stolen);
            assert_eq!((stolen.len(), h.len()), (n.div_ceil(2), n / 2));
            assert_eq!(stolen.peek(), Some(&least));
            assert_eq!(stolen.last, last);
            if extra.is_some() {
                assert_eq!(h.last, last);
            }
            let (kept, taken) = (contents(&h), contents(&stolen));
            assert_eq!(h.peek(), kept.first());
            let mut got = kept;
            got.extend(taken);
            got.sort();
            assert_eq!(got, all);
        }
    }

    /// A thief's append into its own empty queue moves the stolen chains
    /// chunk for chunk, and the queue keeps its spare chunks.
    #[test]
    fn append_into_an_empty_heap_moves_the_chains_and_keeps_its_spare() {
        let mut queue: RadixHeap<(u64, u32)> = RadixHeap::new();
        queue.extend_batch((0..3 * CHUNK as u32).map(|t| (t as u64 * 7, t)));
        while queue.pop().is_some() {}
        let spare = queue.spare.len();
        assert!(spare > 0);
        let mut victim = sssp_hold(3 * CHUNK + 17);
        let mut stolen = victim.split_half();
        let chunks: Vec<*const (u64, u32)> = stolen
            .buckets
            .iter()
            .flatten()
            .map(|chunk| chunk.as_ptr())
            .collect();
        let (all, stolen_spare) = (contents(&stolen), stolen.spare.len());
        assert!(!chunks.is_empty());
        queue.append(&mut stolen);
        check(&queue);
        assert!(stolen.is_empty());
        assert_eq!(stolen.spare.len(), stolen_spare);
        assert_eq!(queue.spare.len(), spare);
        let moved: Vec<*const (u64, u32)> = queue
            .buckets
            .iter()
            .flatten()
            .map(|chunk| chunk.as_ptr())
            .collect();
        assert_eq!(moved, chunks);
        assert_eq!(contents(&queue), all);
        assert_eq!(popped(queue), all);
    }

    #[test]
    #[should_panic(expected = "append into a non-empty radix heap")]
    fn append_into_a_non_empty_heap_panics() {
        let mut queue = RadixHeap::new();
        queue.push(5u64);
        let mut other = RadixHeap::new();
        other.extend_batch([1u64, 300, 7000]);
        queue.append(&mut other);
    }

    #[test]
    fn signed_keys_keep_their_order() {
        let mut keys = [i32::MIN, -1, 0, 1, i32::MAX, -70_000];
        let mut h = RadixHeap::new();
        h.extend_batch(keys);
        keys.sort();
        assert_eq!(popped(h), keys);

        let mut keys = [i64::MIN, -1, 0, 1, i64::MAX, i32::MIN as i64 - 1];
        let mut h = RadixHeap::new();
        h.extend_batch(keys);
        keys.sort();
        assert_eq!(popped(h), keys);
    }
}
