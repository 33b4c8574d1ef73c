//! Exact radix heap over `u64` keys — the place-local reference queue of
//! the centralized and hybrid pools.
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
//! the heap's spare list as soon as a refill has drained it, so the
//! buckets together hold no more chunks than their elements fill, plus one
//! partly filled chunk per bucket. (Growable vector buckets keep each bucket's
//! high-water capacity; see the crate docs for what that cost.)
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

impl<T: Ord + RadixKey> RadixHeap<T> {
    /// Appends `item`, whose key is above `last`, to its bucket.
    fn file(&mut self, key: u64, item: T) {
        debug_assert!(key > self.last);
        let i = 63 - (key ^ self.last).leading_zeros() as usize;
        let chain = &mut self.buckets[i];
        match chain.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(item),
            _ => {
                let mut chunk = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(CHUNK));
                chunk.push(item);
                chain.push(chunk);
            }
        }
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

    fn clear(&mut self) {
        self.b0.clear();
        for chain in &mut self.buckets {
            for mut chunk in chain.drain(..) {
                chunk.clear();
                self.spare.push(chunk);
            }
        }
        self.occupied = 0;
        self.in_buckets = 0;
    }

    /// Takes every other element of [`drain_unordered`]'s order, the first
    /// included, and pushes the rest back.
    ///
    /// [`drain_unordered`]: SequentialPriorityQueue::drain_unordered
    fn split_half(&mut self) -> Self {
        let mut stolen = Self::new();
        for (i, item) in self.drain_unordered().into_iter().enumerate() {
            if i % 2 == 0 {
                stolen.push(item);
            } else {
                self.push(item);
            }
        }
        stolen
    }

    fn append(&mut self, other: &mut Self) {
        for item in other.drain_unordered() {
            self.push(item);
        }
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
