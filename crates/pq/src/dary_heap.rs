//! Array-backed d-ary min-heap (const-generic arity).
//!
//! §4.1 of the paper leaves the place-local priority queue open ("any
//! sequential implementation of a priority queue can be used"). A d-ary
//! heap with d = 4 or 8 trades a shallower tree (cheaper `pop`
//! sift-downs, the dominant operation in scheduling queues that are
//! popped as often as pushed) for more comparisons per level, and its
//! children sit in one cache line. The benchmark's `pq.*` per-layer
//! metrics price it against [`crate::BinaryHeap`] and
//! [`crate::PairingHeap`].

use crate::SequentialPriorityQueue;

/// Array-backed min-heap with `D` children per node (`D ≥ 2`).
///
/// `data[0]` is the minimum; children of `i` are `D·i + 1 ..= D·i + D`.
#[derive(Clone, Debug)]
pub struct DaryHeap<T, const D: usize> {
    data: Vec<T>,
}

/// Four-ary heap — a good default for scheduling queues.
pub type QuaternaryHeap<T> = DaryHeap<T, 4>;

impl<T, const D: usize> Default for DaryHeap<T, D> {
    fn default() -> Self {
        assert!(D >= 2, "arity must be at least 2");
        DaryHeap { data: Vec::new() }
    }
}

impl<T: Ord, const D: usize> DaryHeap<T, D> {
    /// Creates an empty heap with preallocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(D >= 2, "arity must be at least 2");
        DaryHeap {
            data: Vec::with_capacity(cap),
        }
    }

    /// Builds a heap from a vector in O(n).
    pub fn from_vec(data: Vec<T>) -> Self {
        let mut h = DaryHeap { data };
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

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / D;
            if self.data[idx] < self.data[parent] {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        let n = self.data.len();
        loop {
            let first = D * idx + 1;
            if first >= n {
                return;
            }
            let last = (first + D).min(n);
            let mut smallest = idx;
            for c in first..last {
                if self.data[c] < self.data[smallest] {
                    smallest = c;
                }
            }
            if smallest == idx {
                return;
            }
            self.data.swap(idx, smallest);
            idx = smallest;
        }
    }

    /// Checks the heap invariant; used by tests.
    pub fn is_valid_heap(&self) -> bool {
        (1..self.data.len()).all(|i| self.data[(i - 1) / D] <= self.data[i])
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
        let n = self.data.len();
        match n {
            0 => None,
            1 => self.data.pop(),
            _ => {
                self.data.swap(0, n - 1);
                let min = self.data.pop();
                self.sift_down(0);
                min
            }
        }
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

    fn split_half(&mut self) -> Self {
        let n = self.data.len();
        if n <= 1 {
            return DaryHeap {
                data: std::mem::take(&mut self.data),
            };
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

    fn retain<F: FnMut(&T) -> bool>(&mut self, keep: F) {
        self.data.retain(keep);
        self.heapify();
    }

    fn append(&mut self, other: &mut Self) {
        if other.data.len() > self.data.len() {
            std::mem::swap(&mut self.data, &mut other.data);
        }
        self.data.append(&mut other.data);
        self.heapify();
    }

    fn drain_unordered(&mut self) -> Vec<T> {
        std::mem::take(&mut self.data)
    }

    /// Bulk insertion with a single invariant repair (same policy as
    /// [`crate::BinaryHeap::extend_batch`], shared through
    /// [`crate::bulk_repair_prefers_heapify`]: sift-up for small batches,
    /// Floyd's O(n) heapify once the batch rivals the heap).
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let old = self.data.len();
        self.data.extend(iter);
        let n = self.data.len();
        if n == old {
            return;
        }
        if crate::bulk_repair_prefers_heapify(old, n - old, n) {
            self.heapify();
        } else {
            for i in old..n {
                self.sift_up(i);
            }
        }
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
    fn retain_and_append() {
        let mut h: DaryHeap<i64, 4> = (0..30).collect();
        h.retain(|x| x % 2 == 0);
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
        let mut b: crate::BinaryHeap<i64> = items.iter().copied().collect();
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
