#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Sequential priority queues used as place-local components.
//!
//! All five pools keep *sequential* priority queues per place (thread) or
//! behind a lock: the paper notes in §4.1 that "any sequential
//! implementation of a priority queue can be used, since each priority
//! queue is only accessed in the context of a single place".
//!
//! What exists, and which pool uses it:
//!
//! * [`DaryHeap`] — the one array-backed heap, arity as a const generic,
//!   hole-based sifts and a bottom-up `pop` (see [`dary_heap`]). Two
//!   aliases name the arities in use: [`QuaternaryHeap`] (`D = 4`) is the
//!   queue of the MultiQueue and structural pools and the small end of
//!   [`RadixHeap`]; [`BinaryHeap`] (`D = 2`) serves the
//!   sequential oracles (Dijkstra, the benchmark's tape oracle) and is the
//!   arity baseline of the benchmark's `pq.*` metrics.
//! * [`RadixHeap`] — an exact radix heap over a [`RadixKey`]: 64 buckets
//!   by the highest bit in which a key differs from the last refill's,
//!   and a `QuaternaryHeap` for everything at or below it (see
//!   [`radix_heap`]). The queue of the work-stealing places, and the
//!   reference queue of the centralized and hybrid pools, where every place
//!   queues a reference to every task it sees.
//! * [`PairingHeap`] — pointer-based pairing heap with two-pass melding; a
//!   structurally independent implementation kept as the differential
//!   oracle of the proptests (and priced by the benchmark's
//!   `pq.*.pairing` metrics). No pool uses it.
//!
//! # Which queue under which pool
//!
//! The centralized and hybrid places hold the most references: on the
//! benchmark's `sssp_sparse` shape (n = 200 000, mean degree 8, k = 8,
//! 2 places) one centralized place made 359 779 pushes and as many pops,
//! and its queue peaked at 215 243 references. Their keys are SSSP
//! distances, `f64` bit patterns that rise almost monotonically, which is
//! the case a radix heap is built for. That place's recorded push/pop
//! trace, replayed through each queue with 24-byte entries (the size of a
//! pool's reference), pops the same sequence from all three. Median of
//! fifteen replays per place, range over the two places, on the 2-core
//! shared box; peak bytes the queue held:
//!
//! | queue under the trace                  | replay (ms) | peak bytes |
//! |----------------------------------------|-------------|------------|
//! | `QuaternaryHeap`                       | 144–148     | 9.0 MiB    |
//! | `RadixHeap`, 256-entry chunks          | 79–93       | 5.1 MiB    |
//! | radix heap with growable `Vec` buckets | 44–52       | 16.6–17.3 MiB |
//!
//! The `Vec`-bucket variant is faster still, but every bucket keeps its
//! high-water capacity, so a place's queue holds three times what the
//! chunked one does. End to end the chunked heap lowered `sssp_sparse`'s
//! peak RSS from ~196 to ~186 MB (CHANGES.md, PR 41).
//!
//! End to end, with every radix-heap pool on the variant: `sssp_sparse`,
//! alternating pairs on seeds 1…n of 8 s runs against the chunked heap,
//! 2 cores. Ratio is the median over pairs of variant / chunked
//! `items_per_s`, > 1 better; pairs the variant won in brackets:
//!
//! | variant of `radix_heap.rs` | pairs | work-stealing | centralized | hybrid | `peak_rss_mb` |
//! |---|---|---|---|---|---|
//! | growable `Vec` buckets, a bucket freed at its refill | 8 | ×0.729 (0/8) | ×1.003 (4/8) | ×0.987 (4/8) | 184.9 → 251.6 (0/8) |
//! | growable `Vec` buckets that keep their capacity | 6 | ×1.020 (3/6) | ×1.176 (6/6) | ×1.211 (6/6) | 185.8 → 319.2 (0/6) |
//! | 256-entry chunks without the spare list | 8 | ×0.887 (0/8) | ×0.952 (1/8) | ×0.948 (1/8) | 184.9 → 183.8 (4/8) |
//!
//! The replay's gain does reach centralized and hybrid, but only in the
//! variant whose peak RSS is +72 %, far past the benchmark's 0.15 bound
//! on `peak_rss_mb`; and the spare list pays for itself on every
//! radix-heap pool. So the chunk chains and the spare list stay.
//!
//! A scratch copy with every pool on the radix heap (MultiQueue and
//! structural reading `peek_after_pop` from `b0`, or from a scan of the
//! lowest bucket when `b0` holds one element) read, over 6 alternating
//! 25 s pairs:
//!
//! * structural ×0.97 on `sssp_sparse` (1/6 pairs won) and ×0.87 on
//!   `service_stream` (0/6): its exact pop runs the refill and that scan
//!   under a queue lock;
//! * work-stealing ×1.24 and ×1.09 (6/6 each);
//! * MultiQueue ×1.09 on `sssp_sparse` (6/6) and ×1.00 on
//!   `service_stream`.
//!
//! Work-stealing has since moved to the radix heap.
//! A steal takes [`split_half`]'s half, and a radix heap's half differs
//! from a 4-ary heap's: the thief gets `b0`'s `DaryHeap` half, so still
//! the victim's least task, then every other element of each bucket, and
//! neither side refiles anything. What a thief holds changes, and so the
//! kind's useless work: the `sssp_random_graph` example's phase run
//! relaxes 2 320 nodes instead of 2 387. MultiQueue and structural stay on
//! `QuaternaryHeap`; MultiQueue's move is a change of its own, judged on
//! ten pairs (ROADMAP item 8).
//!
//! Which queue a pool uses is a constant at its import, not a knob.
//!
//! [`split_half`]: RadixHeap::split_half
//!
//! # Arity
//!
//! The pools' arity was chosen on the scheduler's own access pattern, the
//! *hold model*: a heap held at a fixed size, one `pop` then one `push`
//! of a fresh uniformly random key per step, 32-byte entries (a pool's
//! `(priority, sequence, pointer)` reference). ns per pop + push on the
//! 2-core shared box, range over five alternating runs:
//!
//! | heap                                     | 4 096 entries | 65 536 entries |
//! |------------------------------------------|---------------|----------------|
//! | binary, `swap`-based top-down (replaced) | 76–97         | 108–140        |
//! | 4-ary, `swap`-based top-down (replaced)  | 54–66         | 84–109         |
//! | `DaryHeap<_, 2>`, hole + bottom-up       | 61–82         | 97–130         |
//! | `DaryHeap<_, 4>`, hole + bottom-up       | 34–47         | 54–68          |
//! | `DaryHeap<_, 8>`, hole + bottom-up       | 39–50         | 67–86          |
//!
//! With monotone keys (each push is the popped key plus a random
//! increment, the shape SSSP produces) the arities sit closer and the
//! binary instance is ahead while the heap is small: `D = 2` 57–73 /
//! 136–180, `D = 4` 66–88 / 118–160, `D = 8` 84–110 / 130–188 ns, against
//! 89–115 / 140–186 for the replaced binary heap. The pools' verdict was
//! therefore taken end to end on all four benchmark workloads (CHANGES.md,
//! PR 21); arity is a constant named at each pool's import, not a knob.
//!
//! All queues are **min**-queues: `pop` returns the smallest element,
//! matching the paper's convention for the SSSP evaluation ("priority,
//! smaller is better" in Listing 5). Over a strict total order every
//! implementation (and every arity) pops the same sequence; only ties and
//! `split_half`'s choice of half depend on the layout.
//!
//! The trait carries only the textbook operations and the batch pair
//! (`extend_batch`, `drain_unordered`). The steal-half policy of the
//! priority work-stealing structure (§3.1, citing Hendler & Shavit) is
//! [`RadixHeap::split_half`], on the one queue work-stealing uses: it
//! removes ⌈len/2⌉ elements (an arbitrary half, *not* the best half) and
//! returns them as a new heap, which the thief moves into its own empty
//! queue with [`RadixHeap::append`]. Dead tasks need no operation of their
//! own: the pools drop them when they are popped (§5.1).

pub mod dary_heap;
pub mod pairing_heap;
pub mod radix_heap;

pub use dary_heap::{BinaryHeap, DaryHeap, QuaternaryHeap};
pub use pairing_heap::PairingHeap;
pub use radix_heap::{RadixHeap, RadixKey};

/// A sequential min-priority queue.
///
/// Implementations are not thread-safe by design: the scheduler guarantees
/// single-threaded access per place (or wraps the queue in a lock for the
/// work-stealing structure).
pub trait SequentialPriorityQueue<T: Ord>: Default {
    /// Creates an empty queue.
    fn new() -> Self;

    /// Inserts an element.
    fn push(&mut self, item: T);

    /// Removes and returns the smallest element, or `None` when empty.
    fn pop(&mut self) -> Option<T>;

    /// Returns a reference to the smallest element without removing it.
    fn peek(&self) -> Option<&T>;

    /// Number of stored elements.
    fn len(&self) -> usize;

    /// `true` when no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts every element of `iter`, repairing the queue invariant once
    /// per batch instead of once per element.
    ///
    /// This is the sequential half of the scheduler's batch API: array
    /// heaps repair with Floyd's O(n) heapify (or per-element sift-up when
    /// the batch is small relative to the heap), and the pairing heap melds
    /// the batch in with a two-pass pairing combine. The default
    /// implementation falls back to per-element `push`.
    ///
    /// Equivalent to `for x in iter { self.push(x) }` up to internal
    /// layout: the stored multiset and the pop order are identical.
    fn extend_batch<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Drains the queue in an arbitrary order into a vector.
    ///
    /// The callers are tests: the proptests' tapes merge a stolen half back
    /// with `extend_batch(stolen.drain_unordered())`, and the owning tapes
    /// count what a heap held. Callers that need sorted output should `pop`
    /// repeatedly instead.
    fn drain_unordered(&mut self) -> Vec<T>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<Q: SequentialPriorityQueue<i64>>() {
        let mut q = Q::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(5);
        q.push(1);
        q.push(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek(), Some(&1));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None);
    }

    fn exercise_extend_batch<Q: SequentialPriorityQueue<i64>>() {
        let mut q = Q::new();
        q.push(4);
        q.extend_batch([9, 0, 7, 2]);
        q.extend_batch(std::iter::empty());
        assert_eq!(q.len(), 5);
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn binary_heap_basics() {
        exercise::<BinaryHeap<i64>>();
        exercise_extend_batch::<BinaryHeap<i64>>();
    }

    #[test]
    fn pairing_heap_basics() {
        exercise::<PairingHeap<i64>>();
        exercise_extend_batch::<PairingHeap<i64>>();
    }

    #[test]
    fn dary_heap_basics() {
        exercise::<QuaternaryHeap<i64>>();
        exercise_extend_batch::<QuaternaryHeap<i64>>();
    }

    #[test]
    fn radix_heap_basics() {
        exercise::<RadixHeap<i64>>();
        exercise_extend_batch::<RadixHeap<i64>>();
    }
}

/// The unit tests `binary_heap.rs` carried before [`BinaryHeap`] became an
/// alias of [`DaryHeap`], run unchanged against the alias (the module
/// path keeps their names).
#[cfg(test)]
mod binary_heap {
    mod tests {
        use crate::{BinaryHeap, SequentialPriorityQueue};

        fn popped(mut h: BinaryHeap<i64>) -> Vec<i64> {
            let mut out = Vec::new();
            while let Some(x) = h.pop() {
                out.push(x);
            }
            out
        }

        #[test]
        fn pops_in_sorted_order() {
            let h: BinaryHeap<i64> = [9, 4, 7, 1, -3, 7, 0].into_iter().collect();
            assert_eq!(popped(h), vec![-3, 0, 1, 4, 7, 7, 9]);
        }

        #[test]
        fn duplicates_are_kept() {
            let h: BinaryHeap<i64> = [5, 5, 5].into_iter().collect();
            assert_eq!(popped(h), vec![5, 5, 5]);
        }

        #[test]
        fn from_vec_heapifies() {
            let h = BinaryHeap::from_vec(vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
            assert!(h.is_valid_heap());
        }

        #[test]
        fn peek_matches_pop() {
            let mut h: BinaryHeap<i64> = [3, 1, 2].into_iter().collect();
            assert_eq!(h.peek().copied(), Some(1));
            assert_eq!(h.pop(), Some(1));
            assert_eq!(h.peek().copied(), Some(2));
        }

        #[test]
        fn split_half_sizes() {
            for n in 0..40usize {
                let mut h: BinaryHeap<usize> = (0..n).collect();
                let stolen = h.split_half();
                assert_eq!(stolen.len(), n.div_ceil(2), "n={n}");
                assert_eq!(h.len(), n / 2, "n={n}");
                assert!(h.is_valid_heap());
                assert!(stolen.is_valid_heap());
            }
        }

        #[test]
        fn split_half_preserves_multiset() {
            let mut h: BinaryHeap<i64> = [4, 4, 8, 1, 0, 0, 9, -2].into_iter().collect();
            let stolen = h.split_half();
            let mut all = popped(h);
            all.extend(popped(stolen));
            all.sort();
            assert_eq!(all, vec![-2, 0, 0, 1, 4, 4, 8, 9]);
        }

        #[test]
        fn split_of_singleton_takes_the_element() {
            let mut h: BinaryHeap<i64> = [42].into_iter().collect();
            let stolen = h.split_half();
            assert!(h.is_empty());
            assert_eq!(popped(stolen), vec![42]);
        }

        #[test]
        fn split_of_empty_is_empty() {
            let mut h: BinaryHeap<i64> = BinaryHeap::new();
            let stolen = h.split_half();
            assert!(h.is_empty() && stolen.is_empty());
        }

        #[test]
        fn interleaved_push_pop_stays_sorted() {
            let mut h = BinaryHeap::new();
            let mut reference = std::collections::BinaryHeap::new(); // max-heap
            let ops: Vec<i64> = vec![5, -1, 3, 3, 9, -7, 2, 8, 8, 0];
            for (i, &x) in ops.iter().enumerate() {
                h.push(x);
                reference.push(std::cmp::Reverse(x));
                if i % 3 == 2 {
                    assert_eq!(h.pop(), reference.pop().map(|r| r.0));
                }
            }
            while let Some(x) = h.pop() {
                assert_eq!(Some(x), reference.pop().map(|r| r.0));
            }
            assert!(reference.is_empty());
        }
    }
}
