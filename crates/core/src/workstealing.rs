//! Priority work-stealing (§3.1).
//!
//! Work-stealing adapted to priorities: every place keeps its own priority
//! queue; `push` and `pop` operate on it locally, and an empty place picks a
//! random victim and steals **half** of its queue (steal-half spreads tasks
//! generated at one place quickly through the system — §3.1, citing Hendler
//! & Shavit). Prioritization is purely local: "no guarantee can be given on
//! the priority of tasks that are being executed".
//!
//! The paper omits the implementation details of this structure (§4: "we
//! omit the details of the work-stealing data structure"); its internals
//! live in the authors' earlier Pheet papers. This realization guards each
//! place's queue with a `parking_lot::Mutex`: owner operations take an
//! uncontended lock (a single CAS in the fast path), and thieves use
//! `try_lock` so they skip busy victims instead of blocking. The
//! substitution preserves the scheduling policy the evaluation measures
//! (local priority order + random steal-half): which tasks a place sees,
//! and in what order, does not depend on how the queue is guarded.
//!
//! A place's queue is a [`RadixHeap`] keyed by priority: SSSP's distance
//! keys rise almost monotonically, which a radix heap files in O(1) where a
//! 4-ary heap sifts. Its `split_half` keeps the pivot and refiles nothing,
//! and the thief's half always holds the victim's least task (every other
//! element of the small end, the root first, then every other element of
//! each bucket), so the steal returns that task and the thief appends the
//! rest into its own empty queue without refiling it either.

use crate::pool::{PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::Mutex;
use crate::util::{SeqEntry, XorShift64};
use crossbeam_utils::CachePadded;
use priosched_pq::{RadixHeap, SequentialPriorityQueue};
use std::sync::Arc;

/// One place's lockable queue, padded to its own cache line.
type PlaceQueue<T> = CachePadded<Mutex<RadixHeap<SeqEntry<T>>>>;

/// Shared component: one lockable priority queue per place.
pub struct PriorityWorkStealing<T: Send + 'static> {
    queues: Box<[PlaceQueue<T>]>,
}

impl<T: Send + 'static> PriorityWorkStealing<T> {
    /// Creates the structure for `nplaces` places.
    ///
    /// # Panics
    /// Panics if `nplaces == 0`.
    pub fn new(nplaces: usize) -> Self {
        assert!(nplaces > 0, "need at least one place");
        PriorityWorkStealing {
            queues: (0..nplaces)
                .map(|_| CachePadded::new(Mutex::new(RadixHeap::new())))
                .collect(),
        }
    }

    /// Total tasks currently queued across all places (diagnostics; racy).
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }
}

impl<T: Send + 'static> TaskPool<T> for PriorityWorkStealing<T> {
    type Handle = WorkStealingHandle<T>;

    fn num_places(&self) -> usize {
        self.queues.len()
    }

    fn handle(self: &Arc<Self>, place: usize) -> WorkStealingHandle<T> {
        assert!(place < self.queues.len(), "place {place} out of range");
        WorkStealingHandle {
            place,
            seq: 0,
            rng: XorShift64::new(0x57EA_0000 ^ place as u64),
            stats: PlaceStats::default(),
            shared: Arc::clone(self),
        }
    }
}

/// One place's view of the work-stealing structure.
pub struct WorkStealingHandle<T: Send + 'static> {
    shared: Arc<PriorityWorkStealing<T>>,
    place: usize,
    seq: u64,
    rng: XorShift64,
    stats: PlaceStats,
}

impl<T: Send + 'static> PoolHandle<T> for WorkStealingHandle<T> {
    /// Local push; `k` is ignored — work-stealing offers no relaxation
    /// bound to parameterize (§3.1).
    fn push(&mut self, prio: u64, _k: usize, task: T) {
        let entry = SeqEntry {
            prio,
            seq: self.seq,
            task,
        };
        self.seq += 1;
        self.shared.queues[self.place].lock().push(entry);
        self.stats.pushes += 1;
    }

    fn pop_entry(&mut self) -> Option<(u64, T)> {
        if let Some(e) = self.shared.queues[self.place].lock().pop() {
            self.stats.pops += 1;
            return Some((e.prio, e.task));
        }
        // Local queue empty: steal half from a random victim (§3.1).
        let p = self.shared.queues.len();
        if p > 1 {
            let attempts = 2 * p;
            for _ in 0..attempts {
                let victim = self.rng.below(p as u64) as usize;
                if victim == self.place {
                    continue;
                }
                // try_lock: skip victims that are busy rather than blocking.
                let Some(mut vq) = self.shared.queues[victim].try_lock() else {
                    continue;
                };
                if vq.is_empty() {
                    continue;
                }
                let mut stolen = vq.split_half();
                drop(vq);
                self.stats.steals += 1;
                let first = stolen.pop();
                if !stolen.is_empty() {
                    // `append` asserts that this place's queue is empty: its
                    // pop above has just failed, and only its owner pushes.
                    self.shared.queues[self.place].lock().append(&mut stolen);
                }
                if first.is_some() {
                    self.stats.pops += 1;
                    return first.map(|e| (e.prio, e.task));
                }
            }
        }
        self.stats.failed_pops += 1;
        None
    }

    /// Batch push: one lock acquisition for the whole batch (vs. one per
    /// task), preserving per-place FIFO tiebreak order via the sequence
    /// counter.
    fn push_batch(&mut self, _k: usize, batch: &mut Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let base_seq = self.seq;
        self.seq += n;
        let mut q = self.shared.queues[self.place].lock();
        q.extend_batch(
            batch
                .drain(..)
                .enumerate()
                .map(|(i, (prio, task))| SeqEntry {
                    prio,
                    seq: base_seq + i as u64,
                    task,
                }),
        );
        drop(q);
        self.stats.pushes += n;
    }

    fn stats(&self) -> PlaceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Arc<PriorityWorkStealing<u64>> {
        Arc::new(PriorityWorkStealing::new(n))
    }

    #[test]
    fn fifo_tiebreak_on_equal_priority() {
        let p = pool(1);
        let mut h = p.handle(0);
        h.push(7, 0, 100);
        h.push(7, 0, 200);
        h.push(7, 0, 300);
        assert_eq!(h.pop(), Some(100));
        assert_eq!(h.pop(), Some(200));
        assert_eq!(h.pop(), Some(300));
    }

    /// The thief's half holds the victim's least task, and the steal
    /// returns it. Here the victim's small end holds that one task, so the
    /// parity that carries on from it leaves the next-least, the first
    /// bucket element, with the victim.
    #[test]
    fn steal_hands_the_thief_the_victims_least_task() {
        let p = pool(2);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        // Distinct priorities in a scrambled order, all above the first.
        for i in 0..1000u64 {
            let prio = 1 + (i * 7919) % 1000;
            h0.push(prio << 20, 0, prio);
        }
        assert_eq!(h0.pop(), Some(1));
        assert_eq!(h1.pop(), Some(2));
        assert_eq!(h1.stats().steals, 1);
        assert_eq!(h0.pop(), Some(3));
        assert_eq!(p.queued(), 997);
    }

    #[test]
    fn steal_moves_roughly_half() {
        let p = pool(2);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        for i in 0..100u64 {
            h0.push(i, 0, i);
        }
        // First pop by the idle place steals half of place 0's queue: 50
        // move to place 1, one of which is returned, so 99 remain overall.
        let got = h1.pop();
        assert!(got.is_some());
        assert_eq!(h1.stats().steals, 1);
        assert_eq!(p.queued(), 99);
        // The next pops by place 1 are purely local (no further steals).
        for _ in 0..49 {
            assert!(h1.pop().is_some());
        }
        assert_eq!(h1.stats().steals, 1);
        assert_eq!(p.queued(), 50);
    }
}
