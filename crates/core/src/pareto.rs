//! k-relaxed Pareto priority queue (conclusion/future work, §6).
//!
//! The paper's conclusion announces "k-relaxed Pareto priority queues with
//! guarantees that can then be used for parallelization of a multi-objective
//! shortest path search" as planned future work. This module is a working
//! prototype of that direction: a tested structure, not a paper-level
//! evaluation.
//!
//! With vector-valued priorities there is no single minimum; the natural
//! pop contract returns a **Pareto-optimal** element: one not *dominated*
//! by any other stored element (`a` dominates `b` when `a ≤ b` component-
//! wise and `a < b` somewhere). The relaxation mirrors §2.2: each place
//! buffers up to `k` elements privately, so a pop may return an element
//! dominated only by buffered-elsewhere ones — at most `(P−1)·k` of them,
//! the ρ-relaxed analog of the scalar bound.
//!
//! The shared component is a sequential Pareto archive under a mutex; the
//! interesting (and tested) part is the dominance bookkeeping, which is what
//! a multi-objective label-setting search needs from its queue.

use crate::sync::Mutex;
use crate::util::XorShift64;
use crossbeam_utils::CachePadded;
use std::sync::Arc;

/// A bi-objective priority, e.g. (travel time, cost). Smaller is better in
/// both components.
pub type BiPriority = [u64; 2];

/// `a` dominates `b`: no worse in both objectives, strictly better in one.
#[inline]
pub fn dominates(a: BiPriority, b: BiPriority) -> bool {
    a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
}

struct Entry<T> {
    prio: BiPriority,
    task: T,
}

/// Shared store: a flat archive scanned for Pareto-optimality on pop.
struct Archive<T> {
    entries: Vec<Entry<T>>,
}

impl<T> Archive<T> {
    /// Removes and returns a Pareto-optimal entry, preferring the
    /// lexicographically smallest among the non-dominated (deterministic).
    fn pop_optimal(&mut self) -> Option<Entry<T>> {
        if self.entries.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for i in 1..self.entries.len() {
            let (a, b) = (self.entries[i].prio, self.entries[best].prio);
            if dominates(a, b) || (!dominates(b, a) && a < b) {
                best = i;
            }
        }
        // `best` is not dominated by any entry: anything dominating it
        // would have replaced it during the scan (dominance implies
        // lexicographically smaller-or-equal, and the scan prefers both
        // dominating and lexicographically smaller candidates).
        Some(self.entries.swap_remove(best))
    }
}

/// A lockable label buffer padded to its own cache line.
type PaddedBuffer<T> = CachePadded<Mutex<Vec<Entry<T>>>>;

/// k-relaxed Pareto priority queue over `P` places.
pub struct ParetoKRelaxed<T: Send> {
    k: usize,
    shared: CachePadded<Mutex<Archive<T>>>,
    buffers: Box<[PaddedBuffer<T>]>,
}

impl<T: Send> ParetoKRelaxed<T> {
    /// Creates the queue for `nplaces` places with per-place buffer bound
    /// `k` (ρ = (P−1)·k).
    pub fn new(nplaces: usize, k: usize) -> Self {
        assert!(nplaces > 0, "need at least one place");
        ParetoKRelaxed {
            k,
            shared: CachePadded::new(Mutex::new(Archive {
                entries: Vec::new(),
            })),
            buffers: (0..nplaces)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// Creates the place-local handle.
    pub fn handle(self: &Arc<Self>, place: usize) -> ParetoHandle<T> {
        assert!(place < self.buffers.len(), "place {place} out of range");
        ParetoHandle {
            shared: Arc::clone(self),
            place,
            rng: XorShift64::new(0x9A3E_0000 ^ place as u64),
        }
    }

    /// Total stored elements (diagnostics; racy).
    pub fn len(&self) -> usize {
        self.shared.lock().entries.len()
            + self.buffers.iter().map(|b| b.lock().len()).sum::<usize>()
    }

    /// `true` when no elements are stored (diagnostics; racy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One place's view of the Pareto queue.
pub struct ParetoHandle<T: Send> {
    shared: Arc<ParetoKRelaxed<T>>,
    place: usize,
    rng: XorShift64,
}

impl<T: Send> ParetoHandle<T> {
    /// Inserts a task with a bi-objective priority.
    pub fn push(&mut self, prio: BiPriority, task: T) {
        let entry = Entry { prio, task };
        let mut buf = self.shared.buffers[self.place].lock();
        if buf.len() < self.shared.k {
            buf.push(entry);
            return;
        }
        drop(buf);
        self.shared.shared.lock().entries.push(entry);
    }

    /// Removes and returns a task whose priority is Pareto-optimal among
    /// all elements visible to this place (shared archive + own buffer);
    /// elements buffered at other places — at most `(P−1)·k` — may be
    /// missed, which is the ρ-relaxation.
    pub fn pop(&mut self) -> Option<(BiPriority, T)> {
        // Merge own buffer into the shared archive, then pop an optimum.
        {
            let mut buf = self.shared.buffers[self.place].lock();
            if !buf.is_empty() {
                let mut drained = std::mem::take(&mut *buf);
                drop(buf);
                self.shared.shared.lock().entries.append(&mut drained);
            }
        }
        if let Some(e) = self.shared.shared.lock().pop_optimal() {
            return Some((e.prio, e.task));
        }
        // Shared empty: raid other buffers (bounded, deterministic sweep).
        let p = self.shared.buffers.len();
        let start = self.rng.below(p.max(1) as u64) as usize;
        for i in 0..p {
            let victim = (start + i) % p;
            if victim == self.place {
                continue;
            }
            let mut buf = self.shared.buffers[victim].lock();
            if !buf.is_empty() {
                let mut drained = std::mem::take(&mut *buf);
                drop(buf);
                self.shared.shared.lock().entries.append(&mut drained);
                if let Some(e) = self.shared.shared.lock().pop_optimal() {
                    return Some((e.prio, e.task));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates([1, 1], [2, 2]));
        assert!(dominates([1, 2], [1, 3]));
        assert!(!dominates([1, 1], [1, 1]), "equal does not dominate");
        assert!(!dominates([1, 3], [2, 1]), "incomparable");
        assert!(!dominates([2, 2], [1, 1]));
    }

    #[test]
    fn pop_returns_non_dominated() {
        let q = Arc::new(ParetoKRelaxed::new(1, 0));
        let mut h = q.handle(0);
        h.push([3, 3], "dominated");
        h.push([1, 4], "frontier-a");
        h.push([4, 1], "frontier-b");
        h.push([2, 2], "frontier-c");
        let (prio, _) = h.pop().unwrap();
        // Any frontier point is acceptable; [3,3] is not.
        assert_ne!(prio, [3, 3]);
        // Drain: every pop must be non-dominated among the remaining set.
        let mut remaining = vec![[3, 3], [1, 4], [4, 1], [2, 2]]
            .into_iter()
            .filter(|&p| p != prio)
            .collect::<Vec<_>>();
        while let Some((p, _)) = h.pop() {
            assert!(
                !remaining.iter().any(|&r| dominates(r, p)),
                "popped {p:?} dominated by a stored element"
            );
            remaining.retain(|&r| r != p);
        }
        assert!(remaining.is_empty());
    }

    #[test]
    fn lexicographic_preference_is_deterministic() {
        let q = Arc::new(ParetoKRelaxed::new(1, 0));
        let mut h = q.handle(0);
        h.push([2, 5], "b");
        h.push([1, 9], "a");
        let (prio, task) = h.pop().unwrap();
        assert_eq!(prio, [1, 9]);
        assert_eq!(task, "a");
    }

    #[test]
    fn buffered_tasks_recovered_by_raid() {
        let q = Arc::new(ParetoKRelaxed::new(2, 8));
        let mut h0 = q.handle(0);
        h0.push([5, 5], 55u32);
        h0.push([1, 9], 19);
        let mut h1 = q.handle(1);
        let mut got = Vec::new();
        while let Some((_, t)) = h1.pop() {
            got.push(t);
        }
        got.sort();
        assert_eq!(got, vec![19, 55]);
    }

    #[test]
    fn exactly_once_under_concurrency() {
        let q = Arc::new(ParetoKRelaxed::new(4, 4));
        let total = 4_000u32;
        let popped = Arc::new(std::sync::atomic::AtomicU32::new(0));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let q = Arc::clone(&q);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    use std::sync::atomic::Ordering;
                    let mut h = q.handle(t as usize);
                    let mut rng = XorShift64::new(t as u64);
                    for i in 0..total / 4 {
                        h.push([rng.below(100), rng.below(100)], t * (total / 4) + i);
                    }
                    while h.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Concurrent drains may have raced with late pushes; after the scope
        // all pushes are complete, so a final drain accounts for the rest.
        let mut h = q.handle(0);
        while h.pop().is_some() {
            popped.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        assert_eq!(popped.load(std::sync::atomic::Ordering::Relaxed), total);
        assert!(q.is_empty());
    }
}
