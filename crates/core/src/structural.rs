//! Structurally ρ-relaxed priority pool (§5.3 prototype).
//!
//! The paper observes that its analysis does not need the *temporal*
//! formulation of ρ-relaxation ("the last k items added may be ignored") —
//! a weaker *structural* formulation suffices: **a pop never ignores more
//! than ρ items, regardless of their age**. §5.3 and the conclusion name
//! data structures built on this weaker property as future work with
//! "promising first results".
//!
//! This module is our prototype of that direction, kept deliberately simple:
//!
//! * each place buffers up to `k` tasks privately (any age — no publication
//!   deadline, no budget bookkeeping);
//! * everything else lives in one shared priority queue;
//! * `pop` takes the better of (own buffer minimum, shared minimum).
//!
//! A pop can only ignore tasks buffered at *other* places — at most
//! `(P−1)·k` of them, so the structure is ρ-relaxed with ρ = (P−1)·k, and
//! the bound holds for arbitrarily old buffered tasks (structural, not
//! temporal). Pushes touch the shared queue only once every `k` tasks,
//! which is where the scalability comes from.
//!
//! Tasks buffered at a place are visible to idle peers through *raiding*: a
//! popper that finds both its buffer and the shared queue empty flushes a
//! victim's buffer into the shared queue (taking the victim's buffer lock),
//! so no task is ever stranded.
//!
//! # The shared queue: one flat-combined heap
//!
//! Every overflow push, shared pop, and raid flush crosses the shared
//! queue — one heap, all places. Those accesses are delegated through a
//! [`crate::combine::Combiner`]: the accessing place publishes a [`HeapOp`]
//! in its per-place slot and whichever place holds the combiner lock
//! executes all published ops back-to-back against the heap, so the heap's
//! cache lines stop migrating between cores under contention.
//!
//! # Lock order
//!
//! Two lock classes exist: per-place **buffer locks** and the **shared
//! queue** (the combiner lock). The rule, relied on by the combiner's
//! parking:
//!
//! > **No thread ever holds a buffer lock while acquiring — or waiting
//! > on — the shared queue.** Buffer state needed across a shared-queue
//! > operation (the local minimum used as a pop bound, a raided victim's
//! > entries) is read or drained under the buffer lock, the buffer lock is
//! > released, and only then is the shared queue entered.
//!
//! Holding a buffer lock across a combiner wait would deadlock-adjacent
//! stall raiders (a parked waiter can hold its buffer lock for an unbounded
//! time) and did, in the earlier mutex-only code, serialize every pop
//! against pushes on the same place. The price of the rule is a benign
//! race: the local minimum may be raided away between the bounded shared
//! pop and the local pop, in which case the pop retries the shared queue
//! once and may then fail spuriously — which the pool contract explicitly
//! allows, since the raider made progress with our tasks.

use crate::combine::{CombineOp, CombineStats, Combiner};
use crate::pool::{PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::Mutex;
use crate::util::XorShift64;
use crossbeam_utils::CachePadded;
use priosched_pq::{QuaternaryHeap, SequentialPriorityQueue};
use std::sync::Arc;

/// Entry ordered by `(prio, seq)`.
struct Entry<T> {
    prio: u64,
    seq: u64,
    task: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.seq).cmp(&(other.prio, other.seq))
    }
}

/// Ordering key of an entry, usable as a pop bound across lock releases.
type Key = (u64, u64);

fn key<T>(e: &Entry<T>) -> Key {
    (e.prio, e.seq)
}

/// Pops the heap minimum only if it is strictly better than `bound`
/// (`None` = unconditional). Ties keep the bound's side — the local buffer
/// wins ties, matching the historical two-lock comparison `b < s`.
fn pop_if_better<T>(heap: &mut QuaternaryHeap<Entry<T>>, bound: Option<Key>) -> Option<Entry<T>> {
    match (heap.peek(), bound) {
        (None, _) => None,
        (Some(e), Some(b)) if key(e) >= b => None,
        _ => heap.pop(),
    }
}

/// A shared-queue operation, delegated through the combiner.
enum HeapOp<T> {
    /// Overflow push of a single entry.
    Push(Entry<T>),
    /// Overflow tail of a batch push.
    PushBatch(Vec<Entry<T>>),
    /// Pop the minimum if it beats `bound` (the caller's local minimum).
    Pop { bound: Option<Key> },
    /// Raid flush: meld a victim's drained buffer into the heap, then pop
    /// the minimum — one delegation instead of a flush plus a pop.
    DrainInto(QuaternaryHeap<Entry<T>>),
}

enum HeapResp<T> {
    Pushed,
    One(Option<Entry<T>>),
}

impl<T: Send> CombineOp<QuaternaryHeap<Entry<T>>> for HeapOp<T> {
    type Resp = HeapResp<T>;

    fn apply(self, heap: &mut QuaternaryHeap<Entry<T>>) -> HeapResp<T> {
        match self {
            HeapOp::Push(e) => {
                heap.push(e);
                HeapResp::Pushed
            }
            HeapOp::PushBatch(entries) => {
                heap.extend_batch(entries);
                HeapResp::Pushed
            }
            HeapOp::Pop { bound } => HeapResp::One(pop_if_better(heap, bound)),
            HeapOp::DrainInto(mut drained) => {
                heap.append(&mut drained);
                HeapResp::One(heap.pop())
            }
        }
    }
}

/// A lockable heap padded to its own cache line.
type PaddedHeap<T> = CachePadded<Mutex<QuaternaryHeap<Entry<T>>>>;

/// Shared component: the global heap plus every place's raidable buffer.
pub struct StructuralKPriority<T: Send + 'static> {
    k: usize,
    queue: Combiner<QuaternaryHeap<Entry<T>>, HeapOp<T>>,
    buffers: Box<[PaddedHeap<T>]>,
}

impl<T: Send + 'static> StructuralKPriority<T> {
    /// Creates the structure for `nplaces` places with per-place buffer
    /// bound `k` (ρ = (P−1)·k).
    ///
    /// # Panics
    /// Panics if `nplaces == 0`.
    pub fn new(nplaces: usize, k: usize) -> Self {
        assert!(nplaces > 0, "need at least one place");
        StructuralKPriority {
            k,
            queue: Combiner::new(QuaternaryHeap::new(), nplaces),
            buffers: (0..nplaces)
                .map(|_| CachePadded::new(Mutex::new(QuaternaryHeap::new())))
                .collect(),
        }
    }

    /// The per-place buffer bound.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<T: Send + 'static> TaskPool<T> for StructuralKPriority<T> {
    type Handle = StructuralHandle<T>;

    fn num_places(&self) -> usize {
        self.buffers.len()
    }

    fn handle(self: &Arc<Self>, place: usize) -> StructuralHandle<T> {
        assert!(place < self.buffers.len(), "place {place} out of range");
        StructuralHandle {
            place,
            seq: 0,
            rng: XorShift64::new(0x5172_0000 ^ place as u64),
            stats: PlaceStats::default(),
            cstats: CombineStats::default(),
            shared: Arc::clone(self),
        }
    }
}

/// One place's view of the structural prototype.
pub struct StructuralHandle<T: Send + 'static> {
    shared: Arc<StructuralKPriority<T>>,
    place: usize,
    seq: u64,
    rng: XorShift64,
    stats: PlaceStats,
    cstats: CombineStats,
}

impl<T: Send + 'static> StructuralHandle<T> {
    fn queue(&mut self, op: HeapOp<T>) -> HeapResp<T> {
        self.shared.queue.execute(self.place, op, &mut self.cstats)
    }

    /// Pops the shared minimum if it beats `bound`.
    fn queue_pop(&mut self, bound: Option<Key>) -> Option<Entry<T>> {
        match self.queue(HeapOp::Pop { bound }) {
            HeapResp::One(e) => e,
            HeapResp::Pushed => unreachable!("Pop answers One"),
        }
    }

    /// Drains every task of some victim's buffer into the shared queue and
    /// pops the resulting minimum. Victim buffers are scanned round-robin
    /// from a random start; the victim's buffer lock is released before the
    /// shared queue is entered (see the lock-order rule).
    fn raid_pop(&mut self) -> Option<Entry<T>> {
        let p = self.shared.buffers.len();
        if p <= 1 {
            return None;
        }
        let start = self.rng.below(p as u64) as usize;
        for i in 0..p {
            let victim = (start + i) % p;
            if victim == self.place {
                continue;
            }
            let drained = {
                let mut buf = self.shared.buffers[victim].lock();
                if buf.is_empty() {
                    continue;
                }
                std::mem::take(&mut *buf)
            };
            self.stats.steals += 1;
            // Meld + pop in one shared-queue operation: with ≥1 melded
            // entry the pop cannot come up empty.
            match self.queue(HeapOp::DrainInto(drained)) {
                HeapResp::One(Some(e)) => return Some(e),
                HeapResp::One(None) => unreachable!("non-empty meld pops an entry"),
                HeapResp::Pushed => unreachable!("DrainInto answers One"),
            }
        }
        None
    }
}

impl<T: Send + 'static> PoolHandle<T> for StructuralHandle<T> {
    /// Buffers locally; overflows (buffer already holds `k`) go to the
    /// shared queue. `k` from the call is ignored — the structural bound is
    /// a per-structure constant here (a per-task variant would track the
    /// minimum, as the hybrid does; not needed for the prototype).
    fn push(&mut self, prio: u64, _k: usize, task: T) {
        let entry = Entry {
            prio,
            seq: self.seq,
            task,
        };
        self.seq += 1;
        self.stats.pushes += 1;
        let mut buf = self.shared.buffers[self.place].lock();
        if buf.len() < self.shared.k {
            buf.push(entry);
            return;
        }
        // Buffer full: move the *worst* of buffer ∪ {entry}? The simple
        // prototype keeps the buffer as-is and forwards the new task, which
        // preserves the ρ bound (buffer size never exceeds k).
        drop(buf);
        self.stats.publishes += 1;
        self.queue(HeapOp::Push(entry));
    }

    /// Takes the better of (own buffer min, shared min), never holding the
    /// buffer lock across the shared-queue operation: the local minimum is
    /// snapshotted as a bound, the buffer lock is released, and the shared
    /// queue pops only entries beating the bound.
    fn pop_entry(&mut self) -> Option<(u64, T)> {
        let bound = self.shared.buffers[self.place].lock().peek().map(key);
        if let Some(e) = self.queue_pop(bound) {
            self.stats.pops += 1;
            return Some((e.prio, e.task));
        }
        if bound.is_some() {
            // Shared min did not beat the local one (or the heap is
            // empty): the local minimum is the pop.
            if let Some(e) = self.shared.buffers[self.place].lock().pop() {
                self.stats.pops += 1;
                return Some((e.prio, e.task));
            }
            // The buffer was raided between the peek and the pop; our
            // entries moved to the shared queue — retry it unbounded.
            if let Some(e) = self.queue_pop(None) {
                self.stats.pops += 1;
                return Some((e.prio, e.task));
            }
        }
        // Both empty: raid a victim's buffer, then pop the meld. Spurious
        // failure is allowed.
        if let Some(e) = self.raid_pop() {
            self.stats.pops += 1;
            return Some((e.prio, e.task));
        }
        self.stats.failed_pops += 1;
        None
    }

    /// Batch push: the local-buffer prefix fills under one buffer lock,
    /// and everything past the buffer bound goes to the shared queue in a
    /// single bulk insert (after the buffer lock is released).
    fn push_batch(&mut self, _k: usize, batch: &mut Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len() as u64;
        let base_seq = self.seq;
        self.seq += n;
        self.stats.pushes += n;
        let mut entries = batch.drain(..).enumerate().map(|(i, (prio, task))| Entry {
            prio,
            seq: base_seq + i as u64,
            task,
        });
        let mut buf = self.shared.buffers[self.place].lock();
        let room = self.shared.k.saturating_sub(buf.len());
        buf.extend_batch(entries.by_ref().take(room));
        drop(buf);
        let overflow: Vec<Entry<T>> = entries.collect();
        if !overflow.is_empty() {
            self.stats.publishes += overflow.len() as u64;
            self.queue(HeapOp::PushBatch(overflow));
        }
    }

    fn stats(&self) -> PlaceStats {
        let mut s = self.stats;
        s.combine_passes = self.cstats.passes;
        s.combine_ops = self.cstats.ops;
        s.combine_pass_max = self.cstats.max_pass;
        s.combine_parks = self.cstats.parks;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, k: usize) -> Arc<StructuralKPriority<u64>> {
        Arc::new(StructuralKPriority::new(n, k))
    }

    #[test]
    fn single_place_priority_order() {
        let p = pool(1, 4);
        let mut h = p.handle(0);
        for &x in &[6u64, 2, 8, 1] {
            h.push(x, 0, x);
        }
        let mut out = Vec::new();
        while let Some(t) = h.pop() {
            out.push(t);
        }
        assert_eq!(out, vec![1, 2, 6, 8]);
    }

    #[test]
    fn overflow_goes_to_shared_queue() {
        let p = pool(2, 2);
        let mut h0 = p.handle(0);
        for i in 0..5u64 {
            h0.push(i, 0, i);
        }
        // Buffer holds 2, the rest went shared: place 1 sees them
        // without raiding.
        let mut h1 = p.handle(1);
        assert!(h1.pop().is_some());
        assert_eq!(h1.stats().steals, 0);
    }

    #[test]
    fn raid_recovers_buffered_tasks() {
        let p = pool(2, 64);
        let mut h0 = p.handle(0);
        for i in 0..5u64 {
            h0.push(i, 0, i); // all buffered at place 0
        }
        let mut h1 = p.handle(1);
        let mut got = Vec::new();
        while let Some(t) = h1.pop() {
            got.push(t);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(h1.stats().steals >= 1);
    }

    /// The structural bound: a pop may ignore only tasks buffered at other
    /// places, at most (P−1)·k, regardless of age. With P = 2 the popping
    /// place can see everything except ≤ k buffered tasks — and unlike the
    /// temporal structures, an *old* task may legally stay hidden.
    #[test]
    fn old_tasks_may_stay_buffered_but_bound_holds() {
        let k = 3;
        let p = pool(2, k);
        let mut h0 = p.handle(0);
        // k old, high-priority tasks stay in the buffer forever …
        for i in 0..k as u64 {
            h0.push(i, 0, i);
        }
        // … while newer, worse tasks overflow to the shared queue.
        for i in 0..20u64 {
            h0.push(100 + i, 0, 100 + i);
        }
        let mut h1 = p.handle(1);
        // Place 1 pops the shared tasks; the k buffered ones are
        // ignored — exactly the structural allowance, never more.
        for i in 0..20u64 {
            assert_eq!(h1.pop(), Some(100 + i));
        }
        // Raid finally liberates the buffered ones.
        let mut rest = Vec::new();
        while let Some(t) = h1.pop() {
            rest.push(t);
        }
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_exactly_once() {
        let p = pool(4, 16);
        let threads = 4usize;
        let per = 2_000u64;
        let popped = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let taken: Arc<Vec<std::sync::atomic::AtomicU32>> =
            Arc::new((0..threads as u64 * per).map(|_| 0.into()).collect());
        std::thread::scope(|s| {
            for t in 0..threads {
                let p = Arc::clone(&p);
                let taken = Arc::clone(&taken);
                let popped = Arc::clone(&popped);
                s.spawn(move || {
                    use std::sync::atomic::Ordering;
                    let mut h = p.handle(t);
                    let mut rng = XorShift64::new(t as u64 + 13);
                    let mut pushed = 0u64;
                    loop {
                        if pushed < per && rng.below(2) == 0 {
                            h.push(rng.below(500), 0, t as u64 * per + pushed);
                            pushed += 1;
                        } else if let Some(got) = h.pop() {
                            assert_eq!(taken[got as usize].fetch_add(1, Ordering::Relaxed), 0);
                            popped.fetch_add(1, Ordering::Relaxed);
                        } else if pushed == per
                            && popped.load(Ordering::Relaxed) == threads as u64 * per
                        {
                            break;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(
            popped.load(std::sync::atomic::Ordering::Relaxed),
            threads as u64 * per
        );
    }
}
