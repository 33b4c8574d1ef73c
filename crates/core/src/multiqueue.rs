//! Relaxed MultiQueue — the modern probabilistic competitor (PAPERS.md,
//! "Multi-Queues Can Be State-of-the-Art Priority Schedulers",
//! arXiv 2109.00657).
//!
//! Where the paper's structures buy scalability with a *hard* ρ-bound on
//! how far a pop may stray from the true best task (ρ = k centralized,
//! ρ = P·k hybrid), the MultiQueue drops the bound entirely: it keeps
//! `c·P` plain sequential priority queues (`c` ≥ 1 per place, a
//! constructor parameter; `PoolKind::MultiQueue` uses [`DEFAULT_MQ_C`]),
//! each behind its own cache-padded try-lock, and
//!
//! * **push** appends to the place's insertion buffer and, once
//!   `min(k, 16)` tasks are buffered, lands them all on one random queue,
//!   preferring one whose lock is free (bounded try-lock probing, then a
//!   blocking fallback — a push never fails);
//! * **pop** peeks the cached tops of **two** random queues and takes the
//!   best of those two and the buffer's own minimum, retrying with fresh
//!   queues when the lock is taken or the top was stale. The classic
//!   two-choice argument keeps the *expected* rank error O(P) — but the
//!   worst case is unbounded, which is exactly the trade this structure
//!   makes against the paper's ρ-bounded designs.
//!
//! Its second configuration, one queue per place and a pop over every
//! top, trades back: a deterministic ρ (see "Exact configuration").
//!
//! # Top caching and the empty path
//!
//! Each queue carries an `AtomicU64` mirror of its best priority
//! (`u64::MAX` = empty), rewritten under the queue lock after every
//! mutation, so the two-choice peek is a pair of loads — no locking on
//! the compare, locking only to take. A pop that drew two apparently
//! empty queues (or lost its locks) falls back to an **exhaustive scan**
//! of all `c·P` queues and then of the other places' non-empty insertion
//! buffers (next section) before giving up. That scan is what makes the
//! scheduler's parking machinery safe on this structure: a parked worker
//! holds no lock, so when the last awake worker scans, every queue or
//! buffer holding a stranded task is either lockable (the scan finds the
//! task) or held by another *awake* worker (which is making progress);
//! a buffer's length mirror is stored before its lock is released, so a
//! buffer read as empty was empty or is in an awake worker's hands.
//! `None` is therefore only ever returned in states where retrying can
//! observe the missing tasks — the contract [`TaskPool`] requires — and
//! quiescence itself comes from the scheduler's pending counter, never
//! from this structure's emptiness.
//!
//! # Per-place insertion buffer
//!
//! A scalar push that locks a random queue writes heap lines the other
//! core wrote last, and the pop that follows does it again: 257/583 ns per
//! push/pop on the harness's `service_stream` against 34 ns per item
//! batched. The Multi-Queues paper closes that gap with insertion
//! buffers, and the source paper's temporal ρ-relaxation (arXiv 1312.2501
//! §2.2, "the last k items added may be ignored") says how large one may
//! be: the `k` every push carries. Each place has one, on a cache line of
//! its own: a lock that only that place takes as long as every place
//! finds work on the queues, and a lock-free mirror of its length (the
//! queues' top mirror, for a buffer). A push or pop that stays in the
//! buffer writes no line another core reads, and one that finds it empty
//! pays a load.
//!
//! * **Bound.** A push that would bring the buffer to `min(k, 16)`
//!   entries lands the buffer and itself on one queue under one lock
//!   instead, `k` being the smallest bound of the call and of anything
//!   still buffered: a task pushed at `k` never waits behind
//!   `min(k, 16) − 1` later pushes, whatever bounds those carry. Between
//!   calls a buffer holds at most `min(k, 16) − 1` tasks — the place's
//!   *latest* pushes — and all `P` places together keep at most
//!   `P·(min(k, 16) − 1)` out of one another's two-choice draws. `k ≤ 1`
//!   never buffers, and neither does a `push_batch`: it lands at once and
//!   takes the buffer along. Its items share one queue lock as it is;
//!   buffering the batches that would fit measured ×1.00 on `sssp_sparse`
//!   (~8 neighbours per relaxation at k = 8) while the buffer was free to
//!   touch and ×0.97 behind the lock that keeps it reachable.
//! * **Pop.** The buffer's minimum (a scan of ≤ 15 priorities) competes
//!   with the two-choice winner's cached top and is taken, with no queue
//!   lock and no shared cache line touched, when it is no worse — ties go
//!   to the buffer, and an empty-looking pair loses to any buffered task.
//!   A pop therefore sees *more* than it did without the buffer (buffer ∪
//!   two tops), never less, and a single place with `c = 1` is exact at
//!   every `k`. A spawned child that is the best task its place knows of
//!   runs without leaving the core — what hybrid's local list buys.
//! * **Out of sight, not out of reach.** The relaxation is about order
//!   only. A place that found nothing on any queue takes the best entry
//!   of another place's buffer before its pop may fail, as a thief steals
//!   from a deque and hybrid spies a local list: roots seeded through one
//!   place, or a handful of coarse children, spread over idle places
//!   instead of running serially behind the place that pushed them, and a
//!   task waiting on its own buffered child is served. The buffers live
//!   in the shared structure, so a dropped handle's tasks stay where they
//!   are and stay reachable. [`PlaceStats::publishes`] counts the
//!   landings of a non-empty buffer.
//! * **`None` ⇒ own buffer empty.** When every two-choice draw showed a
//!   better top whose lock was then lost, the buffered minimum is served
//!   *before* the exhaustive scan. So a worker that parks after a failed
//!   pop leaves nothing in its own buffer — were it the last one awake,
//!   nobody would be left to come for it.
//!
//! There is deliberately **no deletion buffer**. Popping the 16 best of
//! one queue into a private buffer reached 12 M items/s on
//! `service_stream` (insertion buffer alone: 6.6 M) but takes the 16 best
//! of *one* of `c·P` queues for the best overall, and dropped
//! `useful_frac.multiqueue` on `sssp_dense` from 0.9986 to 0.936. A
//! guarded variant — keep batching only while the next entry still beats
//! the losing top — measured no gain over the insertion buffer alone
//! (6.63 vs 6.58 M/s).
//!
//! # Exact configuration
//!
//! [`RelaxedMultiQueue::structural`] is `PoolKind::Structural`: the
//! source paper's §5.3 *structural* ρ-relaxation ("a pop never ignores
//! more than ρ items, regardless of their age"). It keeps one queue per
//! place, and its pushes are the MultiQueue's: buffered up to
//! `min(k, 16)`, then landed on a random queue; batches land at once. Only the pop's choice set differs — every queue's top instead of
//! two random ones:
//!
//! 1. the buffered minimum is taken when it is no worse than the least
//!    top (ties go to the buffer);
//! 2. otherwise the least top's queue is locked, and its minimum is taken
//!    only if it is still no worse than the runner-up top that was read
//!    and strictly better than the buffered minimum; otherwise the tops
//!    are read again;
//! 3. after `2·P` tops gone stale, every queue is locked in index order
//!    and the least head is taken — nothing else waits for a queue lock
//!    while holding one, so the order cannot deadlock;
//! 4. only when every top reads empty does the pop go on to the buffer and
//!    the scan.
//!
//! **ρ.** A single-threaded pop sees every queue's true minimum and its own
//! buffer, so the only tasks it can miss are those in the other places'
//! buffers. Each buffer holds at most `min(k, 16) − 1` tasks, for the
//! least `k` buffered there, however old they are. So
//! ρ = (P − 1)·(min(k, 16) − 1), deterministic, and one place is exact at
//! any `k`. `tests/pool_contract.rs` checks this pop by pop against a
//! shadow of every live task that the test keeps itself. Under concurrency
//! step 2's re-check keeps a pop from taking a top that went stale between
//! the read and the lock (loom model (b)). Step 3 locks every queue rather than only the least top
//! that was read: that top can be just as stale, and model (b) finds the
//! schedule in which taking its minimum unchecked hands out 30 before 20.
//! Step 2 blocks rather than try-locks as the two-choice pop does: with
//! every place after the same top, a try-lock loser re-read the tops and
//! retried the lock while the winner popped — `pool.pop_ns.structural`
//! 1 150 ns against 650–850 ns blocking, and `sssp_sparse` items/s ×0.85
//! of the flat-combined heap's against ×0.99 blocking (two cores).
//!
//! This replaced a flat-combined shared heap with one buffer of up to `k`
//! per place. Three other replacements were measured against that heap
//! (items/s on `service_stream` and `sssp_sparse`, paired runs, two
//! cores) and rejected:
//!
//! * one shared queue behind a plain mutex: ×1.75 and ×0.81 (0/4 pairs) —
//!   on a single queue the combiner beats a lock;
//! * the combined heap plus a cached shared top: ×1.5 and ×0.9;
//! * `P` queues with this pop, but a try-lock scan instead of step 3 under
//!   contention: ×1.5 on `sssp_sparse`, but a pop then takes tops that are
//!   not minimal, so there is no deterministic ρ — that is the MultiQueue
//!   with `c = 1`.

use crate::pool::{PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Mutex, MutexGuard};
use crate::util::XorShift64;
use crossbeam_utils::CachePadded;
use priosched_pq::{QuaternaryHeap, SequentialPriorityQueue};
use std::sync::Arc;

/// Default queues-per-place factor `c` (the Multi-Queues paper finds
/// small constants ≥ 2 sufficient to keep contention negligible).
pub const DEFAULT_MQ_C: usize = 2;

/// Cap on a place's insertion buffer: a push with relaxation bound `k`
/// flushes once `min(k, MQ_BUFFER_MAX)` entries are buffered. 16 keeps
/// the pop's linear scan for the buffer's minimum at 15 compares and the
/// hidden set at `P·15` however large `k` is.
const MQ_BUFFER_MAX: usize = 16;

/// Queue entry: priority, per-place insertion sequence (deterministic
/// tiebreak within a place), task.
struct MqEntry<T> {
    prio: u64,
    seq: u64,
    task: T,
}

impl<T> PartialEq for MqEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl<T> Eq for MqEntry<T> {}
impl<T> PartialOrd for MqEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MqEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.seq).cmp(&(other.prio, other.seq))
    }
}

/// One of the `c·P` queues: the heap behind its try-lock plus the
/// lock-free mirror of its best priority (`u64::MAX` = empty), padded to
/// its own cache line so two-choice peeks never false-share.
struct MqQueue<T> {
    heap: Mutex<MqHeap<T>>,
    top: AtomicU64,
}

type MqHeap<T> = QuaternaryHeap<MqEntry<T>>;

impl<T> MqQueue<T> {
    fn new() -> Self {
        MqQueue {
            heap: Mutex::new(QuaternaryHeap::new()),
            top: AtomicU64::new(u64::MAX),
        }
    }

    /// Refreshes the top mirror from the (locked) heap. Callers must hold
    /// the heap lock — the store is only correct while the heap cannot
    /// move underneath it.
    fn refresh_top(&self, heap: &MqHeap<T>) {
        let top = heap.peek().map_or(u64::MAX, |e| e.prio);
        self.top.store(top, Ordering::Release);
    }
}

/// One place's insertion buffer (see the module docs) behind its lock,
/// plus the lock-free mirror of its length, padded to its own cache line:
/// an empty buffer costs its place one load per operation and an idle
/// place's scan writes no line of a buffer it takes nothing from.
struct MqBuffer<T> {
    slots: Mutex<MqSlots<T>>,
    len: AtomicUsize,
}

/// The buffered pushes, in push order, on no queue yet.
struct MqSlots<T> {
    entries: Vec<MqEntry<T>>,
    /// Smallest `min(k, MQ_BUFFER_MAX)` among the pushes of `entries`.
    bound: usize,
}

impl<T> MqBuffer<T> {
    fn new() -> Self {
        MqBuffer {
            slots: Mutex::new(MqSlots {
                entries: Vec::with_capacity(MQ_BUFFER_MAX),
                bound: MQ_BUFFER_MAX,
            }),
            len: AtomicUsize::new(0),
        }
    }

    /// Refreshes the length mirror from the (locked) slots, as
    /// [`MqQueue::refresh_top`] does the top's.
    fn refresh_len(&self, slots: &MqSlots<T>) {
        self.len.store(slots.entries.len(), Ordering::Release);
    }

    /// Removes entry `at` of the (locked) slots.
    fn take(&self, slots: &mut MqSlots<T>, at: usize) -> MqEntry<T> {
        let entry = slots.entries.remove(at);
        self.refresh_len(slots);
        entry
    }
}

/// Index and priority of the best entry of `entries` — the oldest among
/// equals, a buffer being in push order.
fn buffer_min<T>(entries: &[MqEntry<T>]) -> Option<(usize, u64)> {
    let prios = entries.iter().map(|e| e.prio).enumerate();
    prios.min_by_key(|&(_, prio)| prio)
}

/// Which queue tops a pop chooses among; fixed by the constructor.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Choice {
    /// Two random tops per draw: the MultiQueue.
    TwoRandom,
    /// Every top: the structural configuration (see "Exact
    /// configuration" in the module docs).
    Exact,
}

/// Shared component: `c·P` lockable sequential queues and one insertion
/// buffer per place.
pub struct RelaxedMultiQueue<T: Send + 'static> {
    queues: Box<[CachePadded<MqQueue<T>>]>,
    buffers: Box<[CachePadded<MqBuffer<T>>]>,
    nplaces: usize,
    choice: Choice,
}

impl<T: Send + 'static> RelaxedMultiQueue<T> {
    /// Creates the MultiQueue for `nplaces` places with `c` queues per
    /// place.
    ///
    /// # Panics
    /// Panics if `nplaces == 0` or `c == 0`.
    pub fn new(nplaces: usize, c: usize) -> Self {
        assert!(nplaces > 0, "need at least one place");
        assert!(c > 0, "need at least one queue per place");
        RelaxedMultiQueue {
            queues: (0..nplaces * c)
                .map(|_| CachePadded::new(MqQueue::new()))
                .collect(),
            buffers: (0..nplaces)
                .map(|_| CachePadded::new(MqBuffer::new()))
                .collect(),
            nplaces,
            choice: Choice::TwoRandom,
        }
    }

    /// Creates the structural configuration (arXiv 1312.2501 §5.3): one
    /// queue per place and a pop that chooses among every queue's top, so
    /// a single-threaded pop ignores only the other places' buffered tasks
    /// (see "Exact configuration" in the module docs).
    ///
    /// # Panics
    /// Panics if `nplaces == 0`.
    pub fn structural(nplaces: usize) -> Self {
        RelaxedMultiQueue {
            choice: Choice::Exact,
            ..Self::new(nplaces, 1)
        }
    }

    /// The configured queues-per-place factor `c`.
    pub fn c(&self) -> usize {
        self.queues.len() / self.nplaces
    }

    /// Total tasks currently held, on the queues and in the insertion
    /// buffers (diagnostics; racy).
    pub fn queued(&self) -> usize {
        let on_queues: usize = self.queues.iter().map(|q| q.heap.lock().len()).sum();
        let buffered: usize = (0..self.nplaces).map(|p| self.buffered(p)).sum();
        on_queues + buffered
    }

    /// Tasks in `place`'s insertion buffer (diagnostics; racy).
    ///
    /// # Panics
    /// Panics if `place` is out of range.
    pub fn buffered(&self, place: usize) -> usize {
        self.buffers[place].slots.lock().entries.len()
    }

    /// Picks the queue a push lands on and returns it locked: bounded
    /// try-lock probing of random queues, then blocking on a random one —
    /// a push must never fail, and with c·P queues the blocking fallback
    /// is rare even under full contention.
    fn lock_for_push(&self, rng: &mut XorShift64) -> (&MqQueue<T>, MutexGuard<'_, MqHeap<T>>) {
        let nq = self.queues.len();
        for _ in 0..2 * nq {
            let q = &self.queues[rng.below(nq as u64) as usize];
            if let Some(heap) = q.heap.try_lock() {
                return (q, heap);
            }
        }
        let q = &self.queues[rng.below(nq as u64) as usize];
        (q, q.heap.lock())
    }

    /// Lands `entries` on one queue under one lock and one top refresh.
    fn land(&self, rng: &mut XorShift64, entries: impl Iterator<Item = MqEntry<T>>) {
        let (q, mut heap) = self.lock_for_push(rng);
        heap.extend_batch(entries);
        q.refresh_top(&heap);
    }

    /// Takes the best entry of queue `idx` if its lock is free and it is
    /// non-empty; refreshes the top mirror either way.
    fn try_pop_from(&self, idx: usize) -> Option<MqEntry<T>> {
        let q = &self.queues[idx];
        let mut heap = q.heap.try_lock()?;
        let entry = heap.pop();
        q.refresh_top(&heap);
        entry
    }

    /// The least top mirror, its queue, and the least of the others
    /// (`u64::MAX` = empty).
    fn best_tops(&self) -> (usize, u64, u64) {
        let tops = self.queues.iter().map(|q| q.top.load(Ordering::Acquire));
        let least = (0, u64::MAX, u64::MAX);
        tops.enumerate()
            .fold(least, |(best, top, runner_up), (idx, t)| {
                if t < top {
                    (idx, t, top)
                } else {
                    (best, top, runner_up.min(t))
                }
            })
    }

    /// The exact configuration's queue pop against the buffered minimum
    /// `local`: the queue with the least top is locked, and its minimum
    /// taken only while it is no worse than the runner-up top read and
    /// strictly better than `local`; otherwise the tops are read again.
    /// After `2·P` tops gone stale, every queue is locked in index order and
    /// the least head taken. `None` means the buffer's minimum is no worse
    /// than every top, or every top read empty.
    fn pop_exact(&self, local: Option<u64>, stale_refs: &mut u64) -> Option<MqEntry<T>> {
        let beats_local = |prio: u64| local.is_none_or(|l| prio < l);
        for _ in 0..2 * self.queues.len() {
            let (best, top, runner_up) = self.best_tops();
            if top == u64::MAX || !beats_local(top) {
                return None;
            }
            let q = &self.queues[best];
            let mut heap = q.heap.lock();
            // The plant of the loom self-check: no re-check under the lock.
            let skip_recheck = cfg!(loom_mutate_exact_recheck);
            // Under the lock the mirror is the heap's top.
            let now = q.top.load(Ordering::Relaxed);
            if now != u64::MAX && (skip_recheck || now <= runner_up) && beats_local(now) {
                let entry = heap.pop();
                q.refresh_top(&heap);
                return entry;
            }
            *stale_refs += 1;
        }
        // Nothing else waits for a queue lock while holding one, and this
        // takes them in index order: no cycle.
        let mut heaps: Vec<_> = self.queues.iter().map(|q| q.heap.lock()).collect();
        let heads = heaps.iter().enumerate();
        let (prio, idx) = heads.filter_map(|(i, h)| Some((h.peek()?.prio, i))).min()?;
        if !beats_local(prio) {
            return None;
        }
        let entry = heaps[idx].pop();
        self.queues[idx].refresh_top(&heaps[idx]);
        entry
    }

    /// Lands `entries` on queue `idx`, for models that need a placement the
    /// random landing cannot promise.
    #[cfg(loom)]
    pub(crate) fn land_on(&self, idx: usize, entries: impl IntoIterator<Item = (u64, T)>) {
        let q = &self.queues[idx];
        let mut heap = q.heap.lock();
        let seqs = heap.len() as u64..;
        let entries = entries.into_iter().zip(seqs);
        heap.extend_batch(entries.map(|((prio, task), seq)| MqEntry { prio, seq, task }));
        q.refresh_top(&heap);
    }

    /// The authoritative emptiness check behind a failing pop of `place`:
    /// every queue from offset `start` under a try-lock, then every other
    /// place's insertion buffer that is not empty, likewise.
    fn scan(&self, place: usize, start: usize) -> Option<MqEntry<T>> {
        let nq = self.queues.len();
        for idx in (0..nq).map(|off| (start + off) % nq) {
            if let Some(entry) = self.try_pop_from(idx) {
                return Some(entry);
            }
        }
        for other in (1..self.nplaces).map(|off| (place + off) % self.nplaces) {
            let buffer = &self.buffers[other];
            if buffer.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            if let Some(mut theirs) = buffer.slots.try_lock() {
                if let Some((at, _)) = buffer_min(&theirs.entries) {
                    return Some(buffer.take(&mut theirs, at));
                }
            }
        }
        None
    }
}

impl<T: Send + 'static> TaskPool<T> for RelaxedMultiQueue<T> {
    type Handle = MultiQueueHandle<T>;

    fn num_places(&self) -> usize {
        self.nplaces
    }

    fn handle(self: &Arc<Self>, place: usize) -> MultiQueueHandle<T> {
        assert!(place < self.nplaces, "place {place} out of range");
        MultiQueueHandle {
            place,
            seq: 0,
            rng: XorShift64::new(0x4D51_0000 ^ place as u64),
            stats: PlaceStats::default(),
            shared: Arc::clone(self),
        }
    }
}

/// One place's view of the MultiQueue.
pub struct MultiQueueHandle<T: Send + 'static> {
    shared: Arc<RelaxedMultiQueue<T>>,
    place: usize,
    seq: u64,
    rng: XorShift64,
    stats: PlaceStats,
}

impl<T: Send + 'static> MultiQueueHandle<T> {
    /// The place this handle was created for.
    pub fn place(&self) -> usize {
        self.place
    }

    /// Takes in `n` pushed entries under `bound` — a scalar push's
    /// `min(k, 16)`, 0 for a batch: buffered while that leaves the buffer
    /// under `bound` and under the bound of anything in it, otherwise
    /// landed behind it on one queue under one lock. Landing a non-empty
    /// buffer is a publish.
    fn admit(&mut self, bound: usize, n: usize, entries: impl Iterator<Item = MqEntry<T>>) {
        self.seq += n as u64;
        self.stats.pushes += n as u64;
        let shared = &*self.shared;
        let buffer = &shared.buffers[self.place];
        if n >= bound && buffer.len.load(Ordering::Acquire) == 0 {
            // Not to be buffered, and nothing buffered to take along.
            return shared.land(&mut self.rng, entries);
        }
        let mut own = buffer.slots.lock();
        let bound = if own.entries.is_empty() {
            bound
        } else {
            bound.min(own.bound)
        };
        if own.entries.len() + n < bound {
            own.bound = bound;
            own.entries.extend(entries);
        } else {
            self.stats.publishes += u64::from(!own.entries.is_empty());
            shared.land(&mut self.rng, own.entries.drain(..).chain(entries));
        }
        buffer.refresh_len(&own);
    }

    /// The pop's search: the buffered minimum, a queue's, or the scan's.
    fn take_best(&mut self) -> Option<MqEntry<T>> {
        let shared = &*self.shared;
        let nq = shared.queues.len();
        let buffer = &shared.buffers[self.place];
        // Locked for the whole search, but only when something is in it.
        let mut own = (buffer.len.load(Ordering::Acquire) > 0).then(|| buffer.slots.lock());
        let local = own.as_ref().and_then(|own| buffer_min(&own.entries));
        let mut take_local = |at: usize| {
            let own = own
                .as_mut()
                .expect("a buffered minimum was found under the lock");
            Some(buffer.take(own, at))
        };
        if shared.choice == Choice::Exact {
            let local = local.map(|(_, prio)| prio);
            if let Some(entry) = shared.pop_exact(local, &mut self.stats.stale_refs) {
                return Some(entry);
            }
        } else {
            // Classic two-choice: peek two random tops, take the better one.
            for _ in 0..2 * nq {
                let i = self.rng.below(nq as u64) as usize;
                let j = self.rng.below(nq as u64) as usize;
                let ti = shared.queues[i].top.load(Ordering::Acquire);
                let tj = shared.queues[j].top.load(Ordering::Acquire);
                let (idx, top) = if ti <= tj { (i, ti) } else { (j, tj) };
                // The buffered best is taken when no worse than that top
                // (`u64::MAX` = empty, so it beats an empty queue).
                if let Some((at, _)) = local.filter(|&(_, prio)| prio <= top) {
                    return take_local(at);
                }
                if top == u64::MAX {
                    // Both drawn queues look empty; draw again (the scan below
                    // is the authoritative emptiness check).
                    continue;
                }
                match shared.try_pop_from(idx) {
                    Some(entry) => return Some(entry),
                    // Lock taken or top was stale (queue drained since the
                    // peek): count the stale observation and retry.
                    None => self.stats.stale_refs += 1,
                }
            }
        }
        // Every draw showed a better top whose lock was then lost (exact:
        // the buffer won or every top read empty): serve the buffer rather
        // than scan, so `None` implies it is empty.
        if let Some((at, _)) = local {
            return take_local(at);
        }
        drop(own);
        // Exhaustive fallback from a random offset. This is the path that
        // keeps parking safe — see the module docs.
        shared.scan(self.place, self.rng.below(nq as u64) as usize)
    }
}

impl<T: Send + 'static> PoolHandle<T> for MultiQueueHandle<T> {
    /// Buffers the task and, once `min(k, 16)` are buffered, lands the
    /// buffer on a random queue, preferring an unlocked one. `k ≤ 1`
    /// therefore lands every push at once.
    fn push(&mut self, prio: u64, k: usize, task: T) {
        let entry = MqEntry {
            prio,
            seq: self.seq,
            task,
        };
        self.admit(k.min(MQ_BUFFER_MAX), 1, std::iter::once(entry));
    }

    fn pop_entry(&mut self) -> Option<(u64, T)> {
        let Some(entry) = self.take_best() else {
            self.stats.failed_pops += 1;
            return None;
        };
        self.stats.pops += 1;
        Some((entry.prio, entry.task))
    }

    /// Batch push: the batch lands, behind whatever was buffered, on one
    /// queue under a single lock acquisition and one top refresh —
    /// coarser mixing than scalar pushes, which the MultiQueue's
    /// unbounded relaxation already admits. A batch already shares its
    /// queue lock among its items, which is all the buffer would buy it.
    fn push_batch(&mut self, _k: usize, batch: &mut Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let base_seq = self.seq;
        let entries = batch
            .drain(..)
            .enumerate()
            .map(|(o, (prio, task))| MqEntry {
                prio,
                seq: base_seq + o as u64,
                task,
            });
        self.admit(0, n, entries);
    }

    fn stats(&self) -> PlaceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(places: usize, c: usize) -> Arc<RelaxedMultiQueue<u64>> {
        Arc::new(RelaxedMultiQueue::new(places, c))
    }

    #[test]
    fn fifo_tiebreak_on_equal_priority_with_one_queue() {
        let p = pool(1, 1);
        let mut h = p.handle(0);
        h.push(7, 0, 100);
        h.push(7, 0, 200);
        h.push(7, 0, 300);
        assert_eq!(h.pop(), Some(100));
        assert_eq!(h.pop(), Some(200));
        assert_eq!(h.pop(), Some(300));
    }

    #[test]
    fn exhaustive_scan_finds_tasks_the_two_choice_probe_missed() {
        // 2 places × c=4 = 8 queues holding a single task: random pairs of
        // tops often both read MAX, so the fallback scan must find it.
        let p = pool(2, 4);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        for round in 0..50u64 {
            h0.push(round, 0, round);
            assert_eq!(h1.pop(), Some(round), "round {round} lost the task");
        }
        assert_eq!(h1.pop(), None);
    }

    #[test]
    fn batch_push_round_trips_and_counts() {
        let p = pool(2, 2);
        let mut h = p.handle(0);
        let mut batch: Vec<(u64, u64)> = (0..40).map(|i| (i, i)).collect();
        h.push_batch(0, &mut batch);
        assert!(batch.is_empty());
        assert_eq!(h.stats().pushes, 40);
        let mut out: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
        out.sort();
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn buffered_push_is_popped_locally_when_it_beats_the_queue_top() {
        // One queue, so the two-choice draw always sees its top.
        let p = pool(1, 1);
        let mut h = p.handle(0);
        let mut far: Vec<(u64, u64)> = (100..140).map(|i| (i, i)).collect();
        h.push_batch(512, &mut far); // a batch lands
        assert_eq!((p.queued(), p.buffered(0)), (40, 0));
        h.push(7, 512, 7); // buffered: on no queue
        assert_eq!((p.queued(), p.buffered(0)), (41, 1));
        assert_eq!(h.pop(), Some(7), "the buffered task is the best known");
        h.push(500, 512, 500); // worse than every queued task
        let next = h.pop().expect("40 queued");
        assert!((100..140).contains(&next), "queue top beats the buffer");
        assert_eq!(h.stats().publishes, 0, "nothing was flushed");
    }

    #[test]
    fn a_failing_scan_takes_from_another_places_buffer() {
        // Work conservation: what a busy place buffered is out of the
        // two-choice draw's sight, not out of an idle place's reach.
        let p = pool(3, 2);
        let mut h0 = p.handle(0);
        for prio in [5u64, 3, 9] {
            h0.push(prio, 512, prio);
        }
        assert_eq!(p.buffered(0), 3, "all three sit in place 0's buffer");
        let mut h1 = p.handle(1);
        let mut h2 = p.handle(2);
        assert_eq!(
            h1.pop(),
            Some(3),
            "place 0 holds its handle and is not popping"
        );
        assert_eq!(h2.pop(), Some(5));
        assert_eq!(h0.pop(), Some(9));
        assert_eq!([h0.pop(), h1.pop(), h2.pop()], [None; 3]);
        assert_eq!(
            h0.stats().publishes,
            0,
            "taken from the buffer, never landed"
        );
    }

    #[test]
    fn a_dropped_handles_buffer_stays_reachable() {
        let p = pool(2, 2);
        let mut h0 = p.handle(0);
        for i in 0..5u64 {
            h0.push(i, 512, i);
        }
        drop(h0);
        assert_eq!((p.queued(), p.buffered(0)), (5, 5));
        let mut h1 = p.handle(1);
        let got: Vec<u64> = std::iter::from_fn(|| h1.pop()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_smallest_bound_buffered_decides_the_flush() {
        let p = pool(2, 2);
        let mut h = p.handle(0);
        h.push(1, 4, 1); // may sit behind at most two later pushes
        h.push(2, 512, 2);
        h.push(3, 512, 3);
        assert_eq!(p.buffered(0), 3);
        h.push(4, 512, 4); // the fourth: the k = 4 task's bound is reached
        assert_eq!((p.queued(), p.buffered(0)), (4, 0));
        // An emptied buffer forgets the bound of what left it.
        for i in 0..15u64 {
            h.push(i, 512, i);
        }
        assert_eq!(p.buffered(0), 15);
        // k ≤ 1 lands at once and takes the buffer with it.
        h.push(0, 0, 0);
        assert_eq!((p.queued(), p.buffered(0)), (20, 0));
        assert_eq!(h.stats().publishes, 2);
    }

    #[test]
    fn flushes_are_counted_as_publishes_and_bounded() {
        // k = 0 and k = 1 never buffer, so never publish.
        for k in [0usize, 1] {
            let p = pool(2, 2);
            let mut h = p.handle(0);
            for i in 0..100u64 {
                h.push(i, k, i);
            }
            h.push_batch(k, &mut (0..40).map(|i| (i, i)).collect());
            assert_eq!((p.queued(), p.buffered(0)), (140, 0), "k = {k}");
            assert_eq!(h.stats().publishes, 0);
        }
        // Scalar pushes only: exactly one flush per full buffer.
        for (k, bound) in [(2usize, 2u64), (8, 8), (16, 16), (512, 16)] {
            let p = pool(2, 2);
            let mut h = p.handle(0);
            for i in 0..100u64 {
                h.push(i, k, i);
            }
            let s = h.stats();
            assert_eq!(s.publishes, 100 / bound, "k = {k}");
            assert_eq!(p.buffered(0) as u64, 100 % bound);
        }
        // Mixed with batches: each lands and takes a partly filled buffer
        // along, an empty one (round % 5 == 0) touches nothing.
        let p = pool(2, 2);
        let mut h = p.handle(0);
        let mut batches = 0u64;
        for round in 0..50u64 {
            for i in 0..round % 7 {
                h.push(i, 512, i);
            }
            h.push_batch(512, &mut (0..round % 5).map(|i| (i, i)).collect());
            if round % 5 > 0 {
                batches += 1;
                assert_eq!(p.buffered(0), 0);
            }
        }
        let s = h.stats();
        assert!(
            s.publishes <= s.pushes.div_ceil(16) + batches,
            "{} publishes for {} pushes",
            s.publishes,
            s.pushes
        );
        assert_eq!(p.queued() as u64, s.pushes);
    }

    fn structural(places: usize) -> Arc<RelaxedMultiQueue<u64>> {
        Arc::new(RelaxedMultiQueue::structural(places))
    }

    #[test]
    fn structural_landed_tasks_are_popped_by_other_places_from_the_queues() {
        let p = structural(2);
        let mut h0 = p.handle(0);
        for i in 0..5u64 {
            h0.push(i, 2, i); // every second push lands the pair
        }
        assert_eq!((p.queued(), p.buffered(0)), (5, 1));
        let mut h1 = p.handle(1);
        assert_eq!(h1.pop(), Some(0), "the least landed task");
        assert_eq!(p.buffered(0), 1, "taken from a queue, not the buffer");
    }

    #[test]
    fn structural_buffered_tasks_are_reachable_by_an_idle_places_scan() {
        let p = structural(2);
        let mut h0 = p.handle(0);
        for i in 0..5u64 {
            h0.push(i, 512, i); // all buffered at place 0
        }
        assert_eq!(p.buffered(0), 5);
        let mut h1 = p.handle(1);
        let got: Vec<u64> = std::iter::from_fn(|| h1.pop()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    /// The structural bound: a pop may ignore only tasks buffered at other
    /// places, however old — here ρ = (P−1)·(min(k, 16)−1) = 3.
    #[test]
    fn structural_old_buffered_tasks_may_stay_hidden_but_only_inside_the_bound() {
        let k = 4;
        let p = structural(2);
        let mut h0 = p.handle(0);
        // Three old, high-priority tasks sit in place 0's buffer …
        for i in 0..3u64 {
            h0.push(i, k, i);
        }
        // … while newer, worse ones land from place 1.
        let mut h1 = p.handle(1);
        for i in 0..20u64 {
            h1.push(100 + i, 0, 100 + i);
        }
        // Each of these pops passes over all three, no more.
        for i in 0..20u64 {
            assert_eq!(h1.pop(), Some(100 + i));
        }
        // An empty view of the queues sends the pop to place 0's buffer.
        let rest: Vec<u64> = std::iter::from_fn(|| h1.pop()).collect();
        assert_eq!(rest, vec![0, 1, 2]);
    }
}
