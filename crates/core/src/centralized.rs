//! Centralized k-priority data structure (§3.2, §4.1, Listings 1–2).
//!
//! One global, ρ-relaxed priority order over all tasks in the system:
//! a `pop` may ignore at most the **k newest** items (ρ = k), where "newest"
//! means: fewer than `k` items were pushed after them. Everything older is
//! globally visible and the best visible task wins.
//!
//! # Structure
//!
//! * A global, grow-only array of item slots ([`crate::garray::GlobalArray`])
//!   shared by all places, plus a global `tail` index. Items are placed by
//!   CAS into a free slot of the window `[tail, tail + k)`; when the window
//!   is full, `tail` advances by `k` (Listing 1). A task therefore sits at
//!   most `k` positions away from its sequentially consistent position.
//! * Per place: a sequential priority queue of [`ItemRef`]s. Each place
//!   scans the global array from its private `head` up to `tail`, a segment
//!   run at a time, and ingests references to all items it has not seen
//!   (skipping its own, which were inserted at push time), then repeatedly
//!   takes its local best via the tag CAS (Listing 2). The queue is a
//!   [`RadixHeap`] keyed by the reference's priority: every place queues
//!   every task it sees, so it holds the most entries of any pool's queue,
//!   and SSSP's nearly monotone priorities make most pushes O(1) bucket
//!   appends. It pops in the same `(prio, tag)` order as the 4-ary heap it
//!   replaced ([`priosched_pq`]'s crate docs give the numbers).
//! * When the local queue is empty, up to `k` fresh tasks may still sit in
//!   `[tail, tail + kmax)`; a single random probe may take one of them —
//!   pops are allowed to fail spuriously (§2.1).
//!
//! # The window walk
//!
//! Listing 1 looks for the free slot from a random offset, "to improve
//! scalability" (§4.1). Drawing that offset anew for every push fills the
//! window the way linear probing fills a hash table — Θ(k^1.5) slot loads
//! per window, ~20 per push at k = 512 — so a place draws it once per
//! *(tail, k)* and keeps a hint: the offset after the slot it last filled
//! and how many slots of the window it has not yet seen non-null. The next
//! push with the same tail and `k` resumes there. Places still start at
//! independent random offsets and each fills a run of consecutive slots;
//! probes are wasted only where runs meet.
//!
//! *Cost.* Slots are written once (null → item) and never cleared, so a
//! slot seen non-null stays so and no place loads a slot of a window twice
//! while its hint holds: at most `k` loads per place and window, ≤ P per
//! push amortised over a full window, one per push where runs do not meet.
//! A place that has seen all `k` slots non-null goes straight to the tail
//! CAS, without the confirming scan. [`PlaceStats::window_probes`] counts
//! the loads.
//!
//! *Soundness.* The hint is used only for a push whose tail and `k` both
//! equal the hint's, and says only "these slots of `[tail, tail + k)` were
//! non-null" — which stays true whatever happens later. A push therefore
//! places its item in a slot of `[t, t + k)` that it CASes from null, for
//! the tail `t` it holds, exactly as Listing 1 does, and moves the tail
//! only over a window whose every slot it has seen filled. `t` itself may
//! be stale (`push_batch` reads the tail once per batch, and the hint's
//! tail is as old as the hint): slots below the real tail are never null,
//! so a successful slot CAS always lands at a position ≥ the real tail
//! and < `t + k` ≤ real tail + `k`, inside the item's ρ = k window; and
//! once the stale window is full — at the latest when the real tail has
//! passed it, after at most `k` loads — the tail CAS fails, the tail is
//! re-read and the hint, being for the old tail, is dropped.
//!
//! # Lock-freedom
//!
//! Push: a full window implies `k` successful pushes by others; a failed
//! slot CAS implies another push succeeded; the tail CAS fails only if
//! another thread advanced it. Pop: the scan is bounded by items other
//! threads pushed; a failed take CAS means another thread took the task.
//! This mirrors the Theorem 1/2 arguments; the walk's starting point does
//! not enter them. The walk itself is model-checked
//! (`models::centralized_window_walk_exactly_once`).

use crate::garray::{GlobalArray, SegmentCursor};
use crate::item::{Item, ItemCache, ItemPool, ItemRef};
use crate::pool::{PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::util::XorShift64;
use crossbeam_utils::CachePadded;
use priosched_pq::{RadixHeap, SequentialPriorityQueue};
use std::sync::Arc;

/// Default maximum per-task `k` (§4.1.2: "We chose kmax = 512 for our
/// implementation").
pub const DEFAULT_KMAX: u32 = 512;

/// The shared (global) component of the centralized k-priority structure.
///
/// Create with [`CentralizedKPriority::new`], wrap in an `Arc`, then create
/// one [`CentralizedHandle`] per place via [`crate::pool::TaskPool::handle`].
pub struct CentralizedKPriority<T: Send + 'static> {
    nplaces: usize,
    kmax: u32,
    tail: CachePadded<AtomicU64>,
    array: GlobalArray<T>,
    pool: ItemPool<T>,
    /// Whether each place's handle was taken; set once, never cleared.
    taken: Box<[AtomicBool]>,
}

impl<T: Send + 'static> CentralizedKPriority<T> {
    /// Creates a structure for `nplaces` places with the given `kmax`
    /// (upper bound for per-task `k`; also the probe range of pop).
    ///
    /// # Panics
    /// Panics if `nplaces == 0` or `kmax == 0`.
    pub fn new(nplaces: usize, kmax: u32) -> Self {
        assert!(nplaces > 0, "need at least one place");
        assert!(kmax > 0, "kmax must be positive");
        CentralizedKPriority {
            nplaces,
            kmax,
            tail: CachePadded::new(AtomicU64::new(0)),
            array: GlobalArray::new(),
            pool: ItemPool::new(),
            taken: (0..nplaces).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Current tail index (diagnostics/tests).
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Upper bound on per-task `k`.
    pub fn kmax(&self) -> u32 {
        self.kmax
    }

    /// Number of global-array segments currently allocated.
    pub fn segments(&self) -> usize {
        self.array.segment_count()
    }
}

impl<T: Send + 'static> TaskPool<T> for CentralizedKPriority<T> {
    type Handle = CentralizedHandle<T>;

    fn num_places(&self) -> usize {
        self.nplaces
    }

    fn handle(self: &Arc<Self>, place: usize) -> CentralizedHandle<T> {
        assert!(place < self.nplaces, "place {place} out of range");
        assert!(
            !self.taken[place].swap(true, Ordering::AcqRel),
            "place {place}'s handle was already taken"
        );
        CentralizedHandle {
            place: place as u32,
            // Scan the global array from its first slot: segments live as
            // long as the structure.
            head: 0,
            scan_cursor: SegmentCursor::default(),
            push_cursor: SegmentCursor::default(),
            probe_cursor: SegmentCursor::default(),
            pq: RadixHeap::new(),
            refs: Vec::new(),
            cache: ItemCache::new(),
            rng: XorShift64::new(0xC3A5_0000 ^ place as u64),
            hint: WalkHint::default(),
            stats: PlaceStats::default(),
            shared: Arc::clone(self),
        }
    }
}

/// One place's view of the centralized structure.
pub struct CentralizedHandle<T: Send + 'static> {
    shared: Arc<CentralizedKPriority<T>>,
    place: u32,
    /// Private index into the global array: everything below it has been
    /// ingested into `pq` (Listing 2: "Each place maintains its own head
    /// index into the global array").
    head: u64,
    scan_cursor: SegmentCursor<T>,
    push_cursor: SegmentCursor<T>,
    probe_cursor: SegmentCursor<T>,
    pq: RadixHeap<ItemRef<T>>,
    /// Scratch for [`PoolHandle::push_batch`] (empty between calls), so a
    /// batch costs no allocation.
    refs: Vec<ItemRef<T>>,
    /// Place-local stash of free items; refilled/flushed in batches so
    /// the shared free list is touched once per batch, not per task.
    cache: ItemCache<T>,
    rng: XorShift64,
    hint: WalkHint,
    stats: PlaceStats,
}

/// Where this place's walk of the window `[tail, tail + k)` stands: it has
/// seen `k - left` slots non-null (others' items and its own), ending just
/// before offset `next`. Slots are written once and never cleared, so those
/// stay non-null and the next push with the same `tail` and `k` resumes at
/// `next` with `left` slots to go. The default (`k = 0`) matches no push,
/// since `k` is clamped to ≥ 1.
#[derive(Clone, Copy, Default)]
struct WalkHint {
    tail: u64,
    k: u64,
    next: u64,
    left: u64,
}

// SAFETY: the handle owns its place-local state exclusively; shared state is
// reached only through atomics; item/segment pointers outlive the handle via
// the Arc.
unsafe impl<T: Send + 'static> Send for CentralizedHandle<T> {}

impl<T: Send + 'static> CentralizedHandle<T> {
    /// Ingests `[head, tail)` into the local priority queue, one segment
    /// run at a time; returns the tail value scanned to.
    ///
    /// # Panics
    /// Panics on a missing segment or a null slot below the tail: the tail
    /// only ever passes full windows (see [`crate::garray`] module docs),
    /// so either means a task was lost, and skipping the position would
    /// bury it for good.
    fn ingest(&mut self) -> u64 {
        let tail = self.shared.tail.load(Ordering::Acquire);
        while self.head < tail {
            let run = self
                .shared
                .array
                .run(self.head, &mut self.scan_cursor)
                .expect("segment below tail must exist");
            let n = run.len().min((tail - self.head) as usize);
            for slot in &run[..n] {
                let pos = self.head;
                self.head += 1;
                let ptr = slot.load(Ordering::Acquire);
                assert!(!ptr.is_null(), "slot below tail must be filled");
                // SAFETY: items are pool-owned and outlive the handle.
                let item = unsafe { &*ptr };
                // This place's own items went into `pq` when it pushed them.
                let foreign = item.place.load(Ordering::Relaxed) != self.place;
                if foreign && item.is_live_at(pos) {
                    self.pq.push(ItemRef {
                        prio: item.prio.load(Ordering::Relaxed),
                        tag: pos,
                        ptr,
                    });
                    self.stats.ingested += 1;
                }
            }
        }
        tail
    }

    /// Random probe into `[tail, tail + kmax)` for the case where the local
    /// queue is empty (Listing 2 lines 21–30).
    fn probe(&mut self, tail: u64) -> Option<(u64, T)> {
        let offset = self.rng.below(self.shared.kmax as u64);
        let pos = tail + offset;
        let slot = self.shared.array.slot(pos, &mut self.probe_cursor)?;
        let ptr = slot.load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        // SAFETY: pool-owned item.
        let item = unsafe { &*ptr };
        // Eligibility: the item must still be inside its own k-window
        // relative to the tail we read, so taking it ignores no task beyond
        // what its own relaxation bound permits. The guard of Listing 2 is
        // read against the item's k, not the probing place's, because k
        // is supplied per task (§1).
        if (item.k.load(Ordering::Relaxed) as u64) <= offset {
            return None;
        }
        let task = item.try_take(pos)?;
        // Between the take and the release the item is exclusively ours,
        // so this priority read is exact (set at init, untouched since).
        let prio = item.prio.load(Ordering::Relaxed);
        // SAFETY: unique take winner returns the item.
        unsafe { self.cache.release(&self.shared.pool, ptr) };
        self.stats.probe_hits += 1;
        Some((prio, task))
    }

    /// Creates one item and places it into the k-window of the caller's
    /// cached tail `t` (Listing 1's loop with the tail read hoisted; the
    /// module docs say why a stale tail or hint is sound). Returns the
    /// reference to enqueue locally — scalar `push` inserts it directly,
    /// `push_batch` defers to one bulk repair.
    ///
    /// The walk resumes after the slot this place last filled in
    /// `[t, t + k)`, or starts at a random offset when the hint is for
    /// another tail or another `k` (Listing 1 line 9: "Randomization is
    /// used to improve scalability", §4.1), and ends once it has seen all
    /// `k` slots of the window.
    fn place_item(&mut self, prio: u64, k: u64, task: T, t: &mut u64) -> ItemRef<T> {
        let ptr = self.cache.acquire(&self.shared.pool);
        // SAFETY: freshly acquired, exclusively ours until the publishing
        // CAS below.
        let item = unsafe { &*ptr };
        // SAFETY: as above — not yet published.
        unsafe { item.init(self.place, k as u32, prio, task) };
        loop {
            let (mut off, mut left) = if self.hint.tail == *t && self.hint.k == k {
                (self.hint.next, self.hint.left)
            } else {
                (self.rng.below(k), k)
            };
            while left > 0 {
                left -= 1;
                let pos = *t + off;
                off += 1;
                if off == k {
                    off = 0;
                }
                self.stats.window_probes += 1;
                let slot = self.shared.array.slot_or_grow(pos, &mut self.push_cursor);
                if !slot.load(Ordering::Acquire).is_null() {
                    continue; // taken by another item
                }
                // Tag with the target position before the publishing CAS
                // (Listing 1: "We store pos in the tag field to omit the ABA
                // problem"); the Release store also publishes the payload.
                item.tag.store(pos, Ordering::Release);
                if slot
                    .compare_exchange(
                        std::ptr::null_mut(),
                        ptr as *mut Item<T>,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    self.stats.pushes += 1;
                    self.hint = WalkHint {
                        tail: *t,
                        k,
                        next: off,
                        left,
                    };
                    return ItemRef {
                        prio,
                        tag: pos,
                        ptr,
                    };
                }
            }
            // Every slot of the window was seen non-null, by this walk or
            // by the hinted ones before it: advance the tail. "One thread
            // will succeed, no need for checking which" (Listing 1). Either
            // way the tail now differs from `t`, which drops the hint.
            let _ =
                self.shared
                    .tail
                    .compare_exchange(*t, *t + k, Ordering::AcqRel, Ordering::Relaxed);
            *t = self.shared.tail.load(Ordering::Acquire);
        }
    }
}

impl<T: Send + 'static> PoolHandle<T> for CentralizedHandle<T> {
    /// Listing 1. `k` is clamped to `[1, kmax]`: a window of size 1 is the
    /// strictest placement the array supports (`k = 0` degenerates to it).
    fn push(&mut self, prio: u64, k: usize, task: T) {
        let k = (k as u64).clamp(1, self.shared.kmax as u64);
        let mut t = self.shared.tail.load(Ordering::Acquire);
        let r = self.place_item(prio, k, task, &mut t);
        self.pq.push(r);
    }

    /// Listing 2.
    fn pop_entry(&mut self) -> Option<(u64, T)> {
        loop {
            let scanned_to = self.ingest();
            while let Some(r) = self.pq.pop() {
                // SAFETY: pool-owned item.
                let item = unsafe { &*r.ptr };
                if item.is_live_at(r.tag) {
                    if let Some(task) = item.try_take(r.tag) {
                        // SAFETY: unique take winner returns the item.
                        unsafe { self.cache.release(&self.shared.pool, r.ptr) };
                        self.stats.pops += 1;
                        return Some((r.prio, task));
                    }
                }
                // Reference was dead (taken elsewhere / recycled): recheck
                // the global array for new tasks before trying again.
                self.stats.stale_refs += 1;
                if self.shared.tail.load(Ordering::Acquire) != scanned_to {
                    self.ingest();
                }
            }
            // Local queue drained. If the tail moved since our scan there
            // may be unseen items below it: rescan rather than probing over
            // their heads.
            let tail = self.shared.tail.load(Ordering::Acquire);
            if tail != scanned_to {
                continue;
            }
            if let Some(entry) = self.probe(tail) {
                self.stats.pops += 1;
                return Some(entry);
            }
            self.stats.failed_pops += 1;
            return None;
        }
    }

    /// Batch push (Listing 1 amortized): one item-pool refill and one tail
    /// read for the whole batch, each element resuming the window walk
    /// where the previous one stopped, and a single bulk repair of the
    /// local reference queue at the end.
    ///
    /// Relaxation accounting is unchanged: every element is placed inside
    /// `[tail, tail + k)` exactly as a scalar push would place it, so each
    /// batch element individually obeys the ρ = k window — also when the
    /// cached tail has gone stale mid-batch (module docs, "The window
    /// walk").
    fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let k = (k as u64).clamp(1, self.shared.kmax as u64);
        // One shared-free-list interaction for the whole batch.
        self.cache.prefetch(&self.shared.pool, n);
        let mut t = self.shared.tail.load(Ordering::Acquire);
        let mut refs = std::mem::take(&mut self.refs);
        for (prio, task) in batch.drain(..) {
            refs.push(self.place_item(prio, k, task, &mut t));
        }
        self.pq.extend_batch(refs.drain(..));
        self.refs = refs;
    }

    fn stats(&self) -> PlaceStats {
        self.stats
    }
}

impl<T: Send + 'static> Drop for CentralizedHandle<T> {
    /// The handle's items stay in the global array, where every other
    /// place's scan or probe reaches them; the place stays taken.
    fn drop(&mut self) {
        // Return stashed free items to the shared pool for other handles.
        self.cache.drain_to(&self.shared.pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(nplaces: usize, kmax: u32) -> Arc<CentralizedKPriority<u64>> {
        Arc::new(CentralizedKPriority::new(nplaces, kmax))
    }

    #[test]
    fn tail_advances_when_window_fills() {
        let p = pool(1, 4);
        let mut h = p.handle(0);
        for i in 0..9 {
            h.push(i, 4, i);
        }
        // 9 pushes with k = 4: at least two full windows passed.
        assert!(p.tail() >= 8, "tail = {}", p.tail());
    }

    #[test]
    fn second_place_sees_first_places_tasks() {
        let p = pool(2, 4);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        // Push enough to force tasks below the tail (window k = 2).
        for i in 0..10u64 {
            h0.push(100 - i, 2, i);
        }
        // Place 1 never pushed; it must still retrieve tasks via scanning
        // (and possibly the probe for the last in-window ones).
        let mut got = Vec::new();
        for _ in 0..200 {
            if let Some(t) = h1.pop() {
                got.push(t);
            }
            if got.len() == 10 {
                break;
            }
        }
        got.sort();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn k_zero_is_clamped_not_fatal() {
        let p = pool(1, 8);
        let mut h = p.handle(0);
        h.push(1, 0, 11);
        assert_eq!(h.pop(), Some(11));
    }

    #[test]
    fn k_above_kmax_is_clamped() {
        let p = pool(1, 8);
        let mut h = p.handle(0);
        for i in 0..20 {
            h.push(i, 100_000, i); // clamped to kmax = 8
        }
        let mut out = Vec::new();
        while let Some(t) = h.pop() {
            out.push(t);
        }
        assert_eq!(out.len(), 20);
    }

    #[test]
    #[should_panic(expected = "handle was already taken")]
    fn duplicate_handle_panics() {
        let p = pool(2, 8);
        drop(p.handle(0));
        let _b = p.handle(0);
    }

    /// Sequential ρ-relaxation oracle: whenever a pop by a non-pushing place
    /// returns task `r`, every live task with strictly better priority must
    /// be among the k most recent pushes (ρ = k, §2.2).
    #[test]
    fn relaxation_bound_oracle_sequential() {
        let k = 4usize;
        let p = pool(2, 16);
        let mut pusher = p.handle(0);
        let mut popper = p.handle(1);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (prio, push_seq)
        let mut seq = 0u64;
        let mut rng = XorShift64::new(99);
        let mut pops = 0;
        while pops < 300 {
            if rng.below(2) == 0 || live.is_empty() {
                let prio = rng.below(1000);
                pusher.push(prio, k, prio);
                live.push((prio, seq));
                seq += 1;
            } else if let Some(got) = popper.pop() {
                pops += 1;
                let idx = live
                    .iter()
                    .position(|&(pr, _)| pr == got)
                    .expect("popped task must be live");
                let (got_prio, _) = live.remove(idx);
                for &(pr, s) in &live {
                    if pr < got_prio {
                        assert!(
                            seq - s <= k as u64,
                            "ignored task with prio {pr} pushed {} pushes ago (k = {k})",
                            seq - s
                        );
                    }
                }
            }
        }
    }

    /// Window probes per push when `places` handles push round-robin with
    /// window size `k`, over `windows` full windows.
    fn probes_per_push(places: usize, k: usize, windows: usize) -> f64 {
        let p = pool(places, k as u32);
        let mut handles: Vec<_> = (0..places).map(|i| p.handle(i)).collect();
        let total = (windows * k) as u64;
        for i in 0..total {
            handles[i as usize % places].push(i, k, i);
        }
        assert!(p.tail() >= total - k as u64, "tail = {}", p.tail());
        let mut stats = PlaceStats::default();
        for h in &handles {
            stats.merge(&h.stats());
        }
        assert_eq!(stats.pushes, total);
        stats.window_probes as f64 / total as f64
    }

    /// The hinted walk's amortised cost: no place loads a slot of a window
    /// twice, so probes per push stay at or below P however the runs meet
    /// (2.00 / 6.39 / 2.00 in these three cells). A fresh random start per
    /// push (the walk this one replaced) fills the window by linear
    /// probing and confirms it full with a scan: 21.6 / 19.9 / 3.3 in the
    /// same cells, over every bound below.
    #[test]
    fn hinted_walk_probes_per_push_are_bounded() {
        for (places, k, bound) in [(2, 512, 2.5), (8, 512, 8.0), (2, 8, 3.0)] {
            let got = probes_per_push(places, k, 64);
            println!("P = {places}, k = {k}: {got:.2} probes per push");
            assert!(
                got <= bound,
                "P = {places}, k = {k}: {got:.2} probes per push (bound {bound})"
            );
        }
    }

    /// Pops `handles` in turn until none of them yields a task.
    fn drain_all(handles: &mut [&mut CentralizedHandle<u64>]) -> Vec<u64> {
        let mut got = Vec::new();
        loop {
            let before = got.len();
            for h in handles.iter_mut() {
                got.extend(std::iter::from_fn(|| h.pop()));
            }
            if got.len() == before {
                got.sort_unstable();
                return got;
            }
        }
    }

    /// A hint taken at one `k` must not steer a push with another: every
    /// position lies in the window of the tail the placement last read.
    #[test]
    fn alternating_k_on_one_handle_stays_inside_each_window() {
        let p = pool(2, 16);
        let (mut pusher, mut popper) = (p.handle(0), p.handle(1));
        let n = 600u64;
        let mut got = Vec::new();
        for i in 0..n {
            let k = [1, 4, 16][i as usize % 3];
            let mut t = p.tail();
            let r = pusher.place_item(i, k, i, &mut t);
            assert!(
                t <= r.tag && r.tag < t + k,
                "push {i}: position {} outside [{t}, {t} + {k})",
                r.tag
            );
            pusher.pq.push(r);
            if i % 7 == 0 {
                got.extend(popper.pop());
            }
        }
        got.extend(drain_all(&mut [&mut popper, &mut pusher]));
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "every task exactly once");
    }

    /// `push_batch` is a loop of `place_item` over one cached tail. Here a
    /// second handle completes the window between two elements, so both the
    /// cached tail and the walk hint (which matches it) go stale mid-batch:
    /// the element still lands at or above the real tail, inside the
    /// cached window's upper bound, and nothing is lost. The second handle
    /// alternates k = 8 and k = 4, so the stale window is sometimes wholly
    /// and sometimes only partly below the real tail.
    #[test]
    fn stale_cached_tail_mid_batch_never_places_below_the_real_tail() {
        let k = 8u64;
        let p = pool(2, k as u32);
        let (mut a, mut b) = (p.handle(0), p.handle(1));
        let mut t = p.tail(); // a's cached tail, as push_batch keeps it
        let mut next = 0u64;
        for round in 0..40 {
            for _ in 0..3 {
                let real = p.tail();
                let r = a.place_item(next, k, next, &mut t);
                assert!(r.tag >= real, "placed at {} below tail {real}", r.tag);
                assert!(r.tag < t + k && t <= p.tail());
                a.pq.push(r);
                next += 1;
            }
            let stale = t;
            assert_eq!((a.hint.tail, a.hint.k), (stale, k));
            while p.tail() == stale {
                b.push(next, if round % 2 == 0 { 8 } else { 4 }, next);
                next += 1;
            }
        }
        let got = drain_all(&mut [&mut a, &mut b]);
        assert_eq!(got, (0..next).collect::<Vec<_>>());
    }
}
