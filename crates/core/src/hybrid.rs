//! Hybrid k-priority data structure (§3.3, §4.2, Listings 3–4).
//!
//! Combines work-stealing-style locality with ρ-relaxed global ordering:
//!
//! * each place appends new tasks to a **local list** and to its local
//!   priority queue; no synchronization happens while the per-place
//!   relaxation budget lasts;
//! * once a task's budget is exhausted (`remaining_k` reaches 0 — at most
//!   `k` tasks were added after the task that set the budget), the whole
//!   local list is appended to the **global list** with a single CAS and a
//!   fresh local list is started (Listing 3);
//! * `pop` ingests new global-list entries into the local priority queue and
//!   takes its best reference via a tag CAS; when the queue runs dry it
//!   **spies** a victim's local list — copying references without removing
//!   anything (§4.2.2) — so up to `k` unpublished tasks *per place* may be
//!   missed: ρ = P·k.
//!
//! The local priority queue is a [`RadixHeap`] of [`ItemRef`]s keyed by
//! priority, as in the centralized structure: each place queues a
//! reference to every published task, and a reference that arrives late
//! (ingested or spied below the last popped priority) goes to the radix
//! heap's exact small end, so the pop order is the `(prio, tag)` order of
//! the 4-ary heap it replaced ([`priosched_pq`]'s crate docs give the
//! numbers).
//!
//! As in §4.2.3, lists are linked lists of arrays (segments), items are
//! recycled through the shared pool, and taken-ness is a tag CAS rather than
//! a flag so recycling is ABA-safe; tags are derived from per-place indices,
//! made globally unique as `local_index · P + place` — unique because a
//! place's handle is taken once per pool, so one counter that only grows
//! numbers every task of the place.

use crate::item::{Item, ItemCache, ItemPool, ItemRef};
use crate::pool::{PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use crate::util::XorShift64;
use crossbeam_utils::CachePadded;
use priosched_pq::{RadixHeap, SequentialPriorityQueue};
use std::ptr;
use std::sync::Arc;

/// Most items per list segment. Local lists hold up to `k + 1` items, so a
/// cap well below common `k` values (512 in the paper) keeps publishing
/// chains short while bounding per-segment slack. A segment is allocated
/// with exactly as many slots as its chain can still take before the
/// publication budget forces it out (see `HybridHandle::insert_local`), up
/// to this cap — segments live until the pool drops, at the end of the run
/// or service that built it, and with a small `k` a full-size one per chain
/// would be 2 KB for a dozen items.
pub const HSEGMENT_LEN: usize = 256;

/// Marker for "no last victim".
const NO_VICTIM: usize = usize::MAX;

/// Owner id of the global-list sentinel segment.
const SENTINEL_OWNER: u32 = u32::MAX;

/// A segment of a (local or global) task list.
struct HSeg<T> {
    owner: u32,
    /// Tag of `slots[0]`; slot `i` carries tag `base_tag + i · P`.
    base_tag: u64,
    /// Published length; slots below it are fully initialized. Frozen once
    /// the segment reaches the global list.
    len: AtomicUsize,
    next: AtomicPtr<HSeg<T>>,
    slots: Box<[AtomicPtr<Item<T>>]>,
}

impl<T> HSeg<T> {
    fn boxed(owner: u32, base_tag: u64, slots: usize) -> Box<Self> {
        let slots = (0..slots)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        Box::new(HSeg {
            owner,
            base_tag,
            len: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            slots,
        })
    }
}

/// Per-place record readable by every thread.
struct PlaceShared<T> {
    /// Head of the place's current (unpublished) local list; spies start
    /// their walk here.
    local_head: AtomicPtr<HSeg<T>>,
    /// Last place this place successfully spied from (§4.2.3: chased by
    /// other spies when this place has no local work).
    last_victim: AtomicUsize,
}

/// The shared component of the hybrid structure. Create, wrap in [`Arc`],
/// then create one [`HybridHandle`] per place.
pub struct HybridKPriority<T: Send + 'static> {
    nplaces: usize,
    /// Sentinel head of the global list.
    global_head: AtomicPtr<HSeg<T>>,
    places: Box<[CachePadded<PlaceShared<T>>]>,
    pool: ItemPool<T>,
    /// Whether each place's handle was taken; set once, never cleared, so
    /// one handle's `next_local_idx` numbers every tag of its place.
    taken: Box<[AtomicBool]>,
}

impl<T: Send + 'static> HybridKPriority<T> {
    /// Creates a structure for `nplaces` places.
    ///
    /// # Panics
    /// Panics if `nplaces == 0`.
    pub fn new(nplaces: usize) -> Self {
        assert!(nplaces > 0, "need at least one place");
        let sentinel = Box::into_raw(HSeg::boxed(SENTINEL_OWNER, 0, 0));
        HybridKPriority {
            nplaces,
            global_head: AtomicPtr::new(sentinel),
            places: (0..nplaces)
                .map(|_| {
                    CachePadded::new(PlaceShared {
                        local_head: AtomicPtr::new(ptr::null_mut()),
                        last_victim: AtomicUsize::new(NO_VICTIM),
                    })
                })
                .collect(),
            pool: ItemPool::new(),
            taken: (0..nplaces).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of segments currently in the global list (diagnostics).
    pub fn global_segments(&self) -> usize {
        let mut n = 0;
        let mut seg = self.global_head.load(Ordering::Acquire);
        while !seg.is_null() {
            n += 1;
            // SAFETY: non-null list node; segments are freed only when the
            // structure drops.
            seg = unsafe { &*seg }.next.load(Ordering::Acquire);
        }
        n - 1 // exclude sentinel
    }
}

impl<T: Send + 'static> TaskPool<T> for HybridKPriority<T> {
    type Handle = HybridHandle<T>;

    fn num_places(&self) -> usize {
        self.nplaces
    }

    fn handle(self: &Arc<Self>, place: usize) -> HybridHandle<T> {
        assert!(place < self.nplaces, "place {place} out of range");
        assert!(
            !self.taken[place].swap(true, Ordering::AcqRel),
            "place {place}'s handle was already taken"
        );
        HybridHandle {
            place: place as u32,
            chain_head: ptr::null_mut(),
            chain_tail: ptr::null_mut(),
            tail_fill: 0,
            next_local_idx: 0,
            remaining_k: u64::MAX,
            pq: RadixHeap::new(),
            cache: ItemCache::new(),
            g_seg: self.global_head.load(Ordering::Acquire),
            g_idx: 0,
            last_victim: NO_VICTIM,
            walked: vec![false; self.nplaces],
            rng: XorShift64::new(0x4B1D_0000 ^ place as u64),
            stats: PlaceStats::default(),
            shared: Arc::clone(self),
        }
    }
}

impl<T: Send + 'static> Drop for HybridKPriority<T> {
    fn drop(&mut self) {
        // Free the global chain (including the sentinel) and any leftover
        // local chains. Published chains are unreachable from `local_head`
        // (publish nulls it before the handle returns), so no double free.
        let free_chain = |mut seg: *mut HSeg<T>| {
            while !seg.is_null() {
                // SAFETY: drop has exclusive ownership of every chain.
                let boxed = unsafe { Box::from_raw(seg) };
                seg = boxed.next.load(Ordering::Relaxed);
            }
        };
        // Relaxed loads instead of `get_mut`: `&mut self` already proves
        // exclusivity (the model's atomics have no `get_mut`).
        free_chain(self.global_head.load(Ordering::Relaxed));
        for p in self.places.iter() {
            free_chain(p.local_head.load(Ordering::Relaxed));
        }
    }
}

// SAFETY: shared state is reached only through atomics; items are pool-owned;
// segments are freed only on drop (exclusive access).
unsafe impl<T: Send> Send for HybridKPriority<T> {}
unsafe impl<T: Send> Sync for HybridKPriority<T> {}

/// One place's view of the hybrid structure.
pub struct HybridHandle<T: Send + 'static> {
    shared: Arc<HybridKPriority<T>>,
    place: u32,
    /// Current unpublished local list (owned chain of segments).
    chain_head: *mut HSeg<T>,
    chain_tail: *mut HSeg<T>,
    /// Fill level of `chain_tail` (owner-side mirror of its `len`).
    tail_fill: usize,
    /// Per-place item counter; tags are `next_local_idx · P + place`.
    next_local_idx: u64,
    /// Publication budget (Listing 3); `u64::MAX` plays the role of ∞.
    remaining_k: u64,
    pq: RadixHeap<ItemRef<T>>,
    /// Place-local stash of free items; refilled/flushed in batches so
    /// the shared free list is touched once per batch, not per task.
    cache: ItemCache<T>,
    /// Read position in the global list.
    g_seg: *const HSeg<T>,
    g_idx: usize,
    last_victim: usize,
    /// Scratch for [`HybridHandle::spy`]: the victims it has already walked
    /// in the current call.
    walked: Vec<bool>,
    rng: XorShift64,
    stats: PlaceStats,
}

// SAFETY: as for CentralizedHandle — exclusive local state, Arc-kept shared
// state, pool-owned items, drop-owned segments.
unsafe impl<T: Send + 'static> Send for HybridHandle<T> {}

impl<T: Send + 'static> HybridHandle<T> {
    #[inline]
    fn nplaces(&self) -> u64 {
        self.shared.nplaces as u64
    }

    /// Appends an item to the local list, growing the chain by a segment
    /// of `room` slots (what the chain can still take, this item included)
    /// when needed. Visible to spies as soon as `len` is published.
    fn append_local(&mut self, item: *const Item<T>, tag: u64, room: usize) {
        // SAFETY: chain_tail is null or owned by this handle until publish.
        let tail_full =
            unsafe { self.chain_tail.as_ref() }.is_none_or(|t| self.tail_fill == t.slots.len());
        if tail_full {
            let seg = Box::into_raw(HSeg::boxed(self.place, tag, room));
            if self.chain_head.is_null() {
                self.chain_head = seg;
                self.shared.places[self.place as usize]
                    .local_head
                    .store(seg, Ordering::Release);
            } else {
                // SAFETY: chain_tail is owned by this handle until publish.
                unsafe { &*self.chain_tail }
                    .next
                    .store(seg, Ordering::Release);
            }
            self.chain_tail = seg;
            self.tail_fill = 0;
        }
        // SAFETY: owned segment; slot writes precede the len publication.
        let seg = unsafe { &*self.chain_tail };
        seg.slots[self.tail_fill].store(item as *mut Item<T>, Ordering::Release);
        seg.len.store(self.tail_fill + 1, Ordering::Release);
        self.tail_fill += 1;
    }

    /// Appends the local list to the global list (Listing 3 lines 10–17).
    fn publish(&mut self) {
        if self.chain_head.is_null() {
            return;
        }
        loop {
            // Read the entire global list first — required for the push
            // linearization argument (Theorem 3) and it positions `g_seg`
            // at the actual tail.
            self.process_global_list();
            let last = self.g_seg as *mut HSeg<T>;
            // SAFETY: global segments live until structure drop.
            if unsafe { &*last }
                .next
                .compare_exchange(
                    ptr::null_mut(),
                    self.chain_head,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                break;
            }
            // Another place appended first — it made progress; retry.
        }
        self.shared.places[self.place as usize]
            .local_head
            .store(ptr::null_mut(), Ordering::Release);
        self.chain_head = ptr::null_mut();
        self.chain_tail = ptr::null_mut();
        self.tail_fill = 0;
        self.stats.publishes += 1;
    }

    /// Adds references to unread global-list items to the local priority
    /// queue (Listing 3 `processGlobalList`).
    fn process_global_list(&mut self) {
        loop {
            // SAFETY: global segments live until structure drop.
            let seg = unsafe { &*self.g_seg };
            let len = seg.len.load(Ordering::Acquire);
            // This place's own segments went into `pq` when it pushed them.
            if seg.owner != self.place && seg.owner != SENTINEL_OWNER {
                for idx in self.g_idx..len {
                    let ptr = seg.slots[idx].load(Ordering::Acquire);
                    debug_assert!(!ptr.is_null(), "slot below len must be filled");
                    // SAFETY: pool-owned item.
                    let item = unsafe { &*ptr };
                    let tag = seg.base_tag + idx as u64 * self.nplaces();
                    if item.is_live_at(tag) {
                        self.pq.push(ItemRef {
                            prio: item.prio.load(Ordering::Relaxed),
                            tag,
                            ptr,
                        });
                        self.stats.ingested += 1;
                    }
                }
            }
            self.g_idx = len;
            let next = seg.next.load(Ordering::Acquire);
            if next.is_null() {
                return;
            }
            self.g_seg = next;
            self.g_idx = 0;
        }
    }

    /// Copies references from `victim`'s local list into our queue without
    /// removing anything (§4.2.2 spying). Returns the number of references
    /// gathered.
    fn spy_on(&mut self, victim: usize) -> u64 {
        let mut segp = self.shared.places[victim]
            .local_head
            .load(Ordering::Acquire);
        let mut got = 0u64;
        let mut segments = 0;
        while !segp.is_null() && segments < 64 {
            // SAFETY: segments are freed only at structure drop.
            let seg = unsafe { &*segp };
            if seg.owner as usize != victim {
                // The chain was published and other places' chains were
                // appended after it; stop at the ownership boundary.
                break;
            }
            let len = seg.len.load(Ordering::Acquire);
            for idx in 0..len {
                let ptr = seg.slots[idx].load(Ordering::Acquire);
                debug_assert!(!ptr.is_null());
                // SAFETY: pool-owned item.
                let item = unsafe { &*ptr };
                let tag = seg.base_tag + idx as u64 * self.nplaces();
                if item.place.load(Ordering::Relaxed) != self.place && item.is_live_at(tag) {
                    self.pq.push(ItemRef {
                        prio: item.prio.load(Ordering::Relaxed),
                        tag,
                        ptr,
                    });
                    got += 1;
                }
            }
            segments += 1;
            segp = seg.next.load(Ordering::Acquire);
        }
        got
    }

    /// Creates, tags and appends one task to the local list, charging the
    /// publication budget and publishing when it is exhausted (Listing 3
    /// minus the local-queue insertion, which the caller does).
    fn insert_local(&mut self, prio: u64, k: u64, task: T) -> ItemRef<T> {
        let ptr = self.cache.acquire(&self.shared.pool);
        // SAFETY: freshly acquired item, ours until published below.
        let item = unsafe { &*ptr };
        unsafe { item.init(self.place, k as u32, prio, task) };
        let tag = self.next_local_idx * self.nplaces() + self.place as u64;
        self.next_local_idx += 1;
        // Release store publishes the payload to any thread that later
        // observes this tag (spies and global readers revalidate via CAS).
        item.tag.store(tag, Ordering::Release);
        self.remaining_k = self.remaining_k.saturating_sub(1).min(k);
        // The budget only ever falls by at least one per push, so after
        // this item the chain takes at most `remaining_k` more before it
        // is published: an exact bound on what a new segment can hold.
        let room = (self.remaining_k + 1).min(HSEGMENT_LEN as u64) as usize;
        self.append_local(ptr, tag, room);
        if self.remaining_k == 0 {
            self.publish();
            self.remaining_k = u64::MAX;
        }
        self.stats.pushes += 1;
        ItemRef { prio, tag, ptr }
    }

    /// Victim selection: last successful victim first, chasing each empty
    /// victim's own `last_victim` (§4.2.3), falling back to random places,
    /// and after `max(2·P, 4)` attempts to every victim not yet walked, in
    /// order. Single-threaded, it fails only when no victim holds a live
    /// unpublished task.
    ///
    /// A victim whose chain turned up nothing is not walked again in the
    /// same call (at P = 2 every attempt names the one other place); the
    /// attempt still counts and the chase goes on as if the walk had come
    /// back empty, so the `rng` draws do not depend on the skip.
    fn spy(&mut self) -> bool {
        let p = self.shared.nplaces;
        if p == 1 {
            return false;
        }
        let me = self.place as usize;
        let mut candidate = self.last_victim;
        let attempts = (2 * p).max(4);
        self.walked.fill(false);
        for _ in 0..attempts {
            if candidate >= p || candidate == me {
                candidate = self.rng.below(p as u64) as usize;
                if candidate == me {
                    continue;
                }
            }
            if !std::mem::replace(&mut self.walked[candidate], true) && self.spy_on(candidate) > 0 {
                return self.spied(candidate);
            }
            candidate = self.shared.places[candidate]
                .last_victim
                .load(Ordering::Relaxed);
        }
        // The chase can circle among victims already walked without ever
        // drawing again, the same circle on every call: walk the rest before
        // failing, or a victim's unpublished tasks stay out of reach.
        let rest = (0..p).find(|&v| v != me && !self.walked[v] && self.spy_on(v) > 0);
        rest.is_some_and(|victim| self.spied(victim))
    }

    /// Records a spy on `victim` that found work.
    fn spied(&mut self, victim: usize) -> bool {
        self.last_victim = victim;
        self.shared.places[self.place as usize]
            .last_victim
            .store(victim, Ordering::Relaxed);
        self.stats.spies += 1;
        true
    }
}

impl<T: Send + 'static> PoolHandle<T> for HybridHandle<T> {
    /// Listing 3. `k` bounds how many tasks may be added to the local list
    /// before this task must be made globally visible; `k = 0` publishes
    /// immediately.
    fn push(&mut self, prio: u64, k: usize, task: T) {
        let k = (k as u64).min(u32::MAX as u64);
        let r = self.insert_local(prio, k, task);
        self.pq.push(r);
    }

    /// Listing 4.
    fn pop_entry(&mut self) -> Option<(u64, T)> {
        loop {
            self.process_global_list();
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
                self.stats.stale_refs += 1;
                self.process_global_list();
            }
            // Queue empty after reading the whole global list: spy.
            if !self.spy() {
                self.stats.failed_pops += 1;
                return None;
            }
        }
    }

    /// Batch push (Listing 3 amortized): one item-pool refill for the
    /// batch, the publication budget charged element-wise so the batch
    /// publishes at exactly the points the equivalent scalar pushes would
    /// (preserving ρ = P·k — at most `k` tasks of this place ever sit
    /// unpublished, batch or no batch).
    fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) {
        if batch.is_empty() {
            return;
        }
        let n = batch.len();
        let k = (k as u64).min(u32::MAX as u64);
        // One shared-free-list refill round for the whole batch.
        self.cache.prefetch(&self.shared.pool, n);
        for (prio, task) in batch.drain(..) {
            let r = self.insert_local(prio, k, task);
            self.pq.push(r);
        }
    }

    fn stats(&self) -> PlaceStats {
        self.stats
    }
}

impl<T: Send + 'static> Drop for HybridHandle<T> {
    /// Publishes the still-private tasks, so every other place reaches
    /// them through the global list; the place stays taken.
    fn drop(&mut self) {
        self.publish();
        // Return stashed free items to the shared pool.
        self.cache.drain_to(&self.shared.pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(nplaces: usize) -> Arc<HybridKPriority<u64>> {
        Arc::new(HybridKPriority::new(nplaces))
    }

    #[test]
    fn publish_triggers_after_k_pushes() {
        let p = pool(2);
        let mut h = p.handle(0);
        for i in 0..3u64 {
            h.push(i, 2, i);
        }
        // k = 2: after the 3rd push the budget of the 1st (set to 2) hits 0.
        assert_eq!(h.stats().publishes, 1);
        assert!(p.global_segments() >= 1);
    }

    #[test]
    fn k_zero_publishes_immediately() {
        let p = pool(2);
        let mut h = p.handle(0);
        h.push(1, 0, 10);
        assert_eq!(h.stats().publishes, 1);
        h.push(2, 0, 20);
        assert_eq!(h.stats().publishes, 2);
    }

    #[test]
    fn mixed_k_uses_strictest_budget() {
        let p = pool(2);
        let mut h = p.handle(0);
        h.push(1, 100, 1); // budget 100
        h.push(2, 3, 2); // budget min(99, 3) = 3
        h.push(3, 100, 3); // 2
        h.push(4, 100, 4); // 1
        assert_eq!(h.stats().publishes, 0);
        h.push(5, 100, 5); // 0 → publish
        assert_eq!(h.stats().publishes, 1);
    }

    #[test]
    fn other_place_reads_published_tasks_in_order() {
        let p = pool(2);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        for &x in &[4u64, 1, 3, 2] {
            h0.push(x, 0, x); // publish every push
        }
        let mut out = Vec::new();
        while let Some(t) = h1.pop() {
            out.push(t);
        }
        assert_eq!(out, vec![1, 2, 3, 4], "global list gives full order");
    }

    #[test]
    fn spying_reads_unpublished_tasks_without_removing() {
        let p = pool(2);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        // Large k: nothing is ever published.
        for &x in &[7u64, 5, 6] {
            h0.push(x, 1_000_000, x);
        }
        assert_eq!(h0.stats().publishes, 0);
        // Place 1 can still pop everything, via spying.
        let mut got = Vec::new();
        while let Some(t) = h1.pop() {
            got.push(t);
        }
        assert_eq!(got, vec![5, 6, 7]);
        assert!(h1.stats().spies >= 1);
        // The owner's list still physically holds the (taken) items; its own
        // pops must now find nothing.
        assert_eq!(h0.pop(), None);
    }

    #[test]
    fn owner_and_spy_each_get_task_exactly_once() {
        let p = pool(2);
        let mut h0 = p.handle(0);
        let mut h1 = p.handle(1);
        for i in 0..100u64 {
            h0.push(i, 1_000_000, i);
        }
        let mut got = Vec::new();
        loop {
            let a = h0.pop();
            let b = h1.pop();
            if let Some(x) = a {
                got.push(x);
            }
            if let Some(x) = b {
                got.push(x);
            }
            if a.is_none() && b.is_none() {
                break;
            }
        }
        got.sort();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chain_spans_multiple_segments() {
        let p = pool(2);
        let mut h = p.handle(0);
        let n = (HSEGMENT_LEN * 2 + 10) as u64;
        for i in 0..n {
            h.push(i, usize::MAX, i);
        }
        // Publish by dropping the handle; another place must recover all.
        drop(h);
        let mut h1 = p.handle(1);
        let mut count = 0u64;
        while h1.pop().is_some() {
            count += 1;
        }
        assert_eq!(count, n);
    }

    /// Segments are sized by the publication budget: at k = 8 a chain is
    /// published after 9 pushes, and its one segment must not carry a
    /// full-size slot array to the end of the pool's life.
    #[test]
    fn small_k_chains_get_small_segments() {
        let p = pool(2);
        let mut h = p.handle(0);
        let pushes = 900u64;
        for i in 0..pushes {
            h.push(i, 8, i);
        }
        drop(h); // publishes the partial last chain
        let mut capacity = 0usize;
        let mut seg = p.global_head.load(Ordering::Acquire);
        while !seg.is_null() {
            // SAFETY: global segments live until the structure drops.
            let s = unsafe { &*seg };
            capacity += s.slots.len();
            seg = s.next.load(Ordering::Acquire);
        }
        assert!(capacity >= pushes as usize, "every task has a slot");
        assert!(
            capacity <= 2 * pushes as usize,
            "{capacity} slots in the global list for {pushes} tasks"
        );
        let mut h1 = p.handle(1);
        let mut got = Vec::new();
        while let Some(t) = h1.pop() {
            got.push(t);
        }
        assert_eq!(got, (0..pushes).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_handle_publishes_remaining_tasks() {
        let p = pool(2);
        {
            let mut h = p.handle(0);
            h.push(1, 1_000_000, 11);
            h.push(2, 1_000_000, 22);
        }
        assert!(p.global_segments() >= 1, "drop must publish");
        let mut h1 = p.handle(1);
        assert_eq!(h1.pop(), Some(11));
        assert_eq!(h1.pop(), Some(22));
        assert_eq!(h1.pop(), None);
    }

    #[test]
    #[should_panic(expected = "handle was already taken")]
    fn duplicate_handle_panics() {
        let p = pool(2);
        drop(p.handle(1));
        let _b = p.handle(1);
    }

    /// Sequential ρ-relaxation oracle for the hybrid structure: a pop may
    /// only ignore live tasks that are among their pusher's k most recent
    /// pushes (ρ = P·k over all places).
    #[test]
    fn relaxation_bound_oracle_sequential() {
        let k = 4usize;
        let p = pool(2);
        let mut pusher = p.handle(0);
        let mut popper = p.handle(1);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (prio, push_seq)
        let mut seq = 0u64;
        let mut rng = XorShift64::new(5);
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
                            seq - s <= k as u64 + 1,
                            "ignored task with prio {pr} pushed {} pushes ago (k = {k})",
                            seq - s
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;
    use crate::pool::{PoolHandle, TaskPool};
    use std::sync::Arc;

    #[test]
    fn publish_exactly_at_segment_boundary() {
        // k = HSEGMENT_LEN: the publish fires exactly when the local
        // segment is full, exercising the chain-of-one-full-segment path.
        let p = Arc::new(HybridKPriority::new(2));
        let mut h = p.handle(0);
        for i in 0..(HSEGMENT_LEN as u64 + 1) {
            h.push(i, HSEGMENT_LEN, i);
        }
        assert!(h.stats().publishes >= 1);
        drop(h);
        let mut h1 = p.handle(1);
        let mut n = 0;
        while h1.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, HSEGMENT_LEN as u64 + 1);
    }

    #[test]
    fn spy_sees_partially_filled_segment() {
        let p = Arc::new(HybridKPriority::new(2));
        let mut h0 = p.handle(0);
        // 3 items: far below a segment; never published (huge k).
        h0.push(3, usize::MAX, 30);
        h0.push(1, usize::MAX, 10);
        h0.push(2, usize::MAX, 20);
        let mut h1 = p.handle(1);
        assert_eq!(h1.pop(), Some(10), "spy reads the live prefix in order");
        assert_eq!(h1.pop(), Some(20));
        // The owner appends a better task. The spy's queue still holds a
        // live reference (task 30), so the next pop legally ignores the
        // newest task (§2.2 — it is within the last k added) …
        h0.push(0, usize::MAX, 5);
        assert_eq!(h1.pop(), Some(30));
        // … and the re-spy after the queue drains picks it up.
        assert_eq!(h1.pop(), Some(5));
        assert_eq!(h1.pop(), None);
    }

    #[test]
    fn chained_victim_lookup_finds_work() {
        // Place 2 spies place 1 (empty), which chased place 0 earlier.
        let p = Arc::new(HybridKPriority::new(3));
        let mut h0 = p.handle(0);
        for i in 0..10u64 {
            h0.push(i, usize::MAX, i);
        }
        let mut h1 = p.handle(1);
        assert!(h1.pop().is_some(), "place 1 spies place 0");
        let mut h2 = p.handle(2);
        // Whatever victim order place 2 tries, it must find the tasks.
        let mut got = 0;
        while h2.pop().is_some() {
            got += 1;
        }
        assert!(got > 0, "place 2 found work via random or chained victim");
    }
}
