//! Tagged task items and their recycling pool.
//!
//! Both k-priority structures store every task inside an *item* carrying the
//! task payload plus scheduling metadata (`place`, `k`, priority) and a
//! **tag** (§4.1.1, §4.1.3). The tag is initialized to the item's position
//! in the owning structure — positions are strictly increasing — and a task
//! is *taken* by atomically CASing the tag from the expected position to a
//! sentinel. Because a recycled item is always re-tagged with a fresh, never
//! previously used position, a stale reference's CAS can never succeed: this
//! is the paper's ABA protection, reproduced here unchanged.
//!
//! # Memory management substitution
//!
//! The paper allocates items through a wait-free memory manager \[18\] and
//! reuses an item "as soon as the previous task has been executed". We keep
//! the reuse scheme but back it with an [`ItemPool`]: a grow-only directory
//! of item blocks plus an intrusive lock-free free list (a Treiber stack
//! over 32-bit item indices with a version-counted head, so pops are
//! ABA-safe without double-wide CAS). Item memory is released only when the
//! pool is dropped, which makes it sound for stale references to *read the
//! tag* of a recycled item — the dereference is always into live memory,
//! and the tag comparison detects the recycling.
//!
//! # Batched allocation
//!
//! The free list is intrusive, so a whole chain of items can be popped or
//! pushed with **one CAS** ([`ItemPool::acquire_batch`],
//! [`ItemPool::release_batch`]). On top of that, [`ItemCache`] gives each
//! place a private stash refilled/flushed in batches: the hot path of a
//! `push_batch` (and of the pops that recycle its items) touches the
//! shared free-list head once per [`ItemCache::REFILL`] items instead of
//! once per item.
//!
//! # Payload handoff
//!
//! One deliberate deviation from Listing 2: the paper reads the task out of
//! the item *before* the take-CAS because their items may be recycled
//! immediately after the CAS. For arbitrary `T` that read would be a data
//! race. Here the unique CAS winner reads the payload *after* winning and
//! only then releases the item for reuse ([`Item::try_take`] +
//! [`ItemPool::release`]), so the handoff is race-free without changing the
//! algorithm's structure.

use crate::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;
use priosched_pq::RadixKey;
use std::mem::MaybeUninit;
use std::ptr;

/// Tag of an item sitting in the free list (or never used). No payload.
pub const TAG_FREE: u64 = u64::MAX;
/// Tag of an item whose task has been taken. No payload.
pub const TAG_TAKEN: u64 = u64::MAX - 1;
/// Exclusive upper bound for position tags.
pub const MAX_POSITION: u64 = u64::MAX - 2;

/// Items per allocation block. Tiny under the model: every atomic field
/// of every item registers with the execution, and the drop walk visits
/// all of them.
const BLOCK_LEN: usize = if cfg!(loom) { 8 } else { 1024 };
/// Maximum number of blocks (fixed-size directory; ≈ 67M items per pool).
const MAX_BLOCKS: usize = if cfg!(loom) { 4 } else { 65_536 };
/// "No item" marker in the intrusive free list.
const NIL: u32 = u32::MAX;

/// A task wrapper with take-once semantics.
///
/// Field access rules (enforced by the structures, not the type system):
/// * `payload` is written exactly once per lifecycle, by the thread that
///   acquired the item from the pool, *before* the item is published;
/// * `payload` is read exactly once, by the unique winner of the take-CAS;
/// * all other fields are atomics and may be read by any thread at any time
///   (reads of recycled items yield stale metadata, which callers tolerate —
///   any decision based on it is revalidated by the tag CAS).
pub struct Item<T> {
    /// Position tag, [`TAG_TAKEN`], or [`TAG_FREE`].
    pub tag: AtomicU64,
    /// Priority key (smaller = higher priority).
    pub prio: AtomicU64,
    /// Id of the place that created the current task.
    pub place: AtomicU32,
    /// Per-task relaxation parameter `k`.
    pub k: AtomicU32,
    /// This item's index in the pool directory (immutable after creation).
    index: u32,
    /// Intrusive free-list link: index of the next free item, or [`NIL`].
    /// Only meaningful while the item sits in the free list.
    next_free: AtomicU32,
    payload: UnsafeCell<MaybeUninit<T>>,
}

impl<T> Item<T> {
    fn empty(index: u32) -> Self {
        Item {
            tag: AtomicU64::new(TAG_FREE),
            prio: AtomicU64::new(0),
            place: AtomicU32::new(0),
            k: AtomicU32::new(0),
            index,
            next_free: AtomicU32::new(NIL),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Initializes a freshly acquired item with a new task.
    ///
    /// Does **not** set the tag: the caller stores the position tag with
    /// `Release` ordering as the final step before (or together with)
    /// publication, which is what makes the payload visible to the taker.
    ///
    /// # Safety
    /// The caller must have exclusive ownership of the item (freshly
    /// returned by [`ItemPool::acquire`], not yet published).
    pub unsafe fn init(&self, place: u32, k: u32, prio: u64, task: T) {
        debug_assert_eq!(self.tag.load(Ordering::Relaxed), TAG_FREE);
        // SAFETY: exclusive ownership per this function's contract.
        self.payload.with_mut(|p| unsafe {
            (*p).write(task);
        });
        self.prio.store(prio, Ordering::Relaxed);
        self.place.store(place, Ordering::Relaxed);
        self.k.store(k, Ordering::Relaxed);
    }

    /// Attempts to take the task by CASing the tag from `expected_tag` to
    /// [`TAG_TAKEN`]. On success the unique winner receives the payload.
    ///
    /// Fails (returns `None`) when the item was already taken, or recycled
    /// under a different position — the ABA case the tag exists to detect.
    pub fn try_take(&self, expected_tag: u64) -> Option<T> {
        debug_assert!(expected_tag < MAX_POSITION);
        if self
            .tag
            .compare_exchange(expected_tag, TAG_TAKEN, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the CAS succeeded, so we are the unique winner for
            // this lifecycle; the publisher's Release store of the tag
            // happens-before our Acquire, making the payload write visible.
            // The item cannot be recycled until we put it back in the pool.
            Some(self.payload.with(|p| unsafe { (*p).assume_init_read() }))
        } else {
            None
        }
    }

    /// `true` when the item currently carries the given position tag
    /// (cheap pre-check to skip CAS attempts on dead references).
    #[inline]
    pub fn is_live_at(&self, expected_tag: u64) -> bool {
        self.tag.load(Ordering::Acquire) == expected_tag
    }
}

/// A block of items; owned by the pool directory.
struct Block<T> {
    items: Box<[Item<T>]>,
}

/// Grow-only, recycle-forever item pool.
///
/// * `acquire`/`acquire_batch` pop the intrusive free list (one CAS per
///   call, regardless of batch size), allocating a new block only when the
///   list is empty;
/// * `release`/`release_batch` re-tag items [`TAG_FREE`] and push them back
///   (again one CAS per call);
/// * memory is reclaimed only on drop, at which point payloads of still-live
///   items (pushed but never taken) are dropped in place.
pub struct ItemPool<T> {
    /// Free-list head: `(version << 32) | index`. The version counts
    /// successful CASes, which makes multi-node pops ABA-safe: any
    /// interleaved pop/push bumps the version and fails our CAS.
    free_head: AtomicU64,
    /// Directory of blocks; entry `b` owns indices `[b·1024, (b+1)·1024)`.
    blocks: Box<[AtomicPtr<Block<T>>]>,
    /// Next directory slot to claim (fetch_add gives growers unique slots).
    next_block: AtomicUsize,
    allocated: AtomicU64,
}

#[inline]
fn pack(version: u64, index: u32) -> u64 {
    (version << 32) | index as u64
}

#[inline]
fn unpack(head: u64) -> (u64, u32) {
    (head >> 32, head as u32)
}

impl<T: Send> ItemPool<T> {
    /// Creates an empty pool; the first block is allocated lazily.
    pub fn new() -> Self {
        ItemPool {
            free_head: AtomicU64::new(pack(0, NIL)),
            blocks: (0..MAX_BLOCKS)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            next_block: AtomicUsize::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// Resolves an item index to its (pool-owned, immortal) item.
    #[inline]
    fn item_at(&self, idx: u32) -> *const Item<T> {
        let block = self.blocks[idx as usize / BLOCK_LEN].load(Ordering::Acquire);
        debug_assert!(!block.is_null(), "index into unallocated block");
        // SAFETY: an index only circulates after its block was published
        // with Release; blocks live until pool drop.
        unsafe { &(*block).items[idx as usize % BLOCK_LEN] as *const Item<T> }
    }

    /// Fetches a free item. The returned item has tag [`TAG_FREE`] and no
    /// payload; the caller must [`Item::init`] it and set its tag before
    /// publication.
    pub fn acquire(&self) -> *const Item<T> {
        let mut out = [ptr::null::<Item<T>>(); 1];
        let got = self.acquire_into(&mut out);
        debug_assert_eq!(got, 1);
        out[0]
    }

    /// Fetches up to `max` free items with a single free-list CAS,
    /// appending them to `out`. Always returns at least one item (growing
    /// the pool if the free list is empty); returns the number appended.
    pub fn acquire_batch(&self, out: &mut Vec<*const Item<T>>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        // Fill in place: grow `out` with placeholders, let `acquire_into`
        // write into the new tail, then trim — no temporary allocation on
        // this hot path.
        let old_len = out.len();
        out.resize(old_len + max, ptr::null());
        let got = self.acquire_into(&mut out[old_len..]);
        out.truncate(old_len + got);
        got
    }

    /// Pops up to `buf.len()` items from the free list with one CAS (or
    /// allocates a fresh block); fills `buf` from the front and returns the
    /// count (≥ 1).
    fn acquire_into(&self, buf: &mut [*const Item<T>]) -> usize {
        debug_assert!(!buf.is_empty());
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            let (version, first) = unpack(head);
            if first == NIL {
                return self.grow_into(buf);
            }
            // Walk up to buf.len() nodes. Reads of `next_free` may race
            // with concurrent recycling; the version check below rejects
            // any walk that observed a mutated chain.
            let mut n = 0;
            let mut idx = first;
            while n < buf.len() && idx != NIL {
                let item = self.item_at(idx);
                buf[n] = item;
                n += 1;
                // SAFETY: immortal pool memory.
                idx = unsafe { &*item }.next_free.load(Ordering::Acquire);
            }
            if self
                .free_head
                .compare_exchange(
                    head,
                    pack(version.wrapping_add(1), idx),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                #[cfg(debug_assertions)]
                for &p in &buf[..n] {
                    // SAFETY: immortal pool memory; we just won the CAS, so
                    // these nodes are exclusively ours.
                    debug_assert_eq!(
                        unsafe { &*p }.tag.load(Ordering::Relaxed),
                        TAG_FREE,
                        "free-list item must be tagged FREE"
                    );
                }
                return n;
            }
        }
    }

    /// Allocates a new block into a freshly claimed directory slot, fills
    /// `buf` from it and pushes the remainder onto the free list.
    fn grow_into(&self, buf: &mut [*const Item<T>]) -> usize {
        let slot = self.next_block.fetch_add(1, Ordering::Relaxed);
        assert!(slot < MAX_BLOCKS, "item pool exhausted its directory");
        let base = (slot * BLOCK_LEN) as u32;
        let items: Box<[Item<T>]> = (0..BLOCK_LEN)
            .map(|i| Item::empty(base + i as u32))
            .collect();
        let block = Box::into_raw(Box::new(Block { items }));
        // Publish the block before any of its indices can reach another
        // thread through the free list.
        self.blocks[slot].store(block, Ordering::Release);
        self.allocated
            .fetch_add(BLOCK_LEN as u64, Ordering::Relaxed);
        // SAFETY: just published; we still own every item in it.
        let items = unsafe { &(*block).items };
        let take = buf.len().min(BLOCK_LEN);
        for (i, slot_out) in buf.iter_mut().take(take).enumerate() {
            *slot_out = &items[i] as *const Item<T>;
        }
        if take < BLOCK_LEN {
            // Chain the leftovers locally, then one CAS to donate them.
            for i in take..BLOCK_LEN - 1 {
                items[i]
                    .next_free
                    .store(base + i as u32 + 1, Ordering::Relaxed);
            }
            self.push_chain(base + take as u32, base + BLOCK_LEN as u32 - 1);
        }
        take
    }

    /// Pushes the pre-linked chain `first → … → last` with one CAS.
    fn push_chain(&self, first: u32, last: u32) {
        let last_item = self.item_at(last);
        loop {
            let head = self.free_head.load(Ordering::Acquire);
            let (version, top) = unpack(head);
            // SAFETY: immortal pool memory.
            unsafe { &*last_item }
                .next_free
                .store(top, Ordering::Relaxed);
            if self
                .free_head
                .compare_exchange(
                    head,
                    pack(version.wrapping_add(1), first),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return;
            }
        }
    }

    /// Returns a taken item for reuse.
    ///
    /// # Safety
    /// `item` must have been acquired from this pool, its tag must be
    /// [`TAG_TAKEN`] (payload already moved out by [`Item::try_take`]), and
    /// the caller must not touch it afterwards.
    pub unsafe fn release(&self, item: *const Item<T>) {
        // SAFETY: forwarded contract.
        unsafe { self.release_batch(&[item]) };
    }

    /// Returns a batch of taken items for reuse with a single CAS.
    ///
    /// # Safety
    /// Every pointer must satisfy the contract of [`ItemPool::release`].
    pub unsafe fn release_batch(&self, items: &[*const Item<T>]) {
        for &p in items {
            // SAFETY: caller owns the items exclusively; pool memory is
            // immortal until drop.
            let it = unsafe { &*p };
            debug_assert_eq!(it.tag.load(Ordering::Relaxed), TAG_TAKEN);
            // Items in the free list must look FREE so stale `is_live_at`
            // checks fail.
            it.tag.store(TAG_FREE, Ordering::Release);
        }
        self.donate_chain(items);
    }

    /// Links already-FREE, exclusively owned `items` front-to-back through
    /// their intrusive indices and pushes the whole chain with one CAS.
    fn donate_chain(&self, items: &[*const Item<T>]) {
        let (Some(&first), Some(&last)) = (items.first(), items.last()) else {
            return;
        };
        // SAFETY (all derefs below): caller owns the items exclusively;
        // pool memory is immortal until drop.
        for w in items.windows(2) {
            unsafe {
                (*w[0]).next_free.store((*w[1]).index, Ordering::Relaxed);
            }
        }
        let (first, last) = unsafe { ((*first).index, (*last).index) };
        self.push_chain(first, last);
    }

    /// Total items ever allocated (live + free).
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }
}

impl<T: Send> Default for ItemPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for ItemPool<T> {
    fn drop(&mut self) {
        for slot in self.blocks.iter() {
            // Relaxed load instead of `get_mut`: `&mut self` already
            // proves exclusivity (and the model's atomics have no
            // `get_mut` — a drop decision never branches anyway).
            let block = slot.load(Ordering::Relaxed);
            if block.is_null() {
                continue;
            }
            // SAFETY: the pool owns its blocks; drop has exclusive access.
            let boxed = unsafe { Box::from_raw(block) };
            for item in boxed.items.iter() {
                // Items that were pushed but never taken still own a task.
                if item.tag.load(Ordering::Relaxed) < MAX_POSITION {
                    // SAFETY: live tag ⇒ payload initialized and not moved
                    // out; we have exclusive access in drop.
                    item.payload
                        .with_mut(|p| unsafe { (*p).assume_init_drop() });
                }
            }
        }
    }
}

// SAFETY: all cross-thread access to `payload` follows the write-once /
// take-once protocol documented on `Item`; every other field is atomic.
unsafe impl<T: Send> Send for ItemPool<T> {}
unsafe impl<T: Send> Sync for ItemPool<T> {}

/// A place-local stash of free items, refilled from and flushed to the
/// shared pool in batches.
///
/// Each place handle owns one cache. A scalar `acquire` costs a `Vec::pop`
/// in the common case and touches the shared free-list head only once per
/// [`ItemCache::REFILL`] acquisitions; releases are symmetric. This is the
/// allocation half of the batch API: a `push_batch` of n tasks performs
/// ⌈n / REFILL⌉ free-list CASes instead of n.
pub struct ItemCache<T> {
    stash: Vec<*const Item<T>>,
}

// SAFETY: the cache holds exclusively owned FREE items of a pool the
// owning handle keeps alive; the pointers guard `T: Send` payload slots.
unsafe impl<T: Send> Send for ItemCache<T> {}

impl<T: Send> ItemCache<T> {
    /// Items fetched from / returned to the pool per refill or flush.
    pub const REFILL: usize = 64;

    /// Creates an empty cache.
    pub fn new() -> Self {
        ItemCache {
            stash: Vec::with_capacity(2 * Self::REFILL),
        }
    }

    /// Fetches one free item, refilling from `pool` when empty.
    #[inline]
    pub fn acquire(&mut self, pool: &ItemPool<T>) -> *const Item<T> {
        match self.stash.pop() {
            Some(p) => p,
            None => {
                pool.acquire_batch(&mut self.stash, Self::REFILL);
                self.stash.pop().expect("acquire_batch returns ≥ 1 item")
            }
        }
    }

    /// Ensures at least `n` items are stashed (one pool CAS per refill
    /// round), so a following batch of `n` scalar [`ItemCache::acquire`]
    /// calls cannot touch the shared pool.
    pub fn prefetch(&mut self, pool: &ItemPool<T>, n: usize) {
        while self.stash.len() < n {
            let want = (n - self.stash.len()).max(Self::REFILL);
            pool.acquire_batch(&mut self.stash, want);
        }
    }

    /// Returns a taken item, flushing a batch to `pool` when the stash is
    /// over capacity.
    ///
    /// # Safety
    /// Same contract as [`ItemPool::release`].
    #[inline]
    pub unsafe fn release(&mut self, pool: &ItemPool<T>, item: *const Item<T>) {
        // Cached items must look FREE so stale `is_live_at` checks fail.
        // SAFETY: caller owns the item exclusively (release contract).
        let it = unsafe { &*item };
        debug_assert_eq!(it.tag.load(Ordering::Relaxed), TAG_TAKEN);
        it.tag.store(TAG_FREE, Ordering::Release);
        self.stash.push(item);
        if self.stash.len() >= 2 * Self::REFILL {
            self.flush_half(pool);
        }
    }

    /// Flushes the older (front) half of the stash back to the pool with
    /// one CAS, keeping the most recently released — cache-hot — items
    /// local for the next acquires.
    fn flush_half(&mut self, pool: &ItemPool<T>) {
        let spill_count = self.stash.len() / 2;
        // Items are already tagged FREE; the pointers are Copy, so the
        // drain just shifts the kept half forward.
        pool.donate_chain(&self.stash[..spill_count]);
        self.stash.drain(..spill_count);
    }

    /// Returns every stashed item to the pool (handle shutdown).
    pub fn drain_to(&mut self, pool: &ItemPool<T>) {
        pool.donate_chain(&self.stash);
        self.stash.clear();
    }

    /// Number of stashed items (diagnostics).
    pub fn len(&self) -> usize {
        self.stash.len()
    }

    /// `true` when nothing is stashed.
    pub fn is_empty(&self) -> bool {
        self.stash.is_empty()
    }
}

impl<T: Send> Default for ItemCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A reference to an item held in a place-local priority queue.
///
/// Mirrors the paper's `ItemRef`: the priority (copied out at creation so
/// ordering needs no dereference), the expected position tag, and the item
/// pointer. Ordered by `(prio, tag)` — the tag tiebreak makes local pop
/// order deterministic.
pub struct ItemRef<T> {
    /// Priority key copied from the item at reference creation.
    pub prio: u64,
    /// Position tag the item carried when the reference was created.
    pub tag: u64,
    /// The referenced item (pool-owned; always safe to dereference).
    pub ptr: *const Item<T>,
}

impl<T> Clone for ItemRef<T> {
    fn clone(&self) -> Self {
        ItemRef {
            prio: self.prio,
            tag: self.tag,
            ptr: self.ptr,
        }
    }
}

impl<T> PartialEq for ItemRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.tag == other.tag
    }
}
impl<T> Eq for ItemRef<T> {}
impl<T> PartialOrd for ItemRef<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ItemRef<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.tag).cmp(&(other.prio, other.tag))
    }
}

/// The priority: references with a smaller one compare smaller, whatever
/// their tags.
impl<T> RadixKey for ItemRef<T> {
    fn radix_key(&self) -> u64 {
        self.prio
    }
}

// SAFETY: an ItemRef is only dereferenced by its owning place handle, and
// only into pool memory that outlives the handle (the handle holds an Arc of
// the structure that owns the pool).
unsafe impl<T: Send> Send for ItemRef<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn acquire_init_take_round_trip() {
        let pool: ItemPool<String> = ItemPool::new();
        let p = pool.acquire();
        let item = unsafe { &*p };
        unsafe { item.init(3, 8, 42, "hello".to_string()) };
        item.tag.store(17, Ordering::Release);
        assert!(item.is_live_at(17));
        assert!(!item.is_live_at(16));
        assert_eq!(item.prio.load(Ordering::Relaxed), 42);
        assert_eq!(item.place.load(Ordering::Relaxed), 3);
        assert_eq!(item.k.load(Ordering::Relaxed), 8);
        assert_eq!(item.try_take(17), Some("hello".to_string()));
        unsafe { pool.release(p) };
    }

    #[test]
    fn second_take_fails() {
        let pool: ItemPool<u32> = ItemPool::new();
        let p = pool.acquire();
        let item = unsafe { &*p };
        unsafe { item.init(0, 1, 5, 99) };
        item.tag.store(7, Ordering::Release);
        assert_eq!(item.try_take(7), Some(99));
        assert_eq!(item.try_take(7), None);
        unsafe { pool.release(p) };
    }

    #[test]
    fn wrong_tag_fails_and_leaves_item_live() {
        let pool: ItemPool<u32> = ItemPool::new();
        let p = pool.acquire();
        let item = unsafe { &*p };
        unsafe { item.init(0, 1, 5, 7) };
        item.tag.store(100, Ordering::Release);
        assert_eq!(item.try_take(99), None);
        assert!(item.is_live_at(100));
        assert_eq!(item.try_take(100), Some(7));
        unsafe { pool.release(p) };
    }

    #[test]
    fn recycled_item_rejects_stale_tag() {
        let pool: ItemPool<u32> = ItemPool::new();
        let p = pool.acquire();
        let item = unsafe { &*p };
        unsafe { item.init(0, 1, 5, 1) };
        item.tag.store(10, Ordering::Release);
        assert_eq!(item.try_take(10), Some(1));
        unsafe { pool.release(p) };
        // Recycle the same physical item under a new position. The free
        // list is LIFO, so the released item comes straight back.
        let q = pool.acquire();
        assert_eq!(q, p, "LIFO free list returns the last release");
        let item = unsafe { &*q };
        unsafe { item.init(1, 1, 6, 2) };
        item.tag.store(11, Ordering::Release);
        // A stale reference still holding tag 10 must fail:
        assert_eq!(item.try_take(10), None);
        assert_eq!(item.try_take(11), Some(2));
        unsafe { pool.release(q) };
    }

    #[test]
    fn pool_grows_beyond_one_block() {
        let pool: ItemPool<u64> = ItemPool::new();
        let mut ptrs = Vec::new();
        for i in 0..(BLOCK_LEN * 2 + 10) {
            let p = pool.acquire();
            let item = unsafe { &*p };
            unsafe { item.init(0, 1, i as u64, i as u64) };
            item.tag.store(i as u64, Ordering::Release);
            ptrs.push(p);
        }
        assert!(pool.allocated() >= (BLOCK_LEN * 2) as u64);
        // Take everything back so drop has no live payloads to reclaim.
        for (i, p) in ptrs.iter().enumerate() {
            let item = unsafe { &**p };
            assert_eq!(item.try_take(i as u64), Some(i as u64));
            unsafe { pool.release(*p) };
        }
    }

    #[test]
    fn acquire_batch_returns_distinct_free_items() {
        let pool: ItemPool<u64> = ItemPool::new();
        let mut batch = Vec::new();
        let got = pool.acquire_batch(&mut batch, 100);
        assert!((1..=100).contains(&got));
        assert_eq!(batch.len(), got);
        let mut seen = std::collections::HashSet::new();
        for &p in &batch {
            assert!(seen.insert(p as usize), "duplicate item in batch");
            assert_eq!(unsafe { &*p }.tag.load(Ordering::Relaxed), TAG_FREE);
        }
        // Round-trip through a batched release.
        for (i, &p) in batch.iter().enumerate() {
            let item = unsafe { &*p };
            unsafe { item.init(0, 1, i as u64, i as u64) };
            item.tag.store(i as u64, Ordering::Release);
            assert_eq!(item.try_take(i as u64), Some(i as u64));
        }
        unsafe { pool.release_batch(&batch) };
        // Everything is reacquirable.
        let mut batch2 = Vec::new();
        let mut total = 0;
        while total < got {
            total += pool.acquire_batch(&mut batch2, got - total);
        }
        assert_eq!(total, got);
    }

    #[test]
    fn item_cache_refills_and_drains() {
        let pool: ItemPool<u64> = ItemPool::new();
        let mut cache = ItemCache::new();
        let p = cache.acquire(&pool);
        assert!(cache.len() >= ItemCache::<u64>::REFILL - 1);
        let item = unsafe { &*p };
        unsafe { item.init(0, 1, 3, 30) };
        item.tag.store(3, Ordering::Release);
        assert_eq!(item.try_take(3), Some(30));
        unsafe { cache.release(&pool, p) };
        cache.drain_to(&pool);
        assert!(cache.is_empty());
        // The drained items flow back through the pool.
        let q = pool.acquire();
        assert_eq!(unsafe { &*q }.tag.load(Ordering::Relaxed), TAG_FREE);
    }

    #[test]
    fn item_cache_prefetch_covers_scalar_burst() {
        let pool: ItemPool<u64> = ItemPool::new();
        let mut cache = ItemCache::new();
        cache.prefetch(&pool, 200);
        assert!(cache.len() >= 200);
        let mut got = Vec::new();
        for _ in 0..200 {
            got.push(cache.acquire(&pool));
        }
        let unique: std::collections::HashSet<usize> = got.iter().map(|&p| p as usize).collect();
        assert_eq!(unique.len(), 200);
        cache.drain_to(&pool);
    }

    /// Payload type that counts drops, to verify pool-drop reclamation.
    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_pool_drops_untaken_payloads_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let pool: ItemPool<DropCounter> = ItemPool::new();
        // 3 live (never taken), 2 taken.
        for i in 0..5u64 {
            let p = pool.acquire();
            let item = unsafe { &*p };
            unsafe { item.init(0, 1, i, DropCounter(drops.clone())) };
            item.tag.store(i, Ordering::Release);
            if i >= 3 {
                let taken = item.try_take(i).unwrap();
                drop(taken);
                unsafe { pool.release(p) };
            }
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            2,
            "only taken payloads dropped so far"
        );
        drop(pool);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            5,
            "pool drop reclaims live payloads"
        );
    }

    #[test]
    fn item_ref_orders_by_priority_then_tag() {
        let a: ItemRef<u8> = ItemRef {
            prio: 1,
            tag: 9,
            ptr: std::ptr::null(),
        };
        let b: ItemRef<u8> = ItemRef {
            prio: 1,
            tag: 10,
            ptr: std::ptr::null(),
        };
        let c: ItemRef<u8> = ItemRef {
            prio: 2,
            tag: 0,
            ptr: std::ptr::null(),
        };
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn concurrent_acquire_release_stress() {
        let pool = Arc::new(ItemPool::<u64>::new());
        let threads = 8;
        let per = 5_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..per {
                        let p = pool.acquire();
                        let item = unsafe { &*p };
                        let tag = (t as u64) * per * 2 + i; // unique positions
                        unsafe { item.init(t as u32, 1, i, i) };
                        item.tag.store(tag, Ordering::Release);
                        assert_eq!(item.try_take(tag), Some(i));
                        unsafe { pool.release(p) };
                    }
                });
            }
        });
        // Every item ended FREE; allocation stayed bounded by concurrency,
        // far below the total number of operations.
        assert!(pool.allocated() <= (threads as u64) * per);
    }

    #[test]
    fn concurrent_batched_acquire_release_stress() {
        let pool = Arc::new(ItemPool::<u64>::new());
        let threads = 8;
        let rounds = 400;
        let batch = 32usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut items = Vec::new();
                    for r in 0..rounds {
                        items.clear();
                        let mut got = 0;
                        while got < batch {
                            got += pool.acquire_batch(&mut items, batch - got);
                        }
                        for (i, &p) in items.iter().enumerate() {
                            let item = unsafe { &*p };
                            let tag = ((t * rounds + r) * batch + i) as u64;
                            unsafe { item.init(t as u32, 1, tag, tag) };
                            item.tag.store(tag, Ordering::Release);
                            assert_eq!(item.try_take(tag), Some(tag));
                        }
                        unsafe { pool.release_batch(&items) };
                    }
                });
            }
        });
        assert!(pool.allocated() <= (threads * rounds * batch) as u64);
    }
}
