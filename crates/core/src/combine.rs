//! Flat-combining delegation for mutex-class sequential structures.
//!
//! The structural pool (and, eventually, the hybrid global list) protects a
//! sequential data structure with a single lock. Under contention every
//! operation migrates the structure's hot cache lines to the acquiring
//! core — the classic pattern where *delegation* wins: instead of moving
//! the data to the operation, move the operation to the data. Workers
//! publish their operation in a per-place *publication record*; whichever
//! worker holds the combiner lock walks all published records and executes
//! them back-to-back against the sequential structure, so the structure's
//! cache lines stay resident on one core for the whole pass.
//!
//! # Protocol
//!
//! Each place owns one cache-padded [`Slot`] holding an op cell, a response
//! cell, a three-state word (`EMPTY → PUBLISHED → DONE → EMPTY`), and a
//! [`ParkSlot`]. [`Combiner::execute`] proceeds as:
//!
//! 1. **Fast path:** `try_lock` the combiner lock. On success, apply the
//!    op directly (no publication), run bounded combining passes for any
//!    peers that published meanwhile, unlock, and wake still-pending peers.
//! 2. **Slow path:** write the op into the own slot, flip it to
//!    `PUBLISHED`, then loop: check for `DONE` (a combiner served us),
//!    retry `try_lock` (the combiner left; we take over — serving our own
//!    published op first), spin briefly, and finally park on the slot's
//!    `ParkSlot` via the register → re-check → park protocol from
//!    [`crate::park`].
//!
//! A combining pass walks every slot; for each `PUBLISHED` record it takes
//! the op, applies it, **writes the response into the slot and only then**
//! flips the state to `DONE` and wakes the slot's parker. Writing the
//! response before the `DONE` store (release) means a waiter that observes
//! `DONE` (acquire) always finds its response — the wake itself carries no
//! data, so waking before the response was visible would send the loser
//! back to sleep at best and return garbage at worst.
//!
//! # Tenure bound
//!
//! A combiner's tenure is bounded to [`Combiner::max_passes`] passes per
//! lock acquisition (a pass serves at most one op per place). Without the
//! bound, one unlucky worker could combine forever while its own place
//! starves — the usage-fairness problem from the delegation-lock
//! literature. When the bound trips with requests still published, the
//! leaving combiner wakes those waiters after unlocking so one of them
//! takes over the lock; its own op was served on acquisition, so progress
//! is never blocked on a parked ex-combiner.
//!
//! # Why nobody sleeps through an unlock (for long)
//!
//! The lost-wakeup risk is a waiter parking while the lock is free and its
//! request unserved. *Correctness* never depends on wakes: exactly-once
//! execution and response delivery are governed by the slot state word
//! alone, and every wake is paired with a state re-check. Only *progress*
//! depends on them, and it is covered three ways:
//!
//! 1. A combiner that serves a request flips it `DONE` and calls
//!    `wake_if_waiting`; the `SeqCst` fence pair in [`ParkSlot::prepare`] /
//!    [`ParkSlot::wake_if_waiting`] makes that handoff watertight (see
//!    `crate::park`'s module docs).
//! 2. A leaving combiner releases the lock and then walks the slots,
//!    waking every place still `PUBLISHED` so one of them takes over.
//! 3. The walk in (2) is deliberately *unfenced* — its loads may be
//!    satisfied before the unlock store drains, so a publication landing
//!    in that store-buffer-sized window can be missed while the
//!    publisher's own pre-park re-check still saw the lock held. For that
//!    reason waiters never park unboundedly: they park with
//!    [`PARK_TIMEOUT`] and on expiry re-check `DONE` and the lock word —
//!    finding the lock free, the waiter takes it and serves itself.
//!
//! The alternative to (3) is a full barrier between the unlock store and
//! the walk — an `mfence`-class instruction on **every** shared-structure
//! operation, including the uncontended fast path, which benchmarks as a
//! measurable regression against the plain-mutex baseline. The timeout
//! converts that per-op cost into a bounded (and vanishingly rare: the
//! window is a store-buffer drain) stall on the losing side of the race.
//!
//! # Memory safety
//!
//! The op/response cells are `UnsafeCell`s governed by the state word: the
//! owning place touches its cell only in `EMPTY` (writing the op) and
//! `DONE` (taking the response); a combiner touches it only in `PUBLISHED`
//! (taking the op, writing the response) and only while holding the
//! combiner lock. State transitions out of `PUBLISHED` are made only by a
//! lock holder, and transitions out of `EMPTY`/`DONE` only by the owner,
//! so at most one thread can access a cell at any state. The sequential
//! structure itself is touched only under the combiner lock (acquire CAS /
//! release-or-stronger store pair orders all accesses).

use crate::park::ParkSlot;
use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::{hint, thread};
use crossbeam_utils::CachePadded;

/// An operation that a [`Combiner`] can execute against the protected
/// sequential structure `S` on behalf of the publishing place.
pub trait CombineOp<S>: Send {
    /// What the publisher gets back.
    type Resp: Send;

    /// Executes the operation. Runs on whichever thread holds the combiner
    /// lock — not necessarily the publisher — so it must not rely on
    /// thread-local state.
    fn apply(self, shared: &mut S) -> Self::Resp;
}

/// Per-handle combining counters, folded into `PlaceStats` by the caller.
///
/// `ops` counts every operation this handle executed *while holding the
/// combiner lock* (its own plus delegated ones); `passes` counts slot-walk
/// passes that served at least one delegated op, so `ops / passes`
/// over-approximates the delegated ops-per-pass mean by the own-op share.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombineStats {
    /// Combining passes that served at least one delegated op.
    pub passes: u64,
    /// Ops executed while holding the combiner lock (own + delegated).
    pub ops: u64,
    /// Most delegated ops served in a single pass.
    pub max_pass: u64,
    /// Times this handle parked waiting for its response.
    pub parks: u64,
}

impl CombineStats {
    /// Aggregate: sums, except `max_pass` which takes the maximum.
    pub fn merge(&mut self, other: &CombineStats) {
        self.passes += other.passes;
        self.ops += other.ops;
        self.max_pass = self.max_pass.max(other.max_pass);
        self.parks += other.parks;
    }
}

const EMPTY: u8 = 0;
const PUBLISHED: u8 = 1;
const DONE: u8 = 2;

/// Slow-path wait budget before falling back to parking: the first
/// [`SPIN_HINT`] iterations are pure `spin_loop` hints (the combiner is
/// usually mid-pass and the response lands within nanoseconds), the rest
/// are `yield_now` — on an oversubscribed host the combiner likely lost
/// the core, and donating the quantum gets the op served for the price of
/// a scheduler hop instead of a park/wake syscall pair.
const SPIN_LIMIT: u32 = if cfg!(loom) { 0 } else { 64 };
/// Busy-spin prefix of [`SPIN_LIMIT`].
const SPIN_HINT: u32 = 8;

/// Upper bound on one park in the slow path. Longer than any sane
/// combining pass (so legitimate waits rarely time out), short enough
/// that the rare missed post-unlock wake (module docs, "why nobody
/// sleeps through an unlock") is a blip, not a hang.
pub const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_micros(100);

/// Default combiner tenure (passes per lock acquisition).
pub const DEFAULT_MAX_PASSES: usize = 4;

/// One place's publication record.
struct Slot<O, R> {
    state: AtomicU8,
    cell: UnsafeCell<SlotCell<O, R>>,
    park: ParkSlot,
    /// Parks of this place so far; the cross-thread view of
    /// [`CombineStats::parks`] (see [`Combiner::parks`]).
    parks: AtomicU64,
}

struct SlotCell<O, R> {
    op: Option<O>,
    resp: Option<R>,
}

impl<O, R> Slot<O, R> {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(EMPTY),
            cell: UnsafeCell::new(SlotCell {
                op: None,
                resp: None,
            }),
            park: ParkSlot::new(),
            parks: AtomicU64::new(0),
        }
    }
}

/// A sequential structure `S` fronted by flat-combining publication slots,
/// one per place. See the module docs for the protocol.
pub struct Combiner<S, O: CombineOp<S>> {
    lock: AtomicBool,
    /// Count of currently-`PUBLISHED` records: incremented right before a
    /// publish, decremented by whoever takes the op out of the cell. Lets
    /// the fast path skip both slot walks (combining passes and the
    /// post-unlock wake-walk) when nobody is waiting, instead of touching
    /// every place's cache-padded line on every uncontended op. A stale
    /// zero read falls into the same missed-wake window as the unfenced
    /// wake-walk and is covered the same way (bounded park).
    pending: AtomicU32,
    shared: UnsafeCell<S>,
    #[allow(clippy::type_complexity)]
    slots: Box<[CachePadded<Slot<O, O::Resp>>]>,
    max_passes: usize,
}

// Slots and the shared structure are handed between threads under the
// state-word / combiner-lock discipline documented on the module.
unsafe impl<S: Send, O: CombineOp<S>> Send for Combiner<S, O> {}
unsafe impl<S: Send, O: CombineOp<S>> Sync for Combiner<S, O> {}

impl<S, O: CombineOp<S>> Combiner<S, O> {
    /// Wraps `shared` for `places` places with the default tenure bound.
    ///
    /// # Panics
    /// Panics if `places == 0`.
    pub fn new(shared: S, places: usize) -> Self {
        Self::with_tenure(shared, places, DEFAULT_MAX_PASSES)
    }

    /// Wraps `shared` with an explicit tenure bound of `max_passes`
    /// combining passes per lock acquisition (minimum 1).
    ///
    /// # Panics
    /// Panics if `places == 0`.
    pub fn with_tenure(shared: S, places: usize, max_passes: usize) -> Self {
        assert!(places > 0, "need at least one place");
        Combiner {
            lock: AtomicBool::new(false),
            pending: AtomicU32::new(0),
            shared: UnsafeCell::new(shared),
            slots: (0..places).map(|_| CachePadded::new(Slot::new())).collect(),
            max_passes: max_passes.max(1),
        }
    }

    /// Number of publication slots (places).
    pub fn places(&self) -> usize {
        self.slots.len()
    }

    /// The tenure bound (combining passes per lock acquisition).
    pub fn max_passes(&self) -> usize {
        self.max_passes
    }

    /// How often `place` has parked waiting for a response so far. The
    /// caller-owned [`CombineStats::parks`] counts the same events but is
    /// borrowed by `execute` for the length of the wait; this is what
    /// another thread can read *while* the place waits — a test can hold a
    /// combiner busy until the loser is provably parked instead of
    /// sleeping and hoping.
    ///
    /// # Panics
    /// Panics if `place >= self.places()`.
    pub fn parks(&self, place: usize) -> u64 {
        self.slots[place].parks.load(Ordering::Relaxed)
    }

    /// Executes `op` on behalf of `place`, either directly (as the
    /// combiner) or by publishing it for whichever peer holds the combiner
    /// lock. Blocks (spin, then park) until the response is available.
    ///
    /// # Panics
    /// Panics if `place >= self.places()`. Must not be called reentrantly
    /// for the same place (each place is a single thread, per the
    /// `PoolHandle` ownership contract).
    pub fn execute(&self, place: usize, op: O, stats: &mut CombineStats) -> O::Resp {
        let slot = &self.slots[place];
        // Fast path: uncontended — combine without publishing.
        if self.try_lock() {
            // SAFETY: we hold the combiner lock, the only license to touch
            // the shared structure.
            let resp = self.shared.with_mut(|s| op.apply(unsafe { &mut *s }));
            stats.ops += 1;
            self.run_passes(place, stats);
            self.unlock_and_wake();
            return resp;
        }
        // Slow path: publish, then wait to be served or take over the lock.
        // SAFETY: own slot in EMPTY state — only the owner may touch it.
        slot.cell.with_mut(|c| unsafe { (*c).op = Some(op) });
        self.pending.fetch_add(1, Ordering::AcqRel);
        slot.state.store(PUBLISHED, Ordering::Release);
        let mut spins = 0u32;
        loop {
            if slot.state.load(Ordering::Acquire) == DONE {
                return self.take_resp(slot);
            }
            if self.try_lock() {
                // We are the combiner now. A leaving combiner may have
                // served us in its final pass; otherwise serve ourselves.
                let resp = if slot.state.load(Ordering::Acquire) == DONE {
                    self.take_resp(slot)
                } else {
                    // SAFETY: we hold the lock and the slot is PUBLISHED —
                    // no combiner will touch the cell, and we are its owner.
                    let op = slot
                        .cell
                        .with_mut(|c| unsafe { (*c).op.take() })
                        .expect("published op");
                    slot.state.store(EMPTY, Ordering::Relaxed);
                    self.pending.fetch_sub(1, Ordering::AcqRel);
                    stats.ops += 1;
                    // SAFETY: combiner lock held (as above).
                    self.shared.with_mut(|s| op.apply(unsafe { &mut *s }))
                };
                self.run_passes(place, stats);
                self.unlock_and_wake();
                return resp;
            }
            #[allow(clippy::absurd_extreme_comparisons)] // SPIN_LIMIT is 0 under cfg(loom)
            if spins < SPIN_LIMIT {
                spins += 1;
                if spins <= SPIN_HINT {
                    hint::spin_loop();
                } else {
                    // Donate the quantum: on an oversubscribed core the
                    // combiner is likely descheduled, and a yield serves
                    // the op far cheaper than a park/wake syscall pair.
                    thread::yield_now();
                }
                continue;
            }
            // Register → re-check → park (see crate::park). Re-check both
            // wake reasons: response written, or combiner lock released.
            // The park is timeout-bounded: if the post-unlock wake-walk
            // raced past this publication (module docs), the expiry
            // re-check finds the lock free and takes over.
            let token = slot.park.prepare();
            if slot.state.load(Ordering::Acquire) == DONE || !self.lock.load(Ordering::Acquire) {
                slot.park.cancel();
                continue;
            }
            stats.parks += 1;
            slot.parks.fetch_add(1, Ordering::Relaxed);
            slot.park.park_timeout(token, PARK_TIMEOUT);
        }
    }

    fn try_lock(&self) -> bool {
        // Load first: a failed CAS still takes the line exclusive, which
        // is exactly the migration combining exists to avoid.
        !self.lock.load(Ordering::Relaxed)
            && self
                .lock
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Takes the response from an own slot observed `DONE`.
    fn take_resp(&self, slot: &Slot<O, O::Resp>) -> O::Resp {
        // SAFETY: state is DONE — only the owner may touch the cell, and
        // the combiner's release store made the response visible.
        let resp = slot
            .cell
            .with_mut(|c| unsafe { (*c).resp.take() })
            .expect("response for DONE slot");
        slot.state.store(EMPTY, Ordering::Release);
        resp
    }

    /// Runs up to `max_passes` combining passes. Caller holds the lock;
    /// `place`'s own slot is already EMPTY (served on acquisition).
    fn run_passes(&self, place: usize, stats: &mut CombineStats) {
        for _ in 0..self.max_passes {
            // Nothing published → don't touch P cache-padded slot lines.
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            let mut served = 0u64;
            for (i, slot) in self.slots.iter().enumerate() {
                if i == place || slot.state.load(Ordering::Acquire) != PUBLISHED {
                    continue;
                }
                // SAFETY: lock held + slot PUBLISHED — the owner is waiting
                // and will not touch the cell until it observes DONE.
                let op = slot
                    .cell
                    .with_mut(|c| unsafe { (*c).op.take() })
                    .expect("published op");
                self.pending.fetch_sub(1, Ordering::AcqRel);
                // SAFETY: shared-structure access under the combiner lock.
                let resp = self.shared.with_mut(|s| op.apply(unsafe { &mut *s }));
                // Response before DONE before wake: a woken waiter must
                // find its response (module docs). The mutation self-check
                // (`--cfg loom_mutate_combine_done`) flips this order and
                // `tests/loom_models.rs` asserts the model catches the
                // waiter reading an empty response cell.
                #[cfg(not(loom_mutate_combine_done))]
                {
                    // SAFETY: as above — lock held, owner parked on DONE.
                    slot.cell.with_mut(|c| unsafe { (*c).resp = Some(resp) });
                    slot.state.store(DONE, Ordering::Release);
                }
                #[cfg(loom_mutate_combine_done)]
                {
                    // Deliberately wrong: DONE can become visible before
                    // the response is written.
                    slot.state.store(DONE, Ordering::Release);
                    // SAFETY: as above.
                    slot.cell.with_mut(|c| unsafe { (*c).resp = Some(resp) });
                }
                slot.park.wake_if_waiting();
                served += 1;
            }
            if served == 0 {
                break;
            }
            stats.passes += 1;
            stats.ops += served;
            stats.max_pass = stats.max_pass.max(served);
        }
    }

    /// Releases the combiner lock, then wakes every place whose request is
    /// still published so one of them takes over (tenure bound tripped, or
    /// the request arrived after our last pass). Unlock strictly before
    /// wake: waking first would let a woken waiter observe the lock still
    /// held and re-park for a full timeout. The walk is best-effort by
    /// design — no fence between the store and the loads, so a racing
    /// publication can slip past; the publisher's bounded park covers that
    /// window (module docs, point 3).
    fn unlock_and_wake(&self) {
        self.lock.store(false, Ordering::Release);
        if self.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::Acquire) == PUBLISHED {
                slot.park.wake_if_waiting();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Test op against a Vec<u64>: push a value, report the new length.
    struct PushOp(u64);
    impl CombineOp<Vec<u64>> for PushOp {
        type Resp = usize;
        fn apply(self, shared: &mut Vec<u64>) -> usize {
            shared.push(self.0);
            shared.len()
        }
    }

    #[test]
    fn single_place_fast_path_applies_directly() {
        let c: Combiner<Vec<u64>, PushOp> = Combiner::new(Vec::new(), 1);
        let mut stats = CombineStats::default();
        assert_eq!(c.execute(0, PushOp(7), &mut stats), 1);
        assert_eq!(c.execute(0, PushOp(9), &mut stats), 2);
        // Uncontended ops never publish, park, or run a delegated pass.
        assert_eq!(stats.ops, 2);
        assert_eq!(stats.passes, 0);
        assert_eq!(stats.parks, 0);
    }

    #[test]
    fn concurrent_ops_all_applied_exactly_once() {
        let places = 4usize;
        let per = 5_000u64;
        let c: Arc<Combiner<Vec<u64>, PushOp>> = Arc::new(Combiner::with_tenure(
            Vec::new(),
            places,
            1, // tiny tenure: force frequent combiner handoffs
        ));
        let total_ops = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for p in 0..places {
                let c = Arc::clone(&c);
                let total_ops = Arc::clone(&total_ops);
                s.spawn(move || {
                    let mut stats = CombineStats::default();
                    for i in 0..per {
                        let len = c.execute(p, PushOp(p as u64 * per + i), &mut stats);
                        assert!(len >= 1);
                    }
                    total_ops.fetch_add(stats.ops, Ordering::Relaxed);
                });
            }
        });
        // Every op ran while *someone* held the lock…
        assert_eq!(total_ops.load(Ordering::Relaxed), places as u64 * per);
        // …and landed in the Vec exactly once.
        let mut got = match Arc::try_unwrap(c) {
            Ok(c) => c.shared.into_inner(),
            Err(_) => panic!("combiner still shared"),
        };
        got.sort_unstable();
        let want: Vec<u64> = (0..places as u64 * per).collect();
        assert_eq!(got, want);
    }
}
