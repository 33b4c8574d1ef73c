//! Parker/waker subsystem: blocking idle instead of burning a core.
//!
//! Every idle path in the streamed runtime — workers whose pops fail,
//! [`crate::service::PoolService::join`] waiting for a drain, producers
//! blocked on a full ingress lane — used to spin with capped backoff
//! (sleep 50 µs, poll, repeat). This module replaces that with real
//! parking: an idle thread sleeps on a condvar until an *event* (a
//! submission, a spawn, a drain, abort, quiescence) wakes it, so a
//! quiescent pool consumes no CPU at all.
//!
//! # The lost-wakeup problem, and the eventcount that solves it
//!
//! Naive "check condition, then sleep" loses wakeups: the event can fire
//! between the check and the sleep, and nobody will ever wake the sleeper.
//! [`ParkSlot`] is an *eventcount* (a sequence lock for sleeping): waiters
//! follow a register → re-check → park protocol and wakers always
//! advance an epoch, so the race window closes. The protocol has **one
//! implementation**, [`ParkSlot::poll_until`] (blocking callers reach it
//! through [`ParkSlot::wait_until`]): every wait on a predicate — lane
//! space behind `submit`, the drain behind `join`, in both their blocking
//! and their async flavor — hands it the predicate as a closure and never
//! touches the three steps itself. Those steps are:
//!
//! 1. **Register:** [`ParkSlot::prepare`] increments the waiter count,
//!    issues a [`SeqCst`] fence, and reads the current epoch as a token.
//! 2. **Re-check:** the caller re-examines its wait condition (is there
//!    work? did the pool abort?). Only if there is still nothing to do
//!    does it proceed; otherwise it [`ParkSlot::cancel`]s.
//! 3. **Park:** [`ParkSlot::park`] sleeps only while the epoch still
//!    equals the token, re-checking under the slot's mutex.
//!
//! A waker ([`ParkSlot::wake_all`]) bumps the epoch *first*, then
//! notifies if any waiter is registered. Whichever way the race goes, no
//! wakeup is lost:
//!
//! * epoch bumped before the token was read → `park` returns immediately
//!   (token is stale);
//! * epoch bumped after → the bump happens either before the waiter takes
//!   the slot mutex (the mutex-guarded epoch check sees it) or while the
//!   waiter sleeps (the notify, sent under the same mutex, wakes it).
//!
//! # Two flavors of waiter: threads and async wakers
//!
//! A slot holds two kinds of waiter ([`Waiter`]): an **OS thread**
//! ([`Waiter::Thread`]), which sleeps on the slot's condvar, and an
//! **async task** ([`Waiter::Waker`]), which deposits its
//! [`std::task::Waker`] in the slot and returns to its executor. Both
//! flavors run the *same* body — [`ParkSlot::poll_until`] takes the
//! [`Waiter`] as an argument and passes it to [`ParkSlot::park_as`]; they
//! differ only in how the final "sleep" is realized, so the lost-wakeup
//! argument above covers them uniformly:
//!
//! * a thread re-checks the epoch under the slot mutex before each condvar
//!   wait;
//! * a waker is stored under that *same* mutex, after a mutex-guarded
//!   epoch check. If the epoch already moved, [`ParkSlot::park_as`]
//!   returns [`Parked::Woken`] and the future simply retries — the exact
//!   analogue of `park` returning immediately on a stale token. If it has
//!   not, the waker is in the set before the mutex is released, and every
//!   subsequent [`ParkSlot::wake_all`] (which takes the mutex, because the
//!   `prepare` registration is still counted in `waiters`) drains the set
//!   and calls [`std::task::Waker::wake`]. Either way, an event concurrent
//!   with registration cannot be missed.
//!
//! A registered waker keeps its `prepare` registration held until it is
//! either fired by a wake (which releases the count) or revoked by
//! [`ParkSlot::revoke_waker`] — `poll_until` does that at the head of
//! every re-poll, [`ParkSlot::revoke`] when the future is dropped. Wakers are
//! invoked *outside* the slot mutex — an executor may run arbitrary code
//! in `wake` — after the count has already been released under it.
//!
//! The cheap-waker path ([`ParkSlot::wake_if_waiting`]) skips even the
//! epoch bump when no waiter is registered. That gate is sound because of
//! the [`SeqCst`] fences on both sides: the waker makes its event visible
//! (e.g. pushes a task), fences, then reads the waiter count; the waiter
//! increments the count, fences, then re-checks the condition. In the
//! seq-cst total order either the waker's read sees the registration (and
//! wakes), or the waiter's re-check is ordered after the waker's fence
//! and must see the event (and doesn't park). C++20 [atomics.fences]
//! makes this precise; the point is that *neither* side can miss *both*
//! signals.
//!
//! # Why parked workers cannot strand work
//!
//! Parking is only sound if every transition from "nothing to do" to
//! "something to do" produces a wake event, and if a single re-check
//! suffices to observe pool state. The scheduler's events are enumerated
//! in [`crate::ingest`] (submissions, drains, spawns, a settle taking the
//! pending counter to zero, producer-count reaching zero, abort). The
//! re-check is
//! reliable because of a structural invariant shared by the exact pool
//! implementations: **a place's local component is filled only by its own
//! worker** (pushes, steals, raids, and lane drains all land in the
//! *executing* place's component). A worker only parks after its own pop
//! failed, so a parked worker's local component is empty and stays empty;
//! any remaining task is therefore in an *awake* worker's local component
//! (its next pop finds it) or in a shared component that pops scan
//! deterministically. The relaxed MultiQueue's only per-place component
//! is its insertion buffer (the place's last < 16 pushes), filled by its
//! own worker alone and served by a pop before the pop may fail — `None`
//! implies the buffer is empty; every queue is shared, and its pop ends
//! with an exhaustive try-lock scan of all c·P queues and of the other
//! places' buffers before reporting empty (see [`crate::multiqueue`]).
//! Either way, the "all workers parked with work remaining" state is
//! unreachable.
//!
//! # Wait predicates, their writers, and their wake sites
//!
//! A parked wait is a predicate over one or more atomics, and it is
//! lost-wakeup-free only if **every write that can turn the predicate
//! true is followed by a wake of the slot its waiters sleep on** — the
//! register → re-check → park protocol above covers the race with *one*
//! write, not a write nobody announces. With two variables there are two
//! such writes, whichever comes last. (Writes that can only turn a
//! predicate false — submissions raising `queued`, charges raising the
//! outstanding count — need no wake.)
//!
//! | predicate (waiters, slot) | writer that can turn it true | wake site | waits through |
//! |---|---|---|---|
//! | `drained` = `queued == 0 ∧ pending == 0` ([`crate::service::PoolService::join`], `join_async`; control slot) | `queued` falls in `IngressShared::drain_into` | same function, `control().wake_if_waiting()` when its `fetch_sub` took `queued` to zero | `poll_until` (`IngressShared::poll_drained`) |
//! | | `pending` falls when a place settles its credits (`SpawnCtx::settle`, the only decrement of the shared count) | same function, `control().wake_if_waiting()` when the flush took the count to zero | |
//! | lane has room (blocked producers, pending submit futures; space slot) | `drain_into` swaps the lane out | `space().wake_if_waiting()` (bounded lanes only) | `poll_until` (`IngestHandle::poll_submit`, `poll_submit_batch`) |
//! | run quiescence = `producers == 0 ∧ queued == 0 ∧ pending == 0`, or a task to pop (workers; their own slots) | `producers` falls in `IngestHandle::drop` | `wake_all()` on reaching zero | hand-written in `place_loop` and `help_while` (`Parker::worker_prepare`): the re-check *pops a task*, and the worker must leave `idle_workers` before it runs it, not after; `help_while`'s park is also timed, its `cond` being executor state no wake announces |
//! | | `queued` falls in `drain_into` | `wake_workers_if_idle()` after every transfer | |
//! | | `pending` falls in `SpawnCtx::settle` | `wake_all()` when the flush reached zero and the ingress side reads quiescent | |
//! | | a task lands in the worker's lane, or is spawned or drained into the pool | `wake_worker(lane)` in `IngressShared::place`; `wake_workers_if_idle()` after spawns and transfers | |
//! | own op is `DONE`, or the combiner lock is free (a place that published an op; its own combiner slot) | the combining place stores `DONE` | `wake_if_waiting()` on that slot | hand-written in `Combiner::execute`: the park is timed, because the second writer's wake — the walk after the lock release — is deliberately unfenced (see [`crate::combine`]) |
//! | | the combining place releases the lock | its post-unlock wake walk over the still-pending slots | |
//!
//! The hand-written waits are the ones loom models (g) and (b) run as they
//! stand; `poll_until` itself is what models (a), (a′) and (h) run.
//!
//! Abort and shutdown end every one of these waits through `wake_all()`.
//! Both `drained` rows are load-bearing: a `pending → 0` wake that fires
//! while `queued` is still up is not repeated, so a `join` that re-parks
//! on it depends on the `queued → 0` wake.
//!
//! [`SeqCst`]: crate::sync::atomic::Ordering::SeqCst

use crate::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use crate::sync::stdsync::{Condvar, Mutex, MutexGuard};
use crossbeam_utils::CachePadded;
use std::task::{Poll, Waker};
use std::time::Duration;
#[cfg(not(loom))]
use std::time::Instant;

/// The two flavors of waiter a [`ParkSlot`] can hold (see module docs).
#[derive(Clone, Copy)]
pub enum Waiter<'a> {
    /// The calling OS thread: blocks on the slot's condvar until a wake.
    Thread,
    /// An async task: its waker is deposited in the slot and called on the
    /// next wake; the task's future returns `Poll::Pending` meanwhile.
    Waker(&'a Waker),
}

/// Outcome of [`ParkSlot::park_as`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parked {
    /// The wait is over: a thread waiter was woken (or found the token
    /// already stale), or a waker waiter found the token stale before
    /// registering. Re-check the wait condition and retry.
    Woken,
    /// The waker is registered; the future must return `Poll::Pending`.
    /// Revoke with [`ParkSlot::revoke_waker`] when re-polled or dropped
    /// before the wake arrives.
    Registered(WakerId),
}

/// Identifies one registered async waker within its slot (returned by
/// [`ParkSlot::park_as`], consumed by [`ParkSlot::revoke_waker`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WakerId(u64);

/// Mutex-guarded slot state: the deposited async wakers.
#[derive(Default)]
struct WakerSet {
    next_id: u64,
    entries: Vec<(u64, Waker)>,
}

/// Takes a possibly poisoned std mutex guard; a panicking waiter leaves
/// only wakers behind, which are safe to fire or drop (same stance as the
/// workspace's `parking_lot` facade).
fn lock_ignore_poison(mutex: &Mutex<WakerSet>) -> MutexGuard<'_, WakerSet> {
    match mutex.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Unwraps a [`ParkSlot::poll_until`] made with [`Waiter::Thread`], which
/// parks in place and therefore never returns `Pending`.
pub(crate) fn thread_ready<R>(poll: Poll<R>) -> R {
    match poll {
        Poll::Ready(done) => done,
        Poll::Pending => unreachable!("a thread waiter parks in place"),
    }
}

/// One park/wake rendezvous point (an *eventcount*; see module docs for
/// the register → re-check → park protocol and its loss-freedom
/// argument).
#[derive(Default)]
pub struct ParkSlot {
    /// Wake-event sequence number; advanced by every wake.
    epoch: AtomicU64,
    /// Waiters registered (between [`ParkSlot::prepare`] and the matching
    /// park/cancel, plus deposited wakers until they fire or are revoked).
    /// Gates the waker's slow path.
    waiters: AtomicUsize,
    mutex: Mutex<WakerSet>,
    condvar: Condvar,
}

impl ParkSlot {
    /// Creates an idle slot.
    pub fn new() -> Self {
        ParkSlot::default()
    }

    /// Registers the caller (thread or async task) as a waiter and
    /// returns the epoch token to park on. **Must** be followed by a
    /// re-check of the wait condition and then exactly one of
    /// [`ParkSlot::park`], [`ParkSlot::park_timeout`],
    /// [`ParkSlot::park_as`], or [`ParkSlot::cancel`].
    pub fn prepare(&self) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `wake_if_waiting`: after this fence the
        // caller's condition re-check is guaranteed to observe any event
        // whose waker read `waiters` before this registration.
        fence(Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }

    /// Deregisters without parking (the re-check found work to do).
    pub fn cancel(&self) {
        self.waiters.fetch_sub(1, Ordering::Release);
    }

    /// Blocks until some wake advances the epoch past `token`. Consumes
    /// the registration made by the matching [`ParkSlot::prepare`].
    /// Returns immediately if the epoch already moved.
    pub fn park(&self, token: u64) {
        let mut guard = lock_ignore_poison(&self.mutex);
        while self.epoch.load(Ordering::SeqCst) == token {
            guard = match self.condvar.wait(guard) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::Release);
    }

    /// Parks as either waiter flavor (see [`Waiter`] and the module docs).
    ///
    /// * [`Waiter::Thread`] behaves exactly like [`ParkSlot::park`] and
    ///   always returns [`Parked::Woken`].
    /// * [`Waiter::Waker`] deposits the waker **if the token is still
    ///   current** (checked under the slot mutex, so the check and the
    ///   deposit are atomic against [`ParkSlot::wake_all`]) and returns
    ///   [`Parked::Registered`]; the `prepare` registration stays held
    ///   until the wake fires the waker or [`ParkSlot::revoke_waker`]
    ///   removes it. A stale token deregisters and returns
    ///   [`Parked::Woken`] — the caller re-checks and retries, exactly as
    ///   a thread returning from `park` would.
    pub fn park_as(&self, token: u64, waiter: Waiter<'_>) -> Parked {
        match waiter {
            Waiter::Thread => {
                self.park(token);
                Parked::Woken
            }
            Waiter::Waker(waker) => {
                let mut guard = lock_ignore_poison(&self.mutex);
                if self.epoch.load(Ordering::SeqCst) != token {
                    drop(guard);
                    self.waiters.fetch_sub(1, Ordering::Release);
                    return Parked::Woken;
                }
                let id = guard.next_id;
                guard.next_id += 1;
                guard.entries.push((id, waker.clone()));
                Parked::Registered(WakerId(id))
            }
        }
    }

    /// The register → re-check → park protocol of the module docs, as the
    /// one body every predicate wait in this crate runs: `attempt` is the
    /// wait condition (and whatever acting on it means — taking lane space,
    /// reading two counters) and returns `Some` once there is nothing left
    /// to wait for.
    ///
    /// A deposit left in `deposit` by an earlier `Pending` is revoked
    /// first, so a re-poll starts from a clean registration. Then: attempt;
    /// [`ParkSlot::prepare`]; attempt again, [`ParkSlot::cancel`]ling on
    /// success; [`ParkSlot::park_as`]. [`Waiter::Thread`] sleeps right
    /// there and goes round again, so it never sees `Pending`;
    /// [`Waiter::Waker`] returns `Pending` with its deposit recorded in
    /// `deposit` — or goes round again at once if the token was already
    /// stale. Whoever drops a pending wait calls [`ParkSlot::revoke`].
    pub fn poll_until<R>(
        &self,
        waiter: Waiter<'_>,
        deposit: &mut Option<WakerId>,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> Poll<R> {
        self.revoke(deposit);
        loop {
            if let Some(done) = attempt() {
                return Poll::Ready(done);
            }
            let token = self.prepare();
            if let Some(done) = attempt() {
                self.cancel();
                return Poll::Ready(done);
            }
            if let Parked::Registered(id) = self.park_as(token, waiter) {
                *deposit = Some(id);
                return Poll::Pending;
            }
        }
    }

    /// [`ParkSlot::poll_until`] for the calling thread: blocks until
    /// `attempt` returns `Some`.
    pub fn wait_until<R>(&self, attempt: impl FnMut() -> Option<R>) -> R {
        thread_ready(self.poll_until(Waiter::Thread, &mut None, attempt))
    }

    /// Revokes the deposit a pending [`ParkSlot::poll_until`] left in
    /// `deposit`, if any (re-poll, or drop of the future that held it).
    pub fn revoke(&self, deposit: &mut Option<WakerId>) {
        if let Some(id) = deposit.take() {
            // `false` means a wake already consumed the deposit (and
            // released the registration); either way it is gone now.
            let _ = self.revoke_waker(id);
        }
    }

    /// Removes a waker deposited by [`ParkSlot::park_as`], releasing its
    /// registration. Returns `false` when the waker was already consumed
    /// by a wake (which released the registration itself) — the two paths
    /// release exactly once between them. Call on every re-poll and on
    /// future drop.
    pub fn revoke_waker(&self, id: WakerId) -> bool {
        let mut guard = lock_ignore_poison(&self.mutex);
        let Some(pos) = guard.entries.iter().position(|(eid, _)| *eid == id.0) else {
            return false;
        };
        guard.entries.swap_remove(pos);
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::Release);
        true
    }

    /// Like [`ParkSlot::park`], but gives up after `timeout`. Returns
    /// `true` if woken by an epoch advance, `false` on timeout. Used
    /// where the wait condition can change without a parker event (e.g.
    /// finish-region counters flipped by task completions).
    #[cfg(not(loom))]
    pub fn park_timeout(&self, token: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = lock_ignore_poison(&self.mutex);
        let woken = loop {
            if self.epoch.load(Ordering::SeqCst) != token {
                break true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break false;
            };
            guard = match self.condvar.wait_timeout(guard, remaining) {
                Ok((g, _)) => g,
                Err(p) => p.into_inner().0,
            };
        };
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::Release);
        woken
    }

    /// Model build of [`ParkSlot::park_timeout`]: model time does not
    /// advance, so a scheduler-granted timeout wake *is* deadline expiry —
    /// re-arming the wait because `Instant::now()` hasn't moved would ask
    /// the scheduler for unboundedly many timeout wakes (a livelock in the
    /// explored state space, not in the real code).
    #[cfg(loom)]
    pub fn park_timeout(&self, token: u64, timeout: Duration) -> bool {
        let _ = timeout;
        let mut guard = lock_ignore_poison(&self.mutex);
        let woken = loop {
            if self.epoch.load(Ordering::SeqCst) != token {
                break true;
            }
            let (g, timeout_res) = match self.condvar.wait_timeout(guard, timeout) {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            guard = g;
            if timeout_res.timed_out() {
                // One last epoch check so a wake that raced the timeout is
                // still reported as a wake, as in the real build.
                break self.epoch.load(Ordering::SeqCst) != token;
            }
        };
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::Release);
        woken
    }

    /// Wakes every current and in-flight waiter — parked threads *and*
    /// deposited async wakers: advances the epoch, then notifies
    /// registered sleepers. Always safe to call; one atomic increment plus
    /// one load when nobody is parked.
    pub fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders the notify against a waiter that
            // passed its epoch check but has not started waiting yet.
            let mut guard = lock_ignore_poison(&self.mutex);
            self.condvar.notify_all();
            let fired = std::mem::take(&mut guard.entries);
            // Release each drained waker's registration under the mutex,
            // so a concurrent `revoke_waker` (which no longer finds the
            // entry) cannot double-release it…
            if !fired.is_empty() {
                self.waiters.fetch_sub(fired.len(), Ordering::Release);
            }
            drop(guard);
            // …but invoke the wakers outside it: `wake` runs executor code
            // that may take arbitrary locks of its own.
            for (_, waker) in fired {
                waker.wake();
            }
        }
    }

    /// Hot-path wake: skips the epoch bump entirely when no waiter is
    /// registered. The [`SeqCst`] fence pairs with [`ParkSlot::prepare`]
    /// (see module docs) so the skip can never lose a registration that
    /// would miss the triggering event.
    ///
    /// [`SeqCst`]: Ordering::SeqCst
    pub fn wake_if_waiting(&self) {
        // Mutation self-check (`--cfg loom_mutate_park_fence`): removing
        // this fence re-opens the classic lost-wakeup window — the event
        // store can sit in the waker's store buffer while it reads a
        // pre-registration `waiters == 0`, and the waiter's re-check then
        // misses the event. `tests/loom_models.rs` asserts the model
        // checker finds that deadlock.
        #[cfg(not(loom_mutate_park_fence))]
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.wake_all();
        }
    }

    /// Currently registered waiters (diagnostics; racy).
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }
}

/// The parking fabric of one streamed pool (or service): one slot per
/// place for its worker, one control slot for join/shutdown waiters, and
/// one space slot for producers blocked on full ingress lanes.
///
/// Per-place worker slots make submission wakes *targeted*: a task pushed
/// into lane `l` can only be drained by worker `l`, so only slot `l` is
/// woken. Broadcast events (abort, quiescence, spawned work that any
/// place could steal or spy) go through [`Parker::wake_workers_if_idle`]
/// / [`Parker::wake_all`].
pub struct Parker {
    workers: Box<[CachePadded<ParkSlot>]>,
    control: CachePadded<ParkSlot>,
    space: CachePadded<ParkSlot>,
    /// Workers currently registered or parked on their slot; gates the
    /// spawn-path broadcast to one fence + one load when everyone is busy.
    idle_workers: AtomicUsize,
    /// Idle-path iterations of all worker loops (diagnostics: a parked
    /// fleet must not advance this — see `PoolService::idle_iters`).
    idle_iters: AtomicU64,
}

impl Parker {
    /// Creates the fabric for `places` worker slots.
    pub fn new(places: usize) -> Self {
        Parker {
            workers: (0..places)
                .map(|_| CachePadded::new(ParkSlot::new()))
                .collect(),
            control: CachePadded::new(ParkSlot::new()),
            space: CachePadded::new(ParkSlot::new()),
            idle_workers: AtomicUsize::new(0),
            idle_iters: AtomicU64::new(0),
        }
    }

    /// Registers worker `place` as idle; same contract as
    /// [`ParkSlot::prepare`] (re-check, then park or cancel).
    pub fn worker_prepare(&self, place: usize) -> u64 {
        self.idle_workers.fetch_add(1, Ordering::SeqCst);
        self.workers[place].prepare()
    }

    /// Deregisters worker `place` without parking.
    pub fn worker_cancel(&self, place: usize) {
        self.workers[place].cancel();
        self.idle_workers.fetch_sub(1, Ordering::Release);
    }

    /// Parks worker `place` on its slot until an event.
    pub fn worker_park(&self, place: usize, token: u64) {
        self.workers[place].park(token);
        self.idle_workers.fetch_sub(1, Ordering::Release);
    }

    /// Bounded park for worker `place` (see [`ParkSlot::park_timeout`]).
    pub fn worker_park_timeout(&self, place: usize, token: u64, timeout: Duration) {
        self.workers[place].park_timeout(token, timeout);
        self.idle_workers.fetch_sub(1, Ordering::Release);
    }

    /// Targeted wake of worker `place` (a submission landed in its lane).
    pub fn wake_worker(&self, place: usize) {
        self.workers[place].wake_if_waiting();
    }

    /// Broadcast to every idle worker, gated so the common busy-fleet case
    /// costs one fence + one load. Called after spawns and lane drains —
    /// freshly stored tasks may be stealable/spyable by any place.
    pub fn wake_workers_if_idle(&self) {
        fence(Ordering::SeqCst);
        if self.idle_workers.load(Ordering::Relaxed) > 0 {
            for slot in &self.workers {
                slot.wake_all();
            }
        }
    }

    /// The join/shutdown waiters' slot.
    pub fn control(&self) -> &ParkSlot {
        &self.control
    }

    /// The blocked-producers' slot (full lanes waiting for a drain).
    pub fn space(&self) -> &ParkSlot {
        &self.space
    }

    /// Wakes everything — workers, control waiters, blocked producers.
    /// The abort / quiescence / shutdown broadcast.
    pub fn wake_all(&self) {
        for slot in &self.workers {
            slot.wake_all();
        }
        self.control.wake_all();
        self.space.wake_all();
    }

    /// Records one idle-path iteration of a worker loop.
    pub fn note_idle_iter(&self) {
        self.idle_iters.fetch_add(1, Ordering::Relaxed);
    }

    /// Total idle-path iterations across all worker loops.
    pub fn idle_iters(&self) -> u64 {
        self.idle_iters.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn park_returns_immediately_on_stale_token() {
        let slot = ParkSlot::new();
        let token = slot.prepare();
        slot.wake_all(); // epoch moves past the token
        slot.park(token); // must not block
        assert_eq!(slot.waiters(), 0);
    }

    #[test]
    fn cancel_deregisters() {
        let slot = ParkSlot::new();
        let _token = slot.prepare();
        assert_eq!(slot.waiters(), 1);
        slot.cancel();
        assert_eq!(slot.waiters(), 0);
    }

    #[test]
    fn wake_all_unblocks_a_parked_thread() {
        let slot = Arc::new(ParkSlot::new());
        let parked = Arc::new(AtomicBool::new(false));
        let t = {
            let slot = Arc::clone(&slot);
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || {
                let token = slot.prepare();
                parked.store(true, Ordering::Release);
                slot.park(token);
            })
        };
        while !parked.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // The thread is registered (maybe not yet asleep); wake_all must
        // reach it either way.
        slot.wake_all();
        t.join().unwrap();
    }

    #[test]
    fn wake_if_waiting_covers_the_register_recheck_race() {
        // Event fires between prepare() and park(): the epoch token is
        // stale by park time, so the park is a no-op.
        let slot = ParkSlot::new();
        let token = slot.prepare();
        slot.wake_if_waiting(); // sees waiters == 1, bumps epoch
        slot.park(token); // must not block
    }

    #[test]
    fn park_timeout_expires_without_event() {
        let slot = ParkSlot::new();
        let token = slot.prepare();
        let woken = slot.park_timeout(token, Duration::from_millis(5));
        assert!(!woken, "no event: the bounded park must time out");
    }

    #[test]
    fn parker_targets_and_broadcasts() {
        let parker = Arc::new(Parker::new(2));
        // Targeted: a registered worker is woken by its own slot.
        let token = parker.worker_prepare(1);
        parker.wake_worker(1);
        parker.worker_park(1, token); // stale token, returns
                                      // Gated broadcast: with nobody idle this is one fence + load.
        parker.wake_workers_if_idle();
        // With an idle worker it must wake it. Wait for the token, not for
        // `idle_workers`: that rises before `prepare` reads the epoch, and
        // a wake landing in between would hand the worker a fresh token
        // with no event left to end its park.
        let prepared = Arc::new(AtomicBool::new(false));
        let t = {
            let parker = Arc::clone(&parker);
            let prepared = Arc::clone(&prepared);
            std::thread::spawn(move || {
                let token = parker.worker_prepare(0);
                prepared.store(true, Ordering::Release);
                parker.worker_park(0, token);
            })
        };
        while !prepared.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        parker.wake_workers_if_idle();
        t.join().unwrap();
    }

    /// Waker whose `wake` flips a shared counter (observable from tests).
    struct CountWaker(AtomicUsize);

    impl std::task::Wake for CountWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn count_waker() -> (Arc<CountWaker>, std::task::Waker) {
        let counter = Arc::new(CountWaker(AtomicUsize::new(0)));
        let waker = std::task::Waker::from(Arc::clone(&counter));
        (counter, waker)
    }

    #[test]
    fn registered_waker_fires_on_wake_and_releases_registration() {
        let slot = ParkSlot::new();
        let (counter, waker) = count_waker();
        let token = slot.prepare();
        let Parked::Registered(id) = slot.park_as(token, Waiter::Waker(&waker)) else {
            panic!("fresh token must register");
        };
        assert_eq!(slot.waiters(), 1, "registration held while deposited");
        slot.wake_all();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "waker must fire");
        assert_eq!(slot.waiters(), 0, "wake releases the registration");
        assert!(!slot.revoke_waker(id), "already consumed by the wake");
    }

    #[test]
    fn stale_token_rejects_waker_registration() {
        let slot = ParkSlot::new();
        let (counter, waker) = count_waker();
        let token = slot.prepare();
        slot.wake_all(); // epoch moves past the token
        assert_eq!(
            slot.park_as(token, Waiter::Waker(&waker)),
            Parked::Woken,
            "stale token: the future must retry, not sleep"
        );
        assert_eq!(slot.waiters(), 0);
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn revoked_waker_never_fires() {
        let slot = ParkSlot::new();
        let (counter, waker) = count_waker();
        let token = slot.prepare();
        let Parked::Registered(id) = slot.park_as(token, Waiter::Waker(&waker)) else {
            panic!("fresh token must register");
        };
        assert!(slot.revoke_waker(id));
        assert_eq!(slot.waiters(), 0);
        slot.wake_all();
        assert_eq!(counter.0.load(Ordering::SeqCst), 0, "revoked ≠ woken");
    }

    #[test]
    fn thread_flavor_of_park_as_matches_park() {
        let slot = ParkSlot::new();
        let token = slot.prepare();
        slot.wake_all();
        assert_eq!(slot.park_as(token, Waiter::Thread), Parked::Woken);
        assert_eq!(slot.waiters(), 0);
    }

    /// The satellite race test: a waker registered *concurrently* with a
    /// wake is never lost. Whatever the interleaving, either registration
    /// observes the stale token (the future retries immediately) or the
    /// wake fires the deposited waker — a registration that neither
    /// retries nor fires would hang an async submitter forever.
    #[test]
    fn waker_registered_concurrently_with_wake_is_never_lost() {
        for _ in 0..2_000 {
            let slot = Arc::new(ParkSlot::new());
            let (counter, waker) = count_waker();
            let waiter = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || {
                    let token = slot.prepare();
                    slot.park_as(token, Waiter::Waker(&waker))
                })
            };
            slot.wake_all();
            match waiter.join().unwrap() {
                Parked::Woken => {} // stale token observed: retry path
                Parked::Registered(_) => {
                    // Deposited before our wake drained the set, or after
                    // it (in which case a later wake must still fire it —
                    // the registration is still counted, so the next
                    // wake_all takes the slow path).
                    if counter.0.load(Ordering::SeqCst) == 0 {
                        slot.wake_all();
                    }
                    assert_eq!(
                        counter.0.load(Ordering::SeqCst),
                        1,
                        "registered waker lost across a concurrent wake"
                    );
                }
            }
            assert_eq!(slot.waiters(), 0);
        }
    }

    #[test]
    fn control_and_space_slots_are_independent() {
        let parker = Parker::new(1);
        let ctl = parker.control().prepare();
        parker.space().wake_all(); // must not wake control
        assert!(!parker.control().park_timeout(ctl, Duration::from_millis(2)));
        let sp = parker.space().prepare();
        parker.control().wake_all();
        assert!(!parker.space().park_timeout(sp, Duration::from_millis(2)));
        // wake_all reaches both.
        let ctl = parker.control().prepare();
        let sp = parker.space().prepare();
        parker.wake_all();
        parker.control().park(ctl);
        parker.space().park(sp);
    }
}
