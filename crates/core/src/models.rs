//! Loom interleaving models for the crate's hand-rolled synchronization
//! protocols (compiled only under `--cfg loom`).
//!
//! Each function here wraps one concurrency argument from the prose docs
//! in an exhaustive schedule exploration: the in-tree `loom` shim runs the
//! closure under every interleaving (bounded by a preemption budget and a
//! branch budget, see the shim's docs), modeling relaxed/acquire/release
//! stores through per-thread store buffers. A lost wakeup shows up as a
//! detected deadlock, a protocol hole as an assertion or `expect` failure,
//! and the failing schedule is printed for replay (`LOOM_REPLAY`).
//!
//! The models live *inside* the crate (rather than in the integration
//! test) so they can use crate-private surface — [`IngressShared`]'s
//! `drain_into` most importantly. `tests/loom_models.rs` is the thin
//! runner; the crate-level docs ("Model-checked properties") map each
//! prose argument to its model.
//!
//! Four **mutation self-checks** keep the checker honest: building with
//! `--cfg loom_mutate_park_fence` removes the seq-cst fence in
//! [`ParkSlot::wake_if_waiting`], `--cfg loom_mutate_exact_recheck` skips
//! the structural pop's re-check under the queue lock,
//! `--cfg loom_mutate_credit_flush` drops the settle in front of the
//! scheduler's termination check, and `--cfg loom_mutate_drain_wake` drops
//! the control-slot wake of the lane drain that takes `queued` to zero.
//! The runner then asserts that [`parker_no_lost_wakeup`],
//! [`structural_pop_takes_a_true_minimum`],
//! [`credits_settle_before_quiescence`] and
//! [`join_wakes_on_the_last_of_drain_and_finish`] *fail* — a model suite
//! that cannot see a deliberately planted bug proves nothing about the
//! real code.
//!
//! [`IngressShared`]: crate::ingest::IngressLanes
//! [`ParkSlot::wake_if_waiting`]: crate::park::ParkSlot::wake_if_waiting

use crate::centralized::CentralizedKPriority;
use crate::ingest::IngressLanes;
use crate::item::ItemPool;
use crate::multiqueue::RelaxedMultiQueue;
use crate::park::ParkSlot;
use crate::pool::{FaultPolicy, PoolHandle, TaskPool};
use crate::scheduler::{place_loop, FaultCell, Outstanding, SpawnCtx, TaskExecutor};
use crate::stats::PlaceStats;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Mutex};
use std::sync::Arc;

/// (a) Parker: [`ParkSlot::wait_until`] — the crate's one
/// register → re-check → park body — versus a concurrent
/// `wake_if_waiting` never loses the wakeup.
///
/// The waker publishes an event (a flag store) and calls the gated wake;
/// the waiter waits for the flag, parking untimed whenever it has not seen
/// it. The seq-cst fence in `wake_if_waiting` pairing with the fence in
/// `prepare` is exactly what makes this safe: without it (the
/// `loom_mutate_park_fence` build) the waker's flag store can sit in its
/// store buffer while it reads a pre-registration `waiters == 0`, the
/// waiter's re-check misses the flag, and the untimed park deadlocks.
pub fn parker_no_lost_wakeup() {
    loom::model(|| {
        let slot = Arc::new(ParkSlot::new());
        let flag = Arc::new(AtomicBool::new(false));

        let waiter = {
            let (slot, flag) = (Arc::clone(&slot), Arc::clone(&flag));
            // Untimed parks: if the wake is lost, this blocks forever and
            // the explorer reports a deadlock.
            thread::spawn(move || slot.wait_until(|| flag.load(Ordering::Acquire).then_some(())))
        };
        let waker = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                flag.store(true, Ordering::Release);
                slot.wake_if_waiting();
            })
        };

        waiter.join().unwrap();
        waker.join().unwrap();
        assert_eq!(slot.waiters(), 0, "the wait released its registration");
    });
}

/// (b) Structural exact pop: a queue's minimum is taken only if, under
/// its lock, it is still no worse than the runner-up top the pop read.
///
/// Two places, two queues each: queue 0 holds {10, 30}, queue 1 holds
/// {20}, placed on the main thread; queues 2 and 3 stay empty. Each place
/// pops once, concurrently. Both may read queue 0's top as 10 before
/// either locks it; the loser then finds 30 under the lock, which loses to
/// the runner-up 20 it read, and reads the tops again. So 10 and 20 are
/// each taken once and 30 never is — a single pop of an exact pool would
/// not take 30 either. Under `loom_mutate_exact_recheck` the loser takes
/// 30.
pub fn structural_pop_takes_a_true_minimum() {
    loom::model(|| {
        let sp = Arc::new(RelaxedMultiQueue::<u64>::structural(2));
        sp.land_on(0, [(10, 10), (30, 30)]);
        sp.land_on(1, [(20, 20)]);

        let peer = {
            let sp = Arc::clone(&sp);
            thread::spawn(move || sp.handle(1).pop())
        };
        let own = sp.handle(0).pop();
        let other = peer.join().unwrap();

        let mut popped: Vec<u64> = own.into_iter().chain(other).collect();
        popped.sort_unstable();
        assert_eq!(popped, [10, 20], "each pop must take a true minimum");
    });
}

/// (b′) Structural pop behind a sifting pop: the top a pop publishes for
/// the queue it leaves is the true next one, the least of the root's
/// children.
///
/// Queue 0 holds {10, 40, 25} — 10 at the root, 40 and 25 its children in
/// that order — and queue 1 holds {30}. Two places pop once each,
/// concurrently. Whichever locks queue 0 first takes 10 and publishes 25,
/// so the other, reading the tops after that store, sees 25 against 30
/// and waits for queue 0; one that read 10 before the store finds 25
/// under the lock. Either way the second pop takes 25. Had the first pop
/// published its first child (40) instead of the least one, the second
/// would read 40 against 30 and take 30. The model checks *which* top is
/// published, not *when*: a store after the sift passes it too, since a
/// pop that read the stale 10 finds 25 under the lock and takes it
/// (25 ≤ 30). That the store comes before the sift is what
/// `pool.stale_ref_frac.structural` measures ([`crate::multiqueue`],
/// "Top caching").
pub fn structural_pop_behind_a_sifting_pop_takes_the_true_next() {
    loom::model(|| {
        let sp = Arc::new(RelaxedMultiQueue::<u64>::structural(2));
        sp.land_on(0, [(10, 10), (40, 40), (25, 25)]);
        sp.land_on(1, [(30, 30)]);

        let peer = {
            let sp = Arc::clone(&sp);
            thread::spawn(move || sp.handle(1).pop())
        };
        let own = sp.handle(0).pop();
        let other = peer.join().unwrap();

        let mut popped: Vec<u64> = own.into_iter().chain(other).collect();
        popped.sort_unstable();
        assert_eq!(popped, [10, 25], "the second pop must take the true next");
    });
}

/// (c) Item free list: concurrent multi-node pop, scalar pop, and push
/// never hand the same item to two owners.
///
/// The versioned head (`(version << 32) | index`) is what rejects the
/// classic ABA: a two-node `acquire_batch` walks `next_free` links that a
/// concurrent pop/push cycle may be rewriting, and only the version check
/// keeps the stale walk from committing. All simultaneously-held items
/// must be pairwise distinct and the pool must never have grown past its
/// first block.
pub fn free_list_no_aba_double_pop() {
    loom::model(|| {
        let pool = Arc::new(ItemPool::<u64>::new());
        // Deterministic pre-state: the first acquire allocates the first
        // block (8 items under loom) — one comes back, seven chain onto
        // the free list.
        let first = pool.acquire() as usize;

        // Multi-node pop: the ABA-prone link walk.
        let batcher = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let mut out = Vec::new();
                let got = pool.acquire_batch(&mut out, 2);
                assert_eq!(got, 2, "seven free items satisfy a batch of two");
                (out[0] as usize, out[1] as usize)
            })
        };
        // Pop/push cycle racing the walk: acquire an item, run it through
        // a full take/release lifecycle, putting its index back on the
        // list while the batcher may be mid-walk.
        let cycler = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let p = pool.acquire();
                // SAFETY: freshly acquired, not yet published — exclusive.
                unsafe { (*p).init(0, 0, 9, 99) };
                // SAFETY: still exclusive; publish under position tag 7.
                unsafe { (*p).tag.store(7, Ordering::Release) };
                let taken = unsafe { (*p).try_take(7) }.expect("sole owner wins the take");
                assert_eq!(taken, 99);
                // SAFETY: tag is TAKEN and the payload was moved out.
                unsafe { pool.release(p) };
                p as usize
            })
        };

        let (a, b) = batcher.join().unwrap();
        let recycled = cycler.join().unwrap();
        let d = pool.acquire() as usize;

        // `recycled` went back to the pool, so `d` may legally alias it —
        // but everything still *held* must be distinct.
        let held = [first, a, b, d];
        for (i, x) in held.iter().enumerate() {
            for y in held.iter().skip(i + 1) {
                assert_ne!(x, y, "free list handed one item to two owners");
            }
        }
        let _ = recycled;
        assert_eq!(
            pool.allocated(),
            8,
            "no spurious grow: the list never ran dry"
        );
    });
}

/// (d) MultiQueue: a concurrent push/pop pair neither loses nor
/// duplicates an item, and once the pool is quiescent the exhaustive scan
/// finds a present item on the first pop.
///
/// The cached-top mirror (`u64::MAX` = empty) may be stale while a push
/// or pop is in flight — this model pins the property the scheduler's
/// parking machinery actually needs (see [`crate::multiqueue`] docs): a
/// `None` can only happen in states where retrying observes the missing
/// task, so after both racers join, the very next pop must succeed.
pub fn multiqueue_scan_finds_present_item() {
    loom::model(|| {
        // One place, c = 1 → a single queue: `rng.below(1)` is always 0,
        // keeping the schedule exploration deterministic.
        let mq = Arc::new(RelaxedMultiQueue::<u64>::new(1, 1));
        let mut home = mq.handle(0);
        home.push(1, 0, 10);

        let pusher = {
            let mq = Arc::clone(&mq);
            thread::spawn(move || {
                let mut h = mq.handle(0);
                h.push(2, 0, 20);
            })
        };
        let popper = {
            let mq = Arc::clone(&mq);
            thread::spawn(move || {
                let mut h = mq.handle(0);
                // May be None if the racing push holds the queue lock at
                // every probe — the contract allows that spurious miss.
                h.pop()
            })
        };

        let popped = popper.join().unwrap();
        pusher.join().unwrap();

        // Quiescent: two items entered, at most one left. The exhaustive
        // scan must find a survivor immediately — this is what makes
        // parking on "pop returned None" safe.
        let next = home.pop();
        assert!(
            next.is_some(),
            "exhaustive scan missed a present item in a quiescent pool"
        );
        let mut seen: Vec<u64> = popped.into_iter().chain(next).collect();
        if let Some(rest) = home.pop() {
            seen.push(rest);
        }
        seen.sort_unstable();
        assert_eq!(seen, [10, 20], "push/pop race lost or duplicated an item");
        assert_eq!(
            home.pop(),
            None,
            "pool must be empty after both items popped"
        );
    });
}

/// (d′) MultiQueue insertion buffer: what a place buffered is never out
/// of another place's reach, while it is buffered, while it lands, and
/// after its handle is gone.
///
/// Sibling of (d) on two places at `k = 2`: place 1's first push exists
/// only in its buffer, the second lands the pair on a queue under the
/// buffer lock and one queue lock, the third is buffered again and still
/// is when the handle drops. Place 0's popper races all three: its
/// two-choice reads the top mirrors, its scan try-locks both queues and
/// then place 1's buffer. Each payload must be seen exactly once, and
/// once both have joined the home pop finds every survivor — the one left
/// in the dropped handle's buffer included — on its first scan.
pub fn multiqueue_buffer_is_reachable_by_other_places() {
    loom::model(|| {
        let mq = Arc::new(RelaxedMultiQueue::<u64>::new(2, 1));
        let mut home = mq.handle(0);
        home.push(1, 0, 10);

        let pusher = {
            let mq = Arc::clone(&mq);
            thread::spawn(move || {
                let mut h = mq.handle(1);
                h.push(2, 2, 20);
                h.push(3, 2, 30);
                h.push(4, 2, 40);
            })
        };
        let popper = {
            let mq = Arc::clone(&mq);
            thread::spawn(move || mq.handle(0).pop())
        };

        let popped = popper.join().unwrap();
        pusher.join().unwrap();

        let mut seen: Vec<u64> = popped.into_iter().collect();
        for survivor in seen.len()..4 {
            let next = home.pop();
            assert!(
                next.is_some(),
                "scan missed survivor {survivor} of a quiescent pool"
            );
            seen.extend(next);
        }
        seen.sort_unstable();
        assert_eq!(seen, [10, 20, 30, 40], "buffered push lost or duplicated");
        assert_eq!(home.pop(), None, "pool must be empty after four pops");
    });
}

/// Minimal recording pool handle for the ingress model.
#[derive(Default)]
struct RecHandle {
    pushed: Vec<(u64, u64)>,
}

impl PoolHandle<u64> for RecHandle {
    fn push(&mut self, prio: u64, _k: usize, task: u64) {
        self.pushed.push((prio, task));
    }
    fn pop_entry(&mut self) -> Option<(u64, u64)> {
        None
    }
    fn stats(&self) -> PlaceStats {
        PlaceStats::default()
    }
}

/// (e) Ingress quiescence counters: no interleaving of submit / drain /
/// check ever shows "quiescent" while a task is still uncharged.
///
/// This ports the stress test `counters_never_hide_a_task_mid_transfer`
/// (`src/ingest.rs`) into an exhaustive model: `drain_into` raises the
/// scheduler's `pending` counter *before* lowering the lane's `queued`
/// counter, so a checker reading producers → queued → pending (the
/// module-docs order) can never observe quiescence with the task charged
/// to neither counter. The stress test samples schedules; this model
/// enumerates them.
pub fn ingress_counters_never_hide_a_task() {
    loom::model(|| {
        let lanes: IngressLanes<u64> = IngressLanes::new(1);
        let pending = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(lanes.shared());

        let handle = lanes.handle();
        let producer = thread::spawn(move || {
            let mut h = handle;
            h.submit(7, 4, 7).unwrap();
            // Dropping `h` is the producer's "no more input" signal.
        });
        let drainer = {
            let (shared, pending) = (Arc::clone(&shared), Arc::clone(&pending));
            thread::spawn(move || {
                let mut rec = RecHandle::default();
                let (mut scratch, mut kbatch) = (Vec::new(), Vec::new());
                let mut got = 0;
                // Bounded attempts: a miss (producer still holds the lane
                // lock, or has not submitted yet) is mopped up by the
                // post-join drain below.
                for _ in 0..2 {
                    got += shared.drain_into(
                        0,
                        &mut rec,
                        &mut Outstanding::new(&pending),
                        &mut scratch,
                        &mut kbatch,
                    );
                    if got > 0 {
                        break;
                    }
                }
                got
            })
        };
        let checker = {
            let (shared, pending) = (Arc::clone(&shared), Arc::clone(&pending));
            thread::spawn(move || {
                // One probe per schedule; the explorer places it at every
                // reachable instant, which is what the stress test's spin
                // loop only samples.
                if shared.quiescent() {
                    assert_eq!(
                        pending.load(Ordering::Acquire),
                        1,
                        "quiescence observed before the task was charged to pending"
                    );
                }
            })
        };

        let mut got = drainer.join().unwrap();
        producer.join().unwrap();
        checker.join().unwrap();

        if got == 0 {
            let mut rec = RecHandle::default();
            let (mut scratch, mut kbatch) = (Vec::new(), Vec::new());
            got = shared.drain_into(
                0,
                &mut rec,
                &mut Outstanding::new(&pending),
                &mut scratch,
                &mut kbatch,
            );
        }
        assert_eq!(got, 1, "the submitted task must drain exactly once");
        assert_eq!(pending.load(Ordering::Acquire), 1);
        assert!(shared.quiescent());
    });
}

/// The smallest pool the scheduler can run on: one shared, locked bag that
/// every place pushes into and pops the minimum from — no private
/// component, so a failed pop means the bag was empty when it looked.
struct SharedBag(Arc<Mutex<Vec<(u64, u64)>>>);

impl PoolHandle<u64> for SharedBag {
    fn push(&mut self, prio: u64, _k: usize, task: u64) {
        self.0.lock().push((prio, task));
    }
    fn pop_entry(&mut self) -> Option<(u64, u64)> {
        let mut bag = self.0.lock();
        let best = (0..bag.len()).min_by_key(|&i| bag[i])?;
        Some(bag.swap_remove(best))
    }
    fn stats(&self) -> PlaceStats {
        PlaceStats::default()
    }
}

/// Task `n` spawns task `n - 1`; `done` counts finished executions.
struct CountDown {
    done: AtomicU64,
}

impl TaskExecutor<u64> for CountDown {
    fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
        if task > 0 {
            ctx.spawn(task - 1, 0, task - 1);
        }
        self.done.fetch_add(1, Ordering::SeqCst);
    }
}

/// What the places of models (g) and (h) share: two lanes (which hold the
/// outstanding count and the abort gate), a [`SharedBag`] pool and a
/// [`CountDown`] executor.
struct TwoPlaceRun {
    lanes: IngressLanes<u64>,
    bag: Arc<Mutex<Vec<(u64, u64)>>>,
    faults: Arc<FaultCell>,
    exec: Arc<CountDown>,
}

impl TwoPlaceRun {
    fn new() -> Self {
        TwoPlaceRun {
            lanes: IngressLanes::new(2),
            bag: Arc::new(Mutex::new(Vec::new())),
            faults: Arc::new(FaultCell::new(FaultPolicy::AbortRun)),
            exec: Arc::new(CountDown {
                done: AtomicU64::new(0),
            }),
        }
    }

    /// The body of place `place`: the real [`place_loop`], idle places
    /// parking untimed, which must not return before all `tasks`
    /// executions of the run are done. Returns its own count.
    fn place(&self, place: usize, tasks: u64) -> impl FnOnce() -> u64 {
        let shared = Arc::clone(self.lanes.shared());
        let mut handle = SharedBag(Arc::clone(&self.bag));
        let (faults, exec) = (Arc::clone(&self.faults), Arc::clone(&self.exec));
        move || {
            let (executed, dead) = place_loop(&mut handle, &*exec, &shared, &faults, place);
            assert_eq!(
                exec.done.load(Ordering::SeqCst),
                tasks,
                "place {place} saw the run drained out with a task outstanding"
            );
            assert_eq!(dead, 0);
            executed
        }
    }

    /// The outstanding count, read once the places have joined.
    fn pending(&self) -> u64 {
        self.lanes.shared().pending().load(Ordering::SeqCst)
    }
}

/// (g) Credit ledger: a place never sees the run drained out while a task
/// is poppable or executing, and the run terminates.
///
/// This is a closed-world run's exact shape: [`crate::run_on_kind`]
/// submits the root of a countdown 2 → 1 → 0 through one handle and drops
/// it, and two places run the real [`place_loop`] over the lanes and a
/// shared bag. Place 0 drains the root out of its lane. Whichever place
/// runs two of the three tasks back to back pays for the second spawn out
/// of the credit the first task left — no read-modify-write on the shared
/// count — while the other place may pop that child, fail a pop, check the
/// count, register and park at any point in between. A place leaves its
/// loop only when it has read the settled count as zero with the ingress
/// side quiescent, so `done == 3` on every exit is the safety half (the
/// count never reads zero early: a credit is a unit that is *still in* the
/// count); the liveness half is the explorer's deadlock detector: parks
/// are untimed, so if the settle that takes the count to zero did not wake
/// the parked peer — or never happened — the execution deadlocks. Under
/// `loom_mutate_credit_flush` the settle in front of the termination check
/// is gone, the last credits are never released, and both places park on
/// a count that stays above zero.
pub fn credits_settle_before_quiescence() {
    loom::model(|| {
        const CHAIN: u64 = 2;
        let run = TwoPlaceRun::new();
        // First handle, first lane: 0. No producer is left once it drops,
        // so only the lane and the outstanding count keep the run up.
        run.lanes.handle().submit(CHAIN, 0, CHAIN).unwrap();
        let peer = thread::spawn(run.place(1, CHAIN + 1));
        let own = run.place(0, CHAIN + 1)();
        let other = peer.join().unwrap();
        assert_eq!(own + other, CHAIN + 1, "every task ran exactly once");
        assert_eq!(run.pending(), 0, "all credits settled");
    });
}

/// (h) Join ∥ drain ∥ last finish: a join never sleeps through the drain
/// it waits for, whichever of `queued` and `pending` reaches zero last.
///
/// One task sits in lane 0 and the producer handle stays alive, so the
/// run cannot quiesce. Place 0 (the main thread) drains the lane — charge
/// `pending`, push, *then* lower `queued` — while place 1 may pop the task
/// out of the shared bag, finish it and settle `pending` to zero in the
/// window before `queued` falls; a third thread waits in the drain wait of
/// [`crate::service::PoolService::join`]. In that interleaving the
/// settle's control-slot wake comes while `queued` still reads 1, the
/// joiner re-parks on it, and only `drain_into`'s own wake — fired when
/// its `fetch_sub` takes `queued` to zero — can end the wait. Parks are
/// untimed, so under `loom_mutate_drain_wake` (that wake removed) the
/// joiner sleeps for good, both places park behind it, and the explorer
/// reports the deadlock: PR 14's 1-in-1500 join hang.
pub fn join_wakes_on_the_last_of_drain_and_finish() {
    loom::model(|| {
        let run = TwoPlaceRun::new();
        let mut producer = run.lanes.handle();
        producer.submit(0, 0, 0).unwrap(); // first handle, first lane: 0

        let peer = thread::spawn(run.place(1, 1));
        let joiner = {
            let shared = Arc::clone(run.lanes.shared());
            let exec = Arc::clone(&run.exec);
            thread::spawn(move || {
                assert!(shared.wait_drained(), "a live run drains");
                assert_eq!(
                    exec.done.load(Ordering::SeqCst),
                    1,
                    "join returned before the submitted task had run"
                );
                // The producers' "no more input": the places quiesce and
                // exit.
                drop(producer);
            })
        };
        let own = run.place(0, 1)();
        let other = peer.join().unwrap();
        joiner.join().unwrap();
        assert_eq!(own + other, 1, "the submitted task ran exactly once");
        assert_eq!(run.pending(), 0, "all credits settled");
    });
}

/// (i) Centralized window walk: two pushers resuming from their walk hints
/// and a concurrent popper lose no task, deliver none twice, and the tail
/// only ever passes full windows.
///
/// A real [`CentralizedKPriority`] with k = kmax = 3 (segments are 8 slots
/// under the model). On the main thread each pusher places one task, which
/// leaves it a hint into the window `[0, 3)` with one slot still free (and
/// fills its item cache, so the racing pushes touch no shared free list).
/// Then both push concurrently — a scalar push and a one-element
/// `push_batch` each, six tasks in all — so every placement starts from a
/// hint: for the current window (resume after the slot last filled; both
/// may go for the one free slot and one loses the slot CAS), for a window
/// the walk has seen full (`left == 0`: straight to the tail CAS, which
/// only one wins), or for a tail the peer has moved on since. The popper
/// pops twice while they run: its `ingest` panics on a null slot below the
/// tail, which is how a tail advanced over a window with a hole — a hint
/// claiming a slot full that is not — would show. Afterwards every handle
/// is drained (an owner's local queue holds a reference to everything it
/// pushed): each of the six tasks must come out exactly once — a slot CAS
/// that overwrote an item would lose one, a walk that placed an item twice
/// would double one — the drain's scans re-check every slot below the
/// final tail, and six pushes fill exactly two windows, so the tail must
/// have passed exactly the first.
pub fn centralized_window_walk_exactly_once() {
    loom::model(|| {
        const K: usize = 3;
        let pool = Arc::new(CentralizedKPriority::<u64>::new(3, K as u32));
        let mut popper = pool.handle(2);
        let pusher = |place: usize, first: u64| {
            let mut h = pool.handle(place);
            h.push(first, K, first);
            move || {
                h.push(first + 1, K, first + 1);
                h.push_batch(K, &mut vec![(first + 2, first + 2)]);
                h
            }
        };
        let (a, b) = (pusher(0, 10), pusher(1, 20));
        let (a, b) = (thread::spawn(a), thread::spawn(b));
        let mut taken: Vec<u64> = (0..2).filter_map(|_| popper.pop()).collect();

        let mut handles = [a.join().unwrap(), b.join().unwrap(), popper];
        for h in handles.iter_mut() {
            taken.extend(std::iter::from_fn(|| h.pop()));
        }
        taken.sort_unstable();
        assert_eq!(
            taken,
            [10, 11, 12, 20, 21, 22],
            "each task taken exactly once"
        );
        assert_eq!(pool.tail(), K as u64, "six pushes fill two windows");
    });
}
