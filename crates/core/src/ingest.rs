//! Sharded, bounded ingestion lanes: feeding tasks into a *running* pool.
//!
//! The paper's runtime (§2) is closed-world — every root is known when
//! [`crate::run_on_kind`] starts and termination is a single
//! outstanding-task counter hitting zero. A pool that serves external
//! traffic needs the opposite: producers that are **not** workers must be
//! able to submit prioritized tasks while the pool is draining, without
//! funnelling through one contended entry point — and without a fast
//! producer being able to queue unboundedly ahead of the consumers.
//!
//! Every run goes through lanes, and the lanes hold what the run's places
//! share: the outstanding count and the abort gate. A closed-world run is
//! the special case of lanes whose one producer submitted the roots and
//! dropped its handle before the workers started; it ends exactly like a
//! streamed run whose producers are gone.
//!
//! * [`IngressLanes`] — one MPSC lane per place, each with an optional
//!   **capacity** ([`IngressLanes::with_capacity`]). Producers append under
//!   a short per-lane lock; the place's worker moves whole lane contents
//!   into its pool handle at the *pop boundary* (between task executions),
//!   so the scheduler-module ordering argument is untouched: no task batch
//!   is ever popped ahead of execution, and a freshly spawned
//!   better-priority task can never get stuck behind pre-popped ingested
//!   work. The paper's k-priority structures assume bounded ρ-relaxed
//!   buffering at every place; a bounded lane extends that stance to the
//!   producer/consumer boundary.
//! * [`IngestHandle`] — a cloneable producer handle. Submissions are
//!   round-robined across lanes so ingestion itself shards; batch
//!   submissions ride one lane (one lock) and are charged element-wise
//!   against the `k`/ρ bounds when drained, exactly like
//!   [`crate::scheduler::SpawnCtx::spawn_batch`].
//!
//! # Backpressure
//!
//! With a capacity set, every submission path is total — nothing is ever
//! silently dropped:
//!
//! * [`IngestHandle::try_submit`] / [`IngestHandle::try_submit_batch`]
//!   *shed*: when every lane is full (or the pool aborted / shut down)
//!   they return a typed [`SubmitError`] **handing the rejected items
//!   back** to the caller, who may retry, reroute, or drop deliberately.
//! * [`IngestHandle::submit`] / [`IngestHandle::submit_batch`] *block*:
//!   they park the producer on the shared space slot until a worker's
//!   lane drain frees room (or the pool aborts). Blocking batch submits
//!   larger than the lane capacity are split into capacity-sized chunks
//!   internally.
//!
//! All four enter a lane through one function, `IngressShared::place`
//! (gate, round-robin scan, capacity test, fill and `queued` bump inside
//! the lane's critical section, targeted worker wake). The shedding
//! flavors are one call of it; the blocking flavors repeat it until it
//! stops answering `Full`, inside [`crate::park::ParkSlot::wait_until`] on
//! the space slot. A batch is offered tail first and leaves the caller's
//! vector only inside the accepting lane's critical section, so whatever
//! a failed batch submit leaves behind is the batch's untouched prefix,
//! in order.
//!
//! Capacity bounds *lane occupancy*: a lane whose contents were just
//! swapped out by a drain has room again even while the drained tasks are
//! still being pushed into the pool (they are accounted by the pending
//! counter at that point, not the lane).
//!
//! # Quiescence
//!
//! With external producers, "counter is zero" is no longer termination —
//! a producer might be about to submit. Termination generalizes to
//! **quiescence**: the pending counter is zero **and** every lane is empty
//! **and** every [`IngestHandle`] has been dropped (a producer refcount).
//! The refcount makes the open world closable: dropping the last handle is
//! the producers' collective "no more input" signal, after which the usual
//! drain argument applies.
//!
//! The check order matters and is fixed in `IngressShared::quiescent`:
//! producers first, then the queued count, then (in the scheduler) the
//! pending counter. Under the usage contract — every producer handle is
//! minted **before** the streamed run starts, and new handles come only
//! from cloning live ones while the run is in flight — a producer count
//! that reads zero can never rise again, so all queued increments have
//! happened (the `queued` increment sits *inside* the lane critical
//! section of the submitting handle, which the producer refcount keeps
//! live); a lane→pool transfer charges `pending` *before* decrementing
//! `queued`, so a task is always visible to at least one of the two
//! counters; reading `queued == 0` after `producers == 0` and
//! `pending == 0` last therefore proves nothing is left anywhere. The
//! `counters_never_hide_a_task_mid_transfer` test races all three roles
//! and asserts exactly this invariant.
//!
//! The pending counter is the scheduler's **credit-settled** outstanding
//! count (see the Termination bullet of [`crate::scheduler`]): it reads
//! the outstanding tasks *plus* the credits places have not settled yet —
//! never less than the truth, exact once every place has failed a pop.
//! "Charges `pending`" above therefore means: the draining place covers
//! the transfer from its credits — units that have been in the counter
//! since the tasks they once stood for were charged, and were never
//! taken out — and raises the counter for the rest, all before the push
//! and before `queued` falls. Either way the units are in the counter
//! before the task leaves the lane's count, which is all the read-order
//! argument uses; an over-count can only delay the zero reading, to the
//! settle of the place that holds the credits.
//!
//! # Parking and wake events
//!
//! Idle workers, join waiters, and blocked producers *park* (see
//! [`crate::park`]) instead of polling, so every state transition that
//! could unblock someone must produce a wake. The complete event set:
//!
//! | event                                  | wakes |
//! |----------------------------------------|-------|
//! | submission into lane `l`               | worker `l` (targeted) |
//! | lane drain transferred `n > 0` tasks   | blocked producers (space freed) + idle workers (tasks became stealable/spyable; `queued` fell, so quiescence may hold) |
//! | lane drain took `queued` to zero       | control slot (join waiters: the other half of their `queued == 0 ∧ pending == 0` predicate) |
//! | in-pool spawn                          | idle workers (gated broadcast) |
//! | a place's settle takes the pending counter to zero | control slot (join waiters); all workers if also quiescent |
//! | producer refcount reaches zero         | everything (workers re-check quiescence) |
//! | abort / shutdown                       | everything |
//!
//! A finished task wakes nobody by itself: it becomes a credit of its
//! place, and the place settles — one `fetch_sub`, then the wakes of the
//! fifth row if that reached zero — when its next pop fails, which is
//! before it checks the counter and before it parks. The wait predicate
//! of a join has two variables, so it has two wake rows (third and
//! fifth): whichever of `queued` and the pending counter reaches zero
//! *last* is the write that makes the predicate true, and both writers
//! wake the control slot — a pending → 0 wake that fires while `queued`
//! is still up is not repeated, so without the third row
//! [`crate::service::PoolService::join`] could sleep forever.
//!
//! Producers and join waiters wait through
//! [`crate::park::ParkSlot::wait_until`] and workers through the same
//! register → re-check → park steps written out once in
//! `SpawnCtx::park_idle` (the [`crate::park`] table says why), so none of
//! these can be lost to the check-then-sleep race.
//!
//! [`IngressLanes::handle`] *can* re-arm a drained set of lanes (the count
//! goes 0 → 1 again); that is how the same lanes feed a *subsequent*
//! streamed run. What the contract rules out is racing such a mint against
//! a run that is already terminating — see [`IngressLanes::handle`]. A
//! run that **aborts** (task panic, service drop) instead poisons the
//! lanes: further submissions fail with [`SubmitError::Aborted`] and
//! blocked producers are woken into that error, so no producer can park
//! forever against workers that no longer exist.

use crate::park::Parker;
use crate::pool::PoolHandle;
use crate::scheduler::Outstanding;
use crate::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::Mutex;
use crossbeam_utils::CachePadded;
use std::sync::Arc;

/// One queued submission: priority, relaxation bound, payload.
type Entry<T> = (u64, usize, T);

/// One MPSC lane: producer-locked, cache-line-padded against its
/// neighbours.
type Lane<T> = CachePadded<Mutex<Vec<Entry<T>>>>;

/// A rejected submission. The payload is always handed back — `T` is the
/// task for scalar [`IngestHandle::try_submit`], `()` for batch variants
/// (whose items stay in the caller's vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError<T = ()> {
    /// Every lane is at capacity; a later drain will free room (retry, or
    /// use the blocking [`IngestHandle::submit`]).
    Full(T),
    /// The pool aborted — a task panicked or the service was dropped
    /// without shutdown. The lanes are permanently poisoned; queued tasks
    /// are discarded when the lanes drop.
    Aborted(T),
    /// The service shut down; no worker will ever drain these lanes again.
    ShutDown(T),
}

impl<T> SubmitError<T> {
    /// The rejected payload, handed back to the caller.
    pub fn into_task(self) -> T {
        match self {
            SubmitError::Full(t) | SubmitError::Aborted(t) | SubmitError::ShutDown(t) => t,
        }
    }

    /// This error without its payload (for uniform matching/printing).
    pub fn kind(&self) -> SubmitError {
        match self {
            SubmitError::Full(_) => SubmitError::Full(()),
            SubmitError::Aborted(_) => SubmitError::Aborted(()),
            SubmitError::ShutDown(_) => SubmitError::ShutDown(()),
        }
    }

    /// `true` for [`SubmitError::Full`] — the only retryable rejection.
    pub fn is_full(&self) -> bool {
        matches!(self, SubmitError::Full(_))
    }
}

impl<T> std::fmt::Display for SubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::Full(_) => "ingress lanes full (capacity reached; task handed back)",
            SubmitError::Aborted(_) => "pool aborted (task handed back)",
            SubmitError::ShutDown(_) => "pool shut down (task handed back)",
        })
    }
}

impl<T: std::fmt::Debug> std::error::Error for SubmitError<T> {}

/// Lifecycle gate values (see [`IngressShared::gate`]).
const GATE_OPEN: u8 = 0;
const GATE_ABORTED: u8 = 1;
const GATE_SHUT_DOWN: u8 = 2;

/// Shared state behind [`IngressLanes`] and every [`IngestHandle`].
pub(crate) struct IngressShared<T: Send> {
    /// One MPSC lane per place; workers drain their own index.
    lanes: Box<[Lane<T>]>,
    /// Per-lane occupancy bound; `None` = unbounded.
    capacity: Option<usize>,
    /// Tasks submitted but not yet transferred into the pool. Updated
    /// *inside* the submitting handle's lane critical section; decremented
    /// only after the pool push (the transfer charges the scheduler's
    /// pending counter first, so no task is ever invisible to both
    /// counters).
    queued: AtomicU64,
    /// Live [`IngestHandle`] count. While a streamed run is in flight,
    /// zero is absorbing *by contract*: clones need a live handle, and
    /// minting fresh handles mid-run is ruled out (see
    /// [`IngressLanes::handle`]); the lanes object itself is not a
    /// producer.
    producers: AtomicUsize,
    /// Round-robin seed so successive handles start on different lanes.
    next_lane: AtomicUsize,
    /// The scheduler's credit-settled outstanding-task count (see the
    /// Termination bullet of [`crate::scheduler`]), shared by every place
    /// of the run or service these lanes feed.
    pending: CachePadded<AtomicU64>,
    /// Lifecycle gate: open / aborted / shut down. Monotonic — once
    /// raised it never clears; submissions check it first, and
    /// [`GATE_ABORTED`] is the run's abort flag.
    gate: AtomicU8,
    /// The parking fabric shared by workers, join waiters, and blocked
    /// producers (see the module-docs event table).
    parker: Parker,
}

impl<T: Send> IngressShared<T> {
    /// `true` when no producer can ever submit again and every lane has
    /// been transferred into the pool. Combined with `pending == 0` (read
    /// *after* this, see module docs) this is the termination condition.
    pub(crate) fn quiescent(&self) -> bool {
        self.producers.load(Ordering::Acquire) == 0 && self.queued.load(Ordering::Acquire) == 0
    }

    /// Cheap "is there anything to drain anywhere" hint.
    pub(crate) fn queued_hint(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// The outstanding-task count of the run these lanes feed.
    pub(crate) fn pending(&self) -> &AtomicU64 {
        &self.pending
    }

    /// `true` once the run aborted ([`IngressShared::abort_and_wake`]).
    pub(crate) fn aborted(&self) -> bool {
        self.gate.load(Ordering::Acquire) == GATE_ABORTED
    }

    /// The drain wait behind [`crate::service::PoolService::join`]: waits
    /// on the control slot until everything submitted so far has been
    /// executed — `queued == 0 ∧ pending == 0` — and answers `true`, or
    /// `false` as soon as the run has aborted. Both writers that can make
    /// the predicate true wake the control slot (module docs, third and
    /// fifth event rows).
    pub(crate) fn wait_drained(&self) -> bool {
        self.parker.control().wait_until(|| {
            if self.aborted() {
                return Some(false);
            }
            let drained = self.queued.load(Ordering::Acquire) == 0
                && self.pending.load(Ordering::Acquire) == 0;
            // Looked at again after the drain: a panicking task records
            // its failure and raises the gate before its unit can leave
            // the count, so a drain caused by a panic shows here.
            drained.then(|| !self.aborted())
        })
    }

    /// The parking fabric (scheduler and service side).
    pub(crate) fn parker(&self) -> &Parker {
        &self.parker
    }

    /// Aborts the run: poisons the lanes and wakes everything — parked
    /// workers exit, join waiters return `false`, blocked producers fail
    /// with [`SubmitError::Aborted`] instead of parking against workers
    /// that are gone.
    pub(crate) fn abort_and_wake(&self) {
        self.raise_gate(GATE_ABORTED);
    }

    /// Marks the lanes shut down (after the service's workers exited) and
    /// wakes any straggler.
    pub(crate) fn shut_down_and_wake(&self) {
        self.raise_gate(GATE_SHUT_DOWN);
    }

    /// Raises the gate from open to `state` and wakes everything. The
    /// first state raised stays: an aborted run's shutdown still reports
    /// the abort, and a shut-down service cannot abort.
    fn raise_gate(&self, state: u8) {
        let _ = self
            .gate
            .compare_exchange(GATE_OPEN, state, Ordering::AcqRel, Ordering::Relaxed);
        self.parker.wake_all();
    }

    /// The one way into a lane. Offers `n` entries to the lane under
    /// `cursor` and then to every other lane in round-robin order; the
    /// first one with room for all `n` gets them from `fill`, inside its
    /// critical section, and its worker is woken. `payload` goes to `fill`
    /// on acceptance and comes back in the error otherwise ([`Full`] when
    /// no lane has room, [`Aborted`]/[`ShutDown`] once the gate is up).
    ///
    /// [`Full`]: SubmitError::Full
    /// [`Aborted`]: SubmitError::Aborted
    /// [`ShutDown`]: SubmitError::ShutDown
    fn place<X>(
        &self,
        cursor: &mut usize,
        n: usize,
        payload: X,
        fill: impl FnOnce(&mut Vec<Entry<T>>, X),
    ) -> Result<(), SubmitError<X>> {
        match self.gate.load(Ordering::Acquire) {
            GATE_ABORTED => return Err(SubmitError::Aborted(payload)),
            GATE_SHUT_DOWN => return Err(SubmitError::ShutDown(payload)),
            _ => {}
        }
        let n_lanes = self.lanes.len();
        let start = *cursor;
        *cursor = (start + 1) % n_lanes;
        for idx in (start..n_lanes).chain(0..start) {
            let mut lane = self.lanes[idx].lock();
            if self
                .capacity
                .is_some_and(|cap| cap.saturating_sub(lane.len()) < n)
            {
                continue;
            }
            fill(&mut lane, payload);
            // Inside the lane critical section: a quiescence check can
            // never observe the queued count and the lane contents out of
            // step by more than the producer refcount already covers.
            self.queued.fetch_add(n as u64, Ordering::AcqRel);
            drop(lane);
            self.parker.wake_worker(idx);
            return Ok(());
        }
        Err(SubmitError::Full(payload))
    }

    /// Moves the contents of lane `place` into `handle`, charging the
    /// draining place's share of the pending counter (`outstanding`:
    /// credits first, the shared counter for the rest) before any task
    /// becomes poppable.
    ///
    /// Tasks are pushed through [`PoolHandle::push_batch`] in maximal
    /// consecutive same-`k` runs, so a drained batch is charged
    /// element-wise against the `k`/ρ bounds exactly as the equivalent
    /// sequence of spawns would be. Uses `try_lock`: if a producer holds
    /// the lane, the worker retries on its next pop boundary instead of
    /// blocking (the queued count keeps termination honest meanwhile).
    ///
    /// A transfer of `n > 0` tasks is a wake event twice over: the lane
    /// has room again (blocked producers) and the pool gained tasks that
    /// other places may steal or spy (idle workers). One that empties the
    /// lanes is a third: join waiters sleep on `queued == 0 ∧ pending ==
    /// 0`, and the pending half may already have fired its wake.
    ///
    /// `scratch` and `kbatch` are caller-owned reusable buffers; both are
    /// left empty. Returns the number of tasks transferred.
    pub(crate) fn drain_into(
        &self,
        place: usize,
        handle: &mut dyn PoolHandle<T>,
        outstanding: &mut Outstanding<'_>,
        scratch: &mut Vec<Entry<T>>,
        kbatch: &mut Vec<(u64, T)>,
    ) -> u64 {
        debug_assert!(scratch.is_empty() && kbatch.is_empty());
        {
            let Some(mut lane) = self.lanes[place].try_lock() else {
                return 0;
            };
            if lane.is_empty() {
                return 0;
            }
            std::mem::swap(&mut *lane, scratch);
        }
        let n = scratch.len() as u64;
        // Pending is charged before the tasks are poppable *and* before
        // queued falls — the task stays visible to the termination check
        // throughout the transfer.
        outstanding.charge(n);
        let mut run_k: Option<usize> = None;
        for (prio, k, task) in scratch.drain(..) {
            if run_k != Some(k) {
                if let Some(prev_k) = run_k.take() {
                    handle.push_batch(prev_k, kbatch);
                }
                run_k = Some(k);
            }
            kbatch.push((prio, task));
        }
        if let Some(prev_k) = run_k {
            handle.push_batch(prev_k, kbatch);
        }
        let emptied = self.queued.fetch_sub(n, Ordering::AcqRel) == n;
        // The lane has room again (only bounded lanes can have producers
        // parked on the space slot) and the pool has new (possibly
        // stealable) tasks.
        if self.capacity.is_some() {
            self.parker.space().wake_if_waiting();
        }
        self.parker.wake_workers_if_idle();
        // `queued` just reached zero: if the tasks of this transfer are
        // already finished and settled, the pending → 0 wake has come and
        // gone while `queued` still read nonzero, and this is the write
        // that makes a join's predicate true.
        // (`--cfg loom_mutate_drain_wake` leaves this wake out;
        // `tests/loom_models.rs` asserts the join model then deadlocks.)
        if emptied && !cfg!(loom_mutate_drain_wake) {
            self.parker.control().wake_if_waiting();
        }
        n
    }
}

/// The per-place ingress lanes of one pool run (or service), and the state
/// that run's places share: its outstanding-task count and its abort gate.
///
/// Create one with as many lanes as the pool has places, mint
/// [`IngestHandle`]s for every producer **before** starting the streamed
/// run (a run that observes zero producers and empty lanes terminates),
/// then hand it to [`crate::run_stream_on_kind`]. [`crate::run_on_kind`]
/// builds its own, with the roots already submitted and no producer left;
/// a [`crate::PoolService`] owns its lanes and hands out handles with
/// [`crate::PoolService::ingest_handle`].
///
/// A run that aborts leaves its lanes poisoned for good: submissions fail
/// with [`SubmitError::Aborted`], and a later run over the same lanes
/// exits at once.
///
/// Tasks still sitting in lanes when the lanes (and all handles) are
/// dropped are dropped exactly once, like any owned value — lanes store
/// tasks by value and never hand out raw pointers.
pub struct IngressLanes<T: Send> {
    shared: Arc<IngressShared<T>>,
}

impl<T: Send> IngressLanes<T> {
    /// Creates `lanes` empty, **unbounded** ingress lanes (one per place
    /// of the pool this will feed).
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        Self::with_capacity(lanes, None)
    }

    /// Creates `lanes` empty ingress lanes holding at most `capacity`
    /// tasks **each** (`None` = unbounded). With a capacity set,
    /// [`IngestHandle::try_submit`] sheds when every lane is full and
    /// [`IngestHandle::submit`] blocks until a drain frees room.
    ///
    /// # Panics
    /// Panics if `lanes` is zero or `capacity` is `Some(0)` (nothing could
    /// ever be submitted).
    pub fn with_capacity(lanes: usize, capacity: Option<usize>) -> Self {
        assert!(lanes > 0, "IngressLanes needs at least one lane");
        assert!(
            capacity != Some(0),
            "lane capacity must be at least 1 (use None for unbounded)"
        );
        let lane_vec = (0..lanes)
            .map(|_| CachePadded::new(Mutex::new(Vec::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        IngressLanes {
            shared: Arc::new(IngressShared {
                lanes: lane_vec,
                capacity,
                queued: AtomicU64::new(0),
                producers: AtomicUsize::new(0),
                next_lane: AtomicUsize::new(0),
                pending: CachePadded::new(AtomicU64::new(0)),
                gate: AtomicU8::new(GATE_OPEN),
                parker: Parker::new(lanes),
            }),
        }
    }

    /// Number of lanes (== places of the pool this feeds).
    pub fn num_lanes(&self) -> usize {
        self.shared.lanes.len()
    }

    /// The per-lane capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity
    }

    /// Mints a new producer handle, raising the producer refcount. The
    /// handle starts on a different lane than the previous one so
    /// producers spread across lanes even if each submits little.
    ///
    /// **Contract:** mint every producer's handle *before* the streamed
    /// run it feeds starts (mid-run producers clone a live handle
    /// instead). A run terminates the moment it observes zero producers
    /// and nothing queued; a handle minted concurrently with that
    /// observation re-arms the lanes for a *subsequent* run — its
    /// submissions stay queued (visible via [`IngressLanes::queued`]) and
    /// are only drained by the next [`crate::run_stream_on_kind`] over
    /// these lanes, or dropped with them.
    pub fn handle(&self) -> IngestHandle<T> {
        self.shared.producers.fetch_add(1, Ordering::AcqRel);
        let lane = self.shared.next_lane.fetch_add(1, Ordering::Relaxed) % self.num_lanes();
        IngestHandle {
            shared: Arc::clone(&self.shared),
            lane,
        }
    }

    /// Tasks submitted but not yet transferred into a pool.
    pub fn queued(&self) -> u64 {
        self.shared.queued.load(Ordering::Acquire)
    }

    /// Live producer handles.
    pub fn producers(&self) -> usize {
        self.shared.producers.load(Ordering::Acquire)
    }

    /// The shared state, for the scheduler/service side.
    pub(crate) fn shared(&self) -> &Arc<IngressShared<T>> {
        &self.shared
    }
}

/// A producer's capability to submit tasks into a running pool.
///
/// Cloneable; each clone counts toward the producer refcount that gates
/// streamed termination (see module docs). Drop every handle when the
/// producer side is done — a retained handle keeps
/// [`crate::run_stream_on_kind`] (deliberately) waiting for more input.
///
/// Submission comes in shedding ([`IngestHandle::try_submit`] /
/// [`IngestHandle::try_submit_batch`]) and blocking
/// ([`IngestHandle::submit`] / [`IngestHandle::submit_batch`]) flavors —
/// blocking is the shedding call repeated under a wait — and on unbounded
/// lanes the two coincide (only abort/shutdown can fail).
pub struct IngestHandle<T: Send> {
    shared: Arc<IngressShared<T>>,
    /// Lane cursor, advanced round-robin per submission.
    lane: usize,
}

impl<T: Send> IngestHandle<T> {
    /// Attempts to submit one task with priority `prio` (smaller =
    /// higher) and relaxation bound `k` (§2.2). Tries the next
    /// round-robin lane first, then every other lane; if all are at
    /// capacity (or the pool aborted / shut down) the task is handed
    /// back in the error.
    pub fn try_submit(&mut self, prio: u64, k: usize, task: T) -> Result<(), SubmitError<T>> {
        self.shared.place(&mut self.lane, 1, task, |lane, task| {
            lane.push((prio, k, task))
        })
    }

    /// Submits one task, **blocking** (parking, not spinning) while every
    /// lane is at capacity until a worker's drain frees room. Returns the
    /// task back in `Err` only if the pool aborted or shut down — a live
    /// pool always accepts eventually.
    pub fn submit(&mut self, prio: u64, k: usize, task: T) -> Result<(), SubmitError<T>> {
        let (shared, cursor) = (&*self.shared, &mut self.lane);
        let mut task = Some(task);
        shared.parker.space().wait_until(|| {
            let offered = task.take().expect("a resolved submit is not retried");
            match shared.place(cursor, 1, offered, |lane, task| lane.push((prio, k, task))) {
                Err(SubmitError::Full(back)) => {
                    task = Some(back);
                    None
                }
                done => Some(done),
            }
        })
    }

    /// Attempts to submit a batch of `(prio, task)` pairs sharing the
    /// relaxation bound `k`. The whole batch rides one lane — one lock
    /// acquisition — and is later transferred into the pool with one
    /// [`PoolHandle::push_batch`], each element charged individually
    /// against the `k`/ρ bounds.
    ///
    /// All-or-nothing: on success `batch` is drained; on error it is
    /// untouched (every rejected item handed back). A batch larger than
    /// the lane capacity can never fit and always returns
    /// [`SubmitError::Full`] — chunk it, or use the blocking
    /// [`IngestHandle::submit_batch`], which chunks internally.
    pub fn try_submit_batch(
        &mut self,
        k: usize,
        batch: &mut Vec<(u64, T)>,
    ) -> Result<(), SubmitError> {
        if batch.is_empty() {
            return Ok(());
        }
        self.shared
            .place(&mut self.lane, batch.len(), (), |lane, ()| {
                lane.extend(batch.drain(..).map(|(prio, task)| (prio, k, task)))
            })
    }

    /// Submits a batch, **blocking** while the lanes are full. Batches
    /// larger than the lane capacity go in capacity-sized chunks, taken
    /// from the back of `batch` and leaving it only inside the accepting
    /// lane's critical section. On `Err` (abort/shutdown) what is left in
    /// `batch` is exactly what was not submitted: its untouched prefix,
    /// in the original order.
    pub fn submit_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) -> Result<(), SubmitError> {
        let (shared, cursor) = (&*self.shared, &mut self.lane);
        let chunk_cap = shared.capacity.unwrap_or(usize::MAX);
        shared.parker.space().wait_until(|| {
            while !batch.is_empty() {
                let n = batch.len().min(chunk_cap);
                let tail = batch.len() - n;
                match shared.place(cursor, n, (), |lane, ()| {
                    lane.extend(batch.drain(tail..).map(|(prio, task)| (prio, k, task)))
                }) {
                    Ok(()) => {}
                    Err(SubmitError::Full(())) => return None,
                    Err(gone) => return Some(Err(gone)),
                }
            }
            Some(Ok(()))
        })
    }
}

impl<T: Send> Clone for IngestHandle<T> {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::AcqRel);
        let lane = self.shared.next_lane.fetch_add(1, Ordering::Relaxed) % self.shared.lanes.len();
        IngestHandle {
            shared: Arc::clone(&self.shared),
            lane,
        }
    }
}

impl<T: Send> Drop for IngestHandle<T> {
    fn drop(&mut self) {
        if self.shared.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Producer count hit zero — a quiescence ingredient flipped;
            // parked workers and join waiters must re-check.
            self.shared.parker.wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PlaceStats;

    /// Minimal recording handle: pushes append, pops unsupported.
    #[derive(Default)]
    struct RecordingHandle {
        pushed: Vec<(u64, usize, u64)>,
        batches: Vec<usize>,
    }

    impl PoolHandle<u64> for RecordingHandle {
        fn push(&mut self, prio: u64, k: usize, task: u64) {
            self.pushed.push((prio, k, task));
        }
        fn pop_entry(&mut self) -> Option<(u64, u64)> {
            None
        }
        fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, u64)>) {
            self.batches.push(batch.len());
            for (prio, task) in batch.drain(..) {
                self.pushed.push((prio, k, task));
            }
        }
        fn stats(&self) -> PlaceStats {
            PlaceStats::default()
        }
    }

    /// One lane drain the way a place with no credits in hand does it:
    /// the whole transfer is charged to `pending`.
    fn drain(
        shared: &IngressShared<u64>,
        place: usize,
        rec: &mut RecordingHandle,
        pending: &AtomicU64,
    ) -> u64 {
        let (mut scratch, mut kbatch) = (Vec::new(), Vec::new());
        shared.drain_into(
            place,
            rec,
            &mut Outstanding::new(pending),
            &mut scratch,
            &mut kbatch,
        )
    }

    #[test]
    fn producer_refcount_tracks_handles() {
        let lanes: IngressLanes<u64> = IngressLanes::new(2);
        assert_eq!(lanes.producers(), 0);
        let h1 = lanes.handle();
        let h2 = h1.clone();
        assert_eq!(lanes.producers(), 2);
        drop(h1);
        assert_eq!(lanes.producers(), 1);
        drop(h2);
        assert_eq!(lanes.producers(), 0);
        assert!(lanes.shared().quiescent());
    }

    #[test]
    fn submissions_round_robin_across_lanes() {
        let lanes: IngressLanes<u64> = IngressLanes::new(4);
        let mut h = lanes.handle();
        for i in 0..8u64 {
            h.submit(i, 4, i).unwrap();
        }
        assert_eq!(lanes.queued(), 8);
        // Every lane received exactly two scalar submissions.
        for lane in 0..4 {
            assert_eq!(lanes.shared().lanes[lane].lock().len(), 2, "lane {lane}");
        }
    }

    #[test]
    fn batch_rides_one_lane_and_drains_grouped_by_k() {
        let lanes: IngressLanes<u64> = IngressLanes::new(2);
        let mut h = lanes.handle();
        let mut batch = vec![(1u64, 10u64), (2, 20)];
        h.submit_batch(8, &mut batch).unwrap();
        assert!(batch.is_empty());
        // A second batch with a different k lands on the other lane; put it
        // on the same lane by submitting twice (round-robin wraps).
        let mut batch = vec![(3u64, 30u64)];
        h.submit_batch(16, &mut batch).unwrap();
        let mut b2 = vec![(4u64, 40u64)];
        h.submit_batch(16, &mut b2).unwrap();
        assert_eq!(lanes.queued(), 4);

        let pending = AtomicU64::new(0);
        let mut rec = RecordingHandle::default();
        let n0 = drain(lanes.shared(), 0, &mut rec, &pending);
        let n1 = drain(lanes.shared(), 1, &mut rec, &pending);
        assert_eq!((n0, n1), (3, 1), "round-robin: lanes 0, 1, 0");
        assert_eq!(pending.load(Ordering::Relaxed), 4);
        assert_eq!(lanes.queued(), 0);
        let mut tasks: Vec<(u64, usize, u64)> = rec.pushed.clone();
        tasks.sort();
        assert_eq!(
            tasks,
            vec![(1, 8, 10), (2, 8, 20), (3, 16, 30), (4, 16, 40)]
        );
        // Lane 0 held the k=8 pair then the second k=16 single; the k-run
        // grouping must split exactly at the k change, never merge across
        // it: lane 0 drains as batches [2, 1], lane 1 as [1].
        assert_eq!(rec.batches, vec![2, 1, 1]);
    }

    #[test]
    fn drain_reports_empty_lane_as_zero() {
        let lanes: IngressLanes<u64> = IngressLanes::new(1);
        let pending = AtomicU64::new(0);
        let mut rec = RecordingHandle::default();
        assert_eq!(drain(lanes.shared(), 0, &mut rec, &pending), 0);
        assert_eq!(pending.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn quiescent_requires_both_empty_lanes_and_no_producers() {
        let lanes: IngressLanes<u64> = IngressLanes::new(1);
        assert!(lanes.shared().quiescent());
        let mut h = lanes.handle();
        assert!(
            !lanes.shared().quiescent(),
            "live producer blocks quiescence"
        );
        h.submit(1, 4, 1).unwrap();
        drop(h);
        assert!(
            !lanes.shared().quiescent(),
            "queued task blocks quiescence even with no producers"
        );
        let pending = AtomicU64::new(0);
        let mut rec = RecordingHandle::default();
        drain(lanes.shared(), 0, &mut rec, &pending);
        assert!(lanes.shared().quiescent());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = IngressLanes::<u64>::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = IngressLanes::<u64>::with_capacity(2, Some(0));
    }

    #[test]
    fn try_submit_sheds_at_capacity_and_hands_the_task_back() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(2, Some(2));
        let mut h = lanes.handle();
        for i in 0..4u64 {
            h.try_submit(i, 4, 100 + i).unwrap();
        }
        // Both lanes now hold 2 tasks each: every further scalar submit
        // must shed, handing back exactly the rejected payload.
        match h.try_submit(9, 4, 999) {
            Err(SubmitError::Full(task)) => assert_eq!(task, 999),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(lanes.queued(), 4, "a shed submission must not count");
        // A batch that cannot fit any lane is handed back untouched.
        let mut batch = vec![(1u64, 7u64), (2, 8)];
        assert_eq!(
            h.try_submit_batch(4, &mut batch),
            Err(SubmitError::Full(()))
        );
        assert_eq!(batch, vec![(1, 7), (2, 8)], "batch handed back intact");
        // Draining one lane frees room for exactly the lane capacity.
        let pending = AtomicU64::new(0);
        let mut rec = RecordingHandle::default();
        assert_eq!(drain(lanes.shared(), 0, &mut rec, &pending), 2);
        assert_eq!(h.try_submit_batch(4, &mut batch), Ok(()));
        assert!(batch.is_empty());
        // Accepted multiset is exactly {100..104} ∪ {7, 8}: nothing lost,
        // the shed 999 never entered.
        while drain(lanes.shared(), 0, &mut rec, &pending)
            + drain(lanes.shared(), 1, &mut rec, &pending)
            > 0
        {}
        let mut got: Vec<u64> = rec.pushed.iter().map(|&(_, _, t)| t).collect();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8, 100, 101, 102, 103]);
    }

    #[test]
    fn oversized_batch_is_full_even_on_empty_lanes() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(2, Some(2));
        let mut h = lanes.handle();
        let mut batch = vec![(1u64, 1u64), (2, 2), (3, 3)];
        assert_eq!(
            h.try_submit_batch(4, &mut batch),
            Err(SubmitError::Full(()))
        );
        assert_eq!(batch.len(), 3);
        // The blocking variant chunks it instead (2 lanes × cap 2 ≥ 3).
        h.submit_batch(4, &mut batch).unwrap();
        assert!(batch.is_empty());
        assert_eq!(lanes.queued(), 3);
    }

    #[test]
    fn aborted_lanes_reject_with_the_task_handed_back() {
        let lanes: IngressLanes<String> = IngressLanes::new(1);
        let mut h = lanes.handle();
        h.submit(1, 4, "before".into()).unwrap();
        lanes.shared().abort_and_wake();
        match h.try_submit(2, 4, "after".into()) {
            Err(SubmitError::Aborted(task)) => assert_eq!(task, "after"),
            other => panic!("expected Aborted, got {other:?}"),
        }
        assert!(h.submit(2, 4, "after".into()).is_err());
        let mut batch = vec![(1u64, "x".to_string())];
        assert_eq!(
            h.try_submit_batch(4, &mut batch),
            Err(SubmitError::Aborted(()))
        );
        assert_eq!(batch.len(), 1, "batch handed back");
        assert_eq!(h.submit_batch(4, &mut batch), Err(SubmitError::Aborted(())));
        assert_eq!(batch.len(), 1, "blocking batch handed back on abort");
        // A chunked blocking batch that is cut off by an abort keeps its
        // untouched prefix, in the original order: chunks of 2 go from the
        // back into the two capacity-2 lanes, the third finds them full.
        let bounded: IngressLanes<u64> = IngressLanes::with_capacity(2, Some(2));
        let mut hb = bounded.handle();
        let shared = Arc::clone(bounded.shared());
        let mut batch: Vec<(u64, u64)> = (0..7u64).map(|i| (i, 10 + i)).collect();
        let aborter = std::thread::spawn(move || {
            while shared.parker().space().waiters() == 0 {
                std::thread::yield_now();
            }
            shared.abort_and_wake();
        });
        assert_eq!(
            hb.submit_batch(4, &mut batch),
            Err(SubmitError::Aborted(()))
        );
        aborter.join().unwrap();
        assert_eq!(bounded.queued(), 4);
        assert_eq!(batch, vec![(0, 10), (1, 11), (2, 12)]);
        // The gate keeps the first state raised: a shutdown after the
        // abort still reports the abort, and a shut-down gate cannot abort.
        lanes.shared().shut_down_and_wake();
        assert!(lanes.shared().aborted());
        assert_eq!(
            h.try_submit(3, 4, "z".into()).unwrap_err().kind(),
            SubmitError::Aborted(())
        );
        let closed: IngressLanes<u64> = IngressLanes::new(1);
        closed.shared().shut_down_and_wake();
        closed.shared().abort_and_wake();
        assert!(!closed.shared().aborted());
        assert_eq!(
            closed.handle().try_submit(3, 4, 3).unwrap_err().kind(),
            SubmitError::ShutDown(())
        );
    }

    #[test]
    fn blocking_submit_parks_until_a_drain_frees_space() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(1));
        let mut h = lanes.handle();
        h.submit(0, 4, 0).unwrap(); // lane now full
        let shared = Arc::clone(lanes.shared());
        let producer = std::thread::spawn(move || {
            let mut h = h;
            // Blocks until the drainer below frees the lane.
            h.submit(1, 4, 1).unwrap();
            drop(h);
        });
        // Drain until both tasks came through (the producer may need a
        // couple of free-ups depending on interleaving).
        let pending = AtomicU64::new(0);
        let mut rec = RecordingHandle::default();
        while rec.pushed.len() < 2 {
            drain(&shared, 0, &mut rec, &pending);
            std::thread::yield_now();
        }
        producer.join().unwrap();
        let mut got: Vec<u64> = rec.pushed.iter().map(|&(_, _, t)| t).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn blocked_producer_is_woken_into_abort_error() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(1));
        let mut h = lanes.handle();
        h.submit(0, 4, 0).unwrap();
        let producer = std::thread::spawn(move || {
            let mut h = h;
            // Parks (lane full, nobody drains) until the abort below.
            let err = h.submit(1, 4, 1).unwrap_err();
            assert!(matches!(err, SubmitError::Aborted(1)));
        });
        // Gate on state, not on time: abort once the producer is
        // registered on the space slot (parked, or about to).
        while lanes.shared().parker().space().waiters() == 0 {
            std::thread::yield_now();
        }
        lanes.shared().abort_and_wake();
        producer.join().unwrap();
    }

    /// The read-order argument, raced: producer, drainer, and a checker
    /// interleave freely; whenever the checker observes quiescence, every
    /// submitted task must already be charged to the pending counter —
    /// i.e. at no instant is a task invisible to both counters.
    #[test]
    fn counters_never_hide_a_task_mid_transfer() {
        const N: u64 = 2_000;
        let lanes: IngressLanes<u64> = IngressLanes::new(1);
        let pending = Arc::new(AtomicU64::new(0));
        let shared = Arc::clone(lanes.shared());
        std::thread::scope(|s| {
            let mut h = lanes.handle();
            s.spawn(move || {
                for i in 0..N {
                    h.submit(i, 4, i).unwrap();
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
                // Dropping `h` here is the producers' "no more input".
            });
            let drain_shared = Arc::clone(&shared);
            let drain_pending = Arc::clone(&pending);
            s.spawn(move || {
                let mut rec = RecordingHandle::default();
                let mut got = 0;
                while got < N {
                    got += drain(&drain_shared, 0, &mut rec, &drain_pending);
                }
                assert_eq!(rec.pushed.len() as u64, N);
            });
            let check_shared = Arc::clone(&shared);
            let check_pending = Arc::clone(&pending);
            s.spawn(move || loop {
                // Module-docs read order: producers, then queued (inside
                // `quiescent`), then pending last.
                if check_shared.quiescent() {
                    assert_eq!(
                        check_pending.load(Ordering::Acquire),
                        N,
                        "quiescence observed before every task was charged \
                         to the pending counter"
                    );
                    break;
                }
                std::hint::spin_loop();
            });
        });
    }
}
