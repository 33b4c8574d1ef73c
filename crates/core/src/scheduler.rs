//! The task-scheduling runtime (§2).
//!
//! * **Places**: `P` worker threads, each owning the place-local component
//!   of the chosen [`TaskPool`] through its [`PoolHandle`], taken once when
//!   the thread starts and held until the run ends. One function,
//!   `run_scoped`, spawns, joins and sums every such fleet: a run's, on
//!   the caller's thread, and a [`crate::PoolService`]'s, on the service's
//!   one background thread.
//! * **Help-first spawning** (§2, citing Guo et al.): `spawn` *stores* the
//!   new task for later execution by any thread and the current task
//!   continues — the policy priority scheduling requires, since work-first's
//!   fixed depth-first order cannot follow priorities.
//! * **Termination**: "the scheduling system terminates when all tasks have
//!   finished executing and no new tasks were created" — realized with a
//!   shared outstanding-task counter that the per-task path does not
//!   touch. Each place keeps a private **credit ledger** (`Outstanding`):
//!   a finished, dead or quarantined task leaves its unit in the shared
//!   count and becomes one credit of its place; `spawn`, `spawn_batch`
//!   and lane drains pay for the tasks they make poppable from those
//!   credits first and raise the shared count (one `fetch_add`, before the
//!   push) only for the remainder; whenever a place's pop fails it
//!   *settles* — one `fetch_sub` of all its credits — before it looks at
//!   the count, before it parks, and once more when its loop exits. What
//!   this **over-counts**: the shared count is the number of outstanding
//!   tasks plus every place's unsettled credits, so it is always ≥ the
//!   truth and a task is never poppable while it can read zero (the unit
//!   that covers a task was raised, or held as a credit, before the
//!   push). Where it is **exact**: whenever no place holds credits, in
//!   particular whenever every place is idle — a place holding credits
//!   has just finished a task and has not yet failed a pop, so it is
//!   about to pop again or to settle. A place that spawns as many tasks
//!   as it finishes therefore does no shared read-modify-write at all.
//!   Every run is a streamed run: [`crate::run_on_kind`] submits its
//!   roots into fresh ingress lanes through one producer handle and drops
//!   it before the workers start, so termination is always *quiescence* —
//!   counter zero **and** empty lanes **and** zero live producers (see
//!   [`crate::ingest`]), which with no producers left is the paper's
//!   "no new tasks were created". The lanes also hold the counter and
//!   the run's abort gate. A worker whose pop fails spins briefly with
//!   backoff, then **parks** (see [`crate::park`]); submissions, spawns,
//!   drains, abort, and the quiescence transitions wake it — the settle
//!   that takes the count to zero is the one that wakes join waiters
//!   (and every worker, if the ingress side is quiescent too).
//! * **Dead-task elimination** (§5.1): tasks report deadness through
//!   [`TaskExecutor::is_dead`]; dead tasks are dropped at pop time without
//!   being executed, mirroring the lazy removal in the paper's structures.
//!
//! Finish regions (§2's blocking synchronization primitive) are provided by
//! [`crate::task::FinishRegion`] together with [`SpawnCtx::help_while`]: a
//! task waiting on a region keeps executing other tasks instead of blocking
//! the worker, which is the natural help-first realization.
//!
//! # Why spawns batch but pops do not
//!
//! [`SpawnCtx::spawn_batch`] batches the *push* side: all children of a
//! task are stored with one batched insertion, which cannot change what
//! any pop observes (pops only happen between task executions, and the
//! batch lands before the executing task returns). The worker loop still
//! pops one task at a time on purpose: popping a batch ahead of execution
//! would fix the batch's order against tasks spawned *during* the batch —
//! a freshly spawned better-priority task would wait behind the
//! pre-popped rest, which creates useless work even at one place (e.g.
//! SSSP relaxing a node whose distance a batch-mate was about to
//! improve). Per-pop latency is already amortized by the structures'
//! batched ingest; batching across *executions* is where ordering would
//! actually be lost.

use crate::ingest::IngressShared;
use crate::pool::{FaultPolicy, PoolHandle, TaskPool};
use crate::stats::PlaceStats;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::thread;
use crossbeam_utils::Backoff;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One quarantined (or aborting) task failure: where it ran, what priority
/// it was popped with, and the panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureReport {
    /// The place whose worker executed the panicking task.
    pub place: usize,
    /// The priority key the task was popped with.
    pub prio: u64,
    /// The panic message (string payloads verbatim; other payload types
    /// are summarized).
    pub message: String,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task (prio {}) panicked at place {}: {}",
            self.prio, self.place, self.message
        )
    }
}

/// Typed outcome of joining an aborted pool (`FaultPolicy::AbortRun`):
/// the first recorded failure, in place of a resumed panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolAborted {
    /// The failure that raised the abort gate.
    pub failure: FailureReport,
}

impl std::fmt::Display for PoolAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool run aborted: {}", self.failure)
    }
}

impl std::error::Error for PoolAborted {}

/// Renders a panic payload (as caught by `std::panic::catch_unwind`) into
/// a human-readable message for a [`FailureReport`]. `&str` and `String`
/// payloads — what `panic!` produces — are passed through; anything else
/// becomes a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Shared failure state of one run or service: the configured
/// [`FaultPolicy`], the recorded [`FailureReport`]s, and — under
/// `AbortRun` — the first panic payload, which [`crate::run_on_kind`] and
/// [`crate::run_stream_on_kind`] resume on their caller.
///
/// Workers record into the cell *before* the failing task's unit of the
/// outstanding count becomes a credit, hence before any settle can release
/// it (see [`SpawnCtx::run_one`]); anyone who observes the count reach
/// zero is therefore guaranteed to see every failure of a task that
/// finished before the drain — the same read-order argument quiescence
/// itself rests on (see [`crate::ingest`]).
pub(crate) struct FaultCell {
    policy: FaultPolicy,
    payload: crate::sync::Mutex<Option<Box<dyn std::any::Any + Send>>>,
    failures: crate::sync::Mutex<Vec<FailureReport>>,
    failed: AtomicU64,
}

impl FaultCell {
    pub(crate) fn new(policy: FaultPolicy) -> Self {
        FaultCell {
            policy,
            payload: crate::sync::Mutex::new(None),
            failures: crate::sync::Mutex::new(Vec::new()),
            failed: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Records one failure; under `AbortRun` also stashes the first panic
    /// payload for the run's caller to resume.
    fn record(&self, report: FailureReport, payload: Option<Box<dyn std::any::Any + Send>>) {
        self.failures.lock().push(report);
        // The count is published *after* the report so `failed()` never
        // exceeds what `first_failure()`/`failures()` can observe.
        self.failed.fetch_add(1, Ordering::Release);
        if let Some(p) = payload {
            let mut slot = self.payload.lock();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
    }

    /// Number of failures recorded so far.
    pub(crate) fn failed(&self) -> u64 {
        self.failed.load(Ordering::Acquire)
    }

    /// Takes the stored panic payload (`AbortRun` only), if any.
    pub(crate) fn take_payload(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.payload.lock().take()
    }

    /// Copies the recorded failure reports. They stay in the cell: a
    /// service's run can end (aborted) before its `join` reads the first.
    pub(crate) fn failures(&self) -> Vec<FailureReport> {
        self.failures.lock().clone()
    }

    /// Clones the first recorded failure (the one that raised the abort,
    /// under `AbortRun`).
    pub(crate) fn first_failure(&self) -> Option<FailureReport> {
        self.failures.lock().first().cloned()
    }
}

/// Application logic driven by the scheduler.
///
/// The executor is shared by all places (`Sync`) and owns the application
/// state tasks operate on (e.g. the graph and the atomic distance array for
/// SSSP).
pub trait TaskExecutor<T: Send>: Sync {
    /// Runs one task. New tasks are spawned through `ctx` (help-first: they
    /// are stored for later execution, the current invocation continues).
    fn execute(&self, task: T, ctx: &mut SpawnCtx<'_, T>);

    /// Lazy dead-task elimination hook (§5.1): return `true` when the task
    /// no longer needs to run (e.g. an SSSP node relaxation whose distance
    /// value has since improved). Dead tasks are dropped at pop time.
    fn is_dead(&self, _task: &T) -> bool {
        false
    }
}

/// One place's share of the outstanding-task accounting: the counter all
/// places share plus this place's private credits (see the Termination
/// bullet of the module docs). The invariant it keeps:
///
/// > shared count = outstanding tasks + Σ over places of `credit`.
///
/// `finish` moves a unit from the first term to the second, `charge`
/// moves units back (raising the count only for what the credits do not
/// cover), `flush` drops the second term — none of the three can make the
/// count read less than the number of outstanding tasks.
pub(crate) struct Outstanding<'a> {
    shared: &'a AtomicU64,
    credit: u64,
}

impl<'a> Outstanding<'a> {
    pub(crate) fn new(shared: &'a AtomicU64) -> Self {
        Outstanding { shared, credit: 0 }
    }

    /// Accounts for `n` tasks about to become poppable. Must precede their
    /// push: a task is never poppable while the count could read zero.
    pub(crate) fn charge(&mut self, n: u64) {
        let from_credit = n.min(self.credit);
        self.credit -= from_credit;
        if n > from_credit {
            self.shared.fetch_add(n - from_credit, Ordering::AcqRel);
        }
    }

    /// A popped task is over (executed, dead or quarantined): its unit
    /// stays in the shared count as a credit of this place.
    fn finish(&mut self) {
        self.credit += 1;
    }

    /// Releases every credit with one `fetch_sub`; `true` exactly when
    /// that took the shared count to zero.
    fn flush(&mut self) -> bool {
        let credit = std::mem::take(&mut self.credit);
        credit > 0 && self.shared.fetch_sub(credit, Ordering::AcqRel) == credit
    }
}

/// Per-task spawn context handed to [`TaskExecutor::execute`].
pub struct SpawnCtx<'a, T: Send> {
    handle: &'a mut dyn PoolHandle<T>,
    outstanding: Outstanding<'a>,
    executor: &'a dyn TaskExecutor<T>,
    /// The run's lanes: drained at the pop boundary, and the holder of the
    /// run's shared state — the outstanding count `outstanding` settles
    /// into, the abort gate (raised when a task panics under
    /// `FaultPolicy::AbortRun`, so every worker drains out instead of
    /// waiting on tasks nobody will run) and the parking fabric.
    ingress: &'a IngressShared<T>,
    faults: &'a FaultCell,
    place: usize,
    executed: u64,
    dead: u64,
    /// Reusable scratch for [`SpawnCtx::take_batch_buf`], so executors can
    /// build spawn batches without a per-task-execution allocation.
    batch_buf: Vec<(u64, T)>,
    /// Reusable drain buffers (lane contents / same-`k` runs), so draining
    /// allocates nothing in steady state.
    ingest_scratch: Vec<(u64, usize, T)>,
    ingest_kbatch: Vec<(u64, T)>,
}

impl<'a, T: Send> SpawnCtx<'a, T> {
    /// Spawns a task with priority `prio` (smaller = higher) and per-task
    /// relaxation bound `k` (§2.2).
    pub fn spawn(&mut self, prio: u64, k: usize, task: T) {
        // Charge before push: a task must never be poppable while the
        // counter could read zero.
        self.outstanding.charge(1);
        self.handle.push(prio, k, task);
        // A fresh task may be stealable or spyable by any parked worker —
        // on the MultiQueue, within reach of their scan while it sits in
        // this place's insertion buffer (gated: one fence + load when the
        // fleet is busy).
        self.ingress.parker().wake_workers_if_idle();
    }

    /// Spawns a batch of `(prio, task)` pairs sharing the relaxation bound
    /// `k`, draining `tasks`.
    ///
    /// Help-first semantics are unchanged — every task is stored for later
    /// execution — but the whole batch flows through
    /// [`PoolHandle::push_batch`]: one charge to the outstanding count and
    /// one batched structure insertion instead of per-task trait calls. This
    /// is the intended spawn path for executors that emit many children
    /// per task (e.g. SSSP node expansion); pair it with
    /// [`SpawnCtx::take_batch_buf`] to avoid allocating the batch.
    pub fn spawn_batch(&mut self, k: usize, tasks: &mut Vec<(u64, T)>) {
        if tasks.is_empty() {
            return;
        }
        // Charge before push, as in `spawn`.
        self.outstanding.charge(tasks.len() as u64);
        self.handle.push_batch(k, tasks);
        self.ingress.parker().wake_workers_if_idle();
    }

    /// Borrows the reusable batch buffer (empty). Fill it, pass it to
    /// [`SpawnCtx::spawn_batch`], then return it via
    /// [`SpawnCtx::put_batch_buf`] so the allocation is reused.
    pub fn take_batch_buf(&mut self) -> Vec<(u64, T)> {
        std::mem::take(&mut self.batch_buf)
    }

    /// Returns a buffer taken with [`SpawnCtx::take_batch_buf`].
    pub fn put_batch_buf(&mut self, mut buf: Vec<(u64, T)>) {
        buf.clear();
        self.batch_buf = buf;
    }

    /// The id of the place executing the current task.
    pub fn place(&self) -> usize {
        self.place
    }

    /// Number of tasks this place has executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Cooperative wait: keeps popping and executing tasks while `cond`
    /// holds. The building block for blocking finish regions under
    /// help-first scheduling — the waiting task helps drain the pool
    /// instead of idling a worker. It also keeps this place's ingress lane
    /// flowing, so a finish region waiting on externally submitted work
    /// cannot deadlock.
    ///
    /// Its idle waits are parks capped at 200 µs: `cond` is executor state
    /// (e.g. a finish-region counter) whose flip is not a parker event, so
    /// an unbounded park could outlive it. Submissions, spawns and abort
    /// still cut a wait short through the normal wake path.
    pub fn help_while(&mut self, cond: &dyn Fn() -> bool) {
        self.work_while(cond, Some(HELP_WAIT_CAP));
    }

    /// The §2 loop, as [`place_loop`] and [`SpawnCtx::help_while`] run it:
    /// drain this place's lane, pop, execute — while `cond` holds, the run
    /// has not aborted and has not drained out. A failed pop spins briefly
    /// with backoff, then parks through [`SpawnCtx::park_idle`] (each park
    /// at most `cap`).
    fn work_while(&mut self, cond: impl Fn() -> bool, cap: Option<Duration>) {
        let backoff = Backoff::new();
        while cond() && !self.ingress.aborted() {
            if self.drain_ingress() > 0 {
                backoff.reset();
            }
            if let Some((prio, task)) = self.handle.pop_entry() {
                self.run_one(prio, task);
                backoff.reset();
            } else if self.drained_out() {
                return;
            } else if cfg!(loom) || backoff.is_completed() {
                // (Model time is free: under loom park at once, so the
                // explorer walks register → re-check → park instead of a
                // backoff's worth of spins.)
                if self.park_idle(&cond, cap) {
                    backoff.reset();
                }
            } else {
                self.ingress.parker().note_idle_iter();
                backoff.snooze();
            }
        }
    }

    /// The worker's one idle wait, register → re-check → park: register
    /// this place as idle, re-check everything a wake could announce —
    /// `cond`, abort, the run draining out, this place's lane, one more
    /// pop — and park on the place's slot only if all of it still says
    /// wait, for at most `cap` (`None`: until a wake). Returns `true` when
    /// the re-check found work.
    ///
    /// Parking is safe against "work exists but my pop missed it": a
    /// place's local component is only ever filled by its own worker, so a
    /// parked worker's component is empty and any remaining task is either
    /// in an *awake* worker's component or in a shared component that pops
    /// scan deterministically (see [`crate::park`]). The MultiQueue's local
    /// component is its insertion buffer, which a pop serves before it may
    /// fail and which an idle place's failing scan reaches like a steal.
    fn park_idle(&mut self, cond: &impl Fn() -> bool, cap: Option<Duration>) -> bool {
        let (ingress, place) = (self.ingress, self.place);
        let parker = ingress.parker();
        parker.note_idle_iter();
        let token = parker.worker_prepare(place);
        if !cond() || ingress.aborted() || self.drained_out() {
            parker.worker_cancel(place);
            return false; // the loop head ends the wait
        }
        if self.drain_ingress() > 0 {
            parker.worker_cancel(place);
            return true;
        }
        // A task spawned inside the register race window may have skipped
        // its wake (gated on a not-yet-visible registration); this pop
        // closes that hole, and the worker leaves `idle_workers` before it
        // runs what it found.
        if let Some((prio, task)) = self.handle.pop_entry() {
            parker.worker_cancel(place);
            self.run_one(prio, task);
            return true;
        }
        parker.worker_park(place, token, cap);
        false
    }

    /// Transfers this place's ingress lane into the pool. Called at the
    /// pop boundary — between task executions — so the scheduler-module
    /// ordering argument (no pre-popped batches racing fresh spawns) is
    /// untouched. Returns how many tasks were transferred.
    fn drain_ingress(&mut self) -> u64 {
        let ing = self.ingress;
        if ing.queued_hint() == 0 {
            return 0;
        }
        let mut scratch = std::mem::take(&mut self.ingest_scratch);
        let mut kbatch = std::mem::take(&mut self.ingest_kbatch);
        let n = ing.drain_into(
            self.place,
            &mut *self.handle,
            &mut self.outstanding,
            &mut scratch,
            &mut kbatch,
        );
        self.ingest_scratch = scratch;
        self.ingest_kbatch = kbatch;
        n
    }

    /// The termination condition: quiescent ingress (no producers, empty
    /// lanes) checked *before* a zero outstanding count. See the `ingest`
    /// module docs for why this read order is sound. Settles first: the
    /// count can only read zero once this place's own credits are out of
    /// it, and every path from a failed pop to a park goes through here.
    fn drained_out(&mut self) -> bool {
        // Mutation self-check (`--cfg loom_mutate_credit_flush`): a place
        // that checks and parks on the count without settling keeps it
        // above zero forever; `tests/loom_models.rs` asserts the model
        // checker finds that deadlock.
        #[cfg(not(loom_mutate_credit_flush))]
        self.settle();
        self.ingress.quiescent() && self.outstanding.shared.load(Ordering::Acquire) == 0
    }

    /// Releases this place's credits and, if that took the outstanding
    /// count to zero, fires the quiescence wakes: join waiters always
    /// re-check on a full drain, and if the ingress side is also quiescent
    /// the whole run is over — every parked worker must observe that and
    /// exit.
    fn settle(&mut self) {
        if self.outstanding.flush() {
            let parker = self.ingress.parker();
            parker.control().wake_if_waiting();
            if self.ingress.quiescent() {
                parker.wake_all();
            }
        }
    }

    fn run_one(&mut self, prio: u64, task: T) {
        // Contain panics — of `is_dead` as much as of `execute`: the
        // task's unit is released either way so sibling workers cannot
        // wait forever on a count that will never drain. The failure is
        // recorded (and, under `AbortRun`, the abort gate raised) *before*
        // the unit becomes a credit, hence before the settle that releases
        // it, so that anyone who observes the count reach zero (e.g.
        // `PoolService::join`) is guaranteed to see it on a subsequent
        // read — a drain caused by a panic can never masquerade as a clean
        // one, and an isolated failure is always visible by the time the
        // run it belonged to quiesces.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if self.executor.is_dead(&task) {
                return false;
            }
            self.executor.execute(task, self);
            true
        }));
        match result {
            Ok(true) => self.executed += 1,
            Ok(false) => self.dead += 1,
            Err(payload) => {
                let report = FailureReport {
                    place: self.place,
                    prio,
                    message: panic_message(&*payload),
                };
                match self.faults.policy() {
                    FaultPolicy::AbortRun => {
                        self.faults.record(report, Some(payload));
                        // Poison the lanes and wake everything: parked
                        // workers exit, join waiters report the abort,
                        // blocked producers fail with
                        // `SubmitError::Aborted` instead of waiting for
                        // drains that will never come.
                        self.ingress.abort_and_wake();
                    }
                    // Quarantine: record and move on. Siblings, producers,
                    // and this very worker keep running; the panicking
                    // task's unit becomes a credit below exactly as a
                    // completion's would, so quiescence accounting stays
                    // exact.
                    FaultPolicy::Isolate => self.faults.record(report, None),
                }
            }
        }
        self.outstanding.finish();
    }
}

/// Aggregated outcome of one [`crate::run_on_kind`] or
/// [`crate::run_stream_on_kind`] run, or of a [`crate::PoolService`]'s
/// lifetime.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Tasks executed (dead tasks excluded).
    pub executed: u64,
    /// Tasks popped but eliminated as dead (§5.1).
    pub dead: u64,
    /// Tasks whose `execute` panicked. Under `FaultPolicy::Isolate` the
    /// run continues past them; under `AbortRun` at most one failure is
    /// recorded before the run aborts.
    pub failed: u64,
    /// One report per failed task (place, priority, panic message), in
    /// recording order.
    pub failures: Vec<FailureReport>,
    /// Wall-clock time of the run (from first worker start to full drain).
    pub elapsed: Duration,
    /// Summed data-structure counters over all places.
    pub pool: PlaceStats,
    /// Per-place executed counts (load-balance diagnostics).
    pub per_place_executed: Vec<u64>,
}

impl std::fmt::Display for RunStats {
    /// One-line summary: task counts, timing, and load balance.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let places = self.per_place_executed.len().max(1);
        let max = self.per_place_executed.iter().copied().max().unwrap_or(0);
        let balance = if max == 0 {
            1.0
        } else {
            self.executed as f64 / (places as f64 * max as f64)
        };
        write!(
            f,
            "{} tasks ({} dead) on {} place(s) in {:.2?}; balance {:.2}; \
             pushes {}, steals {}, spies {}, publishes {}",
            self.executed,
            self.dead,
            places,
            self.elapsed,
            balance,
            self.pool.pushes,
            self.pool.steals,
            self.pool.spies,
            self.pool.publishes,
        )?;
        if self.failed > 0 {
            write!(f, "; {} failed (quarantined)", self.failed)?;
        }
        Ok(())
    }
}

/// Cap on one park inside [`SpawnCtx::help_while`] (see there).
const HELP_WAIT_CAP: Duration = Duration::from_micros(200);

/// One place's §2 scheduling loop: drain the place's ingress lane, pop,
/// execute, repeat — until the run aborts or quiesces (counter zero *and*
/// no producers *and* empty lanes). A worker whose pop failed spins
/// briefly, then parks untimed in [`SpawnCtx::park_idle`], whose re-check
/// closes the check-then-sleep race against every wake event of the
/// [`crate::ingest`] event table.
///
/// Returns `(executed, dead)` for this place. The outstanding count is the
/// one in `shared`; this place's credits against it live in the loop's
/// [`SpawnCtx`] and are settled before it returns.
pub(crate) fn place_loop<T: Send>(
    handle: &mut dyn PoolHandle<T>,
    executor: &dyn TaskExecutor<T>,
    shared: &IngressShared<T>,
    faults: &FaultCell,
    place: usize,
) -> (u64, u64) {
    let mut ctx = SpawnCtx {
        handle,
        outstanding: Outstanding::new(shared.pending()),
        executor,
        ingress: shared,
        faults,
        place,
        executed: 0,
        dead: 0,
        batch_buf: Vec::new(),
        ingest_scratch: Vec::new(),
        ingest_kbatch: Vec::new(),
    };
    ctx.work_while(|| true, None);
    // An abort leaves the loop with credits in hand; release them so the
    // shared count never outlives the places that inflated it.
    ctx.settle();
    (ctx.executed, ctx.dead)
}

/// Runs every task submitted through the lanes of `shared` — before or
/// while the places run — on `pool`, one worker thread per place, each
/// named `priosched-place-{p}`, taking its place's handle and running
/// [`place_loop`]: it drains its lane at its pop boundary and schedules
/// what it finds like any spawned task (same dead-task elimination, same
/// element-wise `k`/ρ accounting). The one place workers are spawned:
/// [`crate::run_on_kind`] and [`crate::run_stream_on_kind`] call it on
/// the caller's thread, [`crate::PoolService`] on its own. `spawned` runs
/// once every worker thread has been spawned (or has failed to spawn).
///
/// Returns at **quiescence** — the outstanding-task counter is zero, every
/// lane is empty, and every [`crate::IngestHandle`] has been dropped — or
/// once every worker has left an aborted run, with the places' counts
/// summed and the failures recorded in `faults`. It never resumes a task
/// panic: under [`FaultPolicy::AbortRun`] the payload stays in `faults`
/// for the caller.
pub(crate) fn run_scoped<T, E, P>(
    pool: &Arc<P>,
    faults: &FaultCell,
    executor: &E,
    shared: &IngressShared<T>,
    spawned: impl FnOnce(),
) -> RunStats
where
    T: Send + 'static,
    E: TaskExecutor<T>,
    P: TaskPool<T>,
{
    let start = Instant::now();
    let mut stats = RunStats::default();
    thread::scope(|s| {
        let workers: Vec<_> = (0..pool.num_places())
            .map(|place| {
                thread::Builder::new()
                    .name(format!("priosched-place-{place}"))
                    .spawn_scoped(s, move || {
                        let mut handle = pool.handle(place);
                        let (executed, dead) =
                            place_loop(&mut handle, executor, shared, faults, place);
                        (executed, dead, handle.stats())
                    })
            })
            .collect();
        spawned();
        for worker in workers {
            let worker = worker.expect("failed to spawn a place's worker thread");
            let (executed, dead, pool_stats) =
                worker.join().expect("worker thread itself panicked");
            stats.executed += executed;
            stats.dead += dead;
            stats.pool.merge(&pool_stats);
            stats.per_place_executed.push(executed);
        }
    });
    // Every place settled on its way out, so the count is exact here —
    // unless a run over these lanes aborted with tasks left.
    assert!(shared.aborted() || shared.pending().load(Ordering::Acquire) == 0);
    stats.elapsed = start.elapsed();
    stats.failed = faults.failed();
    stats.failures = faults.failures();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{run_on_kind, run_stream_on_kind};
    use crate::ingest::IngressLanes;
    use crate::pool::{PoolKind, PoolParams};
    use std::sync::atomic::AtomicU64 as Counter;

    /// Counts executions; spawns `fanout` children per task until `depth`.
    struct TreeSpawner {
        executed: Counter,
        fanout: u64,
        depth: u64,
    }

    impl TaskExecutor<(u64, u64)> for TreeSpawner {
        fn execute(&self, (depth, _id): (u64, u64), ctx: &mut SpawnCtx<'_, (u64, u64)>) {
            self.executed.fetch_add(1, Ordering::Relaxed);
            if depth < self.depth {
                for i in 0..self.fanout {
                    ctx.spawn(depth + 1, 64, (depth + 1, i));
                }
            }
        }
    }

    fn tree_total(fanout: u64, depth: u64) -> u64 {
        // 1 + f + f^2 + … + f^depth
        (0..=depth).map(|d| fanout.pow(d as u32)).sum()
    }

    /// Drains a fanout-3, depth-7 tree on `kind` at 1, 2 and 4 places.
    fn drain_tree(kind: PoolKind) {
        assert_eq!(
            TREE_KINDS,
            PoolKind::ALL,
            "a new kind needs its line in `drains_task_tree!`"
        );
        let expect = tree_total(3, 7);
        for places in [1, 2, 4] {
            let exec = TreeSpawner {
                executed: Counter::new(0),
                fanout: 3,
                depth: 7,
            };
            let roots = vec![(0, 64, (0u64, 0u64))];
            let stats = run_on_kind(kind, places, PoolParams::default(), &exec, roots);
            assert_eq!(stats.executed, expect, "{kind} places={places}");
            assert_eq!(exec.executed.load(Ordering::Relaxed), expect);
            assert_eq!(stats.dead, 0);
            assert_eq!(stats.per_place_executed.iter().sum::<u64>(), expect);
        }
    }

    /// One tree test per kind; each checks that the list covers `PoolKind::ALL`.
    macro_rules! drains_task_tree {
        ($($name:ident => $kind:expr),* $(,)?) => {
            $(
                #[test]
                fn $name() {
                    drain_tree($kind);
                }
            )*
            const TREE_KINDS: &[PoolKind] = &[$($kind),*];
        };
    }

    drains_task_tree! {
        drains_task_tree_workstealing => PoolKind::WorkStealing,
        drains_task_tree_centralized => PoolKind::Centralized,
        drains_task_tree_hybrid => PoolKind::Hybrid,
        drains_task_tree_structural => PoolKind::Structural,
        drains_task_tree_multiqueue => PoolKind::MultiQueue,
    }

    /// All tasks dead on arrival must be eliminated, not executed.
    struct AllDead;
    impl TaskExecutor<u64> for AllDead {
        fn execute(&self, _t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            panic!("dead task executed");
        }
        fn is_dead(&self, _t: &u64) -> bool {
            true
        }
    }

    #[test]
    fn dead_tasks_are_eliminated() {
        let roots = (0..50u64).map(|i| (i, 0usize, i)).collect();
        let stats = run_on_kind(
            PoolKind::WorkStealing,
            2,
            PoolParams::default(),
            &AllDead,
            roots,
        );
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.dead, 50);
    }

    /// Priority ordering sanity: with one place, tasks must execute in
    /// strict priority order for every structure that is exact there.
    struct OrderRecorder {
        order: parking_lot::Mutex<Vec<u64>>,
    }
    impl TaskExecutor<u64> for OrderRecorder {
        fn execute(&self, t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            self.order.lock().push(t);
        }
    }

    #[test]
    fn single_place_executes_in_priority_order() {
        let prios = [5u64, 1, 9, 3, 3, 8, 0];
        let mut sorted = prios.to_vec();
        sorted.sort();
        // Every kind but the MultiQueue, whose two-choice pop over c = 2
        // queues is relaxed even at one place.
        for kind in PoolKind::ALL
            .into_iter()
            .filter(|&k| k != PoolKind::MultiQueue)
        {
            let rec = OrderRecorder {
                order: parking_lot::Mutex::new(Vec::new()),
            };
            let roots = prios.iter().map(|&p| (p, 16, p)).collect();
            let stats = run_on_kind(kind, 1, PoolParams::with_k(16), &rec, roots);
            assert_eq!(*rec.order.lock(), sorted, "{kind}");
            assert_eq!(stats.executed, prios.len() as u64);
        }
    }

    /// A panicking task must re-raise from `run` rather than deadlocking
    /// sibling workers on a never-draining pending count.
    struct PanicOn13;
    impl TaskExecutor<u64> for PanicOn13 {
        fn execute(&self, t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            if t == 13 {
                panic!("boom at 13");
            }
        }
    }

    #[test]
    fn task_panic_propagates_without_deadlock() {
        let roots: Vec<(u64, usize, u64)> = (0..50u64).map(|i| (i, 0usize, i)).collect();
        let result = std::panic::catch_unwind(|| {
            run_on_kind(
                PoolKind::WorkStealing,
                2,
                PoolParams::default(),
                &PanicOn13,
                roots,
            )
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("boom at 13"), "got: {msg}");
    }

    /// Under `Isolate` the same panicking workload completes: the failure
    /// is quarantined into the stats with exact accounting, siblings run
    /// every other task, and the scheduler reports place + priority.
    #[test]
    fn isolate_quarantines_panicking_task_and_finishes() {
        let params = PoolParams::default().with_fault_policy(FaultPolicy::Isolate);
        let roots: Vec<(u64, usize, u64)> = (0..50u64).map(|i| (i, 0usize, i)).collect();
        let stats = run_on_kind(PoolKind::WorkStealing, 2, params, &PanicOn13, roots);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.executed, 49, "every non-bomb task still runs");
        assert_eq!(stats.failures.len(), 1);
        let failure = &stats.failures[0];
        assert_eq!(failure.prio, 13, "priority captured from the pop");
        assert!(failure.place < 2);
        assert!(failure.message.contains("boom at 13"), "{failure}");
        assert!(stats.to_string().contains("1 failed"), "{stats}");
    }

    /// Streamed run: a tree root submitted before the run and external
    /// producers submitting while the pool is running; the run must
    /// execute the tree + everything ingested, then terminate only after
    /// all handles drop.
    #[test]
    fn run_stream_executes_roots_and_ingested_tasks() {
        for places in [1usize, 2, 4] {
            let exec = TreeSpawner {
                executed: Counter::new(0),
                fanout: 2,
                depth: 3,
            };
            let ingress = IngressLanes::new(places);
            ingress.handle().submit(0, 16, (0u64, 0u64)).unwrap();
            let producers = 3usize;
            let per = 40u64;
            let stats = std::thread::scope(|s| {
                for _ in 0..producers {
                    let mut h = ingress.handle();
                    s.spawn(move || {
                        let mut batch = Vec::new();
                        for i in 0..per {
                            // Leaf-depth tasks: execute without spawning.
                            batch.push((7, (3u64, i)));
                            if batch.len() == 8 {
                                h.submit_batch(16, &mut batch).unwrap();
                            }
                        }
                        h.submit_batch(16, &mut batch).unwrap();
                    });
                }
                run_stream_on_kind(
                    PoolKind::Hybrid,
                    places,
                    PoolParams::default(),
                    &exec,
                    &ingress,
                )
            });
            let expect = tree_total(2, 3) + producers as u64 * per;
            assert_eq!(stats.executed, expect, "places={places}");
            assert_eq!(exec.executed.load(Ordering::Relaxed), expect);
        }
    }

    /// With no producers and nothing queued, a streamed run terminates
    /// immediately.
    #[test]
    fn run_stream_without_producers_terminates() {
        let ingress = IngressLanes::new(2);
        let exec = TreeSpawner {
            executed: Counter::new(0),
            fanout: 1,
            depth: 0,
        };
        let stats = run_stream_on_kind(
            PoolKind::WorkStealing,
            2,
            PoolParams::default(),
            &exec,
            &ingress,
        );
        assert_eq!(stats.executed, 0);
    }

    #[test]
    #[should_panic(expected = "must match the pool's place count")]
    fn run_stream_rejects_mismatched_lane_count() {
        let ingress: IngressLanes<(u64, u64)> = IngressLanes::new(3);
        let exec = TreeSpawner {
            executed: Counter::new(0),
            fanout: 1,
            depth: 0,
        };
        let _ = run_stream_on_kind(
            PoolKind::WorkStealing,
            2,
            PoolParams::default(),
            &exec,
            &ingress,
        );
    }

    /// Ingested dead tasks are eliminated at pop time like spawned ones.
    #[test]
    fn run_stream_eliminates_dead_ingested_tasks() {
        let ingress = IngressLanes::new(2);
        let mut h = ingress.handle();
        for i in 0..30u64 {
            h.submit(i, 4, i).unwrap();
        }
        drop(h);
        let stats = run_stream_on_kind(
            PoolKind::Hybrid,
            2,
            PoolParams::default(),
            &AllDead,
            &ingress,
        );
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.dead, 30);
    }

    #[test]
    fn charge_after_finish_leaves_the_shared_count_alone() {
        let shared = AtomicU64::new(0);
        let mut o = Outstanding::new(&shared);
        o.charge(3); // no credits yet: all three from the shared count
        assert_eq!(shared.load(Ordering::Relaxed), 3);
        o.finish();
        o.finish();
        o.charge(1); // paid by a credit
        assert_eq!((shared.load(Ordering::Relaxed), o.credit), (3, 1));
        o.charge(4); // one credit, three from the shared count
        assert_eq!((shared.load(Ordering::Relaxed), o.credit), (6, 0));
    }

    #[test]
    fn flush_reports_zero_exactly_when_the_shared_count_gets_there() {
        let shared = AtomicU64::new(0);
        let (mut a, mut b) = (Outstanding::new(&shared), Outstanding::new(&shared));
        assert!(!a.flush(), "nothing to release: not a zero crossing");
        a.charge(2);
        b.charge(1);
        a.finish();
        assert!(!a.flush(), "3 → 2");
        a.finish();
        b.finish();
        assert!(!b.flush(), "2 → 1: the other place still holds a credit");
        assert_eq!(shared.load(Ordering::Relaxed), 1);
        assert!(a.flush(), "1 → 0");
        assert!(!a.flush() && !b.flush(), "already settled");
        assert_eq!(shared.load(Ordering::Relaxed), 0);
    }

    /// A task waiting in `help_while` runs other tasks on the same
    /// `SpawnCtx`: the credits they leave must neither be lost nor let the
    /// count reach zero under the still-running waiter.
    #[test]
    fn credits_survive_nested_help_while() {
        struct Nested {
            leaves_done: Counter,
        }
        impl TaskExecutor<u64> for Nested {
            fn execute(&self, t: u64, ctx: &mut SpawnCtx<'_, u64>) {
                match t {
                    // Root: spawn an inner waiter, help until it is done.
                    0 => {
                        ctx.spawn(1, 4, 1);
                        ctx.help_while(&|| self.leaves_done.load(Ordering::Acquire) < 8);
                        // Everything below ran on this ctx inside the
                        // root's execute; the root's own unit is still out.
                        assert!(ctx.outstanding.shared.load(Ordering::Acquire) >= 1);
                    }
                    // Inner waiter: spawn the leaves, help until they ran.
                    1 => {
                        for i in 0..8 {
                            ctx.spawn(2, 4, 2 + i);
                        }
                        ctx.help_while(&|| self.leaves_done.load(Ordering::Acquire) < 8);
                        // The eight leaves ran nested inside this task and
                        // left their credits on the shared ctx; the next
                        // spawn is paid from them.
                        let shared = ctx.outstanding.shared.load(Ordering::Acquire);
                        assert_eq!((shared, ctx.outstanding.credit), (10, 8));
                        ctx.spawn(3, 4, 100);
                        let shared = ctx.outstanding.shared.load(Ordering::Acquire);
                        assert_eq!((shared, ctx.outstanding.credit), (10, 7));
                    }
                    _ => {
                        self.leaves_done.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
        }
        let exec = Nested {
            leaves_done: Counter::new(0),
        };
        let roots = vec![(0, 4, 0u64)];
        let stats = run_on_kind(
            PoolKind::WorkStealing,
            1,
            PoolParams::default(),
            &exec,
            roots,
        );
        // root + waiter + 8 leaves + the late spawn; `run_scoped` itself
        // asserts that the shared count ended at zero.
        assert_eq!(stats.executed, 11);
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn run_stats_display_mentions_key_fields() {
        let stats = RunStats {
            executed: 10,
            dead: 2,
            elapsed: Duration::from_millis(5),
            pool: PlaceStats {
                pushes: 12,
                ..PlaceStats::default()
            },
            per_place_executed: vec![6, 4],
            failed: 0,
            failures: Vec::new(),
        };
        let s = stats.to_string();
        assert!(s.contains("10 tasks"), "{s}");
        assert!(s.contains("(2 dead)"), "{s}");
        assert!(s.contains("pushes 12"), "{s}");
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::facade::run_on_kind;
    use crate::pool::{PoolKind, PoolParams};

    /// A closed-world run of `roots` on work-stealing at `places`.
    fn run_nop(places: usize, roots: Vec<(u64, usize, u64)>) -> RunStats {
        run_on_kind(
            PoolKind::WorkStealing,
            places,
            PoolParams::default(),
            &Nop,
            roots,
        )
    }

    struct Nop;
    impl TaskExecutor<u64> for Nop {
        fn execute(&self, _t: u64, _ctx: &mut SpawnCtx<'_, u64>) {}
    }

    #[test]
    fn empty_roots_terminate_immediately() {
        let stats = run_nop(3, Vec::new());
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.dead, 0);
        assert_eq!(stats.per_place_executed, vec![0, 0, 0]);
    }

    #[test]
    fn single_task_single_place() {
        let stats = run_nop(1, vec![(5, 0, 42u64)]);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.pool.pushes, 1);
        assert_eq!(stats.pool.pops, 1);
    }

    #[test]
    fn many_roots_spread_over_places() {
        let stats = run_nop(4, (0..200u64).map(|i| (i, 0usize, i)).collect());
        assert_eq!(stats.executed, 200);
        // The roots are submitted round-robin over the four lanes, so each
        // place drains 50 of them into its own queue; who runs which after
        // stealing is up to the schedule — just verify accounting.
        assert_eq!(stats.per_place_executed.iter().sum::<u64>(), 200);
    }
}
