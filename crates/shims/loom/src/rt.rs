//! The explorer runtime: a baton-passing scheduler over real OS threads,
//! a TSO (x86-style) store-buffer memory model, and a DFS over schedules.
//!
//! # Execution model
//!
//! Model threads are real OS threads, but only one — the *active* thread —
//! runs at any time. Before each visible operation (atomic access, fence,
//! cell access, mutex/condvar op, spawn/join) the active thread
//! reaches a *decision point*: it computes the set of enabled actions and
//! consults the DFS trail to pick one — first which thread runs, then,
//! once that thread holds the baton, which buffered stores land in front
//! of its operation. Actions are:
//!
//! - `Run(t)` — hand the baton to thread `t` (possibly itself),
//! - `Drain(t)` — flush the oldest entry of thread `t`'s store buffer to
//!   shared memory (models the asynchronous drain of a hardware store
//!   buffer),
//! - `TimeoutWake(t)` — fire the timeout of a thread blocked in
//!   `wait_timeout`.
//!
//! # Memory model (TSO)
//!
//! Non-SeqCst stores enter the storing thread's FIFO buffer; loads forward
//! from the thread's own buffer before reading shared memory. SeqCst
//! stores, SeqCst fences, read-modify-writes (any ordering), mutex
//! acquire/release, condvar wait, spawn, and thread exit flush the buffer.
//! `Drain` actions empty buffers one entry at a time at scheduler
//! discretion, so a Release store can stay invisible to other threads for
//! an arbitrary window — exactly the reordering x86 exhibits. Acquire and
//! Release need no additional modeling on TSO: loads are never reordered
//! with other loads, stores never with other stores.
//!
//! A drain is a decision only in front of an operation that can tell
//! whether it happened (`settle_drains`: an access to the stored location,
//! or an operation of a thread that has a buffered store to it); all other
//! placements of the same drain read the same values everywhere and are
//! not explored twice. A store never stays buffered for ever: when no
//! thread can run, draining is a step of its own.
//!
//! # Exploration
//!
//! Depth-first over the decision trail with a bounded number of
//! *preemptions* (switching away from a still-runnable thread); drains and
//! forced switches are free. Each completed schedule counts toward the
//! branch budget. On failure the full decision trail is printed and can be
//! replayed via `LOOM_REPLAY`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Marker payload used to unwind model threads when the execution aborts
/// (deadlock, budget, or another thread's panic). Propagated with
/// `resume_unwind` so the default panic hook stays silent.
struct AbortMarker;

/// A location / mutex / condvar id, tagged with the execution generation
/// that created it so stale objects from a previous execution are caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loc {
    generation: u64,
    idx: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// Waiting to acquire mutex `idx`.
    Mutex(usize),
    /// Waiting on condvar `cv`; will reacquire `mutex` once woken.
    Condvar {
        cv: usize,
        mutex: usize,
        timed: bool,
    },
    /// Waiting for thread `t` to finish.
    Join(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Runnable.
    Ready,
    Blocked(Wait),
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Run(usize),
    Drain(usize),
    TimeoutWake(usize),
}

impl Action {
    fn token(self) -> String {
        match self {
            Action::Run(t) => format!("r{t}"),
            Action::Drain(t) => format!("d{t}"),
            Action::TimeoutWake(t) => format!("t{t}"),
        }
    }

    fn parse(tok: &str) -> Option<Action> {
        let (kind, num) = tok.split_at(1);
        let t: usize = num.parse().ok()?;
        match kind {
            "r" => Some(Action::Run(t)),
            "d" => Some(Action::Drain(t)),
            "t" => Some(Action::TimeoutWake(t)),
            _ => None,
        }
    }
}

struct ThreadState {
    status: Status,
    /// Set when the thread's `wait_timeout` was ended by a `TimeoutWake`.
    timed_out: bool,
    /// Timeout wakes consumed so far (bounded by the budget unless forced).
    timeout_wakes: usize,
}

/// One decision point in the DFS trail.
struct Frame {
    /// Number of enabled actions at this point (determinism check).
    n: usize,
    /// Index of the action taken this execution.
    chosen: usize,
    /// The action itself, for schedule printing.
    act: Action,
}

/// Exploration limits: the defaults, overridden by the `LOOM_*` variables.
struct Config {
    /// Cap on explored executions before the model panics.
    max_branches: u64,
    /// Preemption bound per execution.
    max_preemptions: usize,
    /// Per-execution operation budget (livelock backstop).
    max_steps: usize,
    /// Per-thread budget of explored timed-wait wakeups.
    timeout_wake_budget: usize,
    /// Print exploration statistics to stderr.
    log: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_branches: 50_000,
            max_preemptions: 2,
            max_steps: 10_000,
            timeout_wake_budget: 2,
            log: false,
        }
    }
}

struct RtState {
    /// True while a `model()` call is running.
    running: bool,
    generation: u64,
    cfg: Config,
    replay: Vec<Action>,
    replay_mode: bool,

    // Per-execution state.
    threads: Vec<ThreadState>,
    live: usize,
    active: usize,
    mem: Vec<u64>,
    buffers: Vec<VecDeque<(usize, u64)>>,
    mutex_owner: Vec<Option<usize>>,
    n_condvars: usize,
    preemptions: usize,
    steps: usize,
    depth: usize,
    abort: Option<String>,
    panic_payload: Option<Box<dyn Any + Send>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,

    // Across executions of one model.
    frames: Vec<Frame>,
    executions: u64,
}

struct Rt {
    st: Mutex<RtState>,
    cv: Condvar,
}

static RT: OnceLock<Rt> = OnceLock::new();
/// Serializes concurrent `model()` calls (e.g. parallel `#[test]`s).
static MODEL_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

type Guard = MutexGuard<'static, RtState>;

fn rt() -> &'static Rt {
    RT.get_or_init(|| Rt {
        st: Mutex::new(RtState {
            running: false,
            generation: 0,
            cfg: Config::default(),
            replay: Vec::new(),
            replay_mode: false,
            threads: Vec::new(),
            live: 0,
            active: 0,
            mem: Vec::new(),
            buffers: Vec::new(),
            mutex_owner: Vec::new(),
            n_condvars: 0,
            preemptions: 0,
            steps: 0,
            depth: 0,
            abort: None,
            panic_payload: None,
            os_handles: Vec::new(),
            frames: Vec::new(),
            executions: 0,
        }),
        cv: Condvar::new(),
    })
}

fn lock_rt() -> Guard {
    // The state mutex gets poisoned whenever a decision point unwinds with
    // the guard held (abort propagation); that is routine here.
    rt().st.lock().unwrap_or_else(|e| e.into_inner())
}

fn cur() -> usize {
    CURRENT.with(|c| c.get()).expect(
        "loom primitive used outside a model thread; \
         wrap the code in loom::model(|| ...)",
    )
}

fn check_loc(st: &RtState, loc: Loc) {
    assert!(
        st.running && loc.generation == st.generation,
        "loom object used outside the execution that created it"
    );
}

/// True when operations must not schedule: either this thread is unwinding
/// (drop glue during a panic) or the whole execution is aborting. In this
/// mode operations complete immediately against shared memory so teardown
/// code (Drop impls walking atomic chains) stays well-defined.
fn passthrough(st: &RtState) -> bool {
    st.abort.is_some() || std::thread::panicking()
}

fn flush_buffer(st: &mut RtState, t: usize) {
    while let Some((loc, v)) = st.buffers[t].pop_front() {
        st.mem[loc] = v;
    }
}

/// Lands thread `t`'s oldest buffered store in shared memory.
fn drain_one(st: &mut RtState, t: usize) {
    let (loc, v) = st.buffers[t].pop_front().expect("drain of empty buffer");
    st.mem[loc] = v;
}

fn contend(st: &mut RtState, t: usize, m: usize) {
    st.threads[t].status = if st.mutex_owner[m].is_none() {
        Status::Ready
    } else {
        Status::Blocked(Wait::Mutex(m))
    };
}

fn abort_with(st: &mut RtState, msg: String) -> ! {
    if st.abort.is_none() {
        st.abort = Some(msg);
    }
    rt().cv.notify_all();
    panic::resume_unwind(Box::new(AbortMarker))
}

fn schedule_string(st: &RtState) -> String {
    st.frames[..st.depth.min(st.frames.len())]
        .iter()
        .map(|f| f.act.token())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Enabled actions at a decision point where `me` is the decider.
fn enabled_actions(st: &RtState, me: usize) -> Vec<Action> {
    let me_ready = matches!(st.threads[me].status, Status::Ready);
    let cap_hit = st.preemptions >= st.cfg.max_preemptions;
    let mut acts = Vec::new();

    if cap_hit && me_ready {
        // No preemption budget left: the decider must keep running (other
        // threads' buffered stores may still land under it, see
        // `settle_drains`).
        acts.push(Action::Run(me));
    } else {
        for (i, t) in st.threads.iter().enumerate() {
            if matches!(t.status, Status::Ready) {
                acts.push(Action::Run(i));
            }
        }
    }

    // Which buffered stores land in front of which operation is decided by
    // the thread about to operate (`settle_drains`). Only when no thread
    // can run is a drain a step of its own: a store does not stay buffered
    // for ever, and a blocked thread's buffered store may be all that a
    // timed waiter's next re-check is waiting for.
    if acts.is_empty() {
        for (i, b) in st.buffers.iter().enumerate() {
            if i != me && !b.is_empty() {
                acts.push(Action::Drain(i));
            }
        }
    }

    if !(cap_hit && me_ready) {
        for (i, t) in st.threads.iter().enumerate() {
            if let Status::Blocked(Wait::Condvar { timed: true, .. }) = t.status {
                if t.timeout_wakes < st.cfg.timeout_wake_budget {
                    acts.push(Action::TimeoutWake(i));
                }
            }
        }
    }

    if acts.is_empty() {
        // Timed waiters always wake eventually; past the budget the wake
        // is forced rather than explored, which keeps timeout-based
        // protocols live without unbounded branching.
        for (i, t) in st.threads.iter().enumerate() {
            if let Status::Blocked(Wait::Condvar { timed: true, .. }) = t.status {
                acts.push(Action::TimeoutWake(i));
            }
        }
    }

    acts
}

/// Consult the DFS trail (or the replay schedule) for the action to take.
fn pick(st: &mut RtState, enabled: &[Action]) -> Action {
    let i = st.depth;
    st.depth += 1;
    if i < st.frames.len() {
        if st.frames[i].n != enabled.len() {
            abort_with(
                st,
                format!(
                    "nondeterministic model: decision point {i} had {} enabled \
                     actions on a previous execution but {} now; model code \
                     must not depend on wall-clock time or randomness",
                    st.frames[i].n,
                    enabled.len()
                ),
            );
        }
        let chosen = st.frames[i].chosen;
        st.frames[i].act = enabled[chosen];
        return enabled[chosen];
    }
    let chosen = if st.replay_mode && i < st.replay.len() {
        match enabled.iter().position(|a| *a == st.replay[i]) {
            Some(p) => p,
            None => abort_with(
                st,
                format!(
                    "LOOM_REPLAY diverged at decision {i}: token {} not among \
                     the enabled actions",
                    st.replay[i].token()
                ),
            ),
        }
    } else {
        0
    };
    st.frames.push(Frame {
        n: enabled.len(),
        chosen,
        act: enabled[chosen],
    });
    enabled[chosen]
}

/// Run decisions until a `Run` target is selected; applies drains and
/// timeout wakes inline. Returns the chosen thread.
fn decide_to_run(st: &mut RtState, me: usize) -> usize {
    loop {
        let enabled = enabled_actions(st, me);
        if enabled.is_empty() {
            let detail: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| format!("thread {i}: {:?}", t.status))
                .collect();
            abort_with(
                st,
                format!("deadlock: no runnable thread\n  {}", detail.join("\n  ")),
            );
        }
        match pick(st, &enabled) {
            Action::Drain(t) => drain_one(st, t),
            Action::TimeoutWake(t) => {
                st.threads[t].timed_out = true;
                st.threads[t].timeout_wakes += 1;
                if let Status::Blocked(Wait::Condvar { mutex, .. }) = st.threads[t].status {
                    contend(st, t, mutex);
                }
            }
            Action::Run(t) => {
                if t != me && matches!(st.threads[me].status, Status::Ready) {
                    st.preemptions += 1;
                }
                return t;
            }
        }
    }
}

fn wait_baton(mut st: Guard, me: usize) -> Guard {
    loop {
        if st.abort.is_some() {
            drop(st);
            panic::resume_unwind(Box::new(AbortMarker));
        }
        if st.active == me && matches!(st.threads[me].status, Status::Ready) {
            return st;
        }
        st = rt().cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Decide which of the other threads' buffered stores land before `me`,
/// holding the baton, performs its next operation — an access to `loc`,
/// if it is an atomic access.
///
/// A drain is offered only where the operation could tell: thread `t`'s
/// buffer may drain (front first, one entry per decision) while it holds a
/// store to `loc`, or to a location `me` has a buffered store of its own
/// to (the two stores' order in memory is still open, and `me` may flush
/// without a further decision point, as a mutex unlock does). Every other
/// drain commutes with the operation, so the schedule that makes it later
/// — in front of the first operation that does meet this rule, or folded
/// into `t`'s own flush — reads the same values at every load and leaves
/// the same memory; exploring it here as well would only multiply
/// executions (by `C(ops + entries, entries)` per preempted thread with
/// buffered entries). `me`'s own drains are invisible to it (store
/// forwarding) and are decided at the other threads' operations.
fn settle_drains(st: &mut RtState, me: usize, loc: Option<usize>) {
    loop {
        let tells = |&(l, _): &(usize, u64)| {
            Some(l) == loc || st.buffers[me].iter().any(|&(mine, _)| mine == l)
        };
        let mut enabled = vec![Action::Run(me)];
        for (t, buf) in st.buffers.iter().enumerate() {
            if t != me && buf.iter().any(tells) {
                enabled.push(Action::Drain(t));
            }
        }
        if enabled.len() == 1 {
            return;
        }
        match pick(st, &enabled) {
            Action::Drain(t) => drain_one(st, t),
            _ => return,
        }
    }
}

/// Hand the baton to some other thread (the decider `me` is blocked,
/// yielded, or chose to switch), wait to be scheduled again, and settle
/// the drains in front of the operation `me` resumes with (on `loc`, if it
/// is an atomic access).
fn yield_to_other(mut st: Guard, me: usize, loc: Option<usize>) -> Guard {
    let next = decide_to_run(&mut st, me);
    if next != me {
        st.active = next;
        rt().cv.notify_all();
        st = wait_baton(st, me);
    }
    settle_drains(&mut st, me, loc);
    st
}

/// Decision point before a visible operation (on `loc`, if it is an atomic
/// access). Returns with the state lock held, this thread active, and the
/// operation free to proceed.
fn op_point(loc: Option<usize>) -> Guard {
    let me = cur();
    let mut st = lock_rt();
    if std::thread::panicking() {
        return st;
    }
    if st.abort.is_some() {
        drop(st);
        panic::resume_unwind(Box::new(AbortMarker));
    }
    st.steps += 1;
    if st.steps > st.cfg.max_steps {
        let msg = format!(
            "step budget exceeded ({} ops in one execution): livelock, or \
             raise LOOM_MAX_STEPS",
            st.cfg.max_steps
        );
        abort_with(&mut st, msg);
    }
    yield_to_other(st, me, loc)
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

pub(crate) fn atomic_register(init: u64) -> Loc {
    let mut st = lock_rt();
    assert!(
        st.running,
        "loom primitive created outside loom::model(|| ...)"
    );
    st.mem.push(init);
    Loc {
        generation: st.generation,
        idx: st.mem.len() - 1,
    }
}

pub(crate) fn atomic_load(loc: Loc, _order: Ordering) -> u64 {
    let me = cur();
    let st = op_point(Some(loc.idx));
    check_loc(&st, loc);
    // Store forwarding: newest own-buffer entry for this location wins.
    if let Some(&(_, v)) = st.buffers[me].iter().rev().find(|&&(l, _)| l == loc.idx) {
        return v;
    }
    st.mem[loc.idx]
}

pub(crate) fn atomic_store(loc: Loc, v: u64, order: Ordering) {
    let me = cur();
    let mut st = op_point(Some(loc.idx));
    check_loc(&st, loc);
    if matches!(order, Ordering::SeqCst) || passthrough(&st) {
        flush_buffer(&mut st, me);
        st.mem[loc.idx] = v;
    } else {
        st.buffers[me].push_back((loc.idx, v));
    }
}

pub(crate) fn atomic_rmw(loc: Loc, f: impl FnOnce(u64) -> u64) -> u64 {
    let me = cur();
    let mut st = op_point(Some(loc.idx));
    check_loc(&st, loc);
    flush_buffer(&mut st, me);
    let old = st.mem[loc.idx];
    st.mem[loc.idx] = f(old);
    old
}

pub(crate) fn atomic_cas(loc: Loc, expected: u64, new: u64) -> Result<u64, u64> {
    let me = cur();
    let mut st = op_point(Some(loc.idx));
    check_loc(&st, loc);
    flush_buffer(&mut st, me);
    let curval = st.mem[loc.idx];
    if curval == expected {
        st.mem[loc.idx] = new;
        Ok(curval)
    } else {
        Err(curval)
    }
}

pub(crate) fn fence(order: Ordering) {
    let me = cur();
    let mut st = op_point(None);
    if matches!(order, Ordering::SeqCst) {
        flush_buffer(&mut st, me);
    }
}

/// Decision point for a `loom::cell::UnsafeCell` access. The data itself
/// lives natively (immediately visible); the point exists so schedules can
/// preempt between a cell write and neighbouring atomic publishes.
pub(crate) fn cell_access() {
    drop(op_point(None));
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

pub(crate) fn mutex_register() -> Loc {
    let mut st = lock_rt();
    assert!(
        st.running,
        "loom primitive created outside loom::model(|| ...)"
    );
    st.mutex_owner.push(None);
    Loc {
        generation: st.generation,
        idx: st.mutex_owner.len() - 1,
    }
}

pub(crate) fn mutex_lock(m: Loc) {
    let me = cur();
    let mut st = op_point(None);
    check_loc(&st, m);
    if passthrough(&st) {
        st.mutex_owner[m.idx] = Some(me);
        return;
    }
    loop {
        if st.mutex_owner[m.idx].is_none() {
            st.mutex_owner[m.idx] = Some(me);
            flush_buffer(&mut st, me);
            return;
        }
        assert_ne!(
            st.mutex_owner[m.idx],
            Some(me),
            "deadlock: recursive lock of a loom mutex"
        );
        st.threads[me].status = Status::Blocked(Wait::Mutex(m.idx));
        st = yield_to_other(st, me, None);
    }
}

pub(crate) fn mutex_try_lock(m: Loc) -> bool {
    let me = cur();
    let mut st = op_point(None);
    check_loc(&st, m);
    if st.mutex_owner[m.idx].is_none() {
        st.mutex_owner[m.idx] = Some(me);
        flush_buffer(&mut st, me);
        true
    } else {
        false
    }
}

/// Not a decision point: runs in drop glue, possibly mid-unwind.
pub(crate) fn mutex_unlock(m: Loc) {
    let Some(me) = CURRENT.with(|c| c.get()) else {
        return;
    };
    let mut st = lock_rt();
    if !st.running || m.generation != st.generation {
        return;
    }
    st.mutex_owner[m.idx] = None;
    flush_buffer(&mut st, me);
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(Wait::Mutex(m.idx)) {
            t.status = Status::Ready;
        }
    }
    rt().cv.notify_all();
}

pub(crate) fn condvar_register() -> Loc {
    let mut st = lock_rt();
    assert!(
        st.running,
        "loom primitive created outside loom::model(|| ...)"
    );
    st.n_condvars += 1;
    Loc {
        generation: st.generation,
        idx: st.n_condvars - 1,
    }
}

/// Release `m`, wait on `cv`, reacquire `m`. Returns whether the wait
/// ended via `TimeoutWake` (only possible when `timed`).
pub(crate) fn condvar_wait(cv: Loc, m: Loc, timed: bool) -> bool {
    let me = cur();
    let mut st = op_point(None);
    check_loc(&st, cv);
    check_loc(&st, m);
    if passthrough(&st) {
        return true;
    }
    debug_assert_eq!(st.mutex_owner[m.idx], Some(me), "wait without the lock");
    st.mutex_owner[m.idx] = None;
    flush_buffer(&mut st, me);
    for t in st.threads.iter_mut() {
        if t.status == Status::Blocked(Wait::Mutex(m.idx)) {
            t.status = Status::Ready;
        }
    }
    st.threads[me].timed_out = false;
    st.threads[me].status = Status::Blocked(Wait::Condvar {
        cv: cv.idx,
        mutex: m.idx,
        timed,
    });
    st = yield_to_other(st, me, None);
    // Scheduled again: reacquire the mutex.
    loop {
        if st.mutex_owner[m.idx].is_none() {
            st.mutex_owner[m.idx] = Some(me);
            flush_buffer(&mut st, me);
            break;
        }
        st.threads[me].status = Status::Blocked(Wait::Mutex(m.idx));
        st = yield_to_other(st, me, None);
    }
    let timed_out = st.threads[me].timed_out;
    st.threads[me].timed_out = false;
    timed_out
}

pub(crate) fn condvar_notify_all(cv: Loc) {
    let mut st = op_point(None);
    check_loc(&st, cv);
    let waiters: Vec<(usize, usize)> = st
        .threads
        .iter()
        .enumerate()
        .filter_map(|(i, t)| match t.status {
            Status::Blocked(Wait::Condvar { cv: c, mutex, .. }) if c == cv.idx => Some((i, mutex)),
            _ => None,
        })
        .collect();
    for (i, mutex) in waiters {
        contend(&mut st, i, mutex);
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

fn alloc_thread(st: &mut RtState) -> usize {
    st.threads.push(ThreadState {
        status: Status::Ready,
        timed_out: false,
        timeout_wakes: 0,
    });
    st.buffers.push(VecDeque::new());
    st.live += 1;
    st.threads.len() - 1
}

fn thread_main(id: usize, body: Box<dyn FnOnce() + Send>) {
    CURRENT.with(|c| c.set(Some(id)));
    let res = panic::catch_unwind(AssertUnwindSafe(|| {
        let st = lock_rt();
        let st = wait_baton(st, id);
        drop(st);
        body();
    }));
    // Exit path: never unwind out of here; a deadlock discovered while
    // passing the baton on is recorded in `abort` before the marker flies.
    // Exit is a visible operation: other threads may run between this
    // thread's last op and its terminal buffer flush (otherwise a
    // store-buffered value could never be observed stale by a thread
    // scheduled after us). Run it under its own catch so an abort raised
    // while we wait for the baton cannot skip the exit bookkeeping below.
    if res.is_ok() {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            let st = lock_rt();
            if st.abort.is_none() && !st.buffers[id].is_empty() {
                drop(yield_to_other(st, id, None));
            }
        }));
    }
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut st = lock_rt();
        if let Err(p) = res {
            if !p.is::<AbortMarker>() && st.abort.is_none() {
                st.abort = Some("a model thread panicked".to_string());
                st.panic_payload = Some(p);
            }
        }
        st.threads[id].status = Status::Finished;
        flush_buffer(&mut st, id);
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(Wait::Join(id)) {
                t.status = Status::Ready;
            }
        }
        st.live -= 1;
        if st.abort.is_some() || st.live == 0 {
            rt().cv.notify_all();
            return;
        }
        let next = decide_to_run(&mut st, id);
        st.active = next;
        rt().cv.notify_all();
    }));
}

/// Spawn a model thread from within the model (a visible operation).
pub(crate) fn spawn_model(body: Box<dyn FnOnce() + Send>) -> usize {
    let me = cur();
    let mut st = op_point(None);
    // Spawn synchronizes-with the child's first operation.
    flush_buffer(&mut st, me);
    let id = alloc_thread(&mut st);
    let h = std::thread::Builder::new()
        .name(format!("loom-{id}"))
        .spawn(move || thread_main(id, body))
        .expect("spawn model thread");
    st.os_handles.push(h);
    id
}

pub(crate) fn join_model(t: usize) {
    let me = cur();
    let mut st = op_point(None);
    if passthrough(&st) {
        return;
    }
    while !matches!(st.threads[t].status, Status::Finished) {
        st.threads[me].status = Status::Blocked(Wait::Join(t));
        st = yield_to_other(st, me, None);
    }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn reset_execution(st: &mut RtState) {
    st.generation += 1;
    st.threads.clear();
    st.buffers.clear();
    st.mem.clear();
    st.mutex_owner.clear();
    st.n_condvars = 0;
    st.live = 0;
    st.active = 0;
    st.preemptions = 0;
    st.steps = 0;
    st.depth = 0;
    st.abort = None;
    st.panic_payload = None;
}

/// Explore every schedule of `f` within the configured bounds.
pub(crate) fn model(f: impl Fn() + Send + Sync + 'static) {
    let _serial = MODEL_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());

    let mut cfg = Config::default();
    if let Some(v) = env_u64("LOOM_MAX_BRANCHES") {
        cfg.max_branches = v;
    }
    if let Some(v) = env_u64("LOOM_MAX_PREEMPTIONS") {
        cfg.max_preemptions = v as usize;
    }
    if let Some(v) = env_u64("LOOM_MAX_STEPS") {
        cfg.max_steps = v as usize;
    }
    if let Some(v) = env_u64("LOOM_TIMEOUT_WAKES") {
        cfg.timeout_wake_budget = v as usize;
    }
    if std::env::var("LOOM_LOG").is_ok() {
        cfg.log = true;
    }
    let replay: Vec<Action> = match std::env::var("LOOM_REPLAY") {
        Ok(s) => s
            .split_whitespace()
            .map(|tok| Action::parse(tok).expect("malformed LOOM_REPLAY token"))
            .collect(),
        Err(_) => Vec::new(),
    };

    let f = std::sync::Arc::new(f);
    {
        let mut st = lock_rt();
        assert!(!st.running, "nested loom::model calls are not supported");
        st.running = true;
        st.cfg = cfg;
        st.replay_mode = !replay.is_empty();
        st.replay = replay;
        st.frames.clear();
        st.executions = 0;
    }

    loop {
        // Launch one execution: thread 0 runs the closure.
        {
            let mut st = lock_rt();
            reset_execution(&mut st);
            let id = alloc_thread(&mut st);
            debug_assert_eq!(id, 0);
            st.active = 0;
            let body = f.clone();
            let h = std::thread::Builder::new()
                .name("loom-0".to_string())
                .spawn(move || thread_main(0, Box::new(move || body())))
                .expect("spawn model thread");
            st.os_handles.push(h);
        }
        rt().cv.notify_all();

        // Wait for the execution to finish (normally or by abort).
        let handles = {
            let mut st = lock_rt();
            while st.live > 0 {
                st = rt().cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            std::mem::take(&mut st.os_handles)
        };
        for h in handles {
            let _ = h.join();
        }

        let mut st = lock_rt();
        st.executions += 1;

        if st.abort.is_some() {
            let sched = schedule_string(&st);
            let msg = st.abort.take().unwrap_or_default();
            let execs = st.executions;
            eprintln!("\n====================== loom: model failed ======================");
            eprintln!("cause: {msg}");
            eprintln!("executions explored: {execs}");
            eprintln!("failing schedule ({} decisions):", sched.split(' ').count());
            eprintln!("  {sched}");
            eprintln!("replay with: LOOM_REPLAY=\"{sched}\" (plus the same RUSTFLAGS/test filter)");
            eprintln!("================================================================\n");
            st.running = false;
            let payload = st.panic_payload.take();
            drop(st);
            match payload {
                Some(p) => panic::resume_unwind(p),
                None => panic!("loom model failed: {msg}"),
            }
        }

        if st.replay_mode {
            st.running = false;
            if st.cfg.log {
                eprintln!("loom: replay execution completed without failure");
            }
            return;
        }

        if st.executions >= st.cfg.max_branches {
            let execs = st.executions;
            st.running = false;
            drop(st);
            panic!(
                "loom: branch budget exceeded ({execs} executions); raise \
                 LOOM_MAX_BRANCHES or shrink the model"
            );
        }

        debug_assert_eq!(st.frames.len(), st.depth, "trail length mismatch");
        let depth = st.depth;
        st.frames.truncate(depth);
        // Backtrack to the deepest decision with an unexplored branch.
        loop {
            match st.frames.last_mut() {
                None => {
                    let execs = st.executions;
                    st.running = false;
                    if st.cfg.log {
                        eprintln!("loom: exploration complete after {execs} executions");
                    }
                    return;
                }
                Some(fr) => {
                    if fr.chosen + 1 < fr.n {
                        fr.chosen += 1;
                        break;
                    }
                    st.frames.pop();
                }
            }
        }
    }
}
