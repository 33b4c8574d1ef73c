#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! Lock-free data structures for task-based priority scheduling.
//!
//! This crate is a from-scratch Rust implementation of the three scheduling
//! data structures of *Wimmer, Cederman, Versaci, Träff, Tsigas: "Data
//! Structures for Task-based Priority Scheduling"* (PPoPP 2014,
//! arXiv:1312.2501), together with the task-scheduling runtime they plug
//! into:
//!
//! * [`workstealing::PriorityWorkStealing`] — work-stealing with per-place
//!   priority queues and steal-half (§3.1). Scalable, but provides **no
//!   global ordering guarantee**.
//! * [`centralized::CentralizedKPriority`] — a single global, ρ-relaxed
//!   priority ordering (§3.2, §4.1): a pop may ignore at most the `k` newest
//!   items (ρ = k).
//! * [`hybrid::HybridKPriority`] — the paper's main recommendation (§3.3,
//!   §4.2): local lists published to a global list every `k` pushes, with
//!   read-only *spying* instead of stealing. A pop may ignore at most the
//!   `k` newest items *of each place* (ρ = P·k).
//!
//! Beside them sits the relaxed MultiQueue
//! ([`multiqueue::RelaxedMultiQueue`], arXiv 2109.00657), in two
//! configurations. That makes five [`PoolKind`]s over four structures,
//! and all five implement the [`pool::TaskPool`] interface the
//! [`scheduler`] runtime drives (places, help-first spawning, termination
//! detection, finish regions — §2 of the paper). Every run and every
//! service builds its pool from a [`PoolKind`] ([`facade`]) and drops it
//! when its work is done; a service is a run on a thread of its own. Each
//! place's worker takes the place's handle once and owns it for the run,
//! as §2 ties a place to one worker thread.
//!
//! # Priorities
//!
//! Priorities are `u64` values, **smaller is higher priority**, matching the
//! paper's SSSP convention ("priority, smaller is better", Listing 5).
//! [`priority_from_f64`] maps non-negative floats (e.g. tentative distances)
//! to order-preserving `u64` keys.
//!
//! # Relaxation semantics (§2.2)
//!
//! A pop is never required to return the globally best task, but the number
//! of *newer* tasks that may be ignored in favour of an older, worse one is
//! bounded: by `k` for the centralized structure and by `P·k` for the hybrid
//! one. Work-stealing provides no such bound. The `k` parameter is supplied
//! **per task**, so kernels with different ordering requirements can coexist
//! (§1).
//!
//! # Memory reclamation
//!
//! The paper relies on a wait-free memory manager \[18\]. Here, task *items*
//! live in a pool that recycles them through a lock-free free list and only
//! releases memory when the data structure is dropped; position-derived tags
//! make recycling ABA-safe exactly as in §4.1.3/§4.2.3. The substitution
//! trades memory held until drop for hot paths with no epoch or
//! hazard-pointer traffic; global segments follow the same rule (freed
//! when the pool drops, at the end of the run or service that built it).
//!
//! # Batch operations
//!
//! Every hot *insertion* path has a batched form that amortizes
//! synchronization without weakening ordering guarantees (pops stay
//! scalar — the paper's interface is "two functions, push and pop", and
//! the [`scheduler`] module docs say why popping ahead of execution would
//! cost ordering):
//!
//! * [`pool::PoolHandle::push_batch`] moves a whole task batch into each
//!   structure — one lock acquisition per batch (work-stealing), one
//!   window pass per ≤ k placements (centralized), one publication CAS
//!   per exhausted budget (hybrid);
//! * [`item::ItemPool::acquire_batch`] / [`item::ItemPool::release_batch`]
//!   pop/push whole free-list chains with a single CAS, and
//!   [`item::ItemCache`] gives each place a private stash so scalar
//!   operations touch the shared free list once per
//!   [`item::ItemCache::REFILL`] items;
//! * [`scheduler::SpawnCtx::spawn_batch`] stores a task's children with
//!   one charge to the outstanding count and one `push_batch` — the spawn
//!   path for executors that emit many children per task (SSSP node
//!   expansion).
//!
//! ## How a batch is charged against `k`/ρ
//!
//! Batching amortizes *synchronization*, never *ordering slack*: every
//! batch element is charged against the relaxation bound individually,
//! exactly as the equivalent sequence of scalar calls would be.
//!
//! * **Centralized (ρ = k):** each element is placed inside
//!   `[tail, tail + k)` of the tail current at its placement; the batch
//!   holds no window open, so a batch of n behaves like n scalar pushes
//!   and the k-newest-items bound is untouched.
//! * **Hybrid (ρ = P·k):** the publication budget (`remaining_k`)
//!   decrements once per batch element, and the local list publishes
//!   *mid-batch* the moment the budget reaches zero — a batch is charged
//!   as a unit of n sequential debits, so at most `k` tasks of a place
//!   are ever unpublished, batch or no batch.
//!
//! In any sequential interleaving a batched history pops the same
//! multiset, under the same relaxation bound, as its scalar expansion
//! (`tests/pool_contract.rs` mixes both in every tape).
//!
//! # Ingestion, backpressure, and quiescence
//!
//! The paper's runtime is closed-world: all roots are known when
//! [`run_on_kind`] starts and termination is the
//! outstanding-task counter hitting zero (a shared count the per-task
//! path stays off: finished tasks become per-place credits that pay for
//! later spawns and are settled when the place's pop fails — see the
//! Termination bullet of [`scheduler`]). The [`ingest`] module opens that
//! world without touching the ordering arguments:
//!
//! * [`ingest::IngressLanes`] shard ingestion one MPSC lane per place;
//!   external producers submit `(prio, task)` scalars and batches through
//!   cloneable [`ingest::IngestHandle`]s, round-robined across lanes so
//!   ingestion itself scales with the place count;
//! * lanes are **bounded** when built with
//!   [`ingest::IngressLanes::with_capacity`] (or
//!   [`PoolParams::lane_capacity`] through the facade): `try_submit` /
//!   `try_submit_batch` *shed* with a typed [`ingest::SubmitError`] that
//!   hands every rejected item back, while the blocking `submit` /
//!   `submit_batch` *park* the producer until a worker's drain frees room
//!   — real backpressure instead of an unbounded queue between producers
//!   and the pool. After an abort (task panic, service drop) every
//!   submission path fails with [`ingest::SubmitError::Aborted`] rather
//!   than silently accepting work that would be discarded;
//! * each worker transfers its own lane into its pool handle at the **pop
//!   boundary** (between task executions) via the same batched
//!   [`pool::PoolHandle::push_batch`] path as
//!   [`scheduler::SpawnCtx::spawn_batch`] — drained batches are charged
//!   element-wise against the `k`/ρ bounds, and no batch is ever popped
//!   ahead of execution (the scheduler-module argument for why pops stay
//!   scalar is untouched);
//! * termination generalizes to **quiescence**: counter zero *and* empty
//!   lanes *and* zero live producer handles (a refcount — dropping the
//!   last handle is the producers' "no more input" signal). Every run
//!   ends this way: [`run_on_kind`] submits its roots through one handle
//!   into fresh lanes and drops it before the workers start;
//!   [`run_stream_on_kind`] runs over caller-built lanes; and
//!   [`service::PoolService`] (started by [`PoolBuilder::service`]) is the
//!   same streamed run on a background thread of its own, a long-lived
//!   pool you can `submit`/`join` repeatedly — it holds its own producer
//!   handle, so its workers stay alive through gaps, and shutdown is
//!   dropping that handle and joining the thread, which returns at
//!   quiescence.
//!
//! ## Parking: idle without burning a core
//!
//! Every idle path — workers whose pops fail (in every run),
//! [`service::PoolService::join`], producers blocked on full lanes —
//! *parks* on the [`park`] subsystem instead of spinning or poll-sleeping.
//! A quiescent service consumes no CPU: its worker loops make **zero**
//! iterations until the next submission wakes them (pinned by the
//! `backpressure` integration tests).
//!
//! Parking is lost-wakeup-free by construction. Each waiter follows
//! *register → re-check → park* on an eventcount ([`park::ParkSlot`]):
//! it registers as a waiter, re-checks its wait condition, and only then
//! sleeps — while wakers always advance the slot's epoch before
//! notifying, so an event that fires inside the race window makes the
//! park return immediately. Those three steps are written once,
//! [`park::ParkSlot::wait_until`], and every predicate wait — `submit`,
//! `submit_batch` and `join` — hands it its condition as a closure; only the worker park, whose re-check pops
//! a task rather than testing a condition, spells them out, once, for
//! both the worker loop and `help_while` (the [`park`] table says why).
//! The quiescence read-order argument (producers
//! first, then queued, then pending — see [`ingest`]) extends to parking:
//! every transition a sleeper could be waiting on (submission, drain,
//! spawn, pending → 0, queued → 0, producers → 0, abort) is a wake event
//! ([`park`] tables each wait predicate with its writers and wake sites),
//! and the
//! re-check after registration observes any transition whose wake was
//! skipped by the waiter-count gate (a seq-cst fence pairing; see
//! [`park`] for the precise argument). Workers additionally rely on an
//! invariant of the pools — a place's local component is filled only by
//! its own worker (for both MultiQueue configurations it is the insertion
//! buffer, served before a pop may fail; the pop scans every shared queue
//! and every other place's buffer before reporting empty) — so a parked
//! worker's component is empty and remaining work always stays reachable
//! by an awake one.
//!
//! # Failure handling
//!
//! A task's `execute` may panic; what happens next is the
//! [`pool::FaultPolicy`] carried in [`PoolParams`] (set with
//! [`PoolParams::with_fault_policy`] or [`PoolBuilder::fault_policy`]).
//! Under the default
//! [`pool::FaultPolicy::AbortRun`], the worker records a
//! [`scheduler::FailureReport`] and raises the lanes' abort gate, which
//! poisons them (blocked and future producers fail with
//! [`ingest::SubmitError::Aborted`], payloads handed back) and drains
//! every worker out; [`run_on_kind`] and
//! [`run_stream_on_kind`], whose callers wait for the run to end,
//! resume the panic on the caller, while
//! [`service::PoolService::join`] returns
//! `Err(`[`scheduler::PoolAborted`]`)` and
//! [`service::PoolService::shutdown`] returns a typed
//! [`service::ShutdownError`] — a failure never poisons teardown. Under
//! [`pool::FaultPolicy::Isolate`], the panicking task is **quarantined**:
//! its place, popped priority, and panic message are captured into a
//! [`scheduler::FailureReport`] on the run stats
//! ([`RunStats::failed`]/[`RunStats::failures`]) and everything else —
//! sibling workers, producers, later rounds — continues unaffected.
//!
//! Isolation preserves the pending-count read-order argument that
//! quiescence termination rests on (see [`ingest`]): the failure is
//! recorded *before* the panicking task's unit of the count becomes a
//! credit of its place, exactly where `AbortRun` raises the abort gate,
//! and the settle that later releases it is the same one a successful
//! completion's credit leaves through. Any observer that
//! sees the counter reach zero (a joiner, a terminating worker) is
//! therefore guaranteed to see every failure recorded by tasks that
//! finished before the drain — a quarantined panic can neither strand
//! the counter above zero (deadlock) nor hide from the round that
//! drained it, and `executed + dead + failed` accounts for every task
//! exactly once.
//!
//! # Runtime structure selection
//!
//! [`PoolKind`] names five kinds over four structures — the paper's
//! three, and the relaxed MultiQueue ([`multiqueue::RelaxedMultiQueue`],
//! arXiv 2109.00657) in two configurations: `MultiQueue` (`c` queues per
//! place, a pop between two random tops) and `Structural` (as many
//! queues, a pop over every top — [`RelaxedMultiQueue::structural`], the
//! paper's §5.3 structural relaxation). The [`facade`] module is the
//! single place a kind becomes a pool. [`run_on_kind`],
//! [`run_stream_on_kind`] and [`PoolBuilder::service`] schedule an
//! executor on a freshly built pool with **one** dispatch before the run
//! (the workers drive the concrete structure's handles through the
//! scheduling loop's `dyn PoolHandle`);
//! [`PoolKind::build`] / [`PoolBuilder`] return a type-erased [`AnyPool`]
//! for callers that drive place handles themselves. [`PoolParams`] carries
//! the only construction knobs — `k`, the lane capacity and the fault
//! policy — and `k` also travels with every push; the rest is fixed per
//! kind by [`PoolKind::build`] (centralized `kmax = max(k, 512)`, the
//! `c = 2` queues per place for the MultiQueue and the structural kind).
//! Another `c` means constructing [`RelaxedMultiQueue`] directly and
//! driving its handles, as the `multiqueue_quality` tests do; no run or
//! service takes a hand-built pool.
//!
//! The two MultiQueue configurations differ in the kind of bound, not
//! just its size. The paper's structures bound how many *newer* tasks a
//! pop may skip (ρ = k centralized, ρ = P·k hybrid). The structural kind
//! bounds how many tasks of *any* age it may skip: a single-threaded pop
//! misses only the other places' buffered tasks, ρ = (P−1)·(min(k, 16)−1).
//! The MultiQueue's two-choice pop is only **probabilistically** close to
//! the best — the expected rank error stays O(P) but the worst case is
//! unbounded. Every kind's bound is checked pop by pop from outside the
//! pools, in `tests/pool_contract.rs`: a shadow of the live tasks gives each
//! pop's exact rank (see [`TaskPool`]).
//!
//! # Model-checked properties
//!
//! The prose concurrency arguments above are not only argued — the
//! load-bearing ones are *model-checked*. Every atomic, lock, and thread
//! primitive in this crate routes through the [`sync`] facade, which under
//! `--cfg loom` swaps in the in-tree `loom` shim: a deterministic
//! interleaving explorer that runs a closure under every schedule (bounded
//! preemption DFS) while modeling relaxed/acquire/release stores through
//! per-thread store buffers. The models live in the `models` module
//! (compiled only under `--cfg loom`; run via
//! `RUSTFLAGS="--cfg loom" cargo test -p priosched-core --test
//! loom_models`). The mapping from argument to model:
//!
//! | Prose argument | Model |
//! |---|---|
//! | (a) Parking's register → re-check → park — [`park::ParkSlot::wait_until`], the one body every predicate wait runs — never loses a wakeup against the waiter-count-gated `wake_if_waiting` (the seq-cst fence pairing in [`park`]) | `models::parker_no_lost_wakeup` |
//! | (b) The structural kind's exact pop takes a queue's minimum only after re-checking it, under the queue lock, against the runner-up top it read: two places popping once each from queues holding {10, 30} and {20} take 10 and 20, never 30, whatever went stale between the read and the lock ([`multiqueue`], "Exact configuration") | `models::structural_pop_takes_a_true_minimum` |
//! | (b′) The top a pop publishes for its queue is the least of the root's children: with queues holding {10, 40, 25} (40 the root's first child) and {30}, two places popping once each take 10 and 25, the second one whether it reads the tops before or after the first one's store (the model does not tell a store before the sift from one after it; [`multiqueue`], "Top caching") | `models::structural_pop_behind_a_sifting_pop_takes_the_true_next` |
//! | (c) The item free list's versioned head defeats ABA on multi-node pops ([`item`], §4.1.3/§4.2.3 tag discipline) | `models::free_list_no_aba_double_pop` |
//! | (d) The MultiQueue's exhaustive scan finds a present item once the pool is quiescent — the property worker parking rests on ([`multiqueue`] top-caching docs) | `models::multiqueue_scan_finds_present_item` |
//! | (d′) What a place buffered in the MultiQueue's insertion buffer is never out of another place's reach: a place-1 pusher whose first push is buffered, whose second lands both under the buffer lock and one queue lock, and whose third is still buffered when its handle drops, races a place-0 popper whose failing scan try-locks that buffer — each task exactly once, and the quiescent pool's scan finds every survivor ([`multiqueue`], "Per-place insertion buffer") | `models::multiqueue_buffer_is_reachable_by_other_places` |
//! | (e) The quiescence read order (producers → queued → pending) never shows "quiescent" while a task is charged to neither counter ([`ingest`]) | `models::ingress_counters_never_hide_a_task` |
//! | (g) Per-place completion credits: no place sees the run drained out while a task is poppable or executing, and the settle that takes the shared count to zero wakes the parked peers ([`scheduler`] Termination bullet). A closed-world [`run_on_kind`] has exactly this model's shape: a root submitted through a handle dropped before the two places start, then the real place loops parking untimed | `models::credits_settle_before_quiescence` |
//! | (h) A join's two-variable predicate (`queued == 0 ∧ pending == 0`) is woken by whichever write comes last: a drain whose task another place finishes and settles before `queued` falls still ends the wait ([`park`] predicate table, [`ingest`] event table) | `models::join_wakes_on_the_last_of_drain_and_finish` |
//! | (i) The centralized window walk: two pushers resuming from their hints (same window, a window seen full, a tail the peer has moved) and a concurrent popper lose no task and deliver none twice, and the tail only ever passes windows without a null slot ([`centralized`], "The window walk") | `models::centralized_window_walk_exactly_once` |
//!
//! Four **mutation self-checks** validate the checker itself: building
//! with `--cfg loom_mutate_park_fence` (drops the `wake_if_waiting`
//! fence; (a) must fail), `--cfg loom_mutate_exact_recheck`
//! (skips (b)'s re-check under the lock), `--cfg loom_mutate_credit_flush` (drops
//! the settle in front of the termination check) or
//! `--cfg loom_mutate_drain_wake` (drops the lane drain's `queued → 0`
//! control-slot wake) makes the corresponding model *fail*, which
//! `tests/loom_models.rs` asserts.
//!
//! Arguments that remain prose-only (not yet modeled): the hybrid
//! spy/publish protocol and the scheduler's abort/failure accounting —
//! see ROADMAP.md.
//!
//! # Workloads
//!
//! The scheduler is application-agnostic: anything that implements
//! [`scheduler::TaskExecutor`] can run on any structure. The
//! `priosched-workloads` crate packages the repo's evaluation scenarios —
//! SSSP (the paper's §5 application), unit-weight BFS, tile-Cholesky DAG
//! factorization, best-first branch-and-bound knapsack, and bi-objective
//! shortest paths — behind a `Workload` trait (config → seed tasks →
//! executor → sequential oracle → structured report). Every workload
//! verifies each run against its oracle — including streamed runs, whose
//! seeds arrive through [`ingest::IngressLanes`] instead of preseeding —
//! and `tests/oracle_matrix.rs` sweeps workload × [`PoolKind`] × places,
//! preseeded and streamed. New scenarios plug in by
//! implementing that trait; this crate deliberately knows nothing about
//! them beyond the [`scheduler::TaskExecutor`] contract.

pub mod centralized;
pub mod facade;
pub mod garray;
pub mod hybrid;
pub mod ingest;
pub mod item;
#[cfg(loom)]
pub mod models;
pub mod multiqueue;
pub mod park;
pub mod pool;
pub mod scheduler;
pub mod service;
pub mod stats;
pub mod sync;
pub mod task;
pub(crate) mod util;
pub mod workstealing;

pub use centralized::CentralizedKPriority;
pub use facade::{run_on_kind, run_stream_on_kind, AnyHandle, AnyPool, PoolBuilder};
pub use hybrid::HybridKPriority;
pub use ingest::{IngestHandle, IngressLanes, SubmitError};
pub use multiqueue::RelaxedMultiQueue;
pub use pool::{FaultPolicy, PoolHandle, PoolKind, PoolParams, TaskPool};
pub use scheduler::{panic_message, FailureReport, PoolAborted, RunStats, SpawnCtx, TaskExecutor};
pub use service::{PoolService, ShutdownError};
pub use workstealing::PriorityWorkStealing;

/// Maps a non-negative, non-NaN `f64` to a `u64` key with the same order.
///
/// For non-negative IEEE-754 doubles the raw bit pattern is already
/// monotonically increasing, so the conversion is a transmute. `+∞` is
/// allowed (it encodes "unreached" priorities), and `-0.0` is normalized
/// to the key of `+0.0` (its raw bit pattern has the sign bit set and
/// would otherwise order above every positive value).
///
/// # Panics
/// Panics — in every build profile — if `x` is negative or NaN: a silently
/// misordered priority key corrupts scheduling decisions far from the call
/// site, which is strictly worse than failing here.
#[inline]
pub fn priority_from_f64(x: f64) -> u64 {
    assert!(x >= 0.0, "priority_from_f64 requires non-negative input");
    if x == 0.0 {
        // Collapses -0.0 (sign bit set) onto +0.0's key.
        return 0;
    }
    x.to_bits()
}

/// Inverse of [`priority_from_f64`].
#[inline]
pub fn priority_to_f64(bits: u64) -> f64 {
    f64::from_bits(bits)
}

#[cfg(test)]
mod conversion_tests {
    use super::*;

    #[test]
    fn f64_priority_is_order_preserving() {
        let xs = [0.0, 1e-300, 0.5, 1.0, 1.5, 42.0, 1e300, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(priority_from_f64(w[0]) < priority_from_f64(w[1]));
        }
    }

    #[test]
    fn f64_priority_round_trips() {
        for x in [0.0, 0.25, 3.5, 1e10, f64::INFINITY] {
            assert_eq!(priority_to_f64(priority_from_f64(x)), x);
        }
    }

    #[test]
    fn negative_zero_maps_to_zero_key() {
        assert_eq!(priority_from_f64(-0.0), 0);
        assert_eq!(priority_from_f64(-0.0), priority_from_f64(0.0));
        // And therefore orders below every positive value.
        assert!(priority_from_f64(-0.0) < priority_from_f64(1e-300));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_input_panics_in_all_profiles() {
        priority_from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_input_panics() {
        priority_from_f64(f64::NAN);
    }
}
