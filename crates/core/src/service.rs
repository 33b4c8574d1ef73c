//! A long-lived pool service: a run on a thread of its own.
//!
//! [`crate::run_on_kind`] and [`crate::run_stream_on_kind`] run the places
//! on the caller's thread and return at quiescence; their worker threads
//! and their pool die with them. A service frontend (a network ingress,
//! say) wants the other shape: start the workers once, then
//! [`PoolService::submit`] and [`PoolService::join`] repeatedly, paying
//! thread startup and pool construction once. A service is that same run,
//! moved onto one background thread named `priosched-service`:
//! [`crate::PoolBuilder::service`], the one way to start a service, builds
//! the pool from a [`crate::PoolKind`] and unwraps it to its concrete type,
//! and the thread runs the places over the service's lanes as a streamed
//! run does (`scheduler::run_scoped`, the one place worker threads are
//! spawned, joined and summed). Starting returns once every worker thread
//! is spawned, as a run's workers are before its caller goes on; the pool
//! is dropped when the thread returns.
//!
//! What differs from a run is that the service *is* a producer: it holds
//! one [`IngestHandle`] of its own, so the producer refcount that gates
//! termination (see [`crate::ingest`]) never reaches zero while the
//! service lives. Workers therefore **park** (see [`crate::park`]) through
//! arbitrarily long gaps between submissions — a quiescent service
//! consumes no CPU — and [`PoolService::shutdown`] is nothing but "drop
//! that last handle, then join the thread": quiescence, the condition
//! every run ends on, becomes the orderly shutdown protocol, and the run's
//! [`RunStats`] are the service's lifetime statistics. The outstanding
//! count and the abort gate live in the lanes, as they do for a run.
//!
//! With a lane capacity ([`crate::PoolBuilder::lane_capacity`]) the
//! ingress lanes are bounded:
//! [`PoolService::try_submit`] sheds with a typed [`SubmitError`] when
//! every lane is full, while the blocking [`PoolService::submit`] parks
//! the producer until a drain frees room. Either way, **after an abort**
//! (a task panicked under `FaultPolicy::AbortRun` — [`PoolService::join`]
//! returned `Err(PoolAborted)` — or the service was dropped without
//! shutdown) all submission paths fail with [`SubmitError::Aborted`] and
//! hand the task back, instead of silently accepting work that would be
//! discarded at shutdown. Start with [`crate::PoolBuilder::fault_policy`]
//! set to `FaultPolicy::Isolate` to quarantine panicking tasks instead of
//! aborting — see the "Failure handling" section of the crate docs.
//!
//! The service adds no wait of its own. Its submit methods are its own
//! [`IngestHandle`]'s; [`PoolService::join`] is the lanes' drain wait
//! (`IngressShared::wait_drained`, on the control slot, through
//! [`crate::park::ParkSlot::wait_until`]), with the abort outcome typed on
//! the way out.

use crate::ingest::{IngestHandle, IngressLanes, SubmitError};
use crate::park::ParkSlot;
use crate::pool::{FaultPolicy, TaskPool};
use crate::scheduler::{run_scoped, FailureReport, FaultCell, PoolAborted, RunStats, TaskExecutor};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::thread;
use std::sync::Arc;

/// Error from [`PoolService::shutdown`] when the pool aborted
/// (`FaultPolicy::AbortRun` and a task panicked): the aborting failure
/// plus the statistics accumulated up to the abort — shutdown never
/// resumes the panic on the caller.
#[derive(Debug)]
pub struct ShutdownError {
    /// The failure that raised the abort gate.
    pub failure: FailureReport,
    /// Lifetime statistics up to the abort (`failed`/`failures`
    /// populated).
    pub stats: RunStats,
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool service aborted: {}", self.failure)
    }
}

impl std::error::Error for ShutdownError {}

/// A running pool with its worker threads, accepting external submissions.
///
/// Started by [`crate::PoolBuilder::service`] over a fresh pool of the
/// builder's kind. See the module docs for the lifecycle.
pub struct PoolService<T: Send + 'static> {
    lanes: IngressLanes<T>,
    /// The service's own producer slot; taken (dropped) at shutdown.
    handle: Option<IngestHandle<T>>,
    faults: Arc<FaultCell>,
    /// The `priosched-service` thread, running the places over `lanes`;
    /// taken (joined) at shutdown or drop.
    runner: Option<thread::JoinHandle<RunStats>>,
}

impl<T: Send + 'static> PoolService<T> {
    /// Starts the `priosched-service` thread, which runs the places of
    /// `pool` against `executor` ([`run_scoped`]) behind fresh lanes of
    /// capacity `lane_capacity` each (`None` = unbounded), under
    /// `fault_policy`, until [`PoolService::shutdown`] (or drop) releases
    /// the service's producer handle and every external [`IngestHandle`]
    /// is gone; the pool is dropped when the thread returns.
    ///
    /// # Panics
    /// Panics if `lane_capacity` is `Some(0)`.
    pub(crate) fn start<P, E>(
        pool: Arc<P>,
        executor: Arc<E>,
        lane_capacity: Option<usize>,
        fault_policy: FaultPolicy,
    ) -> Self
    where
        P: TaskPool<T>,
        E: TaskExecutor<T> + Send + Sync + 'static,
    {
        let lanes = IngressLanes::with_capacity(pool.num_places(), lane_capacity);
        // Mint the service's own handle before any worker can observe the
        // producer count: a worker started against zero producers would
        // terminate immediately.
        let handle = lanes.handle();
        let faults = Arc::new(FaultCell::new(fault_policy));
        let (shared, cell) = (Arc::clone(lanes.shared()), Arc::clone(&faults));
        let ready = Arc::new((AtomicBool::new(false), ParkSlot::new()));
        let signal = Arc::clone(&ready);
        let runner = thread::Builder::new()
            .name("priosched-service".to_string())
            .spawn(move || {
                run_scoped(&pool, &cell, &*executor, &shared, || {
                    let (spawned, slot) = &*signal;
                    spawned.store(true, Ordering::Release);
                    slot.wake_if_waiting();
                })
            })
            .expect("failed to spawn the pool-service thread");
        // Return once the workers are spawned, as a run's caller would: a
        // service used at once must not wait out the thread's start-up.
        let (spawned, slot) = &*ready;
        slot.wait_until(|| spawned.load(Ordering::Acquire).then_some(()));
        PoolService {
            lanes,
            handle: Some(handle),
            faults,
            runner: Some(runner),
        }
    }

    /// Submits one task with priority `prio` (smaller = higher) and
    /// relaxation bound `k` through the service's own ingest handle,
    /// **blocking** (parking) while every bounded lane is at capacity.
    ///
    /// Fails — handing the task back — once the pool has aborted
    /// ([`SubmitError::Aborted`]: a task panicked, so the workers have
    /// exited and the submission would be silently discarded at shutdown)
    /// or shut down ([`SubmitError::ShutDown`]). A live, unbounded
    /// service always returns `Ok`.
    pub fn submit(&mut self, prio: u64, k: usize, task: T) -> Result<(), SubmitError<T>> {
        self.own_handle().submit(prio, k, task)
    }

    /// Non-blocking [`PoolService::submit`]: sheds with
    /// [`SubmitError::Full`] (task handed back) instead of parking when
    /// every lane is at capacity.
    pub fn try_submit(&mut self, prio: u64, k: usize, task: T) -> Result<(), SubmitError<T>> {
        self.own_handle().try_submit(prio, k, task)
    }

    /// Submits a batch sharing relaxation bound `k` (one lane, one lock;
    /// element-wise `k`/ρ accounting on drain), draining `batch` on
    /// success; blocks while full, chunking batches larger than the lane
    /// capacity. On `Err` what is left in `batch` is what was not
    /// submitted (its untouched prefix). Same abort/shutdown semantics as
    /// [`PoolService::submit`].
    pub fn submit_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) -> Result<(), SubmitError> {
        self.own_handle().submit_batch(k, batch)
    }

    /// Mints an [`IngestHandle`] for an external producer thread. The
    /// service stays alive until **all** such handles are dropped *and*
    /// [`PoolService::shutdown`] ran.
    pub fn ingest_handle(&self) -> IngestHandle<T> {
        self.lanes.handle()
    }

    /// Blocks until everything submitted so far has been executed (lanes
    /// empty, outstanding-task counter zero) — the workers stay running
    /// for the next round of submissions. Returns `Err(PoolAborted)` with
    /// the aborting failure if the pool aborted on a task panic instead
    /// (`FaultPolicy::AbortRun`); under `Isolate` a drain with quarantined
    /// failures is still `Ok` — inspect [`PoolService::failed`].
    ///
    /// Event-driven: the caller parks on the control slot and is woken by
    /// whichever half of its predicate turns true last — a place's settle
    /// taking the outstanding count to zero, or a lane drain taking the
    /// queued count to zero — or by an abort; no polling. The count read
    /// is the shared, credit-settled one (see [`crate::scheduler`]): it
    /// may read high while places still hold credits, never low, and the
    /// place that holds the last credits settles on its next failed pop.
    ///
    /// The abort is typed with the first recorded failure. The abort gate
    /// is raised *after* the failure record (see `SpawnCtx::run_one`), so
    /// an observed abort implies a visible report; the fallback covers only
    /// abortive teardown paths that never had a panicking task.
    pub fn join(&self) -> Result<(), PoolAborted> {
        if self.lanes.shared().wait_drained() {
            return Ok(());
        }
        Err(PoolAborted {
            failure: self.faults.first_failure().unwrap_or(FailureReport {
                place: 0,
                prio: 0,
                message: "pool aborted".to_string(),
            }),
        })
    }

    /// Number of task failures recorded so far: quarantined panics under
    /// `FaultPolicy::Isolate`, or the aborting panic under `AbortRun`.
    pub fn failed(&self) -> u64 {
        self.faults.failed()
    }

    /// Total idle-path iterations of the worker loops so far. A healthy
    /// quiescent service **parks**: this counter stops advancing once the
    /// workers have gone idle (the no-busy-wait guarantee, pinned by the
    /// `backpressure` integration tests).
    pub fn idle_iters(&self) -> u64 {
        self.lanes.shared().parker().idle_iters()
    }

    /// The per-lane ingress capacity (`None` = unbounded).
    pub fn lane_capacity(&self) -> Option<usize> {
        self.lanes.capacity()
    }

    /// Number of places (== worker threads == ingress lanes).
    pub fn places(&self) -> usize {
        self.lanes.num_lanes()
    }

    /// Tasks submitted but not yet transferred into the pool.
    pub fn queued(&self) -> u64 {
        self.lanes.queued()
    }

    /// Drops the service's producer handle, waits for quiescence, joins
    /// the service's thread, and returns the aggregated statistics of the
    /// service's whole lifetime. If the pool aborted on a task panic
    /// (`FaultPolicy::AbortRun`), returns a typed [`ShutdownError`]
    /// carrying the failure and the partial stats — never a resumed
    /// panic. Under `Isolate`, quarantined failures ride along on
    /// `Ok(stats)` (`RunStats::failed`/`failures`).
    ///
    /// Blocks until every external [`IngestHandle`] is dropped — they are
    /// the remaining producers the quiescence protocol waits on.
    // Called once per service lifetime; the fat Err (full RunStats +
    // failure) is worth more to callers than a boxed indirection.
    #[allow(clippy::result_large_err)]
    pub fn shutdown(mut self) -> Result<RunStats, ShutdownError> {
        let stats = self
            .stop()
            .expect("pool-service worker thread itself panicked");
        // The gate keeps an abort through the shutdown `stop` marked.
        if self.lanes.shared().aborted() {
            if let Some(failure) = stats.failures.first().cloned() {
                return Err(ShutdownError { failure, stats });
            }
        }
        Ok(stats)
    }

    fn own_handle(&mut self) -> &mut IngestHandle<T> {
        self.handle
            .as_mut()
            .expect("PoolService handle present until shutdown")
    }

    /// Releases the service's producer slot and joins the service's
    /// thread. A worker that died outside `run_one`'s `catch_unwind` (a
    /// pool or scheduler assertion) takes that thread down with it and
    /// comes back as `None`, for the caller to raise
    /// ([`PoolService::shutdown`]) or discard (`Drop`).
    fn stop(&mut self) -> Option<RunStats> {
        self.handle = None;
        let runner = self.runner.take().expect("joined once");
        let joined = runner.join().ok();
        // The workers are gone; nothing will ever drain these lanes again.
        // Mark them so any straggling submission fails with `ShutDown`
        // instead of queueing into the void.
        self.lanes.shared().shut_down_and_wake();
        joined
    }
}

impl<T: Send + 'static> Drop for PoolService<T> {
    /// Dropping without [`PoolService::shutdown`] is an *abortive* stop:
    /// the abort gate is raised so workers exit after their current task
    /// (not-yet-executed submissions are discarded with the pool), then
    /// the service's thread is joined. Raising abort is what keeps an
    /// implicit drop — including one during a panic unwind — from hanging
    /// forever on external [`IngestHandle`]s that will never be dropped;
    /// only the explicit `shutdown` waits for full quiescence. No panic
    /// payload is re-raised, a dead worker's included — dropping is not
    /// the place to unwind, and during an unwind a second panic aborts the
    /// process.
    fn drop(&mut self) {
        if self.runner.is_some() {
            // Poison the lanes and wake everything: parked workers must
            // observe the abort to exit, and producers blocked on full
            // lanes must fail with `Aborted` rather than sleep forever.
            self.lanes.shared().abort_and_wake();
            let _ = self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::PoolBuilder;
    use crate::pool::{PoolHandle, PoolKind};
    use crate::scheduler::SpawnCtx;
    use crate::stats::PlaceStats;
    use crate::sync::atomic::{AtomicU64, Ordering};

    /// Counts executions; spawns a countdown chain below each submitted
    /// value, so submissions transitively create in-pool work.
    struct CountDown(AtomicU64);
    impl TaskExecutor<u64> for CountDown {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            self.0.fetch_add(1, Ordering::Relaxed);
            if task > 0 {
                ctx.spawn(task - 1, 8, task - 1);
            }
        }
    }

    #[test]
    fn submit_join_rounds_then_shutdown() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        let mut svc = PoolBuilder::new(PoolKind::Hybrid)
            .places(2)
            .service(Arc::clone(&exec));
        assert_eq!(svc.places(), 2);

        svc.submit(5, 8, 5u64).unwrap(); // 5,4,3,2,1,0 → 6 executions
        svc.join().unwrap();
        assert_eq!(exec.0.load(Ordering::Relaxed), 6);

        // The service survives the drain: a second round reuses the same
        // workers and pool.
        svc.submit(2, 8, 2u64).unwrap();
        svc.submit(1, 8, 1u64).unwrap();
        svc.join().unwrap();
        assert_eq!(exec.0.load(Ordering::Relaxed), 6 + 3 + 2);

        let stats = svc.shutdown().expect("clean shutdown");
        assert_eq!(stats.executed, 11);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.per_place_executed.len(), 2);
    }

    #[test]
    fn external_producers_feed_through_ingest_handles() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        let svc = PoolBuilder::new(PoolKind::WorkStealing)
            .places(4)
            .service(Arc::clone(&exec));
        let producers = 4u64;
        let per = 100u64;
        std::thread::scope(|s| {
            for _ in 0..producers {
                let mut h = svc.ingest_handle();
                s.spawn(move || {
                    let mut batch = Vec::new();
                    for i in 0..per {
                        batch.push((i, i));
                        if batch.len() == 16 {
                            h.submit_batch(8, &mut batch).unwrap();
                        }
                    }
                    h.submit_batch(8, &mut batch).unwrap();
                });
            }
        });
        svc.join().unwrap();
        // Every submitted value i runs itself plus its countdown chain:
        // i + 1 executions.
        let expect: u64 = producers * (0..per).map(|i| i + 1).sum::<u64>();
        assert_eq!(exec.0.load(Ordering::Relaxed), expect);
        let stats = svc.shutdown().expect("clean shutdown");
        assert_eq!(stats.executed, expect);
    }

    struct PanicOn13;
    impl TaskExecutor<u64> for PanicOn13 {
        fn execute(&self, t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            if t == 13 {
                panic!("boom at 13");
            }
        }
    }

    #[test]
    fn task_panic_surfaces_as_typed_results() {
        let mut svc = PoolBuilder::new(PoolKind::WorkStealing)
            .places(2)
            .service(Arc::new(PanicOn13));
        svc.submit(13, 0, 13u64).unwrap();
        let aborted = svc.join().expect_err("join must report the abort");
        assert_eq!(aborted.failure.prio, 13);
        assert!(
            aborted.failure.message.contains("boom at 13"),
            "got: {aborted}"
        );
        assert_eq!(svc.failed(), 1);
        let err = svc
            .shutdown()
            .expect_err("shutdown must report the abort as a typed error");
        assert!(err.failure.message.contains("boom at 13"), "got: {err}");
        assert_eq!(err.stats.failed, 1);
        assert_eq!(err.stats.failures[0].prio, 13);
    }

    #[test]
    fn isolate_policy_keeps_service_running_past_panics() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        struct Mixed(Arc<CountDown>);
        impl TaskExecutor<u64> for Mixed {
            fn execute(&self, t: u64, ctx: &mut SpawnCtx<'_, u64>) {
                if t == 13 {
                    panic!("boom at 13");
                }
                self.0.execute(t, ctx);
            }
        }
        let mut svc = PoolBuilder::new(PoolKind::WorkStealing)
            .places(2)
            .lane_capacity(8)
            .fault_policy(FaultPolicy::Isolate)
            .service(Arc::new(Mixed(Arc::clone(&exec))));
        svc.submit(13, 0, 13u64).unwrap();
        svc.submit(3, 8, 3u64).unwrap();
        svc.join().expect("isolated failures do not abort");
        assert_eq!(svc.failed(), 1);
        // The service keeps serving after the quarantine.
        svc.submit(2, 8, 2u64).unwrap();
        svc.join().unwrap();
        let stats = svc.shutdown().expect("isolate shuts down cleanly");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.failures[0].message, "boom at 13");
        // 3,2,1,0 + 2,1,0 executed; the bomb is quarantined, not counted.
        assert_eq!(stats.executed, 7);
    }

    #[test]
    fn idle_service_shuts_down_cleanly() {
        let svc: PoolService<u64> = PoolBuilder::new(PoolKind::Hybrid)
            .places(3)
            .service(Arc::new(CountDown(AtomicU64::new(0))));
        svc.join().expect("an idle service is trivially drained");
        let stats = svc.shutdown().expect("clean shutdown");
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.per_place_executed, vec![0, 0, 0]);
    }

    #[test]
    fn dropping_service_with_live_external_handle_does_not_hang() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        let svc: PoolService<u64> = PoolBuilder::new(PoolKind::Hybrid).places(2).service(exec);
        let external = svc.ingest_handle();
        // Implicit drop must abort and join even though `external` still
        // holds a producer slot (quiescence would wait on it forever).
        drop(svc);
        drop(external);
    }

    /// A pool whose pops panic: its workers die outside `run_one`'s
    /// `catch_unwind`, the way a pool or scheduler assertion kills them.
    struct BrokenPool;
    struct BrokenHandle;
    impl TaskPool<u64> for BrokenPool {
        type Handle = BrokenHandle;
        fn num_places(&self) -> usize {
            1
        }
        fn handle(self: &Arc<Self>, _place: usize) -> BrokenHandle {
            BrokenHandle
        }
    }
    impl PoolHandle<u64> for BrokenHandle {
        fn push(&mut self, _prio: u64, _k: usize, _task: u64) {}
        fn pop_entry(&mut self) -> Option<(u64, u64)> {
            panic!("pool invariant violated")
        }
        fn stats(&self) -> PlaceStats {
            PlaceStats::default()
        }
    }

    #[test]
    fn dropping_service_with_a_dead_worker_does_not_panic() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        let svc: PoolService<u64> =
            PoolService::start(Arc::new(BrokenPool), exec, None, FaultPolicy::AbortRun);
        // Gate on state: the worker, and with it the service's thread, must
        // be dead, not merely about to see the abort gate that `Drop`
        // raises.
        while !svc.runner.as_ref().is_some_and(|r| r.is_finished()) {
            std::thread::yield_now();
        }
        // Drop may run during an unwind, where a second panic aborts the
        // process: it joins the dead thread and discards its payload.
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(svc)));
        assert!(dropped.is_ok(), "Drop re-raised a dead worker's panic");
    }

    #[test]
    fn dropping_service_joins_workers() {
        let exec = Arc::new(CountDown(AtomicU64::new(0)));
        {
            let mut svc = PoolBuilder::new(PoolKind::Hybrid)
                .places(2)
                .service(Arc::clone(&exec));
            svc.submit(3, 8, 3u64).unwrap();
            svc.join().unwrap();
            // No shutdown: Drop must still release the producer slot and
            // join the workers without hanging.
        }
        assert_eq!(exec.0.load(Ordering::Relaxed), 4);
    }
}
