//! Backpressure and parking: bounded ingress lanes must change *resource
//! behavior* (shedding, blocking, zero idle CPU) without ever changing
//! *results*.
//!
//! Three pillars:
//!
//! 1. **Equivalence** — a proptest pins preseeded ≡ streamed-unbounded ≡
//!    streamed-with-tiny-`lane_capacity` on all five structures: the
//!    shed/park/wake machinery may never drop, duplicate, or corrupt a
//!    task.
//! 2. **Shed path** — every `SubmitError::Full` hands the rejected item
//!    back intact; what was accepted is exactly what executes.
//! 3. **Idle behavior** — a quiescent `PoolService` *parks*: its worker
//!    loops make **zero** idle iterations while there is nothing to do,
//!    and a submission after full idle wakes them (the no-busy-wait
//!    acceptance bar for this subsystem). Post-abort submissions surface
//!    `SubmitError::Aborted` instead of silently vanishing.

use priosched_core::{
    run_on_kind, run_stream_on_kind, IngressLanes, PoolBuilder, PoolKind, PoolParams, PoolService,
    SpawnCtx, SubmitError, TaskExecutor,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts executions and sums payloads; tasks divisible by 3 spawn a
/// half-value child, so part of the work is created *inside* the pool and
/// the backpressured path has to interleave correctly with in-pool
/// spawning.
#[derive(Default)]
struct Accumulate {
    count: AtomicU64,
    sum: AtomicU64,
}

impl TaskExecutor<u64> for Accumulate {
    fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(task, Ordering::Relaxed);
        if task > 0 && task.is_multiple_of(3) {
            ctx.spawn(task / 2, 8, task / 2);
        }
    }
}

/// `(count, sum)` the executor must end at for this seed multiset,
/// computed by sequentially unrolling every chain.
fn expected(seeds: &[(u64, usize, u64)]) -> (u64, u64) {
    let (mut count, mut sum) = (0u64, 0u64);
    for &(_, _, mut task) in seeds {
        loop {
            count += 1;
            sum += task;
            if task > 0 && task.is_multiple_of(3) {
                task /= 2;
            } else {
                break;
            }
        }
    }
    (count, sum)
}

/// Streams `seeds` from `producers` threads through lanes of the given
/// capacity (blocking submits: producers park under backpressure) and
/// returns the executor's `(count, sum)`.
fn run_streamed(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    seeds: &[(u64, usize, u64)],
    producers: usize,
    capacity: Option<usize>,
) -> (u64, u64) {
    let exec = Accumulate::default();
    let ingress = IngressLanes::with_capacity(places, capacity);
    std::thread::scope(|s| {
        let mut shards: Vec<Vec<(u64, usize, u64)>> = (0..producers).map(|_| Vec::new()).collect();
        for (i, seed) in seeds.iter().enumerate() {
            shards[i % producers].push(*seed);
        }
        for shard in shards {
            let mut h = ingress.handle();
            s.spawn(move || {
                for (prio, k, task) in shard {
                    h.submit(prio, k, task).expect("live run accepts");
                }
            });
        }
        run_stream_on_kind(kind, places, params, &exec, &ingress)
    });
    (
        exec.count.load(Ordering::Relaxed),
        exec.sum.load(Ordering::Relaxed),
    )
}

/// Maps raw generated bytes to seed triples; `k` alternates between two
/// values so lane draining has to split batches at `k`-run boundaries.
fn to_seeds(raw: &[(u16, u8)]) -> Vec<(u64, usize, u64)> {
    raw.iter()
        .map(|&(prio, payload)| {
            let k = if payload % 2 == 0 { 8 } else { 32 };
            (prio as u64, k, payload as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The satellite guarantee: preseeded ≡ streamed ≡ streamed with a
    /// tiny lane capacity (2), on every structure. Capacity 2 with up to
    /// 40 seeds forces real backpressure — producers park and wake many
    /// times per case.
    #[test]
    fn preseeded_streamed_and_backpressured_agree(
        raw in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..40),
        producers in 1usize..4,
    ) {
        let seeds = to_seeds(&raw);
        let (want_count, want_sum) = expected(&seeds);
        for kind in PoolKind::ALL {
            let params = PoolParams::with_k(16);
            let places = 2;

            let pre = Accumulate::default();
            let stats = run_on_kind(kind, places, params, &pre, seeds.clone());
            prop_assert_eq!(stats.executed, want_count, "preseeded {}", kind);
            prop_assert_eq!(pre.sum.load(Ordering::Relaxed), want_sum);

            let unbounded = run_streamed(kind, places, params, &seeds, producers, None);
            prop_assert_eq!(unbounded, (want_count, want_sum), "streamed {}", kind);

            let capped = run_streamed(kind, places, params, &seeds, producers, Some(2));
            prop_assert_eq!(
                capped,
                (want_count, want_sum),
                "streamed with lane_capacity=2 diverges on {}",
                kind
            );
        }
    }
}

/// Every `SubmitError::Full` hands the item back intact, and the accepted
/// multiset is exactly what executes — shedding never corrupts.
#[test]
fn shed_path_hands_rejected_items_back_intact() {
    let lanes: IngressLanes<Box<u64>> = IngressLanes::with_capacity(2, Some(2));
    let mut h = lanes.handle();
    let mut accepted: Vec<u64> = Vec::new();
    let mut rejected: Vec<u64> = Vec::new();
    for i in 0..32u64 {
        match h.try_submit(i, 8, Box::new(i)) {
            Ok(()) => accepted.push(i),
            Err(SubmitError::Full(task)) => {
                assert_eq!(*task, i, "rejected payload must come back unchanged");
                rejected.push(i);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(accepted.len(), 4, "2 lanes × capacity 2");
    assert_eq!(rejected.len(), 28);
    assert_eq!(lanes.queued(), 4);

    // Now drain through a real scheduler run: exactly the accepted
    // multiset must execute.
    let exec = Accumulate::default();
    struct Unbox<'a>(&'a Accumulate);
    impl TaskExecutor<Box<u64>> for Unbox<'_> {
        fn execute(&self, task: Box<u64>, _ctx: &mut SpawnCtx<'_, Box<u64>>) {
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(*task, Ordering::Relaxed);
        }
    }
    drop(h);
    let stats = run_stream_on_kind(
        PoolKind::Hybrid,
        2,
        PoolParams::with_k(8),
        &Unbox(&exec),
        &lanes,
    );
    assert_eq!(stats.executed, 4);
    assert_eq!(
        exec.sum.load(Ordering::Relaxed),
        accepted.iter().sum::<u64>(),
        "executed multiset must be exactly the accepted submissions"
    );
}

/// The no-busy-wait acceptance bar: a quiescent service makes **zero**
/// idle-loop iterations while parked, and a submission after full idle
/// wakes it.
#[test]
fn quiescent_service_parks_making_no_idle_iterations() {
    struct CountDown(AtomicU64);
    impl TaskExecutor<u64> for CountDown {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            self.0.fetch_add(1, Ordering::Relaxed);
            if task > 0 {
                ctx.spawn(task - 1, 8, task - 1);
            }
        }
    }
    let exec = Arc::new(CountDown(AtomicU64::new(0)));
    let mut svc = PoolBuilder::new(PoolKind::Hybrid)
        .places(3)
        .service(Arc::clone(&exec));
    svc.submit(5, 8, 5u64).unwrap();
    svc.join().unwrap();
    assert_eq!(exec.0.load(Ordering::Relaxed), 6);

    // Give the workers time to run down their backoff and park…
    std::thread::sleep(Duration::from_millis(80));
    let parked_at = svc.idle_iters();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        svc.idle_iters(),
        parked_at,
        "an idle service must park, not iterate its progress loops"
    );

    // …and a submission after full idle must wake them.
    svc.submit(3, 8, 3u64).unwrap();
    svc.join().unwrap();
    assert_eq!(exec.0.load(Ordering::Relaxed), 6 + 4);
    let stats = svc.shutdown().expect("clean shutdown");
    assert_eq!(stats.executed, 10);
}

/// Regression for the join lost wakeup: a lane drain charges the
/// outstanding count, pushes, and only then lowers `queued`. If another
/// place ran the task in between, the count → 0 wake found the joiner's
/// predicate (`queued == 0 ∧ count == 0`) still false, the joiner parked
/// again, and nothing woke it when `queued` fell. `k = 0` makes the drained
/// task visible to the other places at once, which is what opens that
/// window; a stalled round fails the test through the watchdog instead of
/// hanging it.
#[test]
fn submit_one_join_round_trips_never_sleep_through_the_drain() {
    const ROUNDS: u64 = 20_000;
    for kind in [PoolKind::Structural, PoolKind::Hybrid] {
        for places in [2usize, 4] {
            let done = Arc::new(AtomicU64::new(0));
            let (finished_tx, finished_rx) = std::sync::mpsc::channel();
            let rounds_done = Arc::clone(&done);
            std::thread::spawn(move || {
                let exec = Arc::new(Accumulate::default());
                let mut svc = PoolBuilder::new(kind)
                    .places(places)
                    .service(Arc::clone(&exec));
                for round in 1..=ROUNDS {
                    // Payload 1 spawns nothing: one execution per round.
                    svc.submit(round, 0, 1).unwrap();
                    svc.join().unwrap();
                    assert_eq!(exec.count.load(Ordering::Relaxed), round);
                    rounds_done.store(round, Ordering::Release);
                }
                svc.shutdown().expect("clean shutdown");
                finished_tx.send(()).unwrap();
            });
            // Watchdog: progress, not a total budget, so a slow box only
            // makes the test slow.
            let mut seen = 0;
            loop {
                match finished_rx.recv_timeout(Duration::from_secs(10)) {
                    Ok(()) => break,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        let now = done.load(Ordering::Acquire);
                        assert!(
                            now > seen,
                            "{kind:?} on {places} places: join() asleep since round {now}"
                        );
                        seen = now;
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        panic!("{kind:?} on {places} places: round-trip thread panicked")
                    }
                }
            }
        }
    }
}

/// Producers that outrun a bounded service park in blocking `submit` and
/// are released drain by drain; every submission still executes exactly
/// once.
#[test]
fn blocking_submit_backpressure_completes_under_load() {
    struct Count(AtomicU64);
    impl TaskExecutor<u64> for Count {
        fn execute(&self, _t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let exec = Arc::new(Count(AtomicU64::new(0)));
    let svc: PoolService<u64> = PoolBuilder::new(PoolKind::WorkStealing)
        .places(2)
        .k(8)
        .lane_capacity(1) // brutal: every second submission blocks
        .service(Arc::clone(&exec));
    assert_eq!(svc.lane_capacity(), Some(1));
    let producers = 3u64;
    let per = 200u64;
    std::thread::scope(|s| {
        for _ in 0..producers {
            let mut h = svc.ingest_handle();
            s.spawn(move || {
                for i in 0..per {
                    h.submit(i, 8, i).expect("live service accepts");
                }
                // Batches larger than the capacity chunk internally.
                let mut batch: Vec<(u64, u64)> = (0..16).map(|i| (i, i)).collect();
                h.submit_batch(8, &mut batch).expect("live service accepts");
            });
        }
    });
    svc.join().unwrap();
    assert_eq!(exec.0.load(Ordering::Relaxed), producers * (per + 16));
    svc.shutdown().expect("clean shutdown");
}

struct PanicOn13;
impl TaskExecutor<u64> for PanicOn13 {
    fn execute(&self, t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
        if t == 13 {
            panic!("boom at 13");
        }
    }
}

/// The post-abort satellite fix: after a task panic, `submit` no longer
/// silently accepts tasks that would be discarded at shutdown — every
/// submission path fails with `Aborted`, handing the task back.
#[test]
fn post_abort_submissions_surface_aborted_with_task_handed_back() {
    let mut svc = PoolBuilder::new(PoolKind::WorkStealing)
        .places(2)
        .service(Arc::new(PanicOn13));
    svc.submit(13, 0, 13u64).unwrap();
    let aborted = svc.join().expect_err("join must report the abort");
    assert!(
        aborted.failure.message.contains("boom at 13"),
        "got: {aborted}"
    );

    match svc.try_submit(1, 0, 41u64) {
        Err(SubmitError::Aborted(task)) => assert_eq!(task, 41),
        other => panic!("try_submit after abort must fail with Aborted, got {other:?}"),
    }
    match svc.submit(1, 0, 42u64) {
        Err(SubmitError::Aborted(task)) => assert_eq!(task, 42),
        other => panic!("submit after abort must fail with Aborted, got {other:?}"),
    }
    let mut batch = vec![(1u64, 43u64), (2, 44)];
    assert_eq!(
        svc.submit_batch(0, &mut batch),
        Err(SubmitError::Aborted(()))
    );
    assert_eq!(batch.len(), 2, "batch handed back on abort");

    let err = svc
        .shutdown()
        .expect_err("shutdown must report the abort as a typed error");
    assert!(err.failure.message.contains("boom at 13"), "got: {err}");
}

/// A producer parked in blocking `submit` against a full lane must be
/// woken into `Aborted` when the service is dropped — not sleep forever.
#[test]
fn dropped_service_releases_blocked_producers() {
    struct Stall;
    impl TaskExecutor<u64> for Stall {
        fn execute(&self, _t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            // Slow worker: keeps the single lane full long enough for the
            // producer to park.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let svc: PoolService<u64> = PoolBuilder::new(PoolKind::Hybrid)
        .lane_capacity(1)
        .service(Arc::new(Stall));
    let mut h = svc.ingest_handle();
    let producer = std::thread::spawn(move || {
        let mut blocked_outcomes = 0u32;
        // Flood far beyond the capacity; once the service drops mid-flood
        // the remaining submissions must all fail fast with Aborted.
        for i in 0..200u64 {
            match h.submit(i, 8, i) {
                Ok(()) => {}
                Err(SubmitError::Aborted(_)) => blocked_outcomes += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        blocked_outcomes
    });
    std::thread::sleep(Duration::from_millis(40));
    drop(svc); // abortive: must wake the parked producer into an error
    let aborted = producer.join().expect("producer must terminate");
    assert!(aborted > 0, "the flood must have hit the abort");
}

/// `run_stream` with a capacity behaves like `run_stream` without one —
/// on the facade path (`PoolParams::lane_capacity` travels through
/// `PoolBuilder`).
#[test]
fn facade_carries_lane_capacity_into_streamed_runs() {
    let seeds: Vec<(u64, usize, u64)> = (0..60u64).map(|i| (i, 8usize, i)).collect();
    let (want_count, want_sum) = expected(&seeds);
    for kind in PoolKind::ALL {
        let params = PoolParams::with_k(16).with_lane_capacity(Some(3));
        let got = run_streamed(kind, 2, params, &seeds, 2, params.lane_capacity);
        assert_eq!(got, (want_count, want_sum), "{kind}");
    }
}
