//! Async ingestion equivalence: the waker-based submit path may never be
//! distinguishable from the blocking path — or from preseeding — by what
//! the pool computes.
//!
//! The satellite proptest pins **preseeded ≡ blocking-submitted ≡
//! async-submitted** on all five structures with a tiny `lane_capacity`
//! (4), so the async producers constantly hit `Full`, deposit their
//! wakers, and are re-polled by worker drains: the `Full → Poll::Pending`
//! machinery runs for real in every case, driven by the in-tree
//! `futures-executor` shim (one `LocalPool` multiplexing all producers on
//! one reactor thread — the connection-actor shape).

use futures_executor::LocalPool;
use priosched_core::{
    run_on_kind, run_stream_on_kind, IngressLanes, PoolKind, PoolParams, PoolService, SpawnCtx,
    SubmitError, TaskExecutor,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts executions and sums payloads; tasks divisible by 3 spawn a
/// half-value child, so the async path interleaves with in-pool spawning.
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

/// `(count, sum)` the executor must end at for this seed multiset.
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

/// Streams `seeds` from `producers` *async* tasks multiplexed on one
/// `LocalPool` reactor thread, each submitting through its own
/// `AsyncIngestHandle` (scalars and batches alternating), while the pool
/// drains on the calling thread.
fn run_async_streamed(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    seeds: &[(u64, usize, u64)],
    producers: usize,
) -> (u64, u64) {
    let exec = Accumulate::default();
    let ingress = IngressLanes::with_capacity(places, params.lane_capacity);
    let mut shards: Vec<Vec<(u64, usize, u64)>> = (0..producers).map(|_| Vec::new()).collect();
    for (i, seed) in seeds.iter().enumerate() {
        shards[i % producers].push(*seed);
    }
    // Mint every handle before the streamed run starts (the usual
    // contract), then move them into async producer tasks.
    let handles: Vec<_> = shards
        .iter()
        .map(|_| ingress.handle().into_async())
        .collect();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut pool = LocalPool::new();
            let spawner = pool.spawner();
            for (mut handle, shard) in handles.into_iter().zip(shards) {
                spawner.spawn_local(async move {
                    // Alternate scalar and batch submission so both future
                    // types exercise their pending/waker path.
                    let mut batch: Vec<(u64, u64)> = Vec::new();
                    for (idx, (prio, k, task)) in shard.into_iter().enumerate() {
                        if idx % 2 == 0 {
                            handle
                                .submit(prio, k, task)
                                .await
                                .expect("live run accepts");
                        } else {
                            batch.push((prio, task));
                            let res = handle.submit_batch(k, &mut batch).await;
                            res.expect("live run accepts");
                        }
                    }
                    // The handle drops here: this producer's "no more
                    // input" signal.
                });
            }
            pool.run();
        });
        run_stream_on_kind(kind, places, params, &exec, &ingress)
    });
    (
        exec.count.load(Ordering::Relaxed),
        exec.sum.load(Ordering::Relaxed),
    )
}

/// Blocking-submission reference (thread per producer, parking submits).
fn run_blocking_streamed(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    seeds: &[(u64, usize, u64)],
    producers: usize,
) -> (u64, u64) {
    let exec = Accumulate::default();
    let ingress = IngressLanes::with_capacity(places, params.lane_capacity);
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

/// `k` alternates between two values so lane draining splits batches at
/// `k`-run boundaries on the async path too.
fn to_seeds(raw: &[(u16, u8)]) -> Vec<(u64, usize, u64)> {
    raw.iter()
        .map(|&(prio, payload)| {
            let k = if payload % 2 == 0 { 8 } else { 32 };
            (prio as u64, k, payload as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance-criteria proptest: async-submitted ≡
    /// blocking-submitted ≡ preseeded on all five structures with
    /// `lane_capacity = 4`.
    #[test]
    fn async_blocking_and_preseeded_agree(
        raw in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..40),
        producers in 1usize..4,
    ) {
        let seeds = to_seeds(&raw);
        let (want_count, want_sum) = expected(&seeds);
        for kind in PoolKind::ALL {
            let params = PoolParams::with_k(16).with_lane_capacity(Some(4));
            let places = 2;

            let pre = Accumulate::default();
            let stats = run_on_kind(kind, places, params, &pre, seeds.clone());
            prop_assert_eq!(stats.executed, want_count, "preseeded {}", kind);
            prop_assert_eq!(pre.sum.load(Ordering::Relaxed), want_sum);

            let blocking = run_blocking_streamed(kind, places, params, &seeds, producers);
            prop_assert_eq!(blocking, (want_count, want_sum), "blocking {}", kind);

            let async_run = run_async_streamed(kind, places, params, &seeds, producers);
            prop_assert_eq!(
                async_run,
                (want_count, want_sum),
                "async submission diverges on {}",
                kind
            );
        }
    }
}

/// The service-level async story end to end: `async_ingest_handle` +
/// `join_async` driven by `block_on`, with backpressure (capacity 2).
#[test]
fn service_async_submit_and_join() {
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
    let svc: PoolService<u64> = priosched_core::PoolBuilder::new(PoolKind::Hybrid)
        .places(2)
        .k(8)
        .lane_capacity(2)
        .service(Arc::clone(&exec));
    let mut handle = svc.async_ingest_handle();
    let drained = futures_executor::block_on(async {
        for i in 0..20u64 {
            handle.submit(i, 8, i).await.expect("live service accepts");
        }
        let mut batch: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i)).collect();
        handle.submit_batch(8, &mut batch).await.expect("live");
        svc.join_async().await
    });
    drained.expect("join_async must report a clean drain");
    let want: u64 = (0..20u64).map(|i| i + 1).sum::<u64>() + (0..10u64).map(|i| i + 1).sum::<u64>();
    assert_eq!(exec.0.load(Ordering::Relaxed), want);
    drop(handle);
    let stats = svc.shutdown().expect("clean shutdown");
    assert_eq!(stats.executed, want);
}

/// `join_async` on an aborted service resolves to a typed `PoolAborted`
/// error (and does not hang), mirroring the blocking `join`.
#[test]
fn join_async_reports_abort() {
    struct PanicOn13;
    impl TaskExecutor<u64> for PanicOn13 {
        fn execute(&self, t: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            if t == 13 {
                panic!("boom at 13");
            }
        }
    }
    let mut svc: PoolService<u64> = priosched_core::PoolBuilder::new(PoolKind::WorkStealing)
        .places(2)
        .service(Arc::new(PanicOn13));
    svc.submit(13, 0, 13u64).unwrap();
    let aborted =
        futures_executor::block_on(svc.join_async()).expect_err("join_async must report the abort");
    assert!(
        aborted.failure.message.contains("boom at 13"),
        "got: {aborted}"
    );
    // And async submission after the abort surfaces the typed error.
    let mut handle = svc.async_ingest_handle();
    match futures_executor::block_on(handle.submit(1, 0, 41)) {
        Err(SubmitError::Aborted(task)) => assert_eq!(task, 41),
        other => panic!("expected Aborted, got {other:?}"),
    }
    drop(handle);
    let err = svc
        .shutdown()
        .expect_err("shutdown must report the abort as a typed error");
    assert!(err.failure.message.contains("boom at 13"), "got: {err}");
}
