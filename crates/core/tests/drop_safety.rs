//! Drop-safety and leak tests for the unsafe item machinery.
//!
//! The item pool hands payloads across threads through raw pointers and
//! `MaybeUninit` storage; these tests verify with a drop-counting payload
//! that every task is dropped **exactly once** under every lifecycle:
//! popped-and-dropped, left inside the structure at drop time, spied,
//! published, recycled, or consumed concurrently.

use priosched_core::{
    run_stream_on_kind, CentralizedKPriority, HybridKPriority, IngressLanes, PoolHandle, PoolKind,
    PoolParams, SpawnCtx, TaskExecutor, TaskPool,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Payload that counts its drops and aborts on double-drop.
struct Tracked {
    counter: Arc<AtomicUsize>,
    dropped: bool,
}

impl Tracked {
    fn new(counter: &Arc<AtomicUsize>) -> Self {
        Tracked {
            counter: Arc::clone(counter),
            dropped: false,
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        assert!(!self.dropped, "double drop of a task payload");
        self.dropped = true;
        self.counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// `kind` as the runtime builds it, at two places: pushes 100 tracked
/// payloads at k = 4, pops 40 of them, then drops the pool; afterwards every
/// payload must have been dropped exactly once.
fn drops_exactly_once(kind: PoolKind) {
    assert_eq!(
        DROP_KINDS,
        PoolKind::ALL,
        "a new kind needs its line in `drops_exactly_once!`"
    );
    let (total, take) = (100, 40);
    let drops = Arc::new(AtomicUsize::new(0));
    let pool = Arc::new(kind.build(2, PoolParams::with_k(4)));
    {
        let mut h = pool.handle(0);
        for i in 0..total {
            h.push(i as u64, 4, Tracked::new(&drops));
        }
        let mut taken = 0;
        let mut misses = 0;
        while taken < take && misses < 10_000 {
            match h.pop() {
                Some(t) => {
                    drop(t);
                    taken += 1;
                    misses = 0;
                }
                None => misses += 1,
            }
        }
        assert_eq!(taken, take, "{kind}: could not pop the requested number");
        assert_eq!(drops.load(Ordering::Relaxed), take, "{kind}");
    }
    drop(pool);
    assert_eq!(
        drops.load(Ordering::Relaxed),
        total,
        "{kind}: payloads left in the structure must be dropped exactly once on drop"
    );
}

/// One drop test per kind; each checks that the list covers `PoolKind::ALL`.
macro_rules! drops_exactly_once {
    ($($name:ident => $kind:expr),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                drops_exactly_once($kind);
            }
        )*
        const DROP_KINDS: &[PoolKind] = &[$($kind),*];
    };
}

drops_exactly_once! {
    workstealing_drops_exactly_once => PoolKind::WorkStealing,
    centralized_drops_exactly_once => PoolKind::Centralized,
    hybrid_drops_exactly_once => PoolKind::Hybrid,
    structural_drops_exactly_once => PoolKind::Structural,
    multiqueue_drops_exactly_once => PoolKind::MultiQueue,
}

#[test]
fn hybrid_unpublished_tasks_dropped_once() {
    // Large k: tasks stay in the local list; handle drop publishes them;
    // structure drop must reclaim them exactly once.
    let drops = Arc::new(AtomicUsize::new(0));
    let pool = Arc::new(HybridKPriority::new(2));
    {
        let mut h = pool.handle(0);
        for i in 0..50u64 {
            h.push(i, usize::MAX, Tracked::new(&drops));
        }
    }
    assert_eq!(drops.load(Ordering::Relaxed), 0);
    drop(pool);
    assert_eq!(drops.load(Ordering::Relaxed), 50);
}

#[test]
fn centralized_in_window_tasks_dropped_once() {
    // Tasks parked after the tail (never taken) must be reclaimed on drop.
    let drops = Arc::new(AtomicUsize::new(0));
    let pool = Arc::new(CentralizedKPriority::new(1, 64));
    {
        let mut h = pool.handle(0);
        for i in 0..10u64 {
            h.push(i, 64, Tracked::new(&drops));
        }
    }
    drop(pool);
    assert_eq!(drops.load(Ordering::Relaxed), 10);
}

#[test]
fn recycled_items_do_not_leak_under_churn() {
    // Push/pop churn forces item recycling through the free list; drop
    // counts must stay exact throughout.
    let drops = Arc::new(AtomicUsize::new(0));
    let pool = Arc::new(HybridKPriority::new(1));
    let mut h = pool.handle(0);
    let rounds = 50usize;
    let per = 40usize;
    for r in 0..rounds {
        for i in 0..per {
            h.push((r * per + i) as u64, 4, Tracked::new(&drops));
        }
        for _ in 0..per {
            assert!(h.pop().is_some());
        }
        assert_eq!(drops.load(Ordering::Relaxed), (r + 1) * per);
    }
    drop(h);
    drop(pool);
    assert_eq!(drops.load(Ordering::Relaxed), rounds * per);
}

/// Tasks still sitting in ingress lanes when the lanes are dropped (never
/// having reached any pool) must be dropped exactly once — the same
/// guarantee the item free list gives in-structure tasks.
#[test]
fn ingress_lane_tasks_dropped_once_without_running() {
    let drops = Arc::new(AtomicUsize::new(0));
    let lanes: IngressLanes<Tracked> = IngressLanes::new(3);
    let mut h = lanes.handle();
    for i in 0..30u64 {
        assert!(h.submit(i, 4, Tracked::new(&drops)).is_ok());
    }
    let mut batch: Vec<(u64, Tracked)> = (0..20u64).map(|i| (i, Tracked::new(&drops))).collect();
    h.submit_batch(8, &mut batch).unwrap();
    // A clone shares the lanes; dropping handles must not drop tasks.
    let h2 = h.clone();
    drop(h);
    drop(h2);
    assert_eq!(drops.load(Ordering::Relaxed), 0, "handles own no tasks");
    assert_eq!(lanes.queued(), 50);
    drop(lanes);
    assert_eq!(
        drops.load(Ordering::Relaxed),
        50,
        "lane payloads must drop exactly once with the lanes"
    );
}

/// An aborted streamed run (task panic) leaves tasks both inside the pool
/// and — possibly — still in ingress lanes; between pool drop and lane
/// drop every payload must be dropped exactly once, no leaks, no doubles.
#[test]
fn aborted_stream_run_drops_lane_and_pool_tasks_once() {
    struct PanicOnFirst;
    impl TaskExecutor<Tracked> for PanicOnFirst {
        fn execute(&self, _t: Tracked, _ctx: &mut SpawnCtx<'_, Tracked>) {
            panic!("first task dies");
        }
    }

    let drops = Arc::new(AtomicUsize::new(0));
    let total = 80usize;
    let lanes: IngressLanes<Tracked> = IngressLanes::new(2);
    let mut h = lanes.handle();
    for i in 0..total {
        assert!(h.submit(i as u64, 4, Tracked::new(&drops)).is_ok());
    }
    drop(h);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_stream_on_kind(
            PoolKind::Hybrid,
            2,
            PoolParams::default(),
            &PanicOnFirst,
            &lanes,
        )
    }));
    assert!(result.is_err(), "the task panic must propagate");
    // The one popped task was dropped by the panic unwind, and what the
    // places drained from their lanes with the run's pool; the rest still
    // sit in the lanes (abort races the drain).
    let run_drops = drops.load(Ordering::Relaxed);
    assert!(run_drops >= 1, "the panicked task's payload must be gone");
    drop(lanes);
    assert_eq!(
        drops.load(Ordering::Relaxed),
        total,
        "pool drop + lane drop must reclaim every payload exactly once"
    );
}

#[test]
fn concurrent_churn_drops_exactly_once() {
    let drops = Arc::new(AtomicUsize::new(0));
    let threads = 4usize;
    let per = 2_000usize;
    let pool = Arc::new(HybridKPriority::new(threads));
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            let drops = Arc::clone(&drops);
            s.spawn(move || {
                let mut h = pool.handle(t);
                for i in 0..per {
                    h.push((t * per + i) as u64, 8, Tracked::new(&drops));
                    if i % 3 == 0 {
                        if let Some(x) = h.pop() {
                            drop(x);
                        }
                    }
                }
                // Drain whatever is visible; leftovers die with the pool.
                while h.pop().is_some() {}
            });
        }
    });
    drop(pool);
    assert_eq!(
        drops.load(Ordering::Relaxed),
        threads * per,
        "every payload dropped exactly once across threads + pool drop"
    );
}
