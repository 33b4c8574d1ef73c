//! Flat combining must be invisible to everything but the profiler.
//!
//! Three properties pin the combiner (`priosched_core::combine`) under the
//! structural pool:
//!
//! 1. **Equivalence** (proptest): with one place the structural pool is
//!    exact, so an op tape driven through it — every shared-queue op going
//!    through the combiner — must match a sequential `BinaryHeap` oracle
//!    pop for pop, losing and inventing nothing.
//! 2. **Handoff stress**: with `k = 0` every push and pop crosses the
//!    shared queue, and a tenure bound of 1 pass forces constant combiner
//!    handoffs; no request may be lost or double-executed across them.
//! 3. **Parked loser wake**: a loser that parked while the combiner was
//!    busy is woken when (and only because) its response was written.

use priosched_core::combine::{CombineOp, CombineStats, Combiner};
use priosched_core::{PoolHandle, StructuralKPriority, TaskPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One step of a single-threaded op tape over a one-place pool.
#[derive(Clone, Debug)]
enum Step {
    Push(u16),
    PushBatch(Vec<u16>),
    Pop,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u16>().prop_map(Step::Push),
        proptest::collection::vec(any::<u16>(), 0..6).prop_map(Step::PushBatch),
        Just(Step::Pop),
    ]
}

/// What one tape run observed: the result of each `Pop` in tape order,
/// then the final drain.
#[derive(Debug, PartialEq, Eq)]
struct TapeRun {
    pops: Vec<Option<u64>>,
    drained: Vec<u64>,
}

/// Runs the tape on a single-place pool with buffer bound `k`.
fn run_tape(k: usize, tape: &[Step]) -> TapeRun {
    let pool = Arc::new(StructuralKPriority::<u64>::new(1, k));
    let mut h = pool.handle(0);
    let mut pops = Vec::new();
    for step in tape {
        match step {
            Step::Push(prio) => h.push(*prio as u64, 0, *prio as u64),
            Step::PushBatch(prios) => {
                let mut batch: Vec<(u64, u64)> =
                    prios.iter().map(|&p| (p as u64, p as u64)).collect();
                h.push_batch(0, &mut batch);
            }
            Step::Pop => pops.push(h.pop()),
        }
    }
    let drained = std::iter::from_fn(|| h.pop()).collect();
    TapeRun { pops, drained }
}

/// The same tape against the exact sequential oracle.
fn oracle(tape: &[Step]) -> TapeRun {
    use std::cmp::Reverse;
    let mut heap = std::collections::BinaryHeap::new();
    let mut pops = Vec::new();
    for step in tape {
        match step {
            Step::Push(prio) => heap.push(Reverse(*prio as u64)),
            Step::PushBatch(prios) => heap.extend(prios.iter().map(|&p| Reverse(p as u64))),
            Step::Pop => pops.push(heap.pop().map(|Reverse(p)| p)),
        }
    }
    let drained = std::iter::from_fn(|| heap.pop().map(|Reverse(p)| p)).collect();
    TapeRun { pops, drained }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With one place the structural pool is exact: every pop returns the
    /// minimum of everything pushed and not yet popped, no pop misses
    /// work, and the final drain empties the pool in exact order. The tiny
    /// buffer bound (k = 2) keeps the combined shared queue hot.
    #[test]
    fn combining_single_place_matches_sequential_oracle(
        tape in proptest::collection::vec(step_strategy(), 0..64),
    ) {
        prop_assert_eq!(run_tape(2, &tape), oracle(&tape));
    }
}

/// Multi-producer handoff stress: `k = 0` forces *every* push and pop
/// through the shared queue (the buffers never hold anything), so with 4
/// threads hammering it, combiner tenure expires constantly and the lock
/// hands off mid-traffic. Exactly-once accounting must survive.
#[test]
fn stress_handoff_no_request_lost_or_double_executed() {
    let threads = 4usize;
    let per = 4_000u64;
    let pool = Arc::new(StructuralKPriority::<u64>::new(threads, 0));
    let popped = Arc::new(AtomicU64::new(0));
    let taken: Arc<Vec<AtomicU32>> =
        Arc::new((0..threads as u64 * per).map(|_| 0.into()).collect());
    let total_parks = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            let taken = Arc::clone(&taken);
            let popped = Arc::clone(&popped);
            let total_parks = Arc::clone(&total_parks);
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut pushed = 0u64;
                loop {
                    if pushed < per
                        && pushed <= popped.load(Ordering::Relaxed) / threads as u64 + 64
                    {
                        h.push(pushed % 97, 0, t as u64 * per + pushed);
                        pushed += 1;
                    } else if let Some(got) = h.pop() {
                        assert_eq!(
                            taken[got as usize].fetch_add(1, Ordering::Relaxed),
                            0,
                            "task popped twice"
                        );
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if pushed == per
                        && popped.load(Ordering::Relaxed) == threads as u64 * per
                    {
                        break;
                    } else {
                        std::thread::yield_now();
                    }
                }
                total_parks.fetch_add(h.stats().combine_parks, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(popped.load(Ordering::Relaxed), threads as u64 * per);
    for slot in taken.iter() {
        assert_eq!(slot.load(Ordering::Relaxed), 1, "task lost");
    }
}

/// Op for driving a raw `Combiner` over a `u64` accumulator: `Add` sums,
/// `Block` announces that it is running (so the combiner lock is provably
/// held) and then holds the combiner inside `apply` until the gate opens.
enum GateOp {
    Add(u64),
    Block {
        entered: Arc<AtomicBool>,
        gate: Arc<AtomicBool>,
    },
}

impl CombineOp<u64> for GateOp {
    type Resp = u64;
    fn apply(self, shared: &mut u64) -> u64 {
        match self {
            GateOp::Add(v) => {
                *shared += v;
                *shared
            }
            GateOp::Block { entered, gate } => {
                entered.store(true, Ordering::Release);
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                *shared
            }
        }
    }
}

/// A loser that parked while the combiner was busy is woken by the
/// response write. Gated on state, not on sleeps: the loser publishes only
/// once place 0 is inside its gated op (so the lock is held and the slow
/// path is certain), and the gate opens only once the loser has parked at
/// least once — while the gate is closed the loser's pre-park re-check
/// (response written? lock free?) cannot succeed, so every trip through
/// its spin budget ends in a park.
#[test]
fn parked_loser_is_woken_when_response_is_written() {
    let combiner: Arc<Combiner<u64, GateOp>> = Arc::new(Combiner::new(0, 2));
    let entered = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let c = Arc::clone(&combiner);
        let op = GateOp::Block {
            entered: Arc::clone(&entered),
            gate: Arc::clone(&gate),
        };
        let blocker = s.spawn(move || {
            let mut stats = CombineStats::default();
            c.execute(0, op, &mut stats)
        });
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let c = Arc::clone(&combiner);
        let loser = s.spawn(move || {
            let mut stats = CombineStats::default();
            let resp = c.execute(1, GateOp::Add(42), &mut stats);
            (resp, stats.parks)
        });
        while combiner.parks(1) == 0 {
            std::thread::yield_now();
        }
        gate.store(true, Ordering::Release);
        let (resp, parks) = loser.join().expect("loser thread");
        assert_eq!(resp, 42, "loser's Add must be applied exactly once");
        assert!(
            parks >= 1,
            "loser parked while the combiner was gated (parks = {parks})"
        );
        assert_eq!(blocker.join().expect("blocker thread"), 0);
    });
}
