//! Flat combining must be invisible to everything but the profiler.
//!
//! Three properties pin the combiner (`priosched_core::combine`) under the
//! structural pool:
//!
//! 1. **Equivalence** (proptest): the same op tape driven through a
//!    combining-on pool, a combining-off (mutex) pool, and — for one
//!    place, where the structural pool is exact — a sequential
//!    `BinaryHeap` oracle produces identical pop streams, and no task is
//!    lost or invented in either mode.
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

/// One step of a single-threaded op tape over `places` handles.
#[derive(Clone, Debug)]
enum Step {
    Push { place: u8, prio: u16 },
    PushBatch { place: u8, prios: Vec<u16> },
    Pop { place: u8 },
    PopBatch { place: u8, max: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(place, prio)| Step::Push { place, prio }),
        (any::<u8>(), proptest::collection::vec(any::<u16>(), 0..6))
            .prop_map(|(place, prios)| Step::PushBatch { place, prios }),
        any::<u8>().prop_map(|place| Step::Pop { place }),
        (any::<u8>(), 0u8..5).prop_map(|(place, max)| Step::PopBatch { place, max }),
    ]
}

/// What one tape run observed: per pop-step results (one entry for each
/// `Pop` / `PopBatch` in tape order — a batch that came back short is a
/// legal spurious shortfall and is recorded as-is), then the final drain.
#[derive(Debug, PartialEq, Eq)]
struct TapeRun {
    events: Vec<Vec<u64>>,
    drained: Vec<u64>,
}

impl TapeRun {
    fn all_popped(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.events.iter().flatten().copied().collect();
        all.extend(&self.drained);
        all
    }
}

/// Runs the tape single-threaded. Single-threaded, so the outcome is
/// deterministic per mode — and must be identical across modes.
fn run_tape(combine: bool, places: usize, k: usize, tape: &[Step]) -> TapeRun {
    let pool = Arc::new(StructuralKPriority::<u64>::with_combining(
        places, k, combine,
    ));
    let mut handles: Vec<_> = (0..places).map(|p| pool.handle(p)).collect();
    let mut events = Vec::new();
    for step in tape {
        match step {
            Step::Push { place, prio } => {
                let h = &mut handles[*place as usize % places];
                h.push(*prio as u64, 0, *prio as u64);
            }
            Step::PushBatch { place, prios } => {
                let h = &mut handles[*place as usize % places];
                let mut batch: Vec<(u64, u64)> =
                    prios.iter().map(|&p| (p as u64, p as u64)).collect();
                h.push_batch(0, &mut batch);
            }
            Step::Pop { place } => {
                let got = handles[*place as usize % places].pop();
                events.push(got.into_iter().collect());
            }
            Step::PopBatch { place, max } => {
                let mut out = Vec::new();
                handles[*place as usize % places].try_pop_batch(&mut out, *max as usize);
                events.push(out);
            }
        }
    }
    // Drain everything that is left, raids included.
    let mut drained = Vec::new();
    loop {
        let mut any = false;
        for h in handles.iter_mut() {
            while let Some(t) = h.pop() {
                drained.push(t);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    TapeRun { events, drained }
}

/// Every priority the tape pushes, in tape order.
fn pushed(tape: &[Step]) -> Vec<u64> {
    let mut all = Vec::new();
    for step in tape {
        match step {
            Step::Push { prio, .. } => all.push(*prio as u64),
            Step::PushBatch { prios, .. } => all.extend(prios.iter().map(|&p| p as u64)),
            _ => {}
        }
    }
    all
}

/// Checks a single-place run against the exact sequential oracle: every
/// value the pool returned must be the global minimum of everything pushed
/// so far and not yet popped, scalar pops and drains must not miss work,
/// and a batch pop must return at least one task when the pool is
/// non-empty (it may legally come back short of `max`, because the local
/// drain stops at the shared queue's next-min key — the remainder is
/// observable by the next pop).
fn check_single_place_against_oracle(tape: &[Step], run: &TapeRun) -> Result<(), TestCaseError> {
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>> =
        std::collections::BinaryHeap::new();
    let mut events = run.events.iter();
    for step in tape {
        match step {
            Step::Push { prio, .. } => heap.push(std::cmp::Reverse(*prio as u64)),
            Step::PushBatch { prios, .. } => {
                for &p in prios {
                    heap.push(std::cmp::Reverse(p as u64));
                }
            }
            Step::Pop { .. } => {
                let got = events.next().expect("one event per pop step");
                let want: Vec<u64> = heap
                    .pop()
                    .map(|std::cmp::Reverse(p)| p)
                    .into_iter()
                    .collect();
                prop_assert_eq!(got, &want, "scalar pop must return the exact minimum");
            }
            Step::PopBatch { max, .. } => {
                let got = events.next().expect("one event per pop step");
                prop_assert!(got.len() <= *max as usize, "batch overshot max");
                prop_assert!(
                    !heap.is_empty() || got.is_empty(),
                    "batch invented tasks from an empty pool"
                );
                if *max > 0 && !heap.is_empty() {
                    prop_assert!(!got.is_empty(), "non-empty pool must yield ≥ 1 batch task");
                }
                for &v in got {
                    let std::cmp::Reverse(want) = heap.pop().expect("oracle ran dry");
                    prop_assert_eq!(v, want, "batch element must be the exact minimum");
                }
            }
        }
    }
    let mut rest: Vec<u64> = Vec::new();
    while let Some(std::cmp::Reverse(p)) = heap.pop() {
        rest.push(p);
    }
    prop_assert_eq!(
        &run.drained,
        &rest,
        "final drain must empty the pool in exact order"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Combining on ≡ combining off, on 1–3 places with a tiny buffer
    /// bound (k = 2 keeps the shared queue hot), and neither mode loses or
    /// invents a task.
    #[test]
    fn combining_on_off_equivalence(
        tape in proptest::collection::vec(step_strategy(), 0..64),
        places in 1usize..4,
    ) {
        let on = run_tape(true, places, 2, &tape);
        let off = run_tape(false, places, 2, &tape);
        prop_assert_eq!(&on, &off, "pop streams diverge between modes");
        let mut multiset = on.all_popped();
        multiset.sort_unstable();
        let mut want = pushed(&tape);
        want.sort_unstable();
        prop_assert_eq!(multiset, want, "popped multiset != pushed multiset");
    }

    /// With one place the structural pool is exact — both modes must match
    /// the sequential heap oracle pop for pop.
    #[test]
    fn combining_single_place_matches_sequential_oracle(
        tape in proptest::collection::vec(step_strategy(), 0..64),
    ) {
        check_single_place_against_oracle(&tape, &run_tape(true, 1, 2, &tape))?;
        check_single_place_against_oracle(&tape, &run_tape(false, 1, 2, &tape))?;
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
    let pool = Arc::new(StructuralKPriority::<u64>::with_combining(threads, 0, true));
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
