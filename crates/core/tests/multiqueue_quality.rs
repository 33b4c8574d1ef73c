//! Quality gates for the relaxed MultiQueue in both of its configurations
//! (`PoolKind::MultiQueue`, and `PoolKind::Structural`: one queue per
//! place, a pop over every top).
//!
//! The MultiQueue trades the paper's hard ρ bounds for probabilistic
//! relaxation, so its correctness story rests on these pillars, pinned
//! here:
//!
//! 1. **Conservation under real concurrency** — every submitted task is
//!    popped exactly once (no loss, no duplication) with concurrent
//!    push/pop on every place count, for c ∈ {1, 2, 4} and the
//!    structural configuration, and the push bound k ∈ {0, 8,
//!    512} (unbuffered, buffer of 8, buffer at its cap of 16). The
//!    single-threaded oracle matrix cannot see lock races on the queues or
//!    stale top-mirror reads; this suite drives them directly.
//! 2. **Instrument self-validation** — the rank-error shadow must read
//!    *zero* in the one configuration where the structure is exact
//!    (c = 1, one place: a single sequential queue), and must account
//!    for every pop whenever it is on. A measurement layer that can't
//!    pass its own null experiment can't be trusted on the real one.
//! 3. **The insertion buffer's price** — a single place stays exact at any
//!    k (buffer minimum against queue top); a buffer never holds a task
//!    together with `min(k, 16) − 1` others, `k` the smallest bound of
//!    anything in it; a place that finds no queued work takes the rest
//!    out of the other places' buffers (work conservation — eight sleeping
//!    roots seeded through one place spread over four, and a task waiting
//!    on its buffered child is served by the other place); and on a fixed
//!    tape the measured mean rank at k = 512 is no worse than at k = 0.
//! 4. **The structural bound as a history check** — on the structural
//!    configuration every single-threaded pop's measured rank is at most
//!    the other places' buffered tasks, and those are at most
//!    (P−1)·(min(k, 16)−1): §5.3's ρ for tasks of any age.

use priosched_core::{PoolBuilder, PoolHandle, PoolKind, RelaxedMultiQueue, TaskPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Drives one concurrent worker per place over `pool`, each pushing `per`
/// uniquely-payloaded tasks at pseudo-random priorities with bound `k`
/// while popping, until everything pushed has been popped exactly once.
/// Panics (inside a worker) on any duplicated pop, and afterwards on any
/// task not taken exactly once.
fn concurrent_exactly_once(pool: RelaxedMultiQueue<u64>, k: usize, per: u64) {
    let places = pool.num_places();
    let pool = Arc::new(pool);
    let total = places as u64 * per;
    let taken: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| 0.into()).collect());
    let popped = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..places {
            let pool = Arc::clone(&pool);
            let taken = Arc::clone(&taken);
            let popped = Arc::clone(&popped);
            s.spawn(move || {
                let mut h = pool.handle(t);
                // Mix scalar and batched pushes so both landing paths run.
                let mut pushed = 0u64;
                let mut batch: Vec<(u64, u64)> = Vec::new();
                let mut step = 0u64;
                loop {
                    step = step.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    if pushed < per && !step.is_multiple_of(3) {
                        let payload = t as u64 * per + pushed;
                        let prio = step >> 32;
                        if step.is_multiple_of(5) {
                            batch.push((prio, payload));
                            if batch.len() >= 8 {
                                h.push_batch(k, &mut batch);
                            }
                        } else {
                            h.push(prio, k, payload);
                        }
                        pushed += 1;
                    } else if let Some(got) = h.pop() {
                        let prev = taken[got as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "task {got} popped twice");
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if pushed == per {
                        if !batch.is_empty() {
                            h.push_batch(k, &mut batch);
                            continue;
                        }
                        if popped.load(Ordering::Relaxed) == total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(popped.load(Ordering::Relaxed), total, "tasks lost");
    for (i, flag) in taken.iter().enumerate() {
        assert_eq!(flag.load(Ordering::Relaxed), 1, "task {i} not exactly-once");
    }
}

/// The MultiQueue with `c` queues per place, or the structural
/// configuration for `c = 0`.
fn configured(places: usize, c: usize) -> RelaxedMultiQueue<u64> {
    match c {
        0 => RelaxedMultiQueue::structural(places),
        c => RelaxedMultiQueue::new(places, c),
    }
}

#[test]
fn concurrent_exactly_once_on_all_place_counts() {
    for places in [1usize, 2, 4] {
        for c in [1usize, 2, 4, 0] {
            for k in [0usize, 8, 512] {
                let per = 4_000 / places as u64;
                concurrent_exactly_once(configured(places, c), k, per);
            }
        }
    }
}

#[test]
fn c1_single_place_measures_zero_rank_error_against_oracle() {
    // One place × c = 1 is a single sequential queue: pops must come out
    // in exact priority order AND the instrument must price every one of
    // them at rank zero — the null experiment for the rank-error shadow.
    let pool: Arc<_> = Arc::new(RelaxedMultiQueue::<u64>::new(1, 1).with_rank_error());
    let mut h = pool.handle(0);
    let prios: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 263).collect();
    for (i, &p) in prios.iter().enumerate() {
        h.push(p, 0, (p << 32) | i as u64);
    }
    let mut popped_prios = Vec::new();
    while let Some((prio, _task)) = h.pop_entry() {
        popped_prios.push(prio);
    }
    // Sequential oracle: the sorted push multiset.
    let mut expect = prios.clone();
    expect.sort();
    assert_eq!(popped_prios, expect, "single queue must be exact");
    let s = h.stats();
    assert_eq!(s.rank_pops, 500, "instrument must account for every pop");
    assert_eq!(s.rank_sum, 0, "an exact structure has zero rank error");
    assert_eq!(s.rank_max, 0);
    assert_eq!(s.rank_mean(), 0.0);
    assert_eq!(s.rank_p99(), 0);
}

#[test]
fn instrument_accounts_for_every_pop_with_relaxation() {
    // c = 4 on one place misorders freely, but the instrument must still
    // balance: every pop measured, histogram mass == rank_pops, and the
    // summary statistics mutually consistent.
    let pool: Arc<_> = Arc::new(RelaxedMultiQueue::<u64>::new(1, 4).with_rank_error());
    let mut h = pool.handle(0);
    for i in 0..1_000u64 {
        h.push((i * 2654435761) % 4096, 0, i);
    }
    let mut got = 0u64;
    while h.pop().is_some() {
        got += 1;
    }
    assert_eq!(got, 1_000);
    let s = h.stats();
    assert_eq!(s.rank_pops, 1_000);
    assert_eq!(s.rank_hist.iter().sum::<u64>(), 1_000);
    assert!(s.rank_max as f64 >= s.rank_mean());
    assert!(s.rank_p99() <= s.rank_max);
}

#[test]
fn facade_run_reports_rank_stats_on_run_stats() {
    // End-to-end through the scheduler: an instrumented MultiQueue run
    // must surface rank accounting on RunStats.pool (pops measured ==
    // pool pops), proving the stats plumbing crosses the facade.
    use priosched_core::{Scheduler, SpawnCtx, TaskExecutor};
    struct Fan;
    impl TaskExecutor<u64> for Fan {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            if task > 0 {
                ctx.spawn(task - 1, 8, task - 1);
            }
        }
    }
    let pool = RelaxedMultiQueue::new(2, 2).with_rank_error();
    let stats = Scheduler::from_pool(pool).run(&Fan, vec![(64, 8, 64u64)]);
    assert_eq!(stats.executed, 65);
    assert_eq!(
        stats.pool.rank_pops, stats.pool.pops,
        "every pop must be measured while the instrument is on"
    );
    assert_eq!(
        stats.pool.rank_hist.iter().sum::<u64>(),
        stats.pool.rank_pops
    );
}

/// Mean rank error of a single-threaded tape over 8 places taking turns
/// (each turn: two pushes at bound `k`, one pop), then a round-robin
/// drain, with the shadow instrument on.
fn round_robin_mean_rank(k: usize) -> f64 {
    let places = 8;
    let pool = Arc::new(RelaxedMultiQueue::<u64>::new(places, 2).with_rank_error());
    let mut handles: Vec<_> = (0..places).map(|p| pool.handle(p)).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for turn in 0..4_000usize {
        let h = &mut handles[turn % places];
        for _ in 0..2 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.push(x >> 44, k, x);
        }
        h.pop().expect("two tasks were just pushed");
    }
    while handles.iter_mut().filter_map(|h| h.pop()).count() > 0 {}
    let (pops, sum) = handles.iter().fold((0, 0), |(pops, sum), h| {
        let s = h.stats();
        (pops + s.rank_pops, sum + s.rank_sum)
    });
    assert_eq!(pops, 8_000, "every pop measured, every task popped");
    sum as f64 / pops as f64
}

#[test]
fn buffered_mean_rank_is_no_worse_than_unbuffered() {
    // At k = 512 each of the 8 places may keep 15 pushes out of the
    // others' two-choice draws, but its own pop sees buffer ∪ two tops:
    // on this (deterministic) tape the second effect outweighs the first.
    // A buffer that always wins, or one capped at 64, reads worse than
    // k = 0 here.
    let unbuffered = round_robin_mean_rank(0);
    let buffered = round_robin_mean_rank(512);
    println!("mean rank error: k = 0 {unbuffered:.2}, k = 512 {buffered:.2}");
    assert!(
        buffered <= unbuffered,
        "k = 512 mean rank {buffered} vs k = 0 {unbuffered}"
    );
}

/// Closed-world load balance: `Scheduler::run` seeds every root through
/// place 0's handle, so at k = 512 all eight sit in one insertion buffer.
/// The other three places find no queued work and must take theirs out of
/// that buffer instead of idling while place 0 sleeps through all eight.
#[test]
fn sleeping_roots_seeded_through_one_place_spread_over_all() {
    use priosched_core::{SpawnCtx, TaskExecutor};
    struct Sleep;
    impl TaskExecutor<u64> for Sleep {
        fn execute(&self, _task: u64, _ctx: &mut SpawnCtx<'_, u64>) {
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
    }
    for kind in [PoolKind::MultiQueue, PoolKind::Structural] {
        let roots = (0..8u64).map(|i| (i, 512, i)).collect();
        let stats = PoolBuilder::new(kind).places(4).run(&Sleep, roots);
        assert_eq!(stats.executed, 8);
        let per_place = &stats.per_place_executed;
        let busy = per_place.iter().filter(|&&e| e > 0).count();
        assert!(
            busy >= 3 && per_place.iter().all(|&e| e <= 4),
            "{kind}: eight 30 ms roots ran as {per_place:?} over four places"
        );
    }
}

/// A task that waits on its own child outside `help_while` finishes only
/// if another place can reach the child, which at k = 512 exists nowhere
/// but in the waiting place's insertion buffer.
#[test]
fn a_task_waiting_on_its_buffered_child_is_served_by_another_place() {
    use priosched_core::{SpawnCtx, TaskExecutor};
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};
    struct Wait(AtomicBool);
    impl TaskExecutor<u64> for Wait {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            if task == 0 {
                self.0.store(true, Ordering::Release);
                return;
            }
            ctx.spawn(0, 512, 0);
            let deadline = Instant::now() + Duration::from_secs(20);
            while !self.0.load(Ordering::Acquire) {
                assert!(Instant::now() < deadline, "no place ran the buffered child");
                std::thread::yield_now();
            }
        }
    }
    for kind in [PoolKind::MultiQueue, PoolKind::Structural] {
        let stats = PoolBuilder::new(kind)
            .places(2)
            .run(&Wait(AtomicBool::new(false)), vec![(1, 512, 1u64)]);
        assert_eq!(stats.executed, 2, "{kind}");
        assert_eq!(stats.per_place_executed, vec![1, 1], "{kind}");
    }
}

/// One step of a single-threaded op tape.
#[derive(Clone, Debug)]
enum Step {
    Push(u16),
    PushBatch(Vec<u16>),
    Pop,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u16>().prop_map(Step::Push),
        // A batch lands at once, whatever its size, and takes the buffer along.
        proptest::collection::vec(any::<u16>(), 0..24).prop_map(Step::PushBatch),
        Just(Step::Pop),
    ]
}

fn k_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..24, Just(512usize)]
}

/// Applies a push step to `h` (payload = priority); `Pop` is the caller's.
fn push_step(h: &mut impl PoolHandle<u64>, k: usize, step: &Step) {
    match step {
        Step::Push(prio) => h.push(*prio as u64, k, *prio as u64),
        Step::PushBatch(prios) => h.push_batch(
            k,
            &mut prios.iter().map(|&p| (p as u64, p as u64)).collect(),
        ),
        Step::Pop => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent exactly-once as a property: random place count,
    /// configuration, and load — no loss, no duplication, ever.
    #[test]
    fn concurrent_exactly_once_prop(
        places_idx in 0usize..3,
        c_idx in 0usize..4,
        k in k_strategy(),
        per in 200u64..1_200,
    ) {
        let places = [1usize, 2, 4][places_idx];
        // c = 0 stands for the structural configuration.
        let c = [0usize, 1, 2, 4][c_idx];
        concurrent_exactly_once(configured(places, c), k, per);
    }

    /// The null experiment as a property: any priority sequence, pushed
    /// scalar or batched into the c = 1 single-place queue, measures
    /// exactly zero rank error.
    #[test]
    fn c1_zero_rank_error_prop(
        prios in proptest::collection::vec(any::<u16>(), 1..200),
        chunk in 1usize..16,
    ) {
        let pool: Arc<_> = Arc::new(RelaxedMultiQueue::<u64>::new(1, 1).with_rank_error());
        let mut h = pool.handle(0);
        for group in prios.chunks(chunk) {
            let mut batch: Vec<(u64, u64)> =
                group.iter().map(|&p| (p as u64, p as u64)).collect();
            h.push_batch(0, &mut batch);
        }
        let mut out = Vec::new();
        while let Some((prio, _)) = h.pop_entry() {
            out.push(prio);
        }
        let mut expect: Vec<u64> = prios.iter().map(|&p| p as u64).collect();
        expect.sort();
        prop_assert_eq!(out, expect);
        let s = h.stats();
        prop_assert_eq!(s.rank_pops as usize, prios.len());
        prop_assert_eq!(s.rank_sum, 0);
        prop_assert_eq!(s.rank_max, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One place with c = 1 is exact at any k: the pop compares the
    /// buffer's minimum with the one queue's top, so every pop returns
    /// the minimum priority of everything pushed and not yet popped, and
    /// `None` only when nothing is — pop for pop the sequential oracle.
    #[test]
    fn buffered_single_place_matches_sequential_oracle(
        k in k_strategy(),
        tape in proptest::collection::vec(step_strategy(), 0..96),
    ) {
        use std::cmp::Reverse;
        let pool = Arc::new(RelaxedMultiQueue::<u64>::new(1, 1));
        let mut h = pool.handle(0);
        let mut oracle = std::collections::BinaryHeap::new();
        for step in &tape {
            push_step(&mut h, k, step);
            match step {
                Step::Push(prio) => oracle.push(Reverse(*prio as u64)),
                Step::PushBatch(prios) => {
                    oracle.extend(prios.iter().map(|&p| Reverse(p as u64)))
                }
                Step::Pop => prop_assert_eq!(h.pop(), oracle.pop().map(|Reverse(p)| p)),
            }
        }
        let drained: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
        let expect: Vec<u64> =
            std::iter::from_fn(|| oracle.pop().map(|Reverse(p)| p)).collect();
        prop_assert_eq!(drained, expect);
    }

    /// What the other places' two-choice draws cannot see is the buffers
    /// and they stay small: a task pushed at bound k never shares a
    /// buffer with `min(k, 16) − 1` others, whatever bounds later pushes
    /// carry, and a batch empties it. And it is out of sight only, not out
    /// of reach: a third place popping to `None` takes every task,
    /// buffered ones included.
    #[test]
    fn buffers_respect_their_smallest_bound_and_hide_nothing_from_a_scan(
        tape in proptest::collection::vec((0usize..2, k_strategy(), step_strategy()), 0..96),
    ) {
        let pool = Arc::new(RelaxedMultiQueue::<u64>::new(3, 2));
        let mut owners = [pool.handle(0), pool.handle(1)];
        let (mut pushed, mut popped) = (Vec::new(), Vec::new());
        // Smallest min(k, 16) pushed per place since its buffer was empty.
        let mut tight = [16usize; 2];
        for (place, k, step) in &tape {
            push_step(&mut owners[*place], *k, step);
            let pushes: &[u16] = match step {
                Step::Push(prio) => std::slice::from_ref(prio),
                Step::PushBatch(prios) => prios,
                Step::Pop => {
                    popped.extend(owners[*place].pop());
                    &[]
                }
            };
            pushed.extend(pushes.iter().map(|&p| p as u64));
            match step {
                Step::Push(_) => tight[*place] = tight[*place].min(*k),
                Step::PushBatch(_) if !pushes.is_empty() => {
                    prop_assert_eq!(pool.buffered(*place), 0, "a batch takes the buffer along");
                }
                _ => {}
            }
            // Both places: a pop that found no queued work took from the
            // other owner's buffer.
            for (p, tight) in tight.iter_mut().enumerate() {
                let buffered = pool.buffered(p);
                prop_assert!(
                    buffered < (*tight).max(1),
                    "{} tasks buffered under a bound of {}", buffered, tight
                );
                if buffered == 0 {
                    *tight = 16;
                }
            }
        }
        let mut h2 = pool.handle(2);
        popped.extend(std::iter::from_fn(|| h2.pop()));
        prop_assert_eq!(pool.queued(), 0);
        prop_assert_eq!([owners[0].pop(), owners[1].pop()], [None, None]);
        popped.sort();
        pushed.sort();
        prop_assert_eq!(popped, pushed);
    }
}

/// A bound a history check draws per step, from the per-tape set `ks`.
fn structural_ks() -> impl Strategy<Value = Vec<usize>> {
    // 512 most often: a tape needs long runs of pushes past 16 to find a
    // buffer that outgrows its bound.
    let k = (0usize..8).prop_map(|i| [0, 1, 2, 8, 16, 512, 512, 512][i]);
    proptest::collection::vec(k, 1..3)
}

/// Pushes outweigh pops so that buffers fill; batches are rare, as each
/// one empties its place's buffer.
fn history_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => any::<u16>().prop_map(Step::Push),
        1 => proptest::collection::vec(any::<u16>(), 0..24).prop_map(Step::PushBatch),
        3 => Just(Step::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// §5.3's structural ρ as a history check. Single-threaded handles of
    /// the structural configuration take turns round-robin over a tape,
    /// each step's k drawn from the tape's set, with the rank-error shadow
    /// on. Before every pop, the tasks the pop may miss are the other
    /// places' buffered ones, at most `min(k, 16) − 1` per place for the
    /// least k buffered there: the pop's measured rank must not exceed
    /// them, nor they that bound — ρ = (P−1)·(min(k, 16)−1) for tasks of
    /// any age. One place misses nothing: exact at any k.
    #[test]
    fn structural_pop_rank_is_bounded_by_the_other_places_buffers(
        places in 1usize..4,
        ks in structural_ks(),
        tape in proptest::collection::vec((any::<u8>(), history_step()), 0..160),
    ) {
        let pool = Arc::new(RelaxedMultiQueue::<u64>::structural(places).with_rank_error());
        let mut handles: Vec<_> = (0..places).map(|p| pool.handle(p)).collect();
        // Least k of the scalar pushes in each place's buffer.
        let mut least_k: Vec<Option<usize>> = vec![None; places];
        for (turn, (kpick, step)) in tape.iter().enumerate() {
            let place = turn % places;
            let k = ks[*kpick as usize % ks.len()];
            if let Step::Pop = step {
                let others = (0..places).filter(|&q| q != place);
                let hidden: usize = others.clone().map(|q| pool.buffered(q)).sum();
                let bound: usize = others
                    .map(|q| least_k[q].map_or(0, |k| k.min(16).saturating_sub(1)))
                    .sum();
                prop_assert!(
                    hidden <= bound,
                    "{} tasks buffered out of place {}'s sight, bound {}", hidden, place, bound
                );
                let before = handles[place].stats().rank_sum;
                if let Some(prio) = handles[place].pop() {
                    let rank = (handles[place].stats().rank_sum - before) as usize;
                    prop_assert!(
                        rank <= hidden,
                        "place {} popped {} at rank {} with {} hidden", place, prio, rank, hidden
                    );
                }
            } else {
                push_step(&mut handles[place], k, step);
                if let Step::Push(_) = step {
                    least_k[place] = Some(least_k[place].map_or(k, |least| least.min(k)));
                }
            }
            for (q, least) in least_k.iter_mut().enumerate() {
                if pool.buffered(q) == 0 {
                    *least = None;
                }
            }
        }
        while handles[0].pop().is_some() {}
        prop_assert_eq!(pool.queued(), 0, "one place's pops reach every task");
    }
}
