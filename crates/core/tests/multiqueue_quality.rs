//! Quality gates for the relaxed MultiQueue beyond the pool contract
//! (`tests/pool_contract.rs`, which checks both configurations that
//! `PoolKind` builds: exactly once, reachability, the structural ρ and
//! exact order at one place).
//!
//! 1. **Conservation under real concurrency for the `c` no kind builds** —
//!    every submitted task is popped exactly once (no loss, no duplication)
//!    with concurrent push/pop on every place count, for c ∈ {1, 4} and the
//!    push bound k ∈ {0, 8, 512} (unbuffered, buffer of 8, buffer at its
//!    cap of 16). The threaded cells of `c = 2` and the structural
//!    configuration are the contract's.
//! 2. **The insertion buffer's price** — a single place with c = 1 stays
//!    exact at any k (buffer minimum against queue top); a buffer never
//!    holds a task together with `min(k, 16) − 1` others, `k` the smallest
//!    bound of anything in it; a place that finds no queued work takes the
//!    rest out of the other places' buffers (work conservation — eight
//!    sleepers spawned into one place's buffer spread over four, and a task
//!    waiting on its buffered child is served by the other place); and on a
//!    fixed tape the mean rank at k = 512, measured against the contract's
//!    shadow, is no worse than at k = 0.

mod common;

use common::{concurrent_exactly_once, Shadow};
use priosched_core::{run_on_kind, PoolHandle, PoolKind, PoolParams, RelaxedMultiQueue, TaskPool};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

#[test]
fn concurrent_exactly_once_on_all_place_counts() {
    for places in [1usize, 2, 4] {
        for c in [1usize, 4] {
            for k in [0usize, 8, 512] {
                let per = 4_000 / places as u64;
                concurrent_exactly_once(Arc::new(RelaxedMultiQueue::new(places, c)), k, per);
            }
        }
    }
}

/// Pops once at `h` and returns the pop's rank against `shadow`.
fn pop_rank(h: &mut impl PoolHandle<u64>, shadow: &mut Shadow) -> Option<usize> {
    let (prio, payload) = h.pop_entry()?;
    Some(
        shadow
            .pop(prio, payload)
            .expect("popped exactly once")
            .len(),
    )
}

/// Mean rank error of a single-threaded tape over 8 places taking turns
/// (each turn: two pushes at bound `k`, one pop), then a round-robin
/// drain, each pop ranked against the shadow.
fn round_robin_mean_rank(k: usize) -> f64 {
    let places = 8;
    let pool = Arc::new(RelaxedMultiQueue::<u64>::new(places, 2));
    let mut handles: Vec<_> = (0..places).map(|p| pool.handle(p)).collect();
    let mut shadow = Shadow::new(places);
    let mut ranks = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for turn in 0..4_000usize {
        let place = turn % places;
        for _ in 0..2 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let payload = shadow.push(place, x >> 44, k);
            handles[place].push(x >> 44, k, payload);
        }
        let rank = pop_rank(&mut handles[place], &mut shadow);
        ranks.push(rank.expect("two tasks were just pushed"));
    }
    loop {
        let round: Vec<usize> = handles
            .iter_mut()
            .filter_map(|h| pop_rank(h, &mut shadow))
            .collect();
        if round.is_empty() {
            break;
        }
        ranks.extend(round);
    }
    assert_eq!(ranks.len(), 8_000, "every task popped");
    ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
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

/// Load balance out of one buffer: a root spawns eight sleepers with
/// scalar spawns at k = 512, so all eight sit in its place's insertion
/// buffer. The other three places find no queued work and must take theirs
/// out of that buffer instead of idling while one place sleeps through all
/// eight.
#[test]
fn sleepers_spawned_at_one_place_spread_over_all() {
    use priosched_core::{SpawnCtx, TaskExecutor};
    const ROOT: u64 = u64::MAX;
    struct Sleep;
    impl TaskExecutor<u64> for Sleep {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            if task == ROOT {
                for i in 0..8u64 {
                    ctx.spawn(i, 512, i);
                }
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        }
    }
    for kind in [PoolKind::MultiQueue, PoolKind::Structural] {
        let stats = run_on_kind(kind, 4, PoolParams::default(), &Sleep, vec![(0, 512, ROOT)]);
        assert_eq!(stats.executed, 9);
        let per_place = &stats.per_place_executed;
        let busy = per_place.iter().filter(|&&e| e > 0).count();
        assert!(
            busy >= 3 && per_place.iter().all(|&e| e <= 4),
            "{kind}: a root and eight 30 ms sleepers ran as {per_place:?} over four places"
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
        let exec = Wait(AtomicBool::new(false));
        let stats = run_on_kind(kind, 2, PoolParams::default(), &exec, vec![(1, 512, 1u64)]);
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

    /// Concurrent exactly-once as a property: random place count, `c`
    /// and load — no loss, no duplication, ever.
    #[test]
    fn concurrent_exactly_once_prop(
        places_idx in 0usize..3,
        c_idx in 0usize..2,
        k in k_strategy(),
        per in 200u64..1_200,
    ) {
        let places = [1usize, 2, 4][places_idx];
        let c = [1usize, 4][c_idx];
        concurrent_exactly_once(Arc::new(RelaxedMultiQueue::new(places, c)), k, per);
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
