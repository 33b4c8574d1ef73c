//! Quickstart: prioritized task scheduling, open-world first.
//!
//! Headline: start a long-lived pool *service* and submit prioritized
//! tasks into it from outside — the shape a server frontend uses — from
//! producer threads whose blocking submits park under backpressure (the
//! `priosched-serve` connection-actor shape). Then the classic
//! closed-world flow: run a fixed root set over every structure — the
//! paper's three, the structural kind and the relaxed MultiQueue — and
//! compare their statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use priosched::core::{
    run_on_kind, PoolBuilder, PoolKind, PoolParams, SpawnCtx, SubmitError, TaskExecutor,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A task is (depth, width-index); executing it spawns `FANOUT` children
/// until `MAX_DEPTH`, preferring shallow tasks (priority = depth).
struct TreeWalk {
    executed: AtomicU64,
}

const FANOUT: u64 = 3;
const MAX_DEPTH: u64 = 8;
const K: usize = 64;

impl TaskExecutor<(u64, u64)> for TreeWalk {
    fn execute(&self, (depth, _i): (u64, u64), ctx: &mut SpawnCtx<'_, (u64, u64)>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if depth < MAX_DEPTH {
            for i in 0..FANOUT {
                // Help-first spawn (§2): the child is *stored*, we continue.
                ctx.spawn(depth + 1, K, (depth + 1, i));
            }
        }
    }
}

/// Open-world flow: the pool outlives any one batch of work. External
/// threads submit through cloneable ingest handles; `join` waits for a
/// drain without stopping the workers (they *park* while idle — a
/// quiescent service burns no CPU); `shutdown` waits for quiescence (all
/// handles dropped, nothing queued, nothing pending).
///
/// The lanes here are **bounded** (`lane_capacity`): `try_submit` sheds
/// with a typed error that hands the task back when every lane is full,
/// while the blocking `submit`/`submit_batch` park the producer until a
/// worker drains room — backpressure instead of unbounded queueing.
fn service_demo(places: usize) {
    let exec = Arc::new(TreeWalk {
        executed: AtomicU64::new(0),
    });
    let mut service = PoolBuilder::new(PoolKind::Hybrid)
        .places(places)
        .k(K)
        .lane_capacity(8)
        .service::<(u64, u64), _>(Arc::clone(&exec));

    // Submit from outside the pool — e.g. request handlers. Each producer
    // thread owns its own handle; submissions shard across per-place
    // ingress lanes and are drained by the workers between executions.
    std::thread::scope(|s| {
        for producer in 0..2u64 {
            let mut handle = service.ingest_handle();
            s.spawn(move || {
                // One tree root each: shed on backpressure, then fall back
                // to the blocking path (which parks, not spins).
                match handle.try_submit(0, K, (0u64, producer)) {
                    Ok(()) => {}
                    Err(SubmitError::Full(task)) => {
                        // Lanes full — the task came back; block for room.
                        handle.submit(0, K, task).expect("service is live");
                    }
                    Err(e) => panic!("service rejected the submission: {e}"),
                }
                // Plus a batch of leaf-depth tasks; larger than the lane
                // capacity is fine — the blocking path chunks it.
                let mut batch: Vec<(u64, (u64, u64))> =
                    (0..8).map(|i| (MAX_DEPTH, (MAX_DEPTH, i))).collect();
                handle.submit_batch(K, &mut batch).expect("service is live");
            });
        }
    });

    service.join().expect("no task panics"); // drained — workers still running (parked)
    let after_round_1 = exec.executed.load(Ordering::Relaxed);

    // A second round on the same pool: the submission wakes the workers.
    service.submit(0, K, (0u64, 99)).expect("service is live");
    service.join().expect("no task panics");

    let stats = service.shutdown().expect("clean shutdown");
    let tree: u64 = (0..=MAX_DEPTH).map(|d| FANOUT.pow(d as u32)).sum();
    assert_eq!(stats.executed, 3 * tree + 2 * 8);
    println!(
        "service:       2 producers + 2 rounds -> {:>6} tasks ({} after round 1) on {} workers",
        stats.executed, after_round_1, places
    );
}

/// Closed-world flow: all roots known up front, one structure per run.
fn run_with(kind: PoolKind, places: usize) {
    let exec = TreeWalk {
        executed: AtomicU64::new(0),
    };
    let roots = vec![(0u64, K, (0u64, 0u64))];
    // One dispatch before the run; the scheduling loop itself is
    // monomorphized per structure (see priosched::core::facade).
    let stats = run_on_kind(kind, places, PoolParams::default(), &exec, roots);
    let expected: u64 = (0..=MAX_DEPTH).map(|d| FANOUT.pow(d as u32)).sum();
    assert_eq!(stats.executed, expected);
    println!(
        "{:<14} executed {:>6} tasks in {:>8.2?}  (pushes {:>6}, steals {:>3}, spies {:>3}, publishes {:>4})",
        kind.label(),
        stats.executed,
        stats.elapsed,
        stats.pool.pushes,
        stats.pool.steals,
        stats.pool.spies,
        stats.pool.publishes,
    );
}

fn main() {
    let places = std::thread::available_parallelism()
        .map(|c| c.get().min(8))
        .unwrap_or(2)
        .max(2);
    println!(
        "priosched {} quickstart: {places} places, fanout {FANOUT}, depth {MAX_DEPTH}\n",
        priosched::VERSION
    );

    // Open-world headline: a pool you submit into while it runs.
    service_demo(places);
    println!();

    // Closed-world: every structure over the same fixed root set.
    for kind in PoolKind::ALL {
        run_with(kind, places);
    }

    println!("\nAll structures executed every task exactly once.");
    println!("Note how the hybrid structure substitutes spying for stealing,");
    println!("and publishes its local list roughly every k = {K} pushes,");
    println!("while the MultiQueue counts a publish per insertion-buffer flush.");
}
