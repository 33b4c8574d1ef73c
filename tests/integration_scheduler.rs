//! Cross-crate integration: scheduler semantics the paper's model requires
//! (§2) — finish regions, per-task k coexistence and exactly-once execution
//! over irregular task graphs. Every run goes through `run_on_kind`, on a
//! fresh pool that the run drops when it ends.

use priosched::core::task::{FinishRegion, RegionGuard};
use priosched::core::{run_on_kind, PoolKind, PoolParams, SpawnCtx, TaskExecutor};
use std::sync::atomic::{AtomicU64, Ordering};

/// Finish-region test: a parent spawns children that each carry a
/// [`RegionGuard`]; the guard completes the region when the child finishes
/// (including on drop), and the parent cooperatively helps until the region
/// drains — §2's blocking finish under help-first scheduling.
enum Task {
    Parent { children: u64 },
    Child { _guard: RegionGuard },
}

struct Exec {
    children_done: AtomicU64,
    parent_observed_done: AtomicU64,
}

impl TaskExecutor<Task> for Exec {
    fn execute(&self, task: Task, ctx: &mut SpawnCtx<'_, Task>) {
        match task {
            Task::Parent { children } => {
                let region = FinishRegion::new();
                // Register every child before the first can run: the
                // region's count is then exact, whatever the places do.
                let guards: Vec<RegionGuard> = (0..children).map(|_| region.register()).collect();
                assert_eq!(region.outstanding(), children);
                for (i, guard) in (0..children).zip(guards) {
                    ctx.spawn(100 + i, 8, Task::Child { _guard: guard });
                }
                // Cooperative wait: execute other tasks until all children
                // transitively finished.
                let r = region.clone();
                ctx.help_while(&move || r.is_open());
                assert_eq!(region.outstanding(), 0);
                assert_eq!(
                    self.children_done.load(Ordering::Relaxed),
                    children,
                    "parent resumed before all children finished"
                );
                self.parent_observed_done.fetch_add(1, Ordering::Relaxed);
            }
            Task::Child { _guard } => {
                self.children_done.fetch_add(1, Ordering::Relaxed);
                // `_guard` drops here, completing one registration.
            }
        }
    }
}

#[test]
fn finish_region_blocks_until_children_complete() {
    for places in [1usize, 2, 4] {
        let exec = Exec {
            children_done: AtomicU64::new(0),
            parent_observed_done: AtomicU64::new(0),
        };
        let roots = vec![(0, 8, Task::Parent { children: 20 })];
        let stats = run_on_kind(
            PoolKind::Hybrid,
            places,
            PoolParams::default(),
            &exec,
            roots,
        );
        assert_eq!(exec.parent_observed_done.load(Ordering::Relaxed), 1);
        assert_eq!(exec.children_done.load(Ordering::Relaxed), 20);
        assert_eq!(stats.executed, 21, "places={places}");
    }
}

/// Tasks with different k coexist (§1: "choosing the value of k per task,
/// allowing kernels with different ordering requirements to coexecute").
struct MixedK {
    executed: AtomicU64,
}

impl TaskExecutor<(u64, usize)> for MixedK {
    fn execute(&self, (depth, _k): (u64, usize), ctx: &mut SpawnCtx<'_, (u64, usize)>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        if depth < 6 {
            // Children alternate between strict (k = 1) and relaxed
            // (k = 1024) ordering requirements.
            ctx.spawn(depth + 1, 1, (depth + 1, 1));
            ctx.spawn(depth + 1, 1024, (depth + 1, 1024));
        }
    }
}

#[test]
fn per_task_k_values_coexist() {
    for kind in PoolKind::ALL {
        let exec = MixedK {
            executed: AtomicU64::new(0),
        };
        let stats = run_on_kind(
            kind,
            3,
            PoolParams::default(),
            &exec,
            vec![(0, 1, (0u64, 1usize))],
        );
        // Binary tree of depth 6: 2^7 − 1 nodes.
        assert_eq!(stats.executed, 127, "{kind}");
        assert_eq!(exec.executed.load(Ordering::Relaxed), 127);
    }
}

/// Irregular DAG: each task spawns a data-dependent number of children;
/// every structure must execute each exactly once.
struct Irregular {
    executed: AtomicU64,
    total_spawned: AtomicU64,
}

impl TaskExecutor<u64> for Irregular {
    fn execute(&self, seed: u64, ctx: &mut SpawnCtx<'_, u64>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        x ^= x >> 29;
        // 0–2 children, only near the root so the DAG stays finite.
        let fanout = if seed < 64 { (x % 3) as usize } else { 0 };
        for i in 0..fanout {
            self.total_spawned.fetch_add(1, Ordering::Relaxed);
            ctx.spawn(x % 1000, 16, seed + 64 * (i as u64 + 1) + x % 64);
        }
    }
}

#[test]
fn irregular_dag_exactly_once() {
    for kind in PoolKind::ALL {
        let exec = Irregular {
            executed: AtomicU64::new(0),
            total_spawned: AtomicU64::new(0),
        };
        let roots: Vec<(u64, usize, u64)> = (0..8u64).map(|i| (i, 16usize, i)).collect();
        let stats = run_on_kind(kind, 4, PoolParams::default(), &exec, roots);
        let expected = 8 + exec.total_spawned.load(Ordering::Relaxed);
        assert_eq!(
            exec.executed.load(Ordering::Relaxed),
            expected,
            "{kind}: executed != roots + spawned"
        );
        assert_eq!(stats.executed, expected);
    }
}
