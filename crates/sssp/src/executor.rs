//! The node-relaxation task (Listing 5).

use crate::distances::AtomicDistances;
use priosched_core::stats::PlaceCounter;
use priosched_core::{PoolHandle, RunStats, SpawnCtx, TaskExecutor, TaskPool};
use priosched_graph::CsrGraph;
use std::sync::Arc;
use std::time::Instant;

/// One pending node relaxation: "each node that has to be relaxed
/// corresponds to a task in the scheduling system" (§5.1).
///
/// `dist_bits` is the tentative distance the task was spawned with (also its
/// priority key). The task is *dead* when the node's current distance no
/// longer equals it — a better instance has superseded this one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsspTask {
    /// Node to relax.
    pub node: u32,
    /// Tentative distance (f64 bits) the task was spawned with; doubles as
    /// the priority key.
    pub dist_bits: u64,
}

/// Shared application state + Listing 5's `relaxNode`.
pub struct SsspExecutor<'g> {
    graph: &'g CsrGraph,
    dist: AtomicDistances,
    /// Relaxation parameter passed to every spawn (§2.2; the evaluation uses
    /// one k per run).
    k: usize,
    /// Nodes actually relaxed (edge lists scanned). Greater than the number
    /// of reachable nodes exactly when useless work happened.
    relaxed: PlaceCounter,
    /// Tasks that passed the scheduler's dead check but lost the race in
    /// the in-task re-check (Listing 5 lines 2–6).
    late_dead: PlaceCounter,
}

impl<'g> SsspExecutor<'g> {
    /// Prepares a run from `source`; distances start at ∞ except the source.
    pub fn new(graph: &'g CsrGraph, source: u32, k: usize) -> Self {
        let dist = AtomicDistances::new(graph.num_nodes());
        dist.store(source, 0.0);
        SsspExecutor {
            graph,
            dist,
            k,
            relaxed: PlaceCounter::new(),
            late_dead: PlaceCounter::new(),
        }
    }

    /// The root task for the source node.
    pub fn root(&self, source: u32) -> (u64, usize, SsspTask) {
        let bits = 0f64.to_bits();
        (
            bits,
            self.k,
            SsspTask {
                node: source,
                dist_bits: bits,
            },
        )
    }

    /// Nodes relaxed so far (exact once the run has joined).
    pub fn relaxed(&self) -> u64 {
        self.relaxed.sum()
    }

    /// Tasks found dead by the in-task re-check (exact once the run has
    /// joined).
    pub fn late_dead(&self) -> u64 {
        self.late_dead.sum()
    }

    /// The distance array (snapshot after the run).
    pub fn distances(&self) -> &AtomicDistances {
        &self.dist
    }

    /// Listing 5's `relaxNode` at `place`: re-checks `task` against the
    /// distance now stored, which may have improved since the dead check (a
    /// loser counts as late-dead), then appends each edge's decrease to `batch`.
    #[inline]
    fn relax(&self, place: usize, task: SsspTask, batch: &mut Vec<(u64, SsspTask)>) {
        let d_bits = self.dist.load_bits(task.node);
        if d_bits != task.dist_bits {
            self.late_dead.add(place, 1);
            return;
        }
        self.relaxed.add(place, 1);
        let d = f64::from_bits(d_bits);
        for e in self.graph.neighbors(task.node) {
            let new_bits = (d + e.weight as f64).to_bits();
            // "Check if path through this node is shorter … try to update
            // distance value" — the CAS loop lives in try_decrease.
            if self.dist.try_decrease(e.target, new_bits) {
                batch.push((
                    new_bits, // priority, smaller is better
                    SsspTask {
                        node: e.target,
                        dist_bits: new_bits,
                    },
                ));
            }
        }
    }

    /// The scheduler's loop (§2) on the calling thread: the places of
    /// `pool` take one pop each per round, round-robin, until nothing is
    /// pending; `roots` go in through place 0. OS timeslicing on a host
    /// with few cores runs each worker alone for long stretches and hides
    /// the interleaving that produces useless work on the paper's 80 cores;
    /// this loop restores it deterministically, the task-granular analog of
    /// "in each phase up to P nodes are relaxed" (§5.2.1). The counts repeat
    /// exactly; the wall time means nothing.
    pub fn run_lockstep<P: TaskPool<SsspTask>>(
        &self,
        pool: &Arc<P>,
        roots: Vec<(u64, usize, SsspTask)>,
    ) -> RunStats {
        let start = Instant::now();
        let mut handles: Vec<P::Handle> = (0..pool.num_places()).map(|p| pool.handle(p)).collect();
        let mut pending = roots.len() as u64;
        for (prio, k, task) in roots {
            handles[0].push(prio, k, task);
        }
        let mut stats = RunStats {
            per_place_executed: vec![0; handles.len()],
            ..RunStats::default()
        };
        let mut batch = Vec::new();
        while pending > 0 {
            for (place, h) in handles.iter_mut().enumerate() {
                let Some(task) = h.pop() else { continue };
                pending -= 1;
                // With one thread, the dead check and the in-task re-check
                // see the same distance: `relax` never finds a late-dead task.
                if self.is_dead(&task) {
                    stats.dead += 1;
                    continue;
                }
                stats.per_place_executed[place] += 1;
                self.relax(place, task, &mut batch);
                pending += batch.len() as u64;
                h.push_batch(self.k, &mut batch);
            }
        }
        stats.executed = stats.per_place_executed.iter().sum();
        for h in &handles {
            stats.pool.merge(&h.stats());
        }
        stats.elapsed = start.elapsed();
        stats
    }
}

impl<'g> TaskExecutor<SsspTask> for SsspExecutor<'g> {
    /// Lazy dead-task elimination (§5.1): the node's distance moved on.
    fn is_dead(&self, task: &SsspTask) -> bool {
        self.dist.load_bits(task.node) != task.dist_bits
    }

    /// Listing 5's `relaxNode`, with batched spawning: the whole node
    /// expansion buffers its successful relaxations and stores them with
    /// one [`SpawnCtx::spawn_batch`] — one pending-counter update and one
    /// batched data-structure insertion per *node*, instead of one spawn
    /// per *edge*. The distance CASes still happen edge-by-edge (that is
    /// the algorithm), so correctness and the useless-work characteristics
    /// are unchanged: a scalar run would push the same task multiset at
    /// the same point between pops.
    fn execute(&self, task: SsspTask, ctx: &mut SpawnCtx<'_, SsspTask>) {
        let mut batch = ctx.take_batch_buf();
        self.relax(ctx.place(), task, &mut batch);
        ctx.spawn_batch(self.k, &mut batch);
        ctx.put_batch_buf(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priosched_core::{run_on_kind, PoolKind, PoolParams};

    fn diamond() -> CsrGraph {
        // 0 →(1) 1 →(1) 3, and 0 →(3) 2 →(0.5) 3: best 0-3 path costs 2.
        CsrGraph::from_undirected_edges(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 0.5)])
    }

    #[test]
    fn executor_relaxes_diamond() {
        let g = diamond();
        let exec = SsspExecutor::new(&g, 0, 4);
        let roots = vec![exec.root(0)];
        run_on_kind(
            PoolKind::WorkStealing,
            1,
            PoolParams::default(),
            &exec,
            roots,
        );
        let d = exec.distances().snapshot();
        assert_eq!(d, vec![0.0, 1.0, 2.5, 2.0]);
        // Sequential order relaxes each of the 4 nodes exactly once.
        assert_eq!(exec.relaxed(), 4);
    }

    #[test]
    fn dead_task_is_not_relaxed() {
        let g = diamond();
        let exec = SsspExecutor::new(&g, 0, 4);
        // Simulate a superseded task: node 1 currently at 1.0, task at 7.0.
        exec.distances().store(1, 1.0);
        let stale = SsspTask {
            node: 1,
            dist_bits: 7.0f64.to_bits(),
        };
        assert!(exec.is_dead(&stale));
        let live = SsspTask {
            node: 1,
            dist_bits: 1.0f64.to_bits(),
        };
        assert!(!exec.is_dead(&live));
    }

    #[test]
    fn root_has_zero_priority() {
        let g = diamond();
        let exec = SsspExecutor::new(&g, 0, 9);
        let (prio, k, task) = exec.root(0);
        assert_eq!(prio, 0);
        assert_eq!(k, 9);
        assert_eq!(task.node, 0);
    }
}
