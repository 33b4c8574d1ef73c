//! Breadth-first search as a [`Workload`]: unit-weight shortest paths, à
//! la the Multi-Queues evaluation (Postnikova et al., PODC'21), verified
//! against a sequential queue-based BFS.
//!
//! Every node visit is a task whose priority is its hop depth — the
//! unit-weight degenerate case of SSSP. It stresses a different regime
//! than weighted SSSP: priorities are tiny dense integers (the frontier
//! depth), so huge plateaus of equal-priority tasks coexist and ρ-relaxed
//! pops almost always stay inside the current frontier. Wrong answers are
//! still possible — a structure that reorders beyond its bound (or a
//! scheduler that drops tasks) leaves depths above the true hop distance —
//! which is exactly what the oracle comparison catches.

use crate::Workload;
use priosched_core::stats::PlaceCounter;
use priosched_core::{PoolParams, RunStats, SpawnCtx, TaskExecutor};
use priosched_graph::{erdos_renyi, CsrGraph, ErdosRenyiConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

/// Hop depth marking an unreached node.
pub const UNREACHED: u32 = u32::MAX;

/// One pending node visit: the node and the depth it was discovered at
/// (which doubles as the task priority).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsTask {
    /// Node to expand.
    pub node: u32,
    /// Hop depth the task was spawned with.
    pub depth: u32,
}

/// A BFS instance (graph + source frontier) with its sequential-BFS
/// oracle. Multi-source instances (a whole starting frontier at depth 0)
/// make the seed stream wide — exactly what sharded ingestion wants to
/// chew on.
pub struct BfsWorkload {
    graph: CsrGraph,
    sources: Vec<u32>,
    oracle: Vec<u32>,
    reachable: u64,
}

impl BfsWorkload {
    /// Wraps an existing graph; computes the sequential-BFS depths once.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(graph: CsrGraph, source: u32) -> Self {
        Self::multi_source(graph, vec![source])
    }

    /// BFS from a whole frontier: every source starts at depth 0 and the
    /// result is the hop distance to the *nearest* source.
    ///
    /// # Panics
    /// Panics if `sources` is empty or any source is out of range.
    pub fn multi_source(graph: CsrGraph, sources: Vec<u32>) -> Self {
        assert!(!sources.is_empty(), "BFS needs at least one source");
        assert!(
            sources.iter().all(|&s| (s as usize) < graph.num_nodes()),
            "source out of range"
        );
        let oracle = sequential_bfs_multi(&graph, &sources);
        let reachable = oracle.iter().filter(|&&d| d != UNREACHED).count() as u64;
        BfsWorkload {
            graph,
            sources,
            oracle,
            reachable,
        }
    }

    /// Seeded Erdős–Rényi instance with source 0 (weights ignored — BFS
    /// sees only the adjacency structure).
    pub fn random(n: usize, p: f64, seed: u64) -> Self {
        Self::new(erdos_renyi(&ErdosRenyiConfig { n, p, seed }), 0)
    }

    /// Seeded Erdős–Rényi instance with `nsources` evenly spread sources —
    /// the wide-frontier shape the streamed oracle matrix feeds through
    /// the ingestion lanes.
    ///
    /// # Panics
    /// Panics if `nsources` is zero or exceeds `n`.
    pub fn random_multi(n: usize, p: f64, seed: u64, nsources: usize) -> Self {
        assert!(nsources > 0 && nsources <= n, "bad source count");
        let sources = (0..nsources).map(|i| (i * n / nsources) as u32).collect();
        Self::multi_source(erdos_renyi(&ErdosRenyiConfig { n, p, seed }), sources)
    }

    /// The hop depths this workload verifies against.
    pub fn oracle(&self) -> &[u32] {
        &self.oracle
    }
}

/// Reference solution: textbook queue-based BFS from one source.
pub fn sequential_bfs(graph: &CsrGraph, source: u32) -> Vec<u32> {
    sequential_bfs_multi(graph, &[source])
}

/// Reference solution for a whole starting frontier (all sources at
/// depth 0).
pub fn sequential_bfs_multi(graph: &CsrGraph, sources: &[u32]) -> Vec<u32> {
    let mut depth = vec![UNREACHED; graph.num_nodes()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if depth[s as usize] == UNREACHED {
            depth[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = depth[u as usize];
        for e in graph.neighbors(u) {
            if depth[e.target as usize] == UNREACHED {
                depth[e.target as usize] = d + 1;
                queue.push_back(e.target);
            }
        }
    }
    depth
}

/// Per-run state: the atomic depth array.
pub struct BfsExec<'w> {
    graph: &'w CsrGraph,
    depth: Vec<AtomicU32>,
    k: usize,
    /// Nodes actually expanded (adjacency lists scanned).
    expanded: PlaceCounter,
}

impl BfsExec<'_> {
    /// Nodes expanded so far; exceeds the reachable count exactly when
    /// useless work happened (a node re-expanded at a stale depth).
    pub fn expanded(&self) -> u64 {
        self.expanded.sum()
    }

    /// Snapshot of the depth array.
    pub fn depths(&self) -> Vec<u32> {
        self.depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Lowers `node`'s depth to `new` if it improves it (CAS loop).
    fn try_decrease(&self, node: u32, new: u32) -> bool {
        let cell = &self.depth[node as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        while new < cur {
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

impl TaskExecutor<BfsTask> for BfsExec<'_> {
    /// A task whose node has since been discovered shallower is dead.
    fn is_dead(&self, task: &BfsTask) -> bool {
        self.depth[task.node as usize].load(Ordering::Relaxed) < task.depth
    }

    fn execute(&self, task: BfsTask, ctx: &mut SpawnCtx<'_, BfsTask>) {
        // Re-check now; the pop-time dead check may be stale.
        if self.depth[task.node as usize].load(Ordering::Relaxed) < task.depth {
            return;
        }
        self.expanded.add(ctx.place(), 1);
        let next = task.depth + 1;
        let mut batch = ctx.take_batch_buf();
        for e in self.graph.neighbors(task.node) {
            if self.try_decrease(e.target, next) {
                batch.push((
                    next as u64, // priority = hop depth, smaller is better
                    BfsTask {
                        node: e.target,
                        depth: next,
                    },
                ));
            }
        }
        ctx.spawn_batch(self.k, &mut batch);
        ctx.put_batch_buf(batch);
    }
}

impl Workload for BfsWorkload {
    type Task = BfsTask;
    type Exec<'w>
        = BfsExec<'w>
    where
        Self: 'w;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn executor(&self, params: &PoolParams) -> BfsExec<'_> {
        let depth: Vec<AtomicU32> = (0..self.graph.num_nodes())
            .map(|_| AtomicU32::new(UNREACHED))
            .collect();
        for &s in &self.sources {
            depth[s as usize].store(0, Ordering::Relaxed);
        }
        BfsExec {
            graph: &self.graph,
            depth,
            k: params.k,
            expanded: PlaceCounter::new(),
        }
    }

    fn seed(&self, _exec: &BfsExec<'_>, params: &PoolParams) -> Vec<(u64, usize, BfsTask)> {
        self.sources
            .iter()
            .map(|&node| (0, params.k, BfsTask { node, depth: 0 }))
            .collect()
    }

    fn verify(&self, exec: &BfsExec<'_>, _run: &RunStats) -> Result<(), String> {
        let depths = exec.depths();
        if depths != self.oracle {
            let diverging = depths
                .iter()
                .zip(&self.oracle)
                .filter(|(a, b)| a != b)
                .count();
            return Err(format!(
                "{diverging} of {} depths diverge from sequential BFS",
                depths.len()
            ));
        }
        if exec.expanded() < self.reachable {
            return Err(format!(
                "only {} expansions for {} reachable nodes",
                exec.expanded(),
                self.reachable
            ));
        }
        Ok(())
    }

    fn metrics(&self, exec: &BfsExec<'_>, _run: &RunStats) -> Vec<(&'static str, f64)> {
        vec![
            ("expanded", exec.expanded() as f64),
            (
                "useless",
                exec.expanded().saturating_sub(self.reachable) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use priosched_core::PoolKind;
    use priosched_graph::dijkstra;

    #[test]
    fn sequential_bfs_on_path_graph() {
        // 0 - 1 - 2 - 3 chain plus isolated node 4.
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        assert_eq!(sequential_bfs(&g, 0), vec![0, 1, 2, 3, UNREACHED]);
    }

    #[test]
    fn oracle_matches_unit_weight_dijkstra() {
        // On a unit-weight copy of the graph, hop depth == Dijkstra
        // distance; cross-check the two independent oracles.
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 90,
            p: 0.08,
            seed: 5,
        });
        let unit: Vec<(u32, u32, f32)> = g
            .undirected_edges()
            .map(|(u, v, _)| (u, v, 1.0f32))
            .collect();
        let unit_graph = CsrGraph::from_undirected_edges(g.num_nodes(), &unit);
        let w = BfsWorkload::new(g.clone(), 0);
        let dij = dijkstra(&unit_graph, 0).dist;
        for (b, d) in w.oracle().iter().zip(&dij) {
            if *b == UNREACHED {
                assert!(d.is_infinite());
            } else {
                assert_eq!(*b as f64, *d);
            }
        }
    }

    #[test]
    fn bfs_workload_verifies_on_hybrid() {
        let w = BfsWorkload::random(150, 0.05, 42);
        let report = run_workload(&w, PoolKind::Hybrid, 2, PoolParams::with_k(16));
        report.expect_verified();
        assert!(report.executed >= 1);
    }

    #[test]
    fn multi_source_frontier_verifies_and_matches_min_of_singles() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 120,
            p: 0.05,
            seed: 9,
        });
        let sources = vec![0u32, 40, 80];
        let w = BfsWorkload::multi_source(g.clone(), sources.clone());
        // The frontier oracle is the pointwise min over single-source runs.
        for (node, &d) in w.oracle().iter().enumerate() {
            let min_single = sources
                .iter()
                .map(|&s| sequential_bfs(&g, s)[node])
                .min()
                .unwrap();
            assert_eq!(d, min_single, "node {node}");
        }
        run_workload(&w, PoolKind::Centralized, 4, PoolParams::with_k(32)).expect_verified();
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_frontier_rejected() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 10,
            p: 0.3,
            seed: 1,
        });
        BfsWorkload::multi_source(g, Vec::new());
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected_at_construction() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 10,
            p: 0.3,
            seed: 1,
        });
        BfsWorkload::new(g, 10);
    }
}
