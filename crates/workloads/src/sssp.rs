//! The paper's evaluation workload (§5.1) as a [`Workload`]: parallel SSSP
//! where every node relaxation is a task, verified against sequential
//! Dijkstra. Threaded runs go through [`crate::run_workload`], phase runs
//! through [`SsspWorkload::run_phases`].

use crate::Workload;
use priosched_core::{PoolParams, RunStats, TaskPool};
use priosched_graph::{dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched_sssp::{PhaseRun, SsspExecutor, SsspTask};
use std::sync::Arc;

/// An SSSP instance (graph + source) with its Dijkstra oracle.
pub struct SsspWorkload {
    graph: CsrGraph,
    source: u32,
    oracle: Vec<f64>,
    reachable: u64,
}

impl SsspWorkload {
    /// Wraps an existing graph; computes the Dijkstra oracle once.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(graph: CsrGraph, source: u32) -> Self {
        assert!((source as usize) < graph.num_nodes(), "source out of range");
        let oracle = dijkstra(&graph, source).dist;
        let reachable = oracle.iter().filter(|d| d.is_finite()).count() as u64;
        SsspWorkload {
            graph,
            source,
            oracle,
            reachable,
        }
    }

    /// Seeded Erdős–Rényi instance with source 0 (the figures' workload
    /// shape).
    pub fn random(n: usize, p: f64, seed: u64) -> Self {
        Self::new(erdos_renyi(&ErdosRenyiConfig { n, p, seed }), 0)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The Dijkstra distances this workload verifies against.
    pub fn oracle(&self) -> &[f64] {
        &self.oracle
    }

    /// Reachable nodes: what Dijkstra relaxes.
    pub fn reachable(&self) -> u64 {
        self.reachable
    }

    /// Runs the workload in phases over every place of `pool`, spawning at
    /// relaxation bound `k` (see [`SsspExecutor::run_phases`]), and checks
    /// the distances against Dijkstra's. Its counts repeat exactly.
    pub fn run_phases<P: TaskPool<SsspTask>>(
        &self,
        pool: &Arc<P>,
        k: usize,
    ) -> Result<PhaseRun, String> {
        let exec = SsspExecutor::new(&self.graph, self.source, k);
        let run = exec.run_phases(pool, vec![exec.root(self.source)], &self.oracle);
        self.check(&exec)?;
        Ok(run)
    }

    /// The oracle check every run passes: Dijkstra's distances, and at
    /// least one relaxation per reachable node.
    fn check(&self, exec: &SsspExecutor<'_>) -> Result<(), String> {
        let dist = exec.distances().snapshot();
        if dist != self.oracle {
            let diverging = dist
                .iter()
                .zip(&self.oracle)
                .filter(|(a, b)| a != b)
                .count();
            return Err(format!(
                "{diverging} of {} distances diverge from Dijkstra",
                dist.len()
            ));
        }
        if exec.relaxed() < self.reachable {
            return Err(format!(
                "only {} relaxations for {} reachable nodes",
                exec.relaxed(),
                self.reachable
            ));
        }
        Ok(())
    }
}

impl Workload for SsspWorkload {
    type Task = SsspTask;
    type Exec<'w>
        = SsspExecutor<'w>
    where
        Self: 'w;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn executor(&self, params: &PoolParams) -> SsspExecutor<'_> {
        SsspExecutor::new(&self.graph, self.source, params.k)
    }

    fn seed(&self, exec: &SsspExecutor<'_>, _params: &PoolParams) -> Vec<(u64, usize, SsspTask)> {
        vec![exec.root(self.source)]
    }

    fn verify(&self, exec: &SsspExecutor<'_>, _run: &RunStats) -> Result<(), String> {
        self.check(exec)
    }

    fn metrics(&self, exec: &SsspExecutor<'_>, _run: &RunStats) -> Vec<(&'static str, f64)> {
        vec![
            ("relaxed", exec.relaxed() as f64),
            (
                "useless",
                exec.relaxed().saturating_sub(self.reachable) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use priosched_core::PoolKind;

    #[test]
    fn sssp_workload_verifies_on_hybrid() {
        let w = SsspWorkload::random(120, 0.1, 7);
        let report = run_workload(&w, PoolKind::Hybrid, 2, PoolParams::with_k(16));
        report.expect_verified();
        assert!(report.executed >= 120);
        assert!(report
            .metrics
            .iter()
            .any(|(name, v)| *name == "relaxed" && *v >= 120.0));
    }

    fn phases(w: &SsspWorkload, kind: PoolKind, places: usize, k: usize) -> PhaseRun {
        let pool = Arc::new(kind.build(places, PoolParams::with_k(k)));
        w.run_phases(&pool, k).unwrap()
    }

    #[test]
    fn lockstep_is_deterministic_and_matches_dijkstra_on_every_kind() {
        let w = SsspWorkload::random(150, 0.08, 44);
        for kind in PoolKind::ALL {
            assert_eq!(phases(&w, kind, 8, 32), phases(&w, kind, 8, 32), "{kind}");
        }
    }

    /// One place makes every structure but the MultiQueue a strict priority
    /// queue (the MultiQueue's c = 2 queues stay relaxed even at one place),
    /// so the phase run is Dijkstra's order.
    #[test]
    fn lockstep_single_place_is_dijkstra_order() {
        let w = SsspWorkload::random(200, 0.05, 45);
        for kind in PoolKind::ALL {
            if kind != PoolKind::MultiQueue {
                let run = phases(&w, kind, 1, 512);
                assert_eq!(run.relaxed() as u64, w.reachable, "{kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected_at_construction() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 10,
            p: 0.3,
            seed: 1,
        });
        SsspWorkload::new(g, 10);
    }
}
