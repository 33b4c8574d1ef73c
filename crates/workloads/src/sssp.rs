//! The paper's evaluation workload (§5.1) as a [`Workload`]: parallel SSSP
//! where every node relaxation is a task, verified against sequential
//! Dijkstra. Threaded runs go through [`crate::run_workload`], lockstep runs
//! through [`SsspWorkload::lockstep`].

use crate::{report, Workload, WorkloadReport};
use priosched_core::{PoolKind, PoolParams, RunStats};
use priosched_graph::{dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched_sssp::{SsspExecutor, SsspTask};
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

    /// Runs the workload once on `places` handles of a fresh pool of
    /// `kind`, serviced round-robin on the calling thread (see
    /// [`SsspExecutor::run_lockstep`]), and verifies it like
    /// [`crate::run_workload`]. Its counts repeat exactly; its wall time
    /// means nothing.
    pub fn lockstep(&self, kind: PoolKind, places: usize, params: PoolParams) -> WorkloadReport {
        let exec = self.executor(&params);
        let pool = Arc::new(kind.build(places, params));
        let run = exec.run_lockstep(&pool, self.seed(&exec, &params));
        report(self, &exec, kind, places, params, run)
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

    /// Nodes relaxed by a run that matched Dijkstra.
    fn relaxed(report: &WorkloadReport) -> f64 {
        let metrics = &report.expect_verified().metrics;
        metrics.iter().find(|(n, _)| *n == "relaxed").unwrap().1
    }

    #[test]
    fn lockstep_is_deterministic_and_matches_dijkstra_on_every_kind() {
        let w = SsspWorkload::random(150, 0.08, 44);
        for kind in PoolKind::ALL {
            let pass = || {
                let report = w.lockstep(kind, 8, PoolParams::with_k(32));
                (relaxed(&report), report.dead)
            };
            assert_eq!(pass(), pass(), "{kind}");
        }
    }

    /// One place makes every structure but the MultiQueue a strict priority
    /// queue (the MultiQueue's c = 2 queues stay relaxed even at one place),
    /// so the lockstep run is Dijkstra's order.
    #[test]
    fn lockstep_single_place_is_dijkstra_order() {
        let w = SsspWorkload::random(200, 0.05, 45);
        for kind in PoolKind::ALL {
            if kind != PoolKind::MultiQueue {
                let report = w.lockstep(kind, 1, PoolParams::with_k(512));
                assert_eq!(relaxed(&report), w.reachable as f64, "{kind}");
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
