//! Convenience runners tying graph + executor + scheduler together.

use crate::executor::{SsspExecutor, SsspTask};
use priosched_core::stats::PlaceStats;
use priosched_core::{run_on_kind, PoolKind, PoolParams, RunStats, Scheduler, TaskPool};
use priosched_graph::CsrGraph;
use std::sync::Arc;
use std::time::Duration;

/// Parameters of a parallel SSSP run.
#[derive(Clone, Copy, Debug)]
pub struct SsspConfig {
    /// Number of places (worker threads), the paper's `P`.
    pub places: usize,
    /// Structure parameters: the relaxation bound `k` passed with every
    /// task (§2.2), which the kind-selected runners also build the pool
    /// from (see [`priosched_core::PoolKind::build`]).
    pub pool: PoolParams,
}

impl Default for SsspConfig {
    fn default() -> Self {
        SsspConfig {
            places: 4,
            pool: PoolParams::default(),
        }
    }
}

impl SsspConfig {
    /// Config for `places` places and relaxation bound `k`.
    pub fn new(places: usize, k: usize) -> Self {
        SsspConfig {
            places,
            pool: PoolParams::with_k(k),
        }
    }

    /// The per-task relaxation bound `k`.
    pub fn k(&self) -> usize {
        self.pool.k
    }
}

/// Outcome of a parallel SSSP run.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Final distances (exactly Dijkstra's values; see crate docs).
    pub dist: Vec<f64>,
    /// Nodes relaxed — the paper's Figures 4–5 metric. Equals the number of
    /// reachable nodes iff no useless work was performed.
    pub relaxed: u64,
    /// Tasks eliminated as dead (scheduler check + in-task re-check).
    pub dead: u64,
    /// Wall-clock time of the scheduled run.
    pub elapsed: Duration,
    /// Aggregated data-structure counters.
    pub pool_stats: PlaceStats,
}

/// Builds the executor for `cfg` (shared by the generic and kind-selected
/// entry points).
fn executor_for<'g>(graph: &'g CsrGraph, source: u32, cfg: &SsspConfig) -> SsspExecutor<'g> {
    assert!((source as usize) < graph.num_nodes(), "source out of range");
    SsspExecutor::new(graph, source, cfg.pool.k)
}

/// Folds scheduler stats and executor counters into an [`SsspResult`].
fn collect(exec: &SsspExecutor<'_>, run: RunStats) -> SsspResult {
    SsspResult {
        dist: exec.distances().snapshot(),
        relaxed: exec.relaxed(),
        dead: run.dead + exec.late_dead(),
        elapsed: run.elapsed,
        pool_stats: run.pool,
    }
}

/// Runs parallel SSSP over an explicit task pool.
pub fn run_sssp<P>(pool: Arc<P>, graph: &CsrGraph, source: u32, cfg: &SsspConfig) -> SsspResult
where
    P: TaskPool<SsspTask>,
{
    let exec = executor_for(graph, source, cfg);
    let sched = Scheduler::from_pool_arc(pool);
    let run = sched.run(&exec, vec![exec.root(source)]);
    collect(&exec, run)
}

/// Runs parallel SSSP with one of the paper's structures selected at
/// runtime (used by the figure harness to sweep structures).
///
/// Pool construction goes through [`priosched_core::run_on_kind`]: one
/// dispatch before the run, a scheduling loop monomorphized per structure,
/// and `cfg.pool` routed to whichever construction knobs the kind consumes.
pub fn run_sssp_kind(
    kind: PoolKind,
    graph: &CsrGraph,
    source: u32,
    cfg: &SsspConfig,
) -> SsspResult {
    let exec = executor_for(graph, source, cfg);
    let run = run_on_kind(kind, cfg.places, cfg.pool, &exec, vec![exec.root(source)]);
    collect(&exec, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use priosched_core::HybridKPriority;
    use priosched_graph::{dijkstra, erdos_renyi, ErdosRenyiConfig};

    #[test]
    fn runner_produces_dijkstra_distances() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 80,
            p: 0.15,
            seed: 3,
        });
        let cfg = SsspConfig::new(2, 8);
        let res = run_sssp(Arc::new(HybridKPriority::new(cfg.places)), &g, 0, &cfg);
        assert_eq!(res.dist, dijkstra(&g, 0).dist);
        assert!(res.relaxed >= 80);
        assert!(res.pool_stats.pushes >= res.relaxed.saturating_sub(1));
    }

    #[test]
    fn kind_runner_matches_for_every_structure() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 90,
            p: 0.12,
            seed: 9,
        });
        let expect = dijkstra(&g, 0).dist;
        for kind in PoolKind::ALL {
            let res = run_sssp_kind(kind, &g, 0, &SsspConfig::new(2, 16));
            assert_eq!(res.dist, expect, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_panics() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 10,
            p: 0.5,
            seed: 1,
        });
        let cfg = SsspConfig::default();
        run_sssp_kind(PoolKind::Hybrid, &g, 99, &cfg);
    }
}
