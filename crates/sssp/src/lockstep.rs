//! Lockstep (virtual-place) SSSP runner for ordering-quality experiments.
//!
//! The paper measured Figures 4–5 on an 80-core machine, where the *useless
//! work* of each data structure emerges from truly concurrent places. On
//! hosts with few hardware threads, OS timeslicing runs each worker for
//! long stretches, which hides exactly the interleaving that produces
//! premature relaxations — a work-stealing place that runs alone for a full
//! quantum behaves like sequential Dijkstra.
//!
//! This runner restores the paper's interleaving deterministically: a single
//! thread owns one place handle *per virtual place* and services them
//! round-robin, one task per place per round — the task-granular analog of
//! the theoretical model's "in each phase up to P nodes are relaxed"
//! (§5.2.1). All pushes/pops go through the real data structures, so their
//! ordering behaviour (local-only priorities for work-stealing, ρ-relaxed
//! global order for the k-structures) is exactly what is measured; only the
//! physical concurrency is virtualized.
//!
//! Wall-clock numbers from this runner are meaningless (it is one thread);
//! use it for the "nodes relaxed" panels and the threaded runner for time.

use crate::distances::AtomicDistances;
use crate::executor::SsspTask;
use crate::runner::{SsspConfig, SsspResult};
use priosched_core::stats::PlaceStats;
use priosched_core::{PoolHandle, PoolKind, TaskPool};
use priosched_graph::CsrGraph;
use std::sync::Arc;
use std::time::Instant;

/// Runs SSSP over `pool` with `cfg.places` virtual places serviced
/// round-robin by the calling thread.
pub fn run_sssp_lockstep<P>(
    pool: Arc<P>,
    graph: &CsrGraph,
    source: u32,
    cfg: &SsspConfig,
) -> SsspResult
where
    P: TaskPool<SsspTask>,
{
    assert!((source as usize) < graph.num_nodes(), "source out of range");
    let start = Instant::now();
    let dist = AtomicDistances::new(graph.num_nodes());
    dist.store(source, 0.0);

    let mut handles: Vec<P::Handle> = (0..cfg.places).map(|p| pool.handle(p)).collect();
    let mut pending: u64 = 1;
    handles[0].push(
        0,
        cfg.pool.k,
        SsspTask {
            node: source,
            dist_bits: 0f64.to_bits(),
        },
    );

    let mut relaxed = 0u64;
    let mut dead = 0u64;
    // Reused relaxation buffer: each node expansion batches its successful
    // relaxations and stores them with one `push_batch` (the same batched
    // spawn path the threaded executor uses).
    let mut batch: Vec<(u64, SsspTask)> = Vec::new();
    while pending > 0 {
        for h in handles.iter_mut() {
            let Some(task) = h.pop() else { continue };
            pending -= 1;
            // Dead-task elimination (§5.1) and Listing 5's in-task re-check
            // coincide here — there is no scheduling gap between them in a
            // single-threaded driver.
            let d_bits = dist.load_bits(task.node);
            if d_bits != task.dist_bits {
                dead += 1;
                continue;
            }
            relaxed += 1;
            let d = f64::from_bits(d_bits);
            for e in graph.neighbors(task.node) {
                let nd = d + e.weight as f64;
                let nb = nd.to_bits();
                if dist.try_decrease(e.target, nb) {
                    batch.push((
                        nb,
                        SsspTask {
                            node: e.target,
                            dist_bits: nb,
                        },
                    ));
                }
            }
            pending += batch.len() as u64;
            h.push_batch(cfg.pool.k, &mut batch);
        }
    }

    let mut pool_stats = PlaceStats::default();
    for h in &handles {
        pool_stats.merge(&h.stats());
    }
    SsspResult {
        dist: dist.snapshot(),
        relaxed,
        dead,
        elapsed: start.elapsed(),
        pool_stats,
    }
}

/// Lockstep runner with the structure chosen at runtime.
///
/// Goes through [`PoolKind::build`] (wall-clock from this runner is
/// meaningless anyway, so the erased pool's per-op branch costs nothing
/// that matters); `cfg.pool` is what the pool is built from.
pub fn run_sssp_lockstep_kind(
    kind: PoolKind,
    graph: &CsrGraph,
    source: u32,
    cfg: &SsspConfig,
) -> SsspResult {
    let pool = Arc::new(kind.build(cfg.places, cfg.pool));
    run_sssp_lockstep(pool, graph, source, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use priosched_graph::{dijkstra, erdos_renyi, ErdosRenyiConfig};

    #[test]
    fn lockstep_matches_dijkstra_for_all_structures() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 150,
            p: 0.08,
            seed: 44,
        });
        let expect = dijkstra(&g, 0).dist;
        for kind in PoolKind::ALL {
            let cfg = SsspConfig::new(8, 32);
            let res = run_sssp_lockstep_kind(kind, &g, 0, &cfg);
            assert_eq!(res.dist, expect, "{kind}");
        }
    }

    #[test]
    fn lockstep_single_place_is_dijkstra_order() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 200,
            p: 0.05,
            seed: 45,
        });
        let reachable = dijkstra(&g, 0)
            .dist
            .iter()
            .filter(|d| d.is_finite())
            .count() as u64;
        for kind in PoolKind::PAPER {
            let cfg = SsspConfig::new(1, 512);
            let res = run_sssp_lockstep_kind(kind, &g, 0, &cfg);
            assert_eq!(res.relaxed, reachable, "{kind}");
        }
    }

    /// The headline ordering claim of Figure 4b, reproduced deterministically:
    /// under interleaved execution work-stealing performs significantly more
    /// useless work than the relaxed global structures.
    #[test]
    fn workstealing_wastes_more_work_than_k_structures() {
        let g = erdos_renyi(&ErdosRenyiConfig {
            n: 400,
            p: 0.5,
            seed: 46,
        });
        let cfg = SsspConfig::new(32, 64);
        let ws = run_sssp_lockstep_kind(PoolKind::WorkStealing, &g, 0, &cfg).relaxed;
        let ce = run_sssp_lockstep_kind(PoolKind::Centralized, &g, 0, &cfg).relaxed;
        let hy = run_sssp_lockstep_kind(PoolKind::Hybrid, &g, 0, &cfg).relaxed;
        assert!(
            ws > ce && ws > hy,
            "work-stealing must waste the most work: ws={ws} centralized={ce} hybrid={hy}"
        );
        assert!(
            ce >= 400 && hy >= 400,
            "every reachable node relaxed at least once"
        );
    }
}
