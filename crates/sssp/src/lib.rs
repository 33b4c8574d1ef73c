#![warn(missing_docs)]

//! Parallel single-source shortest paths on the priosched scheduler.
//!
//! The paper's evaluation application (§5.1, Listing 5): a simple
//! parallelization of Dijkstra's algorithm where **each node relaxation is a
//! task**, prioritized by the node's tentative distance ("priority, smaller
//! is better"). Instead of decrease-key, improved nodes are *reinserted*
//! with their new distance; superseded instances become **dead tasks**,
//! recognized lazily and skipped (§5.1).
//!
//! The parallelization departs from Dijkstra in one way only: nodes may be
//! relaxed before they are settled, producing *useless work* (the node must
//! be relaxed again later). The amount of useless work is exactly what the
//! choice of scheduling data structure controls, and what Figures 4–5
//! measure as "nodes relaxed" beyond the graph's `n`.
//!
//! This crate is Listing 5 and nothing else: [`SsspTask`], the relaxation
//! in [`SsspExecutor`] (written once, shared by the threaded `execute` and
//! [`SsspExecutor::run_lockstep`]) and [`AtomicDistances`]. Runs go through
//! `priosched_workloads::SsspWorkload`, which holds the Dijkstra oracle:
//! `run_workload` runs it threaded, `SsspWorkload::lockstep` on one thread,
//! and both verify.

pub mod distances;
pub mod executor;

pub use distances::AtomicDistances;
pub use executor::{SsspExecutor, SsspTask};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use priosched_core::{run_on_kind, PoolKind, PoolParams};
    use priosched_graph::{dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};

    fn graph(n: usize, p: f64, seed: u64) -> CsrGraph {
        erdos_renyi(&ErdosRenyiConfig { n, p, seed })
    }

    /// Runs Listing 5 threaded on `kind` and checks it against Dijkstra;
    /// returns (nodes relaxed, reachable nodes).
    fn check(g: &CsrGraph, source: u32, kind: PoolKind, places: usize, k: usize) -> (u64, u64) {
        let exec = SsspExecutor::new(g, source, k);
        let roots = vec![exec.root(source)];
        run_on_kind(kind, places, PoolParams::with_k(k), &exec, roots);
        let expect = dijkstra(g, source).dist;
        let dist = exec.distances().snapshot();
        assert_eq!(
            dist, expect,
            "{kind} places={places} k={k}: distances diverge"
        );
        let reachable = expect.iter().filter(|d| d.is_finite()).count() as u64;
        assert!(
            exec.relaxed() >= reachable,
            "{kind}: fewer relaxations than reachable"
        );
        (exec.relaxed(), reachable)
    }

    #[test]
    fn all_structures_match_dijkstra_small_graph() {
        let g = graph(150, 0.08, 21);
        for kind in PoolKind::ALL {
            check(&g, 0, kind, 2, 16);
        }
    }

    #[test]
    fn all_structures_match_dijkstra_various_sources() {
        let g = graph(120, 0.1, 33);
        for source in [0u32, 7, 119] {
            for kind in PoolKind::PAPER {
                check(&g, source, kind, 3, 8);
            }
        }
    }

    /// With one place every paper structure is a strict priority queue,
    /// i.e. Dijkstra's order: relaxations == reachable.
    #[test]
    fn single_place_performs_no_useless_work() {
        let g = graph(200, 0.05, 5);
        for kind in PoolKind::PAPER {
            let (relaxed, reachable) = check(&g, 0, kind, 1, 512);
            assert_eq!(relaxed, reachable, "{kind}: a node relaxed twice");
        }
    }

    #[test]
    fn disconnected_graph_leaves_infinities() {
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1, 1.0), (2, 3, 1.0)]);
        // Dijkstra leaves nodes 2–4 at ∞, and `check` compares every node.
        assert_eq!(check(&g, 0, PoolKind::Hybrid, 2, 4).1, 2);
    }

    #[test]
    fn k_extremes_still_correct() {
        let g = graph(100, 0.1, 77);
        for k in [0usize, 1, 32768] {
            for kind in PoolKind::PAPER {
                check(&g, 0, kind, 4, k);
            }
        }
    }
}
