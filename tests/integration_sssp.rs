//! Cross-crate integration: parallel SSSP over every data structure must
//! reproduce sequential Dijkstra exactly, across a grid of (structure, P, k)
//! configurations and graph families — the correctness backbone behind
//! Figures 4 and 5.

use priosched::core::{PoolKind, PoolParams};
use priosched::graph::{bellman_ford, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched::sim::RhoWindow;
use priosched::workloads::{run_workload, SsspWorkload};
use std::sync::Arc;

#[test]
fn grid_of_structures_places_and_k() {
    let w = SsspWorkload::random(180, 0.08, 501);
    for kind in PoolKind::ALL {
        for places in [1usize, 2, 4] {
            for k in [1usize, 16, 512] {
                run_workload(&w, kind, places, PoolParams::with_k(k)).expect_verified();
            }
        }
    }
}

#[test]
fn lockstep_and_threaded_agree_with_each_other() {
    let w = SsspWorkload::random(150, 0.1, 502);
    let params = PoolParams::with_k(64);
    for kind in PoolKind::PAPER {
        run_workload(&w, kind, 4, params).expect_verified();
        w.run_phases(&Arc::new(kind.build(4, params)), 64).unwrap();
    }
}

#[test]
fn three_independent_solvers_agree() {
    // Dijkstra (pq-based), Bellman–Ford (sweep-based), the parallel
    // scheduler (hybrid), and the phase model over a ρ-window all compute
    // the same distances on the same graph.
    let w = SsspWorkload::new(
        erdos_renyi(&ErdosRenyiConfig {
            n: 140,
            p: 0.09,
            seed: 503,
        }),
        3,
    );
    let a = w.oracle();
    let b = bellman_ford(w.graph(), 3);
    assert_eq!(a, b);
    // Both runs are checked against the same Dijkstra distances.
    run_workload(&w, PoolKind::Hybrid, 3, PoolParams::with_k(32)).expect_verified();
    w.run_phases(&Arc::new(RhoWindow::new(8, 64)), 0).unwrap();
}

#[test]
fn sparse_and_dense_graph_families() {
    for (n, p, seed) in [(300usize, 0.03f64, 504u64), (80, 0.6, 505), (40, 1.0, 506)] {
        let w = SsspWorkload::random(n, p, seed);
        for kind in PoolKind::PAPER {
            run_workload(&w, kind, 2, PoolParams::with_k(8)).expect_verified();
        }
    }
}

#[test]
fn pathological_graphs() {
    // Long path: maximal dependency depth.
    let path: Vec<(u32, u32, f32)> = (0..199).map(|i| (i, i + 1, 0.5)).collect();
    // Star: maximal fanout from the source.
    let star: Vec<(u32, u32, f32)> = (1..200).map(|i| (0, i, 1.0 / i as f32)).collect();
    for (name, n, edges) in [("path", 200usize, path), ("star", 200, star)] {
        let w = SsspWorkload::new(CsrGraph::from_undirected_edges(n, &edges), 0);
        for kind in PoolKind::PAPER {
            let report = run_workload(&w, kind, 3, PoolParams::with_k(4));
            assert!(report.verified(), "{kind} on {name}: {:?}", report.verify);
        }
    }
}

#[test]
fn useless_work_ordering_between_structures_holds_deterministically() {
    // The paper's headline (Fig. 4 right): work-stealing performs the most
    // useless work; the k-structures bound it. Deterministic in phases.
    let w = SsspWorkload::random(400, 0.5, 507);
    let relaxed = |kind: PoolKind| {
        let pool = Arc::new(kind.build(32, PoolParams::with_k(64)));
        w.run_phases(&pool, 64).unwrap().relaxed()
    };
    let ws = relaxed(PoolKind::WorkStealing);
    let ce = relaxed(PoolKind::Centralized);
    let hy = relaxed(PoolKind::Hybrid);
    assert!(ws > ce, "ws={ws} centralized={ce}");
    assert!(ws > hy, "ws={ws} hybrid={hy}");
}

#[test]
fn simulator_total_relaxations_bounded_by_phases() {
    let w = SsspWorkload::random(250, 0.06, 508);
    let run = w.run_phases(&Arc::new(RhoWindow::new(10, 32)), 0).unwrap();
    assert!(run.relaxed() >= 250 - 5, "most nodes relaxed at least once");
    assert!(run.relaxed() <= 10 * run.phases.len());
    let settled: usize = run.phases.iter().map(|ph| ph.settled).sum();
    assert_eq!(settled as u64, w.reachable());
}
