//! Cross-crate integration: parallel SSSP over every data structure must
//! reproduce sequential Dijkstra exactly, across a grid of (structure, P, k)
//! configurations and graph families — the correctness backbone behind
//! Figures 4 and 5.

use priosched::core::PoolKind;
use priosched::graph::{bellman_ford, dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched::sim::{simulate_sssp, SimConfig};
use priosched::sssp::{run_sssp_kind, run_sssp_lockstep_kind, SsspConfig};

#[test]
fn grid_of_structures_places_and_k() {
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 180,
        p: 0.08,
        seed: 501,
    });
    let expect = dijkstra(&g, 0).dist;
    for kind in PoolKind::ALL {
        for places in [1usize, 2, 4] {
            for k in [1usize, 16, 512] {
                let cfg = SsspConfig::new(places, k);
                let res = run_sssp_kind(kind, &g, 0, &cfg);
                assert_eq!(res.dist, expect, "{kind} P={places} k={k}");
            }
        }
    }
}

#[test]
fn lockstep_and_threaded_agree_with_each_other() {
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 150,
        p: 0.1,
        seed: 502,
    });
    for kind in PoolKind::PAPER {
        let cfg = SsspConfig::new(4, 64);
        let threaded = run_sssp_kind(kind, &g, 0, &cfg);
        let lockstep = run_sssp_lockstep_kind(kind, &g, 0, &cfg);
        assert_eq!(threaded.dist, lockstep.dist, "{kind}");
    }
}

#[test]
fn three_independent_solvers_agree() {
    // Dijkstra (pq-based), Bellman–Ford (sweep-based), the parallel
    // scheduler (hybrid), and the phase simulator all compute the same
    // distances on the same graph.
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 140,
        p: 0.09,
        seed: 503,
    });
    let a = dijkstra(&g, 3).dist;
    let b = bellman_ford(&g, 3);
    let c = run_sssp_kind(PoolKind::Hybrid, &g, 3, &SsspConfig::new(3, 32)).dist;
    let d = simulate_sssp(
        &g,
        3,
        &SimConfig {
            p: 8,
            rho: 64,
            seed: 1,
        },
    )
    .dist;
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
}

#[test]
fn sparse_and_dense_graph_families() {
    for (n, p, seed) in [(300usize, 0.03f64, 504u64), (80, 0.6, 505), (40, 1.0, 506)] {
        let g = erdos_renyi(&ErdosRenyiConfig { n, p, seed });
        let expect = dijkstra(&g, 0).dist;
        for kind in PoolKind::PAPER {
            let cfg = SsspConfig::new(2, 8);
            let res = run_sssp_kind(kind, &g, 0, &cfg);
            assert_eq!(res.dist, expect, "{kind} n={n} p={p}");
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
        let g = CsrGraph::from_undirected_edges(n, &edges);
        let expect = dijkstra(&g, 0).dist;
        for kind in PoolKind::PAPER {
            let cfg = SsspConfig::new(3, 4);
            let res = run_sssp_kind(kind, &g, 0, &cfg);
            assert_eq!(res.dist, expect, "{kind} on {name}");
        }
    }
}

#[test]
fn useless_work_ordering_between_structures_holds_deterministically() {
    // The paper's headline (Fig. 4 right): work-stealing performs the most
    // useless work; the k-structures bound it. Deterministic via lockstep.
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 400,
        p: 0.5,
        seed: 507,
    });
    let cfg = SsspConfig::new(32, 64);
    let ws = run_sssp_lockstep_kind(PoolKind::WorkStealing, &g, 0, &cfg).relaxed;
    let ce = run_sssp_lockstep_kind(PoolKind::Centralized, &g, 0, &cfg).relaxed;
    let hy = run_sssp_lockstep_kind(PoolKind::Hybrid, &g, 0, &cfg).relaxed;
    assert!(ws > ce, "ws={ws} centralized={ce}");
    assert!(ws > hy, "ws={ws} hybrid={hy}");
}

#[test]
fn simulator_total_relaxations_bounded_by_phases() {
    let g = erdos_renyi(&ErdosRenyiConfig {
        n: 250,
        p: 0.06,
        seed: 508,
    });
    let res = simulate_sssp(
        &g,
        0,
        &SimConfig {
            p: 10,
            rho: 32,
            seed: 2,
        },
    );
    assert!(
        res.total_relaxed >= 250 - 5,
        "most nodes relaxed at least once"
    );
    assert!(res.total_relaxed <= 10 * res.phases.len());
    assert_eq!(
        res.total_useless,
        res.phases
            .iter()
            .map(|ph| ph.relaxed - ph.settled)
            .sum::<usize>()
    );
}
