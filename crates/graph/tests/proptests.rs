//! Property-based tests for the graph substrate.

use priosched_graph::{bellman_ford, dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use proptest::prelude::*;

/// Arbitrary small undirected graphs as edge lists over `n` nodes.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.01f32..1.0f32)
            .prop_filter_map("no self loops", |(u, v, w)| (u != v).then_some((u, v, w)));
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dijkstra and Bellman–Ford take min over identical f64 path sums, so
    /// their outputs must be bitwise equal.
    #[test]
    fn dijkstra_equals_bellman_ford((n, edges) in graph_strategy()) {
        let g = CsrGraph::from_undirected_edges(n, &edges);
        let dj = dijkstra(&g, 0).dist;
        let bf = bellman_ford(&g, 0);
        prop_assert_eq!(dj, bf);
    }

    /// d(source) = 0 and every edge satisfies the triangle inequality.
    #[test]
    fn dijkstra_output_is_a_feasible_potential((n, edges) in graph_strategy()) {
        let g = CsrGraph::from_undirected_edges(n, &edges);
        let d = dijkstra(&g, 0).dist;
        prop_assert_eq!(d[0], 0.0);
        for (u, v, w) in g.undirected_edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du.is_finite() {
                prop_assert!(dv <= du + w as f64 + 1e-12);
            }
            if dv.is_finite() {
                prop_assert!(du <= dv + w as f64 + 1e-12);
            }
        }
    }

    /// Every finite distance is witnessed by some incoming edge (except the
    /// source), i.e. distances are not under-approximated.
    #[test]
    fn finite_distances_have_witnesses((n, edges) in graph_strategy()) {
        let g = CsrGraph::from_undirected_edges(n, &edges);
        let d = dijkstra(&g, 0).dist;
        for v in 1..n as u32 {
            let dv = d[v as usize];
            if dv.is_finite() {
                let witnessed = g.neighbors(v).iter().any(|e| {
                    let du = d[e.target as usize];
                    du.is_finite() && du + e.weight as f64 == dv
                });
                prop_assert!(witnessed, "node {v} distance {dv} has no witness edge");
            }
        }
    }

    /// CSR round-trip: building from an edge list preserves the multiset of
    /// undirected edges.
    #[test]
    fn csr_round_trip((n, edges) in graph_strategy()) {
        let g = CsrGraph::from_undirected_edges(n, &edges);
        let mut input: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        input.sort();
        let mut output: Vec<(u32, u32)> = g.undirected_edges().map(|(u, v, _)| (u, v)).collect();
        output.sort();
        prop_assert_eq!(input, output);
        prop_assert_eq!(g.num_edges(), edges.len());
    }

    /// The two ER samplers produce statistically consistent edge counts.
    #[test]
    fn er_sampler_counts_consistent(seed in 0u64..1000) {
        // Same p run through both code paths (p = 0.2 sparse, p = 0.3 dense
        // straddle the 0.25 switch); both must stay within 6 sigma.
        for p in [0.2f64, 0.3] {
            let n = 120;
            let cfg = ErdosRenyiConfig { n, p, seed };
            let g = erdos_renyi(&cfg);
            let pairs = (n * (n - 1) / 2) as f64;
            let mean = pairs * p;
            let sd = (pairs * p * (1.0 - p)).sqrt();
            let m = g.num_edges() as f64;
            prop_assert!((m - mean).abs() < 6.0 * sd, "p={p} m={m} mean={mean}");
        }
    }
}
