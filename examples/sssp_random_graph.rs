//! The paper's evaluation workload end-to-end (§5): parallel SSSP on an
//! Erdős–Rényi random graph, comparing all three data structures against
//! sequential Dijkstra — correctness *and* useless work.
//!
//! Run with: `cargo run --release --example sssp_random_graph [n] [p]`

use priosched::core::{PoolKind, PoolParams};
use priosched::graph::{dijkstra, erdos_renyi, ErdosRenyiConfig};
use priosched::workloads::{run_workload, SsspWorkload};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map(|a| a.parse().unwrap()).unwrap_or(1500);
    let p: f64 = args.next().map(|a| a.parse().unwrap()).unwrap_or(0.5);
    let places = 8;
    let k = 512;

    println!("generating G(n = {n}, p = {p}) with U(0,1] weights …");
    let graph = erdos_renyi(&ErdosRenyiConfig { n, p, seed: 42 });
    println!(
        "{} nodes, {} edges ({:.1} MiB CSR), connected: {}\n",
        graph.num_nodes(),
        graph.num_edges(),
        graph.memory_bytes() as f64 / (1024.0 * 1024.0),
        graph.is_connected()
    );

    let t0 = std::time::Instant::now();
    let seq = dijkstra(&graph, 0);
    let seq_time = t0.elapsed();
    let reachable = seq.dist.iter().filter(|d| d.is_finite()).count();
    println!(
        "{:<14} {:>10.2?}  relaxed {:>7}  (every reachable node exactly once)",
        "Sequential", seq_time, seq.relaxations
    );

    // One workload per graph: it holds the Dijkstra oracle every run below
    // is verified against.
    let workload = SsspWorkload::new(graph, 0);
    let params = PoolParams::with_k(k);
    for kind in PoolKind::PAPER {
        // Threaded run: correctness + wall time on this host.
        let res = run_workload(&workload, kind, places, params);
        res.expect_verified();
        // Phase run: `places` places relaxing side by side in the paper's
        // phase model, deterministic — the useless-work signal.
        let pool = Arc::new(kind.build(places, params));
        let phases = workload.run_phases(&pool, k).expect("matches Dijkstra");
        let relaxed = phases.relaxed();
        println!(
            "{:<14} {:>10.2?}  relaxed {:>7}  (+{} useless in {}-place phases, dead {})",
            kind.label(),
            res.elapsed,
            relaxed,
            relaxed - reachable,
            places,
            phases.dead,
        );
    }

    println!("\nAll parallel runs produced bit-identical distances to Dijkstra.");
    println!("Work-stealing pays for its missing global order in useless work;");
    println!("the k-priority structures bound it (ρ = k and ρ = P·k).");
}
