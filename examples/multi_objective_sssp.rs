//! Bi-objective shortest path search — thin wrapper over
//! [`priosched::workloads::MoSsspWorkload`].
//!
//! The paper's conclusion names "k-relaxed Pareto priority queues with
//! guarantees that can then be used for parallelization of a multi-objective
//! shortest path search" as planned future work, citing Sanders & Mandow's
//! parallel label-setting. The search itself (per-node Pareto fronts,
//! dead-label elimination, exhaustive sequential oracle) lives in
//! `crates/workloads` and runs on the ordinary scalar-priority scheduler —
//! label correction converges to the exact fronts under any pop order, so
//! every structure can be swept without the vector-priority queue the
//! paper envisions.
//!
//! Run with: `cargo run --release --example multi_objective_sssp`

use priosched::core::{PoolKind, PoolParams};
use priosched::workloads::{run_workload, MoSsspWorkload};

fn main() {
    let workload = MoSsspWorkload::random(60, 0.12, 99);
    let sizes: Vec<usize> = workload.oracle().iter().map(|f| f.len()).collect();
    let total: usize = sizes.iter().sum();
    let max = sizes.iter().max().copied().unwrap_or(0);
    println!(
        "bi-objective search, exhaustive oracle: {total} Pareto labels \
         (max {max} per node) over {} nodes\n",
        sizes.len()
    );

    for kind in PoolKind::ALL {
        let report = run_workload(&workload, kind, 4, PoolParams::with_k(8));
        report.expect_verified();
        let expanded = report
            .metrics
            .iter()
            .find(|(name, _)| *name == "expanded")
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        println!(
            "{:<14} expanded {expanded:>5.0} labels ({:>3} superseded-dead) in {:>8.2?} — fronts exact",
            kind.label(),
            report.dead,
            report.elapsed,
        );
    }

    println!("\nLabel-setting with dead-label elimination converges to the exact");
    println!("fronts for any pop order — the structures differ only in how much");
    println!("superseded work they admit, the same dial as scalar SSSP.");
}
