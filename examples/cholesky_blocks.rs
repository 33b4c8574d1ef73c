//! Blocked Cholesky factorization as a prioritized task DAG — thin wrapper
//! over [`priosched::workloads::CholeskyWorkload`].
//!
//! The paper's introduction motivates priority scheduling with "matrix
//! algorithms-by-blocks" (Quintana-Ortí et al., cited as [16]): such
//! applications "resort to their own centralized scheduling scheme, based
//! on a shared priority queue" — exactly the congestion problem the
//! k-priority structures solve. The workload implementation (tile
//! POTRF/TRSM/SYRK/GEMM kernels, per-task dependency counters,
//! critical-path priorities, dense sequential oracle) lives in
//! `crates/workloads`, where the oracle-matrix tests exercise it across
//! every structure; this example just runs and narrates it.
//!
//! Run with: `cargo run --release --example cholesky_blocks`

use priosched::core::{PoolKind, PoolParams};
use priosched::workloads::{run_workload, CholeskyWorkload};

fn main() {
    let (nt, b) = (6usize, 16usize);
    let workload = CholeskyWorkload::random(nt, b, 0xFEED_FACE);
    let n = workload.dim();
    let places = 4;

    let report = run_workload(&workload, PoolKind::Hybrid, places, PoolParams::with_k(16));
    report.expect_verified();
    assert_eq!(report.executed, workload.expected_tasks());

    let max_err = report
        .metrics
        .iter()
        .find(|(name, _)| *name == "max_factor_err")
        .map(|(_, v)| *v)
        .unwrap_or(f64::NAN);
    println!(
        "tile Cholesky {n}×{n} ({nt}×{nt} tiles of {b}×{b}): \
         {} tasks on {places} places in {:.2?}",
        report.executed, report.elapsed
    );
    println!("max deviation from dense reference: {max_err:.2e}");
    println!("\nTasks were prioritized by panel (critical path): the paper's");
    println!("motivating use case [16] for priority task scheduling.");
}
