//! Figure 5: total execution time and nodes relaxed for varying k
//! (n = 10000, P = 80, p = 50% in the paper).
//!
//! Series: the two k-priority structures across the paper's k axis
//! (0, 1, 2, 4, …, 32768), plus work-stealing (k-independent) and the
//! sequential relaxation count as reference lines.

use priosched_bench::{fig5_k_sweep, mean, write_csv, HarnessConfig};
use priosched_core::{PoolKind, PoolParams};
use priosched_workloads::{run_workload, SsspWorkload, WorkloadReport};

/// Nodes relaxed by a run that matched Dijkstra.
fn relaxed(report: &WorkloadReport) -> f64 {
    let metrics = &report.expect_verified().metrics;
    let relaxed = metrics.iter().find(|(n, _)| *n == "relaxed");
    relaxed.expect("an SSSP report carries `relaxed`").1
}

fn main() {
    let cfg = HarnessConfig::from_args();
    cfg.banner("Figure 5: time & nodes relaxed vs k (fixed P)");
    let workloads: Vec<SsspWorkload> = cfg
        .graph_set()
        .into_iter()
        .map(|g| SsspWorkload::new(g, 0))
        .collect();
    let places = cfg.places;
    let ks = fig5_k_sweep(cfg.full);

    // Sequential Dijkstra relaxes each reachable node once.
    let seq_n = mean(
        workloads
            .iter()
            .map(|w| w.oracle().iter().filter(|d| d.is_finite()).count() as f64),
    );
    println!("sequential reference: {seq_n:.0} nodes relaxed (each node once)\n");

    let mut rows = Vec::new();

    // Work-stealing ignores k: measure once, print as the flat reference.
    // As in fig4_scaling: wall time from the threaded run, relaxation
    // counts from the deterministic lockstep run.
    {
        let mut times = Vec::new();
        let mut nodes = Vec::new();
        let (ws, ws_params) = (PoolKind::WorkStealing, PoolParams::with_k(0));
        for w in &workloads {
            let timed = run_workload(w, ws, places, ws_params);
            times.push(timed.expect_verified().elapsed.as_secs_f64());
            nodes.push(relaxed(&w.lockstep(ws, places, ws_params)));
        }
        let t = mean(times.iter().copied());
        let n = mean(nodes.iter().copied());
        println!(
            "{:<12} (any k)  time {:>9.4}s  relaxed {:>9.0}   [flat reference]",
            ws.label(),
            t,
            n
        );
        rows.push(format!("Work-Stealing,any,{t:.6},{n:.1}"));
    }

    for kind in [PoolKind::Centralized, PoolKind::Hybrid] {
        println!();
        for &k in &ks {
            let mut times = Vec::new();
            let mut nodes = Vec::new();
            // The centralized pool is built for kmax = max(k, 512), so it
            // admits a swept k beyond the paper's fixed kmax = 512.
            let params = PoolParams::with_k(k);
            for w in &workloads {
                let timed = run_workload(w, kind, places, params);
                times.push(timed.expect_verified().elapsed.as_secs_f64());
                nodes.push(relaxed(&w.lockstep(kind, places, params)));
            }
            let t = mean(times.iter().copied());
            let n = mean(nodes.iter().copied());
            println!(
                "{:<12} k={:<6} time {:>9.4}s  relaxed {:>9.0}  (+{:.1}% useless)",
                kind.label(),
                k,
                t,
                n,
                100.0 * (n - seq_n).max(0.0) / seq_n
            );
            rows.push(format!("{},{k},{t:.6},{n:.1}", kind.label()));
        }
    }

    let path = write_csv(
        &cfg.out_dir,
        "fig5_time_and_relaxed_vs_k.csv",
        "structure,k,time_s,nodes_relaxed",
        &rows,
    )
    .unwrap();
    println!("\nreference shapes (paper, 80-core Xeon):");
    println!(" - centralized best around k ∈ [32, 128]; degrades for large k (linear search)");
    println!(" - hybrid approaches work-stealing speed for large k, wasted work stays ~half of WS");
    println!("CSV: {}", path.display());
}
