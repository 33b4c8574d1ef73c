//! Figure 5: total execution time and nodes relaxed for varying k
//! (n = 10000, P = 80, p = 50% in the paper).
//!
//! Series: the two k-priority structures across the paper's k axis
//! (0, 1, 2, 4, …, 32768), plus work-stealing (k-independent) and the
//! sequential relaxation count as reference lines.

use priosched_bench::{fig5_k_sweep, mean, write_csv, HarnessConfig};
use priosched_core::PoolKind;
use priosched_graph::dijkstra;
use priosched_sssp::{run_sssp_kind, run_sssp_lockstep_kind, SsspConfig};

fn main() {
    let cfg = HarnessConfig::from_args();
    cfg.banner("Figure 5: time & nodes relaxed vs k (fixed P)");
    let graphs = cfg.graph_set();
    let places = cfg.places;
    let ks = fig5_k_sweep(cfg.full);

    let seq_n = mean(graphs.iter().map(|g| dijkstra(g, 0).relaxations as f64));
    println!("sequential reference: {seq_n:.0} nodes relaxed (each node once)\n");

    let mut rows = Vec::new();

    // Work-stealing ignores k: measure once, print as the flat reference.
    // As in fig4_scaling: wall time from the threaded runner, relaxation
    // counts from the deterministic lockstep runner.
    {
        let mut times = Vec::new();
        let mut relaxed = Vec::new();
        for g in &graphs {
            let ws_cfg = SsspConfig::new(places, 0);
            let timed = run_sssp_kind(PoolKind::WorkStealing, g, 0, &ws_cfg);
            times.push(timed.elapsed.as_secs_f64());
            let ordered = run_sssp_lockstep_kind(PoolKind::WorkStealing, g, 0, &ws_cfg);
            relaxed.push(ordered.relaxed as f64);
        }
        let t = mean(times.iter().copied());
        let n = mean(relaxed.iter().copied());
        println!(
            "{:<12} (any k)  time {:>9.4}s  relaxed {:>9.0}   [flat reference]",
            PoolKind::WorkStealing.label(),
            t,
            n
        );
        rows.push(format!("Work-Stealing,any,{t:.6},{n:.1}"));
    }

    for kind in [PoolKind::Centralized, PoolKind::Hybrid] {
        println!();
        for &k in &ks {
            let mut times = Vec::new();
            let mut relaxed = Vec::new();
            for g in &graphs {
                // The centralized pool is built for kmax = max(k, 512), so
                // it admits a swept k beyond the paper's fixed kmax = 512.
                let k_cfg = SsspConfig::new(places, k);
                let timed = run_sssp_kind(kind, g, 0, &k_cfg);
                times.push(timed.elapsed.as_secs_f64());
                let ordered = run_sssp_lockstep_kind(kind, g, 0, &k_cfg);
                relaxed.push(ordered.relaxed as f64);
            }
            let t = mean(times.iter().copied());
            let n = mean(relaxed.iter().copied());
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
