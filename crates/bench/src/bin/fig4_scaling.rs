//! Figure 4: total execution time and nodes relaxed for varying P
//! (n = 10000, k = 512, p = 50% in the paper).
//!
//! Series: sequential Dijkstra (shown at one thread) plus the three
//! structures at P ∈ {1, 2, 3, 5, 10, 20, 40, 80} (capped at the host's
//! usable thread budget unless --full).

use priosched_bench::{fig4_place_sweep, mean, write_csv, HarnessConfig};
use priosched_core::{PoolKind, PoolParams};
use priosched_graph::dijkstra;
use priosched_workloads::{run_workload, SsspWorkload, WorkloadReport};
use std::time::Instant;

/// Nodes relaxed by a run that matched Dijkstra.
fn relaxed(report: &WorkloadReport) -> f64 {
    let metrics = &report.expect_verified().metrics;
    let relaxed = metrics.iter().find(|(n, _)| *n == "relaxed");
    relaxed.expect("an SSSP report carries `relaxed`").1
}

fn main() {
    let cfg = HarnessConfig::from_args();
    cfg.banner("Figure 4: time & nodes relaxed vs P (k = 512)");
    let workloads: Vec<SsspWorkload> = cfg
        .graph_set()
        .into_iter()
        .map(|g| SsspWorkload::new(g, 0))
        .collect();
    let places_sweep = fig4_place_sweep(cfg.places);
    let params = PoolParams::with_k(512);

    let mut rows = Vec::new();

    // Sequential baseline (P = 1 column of the paper's figure).
    let mut seq_times = Vec::new();
    let mut seq_relaxed = Vec::new();
    for w in &workloads {
        let t0 = Instant::now();
        let r = dijkstra(w.graph(), 0);
        seq_times.push(t0.elapsed().as_secs_f64());
        seq_relaxed.push(r.relaxations as f64);
    }
    let seq_t = mean(seq_times.iter().copied());
    let seq_n = mean(seq_relaxed.iter().copied());
    println!(
        "{:<14} {:>3}  time {:>9.4}s  relaxed {:>9.0}",
        "Sequential", 1, seq_t, seq_n
    );
    rows.push(format!("Sequential,1,{seq_t:.6},{seq_n:.1}"));

    // "time" comes from the threaded run (real wall clock); "relaxed"
    // comes from the lockstep run, which reproduces the task-granular
    // interleaving of a P-core machine deterministically — on hosts with
    // few cores, OS timeslicing would otherwise hide the ordering effects
    // the figure is about (see `SsspExecutor::run_lockstep`).
    for kind in PoolKind::PAPER {
        for &places in &places_sweep {
            let mut times = Vec::new();
            let mut nodes = Vec::new();
            let mut dead = Vec::new();
            for w in &workloads {
                let timed = run_workload(w, kind, places, params);
                times.push(timed.expect_verified().elapsed.as_secs_f64());
                let ordered = w.lockstep(kind, places, params);
                nodes.push(relaxed(&ordered));
                dead.push(ordered.dead as f64);
            }
            let t = mean(times.iter().copied());
            let n = mean(nodes.iter().copied());
            let d = mean(dead.iter().copied());
            println!(
                "{:<14} {:>3}  time {:>9.4}s  relaxed {:>9.0}  dead {:>8.0}",
                kind.label(),
                places,
                t,
                n,
                d
            );
            rows.push(format!("{},{places},{t:.6},{n:.1}", kind.label()));
        }
    }

    let path = write_csv(
        &cfg.out_dir,
        "fig4_time_and_relaxed_vs_places.csv",
        "structure,places,time_s,nodes_relaxed",
        &rows,
    )
    .unwrap();
    println!("\nreference shapes (paper, 80-core Xeon):");
    println!(" - all parallel structures relax ≈ n nodes except Work-Stealing (> 2n)");
    println!(" - times drop below sequential from P ≥ 2, flatten when memory-bound");
    println!("CSV: {}", path.display());
}
