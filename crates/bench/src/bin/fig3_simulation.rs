//! Figure 3: simulation of the phase model (§5.4.1).
//!
//! Three panels, P = 80, ρ ∈ {0, 128, 512}, mean over the replicated
//! graphs:
//!   (a) nodes settled per phase;
//!   (b) h*_t (spread of relaxed tentative distances) per phase;
//!   (c) theoretical lower bound on settled nodes vs simulation (ρ = 0),
//!       using Theorem 5's exact pairwise form.
//!
//! The simulator is single-threaded regardless of host cores (it *models*
//! P places), so this figure reproduces at paper scale on any machine.
//! Every simulation's final distances are checked against Dijkstra from
//! the same source; a mismatch panics.

use priosched_bench::{mean, write_csv, HarnessConfig};
use priosched_graph::dijkstra;
use priosched_sim::{simulate_sssp, SimConfig, TheoryBound};

fn main() {
    let cfg = HarnessConfig::from_args();
    cfg.banner("Figure 3: phase-model simulation (settled/phase, h*, theory bound)");
    let p_places = if cfg.full { 80 } else { cfg.places.max(2) };
    let rhos = [0usize, 128, 512];

    let graphs = cfg.graph_set();
    let theory = TheoryBound::new(cfg.n, cfg.p);

    // phase-indexed accumulators per rho
    let mut settled_acc: Vec<Vec<f64>> = vec![Vec::new(); rhos.len()];
    let mut hstar_acc: Vec<Vec<f64>> = vec![Vec::new(); rhos.len()];
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); rhos.len()];
    // Panel c accumulators (rho = 0): simulation settled + theory bound.
    let mut sim_c: Vec<f64> = Vec::new();
    let mut theory_c: Vec<f64> = Vec::new();
    let mut count_c: Vec<usize> = Vec::new();

    for (gi, g) in graphs.iter().enumerate() {
        let oracle = dijkstra(g, 0).dist;
        for (ri, &rho) in rhos.iter().enumerate() {
            let res = simulate_sssp(
                g,
                0,
                &SimConfig {
                    p: p_places,
                    rho,
                    seed: 7 + gi as u64,
                },
            );
            if let Some(v) = (0..oracle.len()).find(|&v| res.dist[v] != oracle[v]) {
                panic!(
                    "graph {gi} rho {rho}: oracle mismatch at node {v}: simulated {}, Dijkstra {}",
                    res.dist[v], oracle[v]
                );
            }
            for (ph_idx, ph) in res.phases.iter().enumerate() {
                if settled_acc[ri].len() <= ph_idx {
                    settled_acc[ri].push(0.0);
                    hstar_acc[ri].push(0.0);
                    counts[ri].push(0);
                }
                settled_acc[ri][ph_idx] += ph.settled as f64;
                hstar_acc[ri][ph_idx] += ph.h_star;
                counts[ri][ph_idx] += 1;
                if rho == 0 {
                    if sim_c.len() <= ph_idx {
                        sim_c.push(0.0);
                        theory_c.push(0.0);
                        count_c.push(0);
                    }
                    sim_c[ph_idx] += ph.settled as f64;
                    theory_c[ph_idx] += theory.settled_lower_bound(&ph.dists);
                    count_c[ph_idx] += 1;
                }
            }
            println!(
                "graph {gi:2} rho {rho:3}: {} phases, {} relaxed, {} useless",
                res.phases.len(),
                res.total_relaxed,
                res.total_useless
            );
        }
    }

    // ---- CSV dumps -------------------------------------------------------
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    for (ri, &rho) in rhos.iter().enumerate() {
        for ph in 0..counts[ri].len() {
            let c = counts[ri][ph] as f64;
            rows_a.push(format!("{ph},{rho},{:.4}", settled_acc[ri][ph] / c));
            rows_b.push(format!("{ph},{rho},{:.6}", hstar_acc[ri][ph] / c));
        }
    }
    let mut rows_c = Vec::new();
    for ph in 0..count_c.len() {
        let c = count_c[ph] as f64;
        rows_c.push(format!("{ph},{:.4},{:.4}", sim_c[ph] / c, theory_c[ph] / c));
    }
    let a = write_csv(
        &cfg.out_dir,
        "fig3a_settled_per_phase.csv",
        "phase,rho,settled_mean",
        &rows_a,
    )
    .unwrap();
    let b = write_csv(
        &cfg.out_dir,
        "fig3b_hstar_per_phase.csv",
        "phase,rho,h_star_mean",
        &rows_b,
    )
    .unwrap();
    let c = write_csv(
        &cfg.out_dir,
        "fig3c_theory_vs_sim.csv",
        "phase,sim_settled,theory_lower_bound",
        &rows_c,
    )
    .unwrap();

    // ---- Human-readable summary ------------------------------------------
    println!("\npanels (a, b): settled nodes and h* per phase (mean over graphs)");
    println!(
        "{:>6} | {:>24} | {:>27}",
        "phase", "settled (rho=0/128/512)", "h* (rho=0/128/512)"
    );
    let max_phases = counts.iter().map(|c| c.len()).max().unwrap_or(0);
    let probe_points: Vec<usize> = (0..max_phases)
        .filter(|&ph| ph < 3 || ph % (max_phases / 10).max(1) == 0 || ph + 3 >= max_phases)
        .collect();
    for &ph in &probe_points {
        let cell = |ri: usize, acc: &Vec<Vec<f64>>, width: usize, prec: usize| -> String {
            if ph < counts[ri].len() {
                format!("{:>width$.prec$}", acc[ri][ph] / counts[ri][ph] as f64)
            } else {
                format!("{:>width$}", "-")
            }
        };
        println!(
            "{:>6} | {} {} {} | {} {} {}",
            ph,
            cell(0, &settled_acc, 8, 1),
            cell(1, &settled_acc, 7, 1),
            cell(2, &settled_acc, 7, 1),
            cell(0, &hstar_acc, 9, 5),
            cell(1, &hstar_acc, 8, 5),
            cell(2, &hstar_acc, 8, 5),
        );
    }

    println!("\npanel (c): theory lower bound vs simulation (rho = 0)");
    println!(
        "{:>6} | {:>12} | {:>12}",
        "phase", "simulation", "lower bound"
    );
    for &ph in &probe_points {
        if ph < count_c.len() {
            println!(
                "{:>6} | {:>12.2} | {:>12.2}",
                ph,
                sim_c[ph] / count_c[ph] as f64,
                theory_c[ph] / count_c[ph] as f64
            );
        }
    }
    let gap = mean((0..count_c.len()).map(|ph| (sim_c[ph] - theory_c[ph]) / count_c[ph] as f64));
    println!("\nmean (simulation − bound) per phase: {gap:.3} nodes");
    println!("CSV: {}, {}, {}", a.display(), b.display(), c.display());
}
