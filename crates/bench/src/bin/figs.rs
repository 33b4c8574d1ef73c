//! Figures 3–5: the phase model over every structure (§5.4.1, §5.5).
//!
//! `figs --sweep places|k` runs every graph through
//! `SsspWorkload::run_phases` on each structure of the sweep and prints one
//! row per (structure, P, k): nodes relaxed, the useless share, phases,
//! settled nodes per phase and Theorem 5's lower bound on them. The driver
//! is single-threaded, so the rows repeat exactly and reach the paper's
//! P = 80 on any host. See the crate docs for the axes and the CSVs.

use priosched_bench::{mean, write_csv, HarnessConfig, Sweep};
use priosched_core::{PoolKind, PoolParams};
use priosched_sim::{RhoWindow, TheoryBound};
use priosched_workloads::{PhaseRun, SsspWorkload};
use std::sync::Arc;

/// The window's ρ values whose per-phase panels the k sweep writes as
/// Figure 3.
const FIG3_RHOS: [usize; 3] = [0, 128, 512];

/// A structure a row runs on: a pool kind, or the window with ρ = the row's k.
#[derive(Clone, Copy)]
enum Structure {
    Kind(PoolKind),
    Window,
}

impl Structure {
    fn label(self) -> &'static str {
        match self {
            Structure::Kind(kind) => kind.label(),
            Structure::Window => "RhoWindow",
        }
    }

    fn run(self, w: &SsspWorkload, places: usize, k: usize) -> PhaseRun {
        let run = match self {
            Structure::Kind(kind) => {
                w.run_phases(&Arc::new(kind.build(places, PoolParams::with_k(k))), k)
            }
            Structure::Window => w.run_phases(&Arc::new(RhoWindow::new(places, k)), k),
        };
        run.unwrap_or_else(|e| panic!("{} at P = {places}, k = {k}: {e}", self.label()))
    }
}

/// One graph's run of a row.
struct Cell {
    relaxed: f64,
    reachable: f64,
    phases: f64,
    settled: f64,
    bound: f64,
}

fn main() {
    let cfg = HarnessConfig::from_args();
    let sweep = cfg.sweep;
    let kinds = PoolKind::ALL.map(Structure::Kind).into_iter();
    let rows: Vec<(Structure, usize, usize)> = kinds
        .chain([Structure::Window])
        .flat_map(|s| {
            sweep
                .points(cfg.full)
                .into_iter()
                .map(move |(p, k)| (s, p, k))
        })
        .collect();
    if !cfg.full {
        eprintln!("scaled workload; pass --full for the paper's n = 10000 / 20 graphs");
    }
    let theory = TheoryBound::new(cfg.n, cfg.p);

    let mut cells: Vec<Vec<Cell>> = rows.iter().map(|_| Vec::new()).collect();
    // Figure 3's per-phase panels, for the k sweep's window rows at
    // FIG3_RHOS: per row and phase, the settled, h* and bound sums over the
    // graphs, and the graph count.
    let fig3 = |&(s, _, k): &(Structure, usize, usize)| {
        sweep == Sweep::K && matches!(s, Structure::Window) && FIG3_RHOS.contains(&k)
    };
    let mut panels: Vec<Vec<[f64; 4]>> = rows.iter().map(|_| Vec::new()).collect();
    for graph in cfg.graph_set() {
        let w = SsspWorkload::new(graph, 0);
        for (row, point @ &(s, places, k)) in rows.iter().enumerate() {
            let run = s.run(&w, places, k);
            let mut bound = 0.0;
            for (t, ph) in run.phases.iter().enumerate() {
                let lb = theory.settled_lower_bound(&ph.dists);
                bound += lb;
                if fig3(point) {
                    if panels[row].len() == t {
                        panels[row].push([0.0; 4]);
                    }
                    let acc = &mut panels[row][t];
                    acc[0] += ph.settled as f64;
                    acc[1] += ph.h_star();
                    acc[2] += lb;
                    acc[3] += 1.0;
                }
            }
            cells[row].push(Cell {
                relaxed: run.relaxed() as f64,
                reachable: w.reachable() as f64,
                phases: run.phases.len() as f64,
                settled: run.phases.iter().map(|ph| ph.settled as f64).sum(),
                bound,
            });
        }
    }

    println!(
        "figs --sweep {}: G(n = {}, p = {}), {} graph(s) from seed {}, source 0",
        sweep.name(),
        cfg.n,
        cfg.p,
        cfg.graphs,
        priosched_bench::GRAPH_SEED_BASE
    );
    println!(
        "{:<14} {:>3} {:>6} {:>10} {:>9} {:>8} {:>10} {:>10}",
        "structure", "P", "k/ρ", "relaxed", "useless%", "phases", "settled/ph", "bound/ph"
    );
    let mut csv = Vec::new();
    for (&(s, places, k), cells) in rows.iter().zip(&cells) {
        let avg = |f: fn(&Cell) -> f64| mean(cells.iter().map(f));
        let (relaxed, reachable, phases) =
            (avg(|c| c.relaxed), avg(|c| c.reachable), avg(|c| c.phases));
        let useless = 100.0 * (relaxed - reachable) / reachable;
        let (settled, bound) = (avg(|c| c.settled) / phases, avg(|c| c.bound) / phases);
        println!(
            "{:<14} {places:>3} {k:>6} {relaxed:>10.1} {useless:>9.2} {phases:>8.1} {settled:>10.3} {bound:>10.3}",
            s.label()
        );
        csv.push(format!(
            "{},{places},{k},{relaxed:.1},{useless:.4},{phases:.1},{settled:.4},{bound:.4}",
            s.label()
        ));
    }
    let header = "structure,places,k,relaxed,useless_pct,phases,settled_per_phase,bound_per_phase";
    let mut csvs = vec![(format!("figs_{}.csv", sweep.name()), header, csv)];
    if sweep == Sweep::K {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        let window = rows.iter().zip(&panels).filter(|(point, _)| fig3(point));
        for (&(_, _, rho), phases) in window {
            for (t, [settled, h_star, bound, n]) in phases.iter().enumerate() {
                a.push(format!("{t},{rho},{:.4}", settled / n));
                b.push(format!("{t},{rho},{:.6}", h_star / n));
                if rho == 0 {
                    c.push(format!("{t},{:.4},{:.4}", settled / n, bound / n));
                }
            }
        }
        csvs.push((
            "fig3a_settled_per_phase.csv".into(),
            "phase,rho,settled_mean",
            a,
        ));
        csvs.push((
            "fig3b_hstar_per_phase.csv".into(),
            "phase,rho,h_star_mean",
            b,
        ));
        csvs.push((
            "fig3c_theory_vs_sim.csv".into(),
            "phase,sim_settled,theory_lower_bound",
            c,
        ));
    }
    for (file, header, rows) in csvs {
        let path = write_csv(&cfg.out_dir, &file, header, &rows).unwrap();
        eprintln!("CSV: {}", path.display());
    }
}
