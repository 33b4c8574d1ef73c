//! Figures 3–5: the phase model over every structure (§5.4.1, §5.5).
//!
//! `figs --sweep places|k` runs every graph through
//! `SsspWorkload::run_phases`, the phase model on one thread, on each
//! structure of the sweep, so it reaches the paper's P = 80 on any host and
//! its counts repeat exactly; every run is checked against Dijkstra.
//! `--sweep` picks the axis ([`Sweep`]):
//!
//! | `--sweep` | paper figure | axis | structures |
//! |-----------|--------------|------|------------|
//! | `places`  | Figure 4 | P ∈ {1, 2, 3, 5, 10, 20, 40, 80}, k = 512 | every `PoolKind`, `RhoWindow` (ρ = k) |
//! | `k`       | Figures 5 and 3 | k ∈ {0, 1, 2, 4, …, 8192} (32768 with `--full`), P = 80 | every `PoolKind`, `RhoWindow` (ρ = k) |
//!
//! Each row is the mean over the graphs of nodes relaxed, the useless share
//! of them, phases, settled nodes per phase, and Theorem 5's lower bound on
//! settled nodes per phase, evaluated on the run's own phases for the same
//! (n, p, P). Stdout carries only that table, so it diffs exactly; notes and
//! CSV paths (`DIR/figs_<sweep>.csv`, and for `k` Figure 3's per-phase
//! `fig3{a,b,c}_*.csv` from the `RhoWindow` rows at ρ ∈ {0, 128, 512}) go to
//! stderr. Wall-clock time is not measured here: every timing comes from the
//! standalone `benchmark/` package.
//!
//! Flags (parsed by [`HarnessConfig`]; a bad flag is a usage error, exit
//! code 2): `--sweep places|k` (required), `--full` (the paper's workload:
//! n = 10000, p = 0.5, 20 graphs; the default is a scaled workload of the
//! same shape, n = 2000 and 5 graphs), `--n N`, `--p P`, `--graphs G`,
//! `--out DIR`; `--n`, `--p` and `--graphs` override `--full`'s values.
//!
//! CI diffs each sweep at `--n 300 --graphs 2` against the tables committed
//! under `figs/`; after an intended ordering change, regenerate them from
//! the repository root with
//!
//! ```text
//! for s in places k; do
//!     cargo run --release --bin figs -- \
//!         --sweep $s --n 300 --graphs 2 --out results > figs/$s.txt
//! done
//! ```

use priosched_core::{PoolKind, PoolParams};
use priosched_graph::{erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched_sim::{RhoWindow, TheoryBound};
use priosched_workloads::{PhaseRun, SsspWorkload};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

/// Seed base for the replicated graphs: graph `i` uses `GRAPH_SEED_BASE+i`,
/// identical across every figure so all experiments see the same graphs
/// (§5.4.1: "exactly the same 20 random graphs").
const GRAPH_SEED_BASE: u64 = 1000;

/// The window's ρ values whose per-phase panels the k sweep writes as
/// Figure 3.
const FIG3_RHOS: [usize; 3] = [0, 128, 512];

/// The axis `figs` sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sweep {
    /// Figure 4: places at k = 512.
    Places,
    /// Figure 5 (and Figure 3, from the window's rows): k at P = 80.
    K,
}

impl Sweep {
    /// The sweep's `(P, k)` points. `full` extends the k axis to the
    /// paper's 32768.
    fn points(self, full: bool) -> Vec<(usize, usize)> {
        match self {
            Sweep::Places => [1, 2, 3, 5, 10, 20, 40, 80].map(|p| (p, 512)).to_vec(),
            Sweep::K => {
                let top = if full { 15 } else { 13 };
                let powers = (0..=top).map(|e| 1 << e);
                std::iter::once(0).chain(powers).map(|k| (80, k)).collect()
            }
        }
    }

    /// The flag value that selects this sweep.
    fn name(self) -> &'static str {
        match self {
            Sweep::Places => "places",
            Sweep::K => "k",
        }
    }
}

/// The parsed command line.
#[derive(Clone, Debug)]
struct HarnessConfig {
    /// The axis to sweep.
    sweep: Sweep,
    /// Nodes per graph.
    n: usize,
    /// Edge probability.
    p: f64,
    /// Number of replicated graphs (paper: 20).
    graphs: usize,
    /// Output directory for CSVs.
    out_dir: PathBuf,
    /// Whether `--full` (paper-scale) was requested.
    full: bool,
}

const USAGE: &str = "flags: --sweep places|k (required) | --full | --n N (≥ 2) | \
                     --p P (in (0, 1]) | --graphs G (≥ 1) | --out DIR";

impl HarnessConfig {
    /// Parses the arguments after the program name. `Ok(None)` means
    /// `--help` was asked for; `Err` carries a usage diagnostic.
    fn parse(argv: &[String]) -> Result<Option<Self>, String> {
        fn num<T: FromStr + PartialOrd>(
            flag: &str,
            v: &str,
            ok: RangeInclusive<T>,
        ) -> Result<T, String> {
            match v.parse() {
                Ok(x) if ok.contains(&x) => Ok(x),
                _ => Err(format!("{flag}: bad value {v:?}")),
            }
        }
        let (mut sweep, mut full, mut out_dir) = (None, false, PathBuf::from("results"));
        let (mut n, mut p, mut graphs) = (None, None, None);
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--sweep" => {
                    let v = take("--sweep")?;
                    let all = [Sweep::Places, Sweep::K];
                    let found = all.into_iter().find(|s| s.name() == v);
                    sweep = Some(found.ok_or_else(|| format!("--sweep: bad value {v:?}"))?);
                }
                "--full" => full = true,
                "--n" => n = Some(num("--n", take("--n")?, 2..=usize::MAX)?),
                "--p" => p = Some(num("--p", take("--p")?, f64::MIN_POSITIVE..=1.0)?),
                "--graphs" => graphs = Some(num("--graphs", take("--graphs")?, 1..=usize::MAX)?),
                "--out" => out_dir = PathBuf::from(take("--out")?),
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Some(HarnessConfig {
            sweep: sweep.ok_or("--sweep is required")?,
            n: n.unwrap_or(if full { 10_000 } else { 2000 }),
            p: p.unwrap_or(0.5),
            graphs: graphs.unwrap_or(if full { 20 } else { 5 }),
            out_dir,
            full,
        }))
    }

    /// [`HarnessConfig::parse`] over the process arguments: `--help` prints
    /// the usage line and exits 0; a bad flag prints the diagnostic and the
    /// usage line on stderr and exits 2.
    fn from_args() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&argv) {
            Ok(Some(cfg)) => cfg,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The replicated graphs (seeded, reproducible), generated one at a
    /// time so a sweep holds one graph in memory.
    fn graph_set(&self) -> impl Iterator<Item = CsrGraph> + '_ {
        (0..self.graphs).map(|i| {
            let g = erdos_renyi(&ErdosRenyiConfig {
                n: self.n,
                p: self.p,
                seed: GRAPH_SEED_BASE + i as u64,
            });
            if !g.is_connected() {
                eprintln!(
                    "warning: graph {i} (n={}, p={}) is disconnected; \
                     relaxation counts will undershoot n",
                    self.n, self.p
                );
            }
            g
        })
    }
}

/// Mean of an f64 iterator (0 for empty input).
fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Writes a CSV with a header row; creates the output directory if needed.
fn write_csv(
    dir: &std::path::Path,
    file: &str,
    header: &str,
    rows: &[String],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(path)
}

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
        GRAPH_SEED_BASE
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
        let path = write_csv(&cfg.out_dir, &file, header, &rows)
            .unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
        eprintln!("CSV: {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_scaled_down() {
        let cfg = parse("--sweep k").unwrap().unwrap();
        assert!(cfg.n < 10_000);
        assert!(cfg.graphs < 20);
        assert!(!cfg.full);
    }

    fn parse(line: &str) -> Result<Option<HarnessConfig>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        HarnessConfig::parse(&argv)
    }

    #[test]
    fn well_formed_flags_parse() {
        let cfg = parse("--sweep k --n 300 --p 0.25 --graphs 2 --out x")
            .unwrap()
            .unwrap();
        assert_eq!((cfg.n, cfg.p, cfg.graphs), (300, 0.25, 2));
        assert_eq!((cfg.sweep, cfg.out_dir), (Sweep::K, PathBuf::from("x")));
        let full = parse("--full --sweep places").unwrap().unwrap();
        assert!(full.full && full.n == 10_000 && full.graphs == 20);
        assert_eq!(full.sweep, Sweep::Places);
        let smaller = parse("--n 400 --full --sweep k").unwrap().unwrap();
        assert_eq!((smaller.n, smaller.graphs), (400, 20));
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("-h").unwrap().is_none());
    }

    #[test]
    fn bad_flags_are_usage_errors_not_panics() {
        let bad_lines = "--n 1|--graphs 0|--p 0|--p 1.5|--p NaN|--n ten|--sweep|--sweep x|\
                         --sweep rho|--places 4|--bogus";
        for bad in bad_lines.split('|') {
            let line = format!("--sweep places {bad}");
            assert!(!parse(&line).expect_err(&line).is_empty());
        }
        assert!(!parse("--n 300").expect_err("no sweep").is_empty());
    }

    #[test]
    fn graph_set_is_reproducible() {
        let cfg = parse("--sweep k --n 60 --p 0.2 --graphs 2")
            .unwrap()
            .unwrap();
        let a: Vec<_> = cfg.graph_set().collect();
        let b: Vec<_> = cfg.graph_set().collect();
        assert_eq!(a.len(), 2);
        assert_eq!(
            a[0].undirected_edges().collect::<Vec<_>>(),
            b[0].undirected_edges().collect::<Vec<_>>()
        );
        // Different seeds per graph.
        assert_ne!(
            a[0].undirected_edges().collect::<Vec<_>>(),
            a[1].undirected_edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweeps_are_the_papers_axes() {
        let places = Sweep::Places.points(false);
        assert_eq!(
            places.iter().map(|p| p.0).collect::<Vec<_>>(),
            [1, 2, 3, 5, 10, 20, 40, 80]
        );
        assert!(places.iter().all(|p| p.1 == 512));
        for (full, top) in [(false, 8192), (true, 32_768)] {
            let ks: Vec<usize> = Sweep::K.points(full).iter().map(|p| p.1).collect();
            assert_eq!((ks[0], ks[1], ks[2], ks[3]), (0, 1, 2, 4));
            assert_eq!(*ks.last().unwrap(), top);
            assert!([0, 128, 512].iter().all(|rho| ks.contains(rho)));
        }
    }

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("priosched-figs-test");
        let path = write_csv(
            &dir,
            "t.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }
}
