#![warn(missing_docs)]

//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every figure of the paper's evaluation (§5.4.1, §5.5) has a binary in
//! `src/bin/` that regenerates its series:
//!
//! | binary            | paper figure | series | runs |
//! |-------------------|--------------|--------|------|
//! | `fig3_simulation` | Figure 3     | settled/phase, h*_t/phase, theory-vs-simulation | `priosched_sim` phase model |
//! | `fig4_scaling`    | Figure 4     | time & nodes relaxed vs P (k = 512) | one `SsspWorkload` per graph |
//! | `fig5_k_sweep`    | Figure 5     | time & nodes relaxed vs k (P fixed) | one `SsspWorkload` per graph |
//!
//! For the SSSP figures, time comes from the threaded `run_workload` and
//! "nodes relaxed" from the deterministic `SsspWorkload::lockstep`
//! (`priosched_workloads`); every run is checked against Dijkstra.
//!
//! All binaries accept the same flags (parsed by [`HarnessConfig`]; a bad
//! flag is a usage error, exit code 2):
//!
//! * `--full` — the paper's workload: n = 10000, p = 0.5, 20 graphs
//!   (several GiB of CSR and minutes of runtime; the default is a scaled
//!   workload with the same shapes);
//! * `--n N`, `--p P`, `--graphs G`, `--places P`, `--out DIR`.
//!
//! Output goes to stdout (human-readable tables) and `results/*.csv`
//! (machine-readable, one row per point).
//!
//! Also here: the `chaos` fault-injection sweep (over [`chaos`]) and the
//! `atomics_audit` CI gate. Throughput and latency numbers come from the
//! standalone `benchmark/` package, not from this crate.

use priosched_graph::{erdos_renyi, CsrGraph, ErdosRenyiConfig};
use std::io::Write;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::str::FromStr;

pub mod chaos;
pub mod latency;

/// Seed base for the replicated graphs: graph `i` uses `GRAPH_SEED_BASE+i`,
/// identical across every figure so all experiments see the same graphs
/// (§5.4.1: "exactly the same 20 random graphs").
pub const GRAPH_SEED_BASE: u64 = 1000;

/// Common harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Nodes per graph.
    pub n: usize,
    /// Edge probability.
    pub p: f64,
    /// Number of replicated graphs (paper: 20).
    pub graphs: usize,
    /// Maximum place count to sweep (paper machine: 80).
    pub places: usize,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Whether `--full` (paper-scale) was requested.
    pub full: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            n: 2000,
            p: 0.5,
            graphs: 5,
            places: 8,
            out_dir: PathBuf::from("results"),
            full: false,
        }
    }
}

const USAGE: &str =
    "flags: --full | --n N (≥ 1) | --p P (in [0, 1]) | --graphs G (≥ 1) | --places P (≥ 1) | --out DIR";

impl HarnessConfig {
    /// Parses the arguments after the program name. `Ok(None)` means
    /// `--help` was asked for; `Err` carries a usage diagnostic.
    pub fn parse(argv: &[String]) -> Result<Option<Self>, String> {
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
        let mut cfg = HarnessConfig::default();
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--full" => {
                    cfg.full = true;
                    cfg.n = 10_000;
                    cfg.p = 0.5;
                    cfg.graphs = 20;
                    cfg.places = 80;
                }
                "--n" => cfg.n = num("--n", take("--n")?, 1..=usize::MAX)?,
                "--p" => cfg.p = num("--p", take("--p")?, 0.0..=1.0)?,
                "--graphs" => cfg.graphs = num("--graphs", take("--graphs")?, 1..=usize::MAX)?,
                "--places" => cfg.places = num("--places", take("--places")?, 1..=usize::MAX)?,
                "--out" => cfg.out_dir = PathBuf::from(take("--out")?),
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Some(cfg))
    }

    /// [`HarnessConfig::parse`] over the process arguments: `--help` prints
    /// the usage line and exits 0; a bad flag prints the diagnostic and the
    /// usage line on stderr and exits 2.
    pub fn from_args() -> Self {
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

    /// Generates the replicated graph set (seeded, reproducible).
    pub fn graph_set(&self) -> Vec<CsrGraph> {
        (0..self.graphs)
            .map(|i| {
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
            .collect()
    }

    /// Describes the environment, flagging host limitations honestly.
    pub fn banner(&self, figure: &str) {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        println!("=== {figure} ===");
        println!(
            "workload: {} graphs, n = {}, p = {}, seeds {}..{}",
            self.graphs,
            self.n,
            self.p,
            GRAPH_SEED_BASE,
            GRAPH_SEED_BASE + self.graphs as u64 - 1
        );
        println!("host: {cores} hardware thread(s); paper testbed: 80-core Xeon, 1 TB RAM");
        if self.places > cores {
            println!(
                "note: sweeping up to {} places on {cores} hardware thread(s): \
                 wall-clock scaling will flatten from oversubscription, while \
                 'nodes relaxed' (ordering quality) remains meaningful",
                self.places
            );
        }
        if !self.full {
            println!("scaled workload; pass --full for the paper's n = 10000 / 20 graphs");
        }
        println!();
    }
}

/// Mean of an f64 iterator (0 for empty input).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
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
pub fn write_csv(
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

/// The paper's place sweep for Figure 4, filtered to `max`.
pub fn fig4_place_sweep(max: usize) -> Vec<usize> {
    [1usize, 2, 3, 5, 10, 20, 40, 80]
        .into_iter()
        .filter(|&p| p <= max.max(1))
        .collect()
}

/// The paper's k sweep for Figure 5 (x-axis: 0, 1, 2, 4, …, 32768),
/// optionally truncated for scaled runs.
pub fn fig5_k_sweep(full: bool) -> Vec<usize> {
    let mut ks = vec![0usize, 1];
    let mut k = 2;
    let cap = if full { 32_768 } else { 8_192 };
    while k <= cap {
        ks.push(k);
        k *= 2;
    }
    ks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_scaled_down() {
        let cfg = HarnessConfig::default();
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
        let cfg = parse("--n 300 --p 0.25 --graphs 2 --places 4 --out x")
            .unwrap()
            .unwrap();
        assert_eq!((cfg.n, cfg.p, cfg.graphs, cfg.places), (300, 0.25, 2, 4));
        assert_eq!(cfg.out_dir, PathBuf::from("x"));
        let full = parse("--full").unwrap().unwrap();
        assert!(full.full && full.n == 10_000 && full.places == 80);
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("-h").unwrap().is_none());
    }

    #[test]
    fn bad_flags_are_usage_errors_not_panics() {
        let bad_lines = "--n 0|--graphs 0|--places 0|--p 1.5|--p NaN|--n ten|--places|--bogus";
        for bad in bad_lines.split('|') {
            assert!(!parse(bad).expect_err(bad).is_empty());
        }
    }

    #[test]
    fn graph_set_is_reproducible() {
        let cfg = HarnessConfig {
            n: 60,
            p: 0.2,
            graphs: 2,
            ..HarnessConfig::default()
        };
        let a = cfg.graph_set();
        let b = cfg.graph_set();
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
    fn fig4_sweep_respects_cap() {
        assert_eq!(fig4_place_sweep(8), vec![1, 2, 3, 5]);
        assert_eq!(fig4_place_sweep(80), vec![1, 2, 3, 5, 10, 20, 40, 80]);
        assert_eq!(fig4_place_sweep(0), vec![1]);
    }

    #[test]
    fn fig5_sweep_is_paper_axis() {
        let full = fig5_k_sweep(true);
        assert_eq!(full[0], 0);
        assert_eq!(*full.last().unwrap(), 32_768);
        assert!(full.contains(&512));
        let scaled = fig5_k_sweep(false);
        assert!(*scaled.last().unwrap() <= 8_192);
    }

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn write_csv_round_trip() {
        let dir = std::env::temp_dir().join("priosched-bench-test");
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
