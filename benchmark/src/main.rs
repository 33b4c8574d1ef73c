//! The repository's benchmark. One command measures one workload end to
//! end (`--trace 0`) or layer by layer (`--trace 1`); see `README.md`.

mod bench;
mod layers;
mod net;
mod service;
mod smoke;
mod sssp;
mod trace;
mod util;

use bench::{Bench, Metrics, Outcome, Sizes, WORKLOADS};
use priosched_core::PoolKind;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{block_means, iqr_frac, median, nproc, peak_rss_mb, places};

const USAGE: &str = "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke]";

/// Where the traced run writes its spans, relative to the repository root
/// the command is run from.
const OUT_DIR: &str = "benchmark/out";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 42,
            seconds: 25.0,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter().peekable();
        if it.next().map(String::as_str) != Some("run") {
            return Err("expected the subcommand `run`".into());
        }
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload {name:?}, expected one of {WORKLOADS:?}"
                        ));
                    }
                    out.workload = Some(name.clone());
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed: not a number")?;
                }
                "--seconds" => {
                    out.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds: not a duration")?;
                }
                "--trace" => {
                    // Bare `--trace` turns tracing on; the driver's form
                    // carries a 0 or a 1.
                    out.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.smoke) {
        (Some(name), _) => run_one(name, &args),
        (None, true) => smoke::run(),
        (None, false) => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own so that none
/// inherits another's heap or peak memory.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("the benchmark can start itself");
        ok &= status.success();
    }
    ok
}

fn setup(name: &str, seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Box<dyn Bench> {
    tr.span("setup", |tr| -> Box<dyn Bench> {
        match name {
            "service_stream" => Box::new(service::ServiceBench::setup(seed, sizes, tr)),
            "net_pipeline" => Box::new(net::NetBench::setup(seed, sizes, tr)),
            _ => Box::new(sssp::SsspBench::setup(name, seed, sizes, tr)),
        }
    })
}

const KINDS: usize = PoolKind::ALL.len();

/// Per-kind samples of the measuring loop, in `PoolKind::ALL` order.
#[derive(Default)]
struct Samples {
    secs: [Vec<f64>; KINDS],
    attempted: [u64; KINDS],
    failed: [u64; KINDS],
    join_kicks: u64,
    reps: u32,
}

impl Samples {
    fn add(&mut self, kind_index: usize, out: Outcome) {
        self.secs[kind_index].push(out.secs);
        self.join_kicks += out.join_kicks;
        self.attempted[kind_index] += out.attempted;
        self.failed[kind_index] += out.failed;
    }

    fn attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// One rep: every kind once on a fresh pool, starting one kind further
/// along each rep, so that drift of the machine lands on all kinds alike.
fn one_rep(bench: &dyn Bench, rep: u32, tr: &mut Tracer, samples: &mut Samples) {
    tr.set_rep(rep);
    for offset in 0..KINDS {
        let index = (rep as usize + offset) % KINDS;
        let kind = PoolKind::ALL[index];
        let out = tr.span("run", |tr| bench.run(kind, rep, tr));
        samples.add(index, out);
    }
}

/// Reps until `window` has passed; at least one.
fn measure(bench: &dyn Bench, window: Duration, tr: &mut Tracer) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    loop {
        samples.reps += 1;
        one_rep(bench, samples.reps, tr, &mut samples);
        if start.elapsed() >= window {
            return samples;
        }
    }
}

fn run_one(name: &str, args: &Args) -> bool {
    let sizes = if args.smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    };
    let window = Duration::from_secs_f64(if args.smoke { 0.0 } else { args.seconds });
    let (metrics, attempted, failed) = if args.trace {
        traced(name, args.seed, &sizes, window)
    } else {
        untraced(name, args.seed, &sizes, window)
    };
    for m in &metrics.0 {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && metrics.0.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    // A full run that printed its result succeeded as a process; whether
    // its outputs were right is in the result. A smoke run is a gate.
    correct || !args.smoke
}

/// The last line of a run: one JSON object.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// The end-to-end run: tracing off, every timing a median over the window.
fn untraced(name: &str, seed: u64, sizes: &Sizes, window: Duration) -> (Metrics, u64, u64) {
    let mut tr = Tracer::new(false);
    let mut setup_secs = Vec::new();
    let mut bench = None;
    for _ in 0..sizes.setup_repeats {
        drop(bench.take()); // one instance alive at a time, as a user would have
        let start = Instant::now();
        bench = Some(setup(name, seed, sizes, &mut tr));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set-up repeats at least once");
    let bench = bench.as_ref();
    one_rep(bench, 0, &mut tr, &mut Samples::default()); // warm-up
    let samples = measure(bench, window, &mut tr);

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_secs), "s");
    let mut spreads = String::new();
    for (i, kind) in PoolKind::ALL.iter().enumerate() {
        let blocks = block_means(&samples.secs[i]);
        metrics.put(
            format!("items_per_s.{}", kind.id()),
            bench.items() as f64 / median(&blocks),
            "1/s",
        );
        let _ = write!(spreads, " {}={:.4}", kind.id(), iqr_frac(&blocks));
    }
    // The counted shares are single-threaded passes that do not touch one
    // another, so the kinds can be counted side by side.
    let counted: Vec<Option<f64>> = std::thread::scope(|s| {
        let passes: Vec<_> = PoolKind::ALL
            .iter()
            .map(|&kind| s.spawn(move || bench.counted_useful_frac(kind)))
            .collect();
        passes
            .into_iter()
            .map(|p| p.join().expect("counting pass"))
            .collect()
    });
    for (i, kind) in PoolKind::ALL.iter().enumerate() {
        let share = counted[i]
            .unwrap_or_else(|| 1.0 - samples.failed[i] as f64 / samples.attempted[i] as f64);
        metrics.put(format!("useful_frac.{}", kind.id()), share, "ratio");
    }
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    println!(
        "# {name} seed={seed} nproc={} places={} reps={} ops_attempted={} ops_failed={} \
         join_kicks={}",
        nproc(),
        places(),
        samples.reps,
        samples.attempted(),
        samples.failed(),
        samples.join_kicks
    );
    println!("# {name} IQR of the block means as a share of their median:{spreads}");
    (metrics, samples.attempted(), samples.failed())
}

/// The per-layer run: the workload with spans on and off in alternate
/// reps, then the layer probes.
fn traced(name: &str, seed: u64, sizes: &Sizes, window: Duration) -> (Metrics, u64, u64) {
    let mut tr = Tracer::new(true);
    let bench = setup(name, seed, sizes, &mut tr);
    one_rep(bench.as_ref(), 0, &mut tr, &mut Samples::default());
    let (mut on, mut off) = (Samples::default(), Samples::default());
    // The probes need most of the run; the workload gets a quarter.
    let share = window / 4;
    let start = Instant::now();
    loop {
        on.reps += 1;
        tr.set_enabled(true);
        one_rep(bench.as_ref(), on.reps, &mut tr, &mut on);
        tr.set_enabled(false);
        one_rep(bench.as_ref(), on.reps, &mut tr, &mut off);
        if start.elapsed() >= share {
            break;
        }
    }
    tr.set_enabled(true);
    let slowdown: Vec<f64> = (0..KINDS)
        .map(|i| median(&on.secs[i]) / median(&off.secs[i]) - 1.0)
        .collect();

    let probes = layers::probe_all(seed, sizes, &mut tr);
    let mut metrics = probes.metrics;
    metrics.put("trace.overhead_frac", median(&slowdown), "ratio");

    let path = format!("{OUT_DIR}/trace.{name}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json(name, seed)));
    match written {
        Ok(()) => println!("# {name} wrote {} spans to {path}", tr.spans().len()),
        Err(why) => eprintln!("could not write {path}: {why}"),
    }
    println!("# {name} span count total_s self_s");
    for (span, (count, total, own)) in tr.summary() {
        println!("# {name} {span} {count} {total:.6} {own:.6}");
    }
    let attempted = on.attempted() + off.attempted() + probes.attempted;
    let failed = on.failed() + off.failed() + probes.failed;
    println!(
        "# {name} seed={seed} nproc={} places={} traced_reps={} ops_attempted={attempted} \
         ops_failed={failed} join_kicks={}",
        nproc(),
        places(),
        on.reps,
        on.join_kicks + off.join_kicks
    );
    (metrics, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let a = parse(&[
            "run",
            "--workload",
            "sssp_sparse",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sssp_sparse"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 20.0, true, false)
        );
        assert!(!parse(&["run", "--trace", "0"]).unwrap().trace);
        assert!(parse(&["run", "--trace"]).unwrap().trace);
        assert!(parse(&["run", "--trace", "--smoke"]).unwrap().smoke);
        assert_eq!(parse(&["run"]).unwrap().seed, 42);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["run", "--workload", "nope"]).is_err());
        assert!(parse(&["run", "--seed"]).is_err());
        assert!(parse(&["run", "--seconds", "-1"]).is_err());
        assert!(parse(&["run", "--frobnicate"]).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("items_per_s.hybrid", 1.5e6, "1/s");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"items_per_s.hybrid\": {\"value\": 1500000, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn reps_rotate_the_starting_kind() {
        struct Order(std::sync::Mutex<Vec<PoolKind>>);
        impl Bench for Order {
            fn items(&self) -> u64 {
                1
            }
            fn run(&self, kind: PoolKind, _rep: u32, _: &mut Tracer) -> Outcome {
                self.0.lock().unwrap().push(kind);
                Outcome {
                    secs: 1.0,
                    attempted: 1,
                    failed: 0,
                    join_kicks: 0,
                }
            }
        }
        let bench = Order(Default::default());
        let samples = measure(&bench, Duration::ZERO, &mut Tracer::new(false));
        assert_eq!(samples.reps, 1);
        one_rep(&bench, 2, &mut Tracer::new(false), &mut Samples::default());
        let order = bench.0.lock().unwrap();
        assert_eq!(order[0], PoolKind::ALL[1]);
        assert_eq!(order[5], PoolKind::ALL[2]);
        assert_eq!(order[9], PoolKind::ALL[1]);
        assert!(samples.secs.iter().all(|s| s.len() == 1));
    }
}
