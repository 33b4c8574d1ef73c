//! chaos — the deterministic fault-injection sweep.
//!
//! Runs every scenario of [`priosched_bench::chaos`] (seeded task panics
//! under both fault policies, mid-run producer aborts, garbage/oversized
//! protocol lines, stalled and killed sockets) across every requested
//! kind × places cell, each cell **twice** to prove the failure counters
//! are identical on a same-seed repeat, and prints the counter table.
//!
//! ```text
//! chaos seed=N [--smoke] [--kinds hybrid,multiqueue,…] [--places 1,2,4]
//! ```
//!
//! * `seed=N` (or a bare `N`) selects the fault schedule.
//! * `--smoke` shrinks every scenario and defaults `--places` to `1,2`.
//! * Malformed flags are **usage errors**: a diagnostic on stderr and exit
//!   code 2 instead of a panic.
//! * Any invariant or determinism violation exits with code 1.

use priosched_bench::chaos::chaos_sweep;
use priosched_core::{panic_message, PoolKind};

const USAGE: &str = "usage: chaos seed=N [--smoke] [--kinds LIST] [--places LIST]";

#[derive(Debug)]
struct Args {
    seed: u64,
    smoke: bool,
    kinds: Vec<PoolKind>,
    places: Vec<usize>,
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let list: Vec<T> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|e| format!("{flag}: bad element {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err(format!("{flag}: expected at least one element"));
    }
    Ok(list)
}

impl Args {
    /// Parses the argument vector. `Ok(None)` means `--help` was asked
    /// for; `Err` carries a usage diagnostic (exit code 2 in `main`).
    fn parse(argv: &[String]) -> Result<Option<Args>, String> {
        // --smoke sets defaults wherever it appears, so an explicit
        // --places always wins regardless of order.
        let smoke = argv.iter().any(|a| a == "--smoke");
        let mut seed = None;
        let mut kinds = PoolKind::ALL.to_vec();
        let mut places = if smoke { vec![1, 2] } else { vec![1, 2, 4] };
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                args.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--smoke" => {}
                "--kinds" => kinds = parse_list("--kinds", take("--kinds")?)?,
                "--places" => places = parse_list("--places", take("--places")?)?,
                "--help" | "-h" => return Ok(None),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                raw => {
                    let digits = raw.strip_prefix("seed=").unwrap_or(raw);
                    let parsed = digits
                        .parse()
                        .map_err(|e| format!("bad seed {raw:?}: {e}"))?;
                    if seed.replace(parsed).is_some() {
                        return Err(format!("seed given twice ({raw:?})"));
                    }
                }
            }
        }
        if places.contains(&0) {
            return Err("--places: a cell needs at least one place".into());
        }
        let seed = seed.ok_or("missing seed (seed=N)")?;
        Ok(Some(Args {
            seed,
            smoke,
            kinds,
            places,
        }))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("chaos: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = args.seed;
    println!(
        "chaos: seed {seed}, {} kind(s) × places {:?}{}, every cell twice (same-seed \
         repeat must match); host: {} hardware thread(s)\n",
        args.kinds.len(),
        args.places,
        if args.smoke { ", smoke sizes" } else { "" },
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    // The harness panics on purpose: silence the hook for its bombs and keep
    // every other panic (a real invariant violation) loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !panic_message(info.payload()).starts_with("chaos bomb") {
            default_hook(info);
        }
    }));
    let sweep =
        std::panic::catch_unwind(|| chaos_sweep(seed, &args.kinds, &args.places, args.smoke));
    let Ok(reports) = sweep else {
        eprintln!("\nchaos: seed {seed} violated an invariant (see the panic above)");
        std::process::exit(1);
    };
    println!(
        "structure       P | chains    done  quar aborts pkill garb flood stall  sock✝ net done"
    );
    for r in &reports {
        let c = &r.counters;
        println!(
            "{:<14} {:>2} | {:>6} {:>7} {:>5} {:>6} {:>5} {:>4} {:>5} {:>4} {:>6} {:>8}",
            r.kind.label(),
            r.places,
            c.submitted,
            c.completed,
            c.quarantined,
            c.aborted_runs,
            c.producer_aborts,
            c.garbage_rejected,
            c.oversized_closed,
            c.deadline_reaped,
            c.killed_sockets,
            c.net_executed,
        );
    }
    println!(
        "\nall {} chaos cells held their invariants (seed {seed}, deterministic repeat verified)",
        reports.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv)
    }

    #[test]
    fn chaos_axis_parses_and_guards() {
        assert_eq!(parse("seed=7").unwrap().unwrap().seed, 7);
        // The bare-number spelling is accepted too.
        assert_eq!(parse("42").unwrap().unwrap().seed, 42);
        // Malformed, repeated and missing seeds are usage errors.
        for bad in ["seed=x", "seven", "seed=1 2", "", "--smoke"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        for bad in [
            "seed=1 --places two",
            "seed=1 --places 0",
            "seed=1 --places ,",
            "seed=1 --places",
            "seed=1 --kinds quantum",
            "seed=1 --no-such-flag",
            "seed=1 --out x.json",
        ] {
            assert!(!parse(bad).expect_err(bad).is_empty());
        }
    }

    #[test]
    fn kinds_filter_accepts_the_multiqueue_spellings() {
        let args = parse("seed=1 --kinds mq,work_stealing").unwrap().unwrap();
        assert_eq!(args.kinds, [PoolKind::MultiQueue, PoolKind::WorkStealing]);
        // The default sweep covers all five kinds.
        assert_eq!(parse("seed=1").unwrap().unwrap().kinds, PoolKind::ALL);
    }

    #[test]
    fn smoke_defaults_yield_to_explicit_flags() {
        let args = parse("seed=1 --smoke").unwrap().unwrap();
        assert!(args.smoke);
        assert_eq!(args.places, [1, 2]);
        let args = parse("--places 4 seed=1 --smoke").unwrap().unwrap();
        assert_eq!(args.places, [4], "explicit --places beats --smoke");
        assert_eq!(parse("seed=1").unwrap().unwrap().places, [1, 2, 4]);
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse("--help").unwrap().is_none());
        assert!(parse("-h").unwrap().is_none());
    }
}
