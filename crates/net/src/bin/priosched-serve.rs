//! priosched-serve — the TCP ingestion frontend binary.
//!
//! Binds a listener, starts a [`priosched_net::Server`] (a `PoolService`
//! with one connection actor per accepted socket), and serves the line
//! protocol until either `--max-conns` connections have come and gone or
//! stdin reaches EOF — both end in the *graceful* shutdown path (listener
//! closed, actors drained, `PoolService::shutdown` waits for quiescence),
//! so in-flight client work is never aborted.
//!
//! ```text
//! priosched-serve [--addr HOST:PORT] [--kind KIND] [--places N] [--k N]
//!                 [--lane-cap N (0 = unbounded)] [--max-conns N]
//! ```
//!
//! * `--addr 127.0.0.1:0` picks an ephemeral port; the chosen address is
//!   printed as `listening on <addr>` (and flushed) so harnesses can
//!   connect.
//! * `--max-conns N` shuts down after `N` connections were served
//!   (condvar-gated — no polling); without it the server runs until its
//!   stdin closes.
//! * Malformed flags are **usage errors**: a diagnostic on stderr and
//!   exit code 2, never a panic — the same convention as the `figs`
//!   binary.

use priosched_core::PoolKind;
use priosched_net::{Server, ServerConfig};
use std::io::{Read, Write};

/// The usage line; the `--kind` choices are every [`PoolKind::id`].
fn usage() -> String {
    let kinds: Vec<&str> = PoolKind::ALL.iter().map(|kind| kind.id()).collect();
    format!(
        "usage: priosched-serve [--addr HOST:PORT] [--kind {}] [--places N] \
         [--k N] [--lane-cap N (0 = unbounded)] [--max-conns N]",
        kinds.join("|")
    )
}

#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    config: ServerConfig,
    /// Shut down after this many connections were served (`None`: run
    /// until stdin EOF).
    max_conns: Option<usize>,
}

impl Args {
    /// Parses the argument vector. `Ok(None)` means `--help`; `Err`
    /// carries a usage diagnostic (exit code 2 in `main`).
    fn parse(argv: &[String]) -> Result<Option<Args>, String> {
        let mut args = Args {
            addr: "127.0.0.1:7411".to_string(),
            config: ServerConfig::default(),
            max_conns: None,
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--addr" => args.addr = take("--addr")?.clone(),
                "--kind" => {
                    args.config.kind = take("--kind")?
                        .parse()
                        .map_err(|e| format!("--kind: {e}"))?
                }
                "--places" => {
                    args.config.places = take("--places")?
                        .parse()
                        .map_err(|e| format!("--places: {e}"))?;
                    if args.config.places == 0 {
                        return Err("--places must be positive".into());
                    }
                }
                "--k" => {
                    args.config.k = take("--k")?.parse().map_err(|e| format!("--k: {e}"))?;
                }
                "--lane-cap" => {
                    let cap: usize = take("--lane-cap")?
                        .parse()
                        .map_err(|e| format!("--lane-cap: {e}"))?;
                    args.config.lane_capacity = if cap == 0 { None } else { Some(cap) };
                }
                "--max-conns" => {
                    let n: usize = take("--max-conns")?
                        .parse()
                        .map_err(|e| format!("--max-conns: {e}"))?;
                    if n == 0 {
                        return Err("--max-conns must be positive".into());
                    }
                    args.max_conns = Some(n);
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Some(args))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("priosched-serve: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let server = match Server::bind(&args.addr, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("priosched-serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    println!(
        "pool: {} × {} place(s), k = {}, lane capacity {}",
        args.config.kind,
        args.config.places,
        args.config.k,
        args.config
            .lane_capacity
            .map_or("∞".to_string(), |c| c.to_string()),
    );
    std::io::stdout().flush().expect("stdout must be writable");

    match args.max_conns {
        Some(n) => server.wait_connections_closed(n),
        None => {
            // Run until our stdin closes (pipelines end us cleanly; an
            // interactive shell can ^D). Blocking read — no poll loop.
            let mut sink = Vec::new();
            let _ = std::io::stdin().read_to_end(&mut sink);
        }
    }

    let summary = server.shutdown();
    for (i, conn) in summary.connections.iter().enumerate() {
        println!(
            "conn {i}: accepted {} ({} batched), joins {}, errors {}",
            conn.accepted, conn.batch_items, conn.joins, conn.errors
        );
    }
    println!(
        "served {} connection(s), accepted {} job(s), executed {} task(s) in {:.2?}",
        summary.connections.len(),
        summary.accepted(),
        summary.run.executed,
        summary.run.elapsed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let args = Args::parse(&argv(&[])).unwrap().unwrap();
        assert_eq!(args.addr, "127.0.0.1:7411");
        assert!(args.max_conns.is_none());
        let args = Args::parse(&argv(&[
            "--addr",
            "0.0.0.0:0",
            "--kind",
            "centralized",
            "--places",
            "4",
            "--k",
            "128",
            "--lane-cap",
            "0",
            "--max-conns",
            "3",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(args.addr, "0.0.0.0:0");
        assert_eq!(args.config.kind, PoolKind::Centralized);
        assert_eq!(args.config.places, 4);
        assert_eq!(args.config.k, 128);
        assert_eq!(args.config.lane_capacity, None, "0 spells unbounded");
        assert_eq!(args.max_conns, Some(3));
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        for bad in [
            vec!["--kind", "quantum"],
            vec!["--kind"],
            vec!["--places", "zero"],
            vec!["--places", "0"],
            vec!["--k", "many"],
            vec!["--lane-cap", "-1"],
            vec!["--max-conns", "0"],
            vec!["--max-conns", "x"],
            vec!["--no-such-flag"],
        ] {
            let err = Args::parse(&argv(&bad)).expect_err(&format!("{bad:?} must be rejected"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn usage_lists_every_kind_and_each_parses() {
        let usage = usage();
        for kind in PoolKind::ALL {
            let id = kind.id();
            assert!(usage.contains(id), "{id} missing from {usage:?}");
            let args = Args::parse(&argv(&["--kind", id])).unwrap().unwrap();
            assert_eq!(args.config.kind, kind);
        }
    }

    #[test]
    fn help_short_circuits() {
        assert!(Args::parse(&argv(&["--help"])).unwrap().is_none());
        assert!(Args::parse(&argv(&["-h"])).unwrap().is_none());
    }
}
