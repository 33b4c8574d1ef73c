//! Network round-trip acceptance: the TCP frontend must deliver exactly
//! the countdown oracle's executions, stay parked while idle, survive
//! protocol abuse, and shut down without aborting in-flight client work.
//!
//! These tests drive a real `Server` over loopback sockets — the same
//! code path as the `priosched-serve` binary, minus the CLI.

use priosched_core::PoolKind;
use priosched_net::{
    load_value, run_load, CountdownExec, LoadSpec, ServeSummary, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn server(kind: PoolKind, places: usize, lane_capacity: Option<usize>) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            kind,
            places,
            k: 32,
            lane_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

/// One client connection with line-by-line request/reply helpers.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        // One write per request, so Nagle cannot split the line from its
        // newline across a started-line read deadline.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    }
}

/// The headline round trip: N connections submit deterministic countdown
/// jobs (scalar and batched), JOIN reports exactly the oracle's execution
/// count, and the shutdown summary agrees — on every structure. At lane
/// capacity 1 each 5-job `BATCH` goes in 1-job chunks, so the actor parks
/// on full lanes between chunks and a worker drain has to wake it.
#[test]
fn load_round_trip_matches_oracle_on_all_structures() {
    for kind in PoolKind::ALL {
        for (batch, cap) in [(0usize, 16usize), (5, 16), (5, 1)] {
            let server = server(kind, 2, Some(cap));
            let spec = LoadSpec {
                conns: 3,
                per_conn: 25,
                k: 32,
                batch,
            };
            let report = run_load(server.local_addr(), &spec).expect("load run");
            assert_eq!(report.submitted, 75, "{kind} batch={batch} cap={cap}");
            assert!(
                report.verified(),
                "{kind} batch={batch} cap={cap}: DONE reported {} executions, oracle {}",
                report.executed,
                report.expected_executions
            );
            let summary = server.shutdown();
            assert_eq!(summary.accepted(), 75, "{kind} batch={batch} cap={cap}");
            assert_eq!(
                summary.run.executed, report.expected_executions,
                "{kind} batch={batch} cap={cap}: shutdown stats diverge from oracle"
            );
        }
    }
}

/// A quiescent server with idle connections spins **zero** idle-loop
/// iterations — workers parked, actors blocked in `read`, nothing
/// advancing the idle meter. A client that drops its socket without
/// `QUIT` after its `OK`s loses none of its jobs: `DONE` and the shutdown
/// summary count them.
#[test]
fn quiescent_server_with_idle_connections_makes_no_idle_iterations() {
    let server = server(PoolKind::Hybrid, 3, Some(64));
    let mut clients: Vec<Client> = (0..5).map(|_| Client::connect(&server)).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        assert_eq!(c.request(&format!("SUBMIT {i} 32 {i}")), "OK");
    }
    drop(clients.pop());
    assert_eq!(clients[0].request("JOIN"), "DONE 15");
    // The pool has drained; give the workers time to run down their
    // backoff and park, then the meter must freeze despite 4 open
    // connections.
    std::thread::sleep(Duration::from_millis(80));
    let parked_at = server.idle_iters();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        server.idle_iters(),
        parked_at,
        "idle connections must not keep the pool spinning"
    );
    // And the parked fleet must wake for the next submission.
    assert_eq!(clients[1].request("SUBMIT 2 32 2"), "OK");
    assert_eq!(clients[1].request("JOIN"), "DONE 18");
    drop(clients);
    let summary = server.shutdown();
    assert_eq!((summary.accepted(), summary.run.executed), (6, 18));
}

/// Protocol errors are per-request: a malformed line gets `ERR …` and the
/// connection keeps serving; stats and ping/quit behave as documented.
#[test]
fn protocol_errors_keep_the_connection_alive() {
    let server = server(PoolKind::WorkStealing, 2, None);
    let mut c = Client::connect(&server);
    assert_eq!(c.request("PING"), "PONG");
    assert!(c.request("FROBNICATE").starts_with("ERR "));
    assert!(c.request("SUBMIT 1 2").starts_with("ERR "));
    assert!(c.request("BATCH 8").starts_with("ERR "));
    assert_eq!(c.request("SUBMIT 1 32 4"), "OK", "still serving after ERR");
    assert_eq!(c.request("BATCH 32 1:1 2:2"), "OK 2");
    assert_eq!(
        c.request("STATS"),
        "STATS accepted=3 batch_items=2 joins=0 errors=3"
    );
    assert_eq!(c.request("QUIT"), "BYE");
    let summary = server.shutdown();
    assert_eq!(summary.accepted(), 3);
    assert_eq!(summary.connections[0].errors, 3);
}

/// A newline-less flood must not buffer unboundedly: past the line cap
/// the server replies `ERR` and closes the connection — other
/// connections are unaffected.
#[test]
fn oversized_request_line_is_rejected_and_closed() {
    let server = server(PoolKind::Hybrid, 2, Some(16));
    let mut well_behaved = Client::connect(&server);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // 80 KiB without a newline — beyond the 64 KiB cap.
    let flood = vec![b'A'; 80 * 1024];
    writer
        .write_all(&flood)
        .expect("flood accepted up to the cap");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("ERR reply");
    assert!(
        reply.starts_with("ERR request line exceeds"),
        "got {reply:?}"
    );
    reply.clear();
    // Closing with unread flood bytes may surface as EOF or as a reset
    // (RST) on the client side; both mean the connection is gone.
    match reader.read_line(&mut reply) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server must close the flooding connection, read {n} more bytes"),
    }
    // The flood never disturbed a normal connection.
    assert_eq!(well_behaved.request("SUBMIT 1 32 1"), "OK");
    assert_eq!(well_behaved.request("QUIT"), "BYE");
    server.shutdown();
}

/// The shutdown satellite: work a client submitted (and got `OK` for) is
/// **never** aborted by shutdown — even when the client never sends JOIN
/// or QUIT and its connection is still open at shutdown time.
#[test]
fn shutdown_drains_in_flight_work_instead_of_aborting() {
    let server = server(PoolKind::Centralized, 2, Some(8));
    let mut expected = 0u64;
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&server)).collect();
    for (ci, c) in clients.iter_mut().enumerate() {
        for i in 0..10 {
            let v = load_value(ci, i);
            expected += CountdownExec::expected_executions(v);
            assert_eq!(c.request(&format!("SUBMIT {v} 32 {v}")), "OK");
        }
    }
    // No JOIN, no QUIT: shutdown with live connections and queued chains.
    let ServeSummary {
        run,
        connections,
        failures,
    } = server.shutdown();
    assert_eq!(connections.len(), 3);
    assert!(failures.is_empty(), "healthy run: {failures:?}");
    assert_eq!(
        run.executed, expected,
        "graceful shutdown must drain accepted work to quiescence"
    );
    drop(clients);
}

/// Dropping the server takes the same graceful path as `shutdown()` —
/// the Drop-never-aborts fix, observable through the executor count
/// (which outlives the server).
#[test]
fn server_drop_is_graceful_too() {
    let server = server(PoolKind::Hybrid, 2, Some(8));
    let exec = server.executor();
    let mut c = Client::connect(&server);
    // 40 + 1 executions once drained; drop the server immediately after
    // acceptance — the whole chain must still run.
    assert_eq!(c.request("SUBMIT 40 32 40"), "OK");
    drop(server);
    assert_eq!(
        exec.executed(),
        41,
        "drop must drain the accepted chain, not abort it"
    );
}

/// Idle reaping: with `idle_timeout` set, a connection that goes silent
/// between requests is closed by the server on its own — no client
/// action, no shutdown — and the reap is housekeeping, not a failure.
#[test]
fn idle_connections_are_reaped_after_the_deadline() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            kind: PoolKind::Hybrid,
            places: 2,
            idle_timeout: Some(Duration::from_millis(60)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut c = Client::connect(&server);
    assert_eq!(c.request("SUBMIT 3 32 3"), "OK"); // activity, then silence
                                                  // The reaper closes the idle socket; the actor exits and announces
                                                  // the close — observable without polling.
    server.wait_connections_closed(1);
    let mut reply = String::new();
    match c.reader.read_line(&mut reply) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected reaped connection, read {n} bytes: {reply:?}"),
    }
    let summary = server.shutdown();
    assert!(summary.healthy(), "idle reap is not a failure: {summary:?}");
    assert_eq!(summary.run.executed, 4, "accepted work still drained");
    assert_eq!(summary.connections[0].errors, 0);
}

/// Read deadline: a half-open peer that sends part of a request and
/// stalls gets `ERR read deadline exceeded` and a disconnect — it cannot
/// pin an actor (and its producer handle) forever. A well-behaved
/// connection on the same server is untouched.
#[test]
fn half_open_request_hits_the_read_deadline() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            kind: PoolKind::WorkStealing,
            places: 2,
            read_timeout: Some(Duration::from_millis(60)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut ok = Client::connect(&server);
    assert_eq!(ok.request("PING"), "PONG");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    write!(writer, "SUBMIT 1 32").expect("partial line"); // no newline, then stall
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("deadline reply");
    assert_eq!(reply.trim_end(), "ERR read deadline exceeded");
    reply.clear();
    match reader.read_line(&mut reply) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("server must close the stalled connection, read {n} more bytes"),
    }
    // The stalled peer never disturbed the healthy connection.
    assert_eq!(ok.request("SUBMIT 1 32 1"), "OK");
    assert_eq!(ok.request("QUIT"), "BYE");
    let summary = server.shutdown();
    assert!(summary.failures.is_empty(), "{summary:?}");
    let errors: u64 = summary.connections.iter().map(|c| c.errors).sum();
    assert_eq!(errors, 1, "exactly the deadline error: {summary:?}");
}

/// The malformed-CLI satellite: the `priosched-serve` binary follows the
/// repo's usage-error convention — diagnostic on stderr, exit code 2, no
/// panic.
#[test]
fn serve_binary_rejects_malformed_flags_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_priosched-serve");
    for bad in [
        vec!["--kind", "quantum"],
        vec!["--places", "0"],
        vec!["--lane-cap", "-3"],
        vec!["--max-conns", "0"],
        vec!["--frobnicate"],
    ] {
        let out = std::process::Command::new(bin)
            .args(&bad)
            .output()
            .expect("run priosched-serve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad:?}: expected usage-error exit 2, got {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }
}

/// End-to-end through the real binary: spawn `priosched-serve` on an
/// ephemeral port with `--max-conns`, drive it with the load client,
/// verify the oracle, and let it exit by itself.
#[test]
fn serve_binary_round_trip_with_max_conns() {
    let bin = env!("CARGO_BIN_EXE_priosched-serve");
    let mut child = std::process::Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--places",
            "2",
            "--k",
            "32",
            "--lane-cap",
            "16",
            // 2 load connections + 1 JOIN control connection.
            "--max-conns",
            "3",
        ])
        .stdout(std::process::Stdio::piped())
        .stdin(std::process::Stdio::piped())
        .spawn()
        .expect("spawn priosched-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout);
    let mut first = String::new();
    lines.read_line(&mut first).expect("listening line");
    let addr: std::net::SocketAddr = first
        .trim_end()
        .strip_prefix("listening on ")
        .expect("listening prefix")
        .parse()
        .expect("printed address parses");
    let report = run_load(
        addr,
        &LoadSpec {
            conns: 2,
            per_conn: 20,
            k: 32,
            batch: 4,
        },
    )
    .expect("load against the binary");
    assert!(
        report.verified(),
        "binary round trip: {} executed vs oracle {}",
        report.executed,
        report.expected_executions
    );
    let status = child.wait().expect("serve exits after --max-conns");
    assert!(status.success(), "clean exit, got {status:?}");
}
