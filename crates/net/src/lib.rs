#![warn(missing_docs)]

//! TCP ingestion frontend over [`PoolService`]: the `priosched-serve`
//! network layer.
//!
//! This crate is the open-world scheduler's front door for remote
//! producers: a line-protocol TCP server whose connections feed a running
//! pool. Each accepted socket gets its **own connection actor** — a plain
//! function on its own thread, holding an [`IngestHandle`] minted from the
//! service's producer lineage. Dropping the handle on disconnect is the
//! connection's "no more input" signal, so the service's quiescence
//! protocol extends to the network unchanged.
//!
//! # Backpressure, end to end
//!
//! The actor reads **one request at a time** and does not read the next
//! line until the current submission was accepted by the lanes. When the
//! pool's bounded ingress lanes are full, the actor's blocking submit
//! parks its thread until a worker drain frees room: the actor stops
//! reading its socket, the kernel's TCP receive window fills,
//! and the *client's* sends stall — backpressure propagates to the wire
//! instead of buffering unboundedly in the server. A quiescent server with
//! idle connections burns no CPU: actors are blocked in `read`, pool
//! workers are parked ([`Server::idle_iters`] stops advancing — the same
//! guarantee as `PoolService::idle_iters`).
//!
//! # Protocol
//!
//! Newline-terminated ASCII requests, one reply line per request:
//!
//! | request | reply | meaning |
//! |---|---|---|
//! | `SUBMIT <prio> <k> <value>` | `OK` | enqueue one countdown job |
//! | `BATCH <k> <prio>:<value> …` | `OK <n>` | enqueue a batch (one lane, one lock) |
//! | `JOIN` | `DONE <executed>` | wait until the pool drained |
//! | `STATS` | `STATS accepted=… …` | this connection's counters |
//! | `PING` | `PONG` | liveness probe |
//! | `QUIT` | `BYE` | orderly goodbye (server closes) |
//!
//! Malformed requests get `ERR <reason>` and the connection stays open;
//! submissions rejected by a poisoned pool get `ERR aborted` /
//! `ERR shutdown`.
//!
//! A *job* is a countdown chain: value `v` executes and spawns `v-1`
//! (priority = value, smaller first) down to zero — `v + 1` executions per
//! submission. The chain gives every submission a deterministic execution
//! count, so a client can verify the server end-to-end:
//! `DONE <executed>` after quiescence must equal
//! `Σ (value_i + 1)` over everything accepted — the oracle the round-trip
//! tests and the benchmark's `net_pipeline` workload check.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (also run by `Drop`) is graceful by construction:
//! stop accepting (listener poked closed), shut the read half of every
//! live connection (actors finish their current request, reply, and exit,
//! dropping their producer handles), join the actors, then
//! [`PoolService::shutdown`] — which *drains to quiescence* rather than
//! aborting, so work accepted from a client is never discarded.
//!
//! # Deadlines and idle reaping
//!
//! All three connection deadlines on [`ServerConfig`] default to **off**
//! (`None`) — a server without them behaves exactly as before, with
//! actors blocked in `read` burning no CPU. When configured:
//!
//! - [`ServerConfig::read_timeout`] bounds how long a *started* request
//!   line may take to complete. A client that sends half a line and
//!   stalls is answered `ERR read deadline exceeded` and disconnected —
//!   a half-open or malicious peer cannot pin an actor (and its producer
//!   handle, and therefore quiescence) forever.
//! - [`ServerConfig::idle_timeout`] bounds the gap *between* requests:
//!   a connection with no bytes in flight for that long is quietly
//!   reaped (socket closed, actor exits, producer handle dropped).
//! - [`ServerConfig::write_timeout`] bounds each reply write; a stalled
//!   writer ends the connection via the ordinary write-error path.
//!
//! Deadline enforcement polls the socket with a short tick (a fraction
//! of the smallest configured deadline), preserving any partial line
//! already read across ticks — partial input is never dropped while the
//! deadline has not expired.
//!
//! # Fault containment
//!
//! A panicking connection actor must not take the server down with it:
//! the panic is caught *inside* the actor thread, the socket registry
//! entry is released, and the failure is recorded as a [`ConnFailure`]
//! in [`ServeSummary::failures`] instead of resuming the panic out of
//! [`Server::shutdown`]. The same goes for the accept loop. A task
//! panic inside the pool itself surfaces through the typed
//! [`PoolService::shutdown`] result; the server folds those stats (with
//! their `failed` count and [`priosched_core::FailureReport`]s) into
//! [`ServeSummary::run`] rather than poisoning shutdown.

use priosched_core::stats::PlaceCounter;
use priosched_core::{
    panic_message, IngestHandle, PoolBuilder, PoolKind, PoolService, RunStats, SpawnCtx,
    TaskExecutor,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The executor behind every served job: value `v` counts one execution
/// and spawns `v - 1`, so a submission of `v` contributes exactly `v + 1`
/// executions — the server's verifiable oracle.
pub struct CountdownExec {
    k: usize,
    executed: PlaceCounter,
}

impl CountdownExec {
    /// Creates the executor; spawned children carry relaxation bound `k`.
    pub fn new(k: usize) -> Self {
        CountdownExec {
            k,
            executed: PlaceCounter::new(),
        }
    }

    /// Jobs executed so far, across all connections (exact after a
    /// `join`: the `DONE` reply is computed behind one).
    pub fn executed(&self) -> u64 {
        self.executed.sum()
    }

    /// The oracle: executions a submission of `value` contributes.
    pub fn expected_executions(value: u64) -> u64 {
        value + 1
    }
}

impl TaskExecutor<u64> for CountdownExec {
    fn execute(&self, value: u64, ctx: &mut SpawnCtx<'_, u64>) {
        self.executed.add(ctx.place(), 1);
        if value > 0 {
            ctx.spawn(value - 1, self.k, value - 1);
        }
    }
}

/// One parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `SUBMIT <prio> <k> <value>`
    Submit {
        /// Priority key (smaller = higher).
        prio: u64,
        /// Relaxation bound for this job.
        k: usize,
        /// Countdown start value.
        value: u64,
    },
    /// `BATCH <k> <prio>:<value> …`
    Batch {
        /// Relaxation bound shared by the batch.
        k: usize,
        /// `(prio, value)` pairs, submitted through one lane.
        jobs: Vec<(u64, u64)>,
    },
    /// `JOIN` — wait for the pool to drain.
    Join,
    /// `STATS` — this connection's counters.
    Stats,
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — orderly goodbye.
    Quit,
}

/// Parses one protocol line (without its newline). `Err` is the reason
/// echoed back as `ERR <reason>`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_ascii_whitespace();
    let verb = words.next().ok_or("empty request")?;
    match verb {
        "SUBMIT" => {
            let mut num = |name: &str| -> Result<u64, String> {
                words
                    .next()
                    .ok_or(format!("SUBMIT missing {name}"))?
                    .parse()
                    .map_err(|_| format!("SUBMIT: bad {name}"))
            };
            let (prio, k, value) = (num("prio")?, num("k")?, num("value")?);
            if words.next().is_some() {
                return Err("SUBMIT: trailing garbage".into());
            }
            Ok(Request::Submit {
                prio,
                k: k as usize,
                value,
            })
        }
        "BATCH" => {
            let k: usize = words
                .next()
                .ok_or("BATCH missing k")?
                .parse()
                .map_err(|_| "BATCH: bad k".to_string())?;
            let mut jobs = Vec::new();
            for pair in words {
                let (p, v) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("BATCH: expected prio:value, got {pair:?}"))?;
                let prio = p
                    .parse()
                    .map_err(|_| format!("BATCH: bad prio in {pair:?}"))?;
                let value = v
                    .parse()
                    .map_err(|_| format!("BATCH: bad value in {pair:?}"))?;
                jobs.push((prio, value));
            }
            if jobs.is_empty() {
                return Err("BATCH: no jobs".into());
            }
            Ok(Request::Batch { k, jobs })
        }
        "JOIN" => Ok(Request::Join),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!("unknown verb {other:?}")),
    }
}

/// Per-connection counters, reported by `STATS` and aggregated into the
/// [`ServeSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Jobs accepted into the lanes (scalar + batch items).
    pub accepted: u64,
    /// Of those, jobs that arrived in `BATCH` requests.
    pub batch_items: u64,
    /// `JOIN` requests served.
    pub joins: u64,
    /// Malformed or rejected requests.
    pub errors: u64,
}

/// Construction parameters of a [`Server`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Scheduling structure backing the pool.
    pub kind: PoolKind,
    /// Worker threads (== ingress lanes).
    pub places: usize,
    /// Relaxation bound handed to pool construction.
    pub k: usize,
    /// Per-lane ingress capacity (`None` = unbounded). Bounded lanes are
    /// what make the actors' submits block — and the clients stall — under
    /// overload.
    pub lane_capacity: Option<usize>,
    /// Deadline for completing a request line once its first byte
    /// arrived (`None` = wait forever — the default). Exceeding it gets
    /// `ERR read deadline exceeded` and a disconnect.
    pub read_timeout: Option<Duration>,
    /// Deadline for each reply write (`None` = blocking writes — the
    /// default). A stalled writer ends the connection.
    pub write_timeout: Option<Duration>,
    /// Idle-connection reaper: a connection with no request bytes in
    /// flight for this long is quietly closed (`None` = never — the
    /// default).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            kind: PoolKind::Hybrid,
            places: 2,
            k: 64,
            lane_capacity: Some(256),
            read_timeout: None,
            write_timeout: None,
            idle_timeout: None,
        }
    }
}

/// A contained server-side failure: a connection actor (or the accept
/// loop) that panicked instead of exiting cleanly. Recorded in
/// [`ServeSummary::failures`] rather than resumed out of shutdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnFailure {
    /// Accept slot of the failed connection (`None` when the accept
    /// loop itself failed).
    pub slot: Option<usize>,
    /// The rendered panic message.
    pub message: String,
}

impl std::fmt::Display for ConnFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.slot {
            Some(slot) => write!(f, "connection {slot} failed: {}", self.message),
            None => write!(f, "accept loop failed: {}", self.message),
        }
    }
}

/// Aggregated outcome of one server lifetime.
#[derive(Debug)]
pub struct ServeSummary {
    /// The pool's run statistics (from [`PoolService::shutdown`]). A
    /// task panic under the pool's fault policy shows up here as
    /// `run.failed` / `run.failures` — shutdown itself stays graceful.
    pub run: RunStats,
    /// Per-connection counters, in accept order. Connections whose
    /// actor panicked are absent here and present in `failures`.
    pub connections: Vec<ConnStats>,
    /// Contained actor/accept-loop panics (empty on a healthy run).
    pub failures: Vec<ConnFailure>,
}

impl ServeSummary {
    /// Jobs accepted across all connections.
    pub fn accepted(&self) -> u64 {
        self.connections.iter().map(|c| c.accepted).sum()
    }

    /// `true` when nothing went wrong anywhere: no actor panics and no
    /// quarantined task failures in the pool.
    pub fn healthy(&self) -> bool {
        self.failures.is_empty() && self.run.failed == 0
    }
}

/// Coordination between [`Server`], its accept loop, and shutdown.
struct Ctl {
    stop: AtomicBool,
    /// Read halves of **live** connections by accept slot (entries are
    /// removed when the actor exits, so a long-lived server does not
    /// accumulate dead sockets), shut down at server shutdown so blocked
    /// actors see EOF and exit after their current request.
    conns: Mutex<std::collections::HashMap<usize, TcpStream>>,
    /// Connections fully served (actor exited); condvar for
    /// [`Server::wait_connections_closed`].
    closed: Mutex<usize>,
    closed_cv: Condvar,
}

impl Ctl {
    fn note_closed(&self) {
        let mut n = self.closed.lock().unwrap_or_else(|p| p.into_inner());
        *n += 1;
        self.closed_cv.notify_all();
    }
}

/// The `priosched-serve` TCP frontend: a bound listener, its accept loop,
/// and the [`PoolService`] the connections feed.
pub struct Server {
    addr: SocketAddr,
    service: Option<Arc<PoolService<u64>>>,
    exec: Arc<CountdownExec>,
    ctl: Arc<Ctl>,
    accept: Option<AcceptThread>,
    started: Instant,
}

/// One actor thread's outcome: its stats, or the rendered message of a
/// panic it contained (the catch happens *inside* the thread, after the
/// registry cleanup — joining an actor never re-raises).
type ActorOutcome = Result<ConnStats, String>;

/// The accept loop's thread. Returns the outcomes of connections already
/// reaped during the loop plus the still-live actor threads, both keyed
/// by accept slot so the final summary is in accept order.
type AcceptThread = std::thread::JoinHandle<(
    Vec<(usize, ActorOutcome)>,
    Vec<(usize, std::thread::JoinHandle<ActorOutcome>)>,
)>;

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and starts the pool workers plus the accept
    /// loop.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let exec = Arc::new(CountdownExec::new(config.k));
        let mut builder = PoolBuilder::new(config.kind)
            .places(config.places)
            .k(config.k);
        if let Some(cap) = config.lane_capacity {
            builder = builder.lane_capacity(cap);
        }
        let service: Arc<PoolService<u64>> = Arc::new(builder.service(Arc::clone(&exec)));
        let ctl = Arc::new(Ctl {
            stop: AtomicBool::new(false),
            conns: Mutex::new(std::collections::HashMap::new()),
            closed: Mutex::new(0),
            closed_cv: Condvar::new(),
        });
        let accept = {
            let service = Arc::clone(&service);
            let exec = Arc::clone(&exec);
            let ctl = Arc::clone(&ctl);
            std::thread::Builder::new()
                .name("priosched-accept".into())
                .spawn(move || accept_loop(listener, service, exec, ctl, config))
                .expect("failed to spawn accept thread")
        };
        Ok(Server {
            addr,
            service: Some(service),
            exec,
            ctl,
            accept: Some(accept),
            started: Instant::now(),
        })
    }

    /// The bound address (resolves port 0 to the chosen ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs executed so far across all connections.
    pub fn executed(&self) -> u64 {
        self.exec.executed()
    }

    /// The shared countdown executor (its count outlives the server —
    /// useful for asserting on work completed across a drop).
    pub fn executor(&self) -> Arc<CountdownExec> {
        Arc::clone(&self.exec)
    }

    /// Idle-loop iterations of the pool workers — the no-busy-wait meter.
    /// A quiescent server with idle connections must not advance this
    /// (workers parked, actors blocked in `read`).
    pub fn idle_iters(&self) -> u64 {
        self.service
            .as_ref()
            .expect("service present until shutdown")
            .idle_iters()
    }

    /// Blocks until at least `n` connections have been fully served
    /// (accepted *and* disconnected). Condvar-based — no polling.
    pub fn wait_connections_closed(&self, n: usize) {
        let mut closed = self.ctl.closed.lock().unwrap_or_else(|p| p.into_inner());
        while *closed < n {
            closed = self
                .ctl
                .closed_cv
                .wait(closed)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Graceful shutdown: close the listener, let every live connection
    /// finish its current request, join the actors, then drain the pool
    /// to quiescence ([`PoolService::shutdown`] — in-flight accepted work
    /// always completes). Returns the aggregated summary. Never panics on
    /// a failed actor or aborted pool: those are reported in
    /// [`ServeSummary::failures`] and [`ServeSummary::run`] instead.
    pub fn shutdown(mut self) -> ServeSummary {
        self.shutdown_impl()
            .expect("shutdown_impl runs once before drop")
    }

    fn shutdown_impl(&mut self) -> Option<ServeSummary> {
        let service = self.service.take()?;
        self.ctl.stop.store(true, Ordering::Release);
        // Poke the blocking accept() awake; it observes `stop` and exits.
        let _ = TcpStream::connect(self.addr);
        let mut failures: Vec<ConnFailure> = Vec::new();
        // Join the accept loop *before* closing connections: once it has
        // exited, the connection registry can no longer grow, so the close
        // sweep below cannot miss a just-accepted socket.
        let (mut reaped, live) = match self
            .accept
            .take()
            .expect("accept thread present until shutdown")
            .join()
        {
            Ok(collected) => collected,
            Err(payload) => {
                // Contained: no actor list to join, but the registry sweep
                // below still unblocks live actors (they clean up their own
                // registry entries as they exit).
                failures.push(ConnFailure {
                    slot: None,
                    message: panic_message(&*payload),
                });
                (Vec::new(), Vec::new())
            }
        };
        // Unblock actors waiting in read(): EOF ends their request loop
        // after the current request — accepted work is never cut short.
        for conn in self
            .ctl
            .conns
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for (slot, actor) in live {
            let outcome = actor
                .join()
                .unwrap_or_else(|payload| Err(panic_message(&*payload)));
            reaped.push((slot, outcome));
        }
        reaped.sort_by_key(|&(slot, _)| slot);
        let mut connections = Vec::new();
        for (slot, outcome) in reaped {
            match outcome {
                Ok(stats) => connections.push(stats),
                Err(message) => failures.push(ConnFailure {
                    slot: Some(slot),
                    message,
                }),
            }
        }
        // Every actor has exited and dropped its producer handle; the only
        // remaining Arc is ours, and PoolService::shutdown drains to
        // quiescence instead of aborting. A pool-level abort (task panic
        // under `FaultPolicy::AbortRun`) surfaces as the typed error whose
        // stats — including the failure reports — we fold into the summary
        // rather than letting it poison shutdown.
        let service = Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("connection actors must not outlive the accept loop"));
        let mut run = match service.shutdown() {
            Ok(run) => run,
            Err(err) => err.stats,
        };
        run.elapsed = self.started.elapsed();
        Some(ServeSummary {
            run,
            connections,
            failures,
        })
    }
}

impl Drop for Server {
    /// Dropping a server is the same graceful path as
    /// [`Server::shutdown`]: never an abortive [`PoolService`] drop, so
    /// accepted client work is never discarded.
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

/// Accepts connections until told to stop; one actor thread per socket.
///
/// Finished actors are reaped opportunistically on every accept (their
/// join is instantaneous), so a long-lived server's footprint is bounded
/// by its *concurrent* connections, not by every connection ever served;
/// still-live actors are returned for [`Server::shutdown`] to join after
/// closing their sockets (the accept loop itself never blocks on them).
#[allow(clippy::type_complexity)]
fn accept_loop(
    listener: TcpListener,
    service: Arc<PoolService<u64>>,
    exec: Arc<CountdownExec>,
    ctl: Arc<Ctl>,
    config: ServerConfig,
) -> (
    Vec<(usize, ActorOutcome)>,
    Vec<(usize, std::thread::JoinHandle<ActorOutcome>)>,
) {
    let mut live: Vec<(usize, std::thread::JoinHandle<ActorOutcome>)> = Vec::new();
    let mut reaped: Vec<(usize, ActorOutcome)> = Vec::new();
    let mut next_slot = 0usize;
    for stream in listener.incoming() {
        // Reap exited actors: thread stacks are released at join time,
        // not at thread exit.
        let mut i = 0;
        while i < live.len() {
            if live[i].1.is_finished() {
                let (slot, actor) = live.swap_remove(i);
                let outcome = actor
                    .join()
                    .unwrap_or_else(|payload| Err(panic_message(&*payload)));
                reaped.push((slot, outcome));
            } else {
                i += 1;
            }
        }
        if ctl.stop.load(Ordering::Acquire) {
            break; // the shutdown poke (or a raced real client) ends us
        }
        let Ok(stream) = stream else { continue };
        // Request/reply line protocol: Nagle's algorithm would add a
        // delayed-ACK round trip to every one-line reply.
        let _ = stream.set_nodelay(true);
        let slot = next_slot;
        next_slot += 1;
        if let Ok(clone) = stream.try_clone() {
            ctl.conns
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(slot, clone);
        }
        // The connection's producer identity: one ingest handle per accept,
        // dropped when the actor exits (its "no more input" signal).
        let handle = service.ingest_handle();
        let svc = Arc::clone(&service);
        let exec = Arc::clone(&exec);
        let ctl2 = Arc::clone(&ctl);
        live.push((
            slot,
            std::thread::Builder::new()
                .name("priosched-conn".into())
                .spawn(move || {
                    // Contain actor panics *inside* the thread: the
                    // registry entry is released and the close is
                    // announced even on a panic, so a failed connection
                    // can neither leak its socket nor wedge
                    // `wait_connections_closed` — and joining the thread
                    // never re-raises.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        connection_actor(stream, handle, &svc, &exec, config)
                    }))
                    .map_err(|payload| panic_message(&*payload));
                    // Release the registry entry (long-lived servers must
                    // not accumulate dead sockets), then announce.
                    ctl2.conns
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .remove(&slot);
                    ctl2.note_closed();
                    outcome
                })
                .expect("failed to spawn connection actor thread"),
        ));
    }
    (reaped, live)
}

/// One connection's actor: parse a request, submit it through the
/// connection's ingest handle, reply, repeat until EOF/`QUIT`. Runs on its
/// own thread; a submit into full lanes parks the thread (and stops socket
/// reads — wire backpressure).
fn connection_actor(
    stream: TcpStream,
    mut handle: IngestHandle<u64>,
    service: &PoolService<u64>,
    exec: &CountdownExec,
    config: ServerConfig,
) -> ConnStats {
    /// Longest accepted request line. The no-unbounded-buffering promise
    /// must hold against a single newline-less flood too: past this, the
    /// connection is answered with `ERR` and closed (no way to resync).
    const MAX_LINE_BYTES: u64 = 64 * 1024;
    let mut stats = ConnStats::default();
    let _ = stream.set_write_timeout(config.write_timeout);
    // Deadlines poll with a short socket timeout instead of blocking
    // forever in read(); with none configured the read stays fully
    // blocking — zero CPU while idle, exactly as before.
    let deadlines_on = config.read_timeout.is_some() || config.idle_timeout.is_some();
    if deadlines_on {
        let _ = stream.set_read_timeout(Some(deadline_tick(&config)));
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return stats,
    };
    let mut reader = std::io::Read::take(BufReader::new(stream), MAX_LINE_BYTES);
    let mut line = String::new();
    let mut last_activity = Instant::now();
    loop {
        line.clear();
        reader.set_limit(MAX_LINE_BYTES);
        // How one request line's read ended.
        enum ReadEnd {
            /// A line (or the unterminated tail before EOF) arrived.
            Line,
            /// EOF or connection reset.
            Eof,
            /// A started line outlived `read_timeout`.
            Deadline,
            /// No request bytes for `idle_timeout` — reap quietly.
            Idle,
        }
        let mut line_started: Option<Instant> = None;
        let end = loop {
            match reader.read_line(&mut line) {
                Ok(0) => break ReadEnd::Eof,
                Ok(_) => break ReadEnd::Line,
                Err(e)
                    if deadlines_on
                        && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    // Deadline tick. Partial bytes already read stay in
                    // `line` across ticks (valid ASCII survives an errored
                    // `read_line`) — only the clock advances here.
                    let now = Instant::now();
                    if !line.is_empty() {
                        let started = *line_started.get_or_insert(now);
                        if let Some(limit) = config.read_timeout {
                            if now.duration_since(started) >= limit {
                                break ReadEnd::Deadline;
                            }
                        }
                    } else if let Some(limit) = config.idle_timeout {
                        if now.duration_since(last_activity) >= limit {
                            break ReadEnd::Idle;
                        }
                    }
                }
                Err(_) => break ReadEnd::Eof, // connection reset
            }
        };
        match end {
            ReadEnd::Line => last_activity = Instant::now(),
            ReadEnd::Eof | ReadEnd::Idle => break,
            ReadEnd::Deadline => {
                stats.errors += 1;
                let _ = writeln!(writer, "ERR read deadline exceeded");
                break;
            }
        }
        if !line.ends_with('\n') && reader.limit() == 0 {
            stats.errors += 1;
            let _ = writeln!(writer, "ERR request line exceeds {MAX_LINE_BYTES} bytes");
            break;
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let reply = match parse_request(trimmed) {
            Err(reason) => {
                stats.errors += 1;
                format!("ERR {reason}")
            }
            Ok(Request::Submit { prio, k, value }) => match handle.submit(prio, k, value) {
                Ok(()) => {
                    stats.accepted += 1;
                    "OK".to_string()
                }
                Err(e) => {
                    stats.errors += 1;
                    submit_error_reply(e.kind())
                }
            },
            Ok(Request::Batch { k, mut jobs }) => {
                let n = jobs.len() as u64;
                match handle.submit_batch(k, &mut jobs) {
                    Ok(()) => {
                        stats.accepted += n;
                        stats.batch_items += n;
                        format!("OK {n}")
                    }
                    Err(e) => {
                        // Partial acceptance: whatever is no longer in
                        // `jobs` made it into the lanes before the abort.
                        let taken = n - jobs.len() as u64;
                        stats.accepted += taken;
                        stats.batch_items += taken;
                        stats.errors += 1;
                        submit_error_reply(e)
                    }
                }
            }
            Ok(Request::Join) => {
                stats.joins += 1;
                match service.join() {
                    Ok(()) => format!("DONE {}", exec.executed()),
                    Err(_aborted) => {
                        stats.errors += 1;
                        "ERR aborted".to_string()
                    }
                }
            }
            Ok(Request::Stats) => format!(
                "STATS accepted={} batch_items={} joins={} errors={}",
                stats.accepted, stats.batch_items, stats.joins, stats.errors
            ),
            Ok(Request::Ping) => "PONG".to_string(),
            Ok(Request::Quit) => {
                let _ = writeln!(writer, "BYE");
                break;
            }
        };
        if writeln!(writer, "{reply}").is_err() {
            break; // client gone; stop serving
        }
    }
    stats
}

/// Poll granularity for deadline enforcement: a quarter of the smallest
/// configured deadline, clamped to [2ms, 100ms] — prompt detection
/// without a hot spin.
fn deadline_tick(config: &ServerConfig) -> Duration {
    let smallest = [config.read_timeout, config.idle_timeout]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Duration::from_millis(400));
    (smallest / 4).clamp(Duration::from_millis(2), Duration::from_millis(100))
}

/// Maps a payload-free [`priosched_core::SubmitError`] to its `ERR` line.
fn submit_error_reply(e: priosched_core::SubmitError) -> String {
    match e {
        priosched_core::SubmitError::Full(()) => "ERR full".to_string(),
        priosched_core::SubmitError::Aborted(()) => "ERR aborted".to_string(),
        priosched_core::SubmitError::ShutDown(()) => "ERR shutdown".to_string(),
    }
}

/// Load-generator parameters for [`run_load`].
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Concurrent client connections.
    pub conns: usize,
    /// Submissions per connection.
    pub per_conn: usize,
    /// Relaxation bound sent with every job.
    pub k: usize,
    /// Jobs per `BATCH` request (`0` = scalar `SUBMIT`s).
    pub batch: usize,
}

/// Outcome of one [`run_load`] drive, verified against the countdown
/// oracle.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Jobs the clients submitted (all accepted).
    pub submitted: u64,
    /// Executions the countdown oracle predicts for them.
    pub expected_executions: u64,
    /// Executions the server reported at `DONE`.
    pub executed: u64,
    /// Requests re-sent after an `ERR full` rejection (bounded
    /// exponential backoff; zero on an un-contended run).
    pub retries: u64,
    /// Wall-clock time from first connect to `DONE`.
    pub elapsed: Duration,
}

impl LoadReport {
    /// `true` when the server's execution count matches the oracle.
    pub fn verified(&self) -> bool {
        self.executed == self.expected_executions
    }
}

/// Deterministic job value for connection `conn`, submission `i` —
/// clients and tests share the oracle through this function.
pub fn load_value(conn: usize, i: usize) -> u64 {
    ((conn as u64 + 1) * 7 + i as u64 * 13) % 23
}

/// Drives `spec.conns` client connections against a server at `addr`,
/// each submitting `spec.per_conn` deterministic countdown jobs, then
/// `JOIN`s and checks the reported execution count against the oracle.
/// Expects a *fresh* server (the oracle counts from zero).
///
/// # Errors
/// I/O errors connecting or talking to the server, or a protocol reply
/// that is not the expected `OK`/`DONE` shape.
pub fn run_load(addr: SocketAddr, spec: &LoadSpec) -> std::io::Result<LoadReport> {
    use std::io::{Error, ErrorKind};
    let start = Instant::now();
    let mut expected = 0u64;
    let mut submitted = 0u64;
    for conn in 0..spec.conns {
        for i in 0..spec.per_conn {
            expected += CountdownExec::expected_executions(load_value(conn, i));
            submitted += 1;
        }
    }
    let workers: Vec<_> = (0..spec.conns)
        .map(|conn| {
            let spec = *spec;
            std::thread::spawn(move || -> std::io::Result<u64> {
                /// Re-send attempts after `ERR full` before giving up.
                const MAX_RETRIES: u32 = 8;
                const BACKOFF_CAP: Duration = Duration::from_millis(64);
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                let mut writer = stream.try_clone()?;
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                let mut retries = 0u64;
                // Sends `request`, expecting a `prefix` reply. With
                // `retry_full`, an `ERR full` rejection (lanes saturated
                // on a server not configured to pend) is re-sent with
                // bounded exponential backoff instead of failing the whole
                // run. Only scalar `SUBMIT`s opt in: a rejected `BATCH`
                // may have been *partially* accepted, so a blind re-send
                // would double-submit.
                let mut request = |writer: &mut TcpStream,
                                   reader: &mut BufReader<TcpStream>,
                                   retries: &mut u64,
                                   request: &str,
                                   prefix: &str,
                                   retry_full: bool|
                 -> std::io::Result<()> {
                    let mut backoff = Duration::from_millis(1);
                    let mut attempts = 0u32;
                    loop {
                        writeln!(writer, "{request}")?;
                        reply.clear();
                        reader.read_line(&mut reply)?;
                        let got = reply.trim_end();
                        if got.starts_with(prefix) {
                            return Ok(());
                        }
                        if retry_full && got == "ERR full" && attempts < MAX_RETRIES {
                            attempts += 1;
                            *retries += 1;
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(BACKOFF_CAP);
                            continue;
                        }
                        return Err(Error::new(
                            ErrorKind::InvalidData,
                            format!("expected {prefix}, got {reply:?}"),
                        ));
                    }
                };
                if spec.batch == 0 {
                    for i in 0..spec.per_conn {
                        let v = load_value(conn, i);
                        let line = format!("SUBMIT {v} {} {v}", spec.k);
                        request(&mut writer, &mut reader, &mut retries, &line, "OK", true)?;
                    }
                } else {
                    let mut i = 0;
                    while i < spec.per_conn {
                        let n = spec.batch.min(spec.per_conn - i);
                        let pairs: Vec<String> = (i..i + n)
                            .map(|j| {
                                let v = load_value(conn, j);
                                format!("{v}:{v}")
                            })
                            .collect();
                        let line = format!("BATCH {} {}", spec.k, pairs.join(" "));
                        request(&mut writer, &mut reader, &mut retries, &line, "OK", false)?;
                        i += n;
                    }
                }
                request(&mut writer, &mut reader, &mut retries, "QUIT", "BYE", false)?;
                Ok(retries)
            })
        })
        .collect();
    let mut retries = 0u64;
    for w in workers {
        retries += w.join().expect("load client thread must not panic")?;
    }
    // All submissions accepted; one control connection awaits the drain.
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "JOIN")?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    let executed = reply
        .trim_end()
        .strip_prefix("DONE ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidData,
                format!("expected DONE <n>, got {reply:?}"),
            )
        })?;
    writeln!(writer, "QUIT")?;
    Ok(LoadReport {
        submitted,
        expected_executions: expected,
        executed,
        retries,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_protocol() {
        assert_eq!(
            parse_request("SUBMIT 3 64 9"),
            Ok(Request::Submit {
                prio: 3,
                k: 64,
                value: 9
            })
        );
        assert_eq!(
            parse_request("BATCH 8 1:2 3:4"),
            Ok(Request::Batch {
                k: 8,
                jobs: vec![(1, 2), (3, 4)]
            })
        );
        assert_eq!(parse_request("JOIN"), Ok(Request::Join));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "NOPE",
            "SUBMIT",
            "SUBMIT 1",
            "SUBMIT 1 2",
            "SUBMIT 1 2 x",
            "SUBMIT 1 2 3 4",
            "SUBMIT x y z",
            "JOINT 3",
            "BATCH",
            "BATCH 8",
            "BATCH 8 1-2",
            "BATCH 8 a:2",
            "BATCH 8 1:b",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn countdown_oracle_counts_chain_lengths() {
        assert_eq!(CountdownExec::expected_executions(0), 1);
        assert_eq!(CountdownExec::expected_executions(5), 6);
    }

    #[test]
    fn load_values_are_deterministic_and_bounded() {
        assert_eq!(load_value(0, 0), load_value(0, 0));
        for conn in 0..4 {
            for i in 0..50 {
                assert!(load_value(conn, i) < 23);
            }
        }
    }
}
