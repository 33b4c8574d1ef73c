//! Deterministic chaos-injection harness (driven by the `chaos` binary).
//!
//! Every fault the scheduler claims to tolerate is injected here on
//! purpose, from a seed, and checked against an exact failure-aware
//! oracle — across all five [`PoolKind`]s:
//!
//! 1. **Task panics** (`scenario_isolate`, `scenario_abort`): the
//!    chaos executor panics on seeded "bomb" values *before* spawning
//!    children, so the survivor set is a pure function of the submitted
//!    values — no matter how the places interleave. Under
//!    `FaultPolicy::Isolate` the run must finish with
//!    `executed == oracle` and `failed == bombed chains`, exactly; under
//!    `AbortRun` the join must report the (single) bomb as a typed error.
//! 2. **Mid-run producer aborts** (`scenario_producer_aborts`):
//!    producers die at seeded cutoffs (their handles drop early); the
//!    pool must still reach quiescence having executed exactly the
//!    chains submitted before each death.
//! 3. **Oversized / garbage protocol lines and killed sockets**
//!    (`scenario_net`): clients interleave seeded garbage with valid
//!    submissions, flood a newline-less line past the cap, stall
//!    half-open requests into the read deadline, and disconnect without
//!    `QUIT`; the server must answer every garbage line with `ERR`,
//!    close the abusers, keep every accepted job, and shut down with an
//!    empty failure list.
//!
//! Each scenario also asserts the quiescence meter: once drained,
//! `idle_iters` must freeze (workers parked, nothing spinning).
//!
//! Determinism is the harness's backbone: [`run_cell`] with the same
//! seed produces identical [`ChaosCounters`], and [`chaos_sweep`] runs
//! every cell **twice** to prove it. Nondeterministic quantities (how
//! far an aborting run got, how many submits raced the abort flag) are
//! deliberately not counted.

use priosched_core::{FaultPolicy, PoolBuilder, PoolKind, PoolService, SpawnCtx, TaskExecutor};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64: tiny, seedable, and good enough to scatter bombs —
/// the harness needs reproducibility, not statistical quality.
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Creates a generator for `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Failure-mode counters of one chaos cell (or a whole sweep, summed).
/// Every field is deterministic in the seed — [`chaos_sweep`] asserts
/// bit-identical counters on a same-seed repeat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Countdown chains submitted into pools (scenarios 1–2).
    pub submitted: u64,
    /// Tasks executed to completion in the Isolate and producer-abort
    /// scenarios (abort-run progress is nondeterministic and excluded).
    pub completed: u64,
    /// Tasks quarantined by `FaultPolicy::Isolate` (bombed chains).
    pub quarantined: u64,
    /// Runs aborted by a bomb under `FaultPolicy::AbortRun` (each must
    /// report its failure exactly once through `join` and `shutdown`).
    pub aborted_runs: u64,
    /// Producers killed mid-run at a seeded cutoff.
    pub producer_aborts: u64,
    /// Submissions those dead producers never made (planned − sent).
    pub unsent: u64,
    /// Garbage protocol lines answered with `ERR`.
    pub garbage_rejected: u64,
    /// Connections closed for flooding a newline-less oversized line.
    pub oversized_closed: u64,
    /// Connections closed for stalling a started request past the read
    /// deadline.
    pub deadline_reaped: u64,
    /// Sockets killed without `QUIT` (abrupt client death).
    pub killed_sockets: u64,
    /// Jobs the net scenario's clients got `OK` for.
    pub net_accepted: u64,
    /// Executions the server reported at `DONE` (must equal the
    /// countdown oracle over `net_accepted`).
    pub net_executed: u64,
}

impl ChaosCounters {
    /// Sums another cell's counters into this one.
    pub fn absorb(&mut self, other: &ChaosCounters) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.quarantined += other.quarantined;
        self.aborted_runs += other.aborted_runs;
        self.producer_aborts += other.producer_aborts;
        self.unsent += other.unsent;
        self.garbage_rejected += other.garbage_rejected;
        self.oversized_closed += other.oversized_closed;
        self.deadline_reaped += other.deadline_reaped;
        self.killed_sockets += other.killed_sockets;
        self.net_accepted += other.net_accepted;
        self.net_executed += other.net_executed;
    }
}

/// One chaos cell's outcome.
#[derive(Clone, Copy, Debug)]
pub struct ChaosReport {
    /// Scheduling structure the cell ran on.
    pub kind: PoolKind,
    /// Worker places.
    pub places: usize,
    /// The deterministic failure-mode counters.
    pub counters: ChaosCounters,
}

/// The chaos executor: a countdown chain (value `v` spawns `v - 1`)
/// that panics on bomb values **before** counting or spawning — so a
/// chain from `v` deterministically executes down to just above the
/// largest bomb `≤ v`, then dies, regardless of scheduling.
struct BombExec {
    k: usize,
    executed: AtomicU64,
    /// Sorted ascending.
    bombs: Vec<u64>,
}

impl BombExec {
    fn new(k: usize, mut bombs: Vec<u64>) -> Self {
        bombs.sort_unstable();
        bombs.dedup();
        BombExec {
            k,
            executed: AtomicU64::new(0),
            bombs,
        }
    }

    /// The failure-aware oracle: `(completed, failed)` contributed by a
    /// chain submitted with `value`.
    fn oracle(bombs: &[u64], value: u64) -> (u64, u64) {
        match bombs.iter().rev().find(|&&b| b <= value) {
            // The chain runs value, value-1, …, b+1 (that's value - b
            // tasks), then the bomb task dies unexecuted.
            Some(&b) => (value - b, 1),
            None => (value + 1, 0),
        }
    }
}

impl TaskExecutor<u64> for BombExec {
    fn execute(&self, value: u64, ctx: &mut SpawnCtx<'_, u64>) {
        if self.bombs.binary_search(&value).is_ok() {
            panic!("chaos bomb {value}");
        }
        self.executed.fetch_add(1, Ordering::AcqRel);
        if value > 0 {
            ctx.spawn(value - 1, self.k, value - 1);
        }
    }
}

/// Asserts the quiescence meter: a drained service must freeze
/// `idle_iters` (workers parked, no busy-wait). Workers run down a
/// short idle backoff before parking, so let them settle first.
fn assert_idle_frozen(svc: &PoolService<u64>, what: &str) {
    std::thread::sleep(Duration::from_millis(80));
    let parked_at = svc.idle_iters();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(
        svc.idle_iters(),
        parked_at,
        "{what}: quiescent pool must not spin its idle loop"
    );
}

/// Scenario 1a: seeded bombs under `FaultPolicy::Isolate`. The run must
/// *finish* — quiescence with exact, failure-aware accounting — while
/// sibling chains keep executing past every quarantined panic.
fn scenario_isolate(
    rng: &mut ChaosRng,
    kind: PoolKind,
    places: usize,
    smoke: bool,
) -> ChaosCounters {
    let (producers, per_producer, max_value) = if smoke { (2, 8, 24) } else { (3, 24, 48) };
    let bombs: Vec<u64> = (0..2).map(|_| 1 + rng.below(max_value - 1)).collect();
    let values: Vec<Vec<u64>> = (0..producers)
        .map(|_| (0..per_producer).map(|_| rng.below(max_value)).collect())
        .collect();
    let exec = Arc::new(BombExec::new(8, bombs.clone()));
    let svc: PoolService<u64> = PoolBuilder::new(kind)
        .places(places)
        .k(8)
        .lane_capacity(16)
        .fault_policy(FaultPolicy::Isolate)
        .service(Arc::clone(&exec));
    std::thread::scope(|s| {
        for vals in &values {
            let mut handle = svc.ingest_handle();
            s.spawn(move || {
                for &v in vals {
                    handle
                        .submit(v, 8, v)
                        .expect("Isolate never aborts the lanes");
                }
            });
        }
    });
    svc.join().expect("Isolate must quarantine, not abort");
    assert_idle_frozen(&svc, "isolate scenario");
    let (mut want_completed, mut want_failed) = (0u64, 0u64);
    for v in values.iter().flatten() {
        let (c, f) = BombExec::oracle(&exec.bombs, *v);
        want_completed += c;
        want_failed += f;
    }
    let stats = svc.shutdown().expect("Isolate shutdown is clean");
    assert_eq!(
        stats.executed, want_completed,
        "{kind}/p{places}: isolate survivors diverge from the oracle"
    );
    assert_eq!(
        stats.failed, want_failed,
        "{kind}/p{places}: quarantine count diverges from the oracle"
    );
    assert_eq!(
        stats.failures.len() as u64,
        want_failed,
        "one report per bomb"
    );
    for failure in &stats.failures {
        assert!(
            exec.bombs.binary_search(&failure.prio).is_ok(),
            "{kind}/p{places}: failure at non-bomb prio {}",
            failure.prio
        );
        assert_eq!(failure.message, format!("chaos bomb {}", failure.prio));
    }
    ChaosCounters {
        submitted: (producers * per_producer) as u64,
        completed: stats.executed,
        quarantined: stats.failed,
        ..ChaosCounters::default()
    }
}

/// Scenario 1b: one bomb under `FaultPolicy::AbortRun` (the default).
/// The bomb value is strictly larger than every innocent chain, and
/// submitted exactly once — so exactly one task can fail, and the typed
/// error out of `join` and `shutdown` is deterministic.
fn scenario_abort(rng: &mut ChaosRng, kind: PoolKind, places: usize, smoke: bool) -> ChaosCounters {
    let innocents = if smoke { 12 } else { 32 };
    let bomb = 40 + rng.below(24);
    let exec = Arc::new(BombExec::new(8, vec![bomb]));
    let svc: PoolService<u64> = PoolBuilder::new(kind)
        .places(places)
        .k(8)
        .lane_capacity(16)
        .service(Arc::clone(&exec));
    {
        let mut handle = svc.ingest_handle();
        handle
            .submit(bomb, 8, bomb)
            .expect("first submission lands");
        for _ in 0..innocents {
            // Innocent chains start below the bomb, so no chain but the
            // bomb's own ever reaches the bomb value. Submissions racing
            // the abort flag may bounce — that's the fault model.
            let v = rng.below(bomb);
            let _ = handle.submit(v, 8, v);
        }
    }
    let aborted = svc.join().expect_err("the bomb must abort the run");
    assert_eq!(
        aborted.failure.prio, bomb,
        "{kind}/p{places}: abort blamed the wrong task"
    );
    assert_eq!(aborted.failure.message, format!("chaos bomb {bomb}"));
    let err = svc
        .shutdown()
        .expect_err("aborted service must shut down with the typed error");
    assert_eq!(err.failure.prio, bomb);
    assert_eq!(
        err.stats.failed, 1,
        "{kind}/p{places}: exactly one task can hit the single bomb"
    );
    ChaosCounters {
        aborted_runs: 1,
        ..ChaosCounters::default()
    }
}

/// Scenario 2: producers die mid-run at seeded cutoffs (dropping their
/// handles early). The pool must reach quiescence having executed
/// exactly what was submitted before each death — nothing lost, nothing
/// double-counted.
fn scenario_producer_aborts(
    rng: &mut ChaosRng,
    kind: PoolKind,
    places: usize,
    smoke: bool,
) -> ChaosCounters {
    let (producers, planned, max_value) = if smoke { (3, 10, 20) } else { (4, 30, 40) };
    let plans: Vec<(usize, Vec<u64>)> = (0..producers)
        .map(|_| {
            let cutoff = rng.below(planned as u64 + 1) as usize;
            let vals = (0..planned).map(|_| rng.below(max_value)).collect();
            (cutoff, vals)
        })
        .collect();
    let exec = Arc::new(BombExec::new(8, Vec::new()));
    let svc: PoolService<u64> = PoolBuilder::new(kind)
        .places(places)
        .k(8)
        .lane_capacity(8)
        .service(Arc::clone(&exec));
    std::thread::scope(|s| {
        for (cutoff, vals) in &plans {
            let mut handle = svc.ingest_handle();
            s.spawn(move || {
                for &v in &vals[..*cutoff] {
                    handle.submit(v, 8, v).expect("no bombs, no aborts");
                }
                // The producer "dies" here: the handle drops with
                // `planned - cutoff` submissions never made.
            });
        }
    });
    svc.join().expect("clean run");
    assert_idle_frozen(&svc, "producer-abort scenario");
    let want: u64 = plans
        .iter()
        .flat_map(|(cutoff, vals)| vals[..*cutoff].iter())
        .map(|&v| v + 1)
        .sum();
    let stats = svc.shutdown().expect("clean shutdown");
    assert_eq!(
        stats.executed, want,
        "{kind}/p{places}: dead producers lost or duplicated work"
    );
    assert_eq!(stats.failed, 0);
    let submitted: u64 = plans.iter().map(|(c, _)| *c as u64).sum();
    ChaosCounters {
        submitted,
        completed: stats.executed,
        producer_aborts: plans.iter().filter(|(c, _)| *c < planned).count() as u64,
        unsent: (producers * planned) as u64 - submitted,
        ..ChaosCounters::default()
    }
}

/// Scenario 3: protocol abuse over real loopback TCP — seeded garbage
/// lines, an oversized newline-less flood, a half-open request stalled
/// into the read deadline, and sockets killed without `QUIT` — while
/// honest submissions keep flowing. The server must reject every abuse,
/// keep every accepted job, and shut down with no contained failures.
fn scenario_net(rng: &mut ChaosRng, kind: PoolKind, places: usize, smoke: bool) -> ChaosCounters {
    use priosched_net::{Server, ServerConfig};
    const GARBAGE: [&str; 6] = [
        "FROBNICATE",
        "SUBMIT 1 2",
        "SUBMIT x y z",
        "BATCH 8 a:b",
        "BATCH 8",
        "JOINT 3",
    ];
    let (conns, per_conn, max_value) = if smoke { (3, 6, 16) } else { (4, 16, 24) };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            kind,
            places,
            k: 16,
            lane_capacity: Some(32),
            read_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback chaos server");
    let addr = server.local_addr();
    let mut counters = ChaosCounters::default();
    let mut accepted_values: Vec<u64> = Vec::new();
    // Honest-but-messy clients: valid SUBMITs interleaved with garbage;
    // some die without QUIT.
    for conn in 0..conns {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        let mut request =
            |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| -> String {
                // One write per request: `writeln!` would send the line and
                // its newline separately, and Nagle + delayed ACK can then hold
                // the newline back past the server's started-line deadline.
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("send");
                reply.clear();
                reader.read_line(&mut reply).expect("reply");
                reply.trim_end().to_string()
            };
        for _ in 0..per_conn {
            if rng.below(3) == 0 {
                let g = GARBAGE[rng.below(GARBAGE.len() as u64) as usize];
                let got = request(&mut writer, &mut reader, g);
                assert!(
                    got.starts_with("ERR "),
                    "{kind}/p{places}: garbage {g:?} got {got:?}"
                );
                counters.garbage_rejected += 1;
            } else {
                let v = rng.below(max_value);
                let got = request(&mut writer, &mut reader, &format!("SUBMIT {v} 16 {v}"));
                assert_eq!(got, "OK", "{kind}/p{places}: honest submit rejected");
                accepted_values.push(v);
                counters.net_accepted += 1;
            }
        }
        if conn % 2 == 0 {
            // Killed socket: drop without QUIT. Accepted work must
            // survive the abrupt death.
            counters.killed_sockets += 1;
            drop(writer); // reader drop closes the socket
        } else {
            let got = request(&mut writer, &mut reader, "QUIT");
            assert_eq!(got, "BYE");
        }
    }
    // Oversized flood: no newline, past the 64 KiB cap.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer
            .write_all(&vec![b'A'; 80 * 1024])
            .expect("flood accepted up to the cap");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("flood reply");
        assert!(
            reply.starts_with("ERR request line exceeds"),
            "{kind}/p{places}: flood got {reply:?}"
        );
        counters.oversized_closed += 1;
    }
    // Half-open stall: a started line with no newline, held past the
    // read deadline.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        write!(writer, "SUBMIT 3 16").expect("partial line");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("deadline reply");
        assert_eq!(
            reply.trim_end(),
            "ERR read deadline exceeded",
            "{kind}/p{places}"
        );
        counters.deadline_reaped += 1;
    }
    // Control connection: JOIN must report exactly the oracle over the
    // accepted jobs — abuse cost the server nothing.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writeln!(writer, "JOIN").expect("send JOIN");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("DONE reply");
        let done: u64 = reply
            .trim_end()
            .strip_prefix("DONE ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{kind}/p{places}: expected DONE, got {reply:?}"));
        let want: u64 = accepted_values.iter().map(|&v| v + 1).sum();
        assert_eq!(
            done, want,
            "{kind}/p{places}: accepted jobs lost or duplicated under abuse"
        );
        counters.net_executed = done;
        // Quiescent despite the open control connection: the idle meter
        // must freeze (after the workers run down their park backoff).
        std::thread::sleep(Duration::from_millis(80));
        let parked_at = server.idle_iters();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            server.idle_iters(),
            parked_at,
            "{kind}/p{places}: quiescent server must not spin"
        );
        writeln!(writer, "QUIT").expect("send QUIT");
    }
    let summary = server.shutdown();
    assert!(
        summary.failures.is_empty(),
        "{kind}/p{places}: chaos must be contained, not crash actors: {:?}",
        summary.failures
    );
    assert_eq!(
        summary.run.failed, 0,
        "{kind}/p{places}: no task bombs here"
    );
    assert_eq!(
        summary.accepted(),
        counters.net_accepted,
        "{kind}/p{places}: per-connection accounting diverged"
    );
    counters
}

/// Runs every scenario once for one (kind × places) cell. Panics with a
/// diagnostic on any invariant violation; returns the cell's
/// deterministic failure-mode counters.
pub fn run_cell(seed: u64, kind: PoolKind, places: usize, smoke: bool) -> ChaosCounters {
    // Sub-seed per cell so kinds/places don't share fault schedules.
    let cell_seed = seed
        .wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(kind as u64 * 131 + places as u64);
    let mut counters = ChaosCounters::default();
    let mut rng = ChaosRng::new(cell_seed);
    counters.absorb(&scenario_isolate(&mut rng, kind, places, smoke));
    counters.absorb(&scenario_abort(&mut rng, kind, places, smoke));
    counters.absorb(&scenario_producer_aborts(&mut rng, kind, places, smoke));
    counters.absorb(&scenario_net(&mut rng, kind, places, smoke));
    counters
}

/// Runs the full chaos sweep: every `kind × places` cell, **twice**,
/// asserting the same-seed repeat produces identical counters. Returns
/// one report per cell.
pub fn chaos_sweep(
    seed: u64,
    kinds: &[PoolKind],
    places_list: &[usize],
    smoke: bool,
) -> Vec<ChaosReport> {
    let mut reports = Vec::new();
    for &kind in kinds {
        for &places in places_list {
            let counters = run_cell(seed, kind, places, smoke);
            let repeat = run_cell(seed, kind, places, smoke);
            assert_eq!(
                counters, repeat,
                "{kind}/p{places}: same seed {seed} must reproduce identical failure counters"
            );
            reports.push(ChaosReport {
                kind,
                places,
                counters,
            });
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = ChaosRng::new(7);
        let mut b = ChaosRng::new(7);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
        }
        let mut c = ChaosRng::new(9);
        for _ in 0..100 {
            assert!(c.below(23) < 23);
        }
    }

    #[test]
    fn bomb_oracle_counts_partial_chains() {
        let bombs = vec![3, 10];
        // No bomb at or below 2: the full chain 2,1,0 runs.
        assert_eq!(BombExec::oracle(&bombs, 2), (3, 0));
        // Chain from 5 runs 5, 4, then dies at 3.
        assert_eq!(BombExec::oracle(&bombs, 5), (2, 1));
        // Chain from 10 dies instantly.
        assert_eq!(BombExec::oracle(&bombs, 10), (0, 1));
        // Chain from 12 runs 12, 11, dies at 10 (the *largest* bomb ≤ v).
        assert_eq!(BombExec::oracle(&bombs, 12), (2, 1));
    }

    /// One full cell on one structure: the in-repo smoke for the chaos
    /// path (CI runs the full sweep via the `chaos` binary).
    #[test]
    fn chaos_cell_is_deterministic_on_hybrid() {
        let first = run_cell(7, PoolKind::Hybrid, 2, true);
        let second = run_cell(7, PoolKind::Hybrid, 2, true);
        assert_eq!(first, second);
        assert!(first.submitted > 0);
        assert_eq!(first.aborted_runs, 1);
        assert!(first.oversized_closed == 1 && first.deadline_reaped == 1);
    }
}
