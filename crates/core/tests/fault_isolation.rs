//! Property tests for the fault-isolation tentpole: panics under both
//! [`FaultPolicy`] values, driven mid-streamed-run on every structure.
//!
//! * **AbortRun** (the default): a panic mid-run must *release* blocked
//!   producers — every blocking submit returns, and any error it
//!   returns is `SubmitError::Aborted` — and the panic is reported
//!   exactly once through the typed `join`/`shutdown` results (one
//!   bomb task exists, so exactly one [`FailureReport`]).
//! * **Isolate**: the run finishes; quarantined and completed tasks
//!   partition the submissions exactly: `failed + executed ==
//!   submitted`, with one failure report per bomb.
//!
//! Both properties hold for arbitrary task multisets, producer counts,
//! and all five [`PoolKind`]s — proptest shrinks any interleaving that
//! breaks them — and whether a bomb goes off in `execute` or in
//! `is_dead`. A panic that escaped the worker's containment would leave
//! its task outstanding forever, so every case runs under a watchdog that
//! fails it instead of hanging.

use priosched_core::{
    panic_message, run_on_kind, FaultPolicy, PoolBuilder, PoolKind, PoolParams, PoolService,
    SpawnCtx, SubmitError, TaskExecutor,
};
use proptest::prelude::*;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

/// The AbortRun bomb: a value no generated task can carry.
const SENTINEL: u64 = 1 << 40;
const SENTINEL_PRIO: u64 = 9_999;

/// Keeps the injected panics from spamming a backtrace per proptest
/// case while leaving real failures loud.
fn quiet_bomb_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("fault bomb") {
                default_hook(info);
            }
        }));
    });
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned within 30 s.
fn watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(done)) => done,
        Ok(Err(payload)) => std::panic::resume_unwind(payload),
        Err(_) => panic!("hung: a bomb's task never left the outstanding count"),
    }
}

/// Panics on bomb tasks (the sentinel, or any value `≡ 3 (mod 7)` when
/// `value_bombs` is on) — in `is_dead` when `in_is_dead` is on, else in
/// `execute` — and counts everything else. No spawning: the submission
/// multiset is the full task population, so the isolate partition check
/// is exact.
struct Bombable {
    executed: AtomicU64,
    value_bombs: bool,
    in_is_dead: bool,
}

impl Bombable {
    fn new(value_bombs: bool, in_is_dead: bool) -> Self {
        Bombable {
            executed: AtomicU64::new(0),
            value_bombs,
            in_is_dead,
        }
    }

    fn is_bomb(&self, v: u64) -> bool {
        v == SENTINEL || (self.value_bombs && v % 7 == 3)
    }
}

impl TaskExecutor<u64> for Bombable {
    fn execute(&self, v: u64, _ctx: &mut SpawnCtx<'_, u64>) {
        if self.is_bomb(v) {
            panic!("fault bomb {v}");
        }
        self.executed.fetch_add(1, Ordering::AcqRel);
    }

    fn is_dead(&self, &v: &u64) -> bool {
        if self.in_is_dead && self.is_bomb(v) {
            panic!("fault bomb {v}");
        }
        false
    }
}

/// Shards `values` across `producers` threads submitting through their
/// own ingest handles; returns every `SubmitError` kind observed.
fn drive_producers(svc: &PoolService<u64>, values: &[u16], producers: usize) -> Vec<SubmitError> {
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for p in 0..producers {
            let mut handle = svc.ingest_handle();
            let shard: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(i, _)| i % producers == p)
                .map(|(_, &v)| v as u64)
                .collect();
            workers.push(s.spawn(move || {
                let mut errors = Vec::new();
                for v in shard {
                    if let Err(e) = handle.submit(v, 8, v) {
                        errors.push(e.kind());
                    }
                }
                errors
            }));
        }
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("producer threads never panic"))
            .collect()
    })
}

/// AbortRun: one bomb, tiny bounded lanes so producers actually block.
/// The scope returning at all proves the abort released them; the only
/// error they may see is `Aborted`; and the typed join/shutdown results
/// carry the panic exactly once.
fn abort_case(values: Vec<u16>, producers: usize, in_is_dead: bool) -> Result<(), TestCaseError> {
    for kind in PoolKind::ALL {
        let exec = Arc::new(Bombable::new(false, in_is_dead));
        let svc: PoolService<u64> = PoolBuilder::new(kind)
            .places(2)
            .k(8)
            .lane_capacity(1)
            .service(Arc::clone(&exec));
        // The bomb is in the lanes before any producer starts, so the
        // abort is guaranteed; producers then race it.
        svc.ingest_handle()
            .submit(SENTINEL_PRIO, 8, SENTINEL)
            .expect("live lanes accept the bomb");
        let errors = drive_producers(&svc, &values, producers);
        for e in &errors {
            prop_assert!(
                matches!(e, SubmitError::Aborted(())),
                "{kind}: blocked producers must be released with Aborted, got {e:?}"
            );
        }
        let aborted = svc.join().expect_err("the bomb must abort the run");
        prop_assert_eq!(aborted.failure.prio, SENTINEL_PRIO, "{}", kind);
        let want_message = format!("fault bomb {SENTINEL}");
        prop_assert_eq!(&aborted.failure.message, &want_message, "{}", kind);
        let err = svc.shutdown().expect_err("typed shutdown after abort");
        prop_assert_eq!(
            err.stats.failures.len(),
            1,
            "{}: one bomb task, exactly one report",
            kind
        );
        prop_assert_eq!(err.stats.failed, 1, "{}", kind);
    }
    Ok(())
}

/// Isolate: bombs are a pure function of the value, so quarantined and
/// completed tasks must partition the submissions exactly — `failed +
/// executed == submitted` — with one report per bomb.
fn isolate_case(values: Vec<u16>, producers: usize, in_is_dead: bool) -> Result<(), TestCaseError> {
    let want_failed = values.iter().filter(|&&v| u64::from(v) % 7 == 3).count() as u64;
    let want_executed = values.len() as u64 - want_failed;
    for kind in PoolKind::ALL {
        let exec = Arc::new(Bombable::new(true, in_is_dead));
        let svc: PoolService<u64> = PoolBuilder::new(kind)
            .places(2)
            .k(8)
            .lane_capacity(2)
            .fault_policy(FaultPolicy::Isolate)
            .service(Arc::clone(&exec));
        let errors = drive_producers(&svc, &values, producers);
        prop_assert!(
            errors.is_empty(),
            "{}: Isolate never rejects: {:?}",
            kind,
            errors
        );
        svc.join().expect("Isolate finishes the run");
        let stats = svc.shutdown().expect("clean Isolate shutdown");
        prop_assert_eq!(stats.failed, want_failed, "{}", kind);
        prop_assert_eq!(stats.executed, want_executed, "{}", kind);
        prop_assert_eq!(stats.dead, 0, "{}", kind);
        prop_assert_eq!(
            stats.failed + stats.executed,
            values.len() as u64,
            "{}: quarantined + completed must partition the submissions",
            kind
        );
        prop_assert_eq!(stats.failures.len() as u64, want_failed, "{}", kind);
        for f in &stats.failures {
            prop_assert!(
                f.prio % 7 == 3,
                "{}: non-bomb prio {} reported",
                kind,
                f.prio
            );
        }
        prop_assert_eq!(
            exec.executed.load(Ordering::Acquire),
            want_executed,
            "{}",
            kind
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn abort_mid_stream_releases_producers_and_reports_once(
        values in proptest::collection::vec(any::<u16>(), 0..40),
        producers in 1usize..4,
        in_is_dead in any::<bool>(),
    ) {
        quiet_bomb_panics();
        watchdog(move || abort_case(values, producers, in_is_dead))?;
    }

    #[test]
    fn isolate_partitions_submissions_exactly(
        values in proptest::collection::vec(any::<u16>(), 0..60),
        producers in 1usize..4,
        in_is_dead in any::<bool>(),
    ) {
        quiet_bomb_panics();
        watchdog(move || isolate_case(values, producers, in_is_dead))?;
    }
}

/// Closed world: bombs in `is_dead` on every kind under both policies.
/// AbortRun resumes the panic on the caller of `run_on_kind`; Isolate
/// quarantines each bomb with the priority it was popped with and runs
/// everything else.
#[test]
fn is_dead_bomb_in_a_closed_world_run_is_contained() {
    quiet_bomb_panics();
    watchdog(|| {
        for kind in PoolKind::ALL {
            for policy in [FaultPolicy::AbortRun, FaultPolicy::Isolate] {
                let exec = Bombable::new(true, true);
                let roots = (0..40u64).map(|v| (v, 8, v)).collect();
                let params = PoolParams::with_k(8).with_fault_policy(policy);
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run_on_kind(kind, 2, params, &exec, roots)
                }));
                match (policy, run) {
                    (FaultPolicy::AbortRun, Err(payload)) => {
                        let message = panic_message(&*payload);
                        assert!(message.starts_with("fault bomb"), "{kind}: {message}");
                    }
                    (FaultPolicy::Isolate, Ok(stats)) => {
                        // 3, 10, 17, 24, 31 and 38 are bombs.
                        assert_eq!((stats.failed, stats.executed), (6, 34), "{kind}");
                        assert_eq!(exec.executed.load(Ordering::Acquire), 34, "{kind}");
                        for f in &stats.failures {
                            assert_eq!(f.message, format!("fault bomb {}", f.prio), "{kind}");
                        }
                    }
                    (policy, run) => panic!("{kind} under {policy:?}: got {:?}", run.is_ok()),
                }
            }
        }
    });
}
