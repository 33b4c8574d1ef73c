//! In-tree, loom-API-compatible deterministic interleaving explorer.
//!
//! The build environment is offline, so this workspace vendors the subset
//! of [loom](https://crates.io/crates/loom) it needs as a local shim —
//! same API shape, independent implementation. `priosched-core` routes
//! every atomic, lock, and thread operation through its `sync` facade;
//! under `--cfg loom` that facade resolves here and the concurrency
//! models in `crates/core/tests/loom_models.rs` explore *every* bounded
//! interleaving of the modeled code instead of the handful a stress test
//! happens to hit.
//!
//! # What is modeled
//!
//! - **Scheduling**: a depth-first search over thread interleavings with
//!   a bounded number of preemptions ([`Builder::max_preemptions`]).
//!   Every atomic access, fence, `UnsafeCell` access, mutex/condvar
//!   operation, spawn, join, and yield is a scheduling point.
//! - **Memory**: operational TSO (x86). Non-SeqCst stores sit in a
//!   per-thread FIFO store buffer until a flush point (SeqCst store or
//!   fence, any RMW, lock edges, spawn, thread exit) or until the
//!   scheduler chooses to drain them — so the window in which a Release
//!   store is invisible to other threads is explored, not assumed away.
//!   Drains are decided in front of the operations that can observe them
//!   (an access to the stored location), not at every scheduling point:
//!   the other placements are equivalent and would only multiply
//!   executions.
//! - **Blocking**: untimed condvar waits have *no* spurious wakeups, so
//!   a lost wakeup becomes a detected deadlock. Timed waits can be woken
//!   by a scheduler-chosen timeout (bounded per thread, forced when it
//!   is the only way forward, so timeout-based recovery stays live).
//!
//! # Failure reporting and replay
//!
//! When an execution panics, deadlocks, or blows a budget, the full
//! decision schedule is printed. Set `LOOM_REPLAY="r0 r1 d0 ..."` to
//! re-run exactly that execution under a debugger or with extra logging.
//!
//! # Environment knobs
//!
//! | Variable               | Effect                                    |
//! |------------------------|-------------------------------------------|
//! | `LOOM_MAX_BRANCHES`    | cap on explored executions (then panic)   |
//! | `LOOM_MAX_PREEMPTIONS` | preemption bound per execution            |
//! | `LOOM_MAX_STEPS`       | per-execution op budget (livelock guard)  |
//! | `LOOM_TIMEOUT_WAKES`   | per-thread timed-wait wake budget         |
//! | `LOOM_REPLAY`          | run a single printed schedule             |
//! | `LOOM_LOG`             | print exploration statistics              |

#![warn(missing_docs)]

pub mod cell;
mod rt;
pub mod thread;

pub mod sync;

pub use rt::Config;

/// Configure exploration bounds before running a model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Builder {
    cfg: Config,
}

impl Builder {
    /// Default bounds (overridable via `LOOM_*` environment variables).
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Cap the number of explored executions; exceeding it panics.
    pub fn max_branches(mut self, n: u64) -> Builder {
        self.cfg.max_branches = n;
        self
    }

    /// Bound voluntary preemptions per execution (bounded model checking;
    /// 2–3 catches almost all real interleaving bugs at tractable cost).
    pub fn max_preemptions(mut self, n: usize) -> Builder {
        self.cfg.max_preemptions = n;
        self
    }

    /// Per-execution operation budget; a livelock backstop.
    pub fn max_steps(mut self, n: usize) -> Builder {
        self.cfg.max_steps = n;
        self
    }

    /// Per-thread budget of explored timed-wait wakeups.
    pub fn timeout_wakes(mut self, n: usize) -> Builder {
        self.cfg.timeout_wake_budget = n;
        self
    }

    /// Exhaustively run `f` under every schedule within the bounds.
    pub fn check(self, f: impl Fn() + Send + Sync + 'static) {
        rt::model_with(self.cfg, f);
    }
}

/// Explore every bounded interleaving of `f`; panics (with a printed,
/// replayable schedule) if any execution panics, deadlocks, or exceeds a
/// budget.
pub fn model(f: impl Fn() + Send + Sync + 'static) {
    Builder::new().check(f)
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use super::sync::{Condvar, Mutex};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::sync::Mutex as StdMutex;

    /// Store-buffer litmus: with Relaxed stores both threads can read 0 —
    /// the hallmark TSO outcome a SeqCst-free model must produce.
    #[test]
    fn sb_litmus_relaxed_allows_both_zero() {
        let outcomes = Arc::new(StdMutex::new(HashSet::new()));
        let sink = Arc::clone(&outcomes);
        super::model(move || {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t1 = super::thread::spawn(move || {
                x1.store(1, Ordering::Release);
                y1.load(Ordering::Acquire)
            });
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t2 = super::thread::spawn(move || {
                y2.store(1, Ordering::Release);
                x2.load(Ordering::Acquire)
            });
            let r1 = t1.join().unwrap();
            let r2 = t2.join().unwrap();
            sink.lock().unwrap().insert((r1, r2));
        });
        let seen = outcomes.lock().unwrap();
        assert!(
            seen.contains(&(0, 0)),
            "store buffering must allow (0,0); saw {seen:?}"
        );
        assert!(seen.contains(&(1, 1)) || seen.contains(&(0, 1)) || seen.contains(&(1, 0)));
    }

    /// Every result `f` returns over the whole exploration.
    fn outcomes<T>(f: impl Fn() -> T + Send + Sync + 'static) -> HashSet<T>
    where
        T: std::hash::Hash + Eq + Send + 'static,
    {
        let seen = Arc::new(StdMutex::new(HashSet::new()));
        let sink = Arc::clone(&seen);
        super::model(move || {
            let r = f();
            sink.lock().unwrap().insert(r);
        });
        let mut seen = seen.lock().unwrap();
        std::mem::take(&mut *seen)
    }

    /// Drains are decided only in front of an operation that could tell
    /// (`rt::settle_drains`); these litmus programs pin that nothing TSO
    /// allows went missing with the rest, and nothing it forbids came in.
    #[test]
    fn lazy_drains_reach_exactly_the_tso_outcomes() {
        // Store buffering: all four.
        let sb = outcomes(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t = super::thread::spawn(move || {
                x1.store(1, Ordering::Relaxed);
                y1.load(Ordering::Relaxed)
            });
            y.store(1, Ordering::Relaxed);
            let r2 = x.load(Ordering::Relaxed);
            (t.join().unwrap(), r2)
        });
        assert_eq!(sb, HashSet::from([(0, 0), (0, 1), (1, 0), (1, 1)]));

        // A buffered store may land before, between or after two loads of
        // its location, and never un-lands.
        let between = outcomes(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x1 = Arc::clone(&x);
            let t = super::thread::spawn(move || x1.store(1, Ordering::Relaxed));
            let r = (x.load(Ordering::Relaxed), x.load(Ordering::Relaxed));
            t.join().unwrap();
            r
        });
        assert_eq!(between, HashSet::from([(0, 0), (0, 1), (1, 1)]));

        // The buffer is FIFO: the older store can be seen without the
        // younger one, never the other way round.
        let fifo = outcomes(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t = super::thread::spawn(move || {
                x1.store(1, Ordering::Relaxed);
                y1.store(1, Ordering::Relaxed);
            });
            let r = (y.load(Ordering::Relaxed), x.load(Ordering::Relaxed));
            t.join().unwrap();
            r
        });
        assert_eq!(fifo, HashSet::from([(0, 0), (0, 1), (1, 1)]));

        // Two buffered stores to one location land in either order — also
        // when one of them is flushed by a mutex unlock, which is not a
        // decision point of its own.
        let coherence = outcomes(|| {
            let x = Arc::new(AtomicU64::new(0));
            let m = Arc::new(Mutex::new(()));
            let x1 = Arc::clone(&x);
            let t1 = super::thread::spawn(move || x1.store(1, Ordering::Relaxed));
            let (x2, m2) = (Arc::clone(&x), Arc::clone(&m));
            let t2 = super::thread::spawn(move || {
                let _g = m2.lock().unwrap();
                x2.store(2, Ordering::Relaxed);
            });
            t1.join().unwrap();
            t2.join().unwrap();
            x.load(Ordering::Relaxed)
        });
        assert_eq!(coherence, HashSet::from([1, 2]));

        // A read-modify-write sees a buffered store or overwrites under it.
        let rmw = outcomes(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x1 = Arc::clone(&x);
            let t = super::thread::spawn(move || x1.store(1, Ordering::Relaxed));
            let old = x.fetch_add(10, Ordering::AcqRel);
            t.join().unwrap();
            (old, x.load(Ordering::Relaxed))
        });
        assert_eq!(rmw, HashSet::from([(0, 1), (1, 11)]));
    }

    /// With SeqCst stores the (0,0) outcome must be impossible.
    #[test]
    fn sb_litmus_seqcst_forbids_both_zero() {
        let outcomes = Arc::new(StdMutex::new(HashSet::new()));
        let sink = Arc::clone(&outcomes);
        super::model(move || {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t1 = super::thread::spawn(move || {
                x1.store(1, Ordering::SeqCst);
                y1.load(Ordering::SeqCst)
            });
            let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
            let t2 = super::thread::spawn(move || {
                y2.store(1, Ordering::SeqCst);
                x2.load(Ordering::SeqCst)
            });
            let r1 = t1.join().unwrap();
            let r2 = t2.join().unwrap();
            sink.lock().unwrap().insert((r1, r2));
        });
        assert!(
            !outcomes.lock().unwrap().contains(&(0, 0)),
            "SeqCst stores must forbid (0,0)"
        );
    }

    /// Message passing: a Release-published flag guarantees the payload
    /// is visible (TSO keeps store order).
    #[test]
    fn message_passing_release_acquire() {
        super::model(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
            let t = super::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                f.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            t.join().unwrap();
        });
    }

    /// Two RMWs never lose an increment in any schedule.
    #[test]
    fn rmw_increments_never_lost() {
        super::model(|| {
            let c = Arc::new(AtomicUsize::new(0));
            let c1 = Arc::clone(&c);
            let c2 = Arc::clone(&c);
            let t1 = super::thread::spawn(move || {
                c1.fetch_add(1, Ordering::AcqRel);
            });
            let t2 = super::thread::spawn(move || {
                c2.fetch_add(1, Ordering::AcqRel);
            });
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(c.load(Ordering::Acquire), 2);
        });
    }

    /// The classic missed-wakeup bug (check a flag, then wait, without a
    /// mutex spanning both) must be reported as a deadlock.
    #[test]
    fn lost_wakeup_detected_as_deadlock() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            super::model(|| {
                let m = Arc::new(Mutex::new(false));
                let cv = Arc::new(Condvar::new());
                let flag = Arc::new(AtomicU64::new(0));
                let (m2, cv2, f2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&flag));
                let t = super::thread::spawn(move || {
                    // BUG under test: the flag check happens outside the
                    // mutex, so the notify can land before the wait.
                    if f2.load(Ordering::Acquire) == 0 {
                        let g = m2.lock().unwrap();
                        let _g = cv2.wait(g).unwrap();
                    }
                });
                flag.store(1, Ordering::Release);
                cv.notify_all();
                t.join().unwrap();
            });
        }));
        assert!(result.is_err(), "lost wakeup must fail the model");
    }

    /// Mutex + condvar handoff with the check under the lock never
    /// deadlocks and always observes the flag.
    #[test]
    fn condvar_handoff_correct_pattern_passes() {
        super::model(|| {
            let m = Arc::new(Mutex::new(false));
            let cv = Arc::new(Condvar::new());
            let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
            let t = super::thread::spawn(move || {
                let mut g = m2.lock().unwrap();
                while !*g {
                    g = cv2.wait(g).unwrap();
                }
            });
            {
                let mut g = m.lock().unwrap();
                *g = true;
                cv.notify_all();
            }
            t.join().unwrap();
        });
    }

    /// Mutual exclusion: a mutex-protected counter reaches exactly 2.
    #[test]
    fn mutex_counter_exact() {
        super::model(|| {
            let c = Arc::new(Mutex::new(0u32));
            let c1 = Arc::clone(&c);
            let c2 = Arc::clone(&c);
            let t1 = super::thread::spawn(move || *c1.lock().unwrap() += 1);
            let t2 = super::thread::spawn(move || *c2.lock().unwrap() += 1);
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(*c.lock().unwrap(), 2);
        });
    }

    /// An assertion failure inside a model aborts cleanly with a schedule
    /// (and the runtime stays usable for the next model).
    #[test]
    fn failing_model_panics_and_cleans_up() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            super::model(|| {
                let c = Arc::new(AtomicU64::new(0));
                let c2 = Arc::clone(&c);
                let t = super::thread::spawn(move || {
                    c2.store(1, Ordering::Release);
                });
                // Wrong: claims the store is already visible.
                assert_eq!(c.load(Ordering::Acquire), 1, "deliberate model bug");
                t.join().unwrap();
            });
        }));
        assert!(result.is_err());
        // The runtime must still run a fresh model afterwards.
        super::model(|| {
            let c = AtomicU64::new(0);
            c.store(7, Ordering::SeqCst);
            assert_eq!(c.load(Ordering::Acquire), 7);
        });
    }
}
