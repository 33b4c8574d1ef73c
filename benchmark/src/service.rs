//! `service_stream`: one producer streams a tape of countdown jobs into a
//! running `PoolService` through bounded lanes, then joins.

use crate::bench::{Bench, Outcome, Sizes, LANE_CAPACITY, STREAM_K};
use crate::trace::Tracer;
use crate::util::{places, SplitMix64};
use priosched_core::{PoolBuilder, PoolKind, PoolService, SpawnCtx, TaskExecutor};
use priosched_pq::{BinaryHeap, SequentialPriorityQueue};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Steps a job takes after its first execution.
pub const COUNTDOWN: u32 = 3;
/// Jobs per `submit_batch` call.
pub const SUBMIT_BATCH: usize = 256;
const PRIO_RANGE: u64 = 1 << 20;

/// A countdown job: executing it with `left > 0` spawns it again with
/// `left - 1`; the step with `left == 0` completes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Job {
    pub prio: u64,
    pub id: u32,
    pub left: u32,
}

/// Counts completions per job, so a lost or duplicated job shows by name.
pub struct JobExec {
    k: usize,
    completed: Vec<AtomicU32>,
}

impl JobExec {
    pub fn new(k: usize, jobs: usize) -> Self {
        JobExec {
            k,
            completed: (0..jobs).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Jobs that did not complete exactly once.
    pub fn not_exactly_once(&self) -> u64 {
        self.completed
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) != 1)
            .count() as u64
    }
}

impl TaskExecutor<Job> for JobExec {
    fn execute(&self, job: Job, ctx: &mut SpawnCtx<'_, Job>) {
        if job.left > 0 {
            let next = Job {
                left: job.left - 1,
                ..job
            };
            ctx.spawn(job.prio, self.k, next);
        } else {
            self.completed[job.id as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// `jobs` jobs of `COUNTDOWN` steps with random priorities, in submission
/// order.
pub fn countdown_tape(seed: u64, jobs: usize) -> Vec<Job> {
    let mut rng = SplitMix64(seed);
    (0..jobs as u32)
        .map(|id| Job {
            prio: rng.below(PRIO_RANGE),
            id,
            left: COUNTDOWN,
        })
        .collect()
}

/// Sequential oracle: runs the tape to completion through one sequential
/// priority queue, in strict priority order, and returns how many
/// executions that took.
pub fn sequential_executions(tape: &[Job]) -> u64 {
    let mut queue: BinaryHeap<Job> = BinaryHeap::new();
    queue.extend_batch(tape.iter().copied());
    let mut executions = 0u64;
    while let Some(job) = queue.pop() {
        executions += 1;
        if job.left > 0 {
            queue.push(Job {
                left: job.left - 1,
                ..job
            });
        }
    }
    executions
}

/// Seeds of the tape's segments, all derived from the run's seed.
pub fn segment_seeds(seed: u64, segments: usize) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    (0..segments).map(|_| rng.next()).collect()
}

/// The tape is generated in segments of equal work; rep `r` streams segment
/// `r mod segments`, so every kind of one rep sees the same jobs and the
/// reps of a run do not all see the same ones.
/// `PoolService::join`, entered only once the lanes are empty.
///
/// Works around a lost wakeup in the scheduler at this commit, which the
/// benchmark found: a worker that drains a lane raises `pending`, pushes the
/// batch, and only then lowers `queued`. If other workers execute the whole
/// batch in between, `pending` reaches zero (the only event that wakes a
/// `join`) while `queued` is still up, the woken `join` sees work queued
/// and sleeps again, and nothing wakes it when `queued` drops. With one
/// producer that has stopped submitting, `queued == 0` means every drain
/// has finished, and from there `join` is sound. The wait is the tail of the
/// last two lanes, well under a millisecond. Delete this function, and call
/// `join` directly, once draining a lane wakes the control slot.
pub fn join_drained<T: Send + 'static>(svc: &PoolService<T>) -> bool {
    while svc.queued() > 0 {
        std::thread::yield_now();
    }
    svc.join().is_ok()
}

pub struct ServiceBench {
    segments: Vec<Vec<Job>>,
    expected_executions: u64,
}

pub fn start_service(kind: PoolKind, exec: Arc<JobExec>) -> PoolService<Job> {
    PoolBuilder::new(kind)
        .places(places())
        .k(STREAM_K)
        .lane_capacity(LANE_CAPACITY)
        .service(exec)
}

impl ServiceBench {
    /// Generates the tape, runs it through the sequential oracle, and
    /// starts and stops one service of every kind.
    pub fn setup(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Self {
        let segments: Vec<Vec<Job>> = tr.span("setup.gen", |_| {
            segment_seeds(seed, sizes.service_segments)
                .into_iter()
                .map(|s| countdown_tape(s, sizes.service_jobs))
                .collect()
        });
        let expected_executions = tr.span("setup.oracle", |_| {
            equal_work(segments.iter().map(Vec::as_slice))
        });
        tr.span("service.start_stop", |_| {
            for kind in PoolKind::ALL {
                let svc = start_service(kind, Arc::new(JobExec::new(STREAM_K, 0)));
                svc.shutdown().expect("an idle service shuts down cleanly");
            }
        });
        ServiceBench {
            segments,
            expected_executions,
        }
    }

    /// A bench over existing segments whose common oracle count is known.
    pub fn from_segments(segments: Vec<Vec<Job>>, expected_executions: u64) -> Self {
        ServiceBench {
            segments,
            expected_executions,
        }
    }
}

/// Runs every segment through the sequential oracle; they must all need
/// the same number of executions, which is returned.
pub fn equal_work<'a>(segments: impl Iterator<Item = &'a [Job]>) -> u64 {
    let counts: Vec<u64> = segments.map(sequential_executions).collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "segments differ in work: {counts:?}"
    );
    counts[0]
}

impl Bench for ServiceBench {
    fn items(&self) -> u64 {
        self.expected_executions
    }

    fn run(&self, kind: PoolKind, rep: u32, tr: &mut Tracer) -> Outcome {
        let tape = &self.segments[rep as usize % self.segments.len()];
        let exec = Arc::new(JobExec::new(STREAM_K, tape.len()));
        let mut svc = tr.span("service.start", |_| start_service(kind, Arc::clone(&exec)));
        let mut batch: Vec<(u64, Job)> = Vec::with_capacity(SUBMIT_BATCH);
        let mut refused = 0u64;
        let start = Instant::now();
        tr.span("feed", |tr| {
            for chunk in tape.chunks(SUBMIT_BATCH) {
                batch.extend(chunk.iter().map(|j| (j.prio, *j)));
                if tr
                    .span("submit_batch", |_| svc.submit_batch(STREAM_K, &mut batch))
                    .is_err()
                {
                    refused += batch.len() as u64;
                    batch.clear();
                }
            }
        });
        let joined = tr.span("join", |_| join_drained(&svc));
        let secs = start.elapsed().as_secs_f64();
        let stats = tr.span("service.shutdown", |_| {
            svc.shutdown().map_err(|e| e.to_string())
        });
        let jobs = tape.len() as u64;
        let mut failed = exec.not_exactly_once().max(refused);
        match (joined, &stats) {
            (true, Ok(stats)) if stats.executed == self.expected_executions => {}
            _ => {
                eprintln!("service_stream on {kind}: join ok: {joined}, shutdown {stats:?}");
                failed = jobs;
            }
        }
        Outcome {
            secs,
            attempted: jobs,
            failed,
            join_kicks: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_counts_every_step_of_every_job() {
        let mut tape = countdown_tape(1, 100);
        assert_eq!(sequential_executions(&tape), 100 * (COUNTDOWN as u64 + 1));
        tape[7].left = 0;
        assert_eq!(
            sequential_executions(&tape),
            100 * (COUNTDOWN as u64 + 1) - 3
        );
    }

    #[test]
    fn a_seed_fixes_the_tape() {
        assert_eq!(countdown_tape(9, 50), countdown_tape(9, 50));
        assert_ne!(countdown_tape(9, 50), countdown_tape(10, 50));
        assert_eq!(segment_seeds(4, 3), segment_seeds(4, 3));
        assert_ne!(segment_seeds(4, 3)[0], segment_seeds(4, 3)[1]);
    }

    #[test]
    fn every_kind_completes_every_job_once() {
        let bench = ServiceBench::setup(2, &Sizes::SMOKE, &mut Tracer::new(false));
        for kind in PoolKind::ALL {
            let out = bench.run(kind, 0, &mut Tracer::new(false));
            assert_eq!((out.attempted, out.failed), (4096, 0), "{kind}");
        }
    }

    #[test]
    fn a_lost_job_is_counted() {
        let exec = JobExec::new(8, 3);
        exec.completed[0].fetch_add(1, Ordering::Relaxed);
        exec.completed[2].fetch_add(2, Ordering::Relaxed);
        assert_eq!(exec.not_exactly_once(), 2);
    }
}
