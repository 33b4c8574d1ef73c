#![warn(missing_docs)]

//! First-class workloads for the priority scheduler.
//!
//! The paper evaluates its ρ-relaxed structures on one application (SSSP,
//! §5); related work judges relaxed schedulers on scenario *breadth* —
//! Multi-Queues across SSSP/BFS/MST-style kernels, INSPIRIT per-workload
//! priority policies in task-based runtimes. This crate makes every
//! scenario in the repo a verifiable, benchmarkable citizen instead of a
//! one-off example:
//!
//! * [`SsspWorkload`] — the paper's evaluation application (§5.1), and
//!   the one way to run it: threaded through [`run_workload`], or in the
//!   paper's phases on one thread over any pool through
//!   [`SsspWorkload::run_phases`] (the figures' deterministic counts) —
//!   both oracle-checked;
//! * [`BfsWorkload`] — unit-weight BFS à la the Multi-Queues evaluation:
//!   dense equal-priority frontiers, verified against sequential BFS;
//! * [`CholeskyWorkload`] — tile Cholesky as a prioritized task DAG, the
//!   introduction's motivating "algorithms-by-blocks" use case \[16\];
//! * [`KnapsackWorkload`] — best-first branch-and-bound, where pruned
//!   subtrees are exactly the paper's dead tasks (§5.1);
//! * [`MoSsspWorkload`] — bi-objective label-correcting shortest paths,
//!   the conclusion's multi-objective future-work direction;
//! * [`MstWorkload`] — minimum spanning tree à la the Multi-Queues
//!   evaluation: order-insensitive component merging (cut property), so
//!   the unique-MSF oracle check stays exact under ρ-relaxed pops.
//!
//! # The `Workload` contract
//!
//! A [`Workload`] is a fixed problem instance plus its sequential oracle:
//! it builds a fresh [`TaskExecutor`] per run, seeds root tasks, and — after
//! the scheduler drains — checks the executor's final state against the
//! oracle. [`run_workload`] drives one `(kind, places, params)` cell
//! through [`priosched_core::run_on_kind`] and folds everything into a
//! [`WorkloadReport`]; [`run_workload_streamed`] drives the same cell
//! open-world — the seeds travel through sharded ingestion lanes from N
//! producer threads while the pool is already draining — and the *same*
//! oracle verifies the result, so the streamed path earns the identical
//! correctness guarantee for free. The oracle is computed once at
//! construction, so a sweep re-verifies every run at the cost of a
//! comparison, not a re-solve.
//!
//! Verification is not optional decoration: a relaxed structure that drops
//! or reorders beyond its ρ bound produces *wrong answers* here (missing
//! distances, a non-optimal knapsack value, an incomplete Pareto front),
//! not just slower runs. The `oracle_matrix` integration test pins every
//! workload × every [`PoolKind`] × {1, 4} places to its oracle.

pub mod bfs;
pub mod cholesky;
pub mod knapsack;
pub mod mo_sssp;
pub mod mst;
pub mod sssp;

pub use bfs::BfsWorkload;
pub use cholesky::CholeskyWorkload;
pub use knapsack::KnapsackWorkload;
pub use mo_sssp::MoSsspWorkload;
pub use mst::MstWorkload;
pub use priosched_sssp::{PhaseRecord, PhaseRun};
pub use sssp::SsspWorkload;

use priosched_core::stats::PlaceStats;
use priosched_core::{
    run_on_kind, run_stream_on_kind, IngressLanes, PoolKind, PoolParams, RunStats, TaskExecutor,
};
use std::time::Duration;

/// A schedulable, verifiable benchmark scenario.
///
/// Implementations hold the *instance* (input data) and its precomputed
/// sequential oracle; per-run mutable state lives in the executor so one
/// workload value can be swept across structures and place counts.
pub trait Workload {
    /// Task type flowing through the pool.
    type Task: Send + 'static;
    /// Per-run executor (application state); may borrow the instance.
    type Exec<'w>: TaskExecutor<Self::Task> + Sync
    where
        Self: 'w;

    /// Stable identifier (snake case; used in report ids and CLI flags).
    fn name(&self) -> &'static str;

    /// Builds a fresh executor for one run. `params.k` is the relaxation
    /// bound the executor should pass with its spawns — the same value
    /// [`run_workload`] routes into pool construction, so the two can
    /// never diverge.
    fn executor(&self, params: &PoolParams) -> Self::Exec<'_>;

    /// Root tasks as `(priority, k, task)` triples.
    fn seed(&self, exec: &Self::Exec<'_>, params: &PoolParams) -> Vec<(u64, usize, Self::Task)>;

    /// Checks the executor's final state against the sequential oracle.
    fn verify(&self, exec: &Self::Exec<'_>, run: &RunStats) -> Result<(), String>;

    /// Workload-specific scalar metrics for the report (e.g. nodes
    /// relaxed, max factorization error).
    fn metrics(&self, _exec: &Self::Exec<'_>, _run: &RunStats) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Outcome of one verified workload run.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// [`Workload::name`] of the workload that ran.
    pub workload: &'static str,
    /// Structure the run used.
    pub kind: PoolKind,
    /// Place count of the run.
    pub places: usize,
    /// Structure parameters of the run.
    pub params: PoolParams,
    /// Tasks executed (dead tasks excluded).
    pub executed: u64,
    /// Tasks eliminated as dead at pop time (§5.1).
    pub dead: u64,
    /// Wall-clock time of the scheduled run.
    pub elapsed: Duration,
    /// Summed data-structure counters over all places.
    pub pool: PlaceStats,
    /// Oracle verdict: `Err` carries a description of the mismatch.
    pub verify: Result<(), String>,
    /// Workload-specific metrics.
    pub metrics: Vec<(&'static str, f64)>,
}

impl WorkloadReport {
    /// `true` when the run matched its sequential oracle.
    pub fn verified(&self) -> bool {
        self.verify.is_ok()
    }

    /// Panics with full context when the run failed verification.
    pub fn expect_verified(&self) -> &Self {
        if let Err(e) = &self.verify {
            panic!(
                "{} on {} (P={}, k={}): oracle mismatch: {e}",
                self.workload, self.kind, self.places, self.params.k
            );
        }
        self
    }
}

/// Runs `workload` once on a fresh pool of `kind` and verifies the result.
///
/// The same `params` value builds the pool (see [`PoolKind::build`]) *and*
/// gives the executor its per-task `k`, so the two cannot disagree.
pub fn run_workload<W: Workload + ?Sized>(
    workload: &W,
    kind: PoolKind,
    places: usize,
    params: PoolParams,
) -> WorkloadReport {
    let exec = workload.executor(&params);
    let roots = workload.seed(&exec, &params);
    let run = run_on_kind(kind, places, params, &exec, roots);
    report(workload, &exec, kind, places, params, run)
}

/// Streamed variant of [`run_workload`]: the instance's seeds reach the
/// pool through sharded ingestion instead of being preseeded as roots.
///
/// The seeds are split round-robin over `producers` external threads; each
/// producer submits its share through its own
/// [`priosched_core::IngestHandle`] in chunks of `chunk` tasks (one lane
/// lock per chunk; `0` means one chunk per producer), concurrently with
/// the pool draining. With `params.lane_capacity` set the lanes are
/// bounded and producers use the *blocking* submit path — they park under
/// backpressure until the workers drain room — so a small capacity
/// exercises the full shed/park/wake machinery without changing the
/// semantics. The run returns at quiescence and is verified against the
/// same sequential oracle as a preseeded run — which is the point: the
/// oracle must not be able to tell the sharded (or backpressured) path
/// apart.
pub fn run_workload_streamed<W: Workload + ?Sized>(
    workload: &W,
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    producers: usize,
    chunk: usize,
) -> WorkloadReport {
    assert!(producers > 0, "streamed runs need at least one producer");
    let exec = workload.executor(&params);
    let seeds = workload.seed(&exec, &params);
    let mut shards: Vec<Vec<(u64, usize, W::Task)>> = (0..producers).map(|_| Vec::new()).collect();
    for (i, seed) in seeds.into_iter().enumerate() {
        shards[i % producers].push(seed);
    }
    let ingress = IngressLanes::with_capacity(places, params.lane_capacity);
    let run = std::thread::scope(|s| {
        // Handles are minted before the streamed run starts (a run that
        // observes zero producers terminates); each producer thread owns
        // one and drops it when its shard is fully submitted. Blocking
        // submits park under backpressure; `Err` only means the run
        // aborted (a task panicked), in which case the producer stops —
        // the unwind is re-raised by `run_stream_on_kind` itself.
        for shard in shards {
            let mut handle = ingress.handle();
            s.spawn(move || {
                let mut batch: Vec<(u64, W::Task)> = Vec::new();
                let mut batch_k: Option<usize> = None;
                for (prio, k, task) in shard {
                    if batch_k != Some(k) || (chunk > 0 && batch.len() >= chunk) {
                        if let Some(prev_k) = batch_k {
                            if handle.submit_batch(prev_k, &mut batch).is_err() {
                                return;
                            }
                        }
                        batch_k = Some(k);
                    }
                    batch.push((prio, task));
                }
                if let Some(prev_k) = batch_k {
                    let _ = handle.submit_batch(prev_k, &mut batch);
                }
            });
        }
        run_stream_on_kind(kind, places, params, &exec, &ingress)
    });
    report(workload, &exec, kind, places, params, run)
}

/// Verifies `run` against the workload's oracle and folds it into a
/// [`WorkloadReport`] — the one place a report is built.
pub(crate) fn report<W: Workload + ?Sized>(
    workload: &W,
    exec: &W::Exec<'_>,
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    run: RunStats,
) -> WorkloadReport {
    WorkloadReport {
        workload: workload.name(),
        kind,
        places,
        params,
        executed: run.executed,
        dead: run.dead,
        elapsed: run.elapsed,
        verify: workload.verify(exec, &run),
        metrics: workload.metrics(exec, &run),
        pool: run.pool,
    }
}

/// Object-safe view over [`Workload`], so heterogeneous workloads (whose
/// task types differ) can share one sweep loop.
pub trait DynWorkload {
    /// [`Workload::name`] of the underlying workload.
    fn name(&self) -> &'static str;
    /// Runs one `(kind, places, params)` cell (see [`run_workload`]).
    fn run(&self, kind: PoolKind, places: usize, params: PoolParams) -> WorkloadReport;
    /// Runs one streamed cell: seeds fed through `producers` ingestion
    /// threads in chunks of `chunk` (see [`run_workload_streamed`]).
    fn run_streamed(
        &self,
        kind: PoolKind,
        places: usize,
        params: PoolParams,
        producers: usize,
        chunk: usize,
    ) -> WorkloadReport;
}

impl<W: Workload> DynWorkload for W {
    fn name(&self) -> &'static str {
        Workload::name(self)
    }

    fn run(&self, kind: PoolKind, places: usize, params: PoolParams) -> WorkloadReport {
        run_workload(self, kind, places, params)
    }

    fn run_streamed(
        &self,
        kind: PoolKind,
        places: usize,
        params: PoolParams,
        producers: usize,
        chunk: usize,
    ) -> WorkloadReport {
        run_workload_streamed(self, kind, places, params, producers, chunk)
    }
}

/// Deterministic xorshift64 used by the instance generators (kept local so
/// instances are reproducible bit-for-bit across sessions).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SplitRng(pub u64);

impl SplitRng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform float in `(-0.5, 0.5)`.
    pub fn next_centered(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "oracle mismatch")]
    fn expect_verified_panics_on_mismatch() {
        let report = WorkloadReport {
            workload: "sssp",
            kind: PoolKind::Hybrid,
            places: 4,
            params: PoolParams::default(),
            executed: 0,
            dead: 0,
            elapsed: Duration::ZERO,
            pool: PlaceStats::default(),
            verify: Err("distances diverge".into()),
            metrics: Vec::new(),
        };
        report.expect_verified();
    }
}
