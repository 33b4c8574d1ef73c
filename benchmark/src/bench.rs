//! What the four workloads have in common: instance sizes, the outcome of
//! one run, and the trait the measuring loop drives.

use crate::trace::Tracer;
use priosched_core::PoolKind;

/// The four workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = [
    "sssp_dense",
    "sssp_sparse",
    "service_stream",
    "net_pipeline",
];

/// Instance and probe sizes. Two fixed sets: the measured one and a tiny
/// one for `--smoke`; nothing else scales with the machine or the clock.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub dense_n: usize,
    pub sparse_n: usize,
    /// Source nodes the lockstep count of a kind that wastes work is summed
    /// over.
    pub lockstep_sources: u32,
    /// Countdown jobs one producer streams into the service in one run,
    /// and how many such segments the tape has.
    pub service_jobs: usize,
    pub service_segments: usize,
    /// Countdown jobs sent over the one TCP connection in one run, and how
    /// many such segments the tape has.
    pub net_jobs: usize,
    pub net_segments: usize,
    /// Layer probes divide their iteration counts by this.
    pub probe_div: usize,
    /// In-process repeats of the set-up; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dense_n: 6000,
        sparse_n: 200_000,
        lockstep_sources: 8,
        service_jobs: 131_072,
        service_segments: 4,
        net_jobs: 65_536,
        net_segments: 8,
        probe_div: 1,
        setup_repeats: 7,
    };

    pub const SMOKE: Sizes = Sizes {
        dense_n: 300,
        sparse_n: 4000,
        lockstep_sources: 2,
        service_jobs: 4096,
        service_segments: 1,
        net_jobs: 2048,
        net_segments: 1,
        probe_div: 64,
        setup_repeats: 1,
    };
}

/// Dense SSSP: the paper's edge probability and relaxation bound.
pub const DENSE_P: f64 = 0.5;
pub const DENSE_K: usize = 512;
/// Sparse SSSP: mean degree 8 and a small k, so the pool runs in its
/// strict-ordering mode.
pub const SPARSE_DEGREE: f64 = 8.0;
pub const SPARSE_K: usize = 8;
/// Service and net: relaxed local path, lanes bounded for backpressure.
pub const STREAM_K: usize = 512;
pub const LANE_CAPACITY: usize = 1024;

/// A named value with its unit, as printed and as listed in
/// `BENCHMARK.json`.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// One verified run of one kind on a fresh pool, service or server.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Wall time of the run, oracle check and join-kick stalls excluded.
    pub secs: f64,
    /// Operations (nodes, jobs) the run was asked to do, and how many of
    /// them its oracle found wrong, lost, duplicated or refused.
    pub attempted: u64,
    pub failed: u64,
    /// Times the run stalled on the harness's workaround for the lost join
    /// wakeup (`net::Client::join`); `secs` leaves those stalls out.
    pub join_kicks: u64,
}

/// A generated instance with its sequential oracle.
pub trait Bench: Sync {
    /// The oracle's useful-work count of one run: reachable nodes, or
    /// executions the job tape needs. Wasted work does not raise it.
    fn items(&self) -> u64;

    /// Runs the instance once on `kind` and checks it against the oracle.
    /// All kinds of rep `rep` get the same input.
    fn run(&self, kind: PoolKind, rep: u32, tr: &mut Tracer) -> Outcome;

    /// Useful share of the work of `kind`, where the workload can measure
    /// it by a count that repeats exactly; `None` where the share is the
    /// operations that did not fail.
    fn counted_useful_frac(&self, _kind: PoolKind) -> Option<f64> {
        None
    }
}
