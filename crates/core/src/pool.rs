//! The scheduling-system ↔ data-structure interface.
//!
//! §2.1: "The scheduling system interacts with the data structure using two
//! functions, push and pop. Both functions are executed in the context of a
//! specific place, therefore giving access to the local component of the
//! priority data structure for the given place."
//!
//! A [`TaskPool`] is the shared, global component; a [`PoolHandle`] is one
//! place's view, combining access to the global component with exclusive
//! ownership of the place-local component (local priority queue, cursors,
//! RNG). Handles are created per worker thread and are `Send` but not
//! `Sync` — the asymmetric access scheme of §2.1 realized through Rust
//! ownership.

use crate::stats::PlaceStats;
use std::sync::Arc;

/// Contract of every priority scheduling data structure in this crate.
///
/// Guarantees required by the scheduler (§2.1):
/// * every pushed task is returned by exactly one successful `pop`;
/// * `pop` may fail spuriously (return `None` while tasks exist) only in
///   states where some other thread is making progress or where retrying
///   can observe the missing tasks (the scheduler retries until the global
///   pending-task count reaches zero);
/// * the priority ordering of returned tasks is structure-specific — see
///   each implementation for its ρ-relaxation bound.
pub trait TaskPool<T: Send + 'static>: Send + Sync + 'static {
    /// The place-local view.
    type Handle: PoolHandle<T>;

    /// Number of places this pool was configured for.
    fn num_places(&self) -> usize;

    /// Creates the handle for `place`.
    ///
    /// # Panics
    /// Panics if `place >= num_places()` or if a live handle for this place
    /// already exists (place-local components are single-owner).
    fn handle(self: &Arc<Self>, place: usize) -> Self::Handle;
}

/// One place's view of a [`TaskPool`].
pub trait PoolHandle<T: Send>: Send {
    /// Stores a task for later execution (§2.1 `push`).
    ///
    /// `prio`: priority key, smaller = higher priority.
    /// `k`: per-task relaxation bound (§2.2); what it means per kind is
    /// listed under [`PoolParams::k`].
    fn push(&mut self, prio: u64, k: usize, task: T);

    /// Retrieves some task together with its priority key and removes it
    /// from the pool (§2.1 `pop`).
    ///
    /// `None` means "nothing found right now" — possibly spuriously. The
    /// priority is the key the task was pushed with; the scheduler threads
    /// it into failure reports so a quarantined task can be identified.
    fn pop_entry(&mut self) -> Option<(u64, T)>;

    /// Retrieves some task and removes it from the pool, discarding the
    /// priority key. Convenience wrapper over [`PoolHandle::pop_entry`].
    fn pop(&mut self) -> Option<T> {
        self.pop_entry().map(|(_, task)| task)
    }

    /// Stores a batch of `(prio, task)` pairs sharing one relaxation bound
    /// `k`, draining `batch`.
    ///
    /// Semantically equivalent to pushing the pairs in order with scalar
    /// [`PoolHandle::push`] — same exactly-once guarantee, same per-task
    /// relaxation accounting (each batch element counts individually
    /// against `k`/ρ budgets; batching amortizes *synchronization*, never
    /// *ordering slack*). Implementations amortize the shared-state work:
    /// one lock acquisition, one item-pool refill, one publication CAS,
    /// and one local-queue repair per batch instead of per task.
    ///
    /// The default implementation loops over scalar `push`.
    fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) {
        for (prio, task) in batch.drain(..) {
            self.push(prio, k, task);
        }
    }

    /// Snapshot of this place's operation counters.
    fn stats(&self) -> PlaceStats;
}

/// Structure-tuning parameters shared by every pool-construction site.
///
/// Collects the knobs that used to be threaded separately through each
/// harness config (`kmax` for the centralized structure, the MultiQueue's
/// `c` and stickiness), so a runtime-selected build — see
/// [`PoolKind::build`] — cannot silently drop one of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Relaxation parameter `k` (§2.2): the per-task bound spawners pass
    /// with every push. No kind reads it at construction. Per kind:
    ///
    /// * work-stealing ignores it;
    /// * centralized places the task within the `k` slots past the tail
    ///   (the k-window), `k` clamped to [`PoolParams::kmax`];
    /// * hybrid keeps the task in its place's unpublished local list for
    ///   at most `k` of that place's later pushes;
    /// * the MultiQueue and the structural kind let the task wait in the
    ///   place's insertion buffer behind at most `min(k, 16) − 1` others;
    ///   `k ≤ 1` lands it on a queue at once.
    pub k: usize,
    /// `kmax` for the centralized structure (paper: 512); per-task `k`
    /// values are clamped to it.
    pub kmax: u32,
    /// Per-lane capacity of the ingress lanes in streamed runs and
    /// services (`None` = unbounded). With a bound set, `try_submit`
    /// sheds when every lane is full and blocking `submit` parks until a
    /// drain frees room — see `priosched_core::ingest`. Ignored by
    /// closed-world (preseeded) runs, which have no lanes.
    pub lane_capacity: Option<usize>,
    /// What happens when a task panics — see [`FaultPolicy`]. Defaults to
    /// [`FaultPolicy::AbortRun`], the historical behavior.
    pub fault_policy: FaultPolicy,
    /// Queues-per-place factor `c` of the relaxed MultiQueue (the pool
    /// keeps `c·P` queues). Defaults to [`DEFAULT_MQ_C`]; values below 1
    /// are clamped to 1 at construction. Ignored by the other kinds (the
    /// structural kind keeps one queue per place).
    pub mq_c: usize,
    /// MultiQueue stickiness (§4 of the Multi-Queues paper): after a
    /// successful pop a place keeps popping the same queue for this many
    /// further pops before probing two fresh random queues. 0 (the
    /// default) is the classic two-choice pop. Ignored by the other
    /// kinds.
    pub mq_stickiness: usize,
    /// Enables the MultiQueue's rank-error instrument: a shadow exact
    /// multiset records, for every pop, how many strictly better
    /// priorities were queued ([`crate::stats::PlaceStats::rank_pops`]
    /// and friends). The shadow serializes every operation — keep this
    /// off (the default) in any timing measurement. Honoured by the
    /// MultiQueue and the structural kind; ignored by the paper's three,
    /// whose rank behaviour is ρ-bounded by construction.
    pub rank_error: bool,
}

/// The paper's default relaxation parameter (k = 512, found to be a good
/// compromise on the 80-core testbed).
pub const DEFAULT_K: usize = 512;

/// The paper's `kmax` for the centralized structure.
pub const DEFAULT_KMAX: u32 = 512;

/// Default MultiQueue queues-per-place factor (re-exported from
/// [`crate::multiqueue`] for parameter-block callers).
pub use crate::multiqueue::DEFAULT_MQ_C;

impl Default for PoolParams {
    fn default() -> Self {
        PoolParams {
            k: DEFAULT_K,
            kmax: DEFAULT_KMAX,
            lane_capacity: None,
            fault_policy: FaultPolicy::AbortRun,
            mq_c: DEFAULT_MQ_C,
            mq_stickiness: 0,
            rank_error: false,
        }
    }
}

impl PoolParams {
    /// Parameters for relaxation bound `k`, with `kmax` widened so the
    /// centralized structure admits the requested `k` (Figure 5 sweeps `k`
    /// beyond the paper's fixed `kmax = 512`, which would otherwise clamp).
    pub fn with_k(k: usize) -> Self {
        PoolParams {
            k,
            kmax: (k.min(u32::MAX as usize) as u32).max(DEFAULT_KMAX),
            ..PoolParams::default()
        }
    }

    /// The same parameters with a per-lane ingress capacity (see
    /// [`PoolParams::lane_capacity`]).
    pub fn with_lane_capacity(mut self, capacity: Option<usize>) -> Self {
        self.lane_capacity = capacity;
        self
    }

    /// The same parameters with a fault policy (see [`FaultPolicy`]).
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// The same parameters with the MultiQueue's queues-per-place factor
    /// (see [`PoolParams::mq_c`]).
    pub fn with_mq_c(mut self, c: usize) -> Self {
        self.mq_c = c;
        self
    }

    /// The same parameters with the MultiQueue's stickiness (see
    /// [`PoolParams::mq_stickiness`]).
    pub fn with_mq_stickiness(mut self, stickiness: usize) -> Self {
        self.mq_stickiness = stickiness;
        self
    }

    /// The same parameters with the rank-error instrument toggled (see
    /// [`PoolParams::rank_error`]).
    pub fn with_rank_error(mut self, enabled: bool) -> Self {
        self.rank_error = enabled;
        self
    }
}

/// What a worker does when a task's `execute` panics.
///
/// Either way the panic never crosses a worker thread boundary
/// uncontrolled: the worker catches it, records a
/// `FailureReport` (place, priority, panic message), and decrements the
/// pending count *after* recording — so the quiescence/read-order argument
/// (see `priosched_core::ingest`) holds in the presence of failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultPolicy {
    /// A single panicking task aborts the whole run: the abort flag is
    /// raised before the panicked task's pending decrement, sibling
    /// workers stop at the next loop head, blocked and future producers
    /// get `SubmitError::Aborted`, and the panic payload is re-surfaced —
    /// `Scheduler::run`/`run_stream` resume the panic on the caller,
    /// while `PoolService::join`/`shutdown` report it as a typed error.
    #[default]
    AbortRun,
    /// A panicking task is quarantined: its failure is recorded on the run
    /// stats (`RunStats::failures`), the pending count is decremented
    /// exactly as a successful completion would, and sibling workers (and
    /// producers) continue unaffected. The run still reaches quiescence
    /// with exact accounting: `executed + dead + failed` covers every task
    /// that entered the pool.
    Isolate,
}

/// Runtime-selectable structure kind, used by the figure harness and
/// examples to sweep over data structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// §3.1 — per-place priority queues with steal-half; no global ordering.
    WorkStealing,
    /// §3.2/§4.1 — global array with ρ = k relaxation.
    Centralized,
    /// §3.3/§4.2 — local lists + global list + spying; ρ = P·k.
    Hybrid,
    /// §5.3 structural relaxation: the MultiQueue's exact configuration
    /// ([`crate::RelaxedMultiQueue::structural`]) — one queue per place, a
    /// pop over every top; a pop ignores at most the other places'
    /// buffered tasks, of any age: ρ = (P−1)·(min(k, 16)−1).
    Structural,
    /// Relaxed MultiQueue (arXiv 2109.00657) — c·P sequential queues with
    /// two-choice pop; probabilistic relaxation, **no** ρ bound.
    MultiQueue,
}

impl PoolKind {
    /// All kinds evaluated in the paper's figures (the structural kind is
    /// the paper's future work and not part of its evaluation).
    pub const PAPER: [PoolKind; 3] = [
        PoolKind::WorkStealing,
        PoolKind::Centralized,
        PoolKind::Hybrid,
    ];

    /// Every kind in the crate, including the structural kind and the
    /// relaxed MultiQueue — the sweep set for correctness
    /// matrices and the workload harness. Use [`PoolKind::PAPER`] where
    /// figure parity matters.
    pub const ALL: [PoolKind; 5] = [
        PoolKind::WorkStealing,
        PoolKind::Centralized,
        PoolKind::Hybrid,
        PoolKind::Structural,
        PoolKind::MultiQueue,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PoolKind::WorkStealing => "Work-Stealing",
            PoolKind::Centralized => "Centralized",
            PoolKind::Hybrid => "Hybrid",
            PoolKind::Structural => "Structural",
            PoolKind::MultiQueue => "MultiQueue",
        }
    }

    /// Snake-case identifier for machine-readable output (benchmark metric
    /// names, CLI arguments).
    pub fn id(self) -> &'static str {
        match self {
            PoolKind::WorkStealing => "work_stealing",
            PoolKind::Centralized => "centralized",
            PoolKind::Hybrid => "hybrid",
            PoolKind::Structural => "structural",
            PoolKind::MultiQueue => "multiqueue",
        }
    }
}

impl std::str::FromStr for PoolKind {
    type Err = String;

    /// Accepts the snake-case [`PoolKind::id`], the figure-legend
    /// [`PoolKind::label`] (case-insensitive), or the short aliases `ws`
    /// and `mq`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "work_stealing" | "work-stealing" | "ws" => Ok(PoolKind::WorkStealing),
            "centralized" => Ok(PoolKind::Centralized),
            "hybrid" => Ok(PoolKind::Hybrid),
            "structural" => Ok(PoolKind::Structural),
            "multiqueue" | "multi_queue" | "multi-queue" | "mq" => Ok(PoolKind::MultiQueue),
            _ => Err(format!(
                "unknown pool kind {s:?} (expected one of: work_stealing, \
                 centralized, hybrid, structural, multiqueue)"
            )),
        }
    }
}

impl std::fmt::Display for PoolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(PoolKind::WorkStealing.label(), "Work-Stealing");
        assert_eq!(PoolKind::Centralized.label(), "Centralized");
        assert_eq!(PoolKind::Hybrid.label(), "Hybrid");
        assert_eq!(PoolKind::PAPER.len(), 3);
    }

    #[test]
    fn all_extends_paper_with_extensions() {
        assert_eq!(PoolKind::ALL.len(), 5);
        for kind in PoolKind::PAPER {
            assert!(PoolKind::ALL.contains(&kind));
        }
        for extension in [PoolKind::Structural, PoolKind::MultiQueue] {
            assert!(PoolKind::ALL.contains(&extension));
            assert!(!PoolKind::PAPER.contains(&extension));
        }
    }

    #[test]
    fn kind_ids_round_trip_through_from_str() {
        for kind in PoolKind::ALL {
            assert_eq!(kind.id().parse::<PoolKind>().unwrap(), kind);
            assert_eq!(kind.label().parse::<PoolKind>().unwrap(), kind);
        }
        assert_eq!("ws".parse::<PoolKind>().unwrap(), PoolKind::WorkStealing);
        assert_eq!("mq".parse::<PoolKind>().unwrap(), PoolKind::MultiQueue);
        assert_eq!(
            "multi_queue".parse::<PoolKind>().unwrap(),
            PoolKind::MultiQueue
        );
        assert!("bogus".parse::<PoolKind>().is_err());
    }

    #[test]
    fn pool_params_defaults_match_paper() {
        let p = PoolParams::default();
        assert_eq!(p.k, 512);
        assert_eq!(p.kmax, 512);
        // with_k keeps kmax wide enough to admit the requested k.
        assert_eq!(PoolParams::with_k(8).kmax, 512);
        assert_eq!(PoolParams::with_k(8192).kmax, 8192);
        assert_eq!(PoolParams::with_k(8192).k, 8192);
        // MultiQueue knobs: c = 2, no stickiness, instrument off.
        assert_eq!(p.mq_c, DEFAULT_MQ_C);
        assert_eq!(p.mq_stickiness, 0);
        assert!(!p.rank_error);
        let q = p.with_mq_c(4).with_mq_stickiness(8).with_rank_error(true);
        assert_eq!((q.mq_c, q.mq_stickiness, q.rank_error), (4, 8, true));
    }
}
