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
/// Guarantees required by the scheduler (§2.1), each checked for every
/// [`PoolKind`] by `tests/pool_contract.rs`, from outside the pools:
/// 1. **Exactly once:** every pushed task is returned by exactly one
///    successful `pop`, with the priority it was pushed at.
/// 2. **Reachability:** `pop` may fail spuriously (return `None` while
///    tasks exist) only in states where some other thread is making
///    progress or where retrying can observe the missing tasks — one place
///    popping alone drains every task, whichever handle pushed it, live or
///    dropped (the scheduler retries until the global pending-task count
///    reaches zero).
/// 3. **ρ:** a pop passes over at most the tasks its kind's relaxation
///    bound allows ([`PoolParams::k`] lists them per kind).
/// 4. **Exact order at one place** for every kind but the two-choice
///    MultiQueue.
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

/// The parameters every pool-construction site shares: the relaxation
/// bound, the ingress lanes' capacity and the fault policy. Whatever else a
/// kind needs at construction, [`PoolKind::build`] derives or fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Relaxation parameter `k` (§2.2): the per-task bound spawners pass
    /// with every push. Only the centralized kind reads it at construction.
    /// Per kind:
    ///
    /// * work-stealing ignores it;
    /// * centralized places the task within the `k` slots past the tail
    ///   (the k-window), `k` clamped to `max(k, 512)`, the bound the pool is
    ///   built for;
    /// * hybrid keeps the task in its place's unpublished local list for
    ///   at most `k` of that place's later pushes;
    /// * the MultiQueue and the structural kind let the task wait in the
    ///   place's insertion buffer behind at most `min(k, 16) − 1` others;
    ///   `k ≤ 1` lands it on a queue at once.
    pub k: usize,
    /// Per-lane capacity of the ingress lanes in streamed runs and
    /// services (`None` = unbounded). With a bound set, `try_submit`
    /// sheds when every lane is full and blocking `submit` parks until a
    /// drain frees room — see `priosched_core::ingest`. Ignored by
    /// closed-world runs, whose lanes hold only the roots, submitted
    /// before any worker starts.
    pub lane_capacity: Option<usize>,
    /// What happens when a task panics — see [`FaultPolicy`]. Defaults to
    /// [`FaultPolicy::AbortRun`], the historical behavior.
    pub fault_policy: FaultPolicy,
}

/// The paper's default relaxation parameter (k = 512, found to be a good
/// compromise on the 80-core testbed).
pub const DEFAULT_K: usize = 512;

impl Default for PoolParams {
    fn default() -> Self {
        PoolParams::with_k(DEFAULT_K)
    }
}

impl PoolParams {
    /// Parameters for relaxation bound `k`, with unbounded lanes and
    /// [`FaultPolicy::AbortRun`].
    pub fn with_k(k: usize) -> Self {
        PoolParams {
            k,
            lane_capacity: None,
            fault_policy: FaultPolicy::AbortRun,
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
    /// A single panicking task aborts the whole run: the abort gate is
    /// raised before the panicked task's pending decrement, sibling
    /// workers stop at the next loop head, blocked and future producers
    /// get `SubmitError::Aborted`, and the panic payload is re-surfaced —
    /// `run_on_kind`/`run_stream_on_kind` resume the panic on the caller,
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
        assert_eq!(p, PoolParams::with_k(512));
        assert_eq!(p.lane_capacity, None);
        assert_eq!(p.fault_policy, FaultPolicy::AbortRun);
        assert_eq!(PoolParams::with_k(8192).k, 8192);
    }
}
