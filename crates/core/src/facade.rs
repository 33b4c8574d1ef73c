//! Runtime pool construction — the one place a [`PoolKind`] becomes a pool.
//!
//! Harnesses, examples, and tests all want the same thing: "give me a pool
//! of *this* kind for *P* places with *these* parameters". Every pool has
//! one lifecycle — built here, run until its work is done, dropped — and
//! callers either
//!
//! * call [`run_on_kind`] / [`run_stream_on_kind`] to schedule an executor
//!   on a fresh pool that the call drops when the run ends;
//! * call [`PoolBuilder::service`] for a long-lived [`PoolService`] whose
//!   pool lives until the service shuts down; or
//! * call [`PoolKind::build`] / [`PoolBuilder::build`] when they need to
//!   drive place handles themselves (lockstep runners, raw-pool probes)
//!   and receive an [`AnyPool`] — a thin enum over the five kinds
//!   whose [`PoolHandle`] forwards every operation, `push_batch` included,
//!   to the wrapped handle. The per-operation cost is one predictable
//!   branch.
//!
//! Each structure's constructor is named exactly once, in
//! [`PoolKind::build`]. The scheduling loop (`place_loop` and its
//! [`crate::SpawnCtx`]) is not generic: it drives one
//! `&mut dyn PoolHandle<T>`, so every push and pop is a virtual call
//! whatever the caller does. What the run helpers choose is the vtable
//! behind it: they unwrap the built [`AnyPool`] back to its concrete type
//! (`on_concrete!`) before the workers take their handles, so the vtable
//! points at the concrete handle's methods and not at [`AnyHandle`]'s
//! `match`. A [`PoolService`]'s workers take [`AnyHandle`]s, one `match`
//! behind each virtual call.
//!
//! Construction semantics are fixed here once, and no caller can set them
//! otherwise: the centralized structure is built for
//! `kmax = max(`[`PoolParams::k`]`, 512)` (§4.1.2's kmax, widened when a
//! sweep asks for more), the MultiQueue with [`DEFAULT_MQ_C`] queues per
//! place, the structural kind — the MultiQueue's exact configuration — with
//! one, and the other two take only the place count. For every kind but
//! centralized, `k` arrives with each push alone.

use crate::centralized::{CentralizedHandle, CentralizedKPriority, DEFAULT_KMAX};
use crate::hybrid::{HybridHandle, HybridKPriority};
use crate::ingest::IngressLanes;
use crate::multiqueue::{MultiQueueHandle, RelaxedMultiQueue, DEFAULT_MQ_C};
use crate::pool::{PoolHandle, PoolKind, PoolParams, TaskPool};
use crate::scheduler::{run_scoped, RunStats, TaskExecutor};
use crate::service::PoolService;
use crate::stats::PlaceStats;
use crate::workstealing::{PriorityWorkStealing, WorkStealingHandle};
use std::sync::Arc;

/// A [`TaskPool`] of any of the five kinds, selected at runtime.
///
/// Obtained from [`PoolKind::build`], for callers that drive the pool's
/// handles themselves; the run helpers unwrap it (see the module docs).
pub enum AnyPool<T: Send + 'static> {
    /// §3.1 work-stealing.
    WorkStealing(Arc<PriorityWorkStealing<T>>),
    /// §3.2/§4.1 centralized k-priority.
    Centralized(Arc<CentralizedKPriority<T>>),
    /// §3.3/§4.2 hybrid k-priority.
    Hybrid(Arc<HybridKPriority<T>>),
    /// §5.3 structural relaxation: [`RelaxedMultiQueue::structural`].
    Structural(Arc<RelaxedMultiQueue<T>>),
    /// Relaxed MultiQueue (arXiv 2109.00657).
    MultiQueue(Arc<RelaxedMultiQueue<T>>),
}

/// Evaluates `$body` with `$pool` bound to the concrete `Arc<Structure>`
/// inside an [`AnyPool`] — one arm, hence one monomorphization of `$body`,
/// per structure.
macro_rules! on_concrete {
    ($any:expr, |$pool:ident| $body:expr) => {
        match $any {
            AnyPool::WorkStealing($pool) => $body,
            AnyPool::Centralized($pool) => $body,
            AnyPool::Hybrid($pool) => $body,
            AnyPool::Structural($pool) | AnyPool::MultiQueue($pool) => $body,
        }
    };
}

impl<T: Send + 'static> AnyPool<T> {
    /// The kind this pool was built as.
    pub fn kind(&self) -> PoolKind {
        match self {
            AnyPool::WorkStealing(_) => PoolKind::WorkStealing,
            AnyPool::Centralized(_) => PoolKind::Centralized,
            AnyPool::Hybrid(_) => PoolKind::Hybrid,
            AnyPool::Structural(_) => PoolKind::Structural,
            AnyPool::MultiQueue(_) => PoolKind::MultiQueue,
        }
    }
}

/// One place's view of an [`AnyPool`]; forwards every operation — scalar
/// and `push_batch` — to the wrapped concrete handle.
pub enum AnyHandle<T: Send + 'static> {
    /// Handle of [`PriorityWorkStealing`].
    WorkStealing(WorkStealingHandle<T>),
    /// Handle of [`CentralizedKPriority`].
    Centralized(CentralizedHandle<T>),
    /// Handle of [`HybridKPriority`].
    Hybrid(HybridHandle<T>),
    /// Handle of the structural [`RelaxedMultiQueue`].
    Structural(MultiQueueHandle<T>),
    /// Handle of [`RelaxedMultiQueue`].
    MultiQueue(MultiQueueHandle<T>),
}

impl<T: Send + 'static> TaskPool<T> for AnyPool<T> {
    type Handle = AnyHandle<T>;

    fn num_places(&self) -> usize {
        on_concrete!(self, |p| p.num_places())
    }

    fn handle(self: &Arc<Self>, place: usize) -> AnyHandle<T> {
        match &**self {
            AnyPool::WorkStealing(p) => AnyHandle::WorkStealing(p.handle(place)),
            AnyPool::Centralized(p) => AnyHandle::Centralized(p.handle(place)),
            AnyPool::Hybrid(p) => AnyHandle::Hybrid(p.handle(place)),
            AnyPool::Structural(p) => AnyHandle::Structural(p.handle(place)),
            AnyPool::MultiQueue(p) => AnyHandle::MultiQueue(p.handle(place)),
        }
    }
}

impl<T: Send + 'static> PoolHandle<T> for AnyHandle<T> {
    fn push(&mut self, prio: u64, k: usize, task: T) {
        match self {
            AnyHandle::WorkStealing(h) => h.push(prio, k, task),
            AnyHandle::Centralized(h) => h.push(prio, k, task),
            AnyHandle::Hybrid(h) => h.push(prio, k, task),
            AnyHandle::Structural(h) | AnyHandle::MultiQueue(h) => h.push(prio, k, task),
        }
    }

    fn pop_entry(&mut self) -> Option<(u64, T)> {
        match self {
            AnyHandle::WorkStealing(h) => h.pop_entry(),
            AnyHandle::Centralized(h) => h.pop_entry(),
            AnyHandle::Hybrid(h) => h.pop_entry(),
            AnyHandle::Structural(h) | AnyHandle::MultiQueue(h) => h.pop_entry(),
        }
    }

    fn push_batch(&mut self, k: usize, batch: &mut Vec<(u64, T)>) {
        match self {
            AnyHandle::WorkStealing(h) => h.push_batch(k, batch),
            AnyHandle::Centralized(h) => h.push_batch(k, batch),
            AnyHandle::Hybrid(h) => h.push_batch(k, batch),
            AnyHandle::Structural(h) | AnyHandle::MultiQueue(h) => h.push_batch(k, batch),
        }
    }

    fn stats(&self) -> PlaceStats {
        match self {
            AnyHandle::WorkStealing(h) => h.stats(),
            AnyHandle::Centralized(h) => h.stats(),
            AnyHandle::Hybrid(h) => h.stats(),
            AnyHandle::Structural(h) | AnyHandle::MultiQueue(h) => h.stats(),
        }
    }
}

impl PoolKind {
    /// Builds a pool of this kind for `places` places.
    ///
    /// The routing is the contract: the centralized structure gets
    /// `kmax = max(params.k, 512)` (clamped to `u32`), so it admits the
    /// requested `k` and never probes less than the paper's window; the
    /// MultiQueue gets [`DEFAULT_MQ_C`] queues per place and the structural
    /// kind one; work-stealing and hybrid take only the place count. Every
    /// kind's relaxation is governed by the per-task `k` of each push.
    pub fn build<T: Send + 'static>(self, places: usize, params: PoolParams) -> AnyPool<T> {
        match self {
            PoolKind::WorkStealing => {
                AnyPool::WorkStealing(Arc::new(PriorityWorkStealing::new(places)))
            }
            PoolKind::Centralized => {
                let kmax = u32::try_from(params.k)
                    .unwrap_or(u32::MAX)
                    .max(DEFAULT_KMAX);
                AnyPool::Centralized(Arc::new(CentralizedKPriority::new(places, kmax)))
            }
            PoolKind::Hybrid => AnyPool::Hybrid(Arc::new(HybridKPriority::new(places))),
            PoolKind::Structural => {
                AnyPool::Structural(Arc::new(RelaxedMultiQueue::structural(places)))
            }
            PoolKind::MultiQueue => {
                AnyPool::MultiQueue(Arc::new(RelaxedMultiQueue::new(places, DEFAULT_MQ_C)))
            }
        }
    }
}

/// Runs `executor` over `roots` on a freshly built pool of `kind`, one
/// worker thread per place, and returns when every task transitively
/// spawned has finished; the pool is dropped on the way out.
///
/// Once the pool is built, the roots are submitted into fresh unbounded
/// ingress lanes through one producer handle, dropped before any worker
/// starts; then the places run over those lanes as in
/// [`run_stream_on_kind`]. Under [`crate::FaultPolicy::AbortRun`] (the
/// default) a task panic is resumed on the caller; under `Isolate` it is
/// reported in [`RunStats::failures`].
pub fn run_on_kind<T, E>(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    executor: &E,
    roots: Vec<(u64, usize, T)>,
) -> RunStats
where
    T: Send + 'static,
    E: TaskExecutor<T>,
{
    on_concrete!(kind.build(places, params), |pool| {
        let lanes = IngressLanes::new(places);
        let mut seed = lanes.handle();
        for (prio, k, task) in roots {
            let accepted = seed.submit(prio, k, task).is_ok();
            assert!(accepted, "fresh unbounded lanes accept every root");
        }
        drop(seed);
        run_scoped(&pool, params.fault_policy, executor, &lanes)
    })
}

/// Streamed sibling of [`run_on_kind`]: runs `executor` over everything
/// submitted through `ingress` handles, before or while the pool drains,
/// on a freshly built pool of `kind` that is dropped when the run ends.
///
/// Returns at **quiescence**: the outstanding-task counter is zero, every
/// lane is empty, and every [`crate::IngestHandle`] has been dropped. Mint
/// the producer handles *before* calling this — a run that observes zero
/// producers and no queued tasks terminates.
///
/// # Panics
/// Panics if `ingress` does not have one lane per place.
pub fn run_stream_on_kind<T, E>(
    kind: PoolKind,
    places: usize,
    params: PoolParams,
    executor: &E,
    ingress: &IngressLanes<T>,
) -> RunStats
where
    T: Send + 'static,
    E: TaskExecutor<T>,
{
    on_concrete!(kind.build(places, params), |pool| {
        run_scoped(&pool, params.fault_policy, executor, ingress)
    })
}

/// Fluent front door over [`PoolKind::build`] and
/// [`PoolBuilder::service`].
///
/// ```
/// use priosched_core::{PoolBuilder, PoolHandle, PoolKind, TaskPool};
///
/// let pool = PoolBuilder::new(PoolKind::Centralized)
///     .places(2)
///     .k(64)
///     .build::<u64>();
/// let mut h = pool.handle(0);
/// h.push(7, 64, 7);
/// assert_eq!(h.pop(), Some(7));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PoolBuilder {
    kind: PoolKind,
    places: usize,
    params: PoolParams,
}

impl PoolBuilder {
    /// Starts a builder for `kind` with one place and default parameters.
    pub fn new(kind: PoolKind) -> Self {
        PoolBuilder {
            kind,
            places: 1,
            params: PoolParams::default(),
        }
    }

    /// Sets the place count.
    pub fn places(mut self, places: usize) -> Self {
        self.places = places;
        self
    }

    /// Sets the relaxation bound `k` (see [`PoolParams::k`]).
    pub fn k(mut self, k: usize) -> Self {
        self.params.k = k;
        self
    }

    /// Bounds each ingress lane of a [`PoolBuilder::service`] built from
    /// this builder to `capacity` queued tasks (backpressure: `try_submit`
    /// sheds, blocking `submit` parks — see [`crate::ingest`]). Only
    /// `service` and sweep harnesses that build lanes from [`PoolParams`]
    /// honor it: [`run_stream_on_kind`] drains caller-constructed lanes,
    /// whose bound is fixed at [`crate::IngressLanes::with_capacity`] time,
    /// and [`run_on_kind`]'s lanes are unbounded and hold only its roots,
    /// submitted before any worker starts.
    pub fn lane_capacity(mut self, capacity: usize) -> Self {
        self.params.lane_capacity = Some(capacity);
        self
    }

    /// Selects what workers do when a task panics (see
    /// [`crate::FaultPolicy`]): honored by [`PoolBuilder::service`]; a run
    /// takes it in its [`PoolParams`].
    pub fn fault_policy(mut self, policy: crate::FaultPolicy) -> Self {
        self.params.fault_policy = policy;
        self
    }

    /// Replaces the whole parameter set.
    pub fn params(mut self, params: PoolParams) -> Self {
        self.params = params;
        self
    }

    /// The configured parameter set.
    pub fn pool_params(&self) -> PoolParams {
        self.params
    }

    /// Builds the type-erased pool, shared and ready for handles.
    pub fn build<T: Send + 'static>(&self) -> Arc<AnyPool<T>> {
        Arc::new(self.kind.build(self.places, self.params))
    }

    /// Starts a long-lived [`PoolService`] over a freshly built pool of
    /// this builder's kind: one worker thread per place, accepting
    /// [`PoolService::submit`] / external [`crate::IngestHandle`]
    /// submissions until shutdown, with this builder's
    /// [`PoolBuilder::lane_capacity`] as the backpressure bound and its
    /// [`PoolBuilder::fault_policy`]. The one way to start a service; the
    /// pool is dropped when the service's last worker exits.
    pub fn service<T, E>(&self, executor: Arc<E>) -> PoolService<T>
    where
        T: Send + 'static,
        E: TaskExecutor<T> + Send + Sync + 'static,
    {
        PoolService::start_with_policy(
            self.build::<T>(),
            executor,
            self.params.lane_capacity,
            self.params.fault_policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SpawnCtx;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn build_produces_matching_kind_and_places() {
        for kind in PoolKind::ALL {
            let pool: Arc<AnyPool<u64>> = Arc::new(kind.build(3, PoolParams::default()));
            assert_eq!(pool.kind(), kind);
            assert_eq!(pool.num_places(), 3);
        }
    }

    #[test]
    fn any_handle_round_trips_scalar_and_batch() {
        for kind in PoolKind::ALL {
            let pool: Arc<AnyPool<u64>> = PoolBuilder::new(kind).places(1).k(16).build();
            let mut h = pool.handle(0);
            h.push(5, 16, 5);
            let mut batch = vec![(1u64, 1u64), (9, 9), (3, 3)];
            h.push_batch(16, &mut batch);
            assert!(batch.is_empty(), "{kind}: push_batch must drain");
            let mut out = Vec::new();
            while let Some(task) = h.pop() {
                out.push(task);
            }
            out.sort();
            assert_eq!(out, vec![1, 3, 5, 9], "{kind}");
            assert_eq!(h.stats().pushes, 4, "{kind}");
        }
    }

    /// A pop from an empty pool fails and counts one failed pop, on every
    /// kind at every place count.
    #[test]
    fn an_empty_pop_fails_and_counts_once() {
        for kind in PoolKind::ALL {
            for places in [1usize, 2, 4] {
                let pool: Arc<AnyPool<u64>> = PoolBuilder::new(kind).places(places).build();
                let mut h = pool.handle(places - 1);
                assert_eq!(h.pop(), None, "{kind} places={places}");
                assert_eq!(h.stats().failed_pops, 1, "{kind} places={places}");
            }
        }
    }

    struct CountDown(AtomicU64);
    impl TaskExecutor<u64> for CountDown {
        fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
            self.0.fetch_add(1, Ordering::Relaxed);
            if task > 0 {
                ctx.spawn(task - 1, 8, task - 1);
            }
        }
    }

    #[test]
    fn run_on_kind_schedules_every_structure() {
        for kind in PoolKind::ALL {
            for places in [1usize, 2] {
                let exec = CountDown(AtomicU64::new(0));
                let stats = run_on_kind(
                    kind,
                    places,
                    PoolParams::with_k(8),
                    &exec,
                    vec![(10, 8, 10u64)],
                );
                assert_eq!(stats.executed, 11, "{kind} places={places}");
                assert_eq!(exec.0.load(Ordering::Relaxed), 11);
            }
        }
    }

    /// What `build` derives or fixes per kind: centralized `kmax` =
    /// max(k, 512), the MultiQueue's `c` = 2 and the structural kind's 1.
    #[test]
    fn default_built_pools_keep_their_configuration() {
        for k in [0usize, 8, 512, 8192] {
            let build = |kind: PoolKind| kind.build::<u64>(2, PoolParams::with_k(k));
            match build(PoolKind::Centralized) {
                AnyPool::Centralized(p) => assert_eq!(p.kmax() as usize, k.max(512)),
                other => panic!("expected centralized, got {:?}", other.kind()),
            }
            match build(PoolKind::MultiQueue) {
                AnyPool::MultiQueue(p) => assert_eq!(p.c(), 2),
                other => panic!("expected multiqueue, got {:?}", other.kind()),
            }
            match build(PoolKind::Structural) {
                AnyPool::Structural(p) => assert_eq!(p.c(), 1),
                other => panic!("expected structural, got {:?}", other.kind()),
            }
        }
        // The builder's setters compose into the same parameter block.
        let b = PoolBuilder::new(PoolKind::Hybrid).k(8).lane_capacity(32);
        let want = PoolParams::with_k(8).with_lane_capacity(Some(32));
        assert_eq!(b.pool_params(), want);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn any_pool_propagates_handle_range_panics() {
        let pool: Arc<AnyPool<u64>> = PoolBuilder::new(PoolKind::Structural).places(2).build();
        let _ = pool.handle(5);
    }
}
