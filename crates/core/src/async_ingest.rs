//! Async submission into a running pool: futures over the ingest lanes.
//!
//! The blocking producer path ([`IngestHandle::submit`]) parks an OS
//! thread on the shared *space* slot when every bounded lane is full. A
//! network frontend wants thousands of logical producers — one per
//! connection — without a thread (or a core) per producer. This module is
//! that adapter: [`AsyncIngestHandle`] wraps an [`IngestHandle`] from the
//! **same refcounted producer lineage** (it counts toward quiescence
//! exactly like its blocking siblings, and cloning it clones the
//! underlying handle) and exposes `submit` / `submit_batch` as futures.
//!
//! # `Full` becomes `Poll::Pending`
//!
//! The futures run the *same* register → re-check → park protocol as the
//! blocking path (see [`crate::park`]), with one substitution at the final
//! step: where a thread would sleep on the space slot's condvar, the
//! future deposits the task's [`std::task::Waker`]
//! ([`crate::park::Waiter::Waker`]) and returns [`Poll::Pending`]. The
//! drain that frees lane space fires the deposited waker through the
//! identical `wake_all` broadcast that unparks blocked threads, so the
//! lost-wakeup argument carries over verbatim; a registration that races
//! the wake observes a stale epoch token and retries instead of sleeping.
//! Poisoned lanes resolve the future to [`SubmitError::Aborted`] /
//! [`SubmitError::ShutDown`] with the payload handed back — the abort
//! broadcast wakes deposited wakers exactly like parked producers, so an
//! async submitter can never pend forever against workers that are gone.
//!
//! # Cancel safety
//!
//! Dropping a pending future revokes its deposited waker (releasing the
//! slot registration) and, for batches, hands every not-yet-submitted item
//! back to the caller's vector. What was already accepted into a lane
//! stays accepted — the same at-most-once boundary the blocking batch path
//! has across its internal chunks.
//!
//! No runtime is prescribed: the futures only need a `Waker` that is
//! `Send` (workers fire it from their drain path). The in-tree
//! `futures-executor` shim (`block_on` + `LocalPool`) is enough to drive
//! them; so is any external executor.

use crate::ingest::{IngestHandle, IngressShared, SubmitError};
use crate::park::{ParkSlot, Parked, Waiter, WakerId};
use crate::scheduler::{FailureReport, FaultCell, PoolAborted};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// An async producer's capability to submit tasks into a running pool.
///
/// Obtained from [`IngestHandle::into_async`] (or
/// [`crate::service::PoolService::async_ingest_handle`]); holds the
/// wrapped handle's producer slot, so quiescence waits on async producers
/// exactly as on blocking ones. Cloning clones the underlying handle —
/// the natural "one handle per connection actor" shape.
pub struct AsyncIngestHandle<T: Send> {
    inner: IngestHandle<T>,
}

impl<T: Send> AsyncIngestHandle<T> {
    /// Wraps a producer handle for async submission.
    pub fn new(inner: IngestHandle<T>) -> Self {
        AsyncIngestHandle { inner }
    }

    /// Unwraps back into the blocking handle (same producer slot).
    pub fn into_inner(self) -> IngestHandle<T> {
        self.inner
    }

    /// Submits one task with priority `prio` (smaller = higher) and
    /// relaxation bound `k`, resolving once a lane accepted it. While
    /// every bounded lane is full the future is `Pending` with its waker
    /// deposited on the space slot (woken by the next drain). Resolves to
    /// `Err` — task handed back — only on abort/shutdown.
    pub fn submit(&mut self, prio: u64, k: usize, task: T) -> SubmitFuture<'_, T> {
        SubmitFuture {
            handle: &mut self.inner,
            prio,
            k,
            task: Some(task),
            reg: None,
        }
    }

    /// Submits a batch of `(prio, task)` pairs sharing relaxation bound
    /// `k`, draining `batch` as chunks are accepted (batches larger than
    /// the lane capacity are split, like the blocking
    /// [`IngestHandle::submit_batch`]). On `Err` — and on drop of a
    /// pending future — every not-yet-submitted item is handed back in
    /// `batch`, in unspecified order.
    pub fn submit_batch<'a>(
        &'a mut self,
        k: usize,
        batch: &'a mut Vec<(u64, T)>,
    ) -> SubmitBatchFuture<'a, T> {
        SubmitBatchFuture {
            handle: &mut self.inner,
            k,
            batch,
            chunk: Vec::new(),
            reg: None,
        }
    }

    /// Number of lanes this handle shards over.
    pub fn num_lanes(&self) -> usize {
        self.inner.num_lanes()
    }

    /// The per-lane capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }
}

impl<T: Send> Clone for AsyncIngestHandle<T> {
    fn clone(&self) -> Self {
        AsyncIngestHandle {
            inner: self.inner.clone(),
        }
    }
}

/// A waker deposit on one slot, revocable exactly once.
///
/// Shared helper of the futures below: `arm` runs the register → re-check
/// → park-as-waker step, `clear` revokes a still-deposited waker (re-poll
/// or drop).
struct SlotReg {
    id: WakerId,
}

impl SlotReg {
    fn clear(reg: &mut Option<SlotReg>, slot: &ParkSlot) {
        if let Some(r) = reg.take() {
            // `false` means a wake already consumed the deposit (and
            // released the registration); either way it is gone now.
            let _ = slot.revoke_waker(r.id);
        }
    }
}

/// Future of [`AsyncIngestHandle::submit`].
///
/// Resolves to `Ok(())` once a lane accepted the task, or to a
/// [`SubmitError`] handing the task back on abort/shutdown.
pub struct SubmitFuture<'a, T: Send> {
    handle: &'a mut IngestHandle<T>,
    prio: u64,
    k: usize,
    /// `Some` while unsubmitted; taken on completion.
    task: Option<T>,
    reg: Option<SlotReg>,
}

// No self-references: every field is an ordinary borrow or owned value.
impl<T: Send> Unpin for SubmitFuture<'_, T> {}

impl<T: Send> Future for SubmitFuture<'_, T> {
    type Output = Result<(), SubmitError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = Arc::clone(this.handle.shared());
        let space = shared.parker().space();
        // A re-poll while deposited (spurious, or woken by the drain)
        // starts from a clean registration.
        SlotReg::clear(&mut this.reg, space);
        let mut task = this
            .task
            .take()
            .expect("SubmitFuture polled after completion");
        loop {
            match this.handle.try_submit(this.prio, this.k, task) {
                Ok(()) => return Poll::Ready(Ok(())),
                Err(SubmitError::Full(t)) => {
                    // Register → re-check → park-as-waker (module docs).
                    let token = space.prepare();
                    match this.handle.try_submit(this.prio, this.k, t) {
                        Ok(()) => {
                            space.cancel();
                            return Poll::Ready(Ok(()));
                        }
                        Err(SubmitError::Full(t)) => {
                            match space.park_as(token, Waiter::Waker(cx.waker())) {
                                Parked::Woken => task = t, // stale: retry now
                                Parked::Registered(id) => {
                                    this.task = Some(t);
                                    this.reg = Some(SlotReg { id });
                                    return Poll::Pending;
                                }
                            }
                        }
                        Err(other) => {
                            space.cancel();
                            return Poll::Ready(Err(other));
                        }
                    }
                }
                Err(other) => return Poll::Ready(Err(other)),
            }
        }
    }
}

impl<T: Send> Drop for SubmitFuture<'_, T> {
    fn drop(&mut self) {
        if self.reg.is_some() {
            let shared = Arc::clone(self.handle.shared());
            SlotReg::clear(&mut self.reg, shared.parker().space());
        }
    }
}

/// Future of [`AsyncIngestHandle::submit_batch`].
///
/// Accepts the batch chunk by chunk (capacity-sized on bounded lanes);
/// resolves to `Ok(())` with the caller's vector drained, or to a
/// [`SubmitError`] with the unsubmitted remainder handed back in it.
pub struct SubmitBatchFuture<'a, T: Send> {
    handle: &'a mut IngestHandle<T>,
    k: usize,
    batch: &'a mut Vec<(u64, T)>,
    /// The chunk currently being offered (split off `batch`'s tail).
    chunk: Vec<(u64, T)>,
    reg: Option<SlotReg>,
}

impl<T: Send> Unpin for SubmitBatchFuture<'_, T> {}

impl<T: Send> Future for SubmitBatchFuture<'_, T> {
    type Output = Result<(), SubmitError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = Arc::clone(this.handle.shared());
        let space = shared.parker().space();
        SlotReg::clear(&mut this.reg, space);
        let chunk_cap = this.handle.capacity().unwrap_or(usize::MAX);
        loop {
            if this.chunk.is_empty() {
                if this.batch.is_empty() {
                    return Poll::Ready(Ok(()));
                }
                let n = this.batch.len().min(chunk_cap);
                this.chunk = this.batch.split_off(this.batch.len() - n);
            }
            match this.handle.try_submit_batch(this.k, &mut this.chunk) {
                Ok(()) => continue, // next chunk (or done)
                Err(SubmitError::Full(())) => {
                    let token = space.prepare();
                    match this.handle.try_submit_batch(this.k, &mut this.chunk) {
                        Ok(()) => space.cancel(),
                        Err(SubmitError::Full(())) => {
                            match space.park_as(token, Waiter::Waker(cx.waker())) {
                                Parked::Woken => {} // stale: retry now
                                Parked::Registered(id) => {
                                    this.reg = Some(SlotReg { id });
                                    return Poll::Pending;
                                }
                            }
                        }
                        Err(other) => {
                            space.cancel();
                            this.batch.append(&mut this.chunk);
                            return Poll::Ready(Err(other));
                        }
                    }
                }
                Err(other) => {
                    this.batch.append(&mut this.chunk);
                    return Poll::Ready(Err(other));
                }
            }
        }
    }
}

impl<T: Send> Drop for SubmitBatchFuture<'_, T> {
    fn drop(&mut self) {
        if self.reg.is_some() {
            let shared = Arc::clone(self.handle.shared());
            SlotReg::clear(&mut self.reg, shared.parker().space());
        }
        // Hand unsubmitted items back on cancellation.
        self.batch.append(&mut self.chunk);
    }
}

/// Future over a drain, for services: see
/// [`crate::service::PoolService::join_async`], which constructs it.
///
/// Resolves to `Ok(())` once everything submitted so far has executed
/// (lanes empty, pending counter zero), or `Err(PoolAborted)` if the pool
/// aborted on a task panic — the same contract as the blocking
/// [`crate::service::PoolService::join`], with the control-slot park
/// replaced by a waker deposit.
pub struct JoinFuture<'a, T: Send> {
    shared: &'a IngressShared<T>,
    /// The scheduler's shared outstanding-task counter (credit-settled:
    /// never below the truth, exact once the places have gone idle).
    pending: &'a crate::sync::atomic::AtomicU64,
    /// The pool's abort flag (a task panicked under `AbortRun`).
    abort: &'a crate::sync::atomic::AtomicBool,
    /// The service's failure state (source of the typed abort outcome).
    faults: &'a FaultCell,
    reg: Option<SlotReg>,
}

impl<'a, T: Send> JoinFuture<'a, T> {
    pub(crate) fn new(
        shared: &'a IngressShared<T>,
        pending: &'a crate::sync::atomic::AtomicU64,
        abort: &'a crate::sync::atomic::AtomicBool,
        faults: &'a FaultCell,
    ) -> Self {
        JoinFuture {
            shared,
            pending,
            abort,
            faults,
            reg: None,
        }
    }

    /// The same two-variable predicate as the blocking join, on the same
    /// slot: both writers that can make it true — the lane drain that
    /// takes `queued` to zero and the settle that takes `pending` to zero
    /// — wake the control slot, whichever comes last.
    fn drained(&self) -> bool {
        use crate::sync::atomic::Ordering;
        self.shared.queued_count() == 0 && self.pending.load(Ordering::Acquire) == 0
    }

    fn aborted(&self) -> bool {
        self.abort.load(crate::sync::atomic::Ordering::Acquire)
    }

    /// The typed abort outcome; the failure record precedes the abort
    /// flag, so an observed abort implies a visible report (the fallback
    /// covers abortive teardown without a panicking task).
    fn abort_error(&self) -> PoolAborted {
        PoolAborted {
            failure: self.faults.first_failure().unwrap_or(FailureReport {
                place: 0,
                prio: 0,
                message: "pool aborted".to_string(),
            }),
        }
    }
}

impl<T: Send> Unpin for JoinFuture<'_, T> {}

impl<T: Send> Future for JoinFuture<'_, T> {
    type Output = Result<(), PoolAborted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let control = this.shared.parker().control();
        SlotReg::clear(&mut this.reg, control);
        loop {
            if this.aborted() {
                return Poll::Ready(Err(this.abort_error()));
            }
            if this.drained() {
                // Post-drain abort re-check, as in the blocking join: a
                // panicking task records its failure and raises the flag
                // before its unit can leave the count.
                if this.aborted() {
                    return Poll::Ready(Err(this.abort_error()));
                }
                return Poll::Ready(Ok(()));
            }
            let token = control.prepare();
            if this.aborted() || this.drained() {
                control.cancel();
                continue; // loop head resolves which of the two it was
            }
            match control.park_as(token, Waiter::Waker(cx.waker())) {
                Parked::Woken => {} // stale: re-check now
                Parked::Registered(id) => {
                    this.reg = Some(SlotReg { id });
                    return Poll::Pending;
                }
            }
        }
    }
}

impl<T: Send> Drop for JoinFuture<'_, T> {
    fn drop(&mut self) {
        if self.reg.is_some() {
            SlotReg::clear(&mut self.reg, self.shared.parker().control());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngressLanes;
    use crate::scheduler::Outstanding;
    // The facade type, so `drain_into` type-checks under `--cfg loom` too.
    use crate::sync::atomic::AtomicU64;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Waker;

    struct CountWake(AtomicUsize);
    impl std::task::Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn test_cx() -> (Arc<CountWake>, Waker) {
        let count = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(waker))
    }

    #[test]
    fn submit_resolves_immediately_with_room() {
        let lanes: IngressLanes<u64> = IngressLanes::new(2);
        let mut h = lanes.handle().into_async();
        let (_, waker) = test_cx();
        let mut fut = h.submit(3, 8, 42);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok(())));
        drop(fut);
        assert_eq!(lanes.queued(), 1);
    }

    #[test]
    fn full_lanes_pend_and_drain_wakes_the_task() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(1));
        let mut blocking = lanes.handle();
        blocking.submit(0, 8, 0).unwrap(); // lane now full
        let mut h = lanes.handle().into_async();
        let (count, waker) = test_cx();
        let mut fut = h.submit(1, 8, 1);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Pending);
        assert_eq!(count.0.load(Ordering::SeqCst), 0, "no spurious wake");

        // A drain frees the lane: the deposited waker must fire…
        let pending = AtomicU64::new(0);
        struct Sink;
        impl crate::pool::PoolHandle<u64> for Sink {
            fn push(&mut self, _p: u64, _k: usize, _t: u64) {}
            fn pop_entry(&mut self) -> Option<(u64, u64)> {
                None
            }
            fn stats(&self) -> crate::stats::PlaceStats {
                crate::stats::PlaceStats::default()
            }
        }
        let (mut scratch, mut kbatch) = (Vec::new(), Vec::new());
        assert_eq!(
            lanes.shared().drain_into(
                0,
                &mut Sink,
                &mut Outstanding::new(&pending),
                &mut scratch,
                &mut kbatch
            ),
            1
        );
        assert_eq!(count.0.load(Ordering::SeqCst), 1, "drain must wake");
        // …and the re-poll completes the submission.
        assert_eq!(poll_once(&mut fut, &waker), Poll::Ready(Ok(())));
        drop(fut);
        drop(blocking);
        assert_eq!(lanes.queued(), 1);
    }

    #[test]
    fn abort_resolves_pending_submit_to_aborted() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(1));
        let mut blocking = lanes.handle();
        blocking.submit(0, 8, 0).unwrap();
        let mut h = lanes.handle().into_async();
        let (count, waker) = test_cx();
        let mut fut = h.submit(1, 8, 7);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Pending);
        lanes.shared().abort_and_wake();
        assert_eq!(count.0.load(Ordering::SeqCst), 1, "abort must wake");
        match poll_once(&mut fut, &waker) {
            Poll::Ready(Err(SubmitError::Aborted(task))) => assert_eq!(task, 7),
            other => panic!("expected Aborted with payload, got {other:?}"),
        }
    }

    #[test]
    fn dropping_pending_submit_revokes_the_waker() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(1));
        let mut blocking = lanes.handle();
        blocking.submit(0, 8, 0).unwrap();
        let mut h = lanes.handle().into_async();
        let (count, waker) = test_cx();
        let mut fut = h.submit(1, 8, 1);
        assert_eq!(poll_once(&mut fut, &waker), Poll::Pending);
        drop(fut); // cancellation: must release the slot registration
        assert_eq!(lanes.shared().parker().space().waiters(), 0);
        lanes.shared().parker().space().wake_all();
        assert_eq!(count.0.load(Ordering::SeqCst), 0, "revoked ≠ woken");
    }

    #[test]
    fn batch_future_chunks_and_hands_back_on_cancel() {
        let lanes: IngressLanes<u64> = IngressLanes::with_capacity(1, Some(2));
        let mut h = lanes.handle().into_async();
        let (_, waker) = test_cx();
        // 5 items through a capacity-2 lane: two chunks fit (after which
        // the lane is full at 2 — first chunk drains nowhere), so the
        // future pends with a remainder.
        let mut batch: Vec<(u64, u64)> = (0..5u64).map(|i| (i, i)).collect();
        {
            let mut fut = h.submit_batch(8, &mut batch);
            assert_eq!(poll_once(&mut fut, &waker), Poll::Pending);
            // Dropping the pending future: remainder handed back.
        }
        assert_eq!(
            batch.len() as u64 + lanes.queued(),
            5,
            "cancelled batch must hand back exactly the unsubmitted items"
        );
        assert_eq!(lanes.queued(), 2, "one capacity-sized chunk accepted");
        assert_eq!(lanes.shared().parker().space().waiters(), 0);
    }

    #[test]
    fn async_handle_counts_toward_producer_refcount() {
        let lanes: IngressLanes<u64> = IngressLanes::new(1);
        let h = lanes.handle().into_async();
        assert_eq!(lanes.producers(), 1);
        let h2 = h.clone();
        assert_eq!(lanes.producers(), 2);
        drop(h);
        drop(h2);
        assert_eq!(lanes.producers(), 0);
        assert!(lanes.shared().quiescent());
    }
}
