//! Async submission into a running pool: futures over the ingest lanes.
//!
//! The blocking producer path ([`IngestHandle::submit`]) parks an OS
//! thread on the shared *space* slot when every bounded lane is full. A
//! network frontend wants thousands of logical producers — one per
//! connection — without a thread (or a core) per producer. This module is
//! that adapter: [`AsyncIngestHandle`] wraps an [`IngestHandle`] from the
//! **same refcounted producer lineage** (it counts toward quiescence
//! exactly like its blocking siblings, and cloning it clones the
//! underlying handle) and exposes `submit` / `submit_batch` as futures;
//! [`JoinFuture`] does the same for a service's drain.
//!
//! # Same body, `Waiter::Waker`
//!
//! Each `poll` here is one call of the body its blocking sibling runs —
//! [`IngestHandle::submit`]'s, [`IngestHandle::submit_batch`]'s,
//! [`PoolService::join`]'s — with [`Waiter::Waker`] for [`Waiter::Thread`]:
//! [`crate::park::ParkSlot::poll_until`] deposits the task's waker where
//! it would have put the thread to sleep, and the future returns
//! [`Poll::Pending`]. Drains, abort and shutdown fire deposited wakers
//! through the same wakes that unpark threads, so everything [`crate::park`]
//! argues holds for both; poisoned lanes resolve a submit future to
//! [`SubmitError::Aborted`] / [`SubmitError::ShutDown`] with the payload
//! handed back.
//!
//! # Cancel safety
//!
//! Dropping a pending future revokes its deposited waker (releasing the
//! slot registration). A batch leaves the caller's vector only inside the
//! lane that accepts it, so a cancelled — or failed — batch future leaves
//! exactly the unsubmitted items there: the untouched prefix, in order.
//! What was already accepted stays accepted, the same at-most-once
//! boundary the blocking batch path has across its chunks.
//!
//! No runtime is prescribed: the futures only need a `Waker` that is
//! `Send` (workers fire it from their drain path). The in-tree
//! `futures-executor` shim (`block_on` + `LocalPool`) is enough to drive
//! them; so is any external executor.

use crate::ingest::{IngestHandle, SubmitError};
use crate::park::{Waiter, WakerId};
use crate::scheduler::PoolAborted;
use crate::service::PoolService;
use std::future::Future;
use std::pin::Pin;
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
            deposit: None,
        }
    }

    /// Submits a batch of `(prio, task)` pairs sharing relaxation bound
    /// `k`, draining `batch` from the back as chunks are accepted (batches
    /// larger than the lane capacity are split, like the blocking
    /// [`IngestHandle::submit_batch`]). On `Err` — and on drop of a
    /// pending future — `batch` holds exactly the unsubmitted items: its
    /// untouched prefix, in the original order.
    pub fn submit_batch<'a>(
        &'a mut self,
        k: usize,
        batch: &'a mut Vec<(u64, T)>,
    ) -> SubmitBatchFuture<'a, T> {
        SubmitBatchFuture {
            handle: &mut self.inner,
            k,
            batch,
            deposit: None,
        }
    }
}

impl<T: Send> Clone for AsyncIngestHandle<T> {
    fn clone(&self) -> Self {
        AsyncIngestHandle {
            inner: self.inner.clone(),
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
    deposit: Option<WakerId>,
}

// No self-references: every field is an ordinary borrow or owned value.
impl<T: Send> Unpin for SubmitFuture<'_, T> {}

impl<T: Send> Future for SubmitFuture<'_, T> {
    type Output = Result<(), SubmitError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let waiter = Waiter::Waker(cx.waker());
        this.handle
            .poll_submit(waiter, &mut this.deposit, this.prio, this.k, &mut this.task)
    }
}

impl<T: Send> Drop for SubmitFuture<'_, T> {
    fn drop(&mut self) {
        self.handle.space().revoke(&mut self.deposit);
    }
}

/// Future of [`AsyncIngestHandle::submit_batch`].
///
/// Accepts the batch chunk by chunk (capacity-sized on bounded lanes);
/// resolves to `Ok(())` with the caller's vector drained, or to a
/// [`SubmitError`] with the unsubmitted prefix still in it.
pub struct SubmitBatchFuture<'a, T: Send> {
    handle: &'a mut IngestHandle<T>,
    k: usize,
    batch: &'a mut Vec<(u64, T)>,
    deposit: Option<WakerId>,
}

impl<T: Send> Unpin for SubmitBatchFuture<'_, T> {}

impl<T: Send> Future for SubmitBatchFuture<'_, T> {
    type Output = Result<(), SubmitError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let waiter = Waiter::Waker(cx.waker());
        this.handle
            .poll_submit_batch(waiter, &mut this.deposit, this.k, this.batch)
    }
}

impl<T: Send> Drop for SubmitBatchFuture<'_, T> {
    fn drop(&mut self) {
        self.handle.space().revoke(&mut self.deposit);
    }
}

/// Future over a drain, for services: see
/// [`crate::service::PoolService::join_async`], which constructs it.
///
/// Resolves to `Ok(())` once everything submitted so far has executed
/// (lanes empty, pending counter zero), or `Err(PoolAborted)` if the pool
/// aborted on a task panic — the blocking
/// [`crate::service::PoolService::join`] with the control-slot park
/// replaced by a waker deposit.
pub struct JoinFuture<'a, T: Send + 'static> {
    service: &'a PoolService<T>,
    deposit: Option<WakerId>,
}

impl<'a, T: Send + 'static> JoinFuture<'a, T> {
    pub(crate) fn new(service: &'a PoolService<T>) -> Self {
        JoinFuture {
            service,
            deposit: None,
        }
    }
}

impl<T: Send + 'static> Unpin for JoinFuture<'_, T> {}

impl<T: Send + 'static> Future for JoinFuture<'_, T> {
    type Output = Result<(), PoolAborted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.service
            .poll_join(Waiter::Waker(cx.waker()), &mut this.deposit)
    }
}

impl<T: Send + 'static> Drop for JoinFuture<'_, T> {
    fn drop(&mut self) {
        self.service.control().revoke(&mut self.deposit);
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
    use std::sync::Arc;
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
        assert_eq!(
            batch,
            vec![(0, 0), (1, 1), (2, 2)],
            "chunks go from the back: the untouched prefix stays, in order"
        );
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
