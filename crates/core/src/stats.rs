//! Lightweight instrumentation counters.
//!
//! Every place handle keeps plain (non-atomic) counters on its hot path and
//! folds them into a [`PlaceStats`] snapshot on request; the scheduler
//! aggregates snapshots across places into the run statistics reported by
//! the figure harness (nodes relaxed, dead tasks, steal/spy activity, …).
//! Executors, which are shared by all places, count their per-task events
//! in a [`PlaceCounter`].

use crate::sync::atomic::{AtomicU64, Ordering};
use crossbeam_utils::CachePadded;

/// Stripes of a [`PlaceCounter`]; places beyond this share a stripe
/// (`place % PLACE_COUNTER_STRIPES`).
const PLACE_COUNTER_STRIPES: usize = 16;

/// An event counter that executors bump once per task from every place.
///
/// A single shared `AtomicU64` puts one cache line under every worker's
/// `fetch_add`; here each place adds to a cache line of its own
/// (`ctx.place()` picks the stripe) and a reader sums the stripes.
///
/// Adds and loads are `Relaxed`: the counter publishes nothing but
/// itself. [`PlaceCounter::sum`] is a racy snapshot while places run and
/// exact once the run has joined — every place settles its completion
/// credits with an `AcqRel` RMW after its last task, and `join` /
/// `run_on_kind` return only after an `Acquire` load has seen the
/// last of them.
#[derive(Debug)]
pub struct PlaceCounter {
    stripes: [CachePadded<AtomicU64>; PLACE_COUNTER_STRIPES],
}

impl Default for PlaceCounter {
    fn default() -> Self {
        PlaceCounter {
            stripes: std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0))),
        }
    }
}

impl PlaceCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` on behalf of `place`.
    #[inline]
    pub fn add(&self, place: usize, n: u64) {
        self.stripes[place % PLACE_COUNTER_STRIPES].fetch_add(n, Ordering::Relaxed);
    }

    /// Total over all places.
    pub fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// Per-place operation counters.
///
/// All fields count events observed by one place (thread). Aggregate with
/// [`PlaceStats::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaceStats {
    /// Tasks pushed by this place.
    pub pushes: u64,
    /// Tasks successfully popped (and owned) by this place.
    pub pops: u64,
    /// `pop` calls that returned nothing.
    pub failed_pops: u64,
    /// Take attempts that lost the CAS/TAS race (dead references noticed).
    pub stale_refs: u64,
    /// Steal-half operations that obtained at least one task (work-stealing).
    pub steals: u64,
    /// Spy operations that found at least one reference (hybrid).
    pub spies: u64,
    /// Place-local batches published to the shared component: local lists
    /// to the global list (hybrid), non-empty insertion buffers flushed
    /// to a queue (MultiQueue).
    pub publishes: u64,
    /// Items taken through the random fallback probe (centralized).
    pub probe_hits: u64,
    /// Global-array/global-list entries ingested into the local queue.
    pub ingested: u64,
    /// Slot loads made while walking k-windows for a free slot
    /// (centralized). `window_probes / pushes` is the walk's length per
    /// push.
    pub window_probes: u64,
    /// Always 0: no pool combines any more. Kept, with
    /// [`PlaceStats::combine_ops`] and [`PlaceStats::combine_parks`], only
    /// while the benchmark harness still reads them for its
    /// `pool.combine_*.structural` metrics; a harness change drops those.
    pub combine_passes: u64,
    /// Always 0; see [`PlaceStats::combine_passes`].
    pub combine_ops: u64,
    /// Always 0; see [`PlaceStats::combine_passes`].
    pub combine_parks: u64,
}

impl PlaceStats {
    /// Element-wise sum.
    pub fn merge(&mut self, other: &PlaceStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.failed_pops += other.failed_pops;
        self.stale_refs += other.stale_refs;
        self.steals += other.steals;
        self.spies += other.spies;
        self.publishes += other.publishes;
        self.probe_hits += other.probe_hits;
        self.ingested += other.ingested;
        self.window_probes += other.window_probes;
        self.combine_passes += other.combine_passes;
        self.combine_ops += other.combine_ops;
        self.combine_parks += other.combine_parks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_counter_sums_across_places_and_wraps_stripes() {
        let c = PlaceCounter::new();
        assert_eq!(c.sum(), 0);
        std::thread::scope(|s| {
            for place in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(place, 1);
                    }
                });
            }
        });
        c.add(PLACE_COUNTER_STRIPES + 3, 5);
        assert_eq!(c.sum(), 4005);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = PlaceStats {
            pushes: 1,
            pops: 2,
            failed_pops: 3,
            stale_refs: 4,
            steals: 5,
            spies: 6,
            publishes: 7,
            probe_hits: 8,
            ingested: 9,
            window_probes: 17,
            combine_passes: 10,
            combine_ops: 11,
            combine_parks: 13,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.pushes, 2);
        assert_eq!(a.pops, 4);
        assert_eq!(a.ingested, 18);
        assert_eq!(a.window_probes, 34);
        assert_eq!(a.combine_passes, 20);
        assert_eq!(a.combine_ops, 22);
        assert_eq!(a.combine_parks, 26);
    }
}
