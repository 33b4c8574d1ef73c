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
/// `Scheduler::run` return only after an `Acquire` load has seen the
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

/// Number of log₂ buckets in [`PlaceStats::rank_hist`]: bucket 0 holds
/// exact pops (rank 0), bucket *i* ≥ 1 holds ranks in `[2^(i-1), 2^i)`,
/// and the last bucket saturates.
pub const RANK_BUCKETS: usize = 16;

/// Histogram bucket for a rank-error value (see [`RANK_BUCKETS`]).
#[inline]
pub fn rank_bucket(rank: u64) -> usize {
    if rank == 0 {
        0
    } else {
        ((64 - rank.leading_zeros()) as usize).min(RANK_BUCKETS - 1)
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
    /// Pops measured by the rank-error instrument (a MultiQueue of either
    /// configuration built with `RelaxedMultiQueue::with_rank_error`). Zero
    /// when the instrument is off, as it is in every pool the facade builds.
    pub rank_pops: u64,
    /// Sum of measured rank errors — how many strictly better priorities
    /// were queued at each measured pop. `rank_sum / rank_pops` is the
    /// mean ([`PlaceStats::rank_mean`]).
    pub rank_sum: u64,
    /// Largest measured rank error. Aggregates with `max`, not `+`.
    pub rank_max: u64,
    /// Log₂ histogram of measured rank errors (see [`rank_bucket`]) —
    /// enough resolution for a conservative p99
    /// ([`PlaceStats::rank_p99`]) without giving up `Copy`.
    pub rank_hist: [u64; RANK_BUCKETS],
}

impl PlaceStats {
    /// Element-wise sum — except [`PlaceStats::rank_max`], which takes the
    /// maximum (it is a high-water mark, not a count).
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
        self.rank_pops += other.rank_pops;
        self.rank_sum += other.rank_sum;
        self.rank_max = self.rank_max.max(other.rank_max);
        for (a, b) in self.rank_hist.iter_mut().zip(other.rank_hist.iter()) {
            *a += b;
        }
    }

    /// Mean measured rank error (0.0 when the instrument is off).
    pub fn rank_mean(&self) -> f64 {
        if self.rank_pops == 0 {
            0.0
        } else {
            self.rank_sum as f64 / self.rank_pops as f64
        }
    }

    /// Conservative 99th-percentile rank error: the upper bound of the
    /// histogram bucket holding the ⌈0.99·rank_pops⌉-th smallest sample,
    /// clamped to the exact observed max. 0 when the instrument is off.
    pub fn rank_p99(&self) -> u64 {
        if self.rank_pops == 0 {
            return 0;
        }
        let rank = ((0.99 * self.rank_pops as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.rank_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket 0 holds exactly rank 0; bucket i ≥ 1 covers
                // [2^(i-1), 2^i), so its inclusive upper bound is 2^i - 1.
                let upper = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return upper.min(self.rank_max);
            }
        }
        self.rank_max
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
            rank_pops: 14,
            rank_sum: 15,
            rank_max: 16,
            rank_hist: [1; RANK_BUCKETS],
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
        assert_eq!(a.rank_pops, 28);
        assert_eq!(a.rank_sum, 30);
        assert_eq!(a.rank_hist, [2; RANK_BUCKETS]);
    }

    #[test]
    fn merge_takes_max_of_rank_high_water_mark() {
        let mut a = PlaceStats {
            rank_max: 5,
            ..PlaceStats::default()
        };
        a.merge(&PlaceStats {
            rank_max: 9,
            ..PlaceStats::default()
        });
        assert_eq!(a.rank_max, 9);
        a.merge(&PlaceStats {
            rank_max: 2,
            ..PlaceStats::default()
        });
        assert_eq!(a.rank_max, 9);
    }

    #[test]
    fn rank_buckets_cover_the_domain() {
        assert_eq!(rank_bucket(0), 0);
        assert_eq!(rank_bucket(1), 1);
        assert_eq!(rank_bucket(2), 2);
        assert_eq!(rank_bucket(3), 2);
        assert_eq!(rank_bucket(4), 3);
        assert_eq!(rank_bucket(u64::MAX), RANK_BUCKETS - 1);
        // Monotone: a larger rank never lands in a smaller bucket.
        let mut prev = 0;
        for r in 0..1 << 17 {
            let b = rank_bucket(r);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn rank_summaries_from_counters() {
        let mut s = PlaceStats::default();
        assert_eq!(s.rank_mean(), 0.0);
        assert_eq!(s.rank_p99(), 0);
        // 99 exact pops and one rank-7 outlier: the mean is small, the
        // p99 must sit on the outlier's bucket (clamped to the true max).
        s.rank_pops = 100;
        s.rank_sum = 7;
        s.rank_max = 7;
        s.rank_hist[rank_bucket(0)] += 99;
        s.rank_hist[rank_bucket(7)] += 1;
        assert_eq!(s.rank_mean(), 0.07);
        assert_eq!(s.rank_p99(), 0, "rank 99 of 100 is still an exact pop");
        s.rank_hist[rank_bucket(0)] -= 1;
        s.rank_hist[rank_bucket(7)] += 1;
        s.rank_sum += 7;
        assert_eq!(s.rank_p99(), 7, "two outliers push p99 into their bucket");
    }
}
