//! HDR-style per-operation latency histogram.
//!
//! Throughput means hide exactly the effect flat combining exists to
//! produce: a *tail* change. Delegation turns "every thread occasionally
//! eats a full lock-convoy stall" into "one combiner works while the
//! others wait a bounded hand-off" — the mean barely moves, p99/p999 do.
//! So a per-operation probe records every operation into a
//! [`LatencyHist`] and reports percentiles next to the mean.
//!
//! The layout is the classic log-linear scheme (as popularized by
//! HdrHistogram): values below 2^[`SUB_BITS`] get exact unit buckets;
//! above that, each power-of-two range is split into 2^[`SUB_BITS`]
//! linear sub-buckets, bounding the relative quantization error at
//! 2^-[`SUB_BITS`] (≈ 1.6%). Recording is a shift/mask and an array
//! increment — no allocation, no floating point — cheap enough to sit on
//! the op path being measured. Percentile queries return the *upper*
//! bound of the hit bucket so a reported p99 never understates the truth.
//!
//! Histograms are thread-local by construction (each worker owns one) and
//! merged with [`LatencyHist::merge`] after the run, mirroring how
//! `PlaceStats` are aggregated.

use std::time::Duration;

/// log2 of the sub-bucket count per power-of-two range.
const SUB_BITS: u32 = 6;
/// Sub-buckets per power-of-two range (64 → ≤ 1.6% relative error).
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Largest power-of-two exponent tracked exactly: values up to
/// 2^`MAX_EXP` − 1 ns (≈ 137 s) land in a real bucket, larger ones
/// saturate into the last bucket.
const MAX_EXP: u32 = 37;
/// Total bucket count for the layout above.
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) << SUB_BITS) as usize;

/// A fixed-size log-linear latency histogram (nanosecond domain).
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a nanosecond value (saturating at the top).
    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUB_COUNT {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let shift = msb - SUB_BITS;
        let idx = (((msb - SUB_BITS + 1) as u64) << SUB_BITS) + ((ns >> shift) & (SUB_COUNT - 1));
        (idx as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of the values mapping to `idx` — what
    /// percentile queries report.
    #[inline]
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_COUNT {
            return idx;
        }
        let range = (idx >> SUB_BITS) - 1; // 0-based power-of-two range
        let sub = idx & (SUB_COUNT - 1);
        let low = (SUB_COUNT + sub) << range;
        low + (1u64 << range) - 1
    }

    /// Records one latency in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Records one latency as a [`Duration`] (saturating at `u64` ns).
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds `other` into `self` (exact: bucket-wise addition).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` ∈ [0, 1]: the upper bound of the bucket
    /// holding the ⌈q·count⌉-th smallest sample, clamped to the exact
    /// observed max so quantization never reports past it. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`LatencyHist::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

impl std::fmt::Debug for LatencyHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHist")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("p999", &self.p999())
            .field("max", &self.max_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 2, 3, 10, 63] {
            h.record(v);
        }
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 63);
        // Below SUB_COUNT every value has its own bucket: percentiles are
        // exact order statistics.
        assert_eq!(h.percentile(1.0 / 6.0), 0);
        // rank ⌈0.5·6⌉ = 3 → the third smallest sample.
        assert_eq!(h.p50(), 2);
        assert_eq!(h.percentile(1.0), 63);
    }

    #[test]
    fn large_values_stay_within_relative_error() {
        let mut h = LatencyHist::new();
        for v in [1_000u64, 10_000, 1_000_000, 123_456_789] {
            h.record(v);
            let got = h.percentile(1.0);
            // Upper bound, never past the observed max, within 1.6%.
            assert!(got <= v, "p100 {got} must not exceed exact max {v}");
            assert!(
                (v - got) as f64 <= v as f64 / SUB_COUNT as f64,
                "p100 {got} under-reports {v} by more than the error bound"
            );
            h = LatencyHist::new();
        }
    }

    #[test]
    fn percentiles_split_a_bimodal_distribution() {
        let mut h = LatencyHist::new();
        // 99 fast ops at ~100 ns, 1 slow op at ~1 ms.
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        assert!(h.p50() <= 102, "median must sit on the fast mode");
        assert!(h.p99() <= 102, "p99 rank 99 of 100 is still the fast mode");
        assert!(h.p999() > 900_000, "p999 must surface the outlier");
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn merge_is_exact_bucket_addition() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut all = LatencyHist::new();
        for v in [10u64, 500, 70_000] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 9_000, 2_000_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min_ns(), all.min_ns());
        assert_eq!(a.max_ns(), all.max_ns());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile(q), all.percentile(q), "quantile {q}");
        }
    }

    #[test]
    fn saturates_instead_of_panicking_on_huge_values() {
        let mut h = LatencyHist::new();
        h.record(u64::MAX);
        h.record_duration(Duration::from_secs(10_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
        // Both samples saturate into the last bucket, so the percentile
        // reports its (finite) upper bound rather than the raw extreme.
        assert_eq!(h.percentile(1.0), LatencyHist::bucket_upper(BUCKETS - 1));
    }

    #[test]
    fn bucket_upper_bounds_are_monotonic_and_cover_index() {
        let mut prev = 0u64;
        for idx in 1..BUCKETS {
            let up = LatencyHist::bucket_upper(idx);
            assert!(up > prev, "bucket {idx} upper bound must grow");
            prev = up;
        }
        // Round-trip: every value maps to a bucket whose upper bound is
        // ≥ the value (conservative percentiles).
        for v in [0u64, 1, 63, 64, 65, 1_000, 123_456, 1 << 30, (1 << 36) + 5] {
            let idx = LatencyHist::index(v);
            assert!(
                LatencyHist::bucket_upper(idx) >= v,
                "value {v} escaped its bucket's upper bound"
            );
        }
    }
}
