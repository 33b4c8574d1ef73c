//! Order statistics, the harness's seeded generator, and process memory.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// the two nearest ranks — the same rule as NumPy's default. `values` need
/// not be sorted.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Distance between the first and third quartile, as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    (percentile(values, 0.75) - percentile(values, 0.25)) / median(values)
}

/// Fewest blocks [`block_means`] cuts a run's reps into.
pub const MIN_BLOCKS: usize = 16;

/// Means of blocks of consecutive samples: at least `MIN_BLOCKS` and fewer
/// than twice as many blocks, once there are that many samples. Samples that
/// do not fill a last block are left out. A rep's time can have two modes (a run lands
/// in a good or a bad thread placement), and the median of such samples
/// jumps between the modes; a block's mean does not, so the reported
/// timing is the median over blocks.
pub fn block_means(values: &[f64]) -> Vec<f64> {
    let block = (values.len() / MIN_BLOCKS).max(1);
    values
        .chunks_exact(block)
        .map(|b| b.iter().sum::<f64>() / block as f64)
        .collect()
}

/// SplitMix64: the harness's only source of randomness, so that every
/// instance is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// This process's peak resident set (`VmHWM`) in MB; 0.0 where
/// `/proc/self/status` is not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads every workload uses: it must fit the 2-core box the
/// baseline numbers come from, and never oversubscribe a bigger one much.
pub fn places() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        // Quartiles of 1..=5 are 2 and 4, the median 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((iqr_frac(&v) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn blocks_average_consecutive_samples() {
        // Fewer samples than blocks: every sample is its own block.
        assert_eq!(block_means(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
        // 40 samples: blocks of 2, 20 of them.
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        let blocks = block_means(&v);
        assert_eq!(blocks.len(), 20);
        assert_eq!(blocks[0], 0.5);
        assert_eq!(blocks[19], 38.5);
        // 50 samples: blocks of 3, the last two samples left out.
        let v: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(block_means(&v).len(), 16);
        // Two modes in alternation: every block of two has the same mean.
        let v: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        assert!(block_means(&v).iter().all(|&m| m == 2.0));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        median(&[]);
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64(7).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = SplitMix64(7);
        let mut y = SplitMix64(8);
        assert_ne!(x.next(), y.next());
        assert!((0..1000).all(|_| x.below(10) < 10));
    }
}
