//! Small internal utilities.

use priosched_pq::RadixKey;

/// Entry of a place-local queue (work-stealing, MultiQueue): priority,
/// per-place insertion sequence (deterministic tiebreak within a place),
/// task. Ordered by `(prio, seq)`.
pub(crate) struct SeqEntry<T> {
    pub(crate) prio: u64,
    pub(crate) seq: u64,
    pub(crate) task: T,
}

impl<T> PartialEq for SeqEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.prio == other.prio && self.seq == other.seq
    }
}
impl<T> Eq for SeqEntry<T> {}
impl<T> PartialOrd for SeqEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for SeqEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.prio, self.seq).cmp(&(other.prio, other.seq))
    }
}

/// Keyed by the priority, the first component of the order.
impl<T> RadixKey for SeqEntry<T> {
    fn radix_key(&self) -> u64 {
        self.prio
    }
}

/// xorshift64* PRNG: one multiply + three shifts per draw.
///
/// The randomized placement of the centralized push (Listing 1) and victim
/// selection draw one random number per operation, so the generator sits on
/// the hot path; a cryptographic RNG would dominate push cost. Determinism
/// per seed keeps tests reproducible.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; any seed is accepted (zero is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15 | 1,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, n)`. `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift; the modulo bias is < 2^-32 for the small
        // ranges used here (k ≤ 2^20, P ≤ 2^10), far below what scheduling
        // randomization could ever observe.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = XorShift64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = XorShift64::new(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn roughly_uniform_over_small_range() {
        let mut rng = XorShift64::new(11);
        let n = 16u64;
        let draws = 64_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..draws {
            counts[rng.below(n) as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.10, "bucket {i} off by {dev:.3}");
        }
    }
}
