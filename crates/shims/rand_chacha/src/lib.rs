//! In-tree shim for `rand_chacha`'s `ChaCha8Rng` (offline build).
//!
//! The workspace uses `ChaCha8Rng` purely as a *high-quality, seedable,
//! deterministic* generator for reproducible graph generation and
//! simulation — none of its cryptographic properties. This shim keeps the
//! type name (so call sites and the future switch back to the real crate
//! stay unchanged) but implements xoshiro256++, whose statistical quality
//! is far beyond what the 6-sigma sampler tests can distinguish.
//!
//! Note: the byte streams differ from real ChaCha8, so seeded artifacts
//! (generated graphs) are reproducible *within* this tree, not across the
//! shim/real-crate boundary.

use rand::{RngCore, SeedableRng};

/// Deterministic seedable generator (xoshiro256++ under a ChaCha8Rng name).
pub struct ChaCha8Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the standard way to seed xoshiro state.
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        ChaCha8Rng { s }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ by Blackman & Vigna (public domain reference).
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
