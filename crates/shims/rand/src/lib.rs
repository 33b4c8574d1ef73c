//! In-tree shim for the subset of `rand` 0.8 used by this workspace.
//!
//! The offline build environment has no crates.io access, so the trait
//! surface the graph generator and the `figs` bin rely on — `RngCore`,
//! `SeedableRng::seed_from_u64` and `Rng::{gen, gen_bool, gen_range}` — is
//! implemented here. Generators live in the `rand_chacha` shim.

/// Core randomness source: everything derives from `next_u64`.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators (only the `seed_from_u64` entry point is needed).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed, expanding it to full state.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from their "standard" distribution, `[0, 1)`
/// for the two float types.
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 random mantissa bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `T`'s standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Uniform integer in `[low, high)` (Lemire multiply-shift).
    fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64
    where
        Self: Sized,
    {
        let span = range.end - range.start;
        assert!(span > 0, "gen_range over empty range");
        range.start + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u64(&mut self) -> u64 {
            // Weak generator, but enough to exercise the trait plumbing.
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = Counter(42);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Counter(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counter(9);
        for _ in 0..1000 {
            let x = rng.gen_range(5..15);
            assert!((5..15).contains(&x));
        }
    }
}
