//! Shared tentative-distance array with CAS decrease.
//!
//! Listing 5 updates `graph[target].distance` with a CAS retry loop; here the
//! distances live in a dedicated array of `AtomicU64` storing `f64` bit
//! patterns. Non-negative doubles order identically to their bit patterns,
//! so both the CAS and the priority keys work directly on bits.

use std::sync::atomic::{AtomicU64, Ordering};

/// Tentative distances for all nodes, shared by all places.
pub struct AtomicDistances {
    bits: Vec<AtomicU64>,
}

impl AtomicDistances {
    /// All distances start at `+∞` (unreached).
    pub fn new(n: usize) -> Self {
        AtomicDistances {
            bits: (0..n)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
        }
    }

    /// Raw bit pattern of `node`'s tentative distance.
    #[inline]
    pub fn load_bits(&self, node: u32) -> u64 {
        self.bits[node as usize].load(Ordering::Acquire)
    }

    /// `node`'s tentative distance as `f64`.
    #[inline]
    pub fn load(&self, node: u32) -> f64 {
        f64::from_bits(self.load_bits(node))
    }

    /// Sets `node`'s distance unconditionally (used to seed the source).
    pub fn store(&self, node: u32, value: f64) {
        debug_assert!(value >= 0.0);
        self.bits[node as usize].store(value.to_bits(), Ordering::Release);
    }

    /// Listing 5's decrease loop: repeatedly CAS while the stored distance
    /// is larger than `new_bits`. Returns `true` if this call performed the
    /// decrease, `false` when the stored value was already ≤.
    #[inline]
    pub fn try_decrease(&self, node: u32, new_bits: u64) -> bool {
        let cell = &self.bits[node as usize];
        let mut old = cell.load(Ordering::Relaxed);
        // Non-negative f64 bit patterns compare like the floats themselves.
        while old > new_bits {
            match cell.compare_exchange_weak(old, new_bits, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(cur) => old = cur,
            }
        }
        false
    }

    /// Snapshot as a plain `f64` vector (after the run has quiesced).
    pub fn snapshot(&self) -> Vec<f64> {
        self.bits
            .iter()
            .map(|b| f64::from_bits(b.load(Ordering::Acquire)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_infinity() {
        let d = AtomicDistances::new(3);
        assert!(d.load(0).is_infinite());
        assert!(d.load(2).is_infinite());
    }

    #[test]
    fn decrease_succeeds_then_rejects_worse() {
        let d = AtomicDistances::new(1);
        assert!(d.try_decrease(0, 5.0f64.to_bits()));
        assert_eq!(d.load(0), 5.0);
        assert!(!d.try_decrease(0, 7.0f64.to_bits()), "worse value rejected");
        assert!(d.try_decrease(0, 3.0f64.to_bits()));
        assert_eq!(d.load(0), 3.0);
    }

    #[test]
    fn equal_value_is_not_a_decrease() {
        let d = AtomicDistances::new(1);
        d.store(0, 4.0);
        assert!(!d.try_decrease(0, 4.0f64.to_bits()));
    }

    #[test]
    fn concurrent_decreases_settle_at_minimum() {
        let d = std::sync::Arc::new(AtomicDistances::new(1));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let d = d.clone();
                s.spawn(move || {
                    for i in (0..1000u64).rev() {
                        let v = (t * 1000 + i) as f64 / 7.0 + 1.0;
                        d.try_decrease(0, v.to_bits());
                    }
                });
            }
        });
        // Minimum over all proposed values: t = 0, i = 0 → 1.0.
        assert_eq!(d.load(0), 1.0);
    }

    #[test]
    fn snapshot_reflects_values() {
        let d = AtomicDistances::new(3);
        d.store(1, 2.5);
        let snap = d.snapshot();
        assert!(snap[0].is_infinite());
        assert_eq!(snap[1], 2.5);
        assert!(snap[2].is_infinite());
    }
}
