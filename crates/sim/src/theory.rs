//! Theorem 5: upper bound on useless work per phase.
//!
//! For Erdős–Rényi graphs `G(n, p)` with `U(0,1]` weights, the expected
//! useless work of a phase that relaxes nodes `a_t(1) … a_t(P)` (sorted by
//! tentative distance `d_t`) satisfies
//!
//! ```text
//! W_t ≤ Σ_{j=1}^{P} [ 1 − Π_{i=1}^{j−1} Π_{L=1}^{n−1}
//!        (1 − (p·h_t(i,j))^L / L!) ^ ((n−2)!/(n−1−L)!) ]
//! ```
//!
//! with `h_t(i,j) = d_t(j) − d_t(i)` (Theorem 5), and a weaker variant using
//! `h*_t = d_t(P) − d_t(1)` everywhere (Remark 1). The exponent
//! `(n−2)!/(n−1−L)! = (n−2)(n−3)…(n−L)` is the number of simple paths of
//! length `L` between two fixed nodes; it reaches ~`n^(L−1)` and must be
//! handled in the log domain.
//!
//! Evaluation strategy: the inner product's logarithm is
//! `S(h) = Σ_L E_L · ln(1 − x_L)` with `x_L = (p·h)^L / L!`. We compute
//! `ln E_L` from a prefix-sum table of `ln m` and each term as
//! `−exp(ln E_L + ln(−ln(1−x_L)))`, clamping to `−∞` when the exponent
//! overflows. Terms rise to a peak near `L ≈ n·p·h` and then die off
//! factorially; iteration stops past the peak once terms drop below 1e−18.

/// Precomputed tables for a fixed `(n, p)` model.
pub struct TheoryBound {
    n: usize,
    p: f64,
    /// `ln_e[L] = ln((n−2)!/(n−1−L)!)` for `L = 1..=n−1` (`ln_e[0]` unused).
    ln_e: Vec<f64>,
}

impl TheoryBound {
    /// Builds the evaluator for `G(n, p)`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `p` outside `(0, 1]`.
    pub fn new(n: usize, p: f64) -> Self {
        assert!(n >= 2, "model needs at least two nodes");
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        // ln E_L = Σ_{m=n−L}^{n−2} ln m  (empty sum for L = 1):
        // E_1 = 1; E_L = E_{L−1} · (n − L) for L ≥ 2.
        let mut ln_e = vec![0.0; n];
        let mut acc = 0.0f64;
        for (l, slot) in ln_e.iter_mut().enumerate().skip(1) {
            if l >= 2 {
                acc += ((n - l) as f64).ln();
            }
            *slot = acc;
        }
        TheoryBound { n, p, ln_e }
    }

    /// `S(h) = Σ_L E_L ln(1 − (p·h)^L / L!) ≤ 0`: the log of the probability
    /// that **no** path of weight < `h` exists between two random nodes
    /// (lower bound; Conjecture 1 + Lemma 1).
    ///
    /// Returns `f64::NEG_INFINITY` when the probability underflows to 0.
    pub fn ln_no_path_probability(&self, h: f64) -> f64 {
        if h <= 0.0 {
            return 0.0; // no positive-weight path can weigh < 0 ⇒ prob 1
        }
        let ph = self.p * h.min(1.0);
        let mut sum = 0.0f64;
        let mut ln_xl = 0.0f64; // ln x_L built incrementally
        let peak = (self.n as f64 * ph).ceil() as usize + 2;
        for l in 1..self.n {
            // x_L = (p·h)^L / L!  ⇒  ln x_L += ln(p·h) − ln L.
            ln_xl += ph.ln() - (l as f64).ln();
            let x = ln_xl.exp();
            // ln(1 − x): exact when x is representable below 1.
            let ln1m = if x >= 1.0 {
                return f64::NEG_INFINITY; // a term is certain ⇒ prob 0
            } else {
                (-x).ln_1p()
            };
            // term = E_L · ln(1 − x) = −exp(ln E_L + ln(−ln1m)).
            let magnitude = self.ln_e[l] + (-ln1m).ln();
            if magnitude > 700.0 {
                return f64::NEG_INFINITY;
            }
            let term = -magnitude.exp();
            sum += term;
            if l > peak && term > -1e-18 {
                break; // factorial decay has taken over
            }
        }
        sum
    }

    /// Theorem 5, exact pairwise form: expected useless-work upper bound for
    /// a phase relaxing nodes with sorted tentative distances `dists`.
    pub fn useless_upper_bound(&self, dists: &[f64]) -> f64 {
        debug_assert!(dists.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        let mut w = 0.0f64;
        for j in 1..dists.len() {
            let mut ln_q = 0.0f64; // ln Π_{i<j} Pr[no path shorter than h(i,j)]
            for i in 0..j {
                ln_q += self.ln_no_path_probability(dists[j] - dists[i]);
                if ln_q == f64::NEG_INFINITY {
                    break;
                }
            }
            w += 1.0 - ln_q.exp();
        }
        w
    }

    /// Remark 1's simplified form: every pair uses `h* = max − min`.
    /// `relaxed` is the number of nodes relaxed in the phase.
    pub fn useless_upper_bound_hstar(&self, h_star: f64, relaxed: usize) -> f64 {
        if relaxed <= 1 {
            return 0.0;
        }
        let s = self.ln_no_path_probability(h_star);
        let mut w = 0.0f64;
        for j in 1..relaxed {
            // q(j) ≥ exp(j · S): j earlier nodes, each pair bounded via h*.
            w += 1.0 - (j as f64 * s).exp();
        }
        w
    }

    /// Lower bound on settled nodes in a phase (Figure 3, right panel):
    /// `relaxed − W_t`, clamped to `[0, relaxed]`.
    pub fn settled_lower_bound(&self, dists_sorted: &[f64]) -> f64 {
        let w = self.useless_upper_bound(dists_sorted);
        (dists_sorted.len() as f64 - w).clamp(0.0, dists_sorted.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_e_table_matches_direct_products() {
        let tb = TheoryBound::new(10, 0.5);
        // E_1 = 1, E_2 = n−2 = 8, E_3 = (n−2)(n−3) = 56.
        assert!((tb.ln_e[1] - 0.0).abs() < 1e-12);
        assert!((tb.ln_e[2] - 8f64.ln()).abs() < 1e-12);
        assert!((tb.ln_e[3] - 56f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn no_path_probability_boundaries() {
        let tb = TheoryBound::new(100, 0.5);
        // h = 0: no path can be shorter ⇒ probability 1 ⇒ ln = 0.
        assert_eq!(tb.ln_no_path_probability(0.0), 0.0);
        // Larger h ⇒ a short path more likely ⇒ ln prob decreases.
        let a = tb.ln_no_path_probability(0.01);
        let b = tb.ln_no_path_probability(0.05);
        let c = tb.ln_no_path_probability(0.5);
        assert!(a <= 0.0);
        assert!(b <= a);
        assert!(c <= b);
    }

    #[test]
    fn large_h_underflows_to_certainty() {
        // In a dense 1000-node graph a path of weight < 0.9 between two
        // random nodes exists almost surely.
        let tb = TheoryBound::new(1000, 0.5);
        let lnp = tb.ln_no_path_probability(0.9);
        assert!(lnp < -20.0, "ln prob = {lnp}");
    }

    #[test]
    fn useless_bound_zero_when_all_equal() {
        let tb = TheoryBound::new(500, 0.5);
        // All relaxed nodes at the same distance: h = 0 everywhere, no node
        // can invalidate another (weights are strictly positive).
        let dists = vec![0.3; 10];
        assert!(tb.useless_upper_bound(&dists) < 1e-12);
    }

    #[test]
    fn useless_bound_monotone_in_spread() {
        let tb = TheoryBound::new(500, 0.5);
        let tight: Vec<f64> = (0..10).map(|i| 0.3 + i as f64 * 1e-4).collect();
        let wide: Vec<f64> = (0..10).map(|i| 0.3 + i as f64 * 1e-2).collect();
        let a = tb.useless_upper_bound(&tight);
        let b = tb.useless_upper_bound(&wide);
        assert!(a <= b, "tight {a} vs wide {b}");
        assert!((0.0..=10.0).contains(&a));
        assert!((0.0..=10.0).contains(&b));
    }

    #[test]
    fn hstar_form_is_weaker_than_pairwise() {
        let tb = TheoryBound::new(300, 0.5);
        let dists: Vec<f64> = (0..20).map(|i| 0.2 + i as f64 * 2e-3).collect();
        let exact = tb.useless_upper_bound(&dists);
        let h_star = dists.last().unwrap() - dists.first().unwrap();
        let weak = tb.useless_upper_bound_hstar(h_star, dists.len());
        assert!(
            weak >= exact - 1e-9,
            "h* bound {weak} must dominate pairwise {exact}"
        );
    }

    #[test]
    fn settled_bound_within_range() {
        let tb = TheoryBound::new(200, 0.5);
        let dists: Vec<f64> = (0..15).map(|i| 0.1 + i as f64 * 5e-3).collect();
        let s = tb.settled_lower_bound(&dists);
        assert!((0.0..=15.0).contains(&s));
    }

    /// Monte-Carlo validation of the `1/L!` structure behind Lemma 1:
    /// the probability that L iid U(0,h] weights sum below h is 1/L!.
    #[test]
    fn lemma1_simplex_volume_monte_carlo() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let trials = 200_000;
        for l in 2..=4usize {
            let mut hits = 0u32;
            for _ in 0..trials {
                let s: f64 = (0..l).map(|_| rng.gen::<f64>()).sum();
                if s < 1.0 {
                    hits += 1;
                }
            }
            let measured = hits as f64 / trials as f64;
            let expect = 1.0 / (1..=l).product::<usize>() as f64;
            assert!(
                (measured - expect).abs() < 0.01,
                "L={l}: measured {measured}, expected {expect}"
            );
        }
    }

    /// End-to-end: the theoretical settled lower bound must not exceed the
    /// settled count of an exact phase run by more than statistical noise,
    /// phase by phase (this is the Figure 3c comparison).
    #[test]
    fn bound_is_consistent_with_simulation() {
        use crate::RhoWindow;
        use priosched_workloads::SsspWorkload;
        use std::sync::Arc;
        let (n, p) = (400, 0.5);
        let w = SsspWorkload::random(n, p, 17);
        let run = w.run_phases(&Arc::new(RhoWindow::new(16, 0)), 0).unwrap();
        let tb = TheoryBound::new(n, p);
        // A lower bound on the expected settled count; per-phase randomness
        // allows occasional dips below, so count gross violations only.
        let violations = run
            .phases
            .iter()
            .filter(|ph| (ph.settled as f64) < tb.settled_lower_bound(&ph.dists) - 3.0)
            .count();
        let frac = violations as f64 / run.phases.len().max(1) as f64;
        assert!(
            frac < 0.1,
            "settled fell far below the theoretical lower bound in {frac:.0}% of phases"
        );
    }
}
