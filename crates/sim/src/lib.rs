#![warn(missing_docs)]

//! The phase model and its analytical bounds (§5.2, §5.4).
//!
//! The paper bridges its theory and its experiments with a simulator: "The
//! simulator uses the phase-wise execution model used in the theoretical
//! analysis and allows us to vary the parameters P and ρ" (§5.4). Here the
//! phase is written once, as `SsspExecutor::run_phases` (driven through
//! `SsspWorkload::run_phases`), and runs over any pool; this crate adds
//!
//! * [`RhoWindow`] — the simulated structure as a pool: a pop takes the
//!   least item outside the ρ newest, except that place 0, where every
//!   phase starts, always sees the global minimum;
//! * [`theory`] — Theorem 5's upper bound on useless work per phase, in
//!   both the exact pairwise form and the simplified `h*` form (Remark 1),
//!   evaluated in the log domain so the `(n−2)!/(n−1−L)!` exponents never
//!   overflow.
//!
//! Together they regenerate all three panels of Figure 3 (`figs --sweep k`,
//! the root package's bin, from its window rows at ρ ∈ {0, 128, 512}).

pub mod rho_window;
pub mod theory;

pub use rho_window::RhoWindow;
pub use theory::TheoryBound;

/// The phase simulator's checks, run through `run_phases` over a
/// [`RhoWindow`] on the graphs and (P, ρ) they always used. Every run is
/// checked against Dijkstra's distances.
#[cfg(test)]
mod simulator {
    use super::RhoWindow;
    use priosched_graph::CsrGraph;
    use priosched_workloads::{PhaseRun, SsspWorkload};
    use std::sync::Arc;

    fn phases(w: &SsspWorkload, places: usize, rho: usize) -> PhaseRun {
        let pool = Arc::new(RhoWindow::new(places, rho));
        let run = w.run_phases(&pool, 0);
        run.unwrap_or_else(|e| panic!("P={places} ρ={rho}: {e}"))
    }

    mod tests {
        use super::*;

        #[test]
        fn p1_rho0_is_exactly_dijkstra() {
            let w = SsspWorkload::random(200, 0.05, 1);
            let run = phases(&w, 1, 0);
            // One settled node per phase, zero useless work.
            assert_eq!(run.useless(), 0);
            assert_eq!(run.relaxed() as u64, w.reachable());
            assert!(run
                .phases
                .iter()
                .all(|ph| ph.relaxed() == 1 && ph.settled == 1));
        }

        #[test]
        fn distances_correct_for_any_p_and_rho() {
            let w = SsspWorkload::random(150, 0.08, 2);
            for (p, rho) in [(4, 0), (8, 16), (80, 128), (16, 1000)] {
                phases(&w, p, rho);
            }
        }

        #[test]
        fn useless_work_nonzero_for_large_p_on_line_graph() {
            // A long path forces premature relaxation when P > 1: distant
            // nodes relaxed early must be re-relaxed.
            let n = 64;
            let mut edges: Vec<(u32, u32, f32)> = (0..n - 1)
                .map(|i| (i as u32, (i + 1) as u32, 1.0))
                .collect();
            // A shortcut that makes early tentative distances wrong.
            edges.push((0, 32, 40.0));
            let w = SsspWorkload::new(CsrGraph::from_undirected_edges(n, &edges), 0);
            assert!(
                phases(&w, 8, 0).useless() > 0,
                "shortcut must cause useless work"
            );
        }

        #[test]
        fn phases_relax_at_most_p_nodes() {
            let run = phases(&SsspWorkload::random(120, 0.1, 5), 7, 32);
            assert!(run.phases.iter().all(|ph| ph.relaxed() <= 7));
        }

        #[test]
        fn h_star_is_nonnegative_and_zero_for_single_relaxation() {
            let run = phases(&SsspWorkload::random(100, 0.1, 6), 5, 8);
            for ph in &run.phases {
                assert!(ph.h_star() >= 0.0);
                if ph.relaxed() < 2 {
                    assert_eq!(ph.h_star(), 0.0);
                }
            }
            // The first phase relaxes only the source.
            assert_eq!(run.phases[0].relaxed(), 1);
            assert_eq!(run.phases[0].settled, 1);
        }

        #[test]
        fn rho_increases_useless_work_on_average() {
            // A higher ρ hides good nodes, forcing premature relaxations.
            let w = SsspWorkload::random(300, 0.05, 7);
            let low = phases(&w, 16, 0).useless();
            let high = phases(&w, 16, 256).useless();
            assert!(
                high >= low,
                "rho=256 useless {high} should be >= rho=0 useless {low}"
            );
        }

        #[test]
        fn deterministic_per_seed() {
            let w = SsspWorkload::random(100, 0.1, 8);
            assert_eq!(phases(&w, 6, 12), phases(&w, 6, 12));
        }

        /// Place 0 relaxes the least live node every phase, whatever the
        /// round pushed and however many dead tasks it popped past, so every
        /// phase settles a node (§5.4) and at P = 1 the run is Dijkstra's
        /// order for any ρ.
        #[test]
        fn every_phase_settles_the_least_node() {
            for w in [
                SsspWorkload::random(200, 0.05, 1),
                SsspWorkload::random(300, 0.5, 1000),
            ] {
                for rho in [0usize, 16, 128, 512] {
                    let run = phases(&w, 1, rho);
                    assert_eq!(run.useless(), 0, "P=1 ρ={rho}");
                    assert_eq!(run.relaxed() as u64, w.reachable(), "P=1 ρ={rho}");
                    for places in [4, 80] {
                        let run = phases(&w, places, rho);
                        let ok = run.phases.iter().all(|ph| ph.settled >= 1);
                        assert!(ok, "P={places} ρ={rho}: a phase settled nothing");
                    }
                }
            }
        }

        #[test]
        fn min_node_exception_guarantees_progress() {
            // With ρ ≫ the items held, everything is hidden but the
            // minimum; the run must still terminate and be correct.
            phases(&SsspWorkload::random(80, 0.1, 9), 2, 10_000);
        }
    }

    mod invariant_tests {
        use super::*;

        /// With an ideal queue (ρ = 0) the relaxation frontier is monotone:
        /// the smallest distance relaxed per phase never decreases (the
        /// phase model settles shells outward, like Dijkstra).
        #[test]
        fn min_relaxed_distance_monotone_for_ideal_queue() {
            let run = phases(&SsspWorkload::random(250, 0.06, 31), 8, 0);
            let mins: Vec<f64> = run.phases.iter().map(|ph| ph.dists[0]).collect();
            assert!(
                mins.windows(2).all(|m| m[0] <= m[1]),
                "frontier regressed: {mins:?}"
            );
        }

        /// Every reachable node settles exactly once, for any ρ.
        #[test]
        fn total_settled_equals_reachable_nodes() {
            let w = SsspWorkload::random(220, 0.07, 32);
            for rho in [0usize, 64, 1024] {
                let settled: usize = phases(&w, 12, rho).phases.iter().map(|ph| ph.settled).sum();
                assert_eq!(settled as u64, w.reachable(), "rho={rho}");
            }
        }

        /// Phase records are internally consistent: 1 to P relaxations,
        /// distances sorted, settled ≤ relaxed.
        #[test]
        fn phase_records_internally_consistent() {
            for ph in &phases(&SsspWorkload::random(150, 0.1, 33), 6, 16).phases {
                assert!((1..=6).contains(&ph.relaxed()));
                assert!(ph.settled <= ph.relaxed());
                assert!(ph.dists.windows(2).all(|d| d[0] <= d[1]));
            }
        }
    }
}
