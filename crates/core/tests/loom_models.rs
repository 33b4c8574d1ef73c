//! Runner for the loom interleaving models (see `src/models.rs` and the
//! crate-level "Model-checked properties" section).
//!
//! Compiled only under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p priosched-core --test loom_models --release
//! ```
//!
//! The four mutation self-checks run under an *additional* cfg that
//! plants a deliberate bug in the library and assert the checker finds it:
//!
//! ```text
//! RUSTFLAGS="--cfg loom --cfg loom_mutate_park_fence"    cargo test -p priosched-core --test loom_models --release
//! RUSTFLAGS="--cfg loom --cfg loom_mutate_exact_recheck" cargo test -p priosched-core --test loom_models --release
//! RUSTFLAGS="--cfg loom --cfg loom_mutate_credit_flush"  cargo test -p priosched-core --test loom_models --release
//! RUSTFLAGS="--cfg loom --cfg loom_mutate_drain_wake"    cargo test -p priosched-core --test loom_models --release
//! ```
//!
//! The regular models are gated off in the mutated builds — the planted
//! bug makes them (correctly) fail, which is exactly what the self-check
//! asserts via `catch_unwind`.
#![cfg(loom)]

use priosched_core::models;

#[cfg(not(any(
    loom_mutate_park_fence,
    loom_mutate_exact_recheck,
    loom_mutate_credit_flush,
    loom_mutate_drain_wake
)))]
mod checked {
    use super::models;

    #[test]
    fn parker_no_lost_wakeup() {
        models::parker_no_lost_wakeup();
    }

    #[test]
    fn structural_pop_takes_a_true_minimum() {
        models::structural_pop_takes_a_true_minimum();
    }

    #[test]
    fn structural_pop_behind_a_sifting_pop_takes_the_true_next() {
        models::structural_pop_behind_a_sifting_pop_takes_the_true_next();
    }

    #[test]
    fn free_list_no_aba_double_pop() {
        models::free_list_no_aba_double_pop();
    }

    #[test]
    fn multiqueue_scan_finds_present_item() {
        models::multiqueue_scan_finds_present_item();
    }

    #[test]
    fn multiqueue_buffer_is_reachable_by_other_places() {
        models::multiqueue_buffer_is_reachable_by_other_places();
    }

    #[test]
    fn ingress_counters_never_hide_a_task() {
        models::ingress_counters_never_hide_a_task();
    }

    #[test]
    fn credits_settle_before_quiescence() {
        models::credits_settle_before_quiescence();
    }

    #[test]
    fn join_wakes_on_the_last_of_drain_and_finish() {
        models::join_wakes_on_the_last_of_drain_and_finish();
    }

    #[test]
    fn centralized_window_walk_exactly_once() {
        models::centralized_window_walk_exactly_once();
    }
}

/// Self-check: with the `wake_if_waiting` fence removed, the parker model
/// must *fail* (the explorer finds the parked thread's lost-wakeup
/// deadlock). A green run here would mean the checker is blind.
#[cfg(loom_mutate_park_fence)]
#[test]
fn mutation_park_fence_is_caught() {
    let result = std::panic::catch_unwind(models::parker_no_lost_wakeup);
    assert!(
        result.is_err(),
        "checker failed to find the planted lost-wakeup (missing fence)"
    );
}

/// Self-check: with the structural pop's re-check under the queue lock
/// skipped, the exact-pop model must *fail* (a pop that read a top gone
/// stale takes 30 in some schedule).
#[cfg(loom_mutate_exact_recheck)]
#[test]
fn mutation_exact_recheck_is_caught() {
    let result = std::panic::catch_unwind(models::structural_pop_takes_a_true_minimum);
    assert!(
        result.is_err(),
        "checker failed to find the planted stale-top pop (re-check skipped)"
    );
}

/// Self-check: with the settle in front of the scheduler's termination
/// check removed, the credit model must *fail* (the last credits are never
/// released, the count stays above zero, and both places park for good).
#[cfg(loom_mutate_credit_flush)]
#[test]
fn mutation_credit_flush_is_caught() {
    let result = std::panic::catch_unwind(models::credits_settle_before_quiescence);
    assert!(
        result.is_err(),
        "checker failed to find the planted deadlock (credits never settled)"
    );
}

/// Self-check: with `drain_into`'s `queued → 0` control-slot wake removed,
/// the join model must *fail* (the settle's wake fires while `queued` is
/// still up, and nothing wakes the joiner when it falls).
#[cfg(loom_mutate_drain_wake)]
#[test]
fn mutation_drain_wake_is_caught() {
    let result = std::panic::catch_unwind(models::join_wakes_on_the_last_of_drain_and_finish);
    assert!(
        result.is_err(),
        "checker failed to find the planted join hang (drain wake removed)"
    );
}
