//! Streamed ingestion must be observationally equivalent to preseeding.
//!
//! Property: the same multiset of seed tasks, delivered either as `run`
//! roots or through [`IngressLanes`] from several concurrent producer
//! threads, yields oracle-identical results on every structure. The
//! executor's outcome (execution count + payload sum, including tasks
//! spawned transitively *inside* the pool) is a deterministic function of
//! the seed multiset alone, so any divergence means the ingestion path
//! dropped, duplicated, or corrupted a task.
//!
//! Also pins the [`PoolKind`] string surface: `FromStr` must round-trip
//! both [`PoolKind::id`] and [`PoolKind::label`] over [`PoolKind::ALL`],
//! ids must be unique (they key the benchmark's metric names), and
//! `Display` must match the figure legends.

use priosched_core::{
    run_on_kind, run_stream_on_kind, IngressLanes, PoolKind, PoolParams, SpawnCtx, TaskExecutor,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts executions and sums payloads; tasks divisible by 3 spawn a
/// half-value child, so part of the work is created *inside* the pool and
/// the streamed path has to interleave correctly with in-pool spawning.
#[derive(Default)]
struct Accumulate {
    count: AtomicU64,
    sum: AtomicU64,
}

impl TaskExecutor<u64> for Accumulate {
    fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(task, Ordering::Relaxed);
        if task > 0 && task.is_multiple_of(3) {
            ctx.spawn(task / 2, 8, task / 2);
        }
    }
}

/// `(count, sum)` the executor must end at for this seed multiset,
/// computed by sequentially unrolling every chain.
fn expected(seeds: &[(u64, usize, u64)]) -> (u64, u64) {
    let (mut count, mut sum) = (0u64, 0u64);
    for &(_, _, mut task) in seeds {
        loop {
            count += 1;
            sum += task;
            if task > 0 && task.is_multiple_of(3) {
                task /= 2;
            } else {
                break;
            }
        }
    }
    (count, sum)
}

/// Maps raw generated bytes to seed triples; `k` alternates between two
/// values so lane draining has to split batches at `k`-run boundaries.
fn to_seeds(raw: &[(u16, u8)]) -> Vec<(u64, usize, u64)> {
    raw.iter()
        .map(|&(prio, payload)| {
            let k = if payload % 2 == 0 { 8 } else { 32 };
            (prio as u64, k, payload as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_matches_preseeded_on_every_structure(
        raw in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..48),
        producers in 1usize..5,
    ) {
        let seeds = to_seeds(&raw);
        let (want_count, want_sum) = expected(&seeds);
        for kind in PoolKind::ALL {
            let params = PoolParams::with_k(16);
            let places = 2;

            let pre = Accumulate::default();
            let stats = run_on_kind(kind, places, params, &pre, seeds.clone());
            prop_assert_eq!(stats.executed, want_count, "preseeded {}", kind);
            prop_assert_eq!(pre.count.load(Ordering::Relaxed), want_count);
            prop_assert_eq!(pre.sum.load(Ordering::Relaxed), want_sum);

            let streamed = Accumulate::default();
            let ingress = IngressLanes::new(places);
            let stats = std::thread::scope(|s| {
                let mut shards: Vec<Vec<(u64, usize, u64)>> =
                    (0..producers).map(|_| Vec::new()).collect();
                for (i, seed) in seeds.iter().enumerate() {
                    shards[i % producers].push(*seed);
                }
                for shard in shards {
                    let mut h = ingress.handle();
                    s.spawn(move || {
                        for (prio, k, task) in shard {
                            h.submit(prio, k, task).expect("open unbounded lanes accept");
                        }
                    });
                }
                run_stream_on_kind(kind, places, params, &streamed, &ingress)
            });
            prop_assert_eq!(stats.executed, want_count, "streamed {}", kind);
            prop_assert_eq!(streamed.count.load(Ordering::Relaxed), want_count);
            prop_assert_eq!(
                streamed.sum.load(Ordering::Relaxed),
                want_sum,
                "streamed result diverges from preseeded on {}",
                kind
            );
        }
    }
}

#[test]
fn pool_kind_ids_labels_and_from_str_round_trip() {
    let mut seen_ids = std::collections::BTreeSet::new();
    let mut seen_labels = std::collections::BTreeSet::new();
    for kind in PoolKind::ALL {
        // id → FromStr → kind
        assert_eq!(kind.id().parse::<PoolKind>().unwrap(), kind, "{kind}");
        // label → FromStr → kind (case-insensitive)
        assert_eq!(kind.label().parse::<PoolKind>().unwrap(), kind);
        assert_eq!(
            kind.label()
                .to_ascii_uppercase()
                .parse::<PoolKind>()
                .unwrap(),
            kind
        );
        assert_eq!(
            kind.id().to_ascii_uppercase().parse::<PoolKind>().unwrap(),
            kind
        );
        // Display is the figure-legend label.
        assert_eq!(kind.to_string(), kind.label());
        // ids are snake_case (they key benchmark metrics and CLI flags).
        assert!(
            kind.id()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'),
            "{kind}: id {:?} is not snake_case",
            kind.id()
        );
        assert!(seen_ids.insert(kind.id()), "duplicate id {:?}", kind.id());
        assert!(
            seen_labels.insert(kind.label()),
            "duplicate label {:?}",
            kind.label()
        );
    }
    assert_eq!(seen_ids.len(), PoolKind::ALL.len());
    // Unknown names must fail with a helpful message, not panic.
    let err = "no_such_kind".parse::<PoolKind>().unwrap_err();
    assert!(err.contains("unknown pool kind"), "{err}");
}
