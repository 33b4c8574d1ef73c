//! Property test of the scheduler end to end: random fan-out forests with
//! dead tasks, preseeded and streamed, must execute or eliminate every node
//! exactly once on every kind and place count, and leave the credit-settled
//! outstanding count at zero.
//!
//! The pools' own contract (exactly once, reachability, ρ, exact order at
//! one place) is checked once for every kind in `tests/pool_contract.rs`.

use priosched_core::{run_on_kind, PoolBuilder, PoolKind, PoolParams, SpawnCtx, TaskExecutor};
use proptest::prelude::*;
use std::sync::Arc;

/// A forest over node ids `0..size`: the first `roots` nodes are roots, a
/// live node's children are consecutive ids, a dead node has none (it is
/// eliminated at pop time and never spawns).
struct Forest {
    children: Vec<std::ops::Range<usize>>,
    dead: Vec<bool>,
    roots: usize,
}

impl Forest {
    /// Lays `shape` (fan-out, dead iff 0) out breadth-first; nodes the
    /// fan-outs never reach are cut off, so every node of the result is
    /// reachable.
    fn new(shape: &[(u8, u8)], roots: usize) -> Forest {
        let roots = roots.min(shape.len());
        let mut next = roots;
        let mut children = Vec::new();
        for &(fanout, dead) in shape {
            if children.len() == next {
                break;
            }
            let end = if dead == 0 {
                next
            } else {
                (next + fanout as usize).min(shape.len())
            };
            children.push(next..end);
            next = end;
        }
        let dead = shape[..children.len()]
            .iter()
            .map(|&(_, d)| d == 0)
            .collect();
        Forest {
            children,
            dead,
            roots,
        }
    }

    fn size(&self) -> u64 {
        self.children.len() as u64
    }

    fn prio(node: usize) -> u64 {
        (node as u64).wrapping_mul(0x9E37_79B9) % 64
    }
}

impl TaskExecutor<usize> for Forest {
    fn execute(&self, node: usize, ctx: &mut SpawnCtx<'_, usize>) {
        let kids = self.children[node].clone();
        if node.is_multiple_of(2) {
            for kid in kids {
                ctx.spawn(Forest::prio(kid), 4, kid);
            }
        } else {
            let mut batch = ctx.take_batch_buf();
            batch.extend(kids.map(|kid| (Forest::prio(kid), kid)));
            ctx.spawn_batch(4, &mut batch);
            ctx.put_batch_buf(batch);
        }
    }

    fn is_dead(&self, node: &usize) -> bool {
        self.dead[*node]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ledger end to end: whatever mix of credit-paid and
    /// counter-paid spawns, dead tasks and lane drains a forest produces,
    /// `executed + dead` is the forest and the shared count ends at zero —
    /// `Scheduler::run` asserts that on return, and `PoolService::join`
    /// returning is that reading (with empty lanes).
    #[test]
    fn forests_drain_exactly_and_settle_to_zero(
        shape in proptest::collection::vec((0u8..5, 0u8..5), 1..80),
        roots in 1usize..5,
    ) {
        for kind in PoolKind::ALL {
            for places in [1usize, 2, 4] {
                let forest = Forest::new(&shape, roots);
                let seeds: Vec<(u64, usize, usize)> =
                    (0..forest.roots).map(|r| (Forest::prio(r), 4, r)).collect();
                let stats = run_on_kind(kind, places, PoolParams::default(), &forest, seeds);
                prop_assert_eq!(
                    stats.executed + stats.dead, forest.size(),
                    "closed world, {:?} on {} places", kind, places
                );

                let forest = Arc::new(forest);
                let mut svc = PoolBuilder::new(kind)
                    .places(places)
                    .lane_capacity(2)
                    .service(Arc::clone(&forest));
                for r in 0..forest.roots {
                    svc.submit(Forest::prio(r), 4, r).unwrap();
                }
                svc.join().unwrap();
                let stats = svc.shutdown().expect("clean shutdown");
                prop_assert_eq!(
                    stats.executed + stats.dead, forest.size(),
                    "streamed, {:?} on {} places", kind, places
                );
                prop_assert_eq!(
                    stats.dead,
                    forest.dead.iter().filter(|&&d| d).count() as u64
                );
            }
        }
    }
}
