//! The pool contract, written once and checked from outside every pool.
//!
//! Every [`PoolKind`] is built through [`PoolKind::build`], the runtime's own
//! constructor, and driven through its handles by seeded single-threaded
//! tapes of `push`, `push_batch`, `pop_entry` and dropping a place's handle.
//! A place's handle is taken at its first step, once per pool as the
//! runtime takes it, and a drop retires the place for the rest of the tape
//! (its later steps are skipped); the drainer is never retired. A shadow
//! multiset replays each tape, so every pop's rank — how many live tasks
//! with a strictly better priority it passed over — is known exactly, for
//! every kind, without any instrument inside the pools. On every tape:
//!
//! * **(i) Exactly once.** A pop returns a pushed, not yet popped payload,
//!   at the priority it was pushed with; a pop from an empty pool fails.
//! * **(ii) Reachability.** At the end of the tape one place pops alone
//!   until the shadow is empty, which takes the tasks of every other handle,
//!   live or dropped. The two MultiQueue configurations never fail a pop
//!   while tasks exist (the failing pop scans every queue and every
//!   buffer). Work-stealing, centralized and hybrid draw a random victim,
//!   probe slot or spy target, so they may fail spuriously, up to 20 000
//!   times per drain.
//! * **(iii) The kind's stated ρ, on every pop.** Centralized: a task
//!   passed over has at most `k` later pushes to the pool. Hybrid: at most
//!   `k` later pushes by the place that pushed it (so rank ≤ P·k).
//!   Structural: rank ≤ (P−1)·(min(k, 16)−1). Work-stealing and the
//!   two-choice MultiQueue state no bound.
//! * **(iv) Exact order at one place** for every kind but the MultiQueue,
//!   whose two queues make even one place relaxed: each pop takes a task
//!   of the least live priority, and fails only on an empty pool.
//!
//! The uniform cells cover places {1, 2, 4} × k {0, 8, 512}. The mixed-k
//! family draws each push's `k` from a per-tape subset of
//! {0, 1, 2, 8, 16, 512}; there windows and buffers of several sizes
//! overlap, so two bounds widen. Centralized: a task pushed at `k` has at
//! most `k + K − 2` later pushes, `K` the largest `k` in use (both clamped
//! to ≥ 1, as pushes are): it sits at `p ≥ tail`, the tail stood above
//! `p − k` when it was placed, and every later push landed at or above that
//! tail and below `tail + K`. Structural: rank ≤ the sum over the other
//! places of `min(k, 16) − 1` for the least `k` in each one's buffer.
//!
//! A failing tape is shrunk by dropping one operation at a time while the
//! same property still fails, and reported with the cell it failed in.
//! Each kind also runs one threaded exactly-once cell.

mod common;

use common::{concurrent_exactly_once, Shadow};
use priosched_core::{AnyHandle, AnyPool, PoolHandle, PoolKind, PoolParams, TaskPool};
use proptest::prelude::*;
use std::fmt;
use std::sync::Arc;

/// One step of a tape. Places and `k` picks are raw draws, reduced modulo
/// the cell's place count and `k` set when the step runs.
#[derive(Clone, Debug)]
enum Op {
    Push {
        place: u8,
        prio: u16,
        kpick: u8,
    },
    PushBatch {
        place: u8,
        prios: Vec<u16>,
        kpick: u8,
    },
    Pop {
        place: u8,
    },
    /// Drops the place's handle and retires the place: its later steps
    /// are skipped. A no-op on the drainer.
    Drop {
        place: u8,
    },
}

impl Op {
    fn place(&self) -> u8 {
        match *self {
            Op::Push { place, .. }
            | Op::PushBatch { place, .. }
            | Op::Pop { place }
            | Op::Drop { place } => place,
        }
    }
}

/// The steps, and the place that drains the pool once they have run.
#[derive(Clone, Debug)]
struct Tape {
    ops: Vec<Op>,
    drainer: u8,
}

fn tape() -> impl Strategy<Value = Tape> {
    let op = prop_oneof![
        6 => (any::<u8>(), any::<u16>(), any::<u8>())
            .prop_map(|(place, prio, kpick)| Op::Push { place, prio, kpick }),
        1 => (any::<u8>(), proptest::collection::vec(any::<u16>(), 0..24), any::<u8>())
            .prop_map(|(place, prios, kpick)| Op::PushBatch { place, prios, kpick }),
        4 => any::<u8>().prop_map(|place| Op::Pop { place }),
        1 => any::<u8>().prop_map(|place| Op::Drop { place }),
    ];
    (proptest::collection::vec(op, 0..160), any::<u8>())
        .prop_map(|(ops, drainer)| Tape { ops, drainer })
}

/// The mixed-k family's per-tape set of bounds.
fn mixed_ks() -> impl Strategy<Value = Vec<usize>> {
    let k = (0usize..6).prop_map(|i| [0, 1, 2, 8, 16, 512][i]);
    proptest::collection::vec(k, 2..4)
}

/// Place counts and uniform bounds of the matrix.
const PLACES: [usize; 3] = [1, 2, 4];
const UNIFORM_KS: [usize; 3] = [0, 8, 512];

/// A pop may fail spuriously this often per drain on the kinds that may.
const MISS_BUDGET: usize = 20_000;

/// The cap on a MultiQueue insertion buffer (`min(k, 16)`).
const BUFFER_CAP: usize = 16;

/// One pool configuration a tape runs against.
#[derive(Clone, Debug)]
struct Cell {
    kind: PoolKind,
    places: usize,
    /// One bound for a uniform cell, several for a mixed-k one.
    ks: Vec<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Property {
    ExactlyOnce,
    Reachability,
    Rho,
    ExactOrder,
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Property::ExactlyOnce => "(i) exactly once",
            Property::Reachability => "(ii) reachability",
            Property::Rho => "(iii) rho",
            Property::ExactOrder => "(iv) exact order at one place",
        })
    }
}

struct Violation {
    property: Property,
    detail: String,
}

fn fail<T>(property: Property, detail: String) -> Result<T, Violation> {
    Err(Violation { property, detail })
}

/// `min(k, 16) − 1`: how many tasks may wait beside one pushed at `k` in
/// a MultiQueue insertion buffer.
fn buffer_slack(k: usize) -> usize {
    k.min(BUFFER_CAP).saturating_sub(1)
}

/// A tape in flight on one cell.
struct Run<'a> {
    cell: &'a Cell,
    pool: Arc<AnyPool<u64>>,
    handles: Vec<Option<AnyHandle<u64>>>,
    /// Places whose handle was dropped; never the drainer.
    retired: Vec<bool>,
    drainer: usize,
    shadow: Shadow,
    /// Structural, mixed k: the least `k` pushed into each place's buffer
    /// since it was last seen empty.
    least_k: Vec<Option<usize>>,
}

impl Run<'_> {
    fn k(&self, kpick: u8) -> usize {
        self.cell.ks[kpick as usize % self.cell.ks.len()]
    }

    fn handle(&mut self, place: usize) -> &mut AnyHandle<u64> {
        let pool = &self.pool;
        self.handles[place].get_or_insert_with(|| pool.handle(place))
    }

    /// The most tasks a structural pop at `place` may pass over.
    fn structural_rho(&self, place: usize) -> usize {
        let others = self.cell.places - 1;
        match self.cell.ks[..] {
            [k] => others * buffer_slack(k),
            _ => (0..self.cell.places)
                .filter(|&q| q != place)
                .map(|q| self.least_k[q].map_or(0, buffer_slack))
                .sum(),
        }
    }

    /// Keeps `least_k` in step with the structural pool's buffers after a
    /// step of `place` that pushed scalar at `pushed_k`, if it did.
    fn track_buffers(&mut self, place: usize, pushed_k: Option<usize>) {
        let AnyPool::Structural(pool) = &*self.pool else {
            return;
        };
        if let Some(k) = pushed_k {
            let least = &mut self.least_k[place];
            *least = Some(least.map_or(k, |least| least.min(k)));
        }
        for (q, least) in self.least_k.iter_mut().enumerate() {
            if pool.buffered(q) == 0 {
                *least = None;
            }
        }
    }

    /// Pops once at `place` and checks the result against the shadow.
    /// Returns whether the pop failed.
    fn pop(&mut self, place: usize) -> Result<bool, Violation> {
        let cell = self.cell;
        let rho = self.structural_rho(place);
        let Some((prio, payload)) = self.handle(place).pop_entry() else {
            let live = self.shadow.live();
            if live == 0 {
                return Ok(true);
            }
            if cell.places == 1 && cell.kind != PoolKind::MultiQueue {
                return fail(Property::ExactOrder, format!("pop failed with {live} live"));
            }
            if matches!(cell.kind, PoolKind::MultiQueue | PoolKind::Structural) {
                let detail = format!("place {place}'s pop failed with {live} live");
                return fail(Property::Reachability, detail);
            }
            return Ok(true);
        };
        let passed = match self.shadow.pop(prio, payload) {
            Ok(passed) => passed,
            Err(detail) => return fail(Property::ExactlyOnce, detail),
        };
        let rank = passed.len();
        if cell.places == 1 && cell.kind != PoolKind::MultiQueue && rank > 0 {
            let detail = format!("popped priority {prio} over {rank} better");
            return fail(Property::ExactOrder, detail);
        }
        let k_max = cell.ks.iter().map(|&k| k.max(1)).max().unwrap_or(1);
        for (p, b) in &passed {
            let (later, allowed) = match cell.kind {
                PoolKind::Centralized if cell.ks.len() == 1 => (self.shadow.pushes_after(*p), b.k),
                PoolKind::Centralized => (self.shadow.pushes_after(*p), b.k.max(1) + k_max - 2),
                PoolKind::Hybrid => (self.shadow.place_pushes_after(b), b.k),
                _ => break,
            };
            if later > allowed as u64 {
                let detail = format!(
                    "place {place} popped priority {prio} over payload {p} (priority {}, \
                     k = {}, place {}) with {later} later pushes, allowed {allowed}",
                    b.prio, b.k, b.place
                );
                return fail(Property::Rho, detail);
            }
        }
        if cell.kind == PoolKind::Structural && rank > rho {
            let detail = format!("place {place} popped priority {prio} at rank {rank}, rho {rho}");
            return fail(Property::Rho, detail);
        }
        Ok(false)
    }

    fn step(&mut self, op: &Op) -> Result<(), Violation> {
        let place = op.place() as usize % self.cell.places;
        if self.retired[place] {
            return Ok(());
        }
        let mut pushed_k = None;
        match op {
            Op::Push { prio, kpick, .. } => {
                let (prio, k) = (*prio as u64, self.k(*kpick));
                let payload = self.shadow.push(place, prio, k);
                self.handle(place).push(prio, k, payload);
                pushed_k = Some(k);
            }
            Op::PushBatch { prios, kpick, .. } => {
                let k = self.k(*kpick);
                let shadow = &mut self.shadow;
                let mut batch: Vec<(u64, u64)> = prios
                    .iter()
                    .map(|&prio| (prio as u64, shadow.push(place, prio as u64, k)))
                    .collect();
                self.handle(place).push_batch(k, &mut batch);
                if !batch.is_empty() {
                    let detail = format!("push_batch left {} tasks behind", batch.len());
                    return fail(Property::ExactlyOnce, detail);
                }
            }
            Op::Pop { .. } => {
                self.pop(place)?;
            }
            Op::Drop { .. } if place != self.drainer => {
                self.handles[place] = None;
                self.retired[place] = true;
            }
            Op::Drop { .. } => {}
        }
        self.track_buffers(place, pushed_k);
        Ok(())
    }

    /// (ii): the drainer pops alone until the shadow is empty, then once
    /// more.
    fn drain(&mut self) -> Result<(), Violation> {
        let place = self.drainer;
        let mut misses = 0;
        while self.shadow.live() > 0 {
            if self.pop(place)? {
                misses += 1;
                if misses == MISS_BUDGET {
                    let detail = format!(
                        "place {place} failed {MISS_BUDGET} pops with {} live",
                        self.shadow.live()
                    );
                    return fail(Property::Reachability, detail);
                }
            }
            self.track_buffers(place, None);
        }
        self.pop(place).map(|_| ())
    }
}

/// Runs `tape` on a fresh pool of `cell` and checks every property.
fn run(cell: &Cell, tape: &Tape) -> Result<(), Violation> {
    let k_build = cell.ks.iter().copied().max().unwrap_or(0);
    let pool = Arc::new(cell.kind.build(cell.places, PoolParams::with_k(k_build)));
    let mut run = Run {
        cell,
        pool,
        handles: (0..cell.places).map(|_| None).collect(),
        retired: vec![false; cell.places],
        drainer: tape.drainer as usize % cell.places,
        shadow: Shadow::new(cell.places),
        least_k: vec![None; cell.places],
    };
    for op in &tape.ops {
        run.step(op)?;
    }
    run.drain()
}

/// `tape` without element `j` of the batch at step `at`, if there is one.
fn without_batch_element(tape: &Tape, at: usize, j: usize) -> Option<Tape> {
    let mut smaller = tape.clone();
    let Op::PushBatch { prios, .. } = &mut smaller.ops[at] else {
        return None;
    };
    (j < prios.len()).then(|| prios.remove(j))?;
    Some(smaller)
}

/// Drops steps, then batch elements, from a failing tape one at a time
/// while `property` still fails — the tape shrunk as far as single removals
/// go.
fn shrink(cell: &Cell, mut tape: Tape, property: Property) -> (Tape, Violation) {
    let fails = |tape: &Tape| matches!(run(cell, tape), Err(v) if v.property == property);
    let mut at = 0;
    while at < tape.ops.len() {
        let mut smaller = tape.clone();
        smaller.ops.remove(at);
        if fails(&smaller) {
            tape = smaller;
            continue;
        }
        let mut j = 0;
        while let Some(smaller) = without_batch_element(&tape, at, j) {
            if fails(&smaller) {
                tape = smaller;
            } else {
                j += 1;
            }
        }
        at += 1;
    }
    let Err(v) = run(cell, &tape) else {
        unreachable!("a shrunk tape keeps failing")
    };
    (tape, v)
}

/// Runs `tape` on every cell, shrinking and reporting the first failure.
fn check(cells: impl IntoIterator<Item = Cell>, tape: &Tape) -> Result<(), TestCaseError> {
    for cell in cells {
        if let Err(v) = run(&cell, tape) {
            let (tape, v) = shrink(&cell, tape.clone(), v.property);
            let steps = tape.ops.len();
            prop_assert!(
                false,
                "{} violated on {:?} at {} places, ks {:?}: {}\nshrunk tape ({} steps): {:?}",
                v.property,
                cell.kind,
                cell.places,
                cell.ks,
                v.detail,
                steps,
                tape
            );
        }
    }
    Ok(())
}

fn uniform_cells(kind: PoolKind) -> impl Iterator<Item = Cell> {
    PLACES.into_iter().flat_map(move |places| {
        UNIFORM_KS.map(|k| Cell {
            kind,
            places,
            ks: vec![k],
        })
    })
}

fn mixed_cells(kind: PoolKind, ks: Vec<usize>) -> impl Iterator<Item = Cell> {
    PLACES.into_iter().map(move |places| Cell {
        kind,
        places,
        ks: ks.clone(),
    })
}

/// The threaded cell: one worker per place on places {1, 2, 4} × k
/// {0, 8, 512}, pushing and popping until every task was popped once.
fn threaded_exactly_once(kind: PoolKind) {
    for places in PLACES {
        for k in UNIFORM_KS {
            let pool = Arc::new(kind.build(places, PoolParams::with_k(k)));
            concurrent_exactly_once(pool, k, 4_000 / places as u64);
        }
    }
}

/// At one place a batch push stores what the same pushes made one by one
/// store: for work-stealing, centralized and hybrid, a pool fed batches and
/// a pool fed the same tasks by scalar pushes pop the same
/// `(prio, payload)` sequence, ties included, between batches and in the
/// final drain. At k = 3 a 37-task batch moves centralized's tail and runs
/// hybrid's publication budget out several times in its middle.
#[test]
fn batch_push_pops_as_scalar_pushes_at_one_place() {
    const K: usize = 3;
    const BATCH: u64 = 37;
    for kind in [
        PoolKind::WorkStealing,
        PoolKind::Centralized,
        PoolKind::Hybrid,
    ] {
        let batched = Arc::new(kind.build(1, PoolParams::with_k(K)));
        let scalar = Arc::new(kind.build(1, PoolParams::with_k(K)));
        let (mut b, mut s) = (batched.handle(0), scalar.handle(0));
        for round in 0..4u64 {
            let mut batch: Vec<(u64, u64)> = (round * BATCH..(round + 1) * BATCH)
                .map(|id| (id * 7 % 5, id))
                .collect();
            for &(prio, id) in &batch {
                s.push(prio, K, id);
            }
            b.push_batch(K, &mut batch);
            let pops = if round == 3 { usize::MAX } else { 10 };
            for _ in 0..pops {
                let popped = b.pop_entry();
                assert_eq!(popped, s.pop_entry(), "{kind:?}, round {round}");
                if popped.is_none() {
                    break;
                }
            }
        }
        assert_eq!(b.pop_entry(), None, "{kind:?}: drained");
    }
}

macro_rules! contract {
    ($($module:ident => $kind:expr),* $(,)?) => {$(
        mod $module {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]

                #[test]
                fn uniform_k(tape in tape()) {
                    check(uniform_cells($kind), &tape)?;
                }

                #[test]
                fn mixed_k(ks in mixed_ks(), tape in tape()) {
                    check(mixed_cells($kind, ks), &tape)?;
                }
            }

            #[test]
            fn threaded_exactly_once() {
                super::threaded_exactly_once($kind);
            }
        }
    )*
        /// The kinds the cells above cover.
        const COVERED: &[PoolKind] = &[$($kind),*];
    };
}

contract! {
    work_stealing => PoolKind::WorkStealing,
    centralized => PoolKind::Centralized,
    hybrid => PoolKind::Hybrid,
    structural => PoolKind::Structural,
    multiqueue => PoolKind::MultiQueue,
}

#[test]
fn every_kind_has_its_cells() {
    assert_eq!(
        COVERED,
        PoolKind::ALL,
        "a new kind needs its line in `contract!`"
    );
}
