//! Bi-objective shortest paths as a [`Workload`]: parallel label-correcting
//! search computing, per node, the Pareto front of (time, cost) path
//! signatures.
//!
//! The paper's conclusion names "k-relaxed Pareto priority queues … for
//! parallelization of a multi-objective shortest path search" as planned
//! future work. This workload runs the *search* on the ordinary
//! scalar-priority scheduler instead, so it sweeps across all five
//! structures like every other workload. That is sound because
//! label-correcting with dead-label elimination converges to the exact
//! fronts under **any** pop order — pop order (here: a
//! scalarized priority, the sum of both objectives) only shifts how much
//! superseded work is performed, which is exactly the relaxation-quality
//! signal the harness measures.
//!
//! A spawned label is *dead* once its cost vector has been dominated out of
//! its node's front — the bi-objective analog of a superseded SSSP
//! distance. The oracle is an exhaustive sequential fixpoint iteration.

use crate::Workload;
use parking_lot::Mutex;
use priosched_core::stats::PlaceCounter;
use priosched_core::{PoolParams, RunStats, SpawnCtx, TaskExecutor};
use priosched_graph::{erdos_renyi, CsrGraph, ErdosRenyiConfig};

/// A bi-objective priority, e.g. (travel time, cost). Smaller is better in
/// both components.
pub type BiPriority = [u64; 2];

/// `a` dominates `b`: no worse in both objectives, strictly better in one.
#[inline]
pub fn dominates(a: BiPriority, b: BiPriority) -> bool {
    a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
}

/// A search label: reached `node` with accumulated (time, cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label {
    /// Node the label reaches.
    pub node: u32,
    /// Accumulated bi-objective cost.
    pub costs: BiPriority,
}

/// First objective per edge: the stored float weight, scaled to integers.
pub fn first_weight(w: f32) -> u64 {
    1 + (w as f64 * 1000.0) as u64
}

/// Second objective per edge, derived deterministically from the endpoints
/// (the base graph stores one weight; real instances would carry both).
pub fn second_weight(u: u32, v: u32) -> u64 {
    let x = (((u.min(v) as u64) << 32) | u.max(v) as u64).wrapping_mul(0x9E3779B97F4A7C15);
    1 + (x >> 48) % 97
}

/// Scalarized scheduler priority of a cost vector (smaller is better).
/// Any scalarization is correct; the sum biases the search toward labels
/// that are good in both objectives, which keeps superseded work low.
pub fn scalar_priority(costs: BiPriority) -> u64 {
    costs[0].saturating_add(costs[1])
}

/// Inserts `costs` into `front` if non-dominated; prunes dominated entries.
/// Returns false when `costs` was dominated (the label is dead).
pub fn update_front(front: &mut Vec<BiPriority>, costs: BiPriority) -> bool {
    if front.iter().any(|&f| dominates(f, costs) || f == costs) {
        return false;
    }
    front.retain(|&f| !dominates(costs, f));
    front.push(costs);
    true
}

/// Exhaustive oracle: Bellman–Ford-style label correction to fixpoint.
pub fn reference_fronts(graph: &CsrGraph, source: u32) -> Vec<Vec<BiPriority>> {
    let n = graph.num_nodes();
    let mut fronts: Vec<Vec<BiPriority>> = vec![Vec::new(); n];
    fronts[source as usize].push([0, 0]);
    loop {
        let mut changed = false;
        for u in 0..n as u32 {
            let labels = fronts[u as usize].clone();
            for e in graph.neighbors(u) {
                for &l in &labels {
                    let costs = [
                        l[0] + first_weight(e.weight),
                        l[1] + second_weight(u, e.target),
                    ];
                    if update_front(&mut fronts[e.target as usize], costs) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return fronts;
        }
    }
}

/// A bi-objective instance (graph + source) with its exhaustive oracle.
pub struct MoSsspWorkload {
    graph: CsrGraph,
    source: u32,
    oracle: Vec<Vec<BiPriority>>,
}

impl MoSsspWorkload {
    /// Wraps an existing graph; computes the exhaustive front oracle once.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(graph: CsrGraph, source: u32) -> Self {
        assert!((source as usize) < graph.num_nodes(), "source out of range");
        let mut oracle = reference_fronts(&graph, source);
        for front in &mut oracle {
            front.sort();
        }
        MoSsspWorkload {
            graph,
            source,
            oracle,
        }
    }

    /// Seeded Erdős–Rényi instance with source 0.
    pub fn random(n: usize, p: f64, seed: u64) -> Self {
        Self::new(erdos_renyi(&ErdosRenyiConfig { n, p, seed }), 0)
    }

    /// The per-node Pareto fronts this workload verifies against (sorted).
    pub fn oracle(&self) -> &[Vec<BiPriority>] {
        &self.oracle
    }
}

/// Per-run search state: the evolving per-node fronts.
pub struct MoSsspExec<'w> {
    graph: &'w CsrGraph,
    fronts: Vec<Mutex<Vec<BiPriority>>>,
    expanded: PlaceCounter,
    superseded: PlaceCounter,
    k: usize,
}

impl MoSsspExec<'_> {
    /// Snapshot of the per-node fronts, sorted for canonical comparison.
    pub fn fronts(&self) -> Vec<Vec<BiPriority>> {
        self.fronts
            .iter()
            .map(|f| {
                let mut v = f.lock().clone();
                v.sort();
                v
            })
            .collect()
    }
}

impl TaskExecutor<Label> for MoSsspExec<'_> {
    /// Dead-label elimination: the label's cost vector has been dominated
    /// out of its node's front since it was spawned.
    fn is_dead(&self, label: &Label) -> bool {
        !self.fronts[label.node as usize]
            .lock()
            .contains(&label.costs)
    }

    fn execute(&self, label: Label, ctx: &mut SpawnCtx<'_, Label>) {
        // Re-check under the front actually stored now (the scheduler's
        // is_dead ran earlier; a dominating label may have landed since).
        if !self.fronts[label.node as usize]
            .lock()
            .contains(&label.costs)
        {
            self.superseded.add(ctx.place(), 1);
            return;
        }
        self.expanded.add(ctx.place(), 1);
        let mut batch = ctx.take_batch_buf();
        for e in self.graph.neighbors(label.node) {
            let costs = [
                label.costs[0] + first_weight(e.weight),
                label.costs[1] + second_weight(label.node, e.target),
            ];
            // One lock at a time: the target's front decides insertion and
            // therefore spawning (exactly once per inserted label).
            let inserted = update_front(&mut self.fronts[e.target as usize].lock(), costs);
            if inserted {
                batch.push((
                    scalar_priority(costs),
                    Label {
                        node: e.target,
                        costs,
                    },
                ));
            }
        }
        ctx.spawn_batch(self.k, &mut batch);
        ctx.put_batch_buf(batch);
    }
}

impl Workload for MoSsspWorkload {
    type Task = Label;
    type Exec<'w>
        = MoSsspExec<'w>
    where
        Self: 'w;

    fn name(&self) -> &'static str {
        "mo_sssp"
    }

    fn executor(&self, params: &PoolParams) -> MoSsspExec<'_> {
        let fronts: Vec<Mutex<Vec<BiPriority>>> = (0..self.graph.num_nodes())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        fronts[self.source as usize].lock().push([0, 0]);
        MoSsspExec {
            graph: &self.graph,
            fronts,
            expanded: PlaceCounter::new(),
            superseded: PlaceCounter::new(),
            k: params.k,
        }
    }

    fn seed(&self, _exec: &MoSsspExec<'_>, params: &PoolParams) -> Vec<(u64, usize, Label)> {
        vec![(
            0,
            params.k,
            Label {
                node: self.source,
                costs: [0, 0],
            },
        )]
    }

    fn verify(&self, exec: &MoSsspExec<'_>, _run: &RunStats) -> Result<(), String> {
        let fronts = exec.fronts();
        for (v, (got, want)) in fronts.iter().zip(&self.oracle).enumerate() {
            if got != want {
                return Err(format!(
                    "node {v}: front {got:?} diverges from oracle {want:?}"
                ));
            }
        }
        Ok(())
    }

    fn metrics(&self, exec: &MoSsspExec<'_>, _run: &RunStats) -> Vec<(&'static str, f64)> {
        let front_total: usize = self.oracle.iter().map(|f| f.len()).sum();
        vec![
            ("expanded", exec.expanded.sum() as f64),
            ("superseded", exec.superseded.sum() as f64),
            ("front_labels", front_total as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use priosched_core::PoolKind;

    #[test]
    fn dominance_relation() {
        assert!(dominates([1, 1], [2, 2]));
        assert!(dominates([1, 2], [1, 3]));
        assert!(!dominates([1, 1], [1, 1]), "equal does not dominate");
        assert!(!dominates([1, 3], [2, 1]), "incomparable");
        assert!(!dominates([2, 2], [1, 1]));
    }

    #[test]
    fn update_front_keeps_pareto_invariant() {
        let mut front = Vec::new();
        assert!(update_front(&mut front, [5, 5]));
        assert!(update_front(&mut front, [3, 7]));
        assert!(!update_front(&mut front, [6, 6])); // dominated by [5,5]
        assert!(!update_front(&mut front, [5, 5])); // duplicate
        assert!(update_front(&mut front, [4, 4])); // dominates [5,5]
        front.sort();
        assert_eq!(front, vec![[3, 7], [4, 4]]);
    }

    #[test]
    fn mo_sssp_workload_matches_exhaustive_oracle() {
        let w = MoSsspWorkload::random(40, 0.12, 99);
        for kind in [PoolKind::WorkStealing, PoolKind::Hybrid] {
            let report = run_workload(&w, kind, 2, PoolParams::with_k(8));
            report.expect_verified();
        }
    }

    #[test]
    fn oracle_front_of_source_is_origin() {
        let w = MoSsspWorkload::random(30, 0.15, 5);
        assert_eq!(w.oracle()[0], vec![[0, 0]]);
    }
}
