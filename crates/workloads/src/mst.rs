//! Minimum spanning tree as a [`Workload`], à la the Multi-Queues
//! evaluation (Postnikova et al., PODC'21), verified against a sequential
//! Kruskal oracle (cross-checked against Prim in tests).
//!
//! # Why Borůvka-style merging, not relaxed Prim
//!
//! Under a ρ-relaxed pop, textbook parallel Prim is *incorrect*: popping a
//! frontier vertex whose connecting edge is not the global minimum can
//! commit a non-MST edge, and nothing later repairs it (unlike SSSP,
//! which is label-correcting). What survives arbitrary reordering is the
//! **cut property**: the minimum outgoing edge of *any* component is in
//! the MST. So tasks here are *component-advance* steps — pop a
//! component, find its minimum outgoing edge, merge across it — which are
//! order-insensitive: any interleaving commits only MST edges, and the
//! run terminates with exactly the MST edge set. Priorities still matter
//! for efficiency (components are advanced lightest-edge-first, giving
//! Kruskal-like behavior), so the relaxed structures get realistic
//! priority traffic while the oracle check stays exact.
//!
//! Edge weights are totally ordered by `(weight, edge id)` — the standard
//! tie-breaking perturbation — so the minimum spanning forest is
//! *unique*, and verification compares the chosen **edge id set** against
//! the oracle's: exact equality, no floating-point summation order
//! issues.

use crate::Workload;
use priosched_core::{priority_from_f64, PoolParams, RunStats, SpawnCtx, TaskExecutor};
use priosched_graph::{erdos_renyi, CsrGraph, ErdosRenyiConfig};
use std::sync::atomic::{AtomicBool, Ordering};

/// One component-advance step: `rep` is a vertex that was the
/// representative (union-find root) of its component when the task was
/// spawned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MstTask {
    /// Component representative to advance.
    pub rep: u32,
}

/// An MST instance: the graph with ids assigned to its undirected edges,
/// plus the unique-minimum-spanning-forest oracle.
pub struct MstWorkload {
    /// Adjacency with edge ids: `adj[u] = [(v, edge_id), …]`.
    adj: Vec<Vec<(u32, u32)>>,
    /// Weight of each undirected edge, by id.
    weights: Vec<f32>,
    /// Oracle: sorted ids of the unique MSF's edges (Kruskal with
    /// `(weight, id)` tie-breaking).
    oracle_edges: Vec<u32>,
    /// Min incident `(weight, edge id)` per vertex (seed priorities).
    seed_prio: Vec<u64>,
}

/// Totally ordered effective weight: `(weight, id)` lexicographic.
fn edge_key(weights: &[f32], id: u32) -> (f32, u32) {
    (weights[id as usize], id)
}

fn key_less(a: (f32, u32), b: (f32, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl MstWorkload {
    /// Wraps an existing graph; computes the Kruskal oracle once.
    pub fn new(graph: &CsrGraph) -> Self {
        let n = graph.num_nodes();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut weights = Vec::new();
        for (u, v, w) in graph.undirected_edges() {
            let id = weights.len() as u32;
            weights.push(w);
            adj[u as usize].push((v, id));
            adj[v as usize].push((u, id));
        }
        let oracle_edges = sequential_kruskal(n, &adj, &weights);
        let seed_prio = (0..n)
            .map(|u| {
                adj[u]
                    .iter()
                    .map(|&(_, id)| edge_key(&weights, id))
                    .reduce(|a, b| if key_less(b, a) { b } else { a })
                    .map_or(u64::MAX, |(w, _)| priority_from_f64(w as f64))
            })
            .collect();
        MstWorkload {
            adj,
            weights,
            oracle_edges,
            seed_prio,
        }
    }

    /// Seeded Erdős–Rényi instance.
    pub fn random(n: usize, p: f64, seed: u64) -> Self {
        Self::new(&erdos_renyi(&ErdosRenyiConfig { n, p, seed }))
    }

    /// Sorted edge ids of the unique minimum spanning forest.
    pub fn oracle_edges(&self) -> &[u32] {
        &self.oracle_edges
    }

    /// Total weight of the oracle forest (summed in id order, so the
    /// value is deterministic).
    pub fn oracle_weight(&self) -> f64 {
        self.oracle_edges
            .iter()
            .map(|&id| self.weights[id as usize] as f64)
            .sum()
    }

    fn num_nodes(&self) -> usize {
        self.adj.len()
    }
}

/// Reference solution: Kruskal with `(weight, id)` tie-breaking over a
/// sequential union-find. Returns the sorted edge ids of the (unique)
/// minimum spanning forest.
pub fn sequential_kruskal(n: usize, adj: &[Vec<(u32, u32)>], weights: &[f32]) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    // Each undirected edge appears twice in `adj`; recover endpoints once
    // per id.
    let mut endpoints: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); weights.len()];
    for (u, lst) in adj.iter().enumerate() {
        for &(v, id) in lst {
            if endpoints[id as usize].0 == u32::MAX {
                endpoints[id as usize] = (u as u32, v);
            }
        }
    }
    let mut order: Vec<u32> = (0..weights.len() as u32).collect();
    order.sort_by(|&a, &b| {
        weights[a as usize]
            .partial_cmp(&weights[b as usize])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    let mut chosen = Vec::new();
    for id in order {
        let (u, v) = endpoints[id as usize];
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru as usize] = rv;
            chosen.push(id);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Reference cross-check: Prim (lazy-deletion binary heap) from every
/// still-unvisited vertex, same `(weight, id)` tie-breaking. Used by
/// tests to confirm the Kruskal oracle independently.
pub fn sequential_prim(n: usize, adj: &[Vec<(u32, u32)>], weights: &[f32]) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut in_tree = vec![false; n];
    let mut chosen = Vec::new();
    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        in_tree[start] = true;
        // Keyed by (weight bits, id): f32 bits of positive weights order
        // like the weights themselves.
        let mut heap: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        let push_edges = |from: usize, heap: &mut BinaryHeap<Reverse<(u32, u32, u32)>>| {
            for &(to, id) in &adj[from] {
                heap.push(Reverse((weights[id as usize].to_bits(), id, to)));
            }
        };
        push_edges(start, &mut heap);
        while let Some(Reverse((_, id, to))) = heap.pop() {
            if in_tree[to as usize] {
                continue; // lazy deletion
            }
            in_tree[to as usize] = true;
            chosen.push(id);
            push_edges(to as usize, &mut heap);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Union-find forest with per-root member lists (small-into-large merge),
/// guarded by one mutex — the workload's shared state is deliberately
/// simple; the parallelism under test is the *scheduler's*, and tasks
/// contend realistically on the single commit point like the knapsack
/// incumbent.
struct Forest {
    parent: Vec<u32>,
    members: Vec<Vec<u32>>,
    chosen: Vec<u32>,
    components: usize,
}

impl Forest {
    fn find(&self, mut x: u32) -> u32 {
        // Read-only find (no path compression): callers iterate member
        // lists while probing, and trees stay shallow thanks to the
        // small-into-large member merge.
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }
}

/// Per-run state: the shared forest plus monotone merge flags for the
/// dead-task hint.
pub struct MstExec<'w> {
    workload: &'w MstWorkload,
    forest: parking_lot::Mutex<Forest>,
    /// `merged[v]` rises (permanently) when root `v` loses a union — the
    /// lock-free `is_dead` hint for tasks referencing it.
    merged: Vec<AtomicBool>,
    k: usize,
}

impl MstExec<'_> {
    /// Sorted edge ids the run committed so far.
    pub fn chosen_edges(&self) -> Vec<u32> {
        let mut chosen = self.forest.lock().chosen.clone();
        chosen.sort_unstable();
        chosen
    }

    /// Merge commits performed: one chosen edge each.
    pub fn merges(&self) -> u64 {
        self.forest.lock().chosen.len() as u64
    }
}

impl TaskExecutor<MstTask> for MstExec<'_> {
    /// A task whose representative lost a union is dead: the winning
    /// root's follow-up task covers the merged component.
    fn is_dead(&self, task: &MstTask) -> bool {
        self.merged[task.rep as usize].load(Ordering::Relaxed)
    }

    fn execute(&self, task: MstTask, ctx: &mut SpawnCtx<'_, MstTask>) {
        let (spawn, prio) = {
            let mut f = self.forest.lock();
            let root = f.find(task.rep);
            // Minimum outgoing edge of the component (cut property: it is
            // in the MST whatever the global task order).
            let mut best: Option<(f32, u32, u32)> = None; // (w, id, other_root)
            for i in 0..f.members[root as usize].len() {
                let v = f.members[root as usize][i];
                for &(to, id) in &self.workload.adj[v as usize] {
                    let to_root = f.find(to);
                    if to_root == root {
                        continue; // internal edge
                    }
                    let key = edge_key(&self.workload.weights, id);
                    if best.is_none_or(|(bw, bid, _)| key_less(key, (bw, bid))) {
                        best = Some((key.0, key.1, to_root));
                    }
                }
            }
            let Some((w, id, other)) = best else {
                return; // spanning (or isolated) component: nothing to do
            };
            // Merge small into large so member scans stay near-linear.
            let (winner, loser) =
                if f.members[root as usize].len() >= f.members[other as usize].len() {
                    (root, other)
                } else {
                    (other, root)
                };
            f.parent[loser as usize] = winner;
            let absorbed = std::mem::take(&mut f.members[loser as usize]);
            f.members[winner as usize].extend(absorbed);
            f.chosen.push(id);
            f.components -= 1;
            self.merged[loser as usize].store(true, Ordering::Release);
            (
                (f.components > 1).then_some(MstTask { rep: winner }),
                priority_from_f64(w as f64),
            )
        };
        // Spawn outside the lock: one follow-up per committed merge keeps
        // every live root covered by a task (see module docs).
        if let Some(next) = spawn {
            ctx.spawn(prio, self.k, next);
        }
    }
}

impl Workload for MstWorkload {
    type Task = MstTask;
    type Exec<'w>
        = MstExec<'w>
    where
        Self: 'w;

    fn name(&self) -> &'static str {
        "mst"
    }

    fn executor(&self, params: &PoolParams) -> MstExec<'_> {
        let n = self.num_nodes();
        MstExec {
            workload: self,
            forest: parking_lot::Mutex::new(Forest {
                parent: (0..n as u32).collect(),
                members: (0..n as u32).map(|v| vec![v]).collect(),
                chosen: Vec::new(),
                components: n,
            }),
            merged: (0..n).map(|_| AtomicBool::new(false)).collect(),
            k: params.k,
        }
    }

    /// One seed per vertex — a wide stream (like multi-source BFS) that
    /// gives sharded ingestion real work — prioritized by the vertex's
    /// lightest incident edge.
    fn seed(&self, _exec: &MstExec<'_>, params: &PoolParams) -> Vec<(u64, usize, MstTask)> {
        (0..self.num_nodes() as u32)
            .map(|rep| (self.seed_prio[rep as usize], params.k, MstTask { rep }))
            .collect()
    }

    fn verify(&self, exec: &MstExec<'_>, _run: &RunStats) -> Result<(), String> {
        let chosen = exec.chosen_edges();
        if chosen != self.oracle_edges {
            return Err(format!(
                "chosen {} edge(s) diverge from the unique MSF's {} \
                 (Kruskal oracle with (weight, id) tie-breaking)",
                chosen.len(),
                self.oracle_edges.len()
            ));
        }
        Ok(())
    }

    fn metrics(&self, exec: &MstExec<'_>, _run: &RunStats) -> Vec<(&'static str, f64)> {
        vec![
            ("mst_weight", self.oracle_weight()),
            ("merges", exec.merges() as f64),
        ]
    }
}

/// Seeded random connected-ish graph helper for tests wanting duplicate
/// weights (tie-break coverage): weights quantized to few distinct values.
#[cfg(test)]
fn quantized_instance(n: usize, p: f64, seed: u64) -> MstWorkload {
    let g = erdos_renyi(&ErdosRenyiConfig { n, p, seed });
    let mut rng = crate::SplitRng(seed | 1);
    let edges: Vec<(u32, u32, f32)> = g
        .undirected_edges()
        .map(|(u, v, _)| (u, v, ((rng.next() % 4) as f32 + 1.0) / 4.0))
        .collect();
    MstWorkload::new(&CsrGraph::from_undirected_edges(n, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use priosched_core::PoolKind;

    #[test]
    fn kruskal_on_known_graph() {
        // 4-cycle with one heavy chord: MST = the three lightest edges.
        let g = CsrGraph::from_undirected_edges(
            4,
            &[
                (0, 1, 0.1),
                (1, 2, 0.2),
                (2, 3, 0.3),
                (3, 0, 0.9),
                (0, 2, 0.8),
            ],
        );
        // Ids follow CsrGraph::undirected_edges order (by u, then u's
        // adjacency order): 0 = (0,1,.1), 1 = (0,3,.9), 2 = (0,2,.8),
        // 3 = (1,2,.2), 4 = (2,3,.3); the MSF is the three lightest.
        let w = MstWorkload::new(&g);
        assert_eq!(w.oracle_edges(), &[0, 3, 4]);
        assert!((w.oracle_weight() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn kruskal_and_prim_agree() {
        for seed in [3u64, 17, 99] {
            let w = MstWorkload::random(120, 0.06, seed);
            assert_eq!(
                w.oracle_edges,
                sequential_prim(w.num_nodes(), &w.adj, &w.weights),
                "seed {seed}: the two sequential oracles must agree on the \
                 unique MSF"
            );
        }
    }

    #[test]
    fn tie_broken_duplicate_weights_still_have_unique_msf() {
        let w = quantized_instance(90, 0.08, 7);
        assert_eq!(
            w.oracle_edges,
            sequential_prim(w.num_nodes(), &w.adj, &w.weights),
            "(weight, id) tie-breaking must make both oracles pick the \
             same forest despite duplicate weights"
        );
        run_workload(&w, PoolKind::Hybrid, 4, PoolParams::with_k(16)).expect_verified();
    }

    #[test]
    fn mst_workload_verifies_on_all_kinds() {
        let w = MstWorkload::random(140, 0.05, 42);
        for kind in PoolKind::ALL {
            let report = run_workload(&w, kind, 2, PoolParams::with_k(32));
            report.expect_verified();
            assert!(report.executed >= 1, "{kind}");
        }
    }

    #[test]
    fn disconnected_graph_yields_spanning_forest() {
        // Two triangles, no bridge: the MSF has 4 edges (2 per component).
        let g = CsrGraph::from_undirected_edges(
            6,
            &[
                (0, 1, 0.1),
                (1, 2, 0.2),
                (2, 0, 0.3),
                (3, 4, 0.1),
                (4, 5, 0.2),
                (5, 3, 0.3),
            ],
        );
        let w = MstWorkload::new(&g);
        assert_eq!(w.oracle_edges().len(), 4);
        run_workload(&w, PoolKind::Centralized, 2, PoolParams::with_k(8)).expect_verified();
    }

    #[test]
    fn isolated_vertices_are_fine() {
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1, 0.5)]);
        let w = MstWorkload::new(&g);
        assert_eq!(w.oracle_edges(), &[0]);
        run_workload(&w, PoolKind::WorkStealing, 2, PoolParams::with_k(8)).expect_verified();
    }
}
