//! The two SSSP workloads and the harness's own lockstep driver.

use crate::bench::{Bench, Outcome, Sizes, DENSE_K, DENSE_P, SPARSE_DEGREE, SPARSE_K};
use crate::trace::Tracer;
use crate::util::places;
use priosched_core::{run_on_kind, PoolHandle, PoolKind, PoolParams, TaskPool};
use priosched_graph::{dijkstra, erdos_renyi, CsrGraph, ErdosRenyiConfig};
use priosched_workloads::{SsspWorkload, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Places of the lockstep pass. Fixed, not `nproc`: the count it yields
/// must not depend on the machine.
pub const LOCKSTEP_PLACES: usize = 8;

type Task = <SsspWorkload as Workload>::Task;

pub struct SsspBench {
    workload: SsspWorkload,
    params: PoolParams,
    reachable: u64,
    /// Nodes `0..lockstep_sources` each start a lockstep pass of a kind
    /// that wastes work.
    lockstep_sources: u32,
}

/// The Erdős–Rényi configuration of `name` (`sssp_dense` / `sssp_sparse`).
pub fn graph_config(name: &str, seed: u64, sizes: &Sizes) -> (ErdosRenyiConfig, usize) {
    if name == "sssp_dense" {
        let cfg = ErdosRenyiConfig {
            n: sizes.dense_n,
            p: DENSE_P,
            seed,
        };
        (cfg, DENSE_K)
    } else {
        let n = sizes.sparse_n;
        let cfg = ErdosRenyiConfig {
            n,
            p: SPARSE_DEGREE / (n - 1) as f64,
            seed,
        };
        (cfg, SPARSE_K)
    }
}

impl SsspBench {
    /// Generates the graph, solves it with sequential Dijkstra, and builds
    /// one pool of every kind.
    pub fn setup(name: &str, seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Self {
        let (cfg, k) = graph_config(name, seed, sizes);
        let graph = tr.span("setup.gen", |_| erdos_renyi(&cfg));
        let workload = tr.span("setup.oracle", |_| SsspWorkload::new(graph, 0));
        let params = PoolParams::with_k(k);
        tr.span("pool.build", |_| {
            for kind in PoolKind::ALL {
                drop(kind.build::<Task>(places(), params));
            }
        });
        let reachable = workload.oracle().iter().filter(|d| d.is_finite()).count() as u64;
        let lockstep_sources = sizes.lockstep_sources;
        SsspBench {
            workload,
            params,
            reachable,
            lockstep_sources,
        }
    }

    pub fn graph(&self) -> &CsrGraph {
        self.workload.graph()
    }

    pub fn oracle(&self) -> &[f64] {
        self.workload.oracle()
    }
}

/// Counters of one threaded run the layer probes read.
pub struct SsspRun {
    pub outcome: Outcome,
    pub stats: priosched_core::RunStats,
    pub relaxed: u64,
}

impl SsspBench {
    /// One threaded run, with its counters.
    pub fn run_counted(&self, kind: PoolKind, tr: &mut Tracer) -> SsspRun {
        let w = &self.workload;
        let start = Instant::now();
        let exec = tr.span("exec.build", |_| w.executor(&self.params));
        let roots = w.seed(&exec, &self.params);
        let stats = tr.span("schedule", |_| {
            run_on_kind(kind, places(), self.params, &exec, roots)
        });
        let secs = start.elapsed().as_secs_f64();
        let verdict = tr.span("verify", |_| w.verify(&exec, &stats));
        let failed = match verdict {
            Ok(()) => 0,
            Err(why) => {
                eprintln!("sssp on {kind}: {why}");
                self.reachable
            }
        };
        SsspRun {
            outcome: Outcome {
                secs,
                attempted: self.reachable,
                failed,
                join_kicks: 0,
            },
            relaxed: exec.relaxed(),
            stats,
        }
    }
}

impl Bench for SsspBench {
    fn items(&self) -> u64 {
        self.reachable
    }

    fn run(&self, kind: PoolKind, _rep: u32, tr: &mut Tracer) -> Outcome {
        self.run_counted(kind, tr).outcome
    }

    fn counted_useful_frac(&self, kind: PoolKind) -> Option<f64> {
        // A kind that relaxes no node twice from node 0 is taken at its
        // word. How much a kind that does wastes depends on where the
        // search starts (work-stealing: ±8 % from source to source), so its
        // share is summed over several sources to steady it across seeds.
        let (mut reachable, mut relaxed) = (0u64, 0u64);
        for source in 0..self.lockstep_sources {
            let pass = lockstep(self.graph(), source, kind, self.params, LOCKSTEP_PLACES);
            if pass.dist != dijkstra(self.graph(), source).dist {
                eprintln!("lockstep on {kind} from node {source}: distances diverge from Dijkstra");
                return Some(f64::NAN); // not a number: the run reports itself incorrect
            }
            reachable += pass.dist.iter().filter(|d| d.is_finite()).count() as u64;
            relaxed += pass.relaxed;
            if relaxed == reachable {
                break;
            }
        }
        Some(reachable as f64 / relaxed as f64)
    }
}

/// A node relaxation queued at the distance it was spawned with.
#[derive(Clone, Copy)]
struct Relax {
    node: u32,
    dist_bits: u64,
}

pub struct LockstepPass {
    pub dist: Vec<f64>,
    /// Nodes whose edge list was scanned, repeats included.
    pub relaxed: u64,
}

/// Single-threaded SSSP over `virtual_places` handles of one pool of
/// `kind`, in rounds, as in the paper's model of a phase: first every
/// handle pops one task, then the tasks of the round that are still current
/// are relaxed as if side by side, each with the distance it was queued at.
/// A node one of them improves while another of the same round is relaxing
/// it is relaxed again later: that is the wasted work, and even a pool that
/// hands out tasks in exact order has some. With one thread there is no
/// scheduling noise: the count depends only on the order the structure
/// hands tasks out, and repeats exactly.
pub fn lockstep(
    graph: &CsrGraph,
    source: u32,
    kind: PoolKind,
    params: PoolParams,
    virtual_places: usize,
) -> LockstepPass {
    let pool = Arc::new(kind.build::<Relax>(virtual_places, params));
    let mut handles: Vec<_> = (0..virtual_places).map(|p| pool.handle(p)).collect();
    // Non-negative doubles order like their bit patterns.
    let mut dist = vec![f64::INFINITY.to_bits(); graph.num_nodes()];
    dist[source as usize] = 0f64.to_bits();
    handles[0].push(
        0,
        params.k,
        Relax {
            node: source,
            dist_bits: 0f64.to_bits(),
        },
    );
    let mut pending = 1u64;
    let mut relaxed = 0u64;
    let mut round: Vec<(usize, Relax)> = Vec::with_capacity(virtual_places);
    let mut batch = Vec::new();
    while pending > 0 {
        for (place, h) in handles.iter_mut().enumerate() {
            let Some(task) = h.pop() else { continue };
            pending -= 1;
            // Superseded by a shorter path in an earlier round: dropped
            // unrelaxed, as the threaded executor drops a dead task.
            if dist[task.node as usize] == task.dist_bits {
                round.push((place, task));
            }
        }
        for (place, task) in round.drain(..) {
            relaxed += 1;
            let d = f64::from_bits(task.dist_bits);
            for e in graph.neighbors(task.node) {
                let bits = (d + e.weight as f64).to_bits();
                if bits < dist[e.target as usize] {
                    dist[e.target as usize] = bits;
                    batch.push((
                        bits,
                        Relax {
                            node: e.target,
                            dist_bits: bits,
                        },
                    ));
                }
            }
            pending += batch.len() as u64;
            handles[place].push_batch(params.k, &mut batch);
        }
    }
    LockstepPass {
        dist: dist.into_iter().map(f64::from_bits).collect(),
        relaxed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SsspBench {
        SsspBench::setup("sssp_sparse", seed, &Sizes::SMOKE, &mut Tracer::new(false))
    }

    #[test]
    fn lockstep_agrees_with_dijkstra_on_every_kind() {
        for name in ["sssp_dense", "sssp_sparse"] {
            let (cfg, k) = graph_config(name, 5, &Sizes::SMOKE);
            let g = erdos_renyi(&cfg);
            let want = dijkstra(&g, 0).dist;
            let reachable = want.iter().filter(|d| d.is_finite()).count() as u64;
            for kind in PoolKind::ALL {
                let pass = lockstep(&g, 0, kind, PoolParams::with_k(k), LOCKSTEP_PLACES);
                assert_eq!(pass.dist, want, "{name} on {kind}");
                assert!(pass.relaxed >= reachable, "{name} on {kind}");
            }
        }
    }

    #[test]
    fn one_place_relaxes_every_node_once() {
        let (cfg, k) = graph_config("sssp_sparse", 3, &Sizes::SMOKE);
        let g = erdos_renyi(&cfg);
        let reachable = dijkstra(&g, 0)
            .dist
            .iter()
            .filter(|d| d.is_finite())
            .count() as u64;
        for kind in PoolKind::PAPER {
            let pass = lockstep(&g, 0, kind, PoolParams::with_k(k), 1);
            assert_eq!(pass.relaxed, reachable, "{kind}");
        }
    }

    #[test]
    fn tasks_of_one_round_are_relaxed_side_by_side() {
        // 0–1 costs 1, 0–2 costs 1.5, 1–2 costs 0.25: node 2 is first queued
        // at 1.5 and then improved to 1.25 through node 1.
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1, 1.0), (0, 2, 1.5), (1, 2, 0.25)]);
        let strict = PoolParams::with_k(0);
        // One place takes node 1 before node 2, so the task at 1.5 is dead
        // by the time it is popped.
        let alone = lockstep(&g, 0, PoolKind::Structural, strict, 1);
        assert_eq!(alone.relaxed, 3);
        // Two places take nodes 1 and 2 in the same round: node 2 is relaxed
        // at 1.5 while node 1 improves it, and again at 1.25.
        let pair = lockstep(&g, 0, PoolKind::Structural, strict, 2);
        assert_eq!(pair.relaxed, 4);
        assert_eq!(pair.dist, vec![0.0, 1.0, 1.25]);
        assert_eq!(pair.dist, alone.dist);
    }

    #[test]
    fn a_seed_fixes_the_instance_and_the_useful_share() {
        let (a, b, other) = (tiny(11), tiny(11), tiny(12));
        assert_eq!(a.graph().num_edges(), b.graph().num_edges());
        assert_eq!(a.oracle(), b.oracle());
        assert_ne!(a.oracle(), other.oracle());
        for kind in PoolKind::ALL {
            let (x, y) = (a.counted_useful_frac(kind), b.counted_useful_frac(kind));
            assert_eq!(x, y, "{kind}");
            let share = x.expect("sssp counts its useful share");
            assert!(share > 0.0 && share <= 1.0, "{kind}: {share}");
        }
    }

    #[test]
    fn threaded_runs_verify_on_every_kind() {
        let bench = tiny(4);
        for kind in PoolKind::ALL {
            let out = bench.run(kind, 0, &mut Tracer::new(false));
            assert_eq!(out.failed, 0, "{kind}");
            assert_eq!(out.attempted, bench.items());
        }
    }
}
