#![warn(missing_docs)]

//! # priosched — data structures for task-based priority scheduling
//!
//! A from-scratch Rust reproduction of *Wimmer, Cederman, Versaci, Träff,
//! Tsigas: "Data Structures for Task-based Priority Scheduling"* (PPoPP
//! 2014, arXiv:1312.2501): three lock-free priority scheduling data
//! structures with different scalability/ordering trade-offs, the
//! task-scheduling runtime they plug into, the parallel SSSP evaluation
//! application, the phase model, and the analytical bounds.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — the data structures and scheduler;
//! * [`pq`] — sequential priority queues (place-local components);
//! * [`graph`] — Erdős–Rényi graphs + sequential Dijkstra baseline;
//! * [`sssp`] — the paper's SSSP application, exactly Listing 5: the
//!   node-relaxation task, its executor and the shared distances; run it
//!   through [`workloads::SsspWorkload`] (threaded via
//!   `workloads::run_workload`, or in the paper's phases on one thread over
//!   any pool via `SsspWorkload::run_phases`), which checks every run
//!   against Dijkstra;
//! * [`workloads`] — first-class benchmark workloads (SSSP, BFS, tile
//!   Cholesky, branch-and-bound knapsack, bi-objective SSSP, MST), each
//!   verified against a sequential oracle on every structure, preseeded
//!   or through sharded ingestion (`run_workload_streamed`).
//!
//! This package's `figs` binary (`src/bin/figs/`) reproduces the paper's
//! SSSP figures 3–5 through the phase model, with its own ρ-window pool and
//! Theorem 5's bound; CI diffs its tables against `figs/`.
//!
//! The `priosched-net` crate (not re-exported here — it is a frontend, not
//! a library layer) serves the pool over TCP: `priosched-serve` accepts
//! line-protocol submissions, one connection actor thread per socket, each
//! submitting through its own `core::IngestHandle`; a full lane blocks the
//! actor's submit, which stops its socket reads (wire-level backpressure).
//!
//! ## Quick start
//!
//! Schedule prioritized tasks over the hybrid k-priority structure, on two
//! places, with a pool built for the run and dropped when it ends:
//!
//! ```
//! use priosched::core::{run_on_kind, PoolKind, PoolParams, SpawnCtx, TaskExecutor};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Tasks: numbers to "process"; priority: the number itself.
//! struct Sum(AtomicU64);
//! impl TaskExecutor<u64> for Sum {
//!     fn execute(&self, task: u64, ctx: &mut SpawnCtx<'_, u64>) {
//!         self.0.fetch_add(task, Ordering::Relaxed);
//!         if task > 0 {
//!             // Help-first spawn: stored for later, we continue.
//!             ctx.spawn(task - 1, 64, task - 1);
//!         }
//!     }
//! }
//!
//! let sum = Sum(AtomicU64::new(0));
//! let roots = vec![(10, 64, 10u64)];
//! let stats = run_on_kind(PoolKind::Hybrid, 2, PoolParams::default(), &sum, roots);
//! assert_eq!(sum.0.load(Ordering::Relaxed), 55); // 10 + 9 + … + 0
//! assert_eq!(stats.executed, 11);
//! ```
//!
//! ## Choosing a structure (§3 of the paper)
//!
//! | structure | ordering guarantee | scalability |
//! |---|---|---|
//! | [`core::PriorityWorkStealing`] | local only — none globally | best |
//! | [`core::CentralizedKPriority`] | ρ = k ignored items max | limited by the shared array |
//! | [`core::HybridKPriority`] | ρ = P·k ignored items max | near work-stealing for large k |
//!
//! The paper's recommendation is the hybrid structure with `k` tuned per
//! application (they found `k = 512` a good compromise on 80 cores).

pub use priosched_core as core;
pub use priosched_graph as graph;
pub use priosched_pq as pq;
pub use priosched_sssp as sssp;
pub use priosched_workloads as workloads;

/// Workspace version, for examples that print provenance.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
