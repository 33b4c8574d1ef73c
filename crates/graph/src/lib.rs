#![warn(missing_docs)]

//! Graph substrate for the priosched evaluation.
//!
//! The evaluation of Wimmer et al. (PPoPP 2014, §5) runs the single-source
//! shortest path (SSSP) problem on undirected Erdős–Rényi random graphs
//! `G(n, p)` with edge weights drawn uniformly from `(0, 1]`. This crate
//! provides:
//!
//! * [`CsrGraph`] — compressed-sparse-row storage of undirected weighted
//!   graphs (each undirected edge stored in both adjacency lists);
//! * [`erdos_renyi`] — seeded `G(n, p)` samplers (a geometric-skip sampler
//!   for any `p`, with a fast path for dense graphs);
//! * [`dijkstra()`] — the sequential Dijkstra baseline the paper compares
//!   against (Figure 4, "Sequential"), with lazy deletion instead of
//!   decrease-key, matching the paper's reinsertion scheme (§5.1);
//! * [`bellman_ford()`] — an independent oracle used only by tests.
//!
//! Weights are stored as `f32` (halving memory for the paper-scale
//! `n = 10000, p = 0.5` graphs, which have ~25M edges) and all distance
//! arithmetic is done in `f64`. Every algorithm in this workspace sums the
//! same `f64` values along the same paths, so cross-implementation distance
//! comparisons are exact.

pub mod bellman_ford;
pub mod csr;
pub mod dijkstra;
pub mod gen;

pub use bellman_ford::bellman_ford;
pub use csr::{CsrGraph, Edge};
pub use dijkstra::{dijkstra, DijkstraResult};
pub use gen::{erdos_renyi, ErdosRenyiConfig};

/// Distance value for unreached nodes.
pub const INFINITY: f64 = f64::INFINITY;
