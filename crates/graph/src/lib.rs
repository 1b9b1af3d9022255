//! Graphs, hypergraphs, generators, and treewidth.
//!
//! This crate is the combinatorial substrate for the `lowerbounds` workspace,
//! the reproduction of Marx, *"Modern Lower Bound Techniques in Database
//! Theory and Constraint Satisfaction"* (PODS 2021). Everything else —
//! CSP primal graphs, query hypergraphs, the treewidth-based dynamic program
//! of Freuder (Theorem 4.2), the "special" graphs of Definition 4.3 — builds
//! on the types defined here.
//!
//! # Contents
//!
//! * [`Graph`] — simple undirected graphs with O(1) adjacency tests.
//! * [`DiGraph`] — directed graphs with Tarjan SCCs (used by the 2SAT solver).
//! * [`Hypergraph`] — vertex/hyperedge incidence structures; the hypergraph
//!   of a join query or CSP instance (paper §2.1–§2.2).
//! * [`generators`] — deterministic and random graph/hypergraph families used
//!   by the experiment harness.
//! * [`treewidth`] — tree decompositions, elimination-order heuristics
//!   (min-degree, min-fill), and exact treewidth for small graphs.
//! * [`special`] — the "special" graphs of Definition 4.3 (a k-clique plus a
//!   path on 2^k vertices), the paper's candidate NP-intermediate family.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unreachable
    )
)]

pub mod digraph;
pub mod generators;
pub mod graph;
pub mod hypergraph;
pub mod special;
pub mod treewidth;

pub use digraph::DiGraph;
pub use graph::Graph;
pub use hypergraph::Hypergraph;
pub use special::SpecialGraph;
pub use treewidth::TreeDecomposition;
