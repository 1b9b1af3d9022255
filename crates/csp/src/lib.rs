//! Constraint satisfaction problems (paper §2.2) and their solvers.
//!
//! A CSP instance is a triple (V, D, C) of variables, a finite domain, and
//! constraints ⟨scope, relation⟩. This crate provides the instance
//! representation shared by the whole workspace (join queries, graph
//! problems and relational structures all translate into it — see
//! `lb-reductions::fourdomains`) and four solvers whose relative scaling is
//! the subject of the paper's lower bounds:
//!
//! * [`solver::bruteforce`] — try all |D|^|V| assignments (the baseline the
//!   ETH-based Theorem 6.4 says cannot be beaten in general);
//! * [`solver::backtracking`] — MRV + forward-checking search;
//! * [`solver::treewidth_dp`] — Freuder's algorithm (Theorem 4.2): solve in
//!   |V| · |D|^{k+1} given a width-k tree decomposition of the primal graph
//!   — optimal in the exponent by Theorems 6.5–6.7/7.2;
//! * [`solver::special`] — the quasipolynomial n^{O(log n)} algorithm for
//!   the "special" instances of Definition 4.3.
//!
//! All solvers support deciding, counting, and enumerating solutions, and
//! agree with each other (property-tested).

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

pub mod consistency;
pub mod generators;
pub mod instance;
pub mod solver;

pub use instance::{Assignment, Constraint, CspInstance, Relation, Value};
