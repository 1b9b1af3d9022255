//! `lowerbounds` — a working reproduction of Dániel Marx,
//! *"Modern Lower Bound Techniques in Database Theory and Constraint
//! Satisfaction"* (PODS 2021).
//!
//! The paper is a tutorial: its "results" are theorems pairing an algorithm
//! (an upper bound) with a conditional lower bound showing the algorithm is
//! essentially optimal under a complexity hypothesis. This workspace makes
//! all of that *executable*:
//!
//! * every algorithm the paper discusses is implemented
//!   ([`join`]: worst-case optimal joins; [`csp`]: Freuder's treewidth DP;
//!   [`graphalg`]: clique via matrix multiplication, AYZ triangles,
//!   FPT vertex cover, dominating set, edit distance, orthogonal vectors;
//!   [`sat`]: DPLL, 2SAT, Schaefer's dichotomy);
//! * every reduction the paper uses is an instance-level transformer with
//!   solution mapping ([`reductions`]);
//! * the hypotheses themselves form a typed registry with their implication
//!   structure ([`hypotheses`]), and every theorem of the paper is a typed
//!   [`claims::LowerBoundClaim`] connecting a hypothesis to the running
//!   time it rules out and the experiment that demonstrates the matching
//!   upper bound;
//! * [`experiments`] provides the shared measurement harness (timing,
//!   log–log exponent fitting, table printing) used by the `lb-bench`
//!   binaries that regenerate every experiment in `EXPERIMENTS.md`;
//! * every solver entry point runs under the [`engine`] layer: it accepts a
//!   tick/deadline [`engine::Budget`], returns a three-valued
//!   [`engine::Outcome`] (`Sat` / `Unsat` / `Exhausted`), and reports
//!   machine-independent [`engine::RunStats`] operation counters.
//!
//! # Quick start
//!
//! ```
//! use lowerbounds::engine::Budget;
//! use lowerbounds::join::{JoinQuery, agm, wcoj};
//!
//! // The paper's running example: the triangle query, ρ* = 3/2.
//! let q = JoinQuery::triangle();
//! assert_eq!(agm::rho_star(&q).unwrap().to_string(), "3/2");
//!
//! // Build the AGM worst-case database (Theorem 3.2) and join it
//! // worst-case optimally (Theorem 3.3).
//! let (db, expected) = agm::worst_case_database(&q, 100).unwrap();
//! let (outcome, stats) = wcoj::join(&q, &db, None, &Budget::unlimited()).unwrap();
//! let answer = outcome.unwrap_sat();
//! assert_eq!(answer.len() as u128, expected); // = 1000 = 100^{3/2}
//! assert!(stats.tuples >= 1000); // machine-independent work counters
//! ```

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

pub mod claims;
pub mod experiments;
pub mod hypotheses;

/// CSP instances and solvers (re-export of `lb-csp`).
pub use lb_csp as csp;
/// Budgets, outcomes, and run telemetry (re-export of `lb-engine`).
pub use lb_engine as engine;
/// Graphs, hypergraphs, treewidth (re-export of `lb-graph`).
pub use lb_graph as graph;
/// Graph algorithms under study (re-export of `lb-graphalg`).
pub use lb_graphalg as graphalg;
/// Join queries, AGM bound, worst-case optimal joins (re-export of `lb-join`).
pub use lb_join as join;
/// Exact LP: fractional covers (re-export of `lb-lp`).
pub use lb_lp as lp;
/// Executable reductions (re-export of `lb-reductions`).
pub use lb_reductions as reductions;
/// SAT toolkit (re-export of `lb-sat`).
pub use lb_sat as sat;
/// Relational structures, homomorphisms, cores (re-export of `lb-structure`).
pub use lb_structure as structure;

pub use claims::{all_claims, LowerBoundClaim};
pub use hypotheses::Hypothesis;
