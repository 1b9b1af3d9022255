//! Boolean satisfiability toolkit.
//!
//! SAT is the paper's anchor problem: the Exponential-Time Hypothesis (§6)
//! and the Strong Exponential-Time Hypothesis (§7) are assumptions about how
//! fast 3SAT / CNF-SAT can be solved, and every conditional lower bound in
//! the paper ultimately reduces from a satisfiability question. This crate
//! provides:
//!
//! * [`cnf`] — literals, clauses, CNF formulas, DIMACS I/O;
//! * [`dpll`] — a DPLL solver with unit propagation and pure-literal
//!   elimination (the "good" algorithm whose exponential scaling E4
//!   measures), with feature toggles for ablation;
//! * [`brute`] — brute-force 2^n enumeration (the baseline SETH speaks of);
//! * [`twosat`] — the linear-time 2SAT algorithm via implication-graph SCCs
//!   (the polynomial case contrasted with 3SAT in §4);
//! * [`schaefer`] — Schaefer's dichotomy (§4): classify a finite set of
//!   Boolean relations as polynomial-time or NP-hard, with dedicated
//!   polynomial solvers for all six tractable classes;
//! * [`generators`] — random and planted k-SAT instance generators.
//!
//! Every solver entry point takes a [`lb_engine::Budget`] and returns an
//! [`lb_engine::Outcome`] paired with [`lb_engine::RunStats`] counters.

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

pub mod brute;
pub mod cnf;
pub mod counting;
pub mod dpll;
pub mod generators;
pub mod schaefer;
pub mod twosat;
pub mod width;

pub use cnf::{Clause, CnfFormula, Lit};
pub use counting::count_models;
pub use dpll::{Branching, DpllConfig, DpllSolver};
pub use schaefer::{classify_relation_set, BooleanRelation, SchaeferClass, SchaeferError};
pub use twosat::solve_2sat;
pub use width::reduce_to_3sat;
