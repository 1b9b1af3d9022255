//! Relational structures and the homomorphism problem (paper §2.4, §5).
//!
//! A τ-structure consists of a universe and one relation per symbol of the
//! vocabulary τ; a homomorphism A → B preserves every relation. This is the
//! most general of the paper's four domains: CSP, join queries and graph
//! homomorphism all embed into it, and Grohe's Theorem 5.3 classifies the
//! complexity of HOM(𝒜, _) by the treewidth of the **cores** of the
//! structures in 𝒜.
//!
//! * [`structure`] — vocabularies, structures, validation;
//! * [`hom`] — backtracking homomorphism search (find / count / all), with
//!   arc-consistency-style candidate pruning;
//! * [`core`] — core computation: the smallest retract, whose treewidth is
//!   the parameter of Theorem 5.3;
//! * [`convert`] — CSP instance ⇄ (A, B) structure pair, and graphs as
//!   single-binary-relation structures.
//!
//! Every search, counting, and core-computation entry point takes a
//! [`lb_engine::Budget`] and returns an [`lb_engine::Outcome`] paired with
//! [`lb_engine::RunStats`] operation counters.

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

pub mod convert;
pub mod core;
pub mod grohe;
pub mod hom;
pub mod structure;

pub use crate::core::{compute_core, is_core};
pub use crate::grohe::solve_hom_via_core;
pub use crate::hom::{count_homomorphisms, find_homomorphism};
pub use crate::structure::{Structure, Vocabulary};
