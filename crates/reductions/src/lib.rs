//! Executable reductions: the paper's lower-bound proofs as code.
//!
//! A conditional lower bound is a *reduction*: "if problem P had a fast
//! algorithm, so would the hard problem Q". This crate implements every
//! reduction the paper states or sketches as an instance-level transformer
//! with a solution mapping in both directions, so that the correctness of
//! each proof — YES-instances map to YES-instances and back — is
//! machine-checked by the test suite:
//!
//! * [`sat_to_csp`] — 3SAT as a CSP with |D| = 2 and arity ≤ 3
//!   (Corollary 6.1);
//! * [`sat_to_coloring`] — the textbook linear-size 3SAT → 3-Coloring
//!   gadget reduction, and 3-Coloring as a binary CSP with |D| = 3
//!   (Corollary 6.2);
//! * [`clique_to_csp`] — k-Clique as a binary CSP with k variables and
//!   domain V(G) (§5, Theorems 6.3 → 6.4);
//! * [`clique_to_special`] — k-Clique → SPECIAL CSP on k + 2^k variables
//!   (§5), the W\[1\]-hardness of the paper's NP-intermediate candidate;
//! * [`domset_to_csp`] — t-Dominating-Set → CSP whose primal graph is
//!   complete bipartite, including the g-fold variable-grouping that proves
//!   Theorem 7.2 (SETH-tightness of treewidth |D|^{k} algorithms);
//! * [`sat_to_ov`] — CNF-SAT → Orthogonal Vectors by the split-and-encode
//!   construction (§7, fine-grained complexity);
//! * [`fourdomains`] — the §2 translations: join query ⇄ CSP ⇄ partitioned
//!   subgraph isomorphism ⇄ relational-structure homomorphism.

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

pub mod clique_to_csp;
pub mod clique_to_special;
pub mod clique_vc;
pub mod domset_to_csp;
pub mod fourdomains;
pub mod sat_to_clique;
pub mod sat_to_coloring;
pub mod sat_to_csp;
pub mod sat_to_ov;
