//! The algorithms whose optimality the paper's lower bounds certify
//! (§5–§8).
//!
//! Each module pairs a problem with the algorithms the paper discusses:
//!
//! * [`matmul`] — boolean and integer matrix multiplication (naive and
//!   Strassen); the ω in every §8 conjecture. Strassen (ω ≈ 2.807) is our
//!   substitute for the Alman–Vassilevska Williams ω < 2.373 method — same
//!   mechanism, different constant, as recorded in DESIGN.md.
//! * [`clique`] — k-clique by branch-and-prune brute force (n^k) and by the
//!   Nešetřil–Poljak reduction to triangle detection (n^{ωk/3}); Theorem
//!   6.3 / the k-clique conjecture say these exponents are optimal.
//! * [`triangle`] — naive, matrix-multiplication, and Alon–Yuster–Zwick
//!   m^{2ω/(ω+1)} detection (§8, triangle conjecture).
//! * [`hyperclique`] — k-clique in d-uniform hypergraphs, where no
//!   matrix-multiplication speedup is known (§8, hyperclique conjecture).
//! * [`domset`] — k-Dominating Set in n^{k+O(1)}: the SETH-tight problem of
//!   Theorem 7.1.
//! * [`vertexcover`] — FPT vertex cover: Buss kernel + 2^k search tree (§5).
//! * [`subiso`] — partitioned subgraph isomorphism, the graph form of
//!   binary CSP (§2.3).
//! * [`editdist`] — the O(n²) edit-distance DP that SETH makes optimal (§7).
//! * [`ov`] — Orthogonal Vectors, the canonical intermediate problem of
//!   fine-grained complexity (§7).
//!
//! Every search and counting entry point takes a [`lb_engine::Budget`] and
//! returns an [`lb_engine::Outcome`] paired with [`lb_engine::RunStats`]
//! operation counters, so the n^k / n^ω / n² scaling the lower bounds talk
//! about can be measured machine-independently. Only [`matmul`] stays an
//! unbudgeted primitive; its callers tick before invoking it.

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

pub mod clique;
pub mod domset;
pub mod editdist;
pub mod hyperclique;
pub mod matmul;
pub mod ov;
pub mod subiso;
pub mod triangle;
pub mod vertexcover;

pub use matmul::BoolMatrix;
