//! Exact linear programming for fractional covers.
//!
//! The AGM bound (paper Theorems 3.1–3.3) is `N^{ρ*(H)}` where `ρ*(H)` is
//! the *fractional edge cover number* of the query hypergraph — the optimum
//! of a small linear program. Because ρ* appears in an exponent, a floating
//! point solver is not acceptable: this crate implements a primal simplex
//! over **exact rational arithmetic** (packing LPs have a feasible slack
//! basis, so no phase one is needed) with Bland's rule to rule out cycling.
//!
//! * [`rational`] — exact rationals over `i128` (plenty for the tiny LPs of
//!   query hypergraphs; overflow panics rather than corrupting an exponent).
//! * [`simplex`] — `max { c·x : Ax ≤ b, x ≥ 0 }` with `b ≥ 0`, returning the
//!   optimal value, a primal solution, and the complementary dual solution.
//! * [`covers`] — the four fractional quantities of hypergraph combinatorics:
//!   edge cover ρ*, vertex packing (its LP dual, used to build the AGM
//!   worst-case database), vertex cover τ*, and matching ν*.
//! * [`intpow`] — exact `⌊N^{p/q}⌋` and exact power comparisons, so witness
//!   domain sizes never depend on `f64` rounding.
//! * [`convert`] — checked float↔int conversions, the only sanctioned home
//!   for float casts in bound arithmetic (every such cast carries an
//!   `#[expect]` against the cast lints denied below).

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
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

pub mod convert;
pub mod covers;
pub mod intpow;
pub mod rational;
pub mod simplex;

pub use covers::{
    fractional_edge_cover, fractional_matching, fractional_vertex_cover, fractional_vertex_packing,
    CoverSolution,
};
pub use intpow::{cmp_pow, floor_rational_pow, PowError};
pub use rational::Rational;
pub use simplex::{solve_packing, PackingSolution};
