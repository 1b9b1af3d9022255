//! R2 fixture: lossy float/int `as` casts in a bound-arithmetic module.
//! `tests/lint_gate.rs` compiles it under the cast-lint deny of
//! `crates/lp/src/lib.rs`, and clippy must reject it.

pub fn bound(n: u64, rho: f64) -> f64 {
    (n as f64).powf(rho)
}

pub fn truncate(s: f64) -> u64 {
    (s + 1e-9).floor().max(1.0) as u64
}
