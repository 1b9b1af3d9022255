//! R2 fixture: bound arithmetic with no lossy casts, or casts that carry a
//! justified `#[expect]`. Widening integer casts are not lossy and must not
//! be flagged.

pub fn widen(x: u32) -> u64 {
    u64::from(x)
}

pub fn widen_as(x: u32) -> u64 {
    x as u64
}

#[expect(
    clippy::cast_precision_loss,
    reason = "display-only: feeds a log line, never a bound decision"
)]
pub fn display_only(n: u64) -> f64 {
    n as f64
}
