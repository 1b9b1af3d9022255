//! A stale exception: an `#[expect]` on code that can no longer panic.
//! `unfulfilled_lint_expectations` fails the gate, so an exception cannot
//! outlive the site it justified.

pub fn first_or_zero(xs: &[u32]) -> u32 {
    #[expect(
        clippy::unwrap_used,
        reason = "invariant: callers guarantee xs is nonempty"
    )]
    let first = xs.first().copied().unwrap_or(0);
    first.saturating_add(1)
}
