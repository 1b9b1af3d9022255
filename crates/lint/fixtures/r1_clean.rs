//! R1 fixture: every panicking call is test-only, carries an `#[expect]`
//! naming its invariant, or sits inside a string or comment. Checked by
//! clippy under the panic-lint deny of the library crate roots.

pub fn head(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}

pub fn always_first(xs: &[u32]) -> u32 {
    // The string below mentions unwrap() but is data, not code.
    let _doc = "never call unwrap() on user input";
    #[expect(
        clippy::unwrap_used,
        reason = "invariant: callers guarantee xs is nonempty"
    )]
    let first = *xs.first().unwrap();
    first.saturating_add(1)
}

#[expect(
    clippy::expect_used,
    reason = "invariant: callers guarantee xs is nonempty"
)]
pub fn item_form(xs: &[u32]) -> u32 {
    *xs.first().expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(head(&[7]).unwrap(), 7);
    }
}
