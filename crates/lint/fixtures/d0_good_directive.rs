//! Directive fixture: well-formed directives — standalone-line form,
//! trailing form, and a multi-rule allow — all with justifications.

pub fn standalone(xs: &[u32]) -> u32 {
    // lb-lint: allow(no-panic) -- invariant: callers guarantee xs is nonempty
    *xs.first().unwrap()
}

pub fn trailing(xs: &[u32]) -> u32 {
    *xs.first().unwrap() // lb-lint: allow(no-panic) -- invariant: callers guarantee xs is nonempty
}

pub fn multi(xs: &[u32]) -> u32 {
    // lb-lint: allow(no-panic, no-unchecked-index) -- invariant: callers guarantee xs is nonempty
    xs[0].max(*xs.first().unwrap())
}
