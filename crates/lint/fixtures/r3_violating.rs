//! R3 fixture: an `unsafe` block, which the workspace `unsafe_code =
//! "forbid"` lint must reject.

pub fn first(xs: &[u32]) -> u32 {
    assert!(!xs.is_empty());
    unsafe { *xs.get_unchecked(0) }
}
