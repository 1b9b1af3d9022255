//! R3 fixture: the same lookup in safe code.

pub fn first(xs: &[u32]) -> Option<u32> {
    xs.first().copied()
}
