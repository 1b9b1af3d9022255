//! R7 fixture: hot-path code with no unchecked indexing — `get`,
//! iterators, checked range slicing, array types, macros, attributes, a
//! lifetime before a slice type, and an `#[expect]` naming its bounds
//! invariant. Checked by clippy under the indexing deny of the hot paths.

#[derive(Clone)]
pub struct Assignment {
    values: Vec<bool>,
}

pub fn value_of(a: &Assignment, var: usize) -> Option<bool> {
    a.values.get(var).copied()
}

pub fn window(xs: &[u32]) -> Option<&[u32]> {
    xs.get(1..3)
}

pub fn zeros() -> [u8; 4] {
    [0; 4]
}

pub fn collected() -> Vec<u32> {
    vec![1, 2, 3]
}

pub fn first_true(xs: &[bool]) -> Option<usize> {
    xs.iter().position(|&b| b)
}

/// A field and a parameter of type `Option<&'a [String]>`: a lifetime
/// followed by a slice type, which is not indexing.
pub struct Order<'a> {
    pub names: Option<&'a [String]>,
}

pub fn first_name<'a>(names: Option<&'a [String]>, fallback: &'a String) -> &'a String {
    names.and_then(|n| n.first()).unwrap_or(fallback)
}

pub fn invariant_indexed(xs: &[u32], i: usize) -> u32 {
    #[expect(
        clippy::indexing_slicing,
        reason = "i % len() is always in range for a nonempty xs"
    )]
    let x = xs[i % xs.len()];
    x.saturating_add(1)
}
