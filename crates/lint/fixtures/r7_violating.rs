//! R7 fixture: unchecked `[i]` indexing and range slicing in a solver hot
//! path.

pub struct Assignment {
    values: Vec<bool>,
}

pub fn value_of(a: &Assignment, var: usize) -> bool {
    a.values[var]
}

pub fn cell(m: &[Vec<u32>], i: usize, j: usize) -> u32 {
    m[i][j]
}

pub fn tail(xs: &[u32], i: usize) -> &[u32] {
    &xs[i..]
}
