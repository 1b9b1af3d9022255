//! R8 fixture (allow-suppressed): an uncharged loop carrying an
//! invariant-stating `allow(unbudgeted-loop)` directive is accepted, also
//! when outer attributes, on one line or several, sit between the
//! directive and the loop.

pub fn solve(n: u32) -> u32 {
    let mut acc = 0;
    // lb-lint: allow(unbudgeted-loop) -- bounded by n; the caller charges per call
    while acc < n {
        acc += 1;
    }
    acc + solve_attributed(n) + solve_spread(n)
}

pub fn solve_attributed(n: u32) -> u32 {
    let xs = [1u32, 2, 3];
    let mut acc = 0;
    // lb-lint: allow(unbudgeted-loop) -- bounded by n; the caller charges per call
    #[expect(clippy::indexing_slicing, reason = "acc % 3 < 3 = xs.len()")]
    while acc < n {
        acc += xs[(acc % 3) as usize];
    }
    acc
}

pub fn solve_spread(n: u32) -> u32 {
    let xs = [1u32, 2, 3];
    let mut acc = 0;
    // lb-lint: allow(unbudgeted-loop) -- bounded by n; the caller charges per call
    #[expect(
        clippy::indexing_slicing,
        reason = "xs[acc % 3] is in range: acc % 3 < 3 = xs.len()"
    )]
    #[allow(unused_mut)]
    while acc < n {
        acc += xs[(acc % 3) as usize];
    }
    acc
}
