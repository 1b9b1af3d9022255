//! R6 fixture: ad-hoc wall-clock timing inside solver library code, which
//! the `disallowed_methods` entry for `Instant::now` in `clippy.toml` must
//! reject.

use std::time::Instant;

pub fn solve_timed(n: u64) -> (u64, std::time::Duration) {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(i);
    }
    (acc, start.elapsed())
}
