//! R6 fixture: solver code that reports its work through counters instead
//! of wall-clock time — the engine-layer convention the lint enforces.

pub struct Counters {
    pub nodes: u64,
}

pub fn solve_counted(n: u64) -> (u64, Counters) {
    let mut acc = 0u64;
    let mut nodes = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(i);
        nodes += 1;
    }
    (acc, Counters { nodes })
}
