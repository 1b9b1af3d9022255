//! Treewidth-driven CSP solving (paper §4, Theorem 4.2).
//!
//! Generates random binary CSPs whose primal graphs are k-trees (treewidth
//! exactly k), computes tree decompositions with the min-fill heuristic,
//! and contrasts Freuder's |D|^{k+1} dynamic program with plain
//! backtracking — including solution *counting*, which backtracking must
//! enumerate but the DP gets for free.
//!
//! Run with: `cargo run --release --example csp_treewidth`

#![expect(
    clippy::disallowed_methods,
    reason = "the walkthrough prints wall-clock timings next to the results"
)]

use lowerbounds::csp::generators::random_ktree_csp;
use lowerbounds::csp::solver::{backtracking, treewidth_dp, BacktrackConfig};
use lowerbounds::engine::Budget;
use lowerbounds::graph::treewidth;
use std::time::Instant;

fn main() {
    println!("Random binary CSPs on k-tree primal graphs, |D| = 3, tightness 0.40");
    println!();
    println!(
        "{:>3} {:>6} {:>7} {:>10} {:>12} {:>14}",
        "k", "vars", "tw", "solutions", "Freuder DP", "backtracking"
    );
    for k in 1..=4 {
        for num_vars in [15usize, 25] {
            let inst = random_ktree_csp(k, num_vars, 3, 0.40, 42 + k as u64);
            let primal = inst.primal_graph();
            let (tw_ub, td) = treewidth::treewidth_upper_bound(&primal);

            let bu = Budget::unlimited();
            let t0 = Instant::now();
            let dp = treewidth_dp::solve_with_decomposition(&inst, &td, &bu)
                .0
                .unwrap_sat();
            let dp_time = t0.elapsed();

            // Backtracking must *enumerate* to count; skip it when the DP
            // already knows the count is huge.
            let bt_cell = if dp.count <= 2_000_000 {
                let t1 = Instant::now();
                let (bt_out, _) = backtracking::count(&inst, BacktrackConfig::default(), &bu);
                let bt_count = bt_out.unwrap_sat();
                let bt_time = t1.elapsed();
                assert_eq!(dp.count, bt_count, "solvers must agree");
                format!("{bt_time:>13.2?}")
            } else {
                format!("{:>13}", "(skipped)")
            };
            println!(
                "{:>3} {:>6} {:>7} {:>10} {:>11.2?} {}",
                k, num_vars, tw_ub, dp.count, dp_time, bt_cell
            );
        }
    }
    println!();
    println!("Freuder's DP spends |D|^(k+1) per bag — polynomial for every fixed k,");
    println!("and Theorems 6.5–6.7 / 7.2 show the exponent k cannot be improved.");
}
