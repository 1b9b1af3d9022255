//! Quickstart: the AGM bound and worst-case optimal joins (paper §3).
//!
//! Builds the paper's running example — the triangle query — computes its
//! fractional edge cover number ρ* = 3/2 exactly, constructs the Theorem
//! 3.2 worst-case database, and evaluates it with both the worst-case
//! optimal Generic Join and a classical binary hash-join plan.
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(
    clippy::disallowed_methods,
    reason = "the walkthrough prints wall-clock timings next to the results"
)]

use lowerbounds::engine::Budget;
use lowerbounds::join::{agm, binary, wcoj, JoinQuery};
use std::time::Instant;

fn main() {
    let q = JoinQuery::triangle();
    let rho = agm::rho_star(&q).expect("triangle hypergraph is covered");
    println!("Triangle query R(a,b) ⋈ S(a,c) ⋈ T(b,c)");
    println!("  fractional edge cover number ρ* = {rho} (exactly)");
    println!();

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "N", "AGM bound", "answer", "wcoj", "binary plan"
    );
    for n in [100u64, 400, 1600, 6400] {
        let bound = agm::agm_bound(&q, n).unwrap();
        let (db, predicted) = agm::worst_case_database(&q, n).unwrap();

        let bu = Budget::unlimited();
        // The sequential machine, timed against the single-threaded binary
        // plan (`wcoj::count` would use every core).
        let t0 = Instant::now();
        let count = wcoj::join_foreach(&q, &db, None, &bu, |_| {})
            .unwrap()
            .0
            .unwrap_sat();
        let wcoj_time = t0.elapsed();

        let t1 = Instant::now();
        let (ans_out, stats) = binary::left_deep_join(&q, &db, &bu).unwrap();
        let binary_time = t1.elapsed();
        let ans = ans_out.unwrap_sat();

        assert_eq!(count as u128, predicted, "Theorem 3.2 witness is exact");
        assert_eq!(ans.len(), count as usize);
        println!(
            "{:>8} {:>12.0} {:>12} {:>11.2?} {:>11.2?} (max intermediate {})",
            n, bound, count, wcoj_time, binary_time, stats.max_intermediate
        );
    }
    println!();
    println!("The answer always matches the N^{{3/2}} prediction (Theorems 3.1–3.2),");
    println!("and the binary plan materializes intermediates larger than the inputs —");
    println!("the gap that makes Generic Join *worst-case optimal* (Theorem 3.3).");
}
