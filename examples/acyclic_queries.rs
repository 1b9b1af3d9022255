//! Acyclic join queries: the tractable boundary (paper §4).
//!
//! Classifies query shapes with the GYO reduction and evaluates an acyclic
//! query three ways — Yannakakis (linear in input + output), Generic Join,
//! and a binary hash-join plan — on inputs engineered so the unreduced
//! binary plan materializes a huge dead intermediate.
//!
//! Run with: `cargo run --release --example acyclic_queries`

#![expect(
    clippy::disallowed_methods,
    reason = "the walkthrough prints wall-clock timings next to the results"
)]

use lowerbounds::engine::Budget;
use lowerbounds::join::acyclic::{is_acyclic, is_empty_acyclic, yannakakis};
use lowerbounds::join::{binary, wcoj, Atom, Database, JoinQuery, Table};
use std::time::Instant;

fn main() {
    println!("GYO classification (paper §4: acyclic ⇒ polynomial time):");
    for (name, q) in [
        (
            "path-4   R0(x0,x1) ⋈ R1(x1,x2) ⋈ R2(x2,x3) ⋈ R3(x3,x4)",
            path_query(4),
        ),
        ("star-4", JoinQuery::star(4)),
        ("triangle", JoinQuery::triangle()),
        ("4-cycle", JoinQuery::cycle(4)),
        ("Loomis–Whitney(3)", JoinQuery::loomis_whitney(3)),
    ] {
        println!(
            "  {:<60} {}",
            name,
            if is_acyclic(&q) { "acyclic" } else { "CYCLIC" }
        );
    }

    // A 3-hop path query where the middle join explodes but the answer is
    // empty: R0 and R1 are s×s grids, R2 kills everything.
    let q = path_query(3);
    let s = 300u64;
    let mut grid = Table::new(2);
    for i in 0..s {
        for j in 0..s {
            grid.push(&[i, j]);
        }
    }
    grid.normalize();
    let mut db = Database::new();
    db.insert("R0", grid.clone());
    db.insert("R1", grid);
    db.insert("R2", Table::from_rows(2, vec![vec![u64::MAX - 1, 0]]));

    println!("\nDead-end path query, |R0| = |R1| = {} tuples:", s * s);
    let bu = Budget::unlimited();
    let t0 = Instant::now();
    let yk = yannakakis(&q, &db, &bu).unwrap().0.unwrap_sat();
    println!(
        "  Yannakakis (semi-join reduced): {:>10.2?}  answer = {}",
        t0.elapsed(),
        yk.len()
    );

    let t1 = Instant::now();
    let empty = is_empty_acyclic(&q, &db, &bu).unwrap().0.unwrap_sat();
    println!(
        "  emptiness sweep only:           {:>10.2?}  empty = {empty}",
        t1.elapsed()
    );

    let t2 = Instant::now();
    let gj = wcoj::join(&q, &db, None, &bu).unwrap().0.unwrap_sat();
    println!(
        "  Generic Join:                   {:>10.2?}  answer = {}",
        t2.elapsed(),
        gj.len()
    );

    let t3 = Instant::now();
    let (bp_out, stats) = binary::left_deep_join(&q, &db, &bu).unwrap();
    let bp = bp_out.unwrap_sat();
    println!(
        "  binary plan:                    {:>10.2?}  answer = {} (materialized {} tuples!)",
        t3.elapsed(),
        bp.len(),
        stats.tuples
    );
    assert_eq!(yk, gj);
    assert_eq!(yk, bp);
    println!("\nThe semi-join reduction never materializes more than input+output —");
    println!("the linear-time guarantee that makes acyclic queries the easy case,");
    println!("while Theorems 5.2/6.6 show bounded treewidth is all that extends it.");
}

fn path_query(len: usize) -> JoinQuery {
    JoinQuery::new(
        (0..len)
            .map(|i| Atom {
                relation: format!("R{i}"),
                attrs: vec![format!("x{i}"), format!("x{}", i + 1)],
            })
            .collect(),
    )
}
