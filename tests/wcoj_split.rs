//! The split one-shot count is exact.
//!
//! A [`wcoj::count`] that cannot stop early splits the search at the first
//! variable and runs the subtrees below its bindings on scoped threads,
//! each on its own machine and ticker. Its answer and every [`RunStats`]
//! field must equal the sequential machine's, which [`wcoj::join_foreach`]
//! with a no-op visitor still runs. On a one-core host the caller runs every
//! subtree itself, so these checks exercise the split on any host.
//!
//! A count that can stop early (a tick limit, a deadline or a fault plan)
//! must stay on the sequential machine: it gives exactly what
//! `join_foreach` gives under the same budget, down to the tick it stops
//! at.

use lb_chaos::hostile;
use lowerbounds::engine::fault::{self, FaultKind, FaultPlan};
use lowerbounds::engine::{Budget, Outcome, RunStats};
use lowerbounds::join::query::Atom;
use lowerbounds::join::wcoj::{self, JoinError};
use lowerbounds::join::{agm, generators, Database, JoinQuery, Table};
use std::time::Duration;

type Counted = Result<(Outcome<u64>, RunStats), JoinError>;

fn sequential(q: &JoinQuery, db: &Database, order: Option<&[String]>, budget: &Budget) -> Counted {
    wcoj::join_foreach(q, db, order, budget, |_| {})
}

/// `count` equals the sequential machine under `budget`, in answer and in
/// every counter; returns the agreed result.
fn assert_exact(
    name: &str,
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Counted {
    let split = wcoj::count(q, db, order, budget);
    let seq = sequential(q, db, order, budget);
    assert_eq!(
        split, seq,
        "{name}: count differs from the sequential machine"
    );
    split
}

fn table(arity: usize, rows: &[&[u64]]) -> Table {
    Table::from_rows(arity, rows.iter().map(|r| r.to_vec()).collect())
}

#[test]
fn split_count_is_exact_on_every_pin_shape() {
    let shapes = [
        ("triangle", JoinQuery::triangle(), 40, 8, 36),
        ("4cycle", JoinQuery::cycle(4), 30, 8, 16),
        ("4clique", JoinQuery::clique(4), 30, 6, 16),
    ];
    for generator in ["uniform", "zipf", "agm"] {
        for (shape, q, rows, domain, agm_n) in &shapes {
            let db = match generator {
                "uniform" => generators::random_database(q, *rows, *domain, 11),
                "zipf" => generators::skewed_database(q, *rows, *domain * 2, 11),
                _ => agm::worst_case_database(q, *agm_n).expect("small n").0,
            };
            let mut reversed = q.attributes();
            reversed.reverse();
            for order in [None, Some(reversed)] {
                let name = format!("{generator}/{shape}/{order:?}");
                let (out, stats) =
                    assert_exact(&name, q, &db, order.as_deref(), &Budget::unlimited())
                        .expect("valid instance");
                assert!(out.is_sat(), "{name}: an unlimited count completes");
                assert!(stats.total_ops() > 0, "{name}: the search did work");
            }
        }
    }
}

#[test]
fn split_count_is_exact_on_larger_joins() {
    // Enough root bindings that every worker of a multi-core host takes
    // some; the AGM instances split into equal subtrees, the Zipf one puts
    // most of its work under one binding. The largest runs long enough
    // (~10 ms in release) that a helper thread has started before the
    // caller has taken every binding.
    let q = JoinQuery::triangle();
    for (name, db) in [
        (
            "uniform",
            generators::random_binary_database(&q, 400, 40, 0xBEEF1),
        ),
        (
            "zipf",
            generators::skewed_binary_database(&q, 500, 64, 0xBEEF4),
        ),
        ("agm", agm::worst_case_database(&q, 256).expect("small n").0),
        (
            "agm large",
            agm::worst_case_database(&q, 4096).expect("small n").0,
        ),
    ] {
        assert_exact(name, &q, &db, None, &Budget::unlimited()).expect("valid instance");
    }
}

#[test]
fn split_count_is_exact_on_hostile_instances() {
    for seed in 0..120u64 {
        let (q, db) = hostile::join_instance(seed);
        // Broken databases fail the same way on both paths.
        let _ = assert_exact(
            &format!("hostile {seed}"),
            &q,
            &db,
            None,
            &Budget::unlimited(),
        );
        let (q, db) = hostile::skewed_join_instance(seed);
        assert_exact(
            &format!("skewed {seed}"),
            &q,
            &db,
            None,
            &Budget::unlimited(),
        )
        .expect("skewed instances are well-formed");
    }
}

#[test]
fn split_count_is_exact_on_edge_shapes() {
    let mut db = Database::new();
    db.insert("R", table(2, &[&[1, 2], &[1, 3], &[2, 2], &[4, 4]]));
    db.insert("S", table(2, &[&[1, 5], &[2, 6], &[3, 7]]));
    db.insert("A", table(1, &[&[1], &[2], &[3]]));
    db.insert("B", table(1, &[&[2], &[3], &[4]]));
    db.insert("E", Table::new(2));
    db.insert("D", table(2, &[&[9, 1], &[9, 2]]));
    db.insert("O", table(2, &[&[1, 5], &[1, 6]]));
    let mut unit = Table::new(0);
    unit.push(&[]);
    unit.normalize();
    db.insert("U", unit);

    let unlimited = Budget::unlimited();
    let cases: Vec<(&str, JoinQuery, Option<u64>)> = vec![
        (
            "one variable",
            JoinQuery::new(vec![Atom::new("A", &["a"]), Atom::new("B", &["a"])]),
            Some(2),
        ),
        (
            "single atom",
            JoinQuery::new(vec![Atom::new("R", &["x", "y"])]),
            Some(4),
        ),
        (
            "nullary atom",
            JoinQuery::new(vec![Atom::new("R", &["a", "b"]), Atom::new("U", &[])]),
            Some(4),
        ),
        (
            "empty relation",
            JoinQuery::new(vec![
                Atom::new("R", &["a", "b"]),
                Atom::new("E", &["b", "c"]),
            ]),
            Some(0),
        ),
        (
            "root with no binding",
            JoinQuery::new(vec![
                Atom::new("D", &["a", "b"]),
                Atom::new("S", &["a", "c"]),
            ]),
            Some(0),
        ),
        (
            "root with one binding",
            JoinQuery::new(vec![
                Atom::new("O", &["a", "b"]),
                Atom::new("R", &["a", "c"]),
            ]),
            Some(4),
        ),
        (
            "repeated attribute",
            JoinQuery::new(vec![
                Atom::new("R", &["a", "a"]),
                Atom::new("S", &["a", "c"]),
            ]),
            Some(1),
        ),
        (
            "unsorted attribute order",
            JoinQuery::new(vec![
                Atom::new("R", &["b", "a"]),
                Atom::new("S", &["a", "c"]),
            ]),
            None,
        ),
    ];
    for (name, q, expect) in cases {
        let (out, _) = assert_exact(name, &q, &db, None, &unlimited).expect("valid instance");
        if let Some(n) = expect {
            assert_eq!(out, Outcome::Sat(n), "{name}");
        }
        let mut reversed = q.attributes();
        reversed.reverse();
        assert_exact(name, &q, &db, Some(&reversed), &unlimited).expect("valid instance");
    }
}

#[test]
fn counts_that_can_stop_early_stay_sequential() {
    let q = JoinQuery::triangle();
    let db = generators::skewed_binary_database(&q, 300, 48, 0xBEEF4);
    let (_, full) = sequential(&q, &db, None, &Budget::unlimited()).expect("valid instance");
    let total = full.total_ops();

    // Tick limits: every cut stops at the same tick with the same counters.
    for n in [0, 1, 2, 7, 64, total / 3, total - 1, total, total + 1] {
        let (out, _) = assert_exact("ticks", &q, &db, None, &Budget::ticks(n)).expect("valid");
        assert_eq!(out.is_exhausted(), n < total, "ticks({n}) of {total}");
    }

    // An expired deadline stops at the first tick; a distant one completes.
    let (out, stats) =
        assert_exact("deadline", &q, &db, None, &Budget::deadline(Duration::ZERO)).expect("valid");
    assert!(out.is_exhausted());
    assert_eq!(stats.total_ops(), 1);
    let (out, stats) = assert_exact(
        "deadline",
        &q,
        &db,
        None,
        &Budget::deadline(Duration::from_secs(3600)),
    )
    .expect("valid");
    assert!(out.is_sat());
    assert_eq!(stats, full);

    // An ambient fault plan is seen by the sequential machine only: a
    // split would run its subtrees on threads that never see the plan.
    let plans = [
        FaultPlan::new().with_point(FaultKind::Exhaust, total / 2),
        FaultPlan::new().with_point(FaultKind::Deadline, 5),
        FaultPlan::new().with_point(FaultKind::TrieAdvance, full.trie_advances / 2),
        FaultPlan::new().with_point(FaultKind::PoisonIntermediate, 2),
    ];
    for plan in &plans {
        let split = fault::with_plan(plan, || wcoj::count(&q, &db, None, &Budget::unlimited()));
        let seq = fault::with_plan(plan, || sequential(&q, &db, None, &Budget::unlimited()));
        assert_eq!(split, seq, "plan {plan}");
    }
    let poisoned = fault::with_plan(&plans[3], || {
        wcoj::count(&q, &db, None, &Budget::unlimited())
    })
    .expect("valid");
    assert_eq!(poisoned.1.max_intermediate, u64::MAX, "the poison fired");
}
