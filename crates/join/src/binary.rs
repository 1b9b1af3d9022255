//! Binary (pairwise) join plans: the classical baseline.
//!
//! A left-deep plan of hash joins materializes every intermediate result.
//! On the AGM worst-case triangle databases any pairwise plan first joins
//! two relations of size N into an intermediate of size N² — the Ω(N²)
//! behaviour that worst-case optimal joins avoid. Experiment E2 measures
//! the crossover; [`RunStats::max_intermediate`] is the quantity that
//! blows up.
//!
//! Engine mapping: each probe row examined is a [`RunStats::nodes`] tick,
//! each intermediate tuple materialized a [`RunStats::tuples`] tick, and
//! every intermediate's size is recorded in
//! [`RunStats::max_intermediate`].
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::tuples`]: lb_engine::RunStats::tuples
//! [`RunStats::max_intermediate`]: lb_engine::RunStats::max_intermediate

use crate::database::Database;
use crate::query::{AnswerTuple, JoinQuery};
use crate::wcoj::JoinError;
use crate::Value;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use std::collections::HashMap;

/// An intermediate result with its schema.
struct Intermediate {
    attrs: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// Evaluates the query left-to-right with pairwise hash joins. Returns the
/// answer (attribute order = [`JoinQuery::attributes`], sorted) with the
/// run's counters; malformed inputs fail with `Err`, budget exhaustion
/// yields [`Outcome::Exhausted`].
#[must_use = "dropping the result discards the join answers and statistics or the failure"]
pub fn left_deep_join(
    q: &JoinQuery,
    db: &Database,
    budget: &Budget,
) -> Result<(Outcome<Vec<AnswerTuple>>, RunStats), JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let mut ticker = Ticker::new(budget);
    let result = left_deep_inner(q, db, &mut ticker);
    Ok(ticker.finish(result.map(Some)))
}

#[expect(
    clippy::expect_used,
    reason = "invariant: validate_for checked every atom's relation before the join ran, a validated query has at least one atom, and the accumulator's schema covers every joined attribute"
)]
fn left_deep_inner(
    q: &JoinQuery,
    db: &Database,
    ticker: &mut Ticker,
) -> Result<Vec<AnswerTuple>, ExhaustReason> {
    let mut acc: Option<Intermediate> = None;
    for atom in &q.atoms {
        let table = db.table(&atom.relation).expect("validated");
        // Normalize the atom to distinct attributes (diagonal filter).
        let mut attrs: Vec<String> = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
        // lb-lint: allow(unbudgeted-loop) -- scans one atom's attribute list; bounded by arity
        for (c, a) in atom.attrs.iter().enumerate() {
            if !attrs.contains(a) {
                attrs.push(a.clone());
                cols.push(c);
            }
        }
        let rows: Vec<Vec<Value>> = table
            .rows()
            .filter(|row| {
                atom.attrs.iter().enumerate().all(|(c, a)| {
                    let first = atom.attrs.iter().position(|x| x == a).expect("present");
                    row[c] == row[first]
                })
            })
            .map(|row| cols.iter().map(|&c| row[c]).collect())
            .collect();
        let right = Intermediate { attrs, rows };

        acc = Some(match acc {
            None => right,
            Some(left) => {
                let joined = hash_join(&left, &right, ticker)?;
                ticker.record_intermediate(joined.rows.len() as u64);
                joined
            }
        });
    }

    let acc = acc.expect("query has atoms");
    // Re-order columns to sorted attribute order and sort rows.
    let attrs = q.attributes();
    let perm: Vec<usize> = attrs
        .iter()
        .map(|a| {
            acc.attrs
                .iter()
                .position(|x| x == a)
                .expect("all attrs joined")
        })
        .collect();
    let mut out: Vec<AnswerTuple> = acc
        .rows
        .iter()
        .map(|r| perm.iter().map(|&i| r[i]).collect())
        .collect();
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Classic hash join on the common attributes; the smaller side is hashed.
fn hash_join(
    left: &Intermediate,
    right: &Intermediate,
    ticker: &mut Ticker,
) -> Result<Intermediate, ExhaustReason> {
    let common: Vec<(usize, usize)> = left
        .attrs
        .iter()
        .enumerate()
        .filter_map(|(li, a)| right.attrs.iter().position(|b| b == a).map(|ri| (li, ri)))
        .collect();
    let right_extra: Vec<usize> = (0..right.attrs.len())
        .filter(|ri| !common.iter().any(|&(_, r)| r == *ri))
        .collect();

    let (build, probe, build_is_left) = if left.rows.len() <= right.rows.len() {
        (left, right, true)
    } else {
        (right, left, false)
    };
    let key_of = |row: &[Value], is_left: bool| -> Vec<Value> {
        common
            .iter()
            .map(|&(li, ri)| row[if is_left { li } else { ri }])
            .collect()
    };
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    // lb-lint: allow(unbudgeted-loop) -- build-side hash insertion, linear in the build relation; probe side charges per tuple
    for (i, row) in build.rows.iter().enumerate() {
        // lb-lint: allow(unbounded-growth) -- build-side index, linear in one input relation; the joined output below is recorded
        index.entry(key_of(row, build_is_left)).or_default().push(i);
    }

    let mut attrs = left.attrs.clone();
    attrs.extend(right_extra.iter().map(|&ri| right.attrs[ri].clone()));
    let mut rows = Vec::new();
    for prow in &probe.rows {
        ticker.node()?;
        let key = key_of(prow, !build_is_left);
        if let Some(matches) = index.get(&key) {
            for &bi in matches {
                ticker.tuple()?;
                let brow = &build.rows[bi];
                let (lrow, rrow) = if build_is_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                let mut out = lrow.clone();
                out.extend(right_extra.iter().map(|&ri| rrow[ri]));
                rows.push(out);
                ticker.record_intermediate(rows.len() as u64);
            }
        }
    }
    Ok(Intermediate { attrs, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::wcoj;

    fn left_deep_all(q: &JoinQuery, db: &Database) -> (Vec<AnswerTuple>, RunStats) {
        let (out, stats) = left_deep_join(q, db, &Budget::unlimited()).unwrap();
        (out.unwrap_sat(), stats)
    }

    /// Collects the WCOJ answer by streaming through `join_foreach` — the
    /// canonical consumer shape when tuples are only compared or counted.
    fn wcoj_all(q: &JoinQuery, db: &Database) -> Vec<AnswerTuple> {
        let mut out = Vec::new();
        let n = wcoj::join_foreach(q, db, None, &Budget::unlimited(), |t| out.push(t.to_vec()))
            .unwrap()
            .0
            .unwrap_sat();
        assert_eq!(n as usize, out.len());
        out.sort_unstable();
        out
    }

    #[test]
    fn agrees_with_wcoj_on_random_triangles() {
        for seed in 0..10u64 {
            let q = JoinQuery::triangle();
            let db = generators::random_binary_database(&q, 40, 10, seed);
            let (ans, _) = left_deep_all(&q, &db);
            assert_eq!(ans, wcoj_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn agrees_on_star_and_cycle() {
        for seed in 0..5u64 {
            for q in [JoinQuery::star(3), JoinQuery::cycle(4)] {
                let db = generators::random_binary_database(&q, 25, 6, seed);
                let (ans, _) = left_deep_all(&q, &db);
                assert_eq!(ans, wcoj_all(&q, &db));
            }
        }
    }

    #[test]
    fn quadratic_intermediate_on_worst_case() {
        // The Theorem 3.2 database for the triangle forces the first
        // pairwise join to materialize s² · s = n^{3/2}... specifically
        // R(a,b) ⋈ S(a,c) has s·s·s = n^{3/2} rows where s = √n, strictly
        // more than the final answer only for larger structures; what we
        // check: the intermediate exceeds every input relation.
        let q = JoinQuery::triangle();
        let (db, _) = crate::agm::worst_case_database(&q, 64).unwrap();
        let (_, stats) = left_deep_all(&q, &db);
        assert!(
            stats.max_intermediate as usize > db.max_table_size(),
            "intermediate {} should exceed inputs {}",
            stats.max_intermediate,
            db.max_table_size()
        );
        // Exactly s³ = 512 for n = 64 (s = 8).
        assert_eq!(stats.max_intermediate, 512);
        // Every materialized intermediate tuple was ticked.
        assert!(stats.tuples >= stats.max_intermediate);
    }

    #[test]
    fn tiny_budget_exhausts() {
        let q = JoinQuery::triangle();
        let (db, _) = crate::agm::worst_case_database(&q, 64).unwrap();
        let (out, stats) = left_deep_join(&q, &db, &Budget::ticks(20)).unwrap();
        assert!(out.is_exhausted());
        assert_eq!(stats.total_ops(), 21); // the crossing op is still recorded
    }

    #[test]
    fn cartesian_product_when_no_common_attrs() {
        let q = JoinQuery::new(vec![
            crate::query::Atom::new("R", &["a"]),
            crate::query::Atom::new("S", &["b"]),
        ]);
        let mut db = Database::new();
        db.insert(
            "R",
            crate::database::Table::from_rows(1, vec![vec![1], vec![2]]),
        );
        db.insert(
            "S",
            crate::database::Table::from_rows(1, vec![vec![7], vec![8]]),
        );
        let (ans, _) = left_deep_all(&q, &db);
        assert_eq!(ans.len(), 4);
        assert_eq!(ans, wcoj_all(&q, &db));
    }
}
