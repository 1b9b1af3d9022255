//! Acyclic join queries: GYO reduction and Yannakakis' algorithm.
//!
//! Paper §4: "if we assume, for example, that the primal graph of the query
//! is a tree (acyclic graph), then it is easy to solve the problem in
//! polynomial time". The database-theoretic form of that remark is
//! α-acyclicity: a query hypergraph is α-acyclic iff the GYO reduction
//! (repeatedly delete ear hyperedges and isolated vertices) empties it, and
//! for α-acyclic queries Yannakakis' algorithm decides emptiness — and
//! computes the full answer — in time linear in input + output, with no
//! N^{ρ*} worst case. This is the tractable boundary against which the
//! lower bounds of §6–§7 (bounded treewidth, and nothing more) push.
//!
//! Implementation: [`gyo_join_tree`] builds a join tree via GYO; the
//! Yannakakis evaluator runs a semi-join reduction sweep (up then down) and
//! then joins bottom-up, guaranteeing every intermediate stays within the
//! final output size.
//!
//! Engine mapping: each semi-join row check is a [`RunStats::propagations`]
//! tick, each probed row in the bottom-up join a [`RunStats::nodes`] tick,
//! and each materialized tuple a [`RunStats::tuples`] tick; intermediate
//! sizes land in [`RunStats::max_intermediate`] (bounded by the output for
//! a reduced instance — the property the algorithm is famous for).
//!
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::tuples`]: lb_engine::RunStats::tuples
//! [`RunStats::max_intermediate`]: lb_engine::RunStats::max_intermediate

use crate::database::{Database, Table};
use crate::query::{AnswerTuple, JoinQuery};
use crate::wcoj::JoinError;
use crate::Value;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use std::collections::{HashMap, HashSet};

/// A join tree: one node per atom, edges such that for every attribute the
/// atoms containing it form a connected subtree.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// `parent[i]` = parent atom index of atom `i`, or `usize::MAX` at the
    /// root.
    pub parent: Vec<usize>,
    /// A topological order (children before parents).
    pub order: Vec<usize>,
}

/// Tests α-acyclicity and builds a join tree via the GYO reduction.
///
/// Returns `None` if the query is cyclic (e.g. the triangle query).
pub fn gyo_join_tree(q: &JoinQuery) -> Option<JoinTree> {
    let m = q.atoms.len();
    // Attribute sets per atom.
    let attr_sets: Vec<HashSet<String>> = q
        .atoms
        .iter()
        .map(|a| a.attrs.iter().cloned().collect())
        .collect();
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent = vec![usize::MAX; m];
    let mut removal_order: Vec<usize> = Vec::with_capacity(m);

    // An attribute is *isolated* if it appears in exactly one alive atom.
    // An alive atom e is an *ear* if, after dropping isolated attributes,
    // its remaining attributes are all contained in a single other alive
    // atom w (the witness); e is removed and attached to w. Repeat.
    loop {
        let alive_count = alive.iter().filter(|&&a| a).count();
        if alive_count <= 1 {
            // Attach the last atom as the root.
            if let Some(root) = (0..m).find(|&i| alive[i]) {
                removal_order.push(root);
            }
            break;
        }
        // Attribute frequencies among alive atoms.
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for (i, s) in attr_sets.iter().enumerate() {
            if alive[i] {
                for a in s {
                    *freq.entry(a.as_str()).or_insert(0) += 1;
                }
            }
        }
        let mut progressed = false;
        'ears: for e in 0..m {
            if !alive[e] {
                continue;
            }
            let shared: HashSet<&str> = attr_sets[e]
                .iter()
                .map(|s| s.as_str())
                .filter(|a| freq[a] > 1)
                .collect();
            for w in 0..m {
                if w == e || !alive[w] {
                    continue;
                }
                if shared.iter().all(|a| attr_sets[w].contains(*a)) {
                    // e is an ear with witness w.
                    alive[e] = false;
                    parent[e] = w;
                    removal_order.push(e);
                    progressed = true;
                    break 'ears;
                }
            }
        }
        if !progressed {
            return None; // cyclic
        }
    }
    Some(JoinTree {
        parent,
        order: removal_order,
    })
}

/// True iff the query hypergraph is α-acyclic.
pub fn is_acyclic(q: &JoinQuery) -> bool {
    gyo_join_tree(q).is_some()
}

/// An annotated relation used inside Yannakakis: schema + rows.
#[derive(Clone, Debug)]
struct Ann {
    attrs: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Ann {
    fn common_positions(&self, other: &Ann) -> Vec<(usize, usize)> {
        self.attrs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| other.attrs.iter().position(|b| b == a).map(|j| (i, j)))
            .collect()
    }

    fn key(&self, row: &[Value], positions: &[(usize, usize)], use_left: bool) -> Vec<Value> {
        positions
            .iter()
            .map(|&(i, j)| row[if use_left { i } else { j }])
            .collect()
    }
}

/// Semi-join: keep the rows of `left` that join with some row of `right`.
fn semi_join(left: &mut Ann, right: &Ann, ticker: &mut Ticker) -> Result<(), ExhaustReason> {
    let common = left.common_positions(right);
    if common.is_empty() {
        if right.rows.is_empty() {
            left.rows.clear();
        }
        return Ok(());
    }
    let keys: HashSet<Vec<Value>> = right
        .rows
        .iter()
        .map(|r| common.iter().map(|&(_, j)| r[j]).collect())
        .collect();
    let mut kept = Vec::with_capacity(left.rows.len());
    for r in left.rows.drain(..) {
        ticker.propagation()?;
        let key: Vec<Value> = common.iter().map(|&(i, _)| r[i]).collect();
        if keys.contains(&key) {
            kept.push(r);
        }
    }
    left.rows = kept;
    Ok(())
}

/// Join `left ⋈ right` (hash join); output schema = left ++ (right \ left).
fn join_pair(left: &Ann, right: &Ann, ticker: &mut Ticker) -> Result<Ann, ExhaustReason> {
    let common = left.common_positions(right);
    let right_extra: Vec<usize> = (0..right.attrs.len())
        .filter(|j| !common.iter().any(|&(_, cj)| cj == *j))
        .collect();
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (ri, row) in right.rows.iter().enumerate() {
        index
            .entry(left.key(row, &common, false))
            .or_default()
            .push(ri);
    }
    let mut attrs = left.attrs.clone();
    attrs.extend(right_extra.iter().map(|&j| right.attrs[j].clone()));
    let mut rows = Vec::new();
    for lrow in &left.rows {
        ticker.node()?;
        if let Some(matches) = index.get(&left.key(lrow, &common, true)) {
            for &ri in matches {
                ticker.tuple()?;
                let mut out = lrow.clone();
                out.extend(right_extra.iter().map(|&j| right.rows[ri][j]));
                rows.push(out);
            }
        }
    }
    ticker.record_intermediate(rows.len() as u64);
    Ok(Ann { attrs, rows })
}

/// Loads annotated relations, normalizing repeated attributes.
#[expect(
    clippy::expect_used,
    reason = "invariant: validate_for checked every atom's relation before the join ran, and each a is drawn from atom.attrs"
)]
fn load_anns(q: &JoinQuery, db: &Database) -> Vec<Ann> {
    let mut anns: Vec<Ann> = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let table: &Table = db.table(&atom.relation).expect("validated");
        let mut attrs: Vec<String> = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
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
        anns.push(Ann { attrs, rows });
    }
    anns
}

/// Yannakakis' algorithm for α-acyclic full join queries: a full semi-join
/// reduction (leaves→root, then root→leaves) followed by a bottom-up join.
/// After reduction every intermediate result is no larger than the final
/// answer, so the running time is O(input + output) up to hashing.
///
/// Returns `Err` if the query is cyclic or the database malformed; budget
/// exhaustion yields [`Outcome::Exhausted`].
#[must_use = "dropping the result discards the join answers or the failure"]
pub fn yannakakis(
    q: &JoinQuery,
    db: &Database,
    budget: &Budget,
) -> Result<(Outcome<Vec<AnswerTuple>>, RunStats), JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let tree = gyo_join_tree(q).ok_or_else(|| {
        JoinError::BadDatabase("query is cyclic; Yannakakis needs an α-acyclic query".into())
    })?;
    let mut ticker = Ticker::new(budget);
    let result = yannakakis_inner(q, db, &tree, &mut ticker);
    Ok(ticker.finish(result.map(Some)))
}

#[expect(
    clippy::expect_used,
    clippy::unreachable,
    reason = "invariant: a join tree covers every attribute of the query, and tree.order always ends at the root"
)]
fn yannakakis_inner(
    q: &JoinQuery,
    db: &Database,
    tree: &JoinTree,
    ticker: &mut Ticker,
) -> Result<Vec<AnswerTuple>, ExhaustReason> {
    let mut anns = load_anns(q, db);

    // Upward semi-join sweep: children before parents (tree.order is a
    // valid child-first order by construction).
    for &e in &tree.order {
        let p = tree.parent[e];
        if p != usize::MAX {
            let child = anns[e].clone();
            semi_join(&mut anns[p], &child, ticker)?;
        }
    }
    // Downward sweep: parents before children.
    for &e in tree.order.iter().rev() {
        let p = tree.parent[e];
        if p != usize::MAX {
            let parent_ann = anns[p].clone();
            semi_join(&mut anns[e], &parent_ann, ticker)?;
        }
    }
    // Bottom-up join along the tree order.
    let mut acc: HashMap<usize, Ann> = HashMap::new();
    for &e in &tree.order {
        let own = anns[e].clone();
        let merged = match acc.remove(&e) {
            Some(partial) => join_pair(&partial, &own, ticker)?,
            None => own,
        };
        let p = tree.parent[e];
        if p == usize::MAX {
            // Root: produce the final answer.
            let attrs = q.attributes();
            let perm: Vec<usize> = attrs
                .iter()
                .map(|a| {
                    merged
                        .attrs
                        .iter()
                        .position(|x| x == a)
                        .expect("join tree covers all attributes")
                })
                .collect();
            let mut out: Vec<AnswerTuple> = merged
                .rows
                .iter()
                .map(|r| perm.iter().map(|&i| r[i]).collect())
                .collect();
            out.sort_unstable();
            out.dedup();
            return Ok(out);
        }
        match acc.remove(&p) {
            Some(existing) => {
                acc.insert(p, join_pair(&existing, &merged, ticker)?);
            }
            None => {
                acc.insert(p, merged);
            }
        }
    }
    unreachable!("tree.order always ends at the root");
}

/// Decides emptiness of an acyclic query with the upward semi-join sweep
/// only — strictly linear time, no output-size term. `Sat(is_empty)` or
/// `Exhausted`.
#[must_use = "dropping the result discards the emptiness answer or the failure"]
pub fn is_empty_acyclic(
    q: &JoinQuery,
    db: &Database,
    budget: &Budget,
) -> Result<(Outcome<bool>, RunStats), JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let tree = gyo_join_tree(q).ok_or_else(|| {
        JoinError::BadDatabase("query is cyclic; Yannakakis needs an α-acyclic query".into())
    })?;
    let mut ticker = Ticker::new(budget);
    let result = is_empty_inner(q, db, &tree, &mut ticker);
    Ok(ticker.finish(result.map(Some)))
}

#[expect(
    clippy::expect_used,
    clippy::unreachable,
    reason = "invariant: validate_for checked every atom's relation before the join ran, and tree.order always ends at the root"
)]
fn is_empty_inner(
    q: &JoinQuery,
    db: &Database,
    tree: &JoinTree,
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    let mut anns: Vec<Ann> = q
        .atoms
        .iter()
        .map(|atom| {
            let table = db.table(&atom.relation).expect("validated");
            Ann {
                attrs: atom.attrs.clone(),
                rows: table.rows().map(<[Value]>::to_vec).collect(),
            }
        })
        .collect();
    for &e in &tree.order {
        let p = tree.parent[e];
        if p != usize::MAX {
            let child = anns[e].clone();
            semi_join(&mut anns[p], &child, ticker)?;
        } else {
            return Ok(anns[e].rows.is_empty());
        }
    }
    unreachable!("order ends at the root");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::query::Atom;
    use crate::wcoj;

    fn path_query(len: usize) -> JoinQuery {
        let atoms = (0..len)
            .map(|i| Atom {
                relation: format!("R{i}"),
                attrs: vec![format!("x{i}"), format!("x{}", i + 1)],
            })
            .collect();
        JoinQuery::new(atoms)
    }

    fn yannakakis_all(q: &JoinQuery, db: &Database) -> Vec<AnswerTuple> {
        yannakakis(q, db, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    fn wcoj_all(q: &JoinQuery, db: &Database) -> Vec<AnswerTuple> {
        wcoj::join(q, db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    #[test]
    fn acyclicity_classification() {
        assert!(is_acyclic(&path_query(4)));
        assert!(is_acyclic(&JoinQuery::star(4)));
        assert!(!is_acyclic(&JoinQuery::triangle()));
        assert!(!is_acyclic(&JoinQuery::cycle(4)));
        // LW(3) is the triangle with ternary edges missing... LW(n) is
        // cyclic for all n ≥ 3.
        assert!(!is_acyclic(&JoinQuery::loomis_whitney(3)));
        // A single atom is trivially acyclic.
        assert!(is_acyclic(&JoinQuery::new(vec![Atom::new(
            "R",
            &["a", "b"]
        )])));
        // Ternary "path" R(a,b,c) ⋈ S(c,d) is acyclic.
        assert!(is_acyclic(&JoinQuery::new(vec![
            Atom::new("R", &["a", "b", "c"]),
            Atom::new("S", &["c", "d"]),
        ])));
    }

    #[test]
    fn yannakakis_matches_wcoj_on_paths() {
        for seed in 0..8u64 {
            let q = path_query(4);
            let db = generators::random_binary_database(&q, 30, 8, seed);
            let a = yannakakis_all(&q, &db);
            let b = wcoj_all(&q, &db);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn yannakakis_matches_wcoj_on_stars() {
        for seed in 0..8u64 {
            let q = JoinQuery::star(4);
            let db = generators::random_binary_database(&q, 25, 6, seed);
            assert_eq!(yannakakis_all(&q, &db), wcoj_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn yannakakis_on_mixed_arity_tree() {
        // R(a,b,c) ⋈ S(c,d) ⋈ T(d) — acyclic with mixed arities.
        let q = JoinQuery::new(vec![
            Atom::new("R", &["a", "b", "c"]),
            Atom::new("S", &["c", "d"]),
            Atom::new("T", &["d"]),
        ]);
        for seed in 0..5u64 {
            let db = generators::random_database(&q, 20, 5, seed);
            assert_eq!(yannakakis_all(&q, &db), wcoj_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn cyclic_query_rejected() {
        let q = JoinQuery::triangle();
        let db = generators::random_binary_database(&q, 10, 4, 0);
        assert!(yannakakis(&q, &db, &Budget::unlimited()).is_err());
        assert!(is_empty_acyclic(&q, &db, &Budget::unlimited()).is_err());
    }

    #[test]
    fn emptiness_sweep_agrees() {
        for seed in 0..10u64 {
            let q = path_query(5);
            let db = generators::random_binary_database(&q, 8, 6, seed);
            let empty = is_empty_acyclic(&q, &db, &Budget::unlimited())
                .unwrap()
                .0
                .unwrap_sat();
            assert_eq!(
                empty,
                wcoj::count(&q, &db, None, &Budget::unlimited())
                    .unwrap()
                    .0
                    .unwrap_sat()
                    == 0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn semijoin_reduction_bounds_intermediates() {
        // A path query where the unreduced join would blow up: every
        // relation is large but the final answer is empty because the last
        // relation shares no values.
        let q = path_query(3);
        let mut db = Database::new();
        let mut big = Table::new(2);
        for i in 0..50u64 {
            for j in 0..50u64 {
                big.push(&[i, j]);
            }
        }
        big.normalize();
        db.insert("R0", big.clone());
        db.insert("R1", big);
        let mut empty_link = Table::new(2);
        empty_link.push(&[1000, 1000]);
        empty_link.normalize();
        db.insert("R2", empty_link);
        let (out, stats) = yannakakis(&q, &db, &Budget::unlimited()).unwrap();
        assert!(out.unwrap_sat().is_empty());
        // The semi-join reduction emptied everything before any join ran.
        assert_eq!(stats.max_intermediate, 0);
        assert!(is_empty_acyclic(&q, &db, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat());
    }

    #[test]
    fn tiny_budget_exhausts() {
        let q = path_query(3);
        let db = generators::random_binary_database(&q, 30, 8, 1);
        let (out, stats) = yannakakis(&q, &db, &Budget::ticks(5)).unwrap();
        assert!(out.is_exhausted());
        assert_eq!(stats.total_ops(), 6); // the crossing op is still recorded
        let (out, _) = is_empty_acyclic(&q, &db, &Budget::ticks(5)).unwrap();
        assert!(out.is_exhausted());
    }

    #[test]
    fn repeated_attributes_handled() {
        // R(a,a) ⋈ S(a,b): acyclic; diagonal filter must apply.
        let q = JoinQuery::new(vec![
            Atom::new("R", &["a", "a"]),
            Atom::new("S", &["a", "b"]),
        ]);
        let mut db = Database::new();
        db.insert(
            "R",
            Table::from_rows(2, vec![vec![1, 1], vec![1, 2], vec![3, 3]]),
        );
        db.insert(
            "S",
            Table::from_rows(2, vec![vec![1, 7], vec![3, 8], vec![2, 9]]),
        );
        let ans = yannakakis_all(&q, &db);
        assert_eq!(ans, vec![vec![1, 7], vec![3, 8]]);
    }
}
