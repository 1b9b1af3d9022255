//! BOOLEAN JOIN QUERY: deciding answer emptiness (paper §2.1, §8).
//!
//! For the triangle query the decision problem is exactly triangle
//! detection: the Strong Triangle Conjecture (§8) says the best running
//! time in terms of the relation size N is N^{2ω/(ω+1)}. This module
//! provides the emptiness API plus the translation of a triangle-query
//! database into a tripartite graph so that `lb-graphalg`'s triangle
//! detectors (naive / matrix-multiplication / Alon–Yuster–Zwick) can run on
//! it — experiment E12 compares them against Generic Join's early exit.

use crate::database::Database;
use crate::query::JoinQuery;
use crate::wcoj::{self, JoinError};
use lb_engine::{Budget, Outcome, RunStats};
use lb_graph::Graph;
use std::collections::BTreeMap;

/// Decides whether the answer is empty, with Generic Join's early exit:
/// `Sat(is_empty)` or `Exhausted`.
#[must_use = "dropping the result discards the emptiness answer or the failure"]
pub fn is_answer_empty(
    q: &JoinQuery,
    db: &Database,
    budget: &Budget,
) -> Result<(Outcome<bool>, RunStats), JoinError> {
    wcoj::is_empty(q, db, None, budget)
}

/// Translates a **triangle query** database into a tripartite graph: one
/// vertex class per attribute (values remapped densely), one edge per tuple
/// of the corresponding relation. The answer is nonempty iff the graph has
/// a triangle with one vertex in each class — which, for a tripartite
/// graph, is just "has a triangle".
///
/// Returns the graph and, for reference, the number of vertices per class.
#[must_use = "dropping the result discards the extracted graph or the failure"]
#[expect(
    clippy::expect_used,
    reason = "invariant: validate_for checked every atom's relation and attribute name up front"
)]
pub fn triangle_database_to_graph(
    q: &JoinQuery,
    db: &Database,
) -> Result<(Graph, [usize; 3]), JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let attrs = q.attributes();
    if attrs.len() != 3 || q.atoms.len() != 3 || q.atoms.iter().any(|a| a.attrs.len() != 2) {
        return Err(JoinError::BadDatabase(
            "not a triangle query (3 attributes, 3 binary atoms)".to_string(),
        ));
    }
    // Dense value remapping per attribute.
    let mut value_ids: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new(); 3];
    let attr_idx = |name: &str| attrs.iter().position(|a| a == name).expect("validated");
    for atom in &q.atoms {
        let table = db.table(&atom.relation).expect("validated");
        let cols: Vec<usize> = atom.attrs.iter().map(|a| attr_idx(a)).collect();
        for row in table.rows() {
            for (c, &ai) in cols.iter().enumerate() {
                let next = value_ids[ai].len();
                value_ids[ai].entry(row[c]).or_insert(next);
            }
        }
    }
    let sizes = [value_ids[0].len(), value_ids[1].len(), value_ids[2].len()];
    let offset = [0, sizes[0], sizes[0] + sizes[1]];
    let n = sizes.iter().sum();
    let mut g = Graph::new(n);
    for atom in &q.atoms {
        let table = db.table(&atom.relation).expect("validated");
        let cols: Vec<usize> = atom.attrs.iter().map(|a| attr_idx(a)).collect();
        for row in table.rows() {
            let u = offset[cols[0]] + value_ids[cols[0]][&row[0]];
            let v = offset[cols[1]] + value_ids[cols[1]][&row[1]];
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v);
            }
        }
    }
    Ok((g, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Table;
    use crate::generators;

    fn empty_unlimited(q: &JoinQuery, db: &Database) -> bool {
        is_answer_empty(q, db, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    #[test]
    fn emptiness_matches_join_size() {
        for seed in 0..10u64 {
            let q = JoinQuery::triangle();
            let db = generators::random_binary_database(&q, 20, 8, seed);
            let empty = empty_unlimited(&q, &db);
            let size = wcoj::count(&q, &db, None, &Budget::unlimited())
                .unwrap()
                .0
                .unwrap_sat();
            assert_eq!(empty, size == 0, "seed {seed}");
        }
    }

    #[test]
    fn tripartite_translation_preserves_emptiness() {
        for seed in 0..10u64 {
            let q = JoinQuery::triangle();
            let db = generators::random_binary_database(&q, 15, 6, seed);
            let (g, sizes) = triangle_database_to_graph(&q, &db).unwrap();
            assert_eq!(g.num_vertices(), sizes.iter().sum::<usize>());
            // Brute-force triangle check on the tripartite graph.
            let mut has_triangle = false;
            'outer: for u in 0..g.num_vertices() {
                for v in (u + 1)..g.num_vertices() {
                    if !g.has_edge(u, v) {
                        continue;
                    }
                    for w in (v + 1)..g.num_vertices() {
                        if g.has_edge(u, w) && g.has_edge(v, w) {
                            has_triangle = true;
                            break 'outer;
                        }
                    }
                }
            }
            let empty = empty_unlimited(&q, &db);
            assert_eq!(!empty, has_triangle, "seed {seed}");
        }
    }

    #[test]
    fn non_triangle_query_rejected() {
        let q = JoinQuery::star(2);
        let mut db = Database::new();
        db.insert("R1", Table::new(2));
        db.insert("R2", Table::new(2));
        assert!(triangle_database_to_graph(&q, &db).is_err());
    }
}
