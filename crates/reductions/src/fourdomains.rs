//! The four-domain translations of paper §2: join queries ⇄ CSP ⇄
//! partitioned subgraph isomorphism ⇄ relational structures.
//!
//! These are the semantic bridges that let results proved in one language
//! (e.g. CSP lower bounds) speak about another (e.g. Boolean join queries).
//! Each translation preserves the solution set exactly, which the tests
//! verify by counting solutions on both sides.

use lb_csp::{Constraint, CspInstance, Relation, Value};
use lb_graph::Graph;
use lb_join::{Atom, Database, JoinQuery, Table};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Join query + database → CSP (paper §2.2): attributes become variables,
/// the active domain becomes the CSP domain (densely remapped), each atom
/// becomes one constraint whose relation is the table.
///
/// Returns the instance plus the value decoding table (`values[d]` = the
/// original database value of CSP value `d`), so solutions map back to
/// answer tuples.
#[must_use = "dropping the result discards the reduced instance or the failure"]
#[expect(
    clippy::expect_used,
    reason = "invariant: join_to_csp validated the database against the query up front, so every atom's relation exists and its attributes are in the collected set"
)]
pub fn join_to_csp(q: &JoinQuery, db: &Database) -> Result<(CspInstance, Vec<u64>), String> {
    db.validate_for(q)?;
    let attrs = q.attributes();
    // Active domain.
    let mut value_id: BTreeMap<u64, Value> = BTreeMap::new();
    for atom in &q.atoms {
        for row in db.table(&atom.relation).expect("validated").rows() {
            for &v in row {
                let next = value_id.len() as Value;
                value_id.entry(v).or_insert(next);
            }
        }
    }
    let values: Vec<u64> = {
        let mut v: Vec<(u64, Value)> = value_id.iter().map(|(&k, &i)| (k, i)).collect();
        v.sort_by_key(|&(_, i)| i);
        v.into_iter().map(|(k, _)| k).collect()
    };
    let domain = values.len().max(1);

    let mut inst = CspInstance::new(attrs.len(), domain);
    for atom in &q.atoms {
        let scope: Vec<usize> = atom
            .attrs
            .iter()
            .map(|a| attrs.binary_search(a).expect("attribute known"))
            .collect();
        let tuples: Vec<Vec<Value>> = db
            .table(&atom.relation)
            .expect("validated")
            .rows()
            .map(|row| row.iter().map(|v| value_id[v]).collect())
            .collect();
        inst.add_constraint(Constraint::new(
            scope,
            Arc::new(Relation::new(atom.attrs.len(), tuples)),
        ));
    }
    Ok((inst, values))
}

/// Decodes a CSP solution back into an answer tuple (attribute order =
/// [`JoinQuery::attributes`]).
pub fn csp_solution_to_answer(values: &[u64], solution: &[Value]) -> Vec<u64> {
    solution.iter().map(|&d| values[d as usize]).collect()
}

/// CSP → join query + database (paper §2.2, reverse direction): variable i
/// becomes attribute `x{i}`, constraint j becomes relation `C{j}` whose
/// table is the constraint relation.
pub fn csp_to_join(inst: &CspInstance) -> (JoinQuery, Database) {
    let mut atoms = Vec::with_capacity(inst.constraints.len());
    let mut db = Database::new();
    for (j, c) in inst.constraints.iter().enumerate() {
        let name = format!("C{j}");
        let attr_names: Vec<String> = c.scope.iter().map(|&v| format!("x{v:04}")).collect();
        atoms.push(Atom {
            relation: name.clone(),
            attrs: attr_names,
        });
        let rows: Vec<Vec<u64>> = c
            .relation
            .tuples()
            .iter()
            .map(|t| t.iter().map(|&x| x as u64).collect())
            .collect();
        db.insert(&name, Table::from_rows(c.scope.len(), rows));
    }
    (JoinQuery::new(atoms), db)
}

/// Binary CSP → partitioned subgraph isomorphism (paper §2.3): the host
/// graph has a vertex w_{v,d} per (variable, value), edges follow the
/// allowed pairs of each constraint, classes partition by variable, and the
/// pattern is the primal graph.
///
/// Returns `(pattern, host, classes)`; a partitioned subgraph isomorphic to
/// the pattern corresponds exactly to a CSP solution.
///
/// # Panics
/// Panics unless the instance is binary with no repeated scope variables.
#[allow(clippy::needless_range_loop)] // index used across several arrays
pub fn binary_csp_to_partitioned_subiso(inst: &CspInstance) -> (Graph, Graph, Vec<Vec<usize>>) {
    assert!(inst.is_binary(), "translation needs a binary CSP");
    assert!(
        inst.constraints.iter().all(|c| c.scope[0] != c.scope[1]),
        "repeated scope variables not supported"
    );
    let nv = inst.num_vars;
    let d = inst.domain_size;
    let host_vertex = |v: usize, val: usize| v * d + val;
    let mut host = Graph::new(nv * d);
    // Merge allowed pairs per variable pair (multiple constraints on the
    // same pair intersect).
    let mut allowed: BTreeMap<(usize, usize), Vec<Vec<bool>>> = BTreeMap::new();
    for c in &inst.constraints {
        let (u, v) = (c.scope[0], c.scope[1]);
        let (u, v, flip) = if u < v { (u, v, false) } else { (v, u, true) };
        let entry = allowed
            .entry((u, v))
            .or_insert_with(|| vec![vec![true; d]; d]);
        for a in 0..d {
            let row = &mut entry[a];
            for (b, slot) in row.iter_mut().enumerate() {
                let t = if flip {
                    [b as Value, a as Value]
                } else {
                    [a as Value, b as Value]
                };
                if !c.relation.allows(&t) {
                    *slot = false;
                }
            }
        }
    }
    for (&(u, v), grid) in &allowed {
        for a in 0..d {
            for b in 0..d {
                if grid[a][b] {
                    host.add_edge(host_vertex(u, a), host_vertex(v, b));
                }
            }
        }
    }
    let pattern = inst.primal_graph();
    let classes: Vec<Vec<usize>> = (0..nv)
        .map(|v| (0..d).map(|val| host_vertex(v, val)).collect())
        .collect();
    (pattern, host, classes)
}

/// Decodes a partitioned-subgraph mapping back to a CSP assignment.
pub fn subiso_solution_to_assignment(domain_size: usize, f: &[usize]) -> Vec<Value> {
    f.iter().map(|&w| (w % domain_size) as Value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_csp::solver::bruteforce;
    use lb_engine::Budget;
    use lb_graphalg::subiso::partitioned_subgraph_iso;
    use lb_join::{generators as jgen, wcoj};

    fn csp_count(inst: &CspInstance) -> u64 {
        bruteforce::count(inst, &Budget::unlimited()).0.unwrap_sat()
    }

    fn join_count(q: &JoinQuery, db: &Database) -> u64 {
        wcoj::count(q, db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    #[test]
    fn join_to_csp_counts_match() {
        for seed in 0..8u64 {
            let q = JoinQuery::triangle();
            let db = jgen::random_binary_database(&q, 25, 7, seed);
            let (inst, _) = join_to_csp(&q, &db).unwrap();
            assert_eq!(csp_count(&inst), join_count(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn join_to_csp_solution_decodes_to_answer() {
        let q = JoinQuery::triangle();
        let db = jgen::planted_triangle_database(12, 50, 4);
        let (inst, values) = join_to_csp(&q, &db).unwrap();
        let sol = lb_csp::solver::solve(&inst, &Budget::unlimited())
            .0
            .unwrap_decided()
            .expect("planted");
        let answer = csp_solution_to_answer(&values, &sol);
        let all = wcoj::join(&q, &db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        assert!(all.contains(&answer));
    }

    #[test]
    fn csp_to_join_roundtrip_counts() {
        for seed in 0..6u64 {
            let g = lb_graph::generators::gnp(5, 0.5, seed);
            let inst = lb_csp::generators::random_binary_csp(&g, 3, 0.3, seed);
            if inst.constraints.is_empty() {
                continue;
            }
            let (q, db) = csp_to_join(&inst);
            // Variables not in any constraint vanish from the query; only
            // compare when all variables are constrained.
            let attrs = q.attributes();
            if attrs.len() != inst.num_vars {
                continue;
            }
            assert_eq!(join_count(&q, &db), csp_count(&inst), "seed {seed}");
        }
    }

    #[test]
    fn binary_csp_to_subiso_preserves_satisfiability() {
        for seed in 0..10u64 {
            let g = lb_graph::generators::gnp(5, 0.6, seed);
            let inst = lb_csp::generators::random_binary_csp(&g, 3, 0.4, seed);
            if inst.constraints.is_empty() {
                continue;
            }
            let (pattern, host, classes) = binary_csp_to_partitioned_subiso(&inst);
            let direct = lb_csp::solver::solve(&inst, &Budget::unlimited()).0;
            let via = partitioned_subgraph_iso(&pattern, &host, &classes, &Budget::unlimited())
                .0
                .unwrap_decided();
            assert_eq!(via.is_some(), direct.is_sat(), "seed {seed}");
            if let Some(f) = via {
                let assignment = subiso_solution_to_assignment(inst.domain_size, &f);
                assert!(inst.eval(&assignment), "seed {seed}");
            }
        }
    }

    #[test]
    fn four_way_roundtrip_triangle() {
        // query → CSP → structures → CSP: solution counts agree everywhere.
        let q = JoinQuery::triangle();
        let db = jgen::random_binary_database(&q, 20, 6, 11);
        let (inst, _) = join_to_csp(&q, &db).unwrap();
        let (_, a, b) = lb_structure::convert::csp_to_structures(&inst);
        let hom_count = lb_structure::hom::count_homomorphisms(&a, &b, &Budget::unlimited())
            .0
            .unwrap_sat();
        let back = lb_structure::convert::structures_to_csp(&a, &b);
        assert_eq!(hom_count, csp_count(&inst));
        assert_eq!(csp_count(&back), csp_count(&inst));
        assert_eq!(join_count(&q, &db), hom_count);
    }
}
