//! Seeded hostile-instance generators, one per input family.
//!
//! "Hostile" means *legal but degenerate*: the shapes that break fragile
//! solver code without violating any documented precondition — empty
//! formulas, unit and duplicate clauses, tautologies, empty CSP domains,
//! empty relations, duplicate tuples, skewed join tables, repeated query
//! attributes, isolated vertices, star graphs. (Veldhuizen's leapfrog
//! triejoin paper and Ngo's WCOJ survey both call out exactly these
//! iterator edge cases.) Separate generators produce *malformed text* for
//! the ingestion layer, which must reject it with a typed error.
//!
//! Every generator is a pure function of its seed.

use crate::rng::Rng;
use lb_csp::{Constraint, CspInstance, Relation};
use lb_graph::Graph;
use lb_join::{Atom, Database, JoinQuery, Table};
use lb_sat::{CnfFormula, Lit};
use std::sync::Arc;

/// A hostile CNF formula: ≤ 10 variables (so the brute-force oracle stays
/// instant), duplicate/unit/tautological clauses encouraged.
pub fn cnf(seed: u64) -> CnfFormula {
    let mut rng = Rng::new(seed ^ 0x5a71);
    let num_vars = rng.range(1, 10) as usize;
    let num_clauses = rng.range(0, 18) as usize;
    let mut f = CnfFormula::new(num_vars);
    let mut prev: Option<Vec<Lit>> = None;
    for _ in 0..num_clauses {
        // Occasionally repeat the previous clause verbatim.
        if let Some(p) = prev.as_ref().filter(|_| rng.chance(10)) {
            f.add_clause(p.clone());
            continue;
        }
        let width = rng.range(1, 4) as usize;
        let mut clause = Vec::with_capacity(width + 1);
        for _ in 0..width {
            let var = rng.below(num_vars as u64) as usize;
            clause.push(Lit::new(var, rng.chance(50)));
        }
        // Inject a duplicate literal or a tautological pair.
        if rng.chance(20) {
            let l = *rng.pick(&clause);
            clause.push(if rng.chance(50) { l } else { l.negated() });
        }
        prev = Some(clause.clone());
        f.add_clause(clause);
    }
    f
}

/// Malformed DIMACS text: a valid serialization of [`cnf`] run through
/// 1–3 random corruptions. The parser must reject (or, rarely, still
/// accept) it — but never panic and never mis-parse.
pub fn malformed_dimacs(seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0xd1ac5);
    let mut text = cnf(seed).to_dimacs();
    for _ in 0..rng.range(1, 3) {
        text = corrupt(&mut rng, &text);
    }
    text
}

fn corrupt(rng: &mut Rng, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    match rng.below(8) {
        // Truncate at a random byte (on a char boundary).
        0 => {
            let mut cut = rng.below(text.len() as u64 + 1) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        // Drop a random line (possibly the header).
        1 if !lines.is_empty() => {
            let skip = rng.below(lines.len() as u64) as usize;
            lines
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect()
        }
        // Duplicate a random line.
        2 if !lines.is_empty() => {
            let dup = rng.below(lines.len() as u64) as usize;
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                out.push_str(l);
                out.push('\n');
                if i == dup {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        }
        // Append a garbage token, a bare `0`, or an unterminated literal.
        3 => format!("{text}{}\n", rng.pick(&["zz -1a 0", "0", "7"])),
        // Prepend a clause before the header.
        4 => format!("1 -1 0\n{text}"),
        // Replace a random digit with a non-digit.
        5 => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                format!("{text}x")
            } else {
                let at = *rng.pick(&digits);
                let mut s = text.to_string();
                // The deref pins `pick`'s element type to `&str`; without it
                // inference collapses to unsized `str`.
                #[allow(clippy::explicit_auto_deref)]
                s.replace_range(at..at + 1, *rng.pick(&["x", "-", "!", " "]));
                s
            }
        }
        // Blow up a number far past every declared range (and past u32).
        6 => {
            let huge = rng.pick(&["4294967297", "-4294967297", "99999999999999999999"]);
            let mut replaced = false;
            let out: Vec<String> = text
                .lines()
                .map(|l| {
                    if !replaced && !l.starts_with('p') && !l.trim().is_empty() {
                        replaced = true;
                        format!("{huge} {l}")
                    } else {
                        l.to_string()
                    }
                })
                .collect();
            out.join("\n") + "\n"
        }
        // Mangle the header arity.
        _ => text.replacen("p cnf", "p cnf 1", 1),
    }
}

/// A hostile CSP instance: tiny variable counts and domains (including the
/// empty domain), empty and full relations, duplicate tuples, repeated
/// scope variables.
pub fn csp(seed: u64) -> CspInstance {
    let mut rng = Rng::new(seed ^ 0xc59);
    let num_vars = rng.range(0, 5) as usize;
    // Domain 0 (every constraint trivially unsatisfiable if any variable
    // exists) and domain 1 (no choice at all) are the hostile extremes.
    let domain = rng.range(0, 3) as usize;
    let mut inst = CspInstance::new(num_vars, domain);
    if num_vars == 0 {
        return inst;
    }
    let num_constraints = rng.range(0, 6) as usize;
    for _ in 0..num_constraints {
        let arity = rng.range(1, 3) as usize;
        let scope: Vec<usize> = (0..arity)
            .map(|_| rng.below(num_vars as u64) as usize)
            .collect();
        let num_tuples = if domain == 0 { 0 } else { rng.range(0, 8) };
        let mut tuples = Vec::new();
        for _ in 0..num_tuples {
            tuples.push(
                (0..arity)
                    .map(|_| rng.below(domain as u64) as u32)
                    .collect::<Vec<u32>>(),
            );
        }
        // Duplicate tuples survive until Relation::new dedups them; an
        // empty tuple list is the always-false constraint.
        inst.add_constraint(Constraint::new(
            scope,
            Arc::new(Relation::new(arity, tuples)),
        ));
    }
    inst
}

/// A hostile graph: up to 12 vertices, with self-loops and duplicate edges
/// in the raw edge list (dropped by construction), isolated vertices, and
/// star-like skew.
pub fn graph(seed: u64) -> Graph {
    let mut rng = Rng::new(seed ^ 0x6eaf);
    let n = rng.range(0, 12) as usize;
    if n == 0 {
        return Graph::new(0);
    }
    let num_edges = rng.range(0, (n * n / 2).max(1) as u64) as usize;
    let hub = rng.below(n as u64) as usize;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let u = if rng.chance(30) {
            hub
        } else {
            rng.below(n as u64) as usize
        };
        // Self-loops (u == v) and repeats are generated on purpose.
        let v = rng.below(n as u64) as usize;
        edges.push((u, v));
    }
    Graph::from_edges(n, &edges)
}

/// A hostile join instance: 1–3 atoms over a 4-attribute pool with
/// repeated attributes (`R(x,x)` diagonals), shared relation names, empty
/// and duplicate-heavy skewed tables. With small probability the database
/// is *broken* (missing table or arity mismatch) — the solver must report
/// `JoinError`, not panic.
pub fn join_instance(seed: u64) -> (JoinQuery, Database) {
    let mut rng = Rng::new(seed ^ 0x901f);
    let attr_pool = ["a", "b", "c", "d"];
    // Relation names must be distinct per atom (self-joins are aliased in
    // this workspace), so they are indexed, not drawn from a pool.
    let rel_pool = ["R", "S", "T"];
    let num_atoms = rng.range(1, 3) as usize;
    let mut atoms = Vec::with_capacity(num_atoms);
    for name in rel_pool.iter().take(num_atoms) {
        let arity = rng.range(1, 3) as usize;
        let attrs: Vec<&str> = (0..arity).map(|_| *rng.pick(&attr_pool)).collect();
        atoms.push(Atom::new(name, &attrs));
    }
    let q = JoinQuery::new(atoms);
    let mut db = Database::new();
    for atom in &q.atoms {
        let mut arity = atom.attrs.len();
        if rng.chance(3) {
            // Arity mismatch: must surface as JoinError::BadDatabase.
            arity += 1;
        }
        if rng.chance(3) {
            // Missing table: likewise.
            continue;
        }
        let num_rows = rng.range(0, 10) as usize;
        let mut rows = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            // Skew: value 0 is heavily over-represented.
            rows.push(
                (0..arity)
                    .map(|_| if rng.chance(40) { 0 } else { rng.below(4) })
                    .collect::<Vec<u64>>(),
            );
        }
        db.insert(&atom.relation, Table::from_rows(arity, rows));
    }
    (q, db)
}

/// A hostile *skewed* join instance: two or three atoms sharing the
/// attribute `a`, with heavy-hitter (Zipf-like) tables — value 0 carries
/// ~40% of the mass, and each table seeds four distinct leading values so
/// the first variable's intersection is a *heavy* block (the WCOJ
/// heavy/light threshold floors at 4). Always well-formed — the
/// broken-database legs stay with [`join_instance`] — and small enough
/// (≤ 12 rows, domain ≤ 6) that the nested-loop oracle stays cheap.
pub fn skewed_join_instance(seed: u64) -> (JoinQuery, Database) {
    let mut rng = Rng::new(seed ^ 0x5fe1);
    let tail_pool = ["b", "c", "d"];
    let mut atoms = vec![
        Atom::new("R", &["a", *rng.pick(&tail_pool)]),
        Atom::new("S", &["a", *rng.pick(&tail_pool)]),
    ];
    if rng.chance(50) {
        let x = *rng.pick(&tail_pool);
        let y = *rng.pick(&tail_pool);
        atoms.push(Atom::new("T", &[x, y]));
    }
    let q = JoinQuery::new(atoms);
    let mut db = Database::new();
    for atom in &q.atoms {
        let arity = atom.attrs.len();
        let mut rows: Vec<Vec<u64>> = Vec::new();
        // Four distinct leading values guarantee the first variable's
        // range clears the heavy threshold in every participant.
        for lead in 0..4u64 {
            rows.push(
                (0..arity)
                    .map(|col| if col == 0 { lead } else { rng.below(6) })
                    .collect(),
            );
        }
        let extra = rng.range(4, 8) as usize;
        for _ in 0..extra {
            // Zipf-ish: the hub value 0 is heavily over-represented.
            rows.push(
                (0..arity)
                    .map(|_| if rng.chance(40) { 0 } else { rng.below(6) })
                    .collect::<Vec<u64>>(),
            );
        }
        db.insert(&atom.relation, Table::from_rows(arity, rows));
    }
    (q, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(cnf(9).to_dimacs(), cnf(9).to_dimacs());
        assert_eq!(malformed_dimacs(9), malformed_dimacs(9));
        assert_eq!(csp(9).size(), csp(9).size());
        assert_eq!(graph(9).edges(), graph(9).edges());
        let (q1, _) = join_instance(9);
        let (q2, _) = join_instance(9);
        assert_eq!(q1.atoms.len(), q2.atoms.len());
        let (q3, db3) = skewed_join_instance(9);
        let (q4, db4) = skewed_join_instance(9);
        assert_eq!(q3.atoms.len(), q4.atoms.len());
        assert_eq!(db3.max_table_size(), db4.max_table_size());
    }

    #[test]
    fn skewed_join_instances_clear_the_heavy_threshold() {
        for seed in 0..100u64 {
            let (q, db) = skewed_join_instance(seed);
            db.validate_for(&q).expect("always well-formed");
            // R and S share `a` as their first attribute, and each table
            // holds at least four distinct leading values — the floor of
            // the WCOJ heavy threshold — so the first variable's
            // intersection runs in leapfrog (heavy) mode.
            for name in ["R", "S"] {
                let t = db.table(name).expect("present");
                let mut leads: Vec<u64> = t.rows().map(|r| r[0]).collect();
                leads.sort_unstable();
                leads.dedup();
                assert!(leads.len() >= 4, "seed {seed}: {name} lead width");
            }
        }
    }

    #[test]
    fn generators_cover_degenerate_shapes() {
        let mut saw_empty_cnf = false;
        let mut saw_unit = false;
        let mut saw_domain0 = false;
        let mut saw_empty_graph = false;
        for seed in 0..200 {
            saw_empty_cnf |= cnf(seed).num_clauses() == 0;
            saw_unit |= cnf(seed).clauses().iter().any(|c| c.len() == 1);
            saw_domain0 |= csp(seed).domain_size == 0;
            saw_empty_graph |= graph(seed).num_vertices() == 0;
        }
        assert!(saw_empty_cnf && saw_unit && saw_domain0 && saw_empty_graph);
    }
}
