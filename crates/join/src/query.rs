//! Join queries: atoms over named attributes (paper §2.1).

use crate::Value;
use lb_graph::{Graph, Hypergraph};

/// One atom `R(a₁, …, a_r)` of a join query: a relation name and its
/// attribute list (column names, repeats allowed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Relation name, the key into the [`crate::Database`].
    pub relation: String,
    /// Attribute names in column order.
    pub attrs: Vec<String>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(relation: &str, attrs: &[&str]) -> Self {
        Atom {
            relation: relation.to_string(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A join query `R₁ ⋈ … ⋈ R_m`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinQuery {
    /// The atoms, in join order (only the set matters semantically).
    pub atoms: Vec<Atom>,
}

impl JoinQuery {
    /// Builds a query from atoms.
    ///
    /// # Panics
    /// Panics if two atoms share a relation name (self-joins must rename,
    /// e.g. `R` and `R'` both mapped to the same table by the database) or
    /// if the query has no atoms.
    pub fn new(atoms: Vec<Atom>) -> Self {
        assert!(!atoms.is_empty(), "a join query needs at least one atom");
        // lb-lint: allow(unbudgeted-loop) -- quadratic in the atom count of a parsed query, not solver search
        for (i, a) in atoms.iter().enumerate() {
            assert!(
                atoms[i + 1..].iter().all(|b| b.relation != a.relation),
                "duplicate relation name {}; alias self-joins",
                a.relation
            );
        }
        JoinQuery { atoms }
    }

    /// The attribute set A, sorted (paper: `n = |A|`).
    pub fn attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .atoms
            .iter()
            .flat_map(|a| a.attrs.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The query hypergraph: vertices are attributes (in the order of
    /// [`Self::attributes`]), one hyperedge per atom (§2.1). Returns the
    /// hypergraph and the attribute order used.
    pub fn hypergraph(&self) -> (Hypergraph, Vec<String>) {
        let attrs = self.attributes();
        #[expect(
            clippy::expect_used,
            reason = "invariant: attrs collects every attribute of every atom by construction"
        )]
        let index = |name: &str| {
            attrs
                .binary_search_by(|a| a.as_str().cmp(name))
                .expect("known attr")
        };
        let mut h = Hypergraph::new(attrs.len());
        // lb-lint: allow(unbudgeted-loop) -- hypergraph construction, linear in atoms
        for atom in &self.atoms {
            let e: Vec<usize> = atom.attrs.iter().map(|a| index(a)).collect();
            h.add_edge(e);
        }
        (h, attrs)
    }

    /// The primal graph of the query (§2.1).
    pub fn primal_graph(&self) -> (Graph, Vec<String>) {
        let (h, attrs) = self.hypergraph();
        (h.primal_graph(), attrs)
    }

    /// The triangle query `R(a,b) ⋈ S(a,c) ⋈ T(b,c)` — the paper's running
    /// example with ρ* = 3/2.
    pub fn triangle() -> Self {
        JoinQuery::new(vec![
            Atom::new("R", &["a", "b"]),
            Atom::new("S", &["a", "c"]),
            Atom::new("T", &["b", "c"]),
        ])
    }

    /// The k-cycle query: binary atoms `R_i(x_i, x_{i+1 mod k})`.
    pub fn cycle(k: usize) -> Self {
        assert!(k >= 3);
        let atoms = (0..k)
            .map(|i| Atom {
                relation: format!("R{i}"),
                attrs: vec![format!("x{i}"), format!("x{}", (i + 1) % k)],
            })
            .collect();
        JoinQuery::new(atoms)
    }

    /// The star query: `R_i(c, x_i)` for i in 1..=k.
    pub fn star(k: usize) -> Self {
        let atoms = (1..=k)
            .map(|i| Atom {
                relation: format!("R{i}"),
                attrs: vec!["c".to_string(), format!("x{i}")],
            })
            .collect();
        JoinQuery::new(atoms)
    }

    /// The k-clique query: binary atoms `E{i}_{j}(x{i}, x{j})` for every
    /// pair `i < j` — ρ* = k/2. Supported for `3 ≤ k ≤ 10` (attribute
    /// names sort lexicographically, so single digits keep the variable
    /// order numeric).
    pub fn clique(k: usize) -> Self {
        assert!((3..=10).contains(&k));
        let mut atoms = Vec::new();
        for i in 0..k {
            for j in (i + 1)..k {
                atoms.push(Atom {
                    relation: format!("E{i}_{j}"),
                    attrs: vec![format!("x{i}"), format!("x{j}")],
                });
            }
        }
        JoinQuery::new(atoms)
    }

    /// The Loomis–Whitney query LW(n): n attributes, each atom omits one.
    /// ρ* = n/(n−1); LW(3) is (an attribute-renaming of) the triangle.
    pub fn loomis_whitney(n: usize) -> Self {
        assert!(n >= 3);
        let atoms = (0..n)
            .map(|skip| Atom {
                relation: format!("R{skip}"),
                attrs: (0..n)
                    .filter(|&v| v != skip)
                    .map(|v| format!("x{v}"))
                    .collect(),
            })
            .collect();
        JoinQuery::new(atoms)
    }

    /// A full answer tuple type: values in the order of [`Self::attributes`].
    pub fn tuple_type(&self) -> Vec<String> {
        self.attributes()
    }
}

/// An answer tuple: values in [`JoinQuery::attributes`] order.
pub type AnswerTuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_shape() {
        let q = JoinQuery::triangle();
        assert_eq!(q.attributes(), vec!["a", "b", "c"]);
        let (h, attrs) = q.hypergraph();
        assert_eq!(attrs.len(), 3);
        assert_eq!(h.num_edges(), 3);
        assert!(h.is_uniform(2));
        let (g, _) = q.primal_graph();
        assert!(g.is_clique(&[0, 1, 2]));
    }

    #[test]
    fn cycle_and_star() {
        let c = JoinQuery::cycle(4);
        assert_eq!(c.attributes().len(), 4);
        assert_eq!(c.hypergraph().0.num_edges(), 4);
        let s = JoinQuery::star(3);
        assert_eq!(s.attributes().len(), 4);
    }

    #[test]
    fn clique_shape() {
        let q = JoinQuery::clique(4);
        assert_eq!(q.atoms.len(), 6); // one edge atom per pair
        assert_eq!(q.attributes(), vec!["x0", "x1", "x2", "x3"]);
        let (g, _) = q.primal_graph();
        assert!(g.is_clique(&[0, 1, 2, 3]));
        // clique(3) is the triangle up to renaming.
        assert_eq!(JoinQuery::clique(3).atoms.len(), 3);
    }

    #[test]
    fn loomis_whitney_shape() {
        let q = JoinQuery::loomis_whitney(4);
        assert_eq!(q.atoms.len(), 4);
        assert!(q.atoms.iter().all(|a| a.attrs.len() == 3));
    }

    #[test]
    #[should_panic(expected = "duplicate relation name")]
    fn duplicate_relation_rejected() {
        let _ = JoinQuery::new(vec![
            Atom::new("R", &["a", "b"]),
            Atom::new("R", &["b", "c"]),
        ]);
    }

    #[test]
    fn repeated_attribute_in_atom() {
        // R(a, a) is legal: a diagonal constraint.
        let q = JoinQuery::new(vec![Atom::new("R", &["a", "a"])]);
        assert_eq!(q.attributes(), vec!["a"]);
        let (h, _) = q.hypergraph();
        assert_eq!(h.edge(0), &[0]);
    }
}
