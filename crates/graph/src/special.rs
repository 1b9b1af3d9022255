//! "Special" graphs (paper Definition 4.3): a clique of size k plus a
//! disjoint path on exactly 2^k vertices.
//!
//! The paper uses this family to exhibit a (probably) NP-intermediate
//! problem: SPECIAL CSP is solvable in quasipolynomial time n^{O(log n)}
//! because the forced path inflates the input so much that k ≤ log n, yet it
//! is W\[1\]-hard by the Clique reduction of §5, and assuming the ETH it has
//! no f(|V|) · n^{o(log |V|)} algorithm (§6). This module builds and
//! recognizes the family; the quasipolynomial solver lives in
//! `lb-csp::solver::special` and the reduction in
//! `lb-reductions::clique_to_special`.

use crate::graph::Graph;

/// A recognized special graph: the clique vertices and the path vertices
/// (in path order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecialGraph {
    /// k, the clique size.
    pub k: usize,
    /// The clique component's vertices (sorted).
    pub clique: Vec<usize>,
    /// The path component's vertices, in path order (length 2^k).
    pub path: Vec<usize>,
}

/// Largest clique size for which the 2^k-vertex path is materialized.
/// Definition 4.3 is exact; this cap only guards against accidental
/// memory blow-ups in callers.
pub const MAX_SPECIAL_K: usize = 24;

/// Builds the special graph with clique size `k`: vertices `0..k` form the
/// clique and `k..k + 2^k` form the path.
///
/// # Panics
/// Panics if `k == 0` or `k > MAX_SPECIAL_K`.
pub fn special_graph(k: usize) -> Graph {
    assert!(k >= 1, "Definition 4.3 requires k >= 1");
    assert!(
        k <= MAX_SPECIAL_K,
        "special graph for k > {MAX_SPECIAL_K} would be enormous"
    );
    let path_len = 1usize << k;
    let n = k + path_len;
    let mut g = Graph::new(n);
    for i in 0..k {
        for j in (i + 1)..k {
            g.add_edge(i, j);
        }
    }
    for i in 0..path_len - 1 {
        g.add_edge(k + i, k + i + 1);
    }
    g
}

/// Recognizes whether `g` is special (Definition 4.3); returns the
/// decomposition if so.
///
/// A graph is special iff it has exactly two connected components, one a
/// clique of size k ≥ 1 and the other a path on exactly 2^k vertices.
pub fn recognize_special(g: &Graph) -> Option<SpecialGraph> {
    let comps = g.connected_components();
    if comps.len() != 2 {
        return None;
    }
    for (ci, pi) in [(0usize, 1usize), (1, 0)] {
        let cand_clique = &comps[ci];
        let cand_path = &comps[pi];
        let k = cand_clique.len();
        if k == 0 || k > MAX_SPECIAL_K {
            continue;
        }
        if !g.is_clique(cand_clique) {
            continue;
        }
        // A single vertex is both a K_1 and a path; require the *path*
        // component to have exactly 2^k vertices and be a path.
        if cand_path.len() != (1usize << k) {
            continue;
        }
        if !g.component_is_path(cand_path) {
            continue;
        }
        // Reconstruct path order: start from a degree-≤1 endpoint.
        let path = order_path(g, cand_path);
        return Some(SpecialGraph {
            k,
            clique: cand_clique.clone(),
            path,
        });
    }
    None
}

fn order_path(g: &Graph, comp: &[usize]) -> Vec<usize> {
    if comp.len() == 1 {
        return comp.to_vec();
    }
    #[expect(
        clippy::expect_used,
        reason = "invariant: a nonempty path graph has an endpoint of degree <= 1"
    )]
    let start = *comp
        .iter()
        .find(|&&v| g.degree(v) == 1)
        .expect("path has an endpoint");
    let mut order = Vec::with_capacity(comp.len());
    let mut prev = usize::MAX;
    let mut cur = start;
    loop {
        order.push(cur);
        let next = g.neighbors(cur).iter().copied().find(|&w| w != prev);
        match next {
            Some(w) => {
                prev = cur;
                cur = w;
            }
            None => break,
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_recognize() {
        for k in 1..=6 {
            let g = special_graph(k);
            assert_eq!(g.num_vertices(), k + (1 << k));
            let s = recognize_special(&g).expect("should recognize");
            assert_eq!(s.k, k);
            assert_eq!(s.clique, (0..k).collect::<Vec<_>>());
            assert_eq!(s.path.len(), 1 << k);
        }
    }

    #[test]
    fn k1_special_graph() {
        // k = 1: a K_1 plus a path on 2 vertices.
        let g = special_graph(1);
        assert_eq!(g.num_vertices(), 3);
        let s = recognize_special(&g).unwrap();
        assert_eq!(s.k, 1);
    }

    #[test]
    fn wrong_path_length_rejected() {
        // Clique of 2 + path of 3 (should be 4).
        let g = Graph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        assert!(recognize_special(&g).is_none());
    }

    #[test]
    fn three_components_rejected() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)]);
        assert!(recognize_special(&g).is_none());
    }

    #[test]
    fn cycle_component_rejected() {
        // K_2 + C_4 (cycle, not path).
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)]);
        assert!(recognize_special(&g).is_none());
    }

    #[test]
    fn path_order_is_a_path() {
        let g = special_graph(3);
        let s = recognize_special(&g).unwrap();
        for w in s.path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    use crate::graph::Graph;
}
