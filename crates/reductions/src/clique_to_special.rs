//! k-Clique → SPECIAL CSP (paper §5 and Definition 4.3).
//!
//! The paper's parameterized reduction showing SPECIAL CSP is W\[1\]-hard:
//! take the k-variable clique CSP of [`crate::clique_to_csp`] and append
//! 2^k dummy variables chained by full binary constraints, so the primal
//! graph becomes a k-clique plus a path on 2^k vertices — special. The
//! parameter grows to k + 2^k = f(k), which Definition 5.1 allows. Combined
//! with Theorem 6.3 this pins SPECIAL CSP's complexity at n^{Θ(log n)}:
//! the quasipolynomial solver (`lb-csp::solver::special`) is essentially
//! optimal under the ETH.

use lb_csp::{Constraint, CspInstance, Relation, Value};
use lb_engine::{Budget, Outcome, RunStats};
use lb_graph::Graph;
use std::sync::Arc;

/// Largest k for which the 2^k dummy path is materialized.
pub const MAX_K: usize = 20;

/// Builds the special CSP: variables 0..k are the clique variables,
/// k..k+2^k the dummy path (full binary relations over the same domain).
///
/// # Panics
/// Panics if `k < 2` (the primal graph must contain the k-clique component;
/// k ≥ 2 keeps the components separated) or `k > MAX_K`.
pub fn reduce(g: &Graph, k: usize) -> CspInstance {
    assert!(k >= 2, "need k ≥ 2 so the clique component is nontrivial");
    assert!(k <= MAX_K, "2^k dummy variables would be enormous");
    let n = g.num_vertices().max(1);
    let path_len = 1usize << k;
    let mut inst = CspInstance::new(k + path_len, n);
    // Clique part: ascending adjacency constraints, as in clique_to_csp.
    let adjacent_lt = Arc::new(Relation::from_fn(2, n, |t| {
        t[0] < t[1] && g.has_edge(t[0] as usize, t[1] as usize)
    }));
    for i in 0..k {
        for j in (i + 1)..k {
            inst.add_constraint(Constraint::new(vec![i, j], adjacent_lt.clone()));
        }
    }
    // Dummy path: full relations (every pair allowed) — they only shape the
    // primal graph.
    let full = Arc::new(Relation::full(2, n));
    for i in 0..path_len - 1 {
        inst.add_constraint(Constraint::new(vec![k + i, k + i + 1], full.clone()));
    }
    inst
}

/// Maps a special-CSP solution back to the clique vertices.
pub fn solution_back(k: usize, solution: &[Value]) -> Vec<usize> {
    solution[..k].iter().map(|&v| v as usize).collect()
}

/// Decides k-Clique through the special-CSP route, using the
/// quasipolynomial special solver: `Sat(clique)`, `Unsat`, or `Exhausted`
/// with the special solver's counters.
pub fn has_clique_via_special(
    g: &Graph,
    k: usize,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let inst = reduce(g, k);
    #[expect(
        clippy::expect_used,
        reason = "invariant: the reduction constructs a special primal graph by design"
    )]
    let (out, stats) = lb_csp::solver::special::solve_special(&inst, budget)
        .expect("reduction output must have a special primal graph");
    let out = match out {
        Outcome::Sat(result) => match result.solution {
            Some(s) => Outcome::Sat(solution_back(k, &s)),
            None => Outcome::Unsat,
        },
        Outcome::Unsat => Outcome::Unsat,
        Outcome::Exhausted(r) => Outcome::Exhausted(r),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;
    use lb_graph::special::recognize_special;
    use lb_graphalg::clique;

    #[test]
    fn output_is_special() {
        let g = generators::gnp(8, 0.5, 1);
        for k in 2..=4 {
            let inst = reduce(&g, k);
            let primal = inst.primal_graph();
            let s = recognize_special(&primal).expect("must be special");
            assert_eq!(s.k, k);
            assert_eq!(s.path.len(), 1 << k);
        }
    }

    fn via_special_u(g: &lb_graph::Graph, k: usize) -> Option<Vec<usize>> {
        has_clique_via_special(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    #[test]
    fn matches_direct_clique_search() {
        for seed in 0..10u64 {
            let g = generators::gnp(9, 0.5, seed);
            for k in 2..=4 {
                let direct = clique::find_clique(&g, k, &Budget::unlimited()).0.is_sat();
                let via = via_special_u(&g, k);
                assert_eq!(via.is_some(), direct, "seed {seed}, k {k}");
                if let Some(c) = via {
                    assert!(g.is_clique(&c), "seed {seed}, k {k}");
                }
            }
        }
    }

    #[test]
    fn tiny_budget_exhausts() {
        let g = generators::gnp(9, 0.5, 0);
        let b = Budget::ticks(0); // the very first solver op exhausts
        assert!(has_clique_via_special(&g, 3, &b).0.is_exhausted());
    }

    #[test]
    fn parameter_growth_is_f_of_k() {
        // |V'| = k + 2^k — allowed by Definition 5.1 (3).
        let g = generators::clique(5);
        let inst = reduce(&g, 4);
        assert_eq!(inst.num_vars, 4 + 16);
    }

    #[test]
    fn planted_clique_found_through_special_route() {
        let (g, _) = generators::planted_clique(12, 4, 0.2, 7);
        let c = via_special_u(&g, 4).expect("planted clique present");
        assert!(g.is_clique(&c));
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k1_rejected() {
        let g = generators::clique(3);
        let _ = reduce(&g, 1);
    }
}
