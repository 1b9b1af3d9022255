//! t-Dominating-Set → CSP of treewidth ≤ t, with variable grouping
//! (paper Theorem 7.2).
//!
//! The generic reduction: variables s₁…s_t (the chosen vertices, domain
//! V(G) = \[n\]) and x₁…x_n (for each graph vertex j, *which* sᵢ dominates
//! it, domain \[t\]); for every pair (i, j) the constraint
//!
//! ```text
//! R_{i,j} = {(a, b) : b ≠ i} ∪ {(a, b) : b = i, a ∈ N\[j\]}
//! ```
//!
//! forces s_{x_j} ∈ N\[j\]. The primal graph is complete bipartite
//! K_{t,n}, of treewidth ≤ t — so an O(|V|^c · |D|^{t−ε}) CSP algorithm
//! would give an O(n^{t−ε}) dominating-set algorithm, refuting the SETH by
//! Theorem 7.1.
//!
//! The paper's grouping trick is implemented too: pack the t selector
//! variables into t/g groups of g each over domain [n^g], pushing the
//! treewidth down to t/g while keeping equivalence — this is what turns
//! "no |D|^{t−ε}" into "no |D|^{k−ε} at every fixed treewidth k".

use lb_csp::{Constraint, CspInstance, Relation, Value};
use lb_engine::{Budget, Outcome, RunStats};
use lb_graph::Graph;
use std::sync::Arc;

/// The ungrouped Theorem 7.2 instance. Variables: `0..t` are s₁…s_t,
/// `t..t+n` are x₁…x_n. Domain: `max(n, t)`.
pub fn reduce(g: &Graph, t: usize) -> CspInstance {
    let n = g.num_vertices();
    assert!(t >= 1 && n >= 1);
    let domain = n.max(t);
    let mut inst = CspInstance::new(t + n, domain);
    for i in 0..t {
        for j in 0..n {
            let closed = g.closed_neighborhood(j);
            let rel = Relation::from_fn(2, domain, |tu| {
                let (a, b) = (tu[0] as usize, tu[1] as usize);
                if a >= n || b >= t {
                    return false;
                }
                b != i || closed.contains(a)
            });
            inst.add_constraint(Constraint::new(vec![i, t + j], Arc::new(rel)));
        }
    }
    inst
}

/// Maps a solution of the ungrouped instance back to the dominating set.
pub fn solution_back(t: usize, solution: &[Value]) -> Vec<usize> {
    let mut s: Vec<usize> = solution[..t].iter().map(|&v| v as usize).collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// The grouped instance: the `t` selector variables are packed into
/// `t/group_size` groups over domain `n^group_size` (the x_j variables keep
/// their meaning, re-encoded over the larger domain). Treewidth of the
/// primal graph drops to `t/group_size`.
///
/// # Panics
/// Panics unless `group_size` divides `t`, and if `n^group_size` exceeds
/// 10⁶ (the relations are materialized).
pub fn reduce_grouped(g: &Graph, t: usize, group_size: usize) -> CspInstance {
    let n = g.num_vertices();
    assert!(
        group_size >= 1 && t.is_multiple_of(group_size),
        "group size must divide t"
    );
    let k = t / group_size;
    #[expect(
        clippy::expect_used,
        reason = "documented panic: domain sizes beyond usize are unsupported on this platform"
    )]
    let domain = (n as u64)
        .checked_pow(group_size as u32)
        .expect("domain overflow") as usize;
    assert!(
        domain <= 1_000_000,
        "grouped domain too large to materialize"
    );
    let domain = domain.max(t);
    let mut inst = CspInstance::new(k + n, domain);

    // Group variable gi encodes (s_{gi·g+1}, …, s_{gi·g+g}) in base n.
    for gi in 0..k {
        for j in 0..n {
            let closed = g.closed_neighborhood(j);
            let npow = |e: usize| (n as u64).pow(e as u32);
            let rel = Relation::from_fn(2, domain, |tu| {
                let (a, b) = (tu[0] as u64, tu[1] as usize);
                if a >= npow(group_size) || b >= t {
                    return false;
                }
                // Which group does index b fall into?
                if b / group_size != gi {
                    return true;
                }
                // Decode the (b mod g)-th digit of a (base n).
                let digit = (a / npow(b % group_size)) % n as u64;
                closed.contains(digit as usize)
            });
            inst.add_constraint(Constraint::new(vec![gi, k + j], Arc::new(rel)));
        }
    }
    inst
}

/// Maps a grouped solution back to the dominating set.
#[allow(clippy::needless_range_loop)] // index used across several arrays
pub fn solution_back_grouped(
    g: &Graph,
    t: usize,
    group_size: usize,
    solution: &[Value],
) -> Vec<usize> {
    let n = g.num_vertices() as u64;
    let k = t / group_size;
    let mut out = Vec::with_capacity(t);
    for gi in 0..k {
        let mut a = solution[gi] as u64;
        for _ in 0..group_size {
            out.push((a % n) as usize);
            a /= n;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Decides t-Dominating-Set through the (ungrouped) CSP: `Sat(set)`,
/// `Unsat`, or `Exhausted` with the CSP solver's counters.
pub fn has_dominating_set_via_csp(
    g: &Graph,
    t: usize,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let inst = reduce(g, t);
    let (out, stats) = lb_csp::solver::solve(&inst, budget);
    (out.map(|s| solution_back(t, &s)), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;
    use lb_graphalg::domset;

    #[test]
    fn primal_graph_is_complete_bipartite_with_treewidth_t() {
        let g = generators::cycle(6);
        let t = 2;
        let inst = reduce(&g, t);
        let primal = inst.primal_graph();
        // K_{2,6}: every s-var adjacent to every x-var, no edges within.
        assert_eq!(primal.num_edges(), t * 6);
        assert_eq!(lb_graph::treewidth::treewidth_exact(&primal), t);
    }

    fn solve_u(inst: &CspInstance) -> Option<Vec<Value>> {
        lb_csp::solver::solve(inst, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    fn branching_sat(g: &Graph, t: usize) -> bool {
        domset::find_dominating_set_branching(g, t, &Budget::unlimited())
            .0
            .is_sat()
    }

    #[test]
    fn matches_direct_dominating_set() {
        for seed in 0..10u64 {
            let g = generators::gnp(7, 0.3, seed);
            for t in 1..=3 {
                let direct = branching_sat(&g, t);
                let via = has_dominating_set_via_csp(&g, t, &Budget::unlimited())
                    .0
                    .unwrap_decided();
                assert_eq!(via.is_some(), direct, "seed {seed}, t {t}");
                if let Some(s) = via {
                    assert!(g.is_dominating_set(&s), "seed {seed}, t {t}");
                    assert!(s.len() <= t);
                }
            }
        }
    }

    #[test]
    fn grouped_instance_equivalent() {
        for seed in 0..8u64 {
            let g = generators::gnp(6, 0.35, seed);
            let t = 2;
            let direct = branching_sat(&g, t);
            let inst = reduce_grouped(&g, t, 2);
            let sol = solve_u(&inst);
            assert_eq!(sol.is_some(), direct, "seed {seed}");
            if let Some(s) = sol {
                let ds = solution_back_grouped(&g, t, 2, &s);
                assert!(g.is_dominating_set(&ds), "seed {seed}");
                assert!(ds.len() <= t);
            }
        }
    }

    #[test]
    fn group_size_one_equals_ungrouped() {
        // With g = 1 the grouped construction must coincide with the plain
        // one up to domain padding: same satisfiability on every instance.
        for seed in 0..6u64 {
            let g = generators::gnp(5, 0.4, seed);
            let t = 2;
            let plain = reduce(&g, t);
            let grouped = reduce_grouped(&g, t, 1);
            assert_eq!(
                solve_u(&plain).is_some(),
                solve_u(&grouped).is_some(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn grouped_treewidth_drops() {
        let g = generators::cycle(5);
        let t = 2;
        // group_size = 2 → one selector variable → primal graph is a star
        // K_{1,5} of treewidth 1.
        let inst = reduce_grouped(&g, t, 2);
        let primal = inst.primal_graph();
        assert_eq!(lb_graph::treewidth::treewidth_exact(&primal), 1);
    }

    #[test]
    fn star_dominated_by_center_via_csp() {
        let g = generators::star(5);
        let s = has_dominating_set_via_csp(&g, 1, &Budget::unlimited())
            .0
            .unwrap_sat();
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn treewidth_solver_handles_the_reduction() {
        // The point of Theorem 7.2: Freuder's algorithm runs in
        // |D|^{tw+1} on these instances. Check it returns the right answer.
        let g = generators::gnp(6, 0.4, 3);
        let t = 2;
        let inst = reduce(&g, t);
        let result = lb_csp::solver::treewidth_dp::solve_auto(&inst, &Budget::unlimited())
            .0
            .unwrap_sat();
        let direct = branching_sat(&g, t);
        assert_eq!(result.solution.is_some(), direct);
        if let Some(s) = result.solution {
            assert!(g.is_dominating_set(&solution_back(t, &s)));
        }
    }

    #[test]
    fn tiny_budget_exhausts() {
        let g = generators::gnp(7, 0.3, 0);
        let b = Budget::ticks(0); // the very first solver op exhausts
        assert!(has_dominating_set_via_csp(&g, 2, &b).0.is_exhausted());
    }
}
