//! Freuder's algorithm (paper Theorem 4.2): dynamic programming over a tree
//! decomposition of the primal graph.
//!
//! Given a width-k nice decomposition, the tables have at most |D|^{k+1}
//! entries per node and the whole run costs O(|V| · |D|^{k+1}) up to
//! logarithmic factors — the bound whose exponent Theorems 6.5–6.7 (ETH)
//! and 7.2 (SETH) prove essentially optimal.
//!
//! Correctness requires every constraint scope to be contained in some bag;
//! scopes are cliques of the primal graph, so any valid tree decomposition
//! of the primal graph guarantees this. Constraints are checked at
//! *introduce* nodes whose bag contains the whole scope (each constraint is
//! checked whenever possible; re-checking is harmless and keeps the
//! bookkeeping simple).

use crate::instance::{Assignment, CspInstance, Value};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::treewidth::{NiceDecomposition, NiceNode};
use lb_graph::TreeDecomposition;
use std::collections::HashMap;

/// A DP table: bag assignment (values in sorted-bag order) → solution count
/// (saturating at `u64::MAX`).
type Table = HashMap<Vec<Value>, u64>;

/// Result of a treewidth DP run.
#[derive(Clone, Debug)]
pub struct TreewidthDpResult {
    /// Number of solutions (saturating).
    pub count: u64,
    /// One solution, if any exist.
    pub solution: Option<Assignment>,
}

/// Solves `inst` under `budget` using the given tree decomposition of its
/// primal graph: `Sat(result)` on completion (a count of zero is still
/// `Sat`) or `Exhausted`.
///
/// # Panics
/// Panics if the decomposition is invalid for the primal graph.
#[expect(
    clippy::expect_used,
    reason = "invariant: the decomposition was built from this instance's primal graph above"
)]
pub fn solve_with_decomposition(
    inst: &CspInstance,
    td: &TreeDecomposition,
    budget: &Budget,
) -> (Outcome<TreewidthDpResult>, RunStats) {
    let primal = inst.primal_graph();
    td.validate(&primal)
        .expect("tree decomposition invalid for the instance's primal graph");
    let nice = td.to_nice(inst.num_vars);
    solve_with_nice(inst, &nice, budget)
}

/// Solves `inst` with a decomposition produced by the min-fill heuristic.
pub fn solve_auto(inst: &CspInstance, budget: &Budget) -> (Outcome<TreewidthDpResult>, RunStats) {
    let primal = inst.primal_graph();
    let order = lb_graph::treewidth::min_fill_order(&primal);
    let td = lb_graph::treewidth::from_elimination_order(&primal, &order);
    solve_with_decomposition(inst, &td, budget)
}

/// Core DP over a nice decomposition. One [`RunStats::nodes`] tick per nice
/// node processed, one [`RunStats::tuples`] tick per DP table entry
/// materialized; the largest table is the [`RunStats::max_intermediate`]
/// high-water mark.
///
/// [`RunStats::nodes`]: lb_engine::RunStats::nodes
/// [`RunStats::tuples`]: lb_engine::RunStats::tuples
/// [`RunStats::max_intermediate`]: lb_engine::RunStats::max_intermediate
pub fn solve_with_nice(
    inst: &CspInstance,
    nice: &NiceDecomposition,
    budget: &Budget,
) -> (Outcome<TreewidthDpResult>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = dp_inner(inst, nice, &mut ticker).map(Some);
    ticker.finish(result)
}

/// The DP proper, with exhaustion propagated as `Err`.
#[allow(clippy::needless_range_loop)] // index used across several arrays
#[expect(
    clippy::expect_used,
    reason = "invariant: niceness puts an introduced variable in its node's bag and a forgotten one in its child's bag"
)]
fn dp_inner(
    inst: &CspInstance,
    nice: &NiceDecomposition,
    ticker: &mut Ticker,
) -> Result<TreewidthDpResult, ExhaustReason> {
    debug_assert!(nice.validate().is_ok());
    let d = inst.domain_size as Value;
    let num_nodes = nice.num_nodes();

    // For each node, the constraints to check there: at an introduce node of
    // `var`, all constraints whose scope contains `var` and fits in the bag.
    let check_at: Vec<Vec<usize>> = (0..num_nodes)
        .map(|i| match nice.kinds[i] {
            NiceNode::Introduce { var, .. } => {
                let bag = &nice.bags[i];
                inst.constraints
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| {
                        c.scope.contains(&var)
                            && c.scope.iter().all(|v| bag.binary_search(v).is_ok())
                    })
                    .map(|(ci, _)| ci)
                    .collect()
            }
            _ => Vec::new(),
        })
        .collect();

    // Bottom-up tables. Kept for the top-down solution extraction.
    let mut tables: Vec<Table> = Vec::with_capacity(num_nodes);
    for i in 0..num_nodes {
        ticker.node()?;
        let table = match nice.kinds[i] {
            NiceNode::Leaf => {
                let mut t = Table::new();
                t.insert(Vec::new(), 1);
                t
            }
            NiceNode::Introduce { child, var } => {
                let pos = nice.bags[i]
                    .binary_search(&var)
                    .expect("introduced var in bag");
                let mut t = Table::new();
                // Each (child assignment, value) pair yields a distinct
                // extended key, so plain inserts are exact.
                for (assign, &cnt) in &tables[child] {
                    for val in 0..d {
                        let mut a = assign.clone();
                        a.insert(pos, val);
                        if constraints_ok(inst, &check_at[i], &nice.bags[i], &a) {
                            ticker.tuple()?;
                            t.insert(a, cnt);
                        }
                    }
                }
                t
            }
            NiceNode::Forget { child, var } => {
                let pos = nice.bags[child]
                    .binary_search(&var)
                    .expect("forgotten var in child bag");
                let mut t = Table::new();
                for (assign, &cnt) in &tables[child] {
                    ticker.tuple()?;
                    let mut a = assign.clone();
                    a.remove(pos);
                    let entry = t.entry(a).or_insert(0);
                    *entry = entry.saturating_add(cnt);
                }
                t
            }
            NiceNode::Join { left, right } => {
                let (small, large) = if tables[left].len() <= tables[right].len() {
                    (left, right)
                } else {
                    (right, left)
                };
                let mut t = Table::new();
                for (assign, &cnt) in &tables[small] {
                    if let Some(&other) = tables[large].get(assign) {
                        ticker.tuple()?;
                        t.insert(assign.clone(), cnt.saturating_mul(other));
                    }
                }
                t
            }
        };
        ticker.record_intermediate(table.len() as u64);
        tables.push(table);
    }

    let count = tables[nice.root].get(&Vec::new()).copied().unwrap_or(0);
    let solution = (count > 0).then(|| extract_solution(inst, nice, &tables));
    Ok(TreewidthDpResult { count, solution })
}

fn constraints_ok(
    inst: &CspInstance,
    constraint_ids: &[usize],
    bag: &[usize],
    bag_assign: &[Value],
) -> bool {
    // lb-lint: allow(unbudgeted-loop) -- checks the constraints of one bag; bounded by bag size
    for &ci in constraint_ids {
        let c = &inst.constraints[ci];
        let tuple: Vec<Value> = c
            .scope
            .iter()
            .map(|v| {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: constraint scopes are subsets of their assigned node's bag"
                )]
                let pos = bag.binary_search(v).expect("scope inside bag");
                bag_assign[pos]
            })
            .collect();
        if !c.relation.allows(&tuple) {
            return false;
        }
    }
    true
}

/// Top-down extraction of one solution from the stored tables.
#[expect(
    clippy::expect_used,
    reason = "invariant: the decomposition is nice and covers every variable, so each bag search hits and a positive forget sum has a positive child entry"
)]
fn extract_solution(inst: &CspInstance, nice: &NiceDecomposition, tables: &[Table]) -> Assignment {
    let mut solution: Vec<Option<Value>> = vec![None; inst.num_vars];
    // Stack of (node, chosen bag assignment).
    let mut stack: Vec<(usize, Vec<Value>)> = vec![(nice.root, Vec::new())];
    // lb-lint: allow(unbudgeted-loop) -- walks the decomposition once to read off a solution; DP work was already charged
    while let Some((node, assign)) = stack.pop() {
        debug_assert!(tables[node].contains_key(&assign));
        match nice.kinds[node] {
            NiceNode::Leaf => {}
            NiceNode::Introduce { child, var } => {
                let pos = nice.bags[node].binary_search(&var).expect("var in bag");
                let val = assign[pos];
                match solution[var] {
                    None => solution[var] = Some(val),
                    Some(prev) => debug_assert_eq!(
                        prev, val,
                        "inconsistent value for variable {var} across branches"
                    ),
                }
                let mut child_assign = assign;
                child_assign.remove(pos);
                stack.push((child, child_assign)); // lb-lint: allow(unbounded-growth) -- solution-extraction stack: at most one entry per decomposition node
            }
            NiceNode::Forget { child, var } => {
                let pos = nice.bags[child]
                    .binary_search(&var)
                    .expect("var in child bag");
                // Find any child value with a positive count.
                let d = inst.domain_size as Value;
                let mut found = None;
                // lb-lint: allow(unbudgeted-loop) -- walks the decomposition once to read off a solution; DP work was already charged
                for val in 0..d {
                    let mut a = assign.clone();
                    a.insert(pos, val);
                    if tables[child].get(&a).copied().unwrap_or(0) > 0 {
                        found = Some(a);
                        break;
                    }
                }
                // lb-lint: allow(unbounded-growth) -- solution-extraction stack: at most one entry per decomposition node
                stack.push((
                    child,
                    found.expect("forget sum positive ⇒ some child entry positive"),
                ));
            }
            NiceNode::Join { left, right } => {
                stack.push((left, assign.clone())); // lb-lint: allow(unbounded-growth) -- solution-extraction stack: at most one entry per decomposition node
                stack.push((right, assign)); // lb-lint: allow(unbounded-growth) -- solution-extraction stack: at most one entry per decomposition node
            }
        }
    }
    let out: Assignment = solution
        .into_iter()
        .map(|v| v.expect("every variable appears in some bag"))
        .collect();
    debug_assert!(
        inst.eval(&out),
        "extracted assignment must satisfy the instance"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::instance::{Constraint, Relation};
    use crate::solver::bruteforce;
    use std::sync::Arc;

    fn solve_auto_unlimited(inst: &CspInstance) -> TreewidthDpResult {
        solve_auto(inst, &Budget::unlimited()).0.unwrap_sat()
    }

    fn brute_count(inst: &CspInstance) -> u64 {
        bruteforce::count(inst, &Budget::unlimited()).0.unwrap_sat()
    }

    #[test]
    fn path_coloring_count() {
        // Proper 3-colorings of a path on 5 vertices: 3·2^4 = 48.
        let mut inst = CspInstance::new(5, 3);
        let neq = Arc::new(Relation::disequality(3));
        for i in 0..4 {
            inst.add_constraint(Constraint::new(vec![i, i + 1], neq.clone()));
        }
        let r = solve_auto_unlimited(&inst);
        assert_eq!(r.count, 48);
        assert!(inst.eval(&r.solution.unwrap()));
    }

    #[test]
    fn triangle_with_two_colors_unsat() {
        let mut inst = CspInstance::new(3, 2);
        let neq = Arc::new(Relation::disequality(2));
        inst.add_constraint(Constraint::new(vec![0, 1], neq.clone()));
        inst.add_constraint(Constraint::new(vec![1, 2], neq.clone()));
        inst.add_constraint(Constraint::new(vec![0, 2], neq));
        let r = solve_auto_unlimited(&inst);
        assert_eq!(r.count, 0);
        assert!(r.solution.is_none());
    }

    #[test]
    fn agrees_with_bruteforce_on_random_ktree_csps() {
        for seed in 0..10u64 {
            let g = lb_graph::generators::k_tree(2, 8, seed);
            let inst = generators::random_binary_csp(&g, 3, 0.35, seed);
            let expect = brute_count(&inst);
            let got = solve_auto_unlimited(&inst);
            assert_eq!(got.count, expect, "seed {seed}");
            if expect > 0 {
                assert!(inst.eval(&got.solution.unwrap()), "seed {seed}");
            }
        }
    }

    #[test]
    fn agrees_on_sparse_random_graphs() {
        for seed in 0..10u64 {
            let g = lb_graph::generators::gnp(7, 0.4, seed);
            let inst = generators::random_binary_csp(&g, 2, 0.5, seed + 100);
            assert_eq!(
                solve_auto_unlimited(&inst).count,
                brute_count(&inst),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ternary_constraints_inside_bags() {
        // Parity constraint chain: x_i ⊕ x_{i+1} ⊕ x_{i+2} = 1.
        let mut inst = CspInstance::new(6, 2);
        let odd = Arc::new(Relation::from_fn(3, 2, |t| (t[0] + t[1] + t[2]) % 2 == 1));
        for i in 0..4 {
            inst.add_constraint(Constraint::new(vec![i, i + 1, i + 2], odd.clone()));
        }
        assert_eq!(solve_auto_unlimited(&inst).count, brute_count(&inst));
    }

    #[test]
    fn unconstrained_variables_counted() {
        // 3 variables, one binary constraint, D = 2: the free variable
        // multiplies the count by 2.
        let mut inst = CspInstance::new(3, 2);
        inst.add_constraint(Constraint::new(vec![0, 1], Arc::new(Relation::equality(2))));
        let r = solve_auto_unlimited(&inst);
        assert_eq!(r.count, 2 * 2);
    }

    #[test]
    fn explicit_decomposition() {
        let mut inst = CspInstance::new(4, 2);
        let neq = Arc::new(Relation::disequality(2));
        for i in 0..3 {
            inst.add_constraint(Constraint::new(vec![i, i + 1], neq.clone()));
        }
        let td = TreeDecomposition::new(
            vec![vec![0, 1], vec![1, 2], vec![2, 3]],
            vec![(0, 1), (1, 2)],
        );
        let (out, stats) = solve_with_decomposition(&inst, &td, &Budget::unlimited());
        let r = out.unwrap_sat();
        assert_eq!(r.count, 2); // 0101 and 1010
        assert!(stats.nodes > 0 && stats.tuples > 0);
        assert!(stats.max_intermediate >= 2);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn bad_decomposition_rejected() {
        let mut inst = CspInstance::new(3, 2);
        inst.add_constraint(Constraint::new(vec![0, 2], Arc::new(Relation::equality(2))));
        // Decomposition missing the {0,2} edge.
        let td = TreeDecomposition::new(vec![vec![0, 1], vec![1, 2]], vec![(0, 1)]);
        let _ = solve_with_decomposition(&inst, &td, &Budget::unlimited());
    }

    #[test]
    fn zero_domain_instance() {
        let mut inst = CspInstance::new(2, 0);
        inst.constraints.clear();
        let r = solve_auto_unlimited(&inst);
        assert_eq!(r.count, 0);
    }

    #[test]
    fn tiny_budget_exhausts_dp() {
        let g = lb_graph::generators::k_tree(2, 8, 3);
        let inst = generators::random_binary_csp(&g, 3, 0.35, 3);
        let (out, small) = solve_auto(&inst, &Budget::ticks(2));
        assert!(out.is_exhausted());
        let (full, big) = solve_auto(&inst, &Budget::unlimited());
        assert!(full.is_sat());
        assert!(small.le(&big));
    }
}
