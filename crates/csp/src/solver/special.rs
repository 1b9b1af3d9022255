//! Quasipolynomial solver for "special" CSP instances (Definition 4.3).
//!
//! A special instance has a primal graph that is a k-clique plus a disjoint
//! path on 2^k vertices. The path forces the input size n ≥ 2^k, hence
//! k ≤ log₂ n, so brute-forcing the clique part costs |D|^k ≤ |D|^{log n} =
//! n^{O(log n)} while the path part is solved by a linear dynamic program.
//! The paper argues this n^{O(log n)} running time is essentially optimal
//! under the ETH (§6), making SPECIAL CSP a natural NP-intermediate
//! candidate — experiment E5 measures this solver's quasipolynomial curve.

use crate::instance::{Assignment, Constraint, CspInstance, Value};
use crate::solver::bruteforce;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::special::{recognize_special, SpecialGraph};

/// Result of a special-CSP solve.
#[derive(Clone, Debug)]
pub struct SpecialResult {
    /// Number of solutions (saturating).
    pub count: u64,
    /// One solution, if any.
    pub solution: Option<Assignment>,
}

/// Error: the instance's primal graph is not special.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotSpecial;

impl std::fmt::Display for NotSpecial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "primal graph is not special (Definition 4.3)")
    }
}

impl std::error::Error for NotSpecial {}

/// Solves a special CSP instance in n^{O(log n)} time under `budget`:
/// `Sat(result)` on completion (a count of zero is still `Sat`) or
/// `Exhausted`. The clique part delegates to the budgeted brute force and
/// folds its counters in; the path DP ticks one [`RunStats::tuples`] per DP
/// cell.
///
/// Returns `Err(NotSpecial)` if the primal graph is not a k-clique plus a
/// 2^k-vertex path.
///
/// [`RunStats::tuples`]: lb_engine::RunStats::tuples
#[must_use = "the result carries both the solution and the reason the instance is not special"]
pub fn solve_special(
    inst: &CspInstance,
    budget: &Budget,
) -> Result<(Outcome<SpecialResult>, RunStats), NotSpecial> {
    let primal = inst.primal_graph();
    let SpecialGraph { clique, path, .. } = recognize_special(&primal).ok_or(NotSpecial)?;
    let mut ticker = Ticker::new(budget);

    // Constraint scopes are cliques of the primal graph, so each constraint
    // lives entirely inside one component.
    let clique_sub = induced_subinstance(inst, &clique);
    let path_sub = induced_subinstance(inst, &path);

    // Clique part: brute force over |D|^k assignments (k ≤ log₂ n).
    let (clique_count_out, sub_stats) =
        bruteforce::count(&clique_sub.instance, &ticker.remaining_budget());
    ticker.absorb(&sub_stats);
    let clique_count = match clique_count_out {
        Outcome::Sat(c) => c,
        Outcome::Unsat => 0,
        Outcome::Exhausted(reason) => return Ok(ticker.finish(Err(reason))),
    };
    let (clique_solution_out, sub_stats) =
        bruteforce::solve(&clique_sub.instance, &ticker.remaining_budget());
    ticker.absorb(&sub_stats);
    let clique_solution = match clique_solution_out {
        Outcome::Sat(s) => Some(s),
        Outcome::Unsat => None,
        Outcome::Exhausted(reason) => return Ok(ticker.finish(Err(reason))),
    };

    // Path part: linear DP.
    let (path_count, path_solution) = match path_dp(&path_sub.instance, &mut ticker) {
        Ok(r) => r,
        Err(reason) => return Ok(ticker.finish(Err(reason))),
    };

    let count = clique_count.saturating_mul(path_count);
    let solution = match (clique_solution, path_solution) {
        (Some(cs), Some(ps)) => {
            let mut full: Assignment = vec![0; inst.num_vars];
            // lb-lint: allow(unbudgeted-loop) -- copies one solution through the variable map; linear in vars
            for (local, &global) in clique_sub.vars.iter().enumerate() {
                full[global] = cs[local];
            }
            // lb-lint: allow(unbudgeted-loop) -- copies one solution through the variable map; linear in vars
            for (local, &global) in path_sub.vars.iter().enumerate() {
                full[global] = ps[local];
            }
            debug_assert!(inst.eval(&full));
            Some(full)
        }
        _ => None,
    };
    Ok(ticker.finish(Ok(Some(SpecialResult { count, solution }))))
}

struct SubInstance {
    instance: CspInstance,
    /// `vars[local]` = global variable id. Local order follows `vars`.
    vars: Vec<usize>,
}

/// The sub-instance induced on `vars` (local ids follow the order of
/// `vars`), taking every constraint whose scope lies inside `vars`.
fn induced_subinstance(inst: &CspInstance, vars: &[usize]) -> SubInstance {
    let mut local_of = vec![usize::MAX; inst.num_vars];
    // lb-lint: allow(unbudgeted-loop) -- builds the induced subinstance; linear in instance size
    for (l, &g) in vars.iter().enumerate() {
        local_of[g] = l;
    }
    let mut sub = CspInstance::new(vars.len(), inst.domain_size);
    // lb-lint: allow(unbudgeted-loop) -- builds the induced subinstance; linear in instance size
    for c in &inst.constraints {
        if c.scope.iter().all(|&v| local_of[v] != usize::MAX) {
            let scope: Vec<usize> = c.scope.iter().map(|&v| local_of[v]).collect();
            sub.add_constraint(Constraint::new(scope, c.relation.clone()));
        }
    }
    SubInstance {
        instance: sub,
        vars: vars.to_vec(),
    }
}

/// Counting DP along a path instance whose variables are `0..len` in path
/// order: constraints are unary or between consecutive variables.
/// Returns (count, one solution).
#[allow(clippy::needless_range_loop)] // index used across several arrays
#[expect(
    clippy::expect_used,
    reason = "invariant: count > 0 here, so some frequency entry is positive, and the DP backtrace only visits reachable states, which record a parent"
)]
fn path_dp(
    inst: &CspInstance,
    ticker: &mut Ticker,
) -> Result<(u64, Option<Assignment>), ExhaustReason> {
    let len = inst.num_vars;
    let d = inst.domain_size;
    if len == 0 {
        return Ok((1, Some(vec![])));
    }
    if d == 0 {
        return Ok((0, None));
    }
    // Collect, per position, the unary predicates; per consecutive pair, the
    // binary predicates (normalized to (i, i+1) direction).
    let allowed_unary = |i: usize, v: Value| -> bool {
        inst.constraints.iter().all(|c| {
            if c.scope.iter().all(|&s| s == i) {
                let t: Vec<Value> = c.scope.iter().map(|_| v).collect();
                c.relation.allows(&t)
            } else {
                true
            }
        })
    };
    let allowed_pair = |i: usize, a: Value, b: Value| -> bool {
        // Constraints whose scope is exactly {i, i+1} (any order/repeats of
        // both vars).
        inst.constraints.iter().all(|c| {
            let uses_both = c.scope.contains(&i) && c.scope.contains(&(i + 1));
            if !uses_both {
                return true;
            }
            let t: Vec<Value> = c
                .scope
                .iter()
                .map(|&s| if s == i { a } else { b })
                .collect();
            c.relation.allows(&t)
        })
    };

    let mut f = vec![0u64; d];
    // lb-lint: allow(unbudgeted-loop) -- path DP is a fixed O(len*d^2) pass, bounded by instance size
    for (v, slot) in f.iter_mut().enumerate() {
        *slot = allowed_unary(0, v as Value) as u64;
    }
    // Parent pointers for solution extraction: choice[i][v] = some value of
    // position i−1 compatible with v at i.
    let mut choice: Vec<Vec<Option<Value>>> = Vec::with_capacity(len);
    choice.push(vec![None; d]);
    for i in 1..len {
        let mut g = vec![0u64; d];
        let mut ch = vec![None; d];
        for b in 0..d {
            ticker.tuple()?;
            if !allowed_unary(i, b as Value) {
                continue;
            }
            // lb-lint: allow(unbudgeted-loop) -- path DP is a fixed O(len*d^2) pass, bounded by instance size
            for a in 0..d {
                if f[a] > 0 && allowed_pair(i - 1, a as Value, b as Value) {
                    g[b] = g[b].saturating_add(f[a]);
                    if ch[b].is_none() {
                        ch[b] = Some(a as Value);
                    }
                }
            }
        }
        f = g;
        choice.push(ch); // lb-lint: allow(unbounded-growth) -- parent-pointer table of the path DP: exactly len rows, bounded by instance size
    }
    let count: u64 = f.iter().fold(0u64, |acc, &x| acc.saturating_add(x));
    if count == 0 {
        return Ok((0, None));
    }
    // Trace one solution backwards.
    let mut sol = vec![0 as Value; len];
    let last = f.iter().position(|&x| x > 0).expect("count > 0");
    sol[len - 1] = last as Value;
    // lb-lint: allow(unbudgeted-loop) -- path DP is a fixed O(len*d^2) pass, bounded by instance size
    for i in (1..len).rev() {
        sol[i - 1] = choice[i][sol[i] as usize].expect("reachable state has a parent");
    }
    Ok((count, Some(sol)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::instance::Relation;
    use crate::solver::bruteforce;
    use std::sync::Arc;

    #[test]
    fn random_special_instances_match_bruteforce() {
        for seed in 0..8u64 {
            // k = 3 → path of 8, total 11 variables; D = 2 keeps brute
            // force at 2^11.
            let inst = generators::random_special_csp(3, 2, 0.3, seed);
            let (out, _) = solve_special(&inst, &Budget::unlimited()).unwrap();
            let got = out.unwrap_sat();
            let expect = bruteforce::count(&inst, &Budget::unlimited())
                .0
                .unwrap_sat();
            assert_eq!(got.count, expect, "seed {seed}");
            if expect > 0 {
                assert!(inst.eval(&got.solution.unwrap()));
            }
        }
    }

    #[test]
    fn non_special_rejected() {
        let g = lb_graph::generators::cycle(5);
        let inst = generators::random_binary_csp(&g, 2, 0.2, 1);
        assert_eq!(
            solve_special(&inst, &Budget::unlimited()).unwrap_err(),
            NotSpecial
        );
    }

    #[test]
    fn unsat_clique_part() {
        // k = 2 clique with disequality over domain of 1: unsatisfiable;
        // path of 4 with no constraints.
        let mut inst = generators::special_csp_skeleton(2, 1);
        inst.add_constraint(crate::instance::Constraint::new(
            vec![0, 1],
            Arc::new(Relation::disequality(1)),
        ));
        let got = solve_special(&inst, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        assert_eq!(got.count, 0);
        assert!(got.solution.is_none());
    }

    #[test]
    fn path_dp_counts_colorings() {
        // Stand-alone path DP check through the public API: a special
        // instance with an unconstrained clique and disequality path.
        let k = 2; // path length 4
        let mut inst = generators::special_csp_skeleton(k, 3);
        let neq = Arc::new(Relation::disequality(3));
        // Path vertices are k..k+4 in order.
        for i in 0..3 {
            inst.add_constraint(crate::instance::Constraint::new(
                vec![k + i, k + i + 1],
                neq.clone(),
            ));
        }
        let got = solve_special(&inst, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        // Clique part: skeleton uses full relations: 3^2 = 9 assignments;
        // path: 3·2·2·2 = 24 colorings.
        assert_eq!(got.count, 9 * 24);
    }

    #[test]
    fn tiny_budget_exhausts_special() {
        let inst = generators::random_special_csp(3, 2, 0.3, 0);
        let (out, _) = solve_special(&inst, &Budget::ticks(1)).unwrap();
        assert!(out.is_exhausted());
    }
}
