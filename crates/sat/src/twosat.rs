//! Linear-time 2SAT via implication-graph SCCs.
//!
//! The polynomial-time case the paper contrasts with 3SAT in §4: with
//! |D| = 2 and binary constraints, CSP degenerates to 2SAT. Each 2-clause
//! (a ∨ b) contributes implications ¬a → b and ¬b → a; the formula is
//! satisfiable iff no variable shares an SCC with its negation, and a model
//! is read off the reverse topological order of the condensation.
//!
//! Engine mapping: each implication arc added is a
//! [`RunStats::propagations`] tick; each variable resolved against the
//! condensation is a [`RunStats::nodes`] tick.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::cnf::{CnfFormula, Lit};
use lb_engine::{Budget, Outcome, RunStats, Ticker};
use lb_graph::DiGraph;

/// Solves a 2SAT formula under `budget`: `Sat(model)`, `Unsat`, or
/// `Exhausted`.
///
/// # Panics
/// Panics if some clause has more than 2 literals.
#[allow(clippy::needless_range_loop)] // index used across several arrays
pub fn solve_2sat(f: &CnfFormula, budget: &Budget) -> (Outcome<Vec<bool>>, RunStats) {
    assert!(f.is_ksat(2), "solve_2sat requires clauses of width ≤ 2");
    let n = f.num_vars();
    let mut ticker = Ticker::new(budget);
    let mut g = DiGraph::new(2 * n);
    for clause in f.clauses() {
        if let Err(reason) = ticker.propagation() {
            return ticker.finish(Err(reason));
        }
        match clause.as_slice() {
            [a] => {
                // Unit clause (a): ¬a → a.
                g.add_arc(a.negated().code(), a.code());
            }
            [a, b] => {
                g.add_arc(a.negated().code(), b.code());
                g.add_arc(b.negated().code(), a.code());
            }
            #[expect(
                clippy::unreachable,
                reason = "invariant: clause width was checked to be <= 2 above"
            )]
            _ => unreachable!("width checked above"),
        }
    }
    let scc = g.tarjan_scc();
    let mut model = vec![false; n];
    #[expect(
        clippy::indexing_slicing,
        reason = "literal codes are < 2n, the graph size, and v ranges over 0..n = model.len()"
    )]
    for v in 0..n {
        if let Err(reason) = ticker.node() {
            return ticker.finish(Err(reason));
        }
        let pos = scc.comp[Lit::pos(v).code()];
        let neg = scc.comp[Lit::neg(v).code()];
        if pos == neg {
            return ticker.finish(Ok(None));
        }
        // Tarjan numbers components in reverse topological order, so the
        // literal whose component index is *smaller* is "later" in
        // topological order and must be set true.
        model[v] = pos < neg;
    }
    debug_assert!(f.eval(&model), "2SAT model must satisfy the formula");
    ticker.finish(Ok(Some(model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::cnf::Lit;
    use crate::generators;

    fn l(v: i64) -> Lit {
        Lit::new(v.unsigned_abs() as usize - 1, v > 0)
    }

    #[test]
    fn satisfiable_chain() {
        // (x1 ∨ x2) ∧ (¬x2 ∨ x3) ∧ (¬x1)
        let f = CnfFormula::from_clauses(3, vec![vec![l(1), l(2)], vec![l(-2), l(3)], vec![l(-1)]]);
        let m = solve_2sat(&f, &Budget::unlimited()).0.unwrap_sat();
        assert!(f.eval(&m));
        assert!(!m[0] && m[1] && m[2]);
    }

    #[test]
    fn unsatisfiable_pair() {
        // (x1 ∨ x1) ∧ (¬x1 ∨ ¬x1)
        let f = CnfFormula::from_clauses(1, vec![vec![l(1)], vec![l(-1)]]);
        assert!(solve_2sat(&f, &Budget::unlimited()).0.is_unsat());
    }

    #[test]
    fn classic_unsat_square() {
        // x1≠x2, x2≠x3, x3≠x1 (odd anti-cycle) is unsatisfiable:
        // encode x≠y as (x∨y) ∧ (¬x∨¬y).
        let ne = |a: i64, b: i64| vec![vec![l(a), l(b)], vec![l(-a), l(-b)]];
        let mut clauses = Vec::new();
        clauses.extend(ne(1, 2));
        clauses.extend(ne(2, 3));
        clauses.extend(ne(3, 1));
        let f = CnfFormula::from_clauses(3, clauses);
        assert!(solve_2sat(&f, &Budget::unlimited()).0.is_unsat());
    }

    #[test]
    fn agrees_with_brute_force() {
        for seed in 0..50u64 {
            let f = generators::random_ksat(10, 25, 2, seed);
            let expect = brute::solve(&f, &Budget::unlimited()).0.is_sat();
            let got = solve_2sat(&f, &Budget::unlimited()).0.unwrap_decided();
            assert_eq!(got.is_some(), expect, "seed {seed}");
            if let Some(m) = got {
                assert!(f.eval(&m));
            }
        }
    }

    #[test]
    fn large_instance_is_fast() {
        // 50k variables, implication chain: trivially satisfiable; mostly a
        // no-stack-overflow / linearity smoke test.
        let n = 50_000;
        let mut clauses = Vec::with_capacity(n - 1);
        for i in 0..n - 1 {
            clauses.push(vec![Lit::neg(i), Lit::pos(i + 1)]);
        }
        let f = CnfFormula::from_clauses(n, clauses);
        let (out, stats) = solve_2sat(&f, &Budget::unlimited());
        assert!(out.is_sat());
        assert_eq!(stats.propagations, (n - 1) as u64);
    }

    #[test]
    fn budget_exhausts_mid_build() {
        let n = 1000;
        let clauses: Vec<_> = (0..n - 1)
            .map(|i| vec![Lit::neg(i), Lit::pos(i + 1)])
            .collect();
        let f = CnfFormula::from_clauses(n, clauses);
        let (out, _) = solve_2sat(&f, &Budget::ticks(10));
        assert!(out.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn wide_clause_rejected() {
        let f = CnfFormula::from_clauses(3, vec![vec![l(1), l(2), l(3)]]);
        let _ = solve_2sat(&f, &Budget::unlimited());
    }
}
