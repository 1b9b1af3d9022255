//! The algorithmic side of Grohe's Theorem 5.3: solve HOM(A, B) through
//! the core of A.
//!
//! Theorem 5.3 says HOM(𝒜, _) is polynomial-time solvable iff the cores of
//! the structures in 𝒜 have bounded treewidth. The tractability direction
//! is an algorithm, implemented here: there is a homomorphism A → B iff
//! there is one core(A) → B (compose with the retraction / the inclusion),
//! and the latter is found by Freuder's dynamic program over a tree
//! decomposition of core(A)'s Gaifman graph — costing
//! ‖B‖^{tw(core(A)) + 1} instead of ‖B‖^{tw(A) + 1}.
//!
//! Engine mapping: [`solve_hom_via_core`] delegates its remaining budget to
//! core computation, the treewidth DP, and the retraction search in turn,
//! absorbing each stage's [`RunStats`]; the structural facts that used to
//! live in the ad-hoc `CoreHomStats` are reported as [`CoreHomReport`].
//!
//! [`RunStats`]: lb_engine::RunStats

use crate::convert::structures_to_csp;
use crate::core::compute_core;
use crate::hom::find_homomorphism;
use crate::structure::Structure;
use lb_csp::solver::treewidth_dp;
use lb_csp::Value;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// Structural facts of a [`solve_hom_via_core`] run, showing the treewidth
/// saving the core affords. (Operation counts live in the accompanying
/// [`RunStats`].)
#[derive(Clone, Debug)]
pub struct CoreHomReport {
    /// Universe size of A.
    pub a_size: usize,
    /// Universe size of core(A).
    pub core_size: usize,
    /// Treewidth upper bound used for A's Gaifman graph.
    pub a_treewidth: usize,
    /// Treewidth upper bound used for core(A)'s Gaifman graph.
    pub core_treewidth: usize,
}

/// Decides HOM(A, B) via the core: computes core(A), solves the CSP of
/// (core(A), B) with the treewidth DP, and (if a homomorphism exists)
/// extends it to all of A by composing with a retraction A → core(A).
///
/// On completion, `Sat((hom, report))` where `hom` is `None` when no
/// homomorphism exists — the report is part of the answer either way, so
/// the `Outcome` only distinguishes completion from exhaustion.
#[allow(clippy::type_complexity)]
pub fn solve_hom_via_core(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> (Outcome<(Option<Vec<usize>>, CoreHomReport)>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = via_core_inner(a, b, &mut ticker);
    ticker.finish(result)
}

#[allow(clippy::type_complexity)]
#[expect(
    clippy::unreachable,
    reason = "invariant: the sub-searches complete with Sat or exhaust: compute_core and the treewidth DP have no Unsat outcome, and every finite structure retracts onto its core"
)]
fn via_core_inner(
    a: &Structure,
    b: &Structure,
    ticker: &mut Ticker,
) -> Result<Option<(Option<Vec<usize>>, CoreHomReport)>, ExhaustReason> {
    let (core_out, core_stats) = compute_core(a, &ticker.remaining_budget());
    ticker.absorb(&core_stats);
    let (core, _kept) = match core_out {
        Outcome::Sat(x) => x,
        Outcome::Exhausted(r) => return Err(r),
        Outcome::Unsat => unreachable!("compute_core has no Unsat outcome"),
    };
    let a_gaifman = a.gaifman_graph();
    let core_gaifman = core.gaifman_graph();
    let (a_tw, _) = lb_graph::treewidth::treewidth_upper_bound(&a_gaifman);
    let (core_tw, _) = lb_graph::treewidth::treewidth_upper_bound(&core_gaifman);
    let report = CoreHomReport {
        a_size: a.universe(),
        core_size: core.universe(),
        a_treewidth: a_tw,
        core_treewidth: core_tw,
    };

    // Solve core(A) → B by the treewidth DP over core(A)'s Gaifman graph.
    let inst = structures_to_csp(&core, b);
    let (dp_out, dp_stats) = treewidth_dp::solve_auto(&inst, &ticker.remaining_budget());
    ticker.absorb(&dp_stats);
    let dp_result = match dp_out {
        Outcome::Sat(r) => r,
        Outcome::Exhausted(r) => return Err(r),
        Outcome::Unsat => unreachable!("solve_auto has no Unsat outcome"),
    };
    let Some(core_hom) = dp_result.solution else {
        return Ok(Some((None, report)));
    };
    let core_hom: Vec<usize> = core_hom.into_iter().map(|v: Value| v as usize).collect();
    debug_assert!(core.is_homomorphism_to(b, &core_hom));

    // Extend to A: find a retraction A → core(A) (guaranteed to exist) and
    // compose. The retraction is a homomorphism from A to the induced
    // substructure; search for it directly.
    let (ret_out, ret_stats) = find_homomorphism(a, &core, &ticker.remaining_budget());
    ticker.absorb(&ret_stats);
    let retraction = match ret_out {
        Outcome::Sat(h) => h,
        Outcome::Exhausted(r) => return Err(r),
        Outcome::Unsat => unreachable!("A retracts onto its core by definition"),
    };
    let full: Vec<usize> = retraction.iter().map(|&x| core_hom[x]).collect();
    debug_assert!(a.is_homomorphism_to(b, &full));
    Ok(Some((Some(full), report)))
}

/// Counts homomorphisms A → B with the treewidth DP over A's Gaifman
/// graph — the counting analogue of Theorem 5.3's tractable side. (Counting
/// cannot go through the core: hom *counts* are not preserved by
/// retraction, only hom *existence* is, so the DP runs on A itself.)
/// `Sat(count)` or `Exhausted`.
pub fn count_hom_via_treewidth(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> (Outcome<u64>, RunStats) {
    let inst = structures_to_csp(a, b);
    let (out, stats) = treewidth_dp::solve_auto(&inst, budget);
    (out.map(|r| r.count), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::hom_exists;
    use lb_graph::generators;

    fn gs(g: &lb_graph::Graph) -> Structure {
        Structure::from_graph(g)
    }

    fn via_core(a: &Structure, b: &Structure) -> (Option<Vec<usize>>, CoreHomReport) {
        solve_hom_via_core(a, b, &Budget::unlimited())
            .0
            .unwrap_sat()
    }

    #[test]
    fn grid_pattern_collapses_to_edge() {
        // A is a 3×3 grid (tw 3, but bipartite → core K2, tw 1); B = C6.
        let a = gs(&generators::grid(3, 3));
        let b = gs(&generators::cycle(6));
        let (hom, report) = via_core(&a, &b);
        assert!(hom.is_some());
        assert!(a.is_homomorphism_to(&b, &hom.unwrap()));
        assert_eq!(report.core_size, 2);
        assert!(report.core_treewidth < report.a_treewidth);
    }

    #[test]
    fn no_hom_detected_via_core() {
        // Grid → odd cycle: bipartite → non-bipartite has homs? K2 → C5
        // needs an edge: C5 has edges, so K2 → C5 exists! Grid → C5 exists
        // too (map edge-wise). Use instead: C5 (core = itself) → K2: none.
        let a = gs(&generators::cycle(5));
        let b = gs(&generators::clique(2));
        let (hom, report) = via_core(&a, &b);
        assert!(hom.is_none());
        assert_eq!(report.core_size, 5);
    }

    #[test]
    fn agrees_with_direct_search_on_random_pairs() {
        for seed in 0..10u64 {
            let ga = generators::gnp(6, 0.4, seed);
            let gb = generators::gnp(5, 0.6, seed + 50);
            let a = gs(&ga);
            let b = gs(&gb);
            let (hom, _) = via_core(&a, &b);
            let direct = hom_exists(&a, &b, &Budget::unlimited()).0.unwrap_sat();
            assert_eq!(hom.is_some(), direct, "seed {seed}");
            if let Some(h) = hom {
                assert!(a.is_homomorphism_to(&b, &h), "seed {seed}");
            }
        }
    }

    #[test]
    fn counting_via_treewidth_matches_backtracking() {
        use crate::hom::count_homomorphisms;
        for seed in 0..8u64 {
            let a = gs(&generators::gnp(5, 0.5, seed));
            let b = gs(&generators::gnp(4, 0.6, seed + 30));
            assert_eq!(
                count_hom_via_treewidth(&a, &b, &Budget::unlimited())
                    .0
                    .unwrap_sat(),
                count_homomorphisms(&a, &b, &Budget::unlimited())
                    .0
                    .unwrap_sat(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn counting_colorings_via_treewidth() {
        // hom(C5 → K3) = 30, via the DP route.
        let a = gs(&generators::cycle(5));
        let b = gs(&generators::clique(3));
        assert_eq!(
            count_hom_via_treewidth(&a, &b, &Budget::unlimited())
                .0
                .unwrap_sat(),
            30
        );
    }

    #[test]
    fn large_bipartite_pattern_is_fast_via_core() {
        // A 4×5 grid has 20 vertices — direct |B|^20 search is hopeless in
        // principle; via the core it is a 2-variable CSP.
        let a = gs(&generators::grid(4, 5));
        let b = gs(&generators::gnp(8, 0.5, 3));
        let (hom, report) = via_core(&a, &b);
        assert_eq!(report.core_size, 2);
        // b has an edge with overwhelming probability under this seed.
        assert!(hom.is_some());
        assert!(a.is_homomorphism_to(&b, &hom.unwrap()));
    }

    #[test]
    fn tiny_budget_exhausts() {
        let a = gs(&generators::grid(3, 3));
        let b = gs(&generators::cycle(6));
        let budget = Budget::ticks(0); // the core computation exhausts at once
        assert!(solve_hom_via_core(&a, &b, &budget).0.is_exhausted());
        assert!(count_hom_via_treewidth(&a, &b, &budget).0.is_exhausted());
    }
}
