//! Property tests for the engine layer's budget contract, across every
//! solver family: a budget may only ever cost *completeness* (the solver
//! says `Exhausted`), never *soundness* (a wrong `Sat`/`Unsat` verdict),
//! and raising the budget until the solver completes must reproduce the
//! brute-force answer with monotonically growing work counters. That a
//! budget split into checkpointed slices reproduces the one-shot run is
//! `tests/resume_properties.rs`'s property.

use proptest::prelude::*;

use lowerbounds::csp::solver::{backtracking, bruteforce, treewidth_dp, BacktrackConfig};
use lowerbounds::engine::{Budget, ExhaustReason, Outcome, RunStats};
use lowerbounds::graph::generators;
use lowerbounds::graphalg::clique;
use lowerbounds::join::{generators as jgen, wcoj, JoinQuery};
use lowerbounds::sat::{brute, generators as sgen, DpllConfig, DpllSolver};

/// Runs `solve` under doubling tick budgets until it completes, checking on
/// the way that (a) every verdict delivered under a partial budget matches
/// the oracle, and (b) the work counters grow monotonically with the
/// budget. Returns the final decided verdict.
fn doubling_budget_verdict<W>(
    mut solve: impl FnMut(&Budget) -> (Outcome<W>, RunStats),
    oracle: bool,
) -> bool {
    let mut ticks = 1u64;
    let mut prev_stats: Option<RunStats> = None;
    loop {
        let (out, stats) = solve(&Budget::ticks(ticks));
        if let Some(prev) = prev_stats {
            assert!(
                prev.le(&stats),
                "counters shrank when the budget grew: {prev:?} then {stats:?}"
            );
        }
        prev_stats = Some(stats);
        match out {
            Outcome::Sat(_) => {
                assert!(oracle, "budgeted run said Sat but the oracle says Unsat");
                return true;
            }
            Outcome::Unsat => {
                assert!(!oracle, "budgeted run said Unsat but the oracle says Sat");
                return false;
            }
            Outcome::Exhausted(_) => {
                ticks = ticks
                    .checked_mul(2)
                    .expect("budget overflow before completion");
            }
        }
    }
}

/// Asserts that a solver run under an already-expired wall-clock deadline
/// exhausted on its *first* counted operation — the deadline mirror of the
/// `Budget::ticks(0)` guarantee. The engine promises the first `spend`
/// consults the clock, so the run must stop with the `Deadline` reason
/// after at most one counted op.
fn assert_expired_deadline_exhausts<W: std::fmt::Debug>((out, stats): (Outcome<W>, RunStats)) {
    match out {
        Outcome::Exhausted(ExhaustReason::Deadline { .. }) => {}
        other => panic!("expired deadline did not exhaust with Deadline: {other:?}"),
    }
    assert!(
        stats.total_ops() <= 1,
        "expired deadline let {} ops through",
        stats.total_ops()
    );
}

/// A deadline that has already passed when the solver starts.
fn expired() -> Budget {
    Budget::deadline(std::time::Duration::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every solver family: a wall-clock deadline that is already expired
    /// when the run starts exhausts on the first counted op (sat, csp,
    /// join, graphalg — mirrors the `ticks(0)` assertions below).
    #[test]
    fn expired_deadline_exhausts_on_first_op_every_family(
        seed in 0u64..10_000, n in 4usize..8,
    ) {
        // sat: DPLL and 2SAT.
        let f = sgen::random_ksat(n, 3 * n, 2, seed);
        assert_expired_deadline_exhausts(DpllSolver::default().solve(&f, &expired()));
        assert_expired_deadline_exhausts(lowerbounds::sat::solve_2sat(&f, &expired()));
        // csp: backtracking and Freuder's treewidth DP.
        let g = generators::gnp(n, 0.5, seed);
        let inst = lowerbounds::csp::generators::random_binary_csp(&g, 2, 0.4, seed);
        assert_expired_deadline_exhausts(
            backtracking::solve(&inst, BacktrackConfig::default(), &expired()),
        );
        assert_expired_deadline_exhausts(treewidth_dp::solve_auto(&inst, &expired()));
        // join: generic WCOJ on the triangle query.
        let q = JoinQuery::triangle();
        let db = jgen::random_binary_database(&q, 3 * n, 5, seed);
        assert_expired_deadline_exhausts(
            wcoj::count(&q, &db, None, &expired()).expect("valid database"),
        );
        // graphalg: clique search.
        assert_expired_deadline_exhausts(clique::find_clique(&g, 3, &expired()));
    }

    /// DPLL: zero-tick budgets exhaust, doubling budgets converge to the
    /// brute-force verdict with monotone counters.
    #[test]
    fn dpll_budget_contract(seed in 0u64..10_000, n in 4usize..8, m in 5usize..24) {
        let f = sgen::random_ksat(n, m, 3.min(n), seed);
        let solver = DpllSolver::new(DpllConfig::default());
        prop_assert!(solver.solve(&f, &Budget::ticks(0)).0.is_exhausted());
        let oracle = brute::solve(&f, &Budget::unlimited()).0.is_sat();
        let verdict = doubling_budget_verdict(|b| solver.solve(&f, b), oracle);
        prop_assert_eq!(verdict, oracle);
    }

    /// CSP backtracking: same contract against the brute-force counter.
    #[test]
    fn csp_backtracking_budget_contract(
        seed in 0u64..10_000, n in 4usize..7, d in 2usize..4, p in 0.2f64..0.6,
    ) {
        let g = generators::gnp(n, p, seed);
        let inst = lowerbounds::csp::generators::random_binary_csp(&g, d, 0.4, seed);
        let cfg = BacktrackConfig::default();
        prop_assert!(backtracking::solve(&inst, cfg, &Budget::ticks(0)).0.is_exhausted());
        let oracle = bruteforce::count(&inst, &Budget::unlimited()).0.unwrap_sat() > 0;
        let verdict = doubling_budget_verdict(|b| backtracking::solve(&inst, cfg, b), oracle);
        prop_assert_eq!(verdict, oracle);
    }

    /// Freuder's treewidth DP: `Sat` always carries the full count, so the
    /// doubling run must converge to the brute-force count exactly.
    #[test]
    fn treewidth_dp_budget_contract(
        seed in 0u64..10_000, n in 4usize..7, d in 2usize..4, p in 0.2f64..0.6,
    ) {
        let g = generators::gnp(n, p, seed);
        let inst = lowerbounds::csp::generators::random_binary_csp(&g, d, 0.4, seed);
        prop_assert!(treewidth_dp::solve_auto(&inst, &Budget::ticks(0)).0.is_exhausted());
        let oracle = bruteforce::count(&inst, &Budget::unlimited()).0.unwrap_sat();
        let mut counts = Vec::new();
        let verdict = doubling_budget_verdict(
            |b| {
                let (out, stats) = treewidth_dp::solve_auto(&inst, b);
                let out = match out {
                    Outcome::Sat(r) => {
                        counts.push(r.count);
                        if r.count > 0 { Outcome::Sat(()) } else { Outcome::Unsat }
                    }
                    Outcome::Unsat => Outcome::Unsat,
                    Outcome::Exhausted(r) => Outcome::Exhausted(r),
                };
                (out, stats)
            },
            oracle > 0,
        );
        prop_assert_eq!(verdict, oracle > 0);
        prop_assert_eq!(counts.last().copied(), Some(oracle));
    }

    /// Generic Join: a completed budgeted count equals the unlimited count;
    /// zero ticks always exhaust.
    #[test]
    fn wcoj_budget_contract(seed in 0u64..10_000, rows in 5usize..25, dom in 3u64..9) {
        let q = JoinQuery::triangle();
        let db = jgen::random_binary_database(&q, rows, dom, seed);
        prop_assert!(
            wcoj::count(&q, &db, None, &Budget::ticks(0)).unwrap().0.is_exhausted()
        );
        let oracle = wcoj::count(&q, &db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        let mut counts = Vec::new();
        let verdict = doubling_budget_verdict(
            |b| {
                let (out, stats) = wcoj::count(&q, &db, None, b).unwrap();
                let out = match out {
                    Outcome::Sat(c) => {
                        counts.push(c);
                        if c > 0 { Outcome::Sat(()) } else { Outcome::Unsat }
                    }
                    Outcome::Unsat => Outcome::Unsat,
                    Outcome::Exhausted(r) => Outcome::Exhausted(r),
                };
                (out, stats)
            },
            oracle > 0,
        );
        prop_assert_eq!(verdict, oracle > 0);
        prop_assert_eq!(counts.last().copied(), Some(oracle));
    }

    /// Every solver family charges `RunStats.max_intermediate`: the
    /// high-water mark is monotone under doubling budgets (a longer run of
    /// the same deterministic trace can only observe a larger frontier) and
    /// nonzero on instances that force real search. `RunStats::le` excludes
    /// the mark, so this is the only place the charge itself is pinned.
    #[test]
    fn max_intermediate_charged_every_family(seed in 0u64..10_000, n in 4usize..7) {
        fn doubling_max_intermediate<W>(
            mut solve: impl FnMut(&Budget) -> (Outcome<W>, RunStats),
        ) -> u64 {
            let mut ticks = 1u64;
            let mut prev = 0u64;
            loop {
                let (out, stats) = solve(&Budget::ticks(ticks));
                assert!(
                    stats.max_intermediate >= prev,
                    "max_intermediate shrank when the budget grew: {prev} then {}",
                    stats.max_intermediate
                );
                prev = stats.max_intermediate;
                if !out.is_exhausted() {
                    return prev;
                }
                ticks = ticks.checked_mul(2).expect("budget overflow before completion");
            }
        }
        // sat: DPLL must stack a decision frame or a propagation trail.
        let f = sgen::random_ksat(n, 3 * n, 3.min(n), seed);
        let solver = DpllSolver::default();
        prop_assert!(doubling_max_intermediate(|b| solver.solve(&f, b)) > 0);
        // csp: backtracking pushes at least the first decision frame.
        let kg = generators::clique(n);
        let inst = lowerbounds::csp::generators::random_binary_csp(&kg, 2, 0.4, seed);
        let cfg = BacktrackConfig::default();
        prop_assert!(doubling_max_intermediate(|b| backtracking::solve(&inst, cfg, b)) > 0);
        // join: the WCOJ machine stacks a frame per bound variable.
        let q = JoinQuery::triangle();
        let db = jgen::random_binary_database(&q, 3 * n, 5, seed);
        prop_assert!(
            doubling_max_intermediate(|b| wcoj::count(&q, &db, None, b).expect("valid database")) > 0
        );
        // graphalg on K_n: every edge has a common neighbor, and the clique
        // machine extends a nonempty partial clique.
        use lowerbounds::graphalg::triangle;
        prop_assert!(doubling_max_intermediate(|b| triangle::count_triangles(&kg, b)) > 0);
        prop_assert!(doubling_max_intermediate(|b| clique::find_clique(&kg, 3, b)) > 0);
    }

    /// Clique search (brute and Nešetřil–Poljak): budget contract against
    /// the unlimited run.
    #[test]
    fn clique_budget_contract(seed in 0u64..10_000, n in 4usize..10, p in 0.3f64..0.8) {
        let g = generators::gnp(n, p, seed);
        let k = 3;
        prop_assert!(clique::find_clique(&g, k, &Budget::ticks(0)).0.is_exhausted());
        let oracle = clique::find_clique(&g, k, &Budget::unlimited()).0.is_sat();
        let verdict = doubling_budget_verdict(|b| clique::find_clique(&g, k, b), oracle);
        prop_assert_eq!(verdict, oracle);
        let vnp = doubling_budget_verdict(|b| clique::find_clique_neipol(&g, k, b), oracle);
        prop_assert_eq!(vnp, oracle);
    }
}
