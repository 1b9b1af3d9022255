//! Differential checks: one hostile instance, one fault plan, one verdict.
//!
//! Each family check generates a hostile instance from the seed, derives a
//! deterministic fault plan and tick budget from the same seed, runs the
//! production solver under [`lb_engine::fault::with_plan`], and compares
//! against a brute-force oracle run with no faults and no budget. The
//! soundness-under-faults contract being enforced:
//!
//! * the solver **never panics** (checked with `catch_unwind`);
//! * a completed verdict (`Sat`/`Unsat`) **agrees with the oracle**, and a
//!   `Sat` witness actually satisfies the instance;
//! * under faults or tight budgets the only extra permitted outcome is
//!   `Exhausted` — injected faults may cost completeness, never soundness.

use crate::hostile;
use crate::rng::Rng;
use lb_engine::fault::with_plan;
use lb_engine::{Budget, FaultPlan, Outcome};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The input families the fuzzer covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// CNF satisfiability (DPLL, 2SAT, model counting, DIMACS ingestion).
    Sat,
    /// Constraint satisfaction (backtracking vs. brute force).
    Csp,
    /// Join evaluation (generic WCOJ vs. nested-loop oracle).
    Join,
    /// Graph algorithms (triangle finding/counting, clique finding).
    Graphalg,
}

impl Family {
    /// All families, in reporting order.
    pub const ALL: [Family; 4] = [Family::Sat, Family::Csp, Family::Join, Family::Graphalg];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Sat => "sat",
            Family::Csp => "csp",
            Family::Join => "join",
            Family::Graphalg => "graphalg",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// A fuzz failure: the seed replays it, the detail explains it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which family's check failed.
    pub family: Family,
    /// The seed that reproduces the failure.
    pub seed: u64,
    /// `true` when the solver panicked, `false` on an oracle divergence.
    pub panicked: bool,
    /// Human-readable description, including a shrunk reproducer when the
    /// instance family supports shrinking.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seed {}: {}: {}",
            self.family.name(),
            self.seed,
            if self.panicked { "PANIC" } else { "DIVERGENCE" },
            self.detail
        )
    }
}

/// The fault plan and budget a seed implies. Roughly a third of runs get
/// injected faults, a third get a tight tick budget, and a third run clean
/// (so the differential also exercises the no-fault path).
pub fn plan_for_seed(seed: u64) -> (FaultPlan, Budget) {
    let mut rng = Rng::new(seed ^ 0xfa17);
    let plan = if rng.chance(40) {
        FaultPlan::from_seed(rng.next_u64())
    } else {
        FaultPlan::new()
    };
    let budget = if rng.chance(30) {
        Budget::ticks(rng.below(2_000))
    } else {
        Budget::unlimited()
    };
    (plan, budget)
}

/// Runs `f` guarding against panics; `Err` carries the panic payload text.
fn no_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

fn fail(family: Family, seed: u64, panicked: bool, detail: String) -> Failure {
    Failure {
        family,
        seed,
        panicked,
        detail,
    }
}

/// Checks one SAT seed: DPLL (and 2SAT when applicable, model counting,
/// and the SAT→CSP reduction round-trip) against the brute-force oracle,
/// plus malformed-DIMACS ingestion.
pub fn check_sat(seed: u64) -> Result<(), Failure> {
    use lb_sat::{brute, count_models, solve_2sat, CnfFormula, DpllSolver};

    // Ingestion leg: malformed text must produce Ok or a typed error,
    // never a panic.
    let text = hostile::malformed_dimacs(seed);
    no_panic(|| {
        // lb-lint: allow(swallowed-result) -- the probe only cares panic vs no-panic; a typed parse error is a pass
        let _ = CnfFormula::from_dimacs(&text);
    })
    .map_err(|p| {
        fail(
            Family::Sat,
            seed,
            true,
            format!("from_dimacs panicked: {p}\ninput:\n{text}"),
        )
    })?;

    let f = hostile::cnf(seed);
    let (plan, budget) = plan_for_seed(seed);
    let (oracle, _) = brute::solve(&f, &Budget::unlimited());
    let oracle_sat = oracle.is_sat();

    let shrunk = |f: &CnfFormula| crate::shrink::shrink_cnf(f, seed);

    let (outcome, _) = no_panic(|| with_plan(&plan, || DpllSolver::default().solve(&f, &budget)))
        .map_err(|p| {
        fail(
            Family::Sat,
            seed,
            true,
            format!("dpll panicked: {p}\n{}", shrunk(&f)),
        )
    })?;
    match outcome {
        Outcome::Sat(m) => {
            if !f.eval(&m) {
                return Err(fail(
                    Family::Sat,
                    seed,
                    false,
                    format!("dpll returned a non-model\n{}", shrunk(&f)),
                ));
            }
            if !oracle_sat {
                return Err(fail(
                    Family::Sat,
                    seed,
                    false,
                    format!("dpll Sat, oracle Unsat\n{}", shrunk(&f)),
                ));
            }
        }
        Outcome::Unsat if oracle_sat => {
            return Err(fail(
                Family::Sat,
                seed,
                false,
                format!("dpll Unsat, oracle Sat\n{}", shrunk(&f)),
            ));
        }
        _ => {}
    }

    // 2SAT leg, on width-≤2 formulas only.
    if f.is_ksat(2) {
        let (outcome, _) = no_panic(|| with_plan(&plan, || solve_2sat(&f, &budget)))
            .map_err(|p| fail(Family::Sat, seed, true, format!("2sat panicked: {p}")))?;
        match outcome {
            Outcome::Sat(m) if !f.eval(&m) || !oracle_sat => {
                return Err(fail(
                    Family::Sat,
                    seed,
                    false,
                    format!("2sat bogus Sat\n{}", shrunk(&f)),
                ));
            }
            Outcome::Unsat if oracle_sat => {
                return Err(fail(
                    Family::Sat,
                    seed,
                    false,
                    format!("2sat Unsat, oracle Sat\n{}", shrunk(&f)),
                ));
            }
            _ => {}
        }
    }

    // Counting leg.
    let (oracle_count, _) = brute::count(&f, &Budget::unlimited());
    let (outcome, _) = no_panic(|| with_plan(&plan, || count_models(&f, &budget)))
        .map_err(|p| fail(Family::Sat, seed, true, format!("count panicked: {p}")))?;
    if let (Outcome::Sat(got), Outcome::Sat(want)) = (&outcome, &oracle_count) {
        if got != want {
            return Err(fail(
                Family::Sat,
                seed,
                false,
                format!("count {got} ≠ oracle {want}\n{}", shrunk(&f)),
            ));
        }
    }

    // Reduction leg: SAT→CSP must preserve the verdict (exercised on a
    // quarter of the seeds; the reduction itself is deterministic).
    if seed.is_multiple_of(4) {
        let inst = no_panic(|| lb_reductions::sat_to_csp::reduce(&f))
            .map_err(|p| fail(Family::Sat, seed, true, format!("sat_to_csp panicked: {p}")))?;
        let (outcome, _) =
            no_panic(|| lb_csp::solver::bruteforce::solve(&inst, &Budget::unlimited()))
                .map_err(|p| fail(Family::Sat, seed, true, format!("csp-of-sat panicked: {p}")))?;
        match outcome {
            Outcome::Sat(a) => {
                let back = lb_reductions::sat_to_csp::solution_back(&a);
                if !f.eval(&back) || !oracle_sat {
                    return Err(fail(
                        Family::Sat,
                        seed,
                        false,
                        format!("sat_to_csp produced a non-model\n{}", shrunk(&f)),
                    ));
                }
            }
            Outcome::Unsat if oracle_sat => {
                return Err(fail(
                    Family::Sat,
                    seed,
                    false,
                    format!("sat_to_csp lost satisfiability\n{}", shrunk(&f)),
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Checks one CSP seed: default backtracking against the brute-force
/// oracle, for both deciding and counting.
pub fn check_csp(seed: u64) -> Result<(), Failure> {
    use lb_csp::solver;

    let inst = hostile::csp(seed);
    let (plan, budget) = plan_for_seed(seed);
    let (oracle, _) = solver::bruteforce::solve(&inst, &Budget::unlimited());
    let oracle_sat = oracle.is_sat();
    let shrunk = |detail: &str| {
        format!(
            "{detail}\nshrunk: {}",
            crate::shrink::shrink_csp(&inst, seed)
        )
    };

    let (outcome, _) =
        no_panic(|| with_plan(&plan, || solver::solve(&inst, &budget))).map_err(|p| {
            fail(
                Family::Csp,
                seed,
                true,
                shrunk(&format!("backtracking panicked: {p}")),
            )
        })?;
    match outcome {
        Outcome::Sat(a) => {
            if !inst.eval(&a) {
                return Err(fail(
                    Family::Csp,
                    seed,
                    false,
                    shrunk("backtracking returned a non-solution"),
                ));
            }
            if !oracle_sat {
                return Err(fail(
                    Family::Csp,
                    seed,
                    false,
                    shrunk("backtracking Sat, oracle Unsat"),
                ));
            }
        }
        Outcome::Unsat if oracle_sat => {
            return Err(fail(
                Family::Csp,
                seed,
                false,
                shrunk("backtracking Unsat, oracle Sat"),
            ));
        }
        _ => {}
    }

    let (oracle_count, _) = solver::bruteforce::count(&inst, &Budget::unlimited());
    let (outcome, _) = no_panic(|| with_plan(&plan, || solver::count(&inst, &budget)))
        .map_err(|p| fail(Family::Csp, seed, true, format!("count panicked: {p}")))?;
    if let (Outcome::Sat(got), Outcome::Sat(want)) = (&outcome, &oracle_count) {
        if got != want {
            return Err(fail(
                Family::Csp,
                seed,
                false,
                shrunk(&format!("count {got} ≠ oracle {want}")),
            ));
        }
    }
    Ok(())
}

/// Checks one join seed: leapfrog WCOJ against the nested-loop oracle.
/// Broken databases must yield `JoinError` from both, never a panic.
/// Every fourth seed draws a skewed heavy-hitter instance instead of the
/// generic hostile one, so the heavy/light split's leapfrog path gets
/// dedicated differential coverage.
pub fn check_join(seed: u64) -> Result<(), Failure> {
    use lb_join::wcoj;

    let (q, db) = if seed.is_multiple_of(4) {
        hostile::skewed_join_instance(seed)
    } else {
        hostile::join_instance(seed)
    };
    let (plan, budget) = plan_for_seed(seed);
    let oracle = wcoj::nested_loop_join(&q, &db, &Budget::unlimited());

    let result =
        no_panic(|| with_plan(&plan, || wcoj::join(&q, &db, None, &budget))).map_err(|p| {
            fail(
                Family::Join,
                seed,
                true,
                format!("wcoj::join panicked: {p}"),
            )
        })?;
    match (result, oracle) {
        (Err(_), Err(_)) => {} // both reject the broken database
        (Err(e), Ok(_)) => {
            return Err(fail(
                Family::Join,
                seed,
                false,
                format!("wcoj rejected ({e}) what the oracle accepted"),
            ));
        }
        (Ok(_), Err(e)) => {
            return Err(fail(
                Family::Join,
                seed,
                false,
                format!("wcoj accepted what the oracle rejected ({e})"),
            ));
        }
        (Ok((outcome, _)), Ok((oracle_outcome, _))) => {
            if let (Outcome::Sat(got), Outcome::Sat(want)) = (&outcome, &oracle_outcome) {
                if got != want {
                    return Err(fail(
                        Family::Join,
                        seed,
                        false,
                        format!(
                            "wcoj answer ≠ nested-loop answer ({} vs {} tuples)",
                            got.len(),
                            want.len()
                        ),
                    ));
                }
            }
            // Emptiness leg: early-exit variant must agree too.
            if let Outcome::Sat(want) = &oracle_outcome {
                let result =
                    no_panic(|| with_plan(&plan, || wcoj::is_empty(&q, &db, None, &budget)))
                        .map_err(|p| {
                            fail(
                                Family::Join,
                                seed,
                                true,
                                format!("wcoj::is_empty panicked: {p}"),
                            )
                        })?;
                if let Ok((Outcome::Sat(empty), _)) = result {
                    if empty != want.is_empty() {
                        return Err(fail(
                            Family::Join,
                            seed,
                            false,
                            "wcoj::is_empty disagrees with materialized answer".to_string(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Checks one graphalg seed: triangle counting/finding (three algorithms)
/// and clique finding against brute-force enumeration.
pub fn check_graphalg(seed: u64) -> Result<(), Failure> {
    use lb_graphalg::{clique, triangle};

    let g = hostile::graph(seed);
    let (plan, budget) = plan_for_seed(seed);
    let n = g.num_vertices();

    // Oracle: enumerate all triangles directly.
    let mut oracle_triangles = 0u64;
    for u in 0..n {
        for v in u + 1..n {
            for w in v + 1..n {
                if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                    oracle_triangles += 1;
                }
            }
        }
    }

    let (outcome, _) = no_panic(|| with_plan(&plan, || triangle::count_triangles(&g, &budget)))
        .map_err(|p| {
            fail(
                Family::Graphalg,
                seed,
                true,
                format!("count_triangles panicked: {p}"),
            )
        })?;
    if let Outcome::Sat(got) = outcome {
        if got != oracle_triangles {
            return Err(fail(
                Family::Graphalg,
                seed,
                false,
                format!("count_triangles {got} ≠ oracle {oracle_triangles}"),
            ));
        }
    }

    for (name, finder) in [
        ("naive", triangle::find_triangle_naive as fn(_, _) -> _),
        ("matmul", triangle::find_triangle_matmul),
        ("ayz", triangle::find_triangle_ayz),
    ] {
        let (outcome, _) = no_panic(|| with_plan(&plan, || finder(&g, &budget))).map_err(|p| {
            fail(
                Family::Graphalg,
                seed,
                true,
                format!("find_triangle_{name} panicked: {p}"),
            )
        })?;
        match outcome {
            Outcome::Sat(t) if !triangle::is_triangle(&g, &t) => {
                return Err(fail(
                    Family::Graphalg,
                    seed,
                    false,
                    format!("find_triangle_{name} returned a non-triangle {t:?}"),
                ));
            }
            Outcome::Unsat if oracle_triangles > 0 => {
                return Err(fail(
                    Family::Graphalg,
                    seed,
                    false,
                    format!("find_triangle_{name} Unsat but {oracle_triangles} triangles exist"),
                ));
            }
            _ => {}
        }
    }

    // Clique leg: k = 3 cliques are exactly triangles.
    let (outcome, _) = no_panic(|| with_plan(&plan, || clique::find_clique(&g, 3, &budget)))
        .map_err(|p| {
            fail(
                Family::Graphalg,
                seed,
                true,
                format!("find_clique panicked: {p}"),
            )
        })?;
    match outcome {
        Outcome::Sat(c) => {
            let ok = c.len() == 3
                && c.iter().all(|&v| v < n)
                && g.has_edge(c[0], c[1])
                && g.has_edge(c[1], c[2])
                && g.has_edge(c[0], c[2]);
            if !ok {
                return Err(fail(
                    Family::Graphalg,
                    seed,
                    false,
                    format!("find_clique returned a non-clique {c:?}"),
                ));
            }
        }
        Outcome::Unsat if oracle_triangles > 0 => {
            return Err(fail(
                Family::Graphalg,
                seed,
                false,
                "find_clique Unsat but a triangle exists".to_string(),
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Dispatches a seed to its family's check.
pub fn check(family: Family, seed: u64) -> Result<(), Failure> {
    match family {
        Family::Sat => check_sat(seed),
        Family::Csp => check_csp(seed),
        Family::Join => check_join(seed),
        Family::Graphalg => check_graphalg(seed),
    }
}

// ---------------------------------------------------------------------------
// Resume differential: sliced checkpoint/resume vs. one uninterrupted run.
// ---------------------------------------------------------------------------

use lb_engine::checkpoint::{Checkpoint, CheckpointError, ResumableOutcome};
use lb_engine::resumable::{count_slice, find_slice, Countable};
use lb_engine::RunStats;

/// Generous convergence cap: every slice makes at least one op of
/// progress, so a run needing this many slices is a livelock bug, not a
/// slow instance.
const MAX_SLICES: u32 = 100_000;

/// One mode of a resumable search as driven by the differential: one
/// budget slice, optionally continuing from a checkpoint.
type ResumableRun<'a, W> = dyn FnMut(&Budget, Option<&Checkpoint>) -> Result<(ResumableOutcome<W>, RunStats), CheckpointError>
    + 'a;

/// The core slice-equivalence check (the tentpole invariant): run the
/// solver once uninterrupted, then again chained through adversarially
/// small slices — some throttled by tiny tick budgets, some cut short by
/// an injected [`FaultPlan`] — with every intermediate [`Checkpoint`]
/// round-tripped through its byte encoding. The verdict and the summed
/// [`RunStats`] must be identical.
fn resume_differential<W: PartialEq + std::fmt::Debug>(
    family: Family,
    seed: u64,
    what: &str,
    run: &mut ResumableRun<'_, W>,
) -> Result<(), Failure> {
    let wrap = |panicked: bool, detail: String| fail(family, seed, panicked, detail);

    // Baseline: one uninterrupted, fault-free run.
    let (one_shot, full_stats) = no_panic(|| run(&Budget::unlimited(), None))
        .map_err(|p| wrap(true, format!("{what}: one-shot run panicked: {p}")))?
        .map_err(|e| wrap(false, format!("{what}: one-shot run errored: {e}")))?;
    if one_shot.is_suspended() {
        return Err(wrap(
            false,
            format!("{what}: suspended under an unlimited budget with no faults"),
        ));
    }

    // Sliced: adversarial interruption points from the seed.
    let mut rng = Rng::new(seed ^ 0x5e5e);
    let mut from: Option<Checkpoint> = None;
    let mut summed = RunStats::default();
    let mut slices = 0u32;
    let sliced = loop {
        slices += 1;
        if slices > MAX_SLICES {
            return Err(wrap(
                false,
                format!("{what}: no verdict after {MAX_SLICES} slices (resume livelock)"),
            ));
        }
        let budget = Budget::ticks(1 + rng.below(40));
        let plan = if rng.chance(50) {
            FaultPlan::from_seed(rng.next_u64())
        } else {
            FaultPlan::new()
        };
        let step = no_panic(|| with_plan(&plan, || run(&budget, from.as_ref())))
            .map_err(|p| wrap(true, format!("{what}: slice {slices} panicked: {p}")))?
            .map_err(|e| wrap(false, format!("{what}: slice {slices} errored: {e}")))?;
        let (out, stats) = step;
        summed.absorb(&stats);
        match out {
            ResumableOutcome::Suspended { checkpoint, .. } => {
                // Round-trip through bytes: what resumes is what persists.
                let bytes = checkpoint.to_bytes();
                let reloaded = Checkpoint::from_bytes(&bytes).map_err(|e| {
                    wrap(
                        false,
                        format!("{what}: checkpoint failed to round-trip: {e}"),
                    )
                })?;
                from = Some(reloaded);
            }
            done => break done,
        }
    };

    if sliced != one_shot {
        return Err(wrap(
            false,
            format!("{what}: sliced verdict diverged from the one-shot run"),
        ));
    }
    // Exact equality, except that an injected PoisonIntermediate may have
    // pinned a slice's `max_intermediate` to u64::MAX; the tick counters
    // must still match exactly (poison is telemetry-only).
    if !summed.eq_allowing_poisoned_intermediate(&full_stats) {
        return Err(wrap(
            false,
            format!("{what}: summed slice stats {summed:?} ≠ one-shot stats {full_stats:?}"),
        ));
    }
    Ok(())
}

/// Runs the differential on both modes of `search`, named `<what>-find`
/// and `<what>-count`.
fn find_and_count<S: Countable>(
    family: Family,
    seed: u64,
    what: &str,
    search: &S,
) -> Result<(), Failure>
where
    S::Answer: PartialEq + std::fmt::Debug,
{
    resume_differential(family, seed, &format!("{what}-find"), &mut |b, from| {
        find_slice(search, b, from)
    })?;
    resume_differential(family, seed, &format!("{what}-count"), &mut |b, from| {
        count_slice(search, b, from)
    })
}

/// Checks one seed's slice-equivalence for `family`'s resumable searches,
/// every mode of each.
pub fn check_resume(family: Family, seed: u64) -> Result<(), Failure> {
    match family {
        Family::Sat => {
            let f = hostile::cnf(seed);
            let search = lb_sat::DpllSolver::default().search(&f);
            resume_differential(family, seed, "dpll", &mut |b, from| {
                find_slice(&search, b, from)
            })
        }
        Family::Csp => {
            use lb_csp::solver::{backtracking, BacktrackConfig};
            let inst = hostile::csp(seed);
            let search = backtracking::CspSearch::new(&inst, BacktrackConfig::default());
            find_and_count(family, seed, "csp", &search)
        }
        Family::Join => {
            // Every fourth seed exercises the heavy/light split's leapfrog
            // frames (Bind-phase checkpoints) instead of the generic shape.
            let (q, db) = if seed.is_multiple_of(4) {
                hostile::skewed_join_instance(seed)
            } else {
                hostile::join_instance(seed)
            };
            // Broken databases are the *other* differential's concern; the
            // resume check only runs on instances the solver accepts.
            match lb_join::wcoj::JoinSearch::new(&q, &db, None) {
                Ok(search) => find_and_count(family, seed, "join", &search),
                Err(_) => Ok(()),
            }
        }
        Family::Graphalg => {
            use lb_graphalg::{clique, triangle};
            let g = hostile::graph(seed);
            find_and_count(family, seed, "triangle", &triangle::TriangleScan::new(&g))?;
            find_and_count(family, seed, "clique", &clique::CliqueSearch::new(&g, 3))
        }
    }
}
