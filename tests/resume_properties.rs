//! Property tests for the checkpoint/resume layer's core invariant, per
//! solver family: **splitting any budget into k slices and chaining
//! resumes yields the same verdict (and witness) and the same summed
//! [`RunStats`] as one uninterrupted run** — including when the
//! interruption point is chosen adversarially by a
//! [`FaultPlan`](lowerbounds::engine::FaultPlan) failpoint firing
//! mid-slice.
//!
//! Instances come from the `lb-chaos` hostile generators, so the shapes
//! exercised here include the degenerate ones (empty formulas, isolated
//! vertices, unit domains) that a friendly random generator underweights.
//! Every checkpoint crossing a slice boundary is round-tripped through its
//! byte encoding first: what resumes is exactly what would have been
//! persisted to disk.

use proptest::prelude::*;

use lb_chaos::hostile;
use lowerbounds::engine::checkpoint::{Checkpoint, CheckpointError, ResumableOutcome};
use lowerbounds::engine::fault::with_plan;
use lowerbounds::engine::resumable::{count_slice, find_slice, Countable};
use lowerbounds::engine::{Budget, FaultPlan, RunStats};
use lowerbounds::graphalg::{clique, triangle};
use lowerbounds::join::wcoj;

/// Upper bound on chained slices; each slice makes at least one op of
/// progress, so hitting this means the resume chain livelocked.
const MAX_SLICES: u64 = 200_000;

/// One mode of a resumable search: one budget slice, optionally
/// continuing from a checkpoint.
type Run<'a, W> = dyn FnMut(&Budget, Option<&Checkpoint>) -> Result<(ResumableOutcome<W>, RunStats), CheckpointError>
    + 'a;

/// Runs `run` once, uninterrupted and fault-free; panics if it suspends.
fn one_shot<W>(run: &mut Run<'_, W>) -> (ResumableOutcome<W>, RunStats) {
    let (out, stats) = run(&Budget::unlimited(), None).expect("one-shot run errored");
    assert!(
        !out.is_suspended(),
        "suspended under an unlimited budget with no faults"
    );
    (out, stats)
}

/// Chains `run` through `slice_ticks`-sized slices until it completes,
/// round-tripping every checkpoint through bytes; with `fault_seed`, every
/// other slice additionally runs under a seeded [`FaultPlan`] so the
/// interruption point is adversarial rather than a clean budget boundary.
/// Returns the final outcome and the summed stats.
fn chained<W>(
    run: &mut Run<'_, W>,
    slice_ticks: u64,
    fault_seed: Option<u64>,
) -> (ResumableOutcome<W>, RunStats) {
    let mut from: Option<Checkpoint> = None;
    let mut summed = RunStats::default();
    let mut slices = 0u64;
    loop {
        slices += 1;
        assert!(slices <= MAX_SLICES, "no verdict after {MAX_SLICES} slices");
        let budget = Budget::ticks(slice_ticks);
        let plan = match fault_seed {
            Some(s) if slices % 2 == 1 => FaultPlan::from_seed(s.wrapping_add(slices)),
            _ => FaultPlan::new(),
        };
        let (out, stats) = with_plan(&plan, || run(&budget, from.as_ref())).expect("slice errored");
        summed.absorb(&stats);
        match out {
            ResumableOutcome::Suspended { checkpoint, .. } => {
                let bytes = checkpoint.to_bytes();
                from = Some(Checkpoint::from_bytes(&bytes).expect("round-trip failed"));
            }
            done => return (done, summed),
        }
    }
}

/// The invariant: one-shot and k-sliced runs agree on outcome (witness
/// included, via `PartialEq`) and on summed stats, with and without
/// adversarial mid-slice faults. Returns the one-shot outcome so callers
/// can additionally validate the witness.
fn assert_slice_equivalence<W: PartialEq + std::fmt::Debug>(
    run: &mut Run<'_, W>,
    k: u64,
    fault_seed: u64,
) -> ResumableOutcome<W> {
    let (full, full_stats) = one_shot(run);
    // Split the one-shot work into k equal slices (the last absorbs the
    // remainder by simply resuming until done).
    let slice_ticks = (full_stats.total_ops() / k).max(1);
    let (sliced, summed) = chained(run, slice_ticks, None);
    assert_eq!(sliced, full, "k={k} sliced verdict diverged");
    assert_eq!(summed, full_stats, "k={k} sliced stats diverged");
    let (faulted, faulted_stats) = chained(run, slice_ticks, Some(fault_seed));
    assert_eq!(faulted, full, "k={k} fault-sliced verdict diverged");
    // An injected PoisonIntermediate may pin a slice's `max_intermediate`
    // to u64::MAX; every tick counter must still match exactly.
    assert!(
        faulted_stats.eq_allowing_poisoned_intermediate(&full_stats),
        "k={k} fault-sliced stats diverged: {faulted_stats:?} vs {full_stats:?}"
    );
    full
}

/// Slice equivalence of both modes of `search`: find under `fault_seed`,
/// count under `fault_seed ^ count_salt`. Returns the one-shot find outcome.
fn both_modes_equivalence<S: Countable>(
    search: &S,
    k: u64,
    fault_seed: u64,
    count_salt: u64,
) -> ResumableOutcome<S::Answer>
where
    S::Answer: PartialEq + std::fmt::Debug,
{
    let count = &mut |b: &Budget, from: Option<&Checkpoint>| count_slice(search, b, from);
    assert_slice_equivalence(count, k, fault_seed ^ count_salt);
    assert_slice_equivalence(&mut |b, from| find_slice(search, b, from), k, fault_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DPLL on hostile CNF: slice equivalence plus witness validity.
    #[test]
    fn dpll_slice_equivalence(seed in 0u64..5_000, k_idx in 0usize..3) {
        let k = [2u64, 5, 16][k_idx];
        let f = hostile::cnf(seed);
        let search = lowerbounds::sat::DpllSolver::default().search(&f);
        let full = assert_slice_equivalence(&mut |b, from| find_slice(&search, b, from), k, seed);
        if let ResumableOutcome::Sat(m) = full {
            prop_assert!(f.eval(&m), "one-shot witness does not satisfy the formula");
        }
    }

    /// CSP backtracking (decision and counting) on hostile instances.
    #[test]
    fn csp_slice_equivalence(seed in 0u64..5_000, k_idx in 0usize..3) {
        let k = [2u64, 5, 16][k_idx];
        use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
        let inst = hostile::csp(seed);
        let search = backtracking::CspSearch::new(&inst, BacktrackConfig::default());
        let full = both_modes_equivalence(&search, k, seed, 0xc0);
        if let ResumableOutcome::Sat(a) = full {
            prop_assert!(inst.eval(&a), "one-shot witness violates a constraint");
        }
    }

    /// Generic join (count and emptiness) on hostile query/database pairs.
    #[test]
    fn wcoj_slice_equivalence(seed in 0u64..5_000, k_idx in 0usize..3) {
        let k = [2u64, 5, 16][k_idx];
        let (q, db) = hostile::join_instance(seed);
        // Broken databases are the parser/validation differential's
        // concern; resume only applies to instances the solver accepts.
        let Ok(search) = wcoj::JoinSearch::new(&q, &db, None) else {
            return Ok(());
        };
        both_modes_equivalence(&search, k, seed ^ 0xe5, 0xe5);
    }

    /// Triangle scan (find and count) on hostile graphs.
    #[test]
    fn triangle_slice_equivalence(seed in 0u64..5_000, k_idx in 0usize..3) {
        let k = [2u64, 5, 16][k_idx];
        let g = hostile::graph(seed);
        let full = both_modes_equivalence(&triangle::TriangleScan::new(&g), k, seed, 0x7a);
        if let ResumableOutcome::Sat([a, b, c]) = full {
            prop_assert!(
                g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c),
                "one-shot witness is not a triangle"
            );
        }
    }

    /// Clique enumeration (find and count, k = 3) on hostile graphs.
    #[test]
    fn clique_slice_equivalence(seed in 0u64..5_000, k_idx in 0usize..3) {
        let k = [2u64, 5, 16][k_idx];
        let g = hostile::graph(seed);
        let full = both_modes_equivalence(&clique::CliqueSearch::new(&g, 3), k, seed, 0x3c);
        if let ResumableOutcome::Sat(c) = full {
            prop_assert_eq!(c.len(), 3);
            for i in 0..c.len() {
                for j in i + 1..c.len() {
                    prop_assert!(g.has_edge(c[i], c[j]), "one-shot witness is not a clique");
                }
            }
        }
    }
}

/// The hostile fixture corpus (`crates/engine/fixtures/checkpoints/`) at
/// the *solver* layer: resuming from any fixture yields a typed
/// `CheckpointError` — never a panic, and never a `Sat`/`Unsat` verdict
/// conjured from a checkpoint that was corrupted, version-skewed, tagged
/// for another family, or carrying an undecodable payload.
#[test]
fn hostile_fixture_checkpoints_are_rejected_by_solvers() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/fixtures/checkpoints");
    let f = hostile::cnf(7);
    let search = lowerbounds::sat::DpllSolver::default().search(&f);
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir (run the corpus regenerator)") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("ck") {
            continue;
        }
        seen += 1;
        let name = path.display();
        let loaded = catch_unwind(AssertUnwindSafe(|| Checkpoint::load(&path)))
            .unwrap_or_else(|_| panic!("{name}: load panicked"));
        let Ok(ck) = loaded else {
            continue; // rejected at the container layer: typed, done.
        };
        // Container-valid fixtures must be rejected by the solver itself.
        let resumed = catch_unwind(AssertUnwindSafe(|| {
            find_slice(&search, &Budget::unlimited(), Some(&ck))
        }))
        .unwrap_or_else(|_| panic!("{name}: resume panicked"));
        assert!(
            resumed.is_err(),
            "{name}: solver produced a verdict from a hostile checkpoint"
        );
    }
    assert!(seen >= 8, "fixture corpus is missing files ({seen} found)");
}

/// The chaos harness's own resume differential (random slice sizes, 50%
/// fault-plan slices, byte round-trips) stays clean on a fresh seed range
/// not covered by the `lb-chaos resume` smoke configuration.
#[test]
fn chaos_resume_differential_is_clean() {
    for family in lb_chaos::Family::ALL {
        let report = lb_chaos::run_resume_family(family, 0x9000, 40, 0);
        if let Some(f) = report.failures.first() {
            panic!("{f}");
        }
    }
}
