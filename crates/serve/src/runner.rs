//! Dispatch from a parsed [`Instance`] to the family's resumable search —
//! one slice at a time, under the engine's budget/checkpoint contract.
//!
//! This is where the server meets the solvers: [`solve_slice`] builds the
//! family's [`Resumable`] search, runs exactly one budget slice of it
//! through the engine's [`find_slice`] or [`count_slice`] driver (fresh or
//! resumed from an LBCK checkpoint), and reports either a final [`Verdict`]
//! or a suspension carrying the next checkpoint; [`solve_to_verdict`]
//! drives slices to completion in-process — the *uninterrupted reference
//! run* the soak harness compares every served verdict against.

use crate::job::{Instance, Verdict};
use lb_engine::checkpoint::{Checkpoint, CheckpointError, ResumableOutcome};
use lb_engine::resumable::{count_slice, find_slice, Countable, Resumable};
use lb_engine::{exhaustion_diagnostic, Budget, ExhaustReason, RunStats};
use std::fmt;

/// The result of one slice: settled, or suspended with the frontier.
#[derive(Clone, Debug)]
pub enum SliceOutcome {
    /// The job finished with this verdict.
    Done(Verdict),
    /// The slice budget ran out; the checkpoint resumes the run.
    Suspended {
        /// Why the slice stopped.
        reason: ExhaustReason,
        /// The serialized frontier.
        checkpoint: Checkpoint,
    },
}

/// A typed slice failure: the solver itself never panics, so everything
/// that can go wrong arrives here as data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceError {
    /// A checkpoint failed to decode or re-encode (corrupt spool blob,
    /// version skew, instance mismatch).
    Checkpoint(CheckpointError),
    /// The instance was rejected by the solver (e.g. a join query naming a
    /// relation the database does not hold).
    Instance(String),
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SliceError::Instance(msg) => write!(f, "instance: {msg}"),
        }
    }
}

impl From<CheckpointError> for SliceError {
    fn from(e: CheckpointError) -> SliceError {
        SliceError::Checkpoint(e)
    }
}

fn render_sat_model(model: &[bool]) -> String {
    let lits: Vec<String> = model
        .iter()
        .enumerate()
        .map(|(v, &b)| format!("{}{}", if b { "" } else { "-" }, v + 1))
        .collect();
    lits.join(" ")
}

fn render_values<T: fmt::Display>(vals: &[T]) -> String {
    let vals: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    vals.join(" ")
}

fn map_outcome<W>(out: ResumableOutcome<W>, sat: impl FnOnce(W) -> Verdict) -> SliceOutcome {
    match out {
        ResumableOutcome::Sat(w) => SliceOutcome::Done(sat(w)),
        ResumableOutcome::Unsat => SliceOutcome::Done(Verdict::Unsat),
        ResumableOutcome::Suspended { reason, checkpoint } => {
            SliceOutcome::Suspended { reason, checkpoint }
        }
    }
}

/// One find-mode slice of `search`, its answer rendered by `sat`.
fn find<S: Resumable>(
    search: &S,
    slice: &Budget,
    from: Option<&Checkpoint>,
    sat: impl FnOnce(S::Answer) -> Verdict,
) -> Result<(SliceOutcome, RunStats), SliceError> {
    let (out, stats) = find_slice(search, slice, from)?;
    Ok((map_outcome(out, sat), stats))
}

/// One count-mode slice of `search`.
fn count<S: Countable>(
    search: &S,
    slice: &Budget,
    from: Option<&Checkpoint>,
) -> Result<(SliceOutcome, RunStats), SliceError> {
    let (out, stats) = count_slice(search, slice, from)?;
    Ok((map_outcome(out, Verdict::Count), stats))
}

/// Runs exactly one budget slice of `inst`, resuming `from` when given.
/// This is the scheduler's preemption point: a `Suspended` outcome is a
/// job giving up the worker, not a failure.
#[must_use = "a dropped slice outcome loses the frontier checkpoint"]
pub fn solve_slice(
    inst: &Instance,
    slice: &Budget,
    from: Option<&Checkpoint>,
) -> Result<(SliceOutcome, RunStats), SliceError> {
    match inst {
        Instance::Sat(f) => find(&lb_sat::DpllSolver::default().search(f), slice, from, |m| {
            Verdict::Sat(render_sat_model(&m))
        }),
        Instance::Csp(c) => {
            let config = lb_csp::solver::BacktrackConfig::default();
            let search = lb_csp::solver::backtracking::CspSearch::new(c, config);
            find(&search, slice, from, |a| Verdict::Sat(render_values(&a)))
        }
        Instance::Join(q, db) => {
            let search = lb_join::wcoj::JoinSearch::new(q, db, None)
                .map_err(|e| SliceError::Instance(e.to_string()))?;
            count(&search, slice, from)
        }
        Instance::Triangle(g) => count(&lb_graphalg::triangle::TriangleScan::new(g), slice, from),
        Instance::Clique(g, k) => find(
            &lb_graphalg::clique::CliqueSearch::new(g, *k),
            slice,
            from,
            |vs| Verdict::Sat(render_values(&vs)),
        ),
    }
}

/// Drives `inst` through repeated slices to a settled verdict in-process,
/// with no spool and no scheduler: the uninterrupted reference run. A
/// `total_budget` turns exhaustion into a terminal [`Verdict::Unknown`]
/// carrying the shared resumable-vs-terminal diagnostic. Returns the
/// verdict, summed stats, and how many slices were preempted.
#[must_use = "the reference verdict is the point of the run"]
pub fn solve_to_verdict(
    inst: &Instance,
    slice_ticks: u64,
    total_budget: Option<u64>,
) -> Result<(Verdict, RunStats, u64), SliceError> {
    let slice_ticks = slice_ticks.max(1);
    let mut from: Option<Checkpoint> = None;
    let mut total = RunStats::default();
    let mut preemptions = 0u64;
    loop {
        let ticks = match total_budget {
            None => slice_ticks,
            Some(t) => {
                let remaining = t.saturating_sub(total.total_ops());
                if remaining == 0 && from.is_some() {
                    let why = format!("tick budget of {t} exhausted");
                    return Ok((
                        Verdict::Unknown(exhaustion_diagnostic(&why, None)),
                        total,
                        preemptions,
                    ));
                }
                remaining.min(slice_ticks)
            }
        };
        let (out, stats) = solve_slice(inst, &Budget::ticks(ticks), from.as_ref())?;
        total.absorb(&stats);
        match out {
            SliceOutcome::Done(v) => return Ok((v, total, preemptions)),
            SliceOutcome::Suspended { checkpoint, .. } => {
                preemptions += 1;
                from = Some(checkpoint);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobFamily, JobSpec};

    fn spec(family: JobFamily, k: usize, payload: &str) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            family,
            k,
            budget: None,
            payload: payload.into(),
        }
    }

    fn payload_for(family: JobFamily, seed: u64) -> (usize, String) {
        match family {
            JobFamily::Sat => (0, lb_chaos::hostile::cnf(seed).to_dimacs()),
            JobFamily::Csp => (0, crate::formats::format_csp(&lb_chaos::hostile::csp(seed))),
            JobFamily::Triangle => (
                0,
                crate::formats::format_graph(&lb_chaos::hostile::graph(seed)),
            ),
            JobFamily::Clique => (
                3,
                crate::formats::format_graph(&lb_chaos::hostile::graph(seed)),
            ),
            JobFamily::Join => {
                let (q, db) = lb_chaos::hostile::join_instance(seed);
                (
                    0,
                    format!(
                        "{}\n{}",
                        crate::formats::format_query(&q),
                        crate::formats::format_db(&q, &db)
                    ),
                )
            }
        }
    }

    #[test]
    fn sliced_run_matches_uninterrupted_for_every_family() {
        for family in crate::job::JobFamily::ALL {
            // Chaos seeds can generate near-trivial instances; scan for one
            // with enough work that a 2-tick slice must suspend.
            let mut checked = false;
            for seed in 1..64u64 {
                let (k, payload) = payload_for(family, seed);
                let s = spec(family, k, &payload);
                let inst = s.instance().unwrap();
                let (reference, ref_stats, _) = solve_to_verdict(&inst, u64::MAX, None).unwrap();
                if ref_stats.total_ops() < 8 {
                    continue;
                }
                let (sliced, sliced_stats, preemptions) = solve_to_verdict(&inst, 2, None).unwrap();
                assert_eq!(sliced, reference, "family {family} verdict drifted");
                assert!(
                    preemptions > 0,
                    "family {family} never suspended with 2-tick slices"
                );
                assert!(
                    ref_stats.eq_allowing_poisoned_intermediate(&sliced_stats)
                        || ref_stats.total_ops() == sliced_stats.total_ops(),
                    "family {family} stats drifted: {ref_stats:?} vs {sliced_stats:?}"
                );
                checked = true;
                break;
            }
            assert!(checked, "no chaos seed in 1..64 gave {family} real work");
        }
    }

    #[test]
    fn total_budget_yields_terminal_unknown() {
        let s = spec(JobFamily::Sat, 0, &lb_chaos::hostile::cnf(9).to_dimacs());
        let inst = s.instance().unwrap();
        let (v, _, _) = solve_to_verdict(&inst, 4, Some(8)).unwrap();
        match v {
            Verdict::Unknown(why) => assert!(why.contains("terminal"), "diagnostic: {why}"),
            other => {
                // A tiny instance may legitimately finish inside 8 ticks.
                let (reference, _, _) = solve_to_verdict(&inst, u64::MAX, None).unwrap();
                assert_eq!(other, reference);
            }
        }
    }
}
