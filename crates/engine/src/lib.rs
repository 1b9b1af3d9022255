//! The shared solver execution layer: outcomes, budgets, and
//! machine-independent run telemetry.
//!
//! Every solver in this workspace — DPLL, Freuder's treewidth DP, the
//! worst-case optimal join, the clique/dominating-set brute forces, … — is
//! an implementation whose *scaling* a theorem of the paper bounds. The
//! engine layer gives them all one execution discipline:
//!
//! * [`Outcome`] — the three-valued verdict `Sat(witness)` / `Unsat` /
//!   `Exhausted(reason)`. A budget-limited run never lies: it either
//!   completes with the same answer the unbudgeted run would produce, or it
//!   reports exhaustion.
//! * [`Budget`] — a tick (operation) limit plus an optional wall-clock
//!   deadline. Exponential-time solvers driven from a CLI or a test can
//!   always be stopped.
//! * [`Ticker`] — the amortized budget checker solvers thread through their
//!   inner loops. Every counted operation is one tick; the deadline is only
//!   consulted every [`DEADLINE_CHECK_INTERVAL`] ticks so the common path
//!   is a single integer compare.
//! * [`RunStats`] — the unified counter set (nodes expanded, propagations,
//!   trie advances, tuples materialized, backtracks). Counters are
//!   machine-independent: Ngo's WCOJ survey and Veldhuizen's Leapfrog
//!   Triejoin paper measure trie advances and comparisons precisely because
//!   wall time obscures the exponents the theory predicts. The experiment
//!   harness fits exponents against these counters, so the E2–E8 fits are
//!   deterministic across machines.
//!
//! # How a solver adopts the engine
//!
//! ```
//! use lb_engine::{Budget, Outcome, RunStats, Ticker};
//!
//! /// Finds the first even number, engine-style.
//! fn find_even(xs: &[u64], budget: &Budget) -> (Outcome<u64>, RunStats) {
//!     let mut t = Ticker::new(budget);
//!     for &x in xs {
//!         // One counted operation per candidate; `?`-free variant shown.
//!         if let Err(reason) = t.node() {
//!             return (Outcome::Exhausted(reason), t.stats());
//!         }
//!         if x % 2 == 0 {
//!             return (Outcome::Sat(x), t.stats());
//!         }
//!     }
//!     (Outcome::Unsat, t.stats())
//! }
//!
//! let (out, stats) = find_even(&[1, 3, 5, 8], &Budget::unlimited());
//! assert_eq!(out, Outcome::Sat(8));
//! assert_eq!(stats.nodes, 4);
//!
//! let (out, _) = find_even(&[1, 3, 5, 8], &Budget::ticks(2));
//! assert!(out.is_exhausted());
//! ```
//!
//! Solvers with recursive searches typically let exhaustion propagate with
//! `?` as a `Result<_, ExhaustReason>` and convert at the entry point via
//! [`Ticker::finish`].
//!
//! Three satellite modules extend the execution discipline to hostile
//! conditions:
//!
//! * [`fault`] — deterministic fault injection: a seeded, serializable
//!   [`FaultPlan`] schedule the `Ticker` consults, so any solver run can be
//!   replayed byte-for-byte with faults at exact operation counts.
//! * [`parse`] — the shared typed [`ParseError`] (line, column, kind) every
//!   ingestion path reports malformed input through, keeping the public API
//!   panic-free end to end.
//! * [`checkpoint`] — preemption-safe persisted frontiers: exhaustion
//!   becomes a pause, not a failure. A suspended run serializes to a
//!   versioned, checksummed [`Checkpoint`] and resumes exactly where it
//!   stopped, with summed [`RunStats`] equal to an uninterrupted run.

pub mod checkpoint;
pub mod fault;
pub mod parse;
pub mod resumable;

pub use checkpoint::{
    atomic_write, cleanup_artifacts, exhaustion_diagnostic, tmp_sibling, Checkpoint,
    CheckpointError, Digest, PayloadReader, PayloadWriter, ResumableOutcome, SolverFamily,
};
pub use fault::{
    splitmix, FaultKind, FaultPlan, FaultPoint, IoFaultKind, IoFaultPlan, IoFaultPoint,
};
pub use parse::{ParseError, ParseErrorKind};

use fault::ActiveFaults;
use std::fmt;
use std::time::{Duration, Instant};

/// Why a run stopped before reaching a verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The tick (operation) limit was reached.
    Ticks {
        /// The budget's tick limit.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The budget's wall-clock limit.
        limit: Duration,
    },
    /// A fault installed via [`fault::with_plan`] fired: the run was cut
    /// short deterministically at this tick. Like every other exhaustion,
    /// the run makes no claim about satisfiability.
    Injected {
        /// The tick at which the scheduled fault fired.
        tick: u64,
    },
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustReason::Ticks { limit } => write!(f, "budget exhausted: {limit} ticks"),
            ExhaustReason::Deadline { limit } => {
                write!(f, "budget exhausted: deadline {limit:?}")
            }
            ExhaustReason::Injected { tick } => {
                write!(f, "budget exhausted: fault injected at tick {tick}")
            }
        }
    }
}

/// The verdict of a budgeted solver run.
///
/// `Sat(w)` means the run completed and produced the witness/value `w` (for
/// counting and enumeration solvers this is "completed with value" — a count
/// of zero is still `Sat(0)`). `Unsat` means the search space was exhausted
/// and no solution exists. `Exhausted` means the budget ran out first; the
/// run makes **no claim** about satisfiability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome<W> {
    /// Completed: a witness (or computed value) was found.
    Sat(W),
    /// Completed: provably no solution.
    Unsat,
    /// The budget ran out before a verdict was reached.
    Exhausted(ExhaustReason),
}

impl<W> Outcome<W> {
    /// True iff the run completed with a witness/value.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// True iff the run completed with a proof of unsatisfiability.
    pub fn is_unsat(&self) -> bool {
        matches!(self, Outcome::Unsat)
    }

    /// True iff the budget ran out before a verdict.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, Outcome::Exhausted(_))
    }

    /// True iff the run reached a verdict (`Sat` or `Unsat`).
    pub fn is_decided(&self) -> bool {
        !self.is_exhausted()
    }

    /// The witness, if any (`Unsat`/`Exhausted` → `None`).
    pub fn sat(self) -> Option<W> {
        match self {
            Outcome::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// A reference to the witness, if any.
    pub fn sat_ref(&self) -> Option<&W> {
        match self {
            Outcome::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// `Some(Some(w))` on `Sat`, `Some(None)` on `Unsat`, `None` when
    /// exhausted — the shape pre-engine solvers returned, still useful when
    /// the caller handles exhaustion separately.
    pub fn decided(self) -> Option<Option<W>> {
        match self {
            Outcome::Sat(w) => Some(Some(w)),
            Outcome::Unsat => Some(None),
            Outcome::Exhausted(_) => None,
        }
    }

    /// Maps the witness, preserving the verdict.
    pub fn map<U>(self, f: impl FnOnce(W) -> U) -> Outcome<U> {
        match self {
            Outcome::Sat(w) => Outcome::Sat(f(w)),
            Outcome::Unsat => Outcome::Unsat,
            Outcome::Exhausted(r) => Outcome::Exhausted(r),
        }
    }

    /// The exhaustion reason, if the run was cut short.
    pub fn exhaust_reason(&self) -> Option<ExhaustReason> {
        match self {
            Outcome::Exhausted(r) => Some(*r),
            _ => None,
        }
    }

    /// Unwraps `Sat(w)` → `w`.
    ///
    /// # Panics
    /// Panics on `Unsat` or `Exhausted`. Intended for tests, benches, and
    /// binaries running under [`Budget::unlimited`], where counting/join
    /// solvers always complete.
    #[track_caller]
    pub fn unwrap_sat(self) -> W {
        match self {
            Outcome::Sat(w) => w,
            // lb-lint: allow(no-panic) -- documented panic: test/bench convenience accessor, the library paths use `sat()`/`decided()`
            Outcome::Unsat => panic!("called unwrap_sat() on Outcome::Unsat"),
            Outcome::Exhausted(r) => {
                // lb-lint: allow(no-panic) -- documented panic: test/bench convenience accessor, the library paths use `sat()`/`decided()`
                panic!("called unwrap_sat() on Outcome::Exhausted ({r})")
            }
        }
    }

    /// Unwraps a decided outcome: `Sat(w)` → `Some(w)`, `Unsat` → `None`.
    ///
    /// # Panics
    /// Panics on `Exhausted`. Intended for tests, benches, and binaries
    /// running under a budget known to suffice.
    #[track_caller]
    pub fn unwrap_decided(self) -> Option<W> {
        match self {
            Outcome::Sat(w) => Some(w),
            Outcome::Unsat => None,
            Outcome::Exhausted(r) => {
                // lb-lint: allow(no-panic) -- documented panic: test/bench convenience accessor, the library paths use `sat()`/`decided()`
                panic!("called unwrap_decided() on Outcome::Exhausted ({r})")
            }
        }
    }
}

impl<W> From<Result<Option<W>, ExhaustReason>> for Outcome<W> {
    /// The canonical bridge from a recursive search: `Ok(Some(w))` → `Sat`,
    /// `Ok(None)` → `Unsat`, `Err(reason)` → `Exhausted`.
    fn from(r: Result<Option<W>, ExhaustReason>) -> Self {
        match r {
            Ok(Some(w)) => Outcome::Sat(w),
            Ok(None) => Outcome::Unsat,
            Err(reason) => Outcome::Exhausted(reason),
        }
    }
}

/// Resource limits for one solver run: a tick (counted-operation) limit and
/// an optional wall-clock deadline. [`Budget::default`] is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    max_ticks: Option<u64>,
    time_limit: Option<Duration>,
}

impl Budget {
    /// No limits: the solver runs to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// At most `n` counted operations.
    pub fn ticks(n: u64) -> Budget {
        Budget {
            max_ticks: Some(n),
            time_limit: None,
        }
    }

    /// At most `limit` of wall-clock time (checked amortized, so overshoot
    /// by a few thousand cheap operations is possible).
    pub fn deadline(limit: Duration) -> Budget {
        Budget {
            max_ticks: None,
            time_limit: Some(limit),
        }
    }

    /// Adds/replaces the tick limit.
    pub fn with_ticks(mut self, n: u64) -> Budget {
        self.max_ticks = Some(n);
        self
    }

    /// Adds/replaces the wall-clock deadline.
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.time_limit = Some(limit);
        self
    }

    /// The tick limit, if any.
    pub fn max_ticks(&self) -> Option<u64> {
        self.max_ticks
    }

    /// The wall-clock limit, if any.
    pub fn time_limit(&self) -> Option<Duration> {
        self.time_limit
    }

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_ticks.is_none() && self.time_limit.is_none()
    }
}

/// The machine-independent counters of one solver run.
///
/// Each solver bumps the counters that match its work (a SAT solver has no
/// trie to advance; a join has no clauses to propagate); unused counters
/// stay zero. Every bump is one budget tick, so `Budget::ticks(n)` bounds
/// the *sum* of these counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Search nodes expanded (decisions, assignments tried, candidates
    /// extended, DP tree nodes processed).
    pub nodes: u64,
    /// Inference steps (unit propagations, forward-checking updates,
    /// arc-consistency revisions, fixpoint/Gaussian elimination steps).
    pub propagations: u64,
    /// Sorted-index advances (galloping binary searches and range
    /// narrowings inside the WCOJ and other index walks).
    pub trie_advances: u64,
    /// Tuples materialized (join outputs, intermediates, DP table entries).
    pub tuples: u64,
    /// Dead ends: conflicts, prunings, and retreats from failed branches.
    pub backtracks: u64,
    /// Largest single materialized intermediate (tuples). Not a tick
    /// counter: a high-water mark, interesting for binary join plans where
    /// it is the quantity that blows up on AGM-worst-case inputs.
    pub max_intermediate: u64,
}

impl RunStats {
    /// Total counted operations (excludes the `max_intermediate`
    /// high-water mark).
    pub fn total_ops(&self) -> u64 {
        self.nodes + self.propagations + self.trie_advances + self.tuples + self.backtracks
    }

    /// Accumulates another run's counters into this one (high-water marks
    /// take the max).
    pub fn absorb(&mut self, other: &RunStats) {
        self.nodes += other.nodes;
        self.propagations += other.propagations;
        self.trie_advances += other.trie_advances;
        self.tuples += other.tuples;
        self.backtracks += other.backtracks;
        self.max_intermediate = self.max_intermediate.max(other.max_intermediate);
    }

    /// Componentwise `≤` on the tick counters — the monotonicity the budget
    /// property tests check (a smaller budget never does more work).
    pub fn le(&self, other: &RunStats) -> bool {
        self.nodes <= other.nodes
            && self.propagations <= other.propagations
            && self.trie_advances <= other.trie_advances
            && self.tuples <= other.tuples
            && self.backtracks <= other.backtracks
    }

    /// Equality against a fault-free `baseline`, tolerating exactly one
    /// deviation: a [`FaultKind::PoisonIntermediate`](fault::FaultKind)
    /// failpoint pinning `max_intermediate` to `u64::MAX`. Every tick
    /// counter must still match exactly — poison is telemetry-only and may
    /// never change the work performed.
    pub fn eq_allowing_poisoned_intermediate(&self, baseline: &RunStats) -> bool {
        self.nodes == baseline.nodes
            && self.propagations == baseline.propagations
            && self.trie_advances == baseline.trie_advances
            && self.tuples == baseline.tuples
            && self.backtracks == baseline.backtracks
            && (self.max_intermediate == baseline.max_intermediate
                || self.max_intermediate == u64::MAX)
    }
}

/// How many ticks pass between wall-clock deadline checks. `Instant::now`
/// costs tens of nanoseconds; counted operations can be single compares, so
/// the deadline is only consulted once per interval.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// The amortized budget checker a solver threads through its inner loops.
///
/// Each counter method ([`Ticker::node`], [`Ticker::propagation`], …) bumps
/// the matching [`RunStats`] field, spends one tick, and returns
/// `Err(ExhaustReason)` once the budget is exceeded. Recursive searches
/// propagate that with `?`; entry points convert to an [`Outcome`] via
/// [`Ticker::finish`].
#[derive(Debug)]
pub struct Ticker {
    stats: RunStats,
    ticks: u64,
    limit: u64,
    start: Instant,
    time_limit: Option<Duration>,
    next_deadline_check: u64,
    /// Compiled snapshot of the fault plan active (via [`fault::with_plan`])
    /// when this ticker was constructed; `None` on the common, fault-free
    /// path. Boxed to keep the no-faults `Ticker` small.
    faults: Option<Box<ActiveFaults>>,
}

impl Ticker {
    /// Starts the clock on a fresh run under `budget`.
    ///
    /// Snapshots the thread's active [`FaultPlan`] (if one is installed via
    /// [`fault::with_plan`]) so the whole run replays the same schedule even
    /// if the plan changes mid-run.
    pub fn new(budget: &Budget) -> Ticker {
        Ticker::build(budget, fault::snapshot_active())
    }

    /// Starts a run under `budget` with an **explicit** fault plan, ignoring
    /// any ambient plan installed via [`fault::with_plan`].
    ///
    /// This is the plan-passing alternative to the thread-local ambient API:
    /// harnesses that construct the ticker themselves can thread the plan as
    /// a value instead of scoping a closure, and the two paths compile the
    /// identical schedule (see `fault` tests). An empty plan is the
    /// fault-free fast path.
    pub fn with_fault_plan(budget: &Budget, plan: &fault::FaultPlan) -> Ticker {
        Ticker::build(budget, Some(plan.clone()))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the engine is where wall-clock budgets are implemented"
    )]
    fn build(budget: &Budget, plan: Option<fault::FaultPlan>) -> Ticker {
        Ticker {
            stats: RunStats::default(),
            ticks: 0,
            limit: budget.max_ticks().unwrap_or(u64::MAX),
            start: Instant::now(),
            time_limit: budget.time_limit(),
            // The first counted op consults the clock, so an already-expired
            // deadline exhausts immediately (mirroring `Budget::ticks(0)`);
            // after that, checks are amortized per interval.
            next_deadline_check: 1,
            faults: plan
                .filter(|p| !p.is_empty())
                .map(|p| Box::new(ActiveFaults::compile(&p))),
        }
    }

    #[inline]
    fn spend(&mut self) -> Result<(), ExhaustReason> {
        self.ticks += 1;
        if self.ticks > self.limit {
            return Err(ExhaustReason::Ticks { limit: self.limit });
        }
        if let Some(f) = &mut self.faults {
            if f.fire_exhaust(self.ticks) {
                return Err(ExhaustReason::Injected { tick: self.ticks });
            }
            if f.fire_deadline(self.ticks) {
                // A simulated expiry: the solver observes the same reason a
                // real deadline would produce, with no wall time involved.
                return Err(ExhaustReason::Deadline {
                    limit: self.time_limit.unwrap_or(Duration::ZERO),
                });
            }
        }
        if let Some(limit) = self.time_limit {
            if self.ticks >= self.next_deadline_check {
                self.next_deadline_check = self.ticks + DEADLINE_CHECK_INTERVAL;
                if self.start.elapsed() >= limit {
                    return Err(ExhaustReason::Deadline { limit });
                }
            }
        }
        Ok(())
    }

    /// Counts one search node expanded.
    #[inline]
    pub fn node(&mut self) -> Result<(), ExhaustReason> {
        self.stats.nodes += 1;
        self.spend()
    }

    /// Counts one inference/propagation step.
    #[inline]
    pub fn propagation(&mut self) -> Result<(), ExhaustReason> {
        self.stats.propagations += 1;
        self.spend()
    }

    /// Counts one sorted-index advance (binary search / range narrowing).
    ///
    /// This is the operation a [`FaultKind::TrieAdvance`] failpoint targets:
    /// the scheduled Nth advance fails with [`ExhaustReason::Injected`],
    /// exercising the iterator edge cases (exhausted trie levels
    /// mid-intersection) that WCOJ implementations are fragile under.
    #[inline]
    pub fn trie_advance(&mut self) -> Result<(), ExhaustReason> {
        self.stats.trie_advances += 1;
        let nth = self.stats.trie_advances;
        if let Some(f) = &mut self.faults {
            if f.fire_trie(nth) {
                self.ticks += 1; // the failing advance is still a counted op
                return Err(ExhaustReason::Injected { tick: self.ticks });
            }
        }
        self.spend()
    }

    /// Counts one tuple materialized.
    #[inline]
    pub fn tuple(&mut self) -> Result<(), ExhaustReason> {
        self.stats.tuples += 1;
        self.spend()
    }

    /// Counts `n` tuples materialized in one step (one tick: bulk
    /// materialization like a hash-join output batch is one operation from
    /// the budget's point of view, but the telemetry records every tuple).
    #[inline]
    pub fn tuples(&mut self, n: u64) -> Result<(), ExhaustReason> {
        self.stats.tuples += n;
        self.spend()
    }

    /// Counts one backtrack/pruning/conflict.
    #[inline]
    pub fn backtrack(&mut self) -> Result<(), ExhaustReason> {
        self.stats.backtracks += 1;
        self.spend()
    }

    /// Records an intermediate-result high-water mark (no tick).
    ///
    /// A scheduled [`FaultKind::PoisonIntermediate`] failpoint poisons the
    /// Nth recorded size to `u64::MAX` — a simulated size-counter overflow
    /// that downstream telemetry consumers must survive.
    #[inline]
    pub fn record_intermediate(&mut self, size: u64) {
        let mut size = size;
        if let Some(f) = &mut self.faults {
            f.intermediate_calls += 1;
            let nth = f.intermediate_calls;
            if f.fire_poison(nth) {
                size = u64::MAX;
            }
        }
        self.stats.max_intermediate = self.stats.max_intermediate.max(size);
    }

    /// Folds another run's counters into this one (no tick; used when a
    /// solver delegates to a budgeted sub-solver that kept its own stats).
    pub fn absorb(&mut self, other: &RunStats) {
        self.stats.absorb(other);
        self.ticks += other.total_ops();
    }

    /// The unspent remainder of this run's budget, for handing to a
    /// budgeted sub-solver (whose stats are then folded back in with
    /// [`Ticker::absorb`]). Unlimited dimensions stay unlimited; the
    /// wall-clock limit becomes the time still left on this run's deadline.
    pub fn remaining_budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if self.limit != u64::MAX {
            b = b.with_ticks(self.limit.saturating_sub(self.ticks));
        }
        if let Some(limit) = self.time_limit {
            b = b.with_deadline(limit.saturating_sub(self.start.elapsed()));
        }
        b
    }

    /// The counters so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Ticks spent so far.
    pub fn ticks_spent(&self) -> u64 {
        self.ticks
    }

    /// True when no charge on this ticker can ever fail: no tick limit, no
    /// deadline and no fault plan. A run on such a ticker always completes,
    /// so its work may be split and its counters summed from the parts.
    pub fn cannot_exhaust(&self) -> bool {
        self.limit == u64::MAX && self.time_limit.is_none() && self.faults.is_none()
    }

    /// Finishes the run: pairs the search result (in the canonical
    /// `Result<Option<W>, ExhaustReason>` shape) with the collected stats.
    pub fn finish<W>(self, result: Result<Option<W>, ExhaustReason>) -> (Outcome<W>, RunStats) {
        (Outcome::from(result), self.stats)
    }

    /// Finishes the run with an already-built outcome.
    pub fn finish_with<W>(self, outcome: Outcome<W>) -> (Outcome<W>, RunStats) {
        (outcome, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut t = Ticker::new(&Budget::unlimited());
        for _ in 0..100_000 {
            t.node().expect("unlimited");
        }
        assert_eq!(t.stats().nodes, 100_000);
        assert_eq!(t.ticks_spent(), 100_000);
    }

    #[test]
    fn tick_limit_is_exact() {
        let mut t = Ticker::new(&Budget::ticks(3));
        assert!(t.node().is_ok());
        assert!(t.propagation().is_ok());
        assert!(t.backtrack().is_ok());
        let err = t.tuple().unwrap_err();
        assert_eq!(err, ExhaustReason::Ticks { limit: 3 });
        // Counters still record the operation that crossed the limit.
        assert_eq!(t.stats().tuples, 1);
        assert_eq!(t.stats().total_ops(), 4);
    }

    #[test]
    fn zero_budget_exhausts_on_first_op() {
        let mut t = Ticker::new(&Budget::ticks(0));
        assert!(t.node().is_err());
    }

    #[test]
    fn deadline_in_the_past_exhausts_on_first_op() {
        // Mirrors the `Budget::ticks(0)` guarantee: an already-expired
        // deadline exhausts on the very first counted operation.
        let mut t = Ticker::new(&Budget::deadline(Duration::ZERO));
        let err = t.node().unwrap_err();
        assert!(matches!(err, ExhaustReason::Deadline { .. }));
        assert_eq!(t.stats().total_ops(), 1, "the crossing op is counted");
    }

    #[test]
    fn outcome_accessors() {
        let sat: Outcome<u32> = Outcome::Sat(7);
        assert!(sat.is_sat() && sat.is_decided());
        assert_eq!(sat.sat(), Some(7));
        assert_eq!(sat.map(|x| x + 1), Outcome::Sat(8));
        let unsat: Outcome<u32> = Outcome::Unsat;
        assert!(unsat.is_unsat());
        assert_eq!(unsat.decided(), Some(None));
        let ex: Outcome<u32> = Outcome::Exhausted(ExhaustReason::Ticks { limit: 1 });
        assert!(ex.is_exhausted() && !ex.is_decided());
        assert_eq!(ex.decided(), None);
        assert_eq!(ex.exhaust_reason(), Some(ExhaustReason::Ticks { limit: 1 }));
    }

    #[test]
    #[should_panic(expected = "unwrap_sat")]
    fn unwrap_sat_panics_on_unsat() {
        let _ = Outcome::<u32>::Unsat.unwrap_sat();
    }

    #[test]
    #[should_panic(expected = "Exhausted")]
    fn unwrap_decided_panics_on_exhausted() {
        let _ = Outcome::<u32>::Exhausted(ExhaustReason::Ticks { limit: 0 }).unwrap_decided();
    }

    #[test]
    fn from_result_bridge() {
        assert_eq!(Outcome::from(Ok(Some(1u32))), Outcome::Sat(1));
        assert_eq!(Outcome::from(Ok(None::<u32>)), Outcome::Unsat);
        assert!(Outcome::<u32>::from(Err(ExhaustReason::Ticks { limit: 9 })).is_exhausted());
    }

    #[test]
    fn stats_absorb_and_le() {
        let mut a = RunStats {
            nodes: 1,
            propagations: 2,
            trie_advances: 0,
            tuples: 3,
            backtracks: 0,
            max_intermediate: 10,
        };
        let b = RunStats {
            nodes: 4,
            max_intermediate: 5,
            ..RunStats::default()
        };
        assert!(b.le(&RunStats {
            nodes: 4,
            propagations: 9,
            ..RunStats::default()
        }));
        a.absorb(&b);
        assert_eq!(a.nodes, 5);
        assert_eq!(a.max_intermediate, 10);
        assert_eq!(a.total_ops(), 10);
    }

    #[test]
    fn ticker_absorb_spends_ticks() {
        let mut t = Ticker::new(&Budget::ticks(10));
        let sub = RunStats {
            nodes: 7,
            ..RunStats::default()
        };
        t.absorb(&sub);
        assert_eq!(t.ticks_spent(), 7);
        assert!(t.node().is_ok());
        assert!(t.node().is_ok());
        assert!(t.node().is_ok());
        assert!(t.node().is_err());
    }

    #[test]
    fn remaining_budget_shrinks_with_spend() {
        let mut t = Ticker::new(&Budget::unlimited());
        t.node().expect("unlimited");
        assert!(t.remaining_budget().is_unlimited());

        let mut t = Ticker::new(&Budget::ticks(5));
        t.node().expect("within budget");
        t.node().expect("within budget");
        assert_eq!(t.remaining_budget().max_ticks(), Some(3));
        for _ in 0..10 {
            let _ = t.node();
        }
        assert_eq!(t.remaining_budget().max_ticks(), Some(0));
    }

    #[test]
    fn budget_builders() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        let b = Budget::ticks(5).with_deadline(Duration::from_millis(1));
        assert_eq!(b.max_ticks(), Some(5));
        assert!(b.time_limit().is_some());
        assert!(!b.is_unlimited());
    }

    #[test]
    fn cannot_exhaust_only_without_limits_or_faults() {
        assert!(Ticker::new(&Budget::unlimited()).cannot_exhaust());
        assert!(!Ticker::new(&Budget::ticks(1 << 40)).cannot_exhaust());
        assert!(!Ticker::new(&Budget::deadline(Duration::from_secs(3600))).cannot_exhaust());
        let poison = FaultPlan::new().with_point(FaultKind::PoisonIntermediate, 1);
        assert!(!Ticker::with_fault_plan(&Budget::unlimited(), &poison).cannot_exhaust());
        assert!(!fault::with_plan(&poison, || Ticker::new(
            &Budget::unlimited()
        )
        .cannot_exhaust()));
        assert!(Ticker::with_fault_plan(&Budget::unlimited(), &FaultPlan::new()).cannot_exhaust());
    }
}
