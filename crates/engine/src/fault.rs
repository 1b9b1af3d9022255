//! Deterministic fault injection (failpoints) for the engine layer.
//!
//! A [`FaultPlan`] is a *schedule* of faults, each pinned to an exact
//! operation count — not to wall-clock time, thread timing, or any other
//! machine-dependent quantity. Installing a plan with [`with_plan`] makes
//! every [`Ticker`](crate::Ticker) created inside the closure consult the
//! schedule, so a solver run under a plan is **replayable byte-for-byte**:
//! the same plan and the same instance produce the same
//! [`Outcome`](crate::Outcome) and the same [`RunStats`](crate::RunStats),
//! every time, on every machine.
//!
//! Four fault kinds cover the failure modes the chaos harness exercises:
//!
//! * [`FaultKind::Exhaust`] — the budget is forcibly exhausted at tick N
//!   with [`ExhaustReason::Injected`](crate::ExhaustReason::Injected), as if
//!   the tick limit had been reached there.
//! * [`FaultKind::Deadline`] — a simulated wall-clock deadline expiry at
//!   tick N: the solver observes
//!   [`ExhaustReason::Deadline`](crate::ExhaustReason::Deadline) without any
//!   real time passing, making deadline paths deterministic to test.
//! * [`FaultKind::TrieAdvance`] — the Nth sorted-index advance fails
//!   (Leapfrog-Triejoin-style iterator edge cases: an exhausted trie level
//!   mid-intersection). Solvers that never advance a trie never observe it.
//! * [`FaultKind::PoisonIntermediate`] — the Nth recorded intermediate-size
//!   high-water mark is poisoned to `u64::MAX`, simulating an overflowed
//!   size counter; downstream consumers of the telemetry must not misbehave.
//!
//! The soundness invariant under faults is the engine contract unchanged: a
//! fault may only ever cost *completeness* (the run reports `Exhausted`),
//! never *soundness* (a wrong `Sat`/`Unsat` verdict). The chaos harness
//! checks exactly that, differentially against brute-force oracles.
//!
//! # Example
//!
//! ```
//! use lb_engine::fault::{with_plan, FaultKind, FaultPlan};
//! use lb_engine::{Budget, ExhaustReason, Ticker};
//!
//! let plan = FaultPlan::new().with_point(FaultKind::Exhaust, 2);
//! let err = with_plan(&plan, || {
//!     let mut t = Ticker::new(&Budget::unlimited());
//!     assert!(t.node().is_ok());
//!     t.node().unwrap_err() // the second counted op hits the failpoint
//! });
//! assert_eq!(err, ExhaustReason::Injected { tick: 2 });
//! ```

use crate::parse::{ParseError, ParseErrorKind};
use std::cell::RefCell;
use std::fmt;

/// What a scheduled fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Force budget exhaustion (`ExhaustReason::Injected`) at tick N.
    Exhaust,
    /// Simulate wall-clock deadline expiry (`ExhaustReason::Deadline`) at
    /// tick N, without any real time passing.
    Deadline,
    /// Fail the Nth trie/sorted-index advance with
    /// `ExhaustReason::Injected`.
    TrieAdvance,
    /// Poison the Nth recorded intermediate-size high-water mark to
    /// `u64::MAX` (simulated size-counter overflow). Does not abort the run.
    PoisonIntermediate,
}

impl FaultKind {
    /// The stable name used in the serialized plan spec.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Exhaust => "exhaust",
            FaultKind::Deadline => "deadline",
            FaultKind::TrieAdvance => "trie",
            FaultKind::PoisonIntermediate => "poison",
        }
    }

    /// Parses a spec name.
    pub fn from_name(name: &str) -> Option<FaultKind> {
        match name {
            "exhaust" => Some(FaultKind::Exhaust),
            "deadline" => Some(FaultKind::Deadline),
            "trie" => Some(FaultKind::TrieAdvance),
            "poison" => Some(FaultKind::PoisonIntermediate),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` fires at operation count `at` (1-based).
///
/// For [`FaultKind::Exhaust`] and [`FaultKind::Deadline`] the count is the
/// ticker's global tick; for [`FaultKind::TrieAdvance`] it is the Nth
/// trie-advance operation; for [`FaultKind::PoisonIntermediate`] the Nth
/// `record_intermediate` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPoint {
    /// The 1-based operation count at which the fault fires.
    pub at: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A seeded, serializable schedule of injected faults.
///
/// Plans are value types: build one with [`FaultPlan::new`] +
/// [`FaultPlan::with_point`], derive one deterministically from a seed with
/// [`FaultPlan::from_seed`], or parse the textual spec emitted by
/// [`fmt::Display`] (round-trips exactly). Install with [`with_plan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// The empty plan: no faults fire.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a scheduled fault (builder style). `at` is 1-based; an `at` of
    /// zero never fires.
    pub fn with_point(mut self, kind: FaultKind, at: u64) -> FaultPlan {
        self.points.push(FaultPoint { at, kind });
        self
    }

    /// Derives a plan deterministically from a seed: one to three fault
    /// points with log-distributed positions (small operation counts are
    /// likelier, so short solver runs still observe faults). The same seed
    /// always yields the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut state = seed;
        let mut plan = FaultPlan::new();
        let count = 1 + splitmix(&mut state) % 3;
        for _ in 0..count {
            let kind = match splitmix(&mut state) % 4 {
                0 => FaultKind::Exhaust,
                1 => FaultKind::Deadline,
                2 => FaultKind::TrieAdvance,
                _ => FaultKind::PoisonIntermediate,
            };
            // Log-distributed in [1, 2^16]: pick a magnitude, then a value.
            let magnitude = splitmix(&mut state) % 16;
            let at = 1 + splitmix(&mut state) % (1u64 << magnitude).max(1);
            plan.points.push(FaultPoint { at, kind });
        }
        plan
    }

    /// The scheduled fault points, in insertion order.
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }

    /// True iff no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Parses the textual spec produced by [`fmt::Display`]:
    /// comma-separated `kind@count` entries, e.g. `exhaust@120,trie@5`.
    /// The empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, ParseError> {
        let mut plan = FaultPlan::new();
        let mut col = 1usize;
        for entry in spec.split(',') {
            let entry_col = col;
            col += entry.len() + 1;
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, at)) = entry.split_once('@') else {
                return Err(ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("fault point `{entry}` (expected `kind@count`)"),
                    },
                ));
            };
            let kind = FaultKind::from_name(name.trim()).ok_or_else(|| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("unknown fault kind `{}`", name.trim()),
                    },
                )
            })?;
            let at: u64 = at.trim().parse().map_err(|_| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::InvalidNumber {
                        what: "fault operation count".into(),
                        token: at.trim().to_string(),
                    },
                )
            })?;
            plan.points.push(FaultPoint { at, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}@{}", p.kind.name(), p.at)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<FaultPlan, ParseError> {
        FaultPlan::parse(s)
    }
}

/// SplitMix64 (Steele, Lea and Flood), the workspace's one deterministic
/// generator: advances `state` and returns the next value of its stream.
/// Fault plans, network fault plans, client backoff jitter, the chaos
/// instance generators and the soak job mix all draw from it, so a seed
/// replays the same stream everywhere.
#[inline]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// lb-lint: allow(send-hostile-state) -- the ambient-plan API is deliberately thread-scoped: a plan installed by `with_plan` must never leak to sibling test threads, and `Ticker::new` snapshots it into the (Send-clean) ticker before any checkpoint can observe it; plan-passing callers use `Ticker::with_fault_plan` instead
thread_local! {
    static ACTIVE_PLAN: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
}

/// Which stage of an atomic checkpoint save an [`IoFaultPlan`] point
/// targets. The atomic-save pipeline is tmp-write → fsync → rename; a fault
/// at any stage must leave the *destination* file untouched (the previous
/// checkpoint, or absence), with at most a torn `.tmp` sibling behind. A
/// frame-log append (`lb_engine::checkpoint::append_frame`) has the first
/// two stages only (write → `fdatasync`) and must leave the log's complete
/// frames as they were.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoFaultKind {
    /// The write into the `.tmp` sibling fails partway: only a prefix of
    /// the bytes lands, simulating `ENOSPC`/a crashed writer. This is the
    /// fault that *manufactures* a torn spool file for recovery tests.
    TmpWrite,
    /// The `fsync` of the fully written `.tmp` file fails.
    Sync,
    /// The rename of the synced `.tmp` over the destination fails.
    Rename,
}

impl IoFaultKind {
    /// The stable name used in the serialized plan spec.
    pub fn name(self) -> &'static str {
        match self {
            IoFaultKind::TmpWrite => "save-write",
            IoFaultKind::Sync => "save-sync",
            IoFaultKind::Rename => "save-rename",
        }
    }

    /// Parses a spec name.
    pub fn from_name(name: &str) -> Option<IoFaultKind> {
        match name {
            "save-write" => Some(IoFaultKind::TmpWrite),
            "save-sync" => Some(IoFaultKind::Sync),
            "save-rename" => Some(IoFaultKind::Rename),
            _ => None,
        }
    }
}

/// One scheduled I/O fault: `kind` fires on the `at`-th atomic-save attempt
/// (1-based) observed inside the installing [`with_io_plan`] scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultPoint {
    /// The 1-based save-attempt count at which the fault fires.
    pub at: u64,
    /// Which pipeline stage fails.
    pub kind: IoFaultKind,
}

/// A deterministic schedule of injected I/O failures for the atomic
/// checkpoint-save pipeline (`lb_engine::checkpoint::atomic_write`) and
/// the frame-log append (`lb_engine::checkpoint::append_frame`).
///
/// Where [`FaultPlan`] counts solver operations, an `IoFaultPlan` counts
/// *save attempts*: the Nth `atomic_write` or `append_frame` call inside a
/// [`with_io_plan`] scope fails at the scheduled stage with a typed
/// [`CheckpointError::Io`](crate::CheckpointError::Io) — never a panic, and
/// never a torn destination file or log. The chaos suite uses this to prove the
/// spool's crash-safety invariant without real disk failures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    points: Vec<IoFaultPoint>,
}

impl IoFaultPlan {
    /// The empty plan: every save succeeds.
    pub fn new() -> IoFaultPlan {
        IoFaultPlan::default()
    }

    /// Adds a scheduled fault (builder style). `at` is 1-based; an `at` of
    /// zero never fires.
    pub fn with_point(mut self, kind: IoFaultKind, at: u64) -> IoFaultPlan {
        self.points.push(IoFaultPoint { at, kind });
        self
    }

    /// Derives a plan deterministically from a seed: one to three faults on
    /// the first few save attempts (saves are far rarer than solver ticks,
    /// so small attempt counts are the interesting ones).
    pub fn from_seed(seed: u64) -> IoFaultPlan {
        let mut state = seed ^ 0x10_fa17;
        let mut plan = IoFaultPlan::new();
        let count = 1 + splitmix(&mut state) % 3;
        for _ in 0..count {
            let kind = match splitmix(&mut state) % 3 {
                0 => IoFaultKind::TmpWrite,
                1 => IoFaultKind::Sync,
                _ => IoFaultKind::Rename,
            };
            let at = 1 + splitmix(&mut state) % 6;
            plan.points.push(IoFaultPoint { at, kind });
        }
        plan
    }

    /// The scheduled fault points, in insertion order.
    pub fn points(&self) -> &[IoFaultPoint] {
        &self.points
    }

    /// True iff no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Parses the textual spec produced by [`fmt::Display`]:
    /// comma-separated `stage@attempt` entries, e.g.
    /// `save-write@1,save-rename@3`. The empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<IoFaultPlan, ParseError> {
        let mut plan = IoFaultPlan::new();
        let mut col = 1usize;
        for entry in spec.split(',') {
            let entry_col = col;
            col += entry.len() + 1;
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, at)) = entry.split_once('@') else {
                return Err(ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("io fault point `{entry}` (expected `stage@attempt`)"),
                    },
                ));
            };
            let kind = IoFaultKind::from_name(name.trim()).ok_or_else(|| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::Malformed {
                        what: format!("unknown io fault stage `{}`", name.trim()),
                    },
                )
            })?;
            let at: u64 = at.trim().parse().map_err(|_| {
                ParseError::new(
                    1,
                    entry_col,
                    ParseErrorKind::InvalidNumber {
                        what: "io fault attempt count".into(),
                        token: at.trim().to_string(),
                    },
                )
            })?;
            plan.points.push(IoFaultPoint { at, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for IoFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}@{}", p.kind.name(), p.at)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for IoFaultPlan {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<IoFaultPlan, ParseError> {
        IoFaultPlan::parse(s)
    }
}

/// Compiled I/O fault schedule with per-stage consumption cursors and the
/// scope's running save-attempt counter.
#[derive(Debug)]
struct ActiveIoFaults {
    write: Schedule,
    sync: Schedule,
    rename: Schedule,
    attempts: u64,
}

impl ActiveIoFaults {
    fn compile(plan: &IoFaultPlan) -> ActiveIoFaults {
        let mut f = ActiveIoFaults {
            write: Schedule::default(),
            sync: Schedule::default(),
            rename: Schedule::default(),
            attempts: 0,
        };
        for p in &plan.points {
            if p.at == 0 {
                continue; // 1-based counts: zero never fires
            }
            match p.kind {
                IoFaultKind::TmpWrite => f.write.at.push(p.at),
                IoFaultKind::Sync => f.sync.at.push(p.at),
                IoFaultKind::Rename => f.rename.at.push(p.at),
            }
        }
        f.write.at.sort_unstable();
        f.sync.at.sort_unstable();
        f.rename.at.sort_unstable();
        f
    }
}

// lb-lint: allow(send-hostile-state) -- like ACTIVE_PLAN above, the io-fault schedule is deliberately thread-scoped (a plan installed by `with_io_plan` must not leak to sibling test threads); `atomic_write` consults it synchronously and nothing Send-serializable captures it
thread_local! {
    static ACTIVE_IO: RefCell<Option<ActiveIoFaults>> = const { RefCell::new(None) };
}

/// Restores the previous I/O fault schedule (cursors included) when the
/// scope ends, panic or not.
struct RestoreIo(Option<ActiveIoFaults>);

impl Drop for RestoreIo {
    fn drop(&mut self) {
        let prev = self.0.take();
        ACTIVE_IO.with(|p| *p.borrow_mut() = prev);
    }
}

/// Runs `f` with `plan` installed as this thread's active I/O fault
/// schedule. Every `lb_engine::checkpoint::atomic_write` or `append_frame`
/// call inside `f` counts as one save attempt and consults the schedule.
/// Calls nest; the previous schedule (with its consumption cursors) is
/// restored when the scope ends, panic or not.
pub fn with_io_plan<R>(plan: &IoFaultPlan, f: impl FnOnce() -> R) -> R {
    let compiled = ActiveIoFaults::compile(plan);
    let prev = ACTIVE_IO.with(|p| p.borrow_mut().replace(compiled));
    let _restore = RestoreIo(prev);
    f()
}

/// Begins one atomic-save attempt: bumps the scope's attempt counter and
/// returns its 1-based value, or 0 when no I/O plan is installed (the
/// fault-free fast path — [`io_should_fail`] never fires for attempt 0).
pub(crate) fn io_attempt_begin() -> u64 {
    ACTIVE_IO.with(|p| {
        p.borrow_mut().as_mut().map_or(0, |a| {
            a.attempts += 1;
            a.attempts
        })
    })
}

/// Whether the scheduled fault for `kind` fires on save attempt `attempt`.
/// Consumes the matching schedule point (each point fires once).
pub(crate) fn io_should_fail(kind: IoFaultKind, attempt: u64) -> bool {
    if attempt == 0 {
        return false;
    }
    ACTIVE_IO.with(|p| {
        p.borrow_mut().as_mut().is_some_and(|a| match kind {
            IoFaultKind::TmpWrite => a.write.fire(attempt),
            IoFaultKind::Sync => a.sync.fire(attempt),
            IoFaultKind::Rename => a.rename.fire(attempt),
        })
    })
}

/// Restores the previously installed plan when the scope ends (also on
/// panic, so a failing test cannot leak its plan into the next one).
struct Restore(Option<FaultPlan>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        ACTIVE_PLAN.with(|p| *p.borrow_mut() = prev);
    }
}

/// Runs `f` with `plan` installed as this thread's active fault plan.
///
/// Every [`Ticker`](crate::Ticker) created inside `f` snapshots the plan at
/// construction and consults it on each counted operation. Calls nest: the
/// previous plan (if any) is restored when the scope ends, panic or not.
pub fn with_plan<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    let prev = ACTIVE_PLAN.with(|p| p.borrow_mut().replace(plan.clone()));
    let _restore = Restore(prev);
    f()
}

/// The plan a freshly constructed `Ticker` should snapshot, if any.
pub(crate) fn snapshot_active() -> Option<FaultPlan> {
    ACTIVE_PLAN.with(|p| p.borrow().clone())
}

/// A compiled plan: per-kind sorted firing schedules with consumption
/// cursors, checked in O(1) per operation.
#[derive(Debug)]
pub(crate) struct ActiveFaults {
    exhaust: Schedule,
    deadline: Schedule,
    trie: Schedule,
    poison: Schedule,
    /// `record_intermediate` calls seen so far (the poison index).
    pub(crate) intermediate_calls: u64,
}

#[derive(Debug, Default)]
struct Schedule {
    at: Vec<u64>,
    next: usize,
}

impl Schedule {
    /// Fires (once) when the operation count reaches or passes the next
    /// scheduled point. `<=` rather than `==` so bulk tick jumps (e.g.
    /// `Ticker::absorb`) cannot step over a scheduled fault.
    fn fire(&mut self, count: u64) -> bool {
        if self.next < self.at.len() && self.at[self.next] <= count {
            self.next += 1;
            true
        } else {
            false
        }
    }
}

impl ActiveFaults {
    pub(crate) fn compile(plan: &FaultPlan) -> ActiveFaults {
        let mut f = ActiveFaults {
            exhaust: Schedule::default(),
            deadline: Schedule::default(),
            trie: Schedule::default(),
            poison: Schedule::default(),
            intermediate_calls: 0,
        };
        for p in &plan.points {
            if p.at == 0 {
                continue; // 1-based counts: zero never fires
            }
            match p.kind {
                FaultKind::Exhaust => f.exhaust.at.push(p.at),
                FaultKind::Deadline => f.deadline.at.push(p.at),
                FaultKind::TrieAdvance => f.trie.at.push(p.at),
                FaultKind::PoisonIntermediate => f.poison.at.push(p.at),
            }
        }
        f.exhaust.at.sort_unstable();
        f.deadline.at.sort_unstable();
        f.trie.at.sort_unstable();
        f.poison.at.sort_unstable();
        f
    }

    pub(crate) fn fire_exhaust(&mut self, tick: u64) -> bool {
        self.exhaust.fire(tick)
    }

    pub(crate) fn fire_deadline(&mut self, tick: u64) -> bool {
        self.deadline.fire(tick)
    }

    pub(crate) fn fire_trie(&mut self, nth_advance: u64) -> bool {
        self.trie.fire(nth_advance)
    }

    pub(crate) fn fire_poison(&mut self, nth_call: u64) -> bool {
        self.poison.fire(nth_call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, ExhaustReason, Ticker};
    use std::time::Duration;

    #[test]
    fn splitmix_reproduces_the_published_stream() {
        // SplitMix64 from seed 0, as in the reference implementation: every
        // seeded plan, storm and backoff jitter replays from these values.
        let mut state = 0;
        let stream: Vec<u64> = (0..3).map(|_| splitmix(&mut state)).collect();
        assert_eq!(
            stream,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::new()
            .with_point(FaultKind::Exhaust, 120)
            .with_point(FaultKind::TrieAdvance, 5)
            .with_point(FaultKind::Deadline, 9)
            .with_point(FaultKind::PoisonIntermediate, 2);
        let spec = plan.to_string();
        assert_eq!(spec, "exhaust@120,trie@5,deadline@9,poison@2");
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(FaultPlan::parse("exhaust").is_err());
        assert!(FaultPlan::parse("nosuch@4").is_err());
        assert!(FaultPlan::parse("exhaust@x").is_err());
    }

    #[test]
    fn from_seed_is_deterministic_and_nonempty() {
        for seed in 0..50u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.points().iter().all(|p| p.at >= 1));
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn injected_exhaust_fires_at_exact_tick() {
        let plan = FaultPlan::new().with_point(FaultKind::Exhaust, 3);
        with_plan(&plan, || {
            let mut t = Ticker::new(&Budget::unlimited());
            assert!(t.node().is_ok());
            assert!(t.propagation().is_ok());
            let err = t.tuple().unwrap_err();
            assert_eq!(err, ExhaustReason::Injected { tick: 3 });
        });
    }

    #[test]
    fn injected_deadline_is_deterministic() {
        let plan = FaultPlan::new().with_point(FaultKind::Deadline, 2);
        with_plan(&plan, || {
            let mut t = Ticker::new(&Budget::unlimited());
            assert!(t.node().is_ok());
            let err = t.node().unwrap_err();
            assert_eq!(
                err,
                ExhaustReason::Deadline {
                    limit: Duration::ZERO
                }
            );
        });
    }

    #[test]
    fn trie_fault_hits_only_trie_advances() {
        let plan = FaultPlan::new().with_point(FaultKind::TrieAdvance, 2);
        with_plan(&plan, || {
            let mut t = Ticker::new(&Budget::unlimited());
            // Non-trie operations sail past the trie failpoint.
            for _ in 0..10 {
                assert!(t.node().is_ok());
            }
            assert!(t.trie_advance().is_ok());
            let err = t.trie_advance().unwrap_err();
            assert!(matches!(err, ExhaustReason::Injected { .. }));
        });
    }

    #[test]
    fn poison_overflows_the_high_water_mark() {
        let plan = FaultPlan::new().with_point(FaultKind::PoisonIntermediate, 2);
        with_plan(&plan, || {
            let mut t = Ticker::new(&Budget::unlimited());
            t.record_intermediate(7);
            assert_eq!(t.stats().max_intermediate, 7);
            t.record_intermediate(3); // poisoned
            assert_eq!(t.stats().max_intermediate, u64::MAX);
        });
    }

    #[test]
    fn plans_scope_and_nest() {
        let outer = FaultPlan::new().with_point(FaultKind::Exhaust, 1);
        let inner = FaultPlan::new().with_point(FaultKind::Exhaust, 2);
        with_plan(&outer, || {
            with_plan(&inner, || {
                let mut t = Ticker::new(&Budget::unlimited());
                assert!(t.node().is_ok()); // inner plan: tick 1 passes
                assert!(t.node().is_err());
            });
            // Outer plan restored: tick 1 faults.
            let mut t = Ticker::new(&Budget::unlimited());
            assert!(t.node().is_err());
        });
        // No plan: nothing fires.
        let mut t = Ticker::new(&Budget::unlimited());
        assert!(t.node().is_ok());
    }

    #[test]
    fn ticker_snapshots_plan_at_construction() {
        let plan = FaultPlan::new().with_point(FaultKind::Exhaust, 1);
        let mut t = with_plan(&plan, || Ticker::new(&Budget::unlimited()));
        // The ticker keeps its snapshot even after the scope ended.
        assert!(t.node().is_err());
    }

    #[test]
    fn explicit_plan_matches_ambient_plan() {
        let plan = FaultPlan::new()
            .with_point(FaultKind::Exhaust, 4)
            .with_point(FaultKind::PoisonIntermediate, 1);
        let run = |mut t: Ticker| {
            t.record_intermediate(9);
            let mut ops = 0u64;
            let err = loop {
                ops += 1;
                if let Err(e) = t.node() {
                    break e;
                }
            };
            (ops, err, t.stats())
        };
        let ambient = with_plan(&plan, || run(Ticker::new(&Budget::unlimited())));
        let explicit = run(Ticker::with_fault_plan(&Budget::unlimited(), &plan));
        assert_eq!(
            ambient, explicit,
            "the two plan APIs must compile identically"
        );
    }

    #[test]
    fn explicit_plan_ignores_the_ambient_plan() {
        let ambient = FaultPlan::new().with_point(FaultKind::Exhaust, 1);
        let explicit = FaultPlan::new(); // empty: nothing may fire
        let mut t = with_plan(&ambient, || {
            Ticker::with_fault_plan(&Budget::unlimited(), &explicit)
        });
        assert!(t.node().is_ok(), "ambient exhaust@1 must not leak in");
    }

    #[test]
    fn bulk_tick_jumps_cannot_skip_faults() {
        let plan = FaultPlan::new().with_point(FaultKind::Exhaust, 5);
        with_plan(&plan, || {
            let mut t = Ticker::new(&Budget::unlimited());
            let sub = crate::RunStats {
                nodes: 50,
                ..crate::RunStats::default()
            };
            t.absorb(&sub); // jumps ticks from 0 to 50, over the failpoint
            assert!(t.node().is_err(), "the next op observes the passed fault");
        });
    }
}
