//! DPLL: backtracking SAT with unit propagation and pure literals.
//!
//! This is the "real" solver whose still-exponential scaling experiment E4
//! measures against the 2^n brute force; the ETH (§6) asserts the
//! exponential cannot be removed. Unit propagation and pure-literal
//! elimination can be toggled off individually — the ablation axis called
//! out in DESIGN.md.
//!
//! Engine mapping: branching decisions are [`RunStats::nodes`], unit/pure
//! assignments are [`RunStats::propagations`], dead ends are
//! [`RunStats::backtracks`].
//!
//! # Preemption safety
//!
//! The search runs on an explicit decision stack (no recursion) structured
//! as a micro-step machine: every counted operation applies its effect and
//! advances the phase to the continuation point *before* spending the
//! tick. When the budget fails mid-charge the operation is already done and
//! counted, so the engine's [`find_slice`] driver, running a
//! [`DpllSearch`] (DPLL's [`Resumable`] implementation), can serialize the
//! frontier — decision stack, assignment, simplification trail, scan
//! position — into a [`Checkpoint`] and a later call continues with the
//! *next* operation. Chained resumes therefore produce the same verdict and
//! the same summed [`RunStats`] as one uninterrupted run (the
//! slice-equivalence invariant, machine-checked in
//! `tests/resume_properties.rs`). DPLL only finds, so its payload carries no
//! mode byte and no count field.
//!
//! # Derived state
//!
//! No step rescans the clause database. Per-literal occurrence lists drive
//! counts that every assign and unassign updates: per clause, its true and
//! unassigned literals; a bitset of *hot* clauses (no true literal, at most
//! one unassigned: the conflicts and units); the number of satisfied
//! clauses; and per variable, its positive and negative occurrences in
//! clauses without a true literal. The unit scan jumps from hot clause to
//! hot clause, `Choose` compares the satisfied count with the clause count
//! and takes the `MostFrequent` argmax over the variable counts, and the
//! purity snapshot is read off the same counts. The jumps land on exactly
//! the clauses a full rescan would stop at, in the same order, so trails,
//! [`RunStats`] and checkpoint bytes do not depend on how the state is kept
//! (`tests/dpll_replay_pins.rs` pins them).
//!
//! The counts are a function of the formula and the assignment alone, so
//! they are not checkpointed: every `solve` call and every slice rebuilds
//! them in O(|F|) from the assignment it starts from. Keeping them out of
//! the payload keeps the checkpoint format, and every checkpoint already
//! spooled by a served job, valid.
//!
//! [`RunStats`]: lb_engine::RunStats
//! [`Resumable`]: lb_engine::resumable::Resumable
//! [`find_slice`]: lb_engine::resumable::find_slice
//! [`Checkpoint`]: lb_engine::checkpoint::Checkpoint

use crate::cnf::{CnfFormula, Lit};
use lb_engine::checkpoint::{CheckpointError, Digest, PayloadReader, PayloadWriter, SolverFamily};
use lb_engine::resumable::{self, Resumable};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// Payload version of DPLL checkpoints; bumped whenever the frontier
/// encoding below changes.
pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 1;

/// Branching heuristics for the DPLL search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branching {
    /// Pick the lowest-numbered unassigned variable.
    FirstUnassigned,
    /// Pick the unassigned variable occurring in the most unresolved clauses.
    MostFrequent,
}

/// Feature toggles for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DpllConfig {
    /// Propagate unit clauses before branching.
    pub unit_propagation: bool,
    /// Assign pure literals (variables occurring with one polarity only).
    pub pure_literal: bool,
    /// Branching heuristic.
    pub branching: Branching,
}

impl Default for DpllConfig {
    fn default() -> Self {
        DpllConfig {
            unit_propagation: true,
            pure_literal: true,
            branching: Branching::MostFrequent,
        }
    }
}

/// A configurable DPLL solver.
#[derive(Clone, Debug, Default)]
pub struct DpllSolver {
    config: DpllConfig,
}

/// Where the machine resumes within the current decision level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Scanning clauses from index `clause` for units/conflicts. `changed`
    /// records whether this fixpoint iteration assigned anything yet.
    UnitScan { clause: usize, changed: bool },
    /// Scanning variables from `var` against the stored purity snapshot.
    PureScan { var: usize, changed: bool },
    /// Simplification reached fixpoint: check satisfaction, then branch.
    Choose,
    /// The current subtree failed: flip or pop decisions.
    Unwind,
}

/// One committed branching decision.
#[derive(Clone, Debug)]
struct Frame {
    /// The decision variable.
    var: usize,
    /// False while the `true` branch is active; true once `false` is tried.
    tried_false: bool,
    /// Simplification assignments made at this level before the decision.
    trail: Vec<usize>,
}

/// The explicit-stack DPLL search state: the frontier a [`DpllSearch`]
/// checkpoints. Everything needed to continue the run lives here; the
/// formula and configuration are supplied externally and cross-checked via
/// an FNV digest at resume time.
#[derive(Clone, Debug)]
pub struct Machine {
    assignment: Vec<Option<bool>>,
    /// Simplification trail of the current (deepest) level.
    trail: Vec<usize>,
    frames: Vec<Frame>,
    /// Purity snapshot for the active `PureScan`, empty otherwise. Stored —
    /// not recomputed on resume — because purity is not monotone under the
    /// pure assignments the scan itself makes.
    pure_pos: Vec<bool>,
    pure_neg: Vec<bool>,
    phase: Phase,
}

/// Search state derived from [`Machine::assignment`], updated on every
/// assignment change so no step of the search rescans the clause database.
/// It is a pure function of the formula and the assignment: never
/// checkpointed, rebuilt in O(|F|) at the start of every run of a slice.
struct Derived {
    occurs: Occurrences,
    counts: Counts,
}

/// Per-literal occurrence lists in CSR form: the clauses containing the
/// literal with code `c` are `clauses[start[c]..start[c + 1]]`.
struct Occurrences {
    start: Vec<usize>,
    clauses: Vec<usize>,
}

/// Clause and variable counts under the current assignment.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    /// Per clause: literals currently true.
    true_lits: Vec<usize>,
    /// Per clause: literals currently unassigned.
    free: Vec<usize>,
    /// Bit `c` is set iff clause `c` is *hot*: no true literal and at most
    /// one unassigned one, i.e. a conflict or a unit.
    hot: Vec<u64>,
    /// Clauses with at least one true literal.
    satisfied: usize,
    /// Per variable: positive and negative occurrences in clauses without
    /// a true literal (whatever the variable's own value).
    pos: Vec<usize>,
    neg: Vec<usize>,
}

impl Derived {
    fn new(f: &CnfFormula, assignment: &[Option<bool>]) -> Derived {
        // Counting sort of (literal, clause) pairs into CSR.
        let mut start = vec![0usize; 2 * f.num_vars() + 1];
        f.clauses().iter().flatten().for_each(|l| {
            if let Some(s) = start.get_mut(l.code() + 1) {
                *s += 1;
            }
        });
        let mut total = 0;
        start.iter_mut().for_each(|s| {
            total += *s;
            *s = total;
        });
        let mut clauses = vec![0usize; total];
        let mut next = start.clone();
        f.clauses().iter().enumerate().for_each(|(c, clause)| {
            clause.iter().for_each(|l| {
                if let Some(slot) = next.get_mut(l.code()) {
                    if let Some(entry) = clauses.get_mut(*slot) {
                        *entry = c;
                    }
                    *slot += 1;
                }
            });
        });
        let mut counts = Counts {
            true_lits: vec![0; f.clauses().len()],
            free: f.clauses().iter().map(Vec::len).collect(),
            hot: vec![0; f.clauses().len().div_ceil(64)],
            satisfied: 0,
            pos: vec![0; f.num_vars()],
            neg: vec![0; f.num_vars()],
        };
        f.clauses().iter().enumerate().for_each(|(c, clause)| {
            counts.tally(clause, true);
            counts.set_hot(c, clause.len() <= 1);
        });
        let mut derived = Derived {
            occurs: Occurrences { start, clauses },
            counts,
        };
        assignment.iter().enumerate().for_each(|(v, a)| {
            if let Some(b) = *a {
                derived.update(f, Lit::new(v, b), true);
            }
        });
        derived
    }

    /// Sets variable `v` to `value`, updating the counts for whatever
    /// changed. Setting a variable to the value it already has is a no-op,
    /// so a trail naming an unassigned variable cannot skew the counts.
    fn set(
        &mut self,
        f: &CnfFormula,
        assignment: &mut [Option<bool>],
        v: usize,
        value: Option<bool>,
    ) {
        let Some(slot) = assignment.get_mut(v) else {
            return;
        };
        let old = std::mem::replace(slot, value);
        if old == value {
            return;
        }
        if let Some(b) = old {
            self.update(f, Lit::new(v, b), false);
        }
        if let Some(b) = value {
            self.update(f, Lit::new(v, b), true);
        }
    }

    /// `lit` became true (`assign`) or stopped being true; either way its
    /// negation moved between false and unassigned.
    fn update(&mut self, f: &CnfFormula, lit: Lit, assign: bool) {
        let Derived { occurs, counts } = self;
        occurs
            .of(lit)
            .iter()
            .for_each(|&c| counts.touch(f, c, assign, true));
        occurs
            .of(lit.negated())
            .iter()
            .for_each(|&c| counts.touch(f, c, assign, false));
    }
}

impl Occurrences {
    fn of(&self, lit: Lit) -> &[usize] {
        let from = self.start.get(lit.code()).copied().unwrap_or(0);
        let to = self.start.get(lit.code() + 1).copied().unwrap_or(from);
        self.clauses.get(from..to).unwrap_or(&[])
    }
}

impl Counts {
    /// One literal of clause `c` was assigned (`assign`) or unassigned;
    /// `is_true` says whether that literal is, or was, the true one.
    fn touch(&mut self, f: &CnfFormula, c: usize, assign: bool, is_true: bool) {
        let (Some(free), Some(t)) = (self.free.get_mut(c), self.true_lits.get_mut(c)) else {
            return;
        };
        let was_satisfied = *t > 0;
        if assign {
            *free -= 1;
            *t += usize::from(is_true);
        } else {
            *free += 1;
            *t -= usize::from(is_true);
        }
        let satisfied = *t > 0;
        let hot = !satisfied && *free <= 1;
        if satisfied != was_satisfied {
            if satisfied {
                self.satisfied += 1;
            } else {
                self.satisfied -= 1;
            }
            self.tally(f.clauses().get(c).map_or(&[], Vec::as_slice), !satisfied);
        }
        self.set_hot(c, hot);
    }

    /// Adds (or removes) one clause's literals to the per-variable counts.
    fn tally(&mut self, clause: &[Lit], add: bool) {
        clause.iter().for_each(|l| {
            let side = if l.is_positive() {
                &mut self.pos
            } else {
                &mut self.neg
            };
            if let Some(n) = side.get_mut(l.var()) {
                if add {
                    *n += 1;
                } else {
                    *n -= 1;
                }
            }
        });
    }

    fn set_hot(&mut self, c: usize, hot: bool) {
        if let Some(word) = self.hot.get_mut(c / 64) {
            let bit = 1u64 << (c % 64);
            if hot {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// The first hot clause at index `from` or later.
    fn next_hot(&self, from: usize) -> Option<usize> {
        let (word, bit) = (from / 64, from % 64);
        self.hot.iter().enumerate().skip(word).find_map(|(i, &w)| {
            let w = if i == word { w & (!0u64 << bit) } else { w };
            (w != 0).then(|| i * 64 + w.trailing_zeros() as usize)
        })
    }

    /// The unassigned literal of hot clause `c`, or `None` if it has none
    /// (a conflict).
    fn unit_literal(&self, f: &CnfFormula, c: usize, assignment: &[Option<bool>]) -> Option<Lit> {
        if self.free.get(c) == Some(&0) {
            return None;
        }
        f.clauses()
            .get(c)?
            .iter()
            .copied()
            .find(|l| assignment.get(l.var()) == Some(&None))
    }

    /// Occurrences of `v` in clauses without a true literal.
    fn occurrences(&self, v: usize) -> usize {
        self.pos.get(v).copied().unwrap_or(0) + self.neg.get(v).copied().unwrap_or(0)
    }
}

impl Machine {
    /// Undoes the current level's simplification trail and starts unwinding.
    fn fail_level(&mut self, f: &CnfFormula, derived: &mut Derived) {
        std::mem::take(&mut self.trail)
            .into_iter()
            .for_each(|v| derived.set(f, &mut self.assignment, v, None));
        self.phase = Phase::Unwind;
    }

    /// Snapshots purity from the maintained occurrence counts: a variable
    /// is pure-positive when it is unassigned and occurs positively in some
    /// clause without a true literal.
    fn compute_purity(&mut self, derived: &Derived) {
        let snapshot = |counts: &[usize]| -> Vec<bool> {
            counts
                .iter()
                .zip(&self.assignment)
                .map(|(&n, a)| a.is_none() && n > 0)
                .collect()
        };
        self.pure_pos = snapshot(&derived.counts.pos);
        self.pure_neg = snapshot(&derived.counts.neg);
    }
}

impl DpllSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: DpllConfig) -> Self {
        DpllSolver { config }
    }

    /// Decides satisfiability under `budget`: `Sat(model)`, `Unsat`, or
    /// `Exhausted` if the budget ran out first, plus run counters.
    pub fn solve(&self, f: &CnfFormula, budget: &Budget) -> (Outcome<Vec<bool>>, RunStats) {
        resumable::find(&self.search(f), budget)
    }
    /// The resumable search of `f` under this solver's configuration:
    /// slices of it run through the engine's
    /// [`find_slice`](lb_engine::resumable::find_slice).
    pub fn search<'a>(&self, f: &'a CnfFormula) -> DpllSearch<'a> {
        DpllSearch {
            f,
            config: self.config,
        }
    }
}

/// DPLL on one formula under one configuration, as a resumable search: find
/// mode returns a model (unconstrained variables false).
#[derive(Clone, Copy, Debug)]
pub struct DpllSearch<'a> {
    f: &'a CnfFormula,
    config: DpllConfig,
}

impl Resumable for DpllSearch<'_> {
    type State = Machine;
    type Answer = Vec<bool>;
    const FAMILY: SolverFamily = SolverFamily::Dpll;
    const PAYLOAD_VERSION: u16 = CHECKPOINT_PAYLOAD_VERSION;
    const MODE_TAGS: Option<[u8; 2]> = None;
    const COUNT_FIELD: bool = false;

    /// FNV digest binding a checkpoint to (formula, configuration).
    fn digest(&self) -> u64 {
        let f = self.f;
        let mut d = Digest::new();
        d.str("dpll").usize(f.num_vars()).usize(f.clauses().len());
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in the formula; runs once per resume
        for clause in f.clauses() {
            d.usize(clause.len());
            // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in the formula; runs once per resume
            for &l in clause {
                d.usize(l.code());
            }
        }
        d.u64(u64::from(self.config.unit_propagation))
            .u64(u64::from(self.config.pure_literal))
            .u64(match self.config.branching {
                Branching::FirstUnassigned => 0,
                Branching::MostFrequent => 1,
            });
        d.finish()
    }

    fn fresh(&self) -> Machine {
        Machine {
            assignment: vec![None; self.f.num_vars()],
            trail: Vec::new(),
            frames: Vec::new(),
            pure_pos: Vec::new(),
            pure_neg: Vec::new(),
            phase: Phase::UnitScan {
                clause: 0,
                changed: false,
            },
        }
    }

    /// Runs micro-steps until a model or the end of the search, or a
    /// failed charge. Every counted operation updates the machine to its
    /// continuation point *before* spending the tick, so an `Err` return
    /// leaves the machine resumable with nothing redone and nothing
    /// double-counted.
    fn run(
        &self,
        m: &mut Machine,
        ticker: &mut Ticker,
    ) -> Result<Option<Vec<bool>>, ExhaustReason> {
        let (f, config) = (self.f, &self.config);
        let mut derived = Derived::new(f, &m.assignment);
        loop {
            match m.phase {
                Phase::UnitScan { clause, changed } => {
                    // Only hot clauses (conflicts and units) need a visit;
                    // the scan jumps between them in index order.
                    let mut i = clause;
                    let mut changed = changed;
                    let mut conflict = false;
                    while let Some(c) = derived.counts.next_hot(i) {
                        i = c + 1;
                        match derived.counts.unit_literal(f, c, &m.assignment) {
                            None => {
                                conflict = true;
                                break;
                            }
                            Some(l) if config.unit_propagation => {
                                derived.set(f, &mut m.assignment, l.var(), Some(l.is_positive()));
                                m.trail.push(l.var());
                                ticker.record_intermediate(m.trail.len() as u64);
                                changed = true;
                                m.phase = Phase::UnitScan { clause: i, changed };
                                ticker.propagation()?;
                            }
                            Some(_) => {}
                        }
                    }
                    if conflict {
                        m.fail_level(f, &mut derived);
                        ticker.backtrack()?;
                    } else if config.pure_literal && !changed {
                        m.compute_purity(&derived);
                        m.phase = Phase::PureScan {
                            var: 0,
                            changed: false,
                        };
                    } else if changed {
                        m.phase = Phase::UnitScan {
                            clause: 0,
                            changed: false,
                        };
                    } else {
                        m.phase = Phase::Choose;
                    }
                }
                Phase::PureScan { var, changed } => {
                    let mut v = var;
                    let mut changed = changed;
                    while let Some(a) = m.assignment.get(v) {
                        let pos = m.pure_pos.get(v).copied().unwrap_or(false);
                        let neg = m.pure_neg.get(v).copied().unwrap_or(false);
                        if a.is_none() && (pos ^ neg) {
                            derived.set(f, &mut m.assignment, v, Some(pos));
                            m.trail.push(v);
                            ticker.record_intermediate(m.trail.len() as u64);
                            changed = true;
                            v += 1;
                            m.phase = Phase::PureScan { var: v, changed };
                            ticker.propagation()?;
                        } else {
                            v += 1;
                        }
                    }
                    m.pure_pos.clear();
                    m.pure_neg.clear();
                    m.phase = if changed {
                        Phase::UnitScan {
                            clause: 0,
                            changed: false,
                        }
                    } else {
                        Phase::Choose
                    };
                }
                Phase::Choose => {
                    if derived.counts.satisfied == f.clauses().len() {
                        // The model: unconstrained variables default to false.
                        let model = m.assignment.iter().map(|a| a.unwrap_or(false));
                        return Ok(Some(model.collect()));
                    }
                    let mut unassigned = m
                        .assignment
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.is_none())
                        .map(|(v, _)| v);
                    let var = match config.branching {
                        Branching::FirstUnassigned => unassigned.next(),
                        // `max_by_key` keeps the last of equal maxima.
                        Branching::MostFrequent => {
                            unassigned.max_by_key(|&v| derived.counts.occurrences(v))
                        }
                    };
                    match var {
                        None => {
                            // No unassigned variables but not all clauses
                            // satisfied: dead end.
                            m.fail_level(f, &mut derived);
                            ticker.backtrack()?;
                        }
                        Some(var) => {
                            let trail = std::mem::take(&mut m.trail);
                            m.frames.push(Frame {
                                var,
                                tried_false: false,
                                trail,
                            });
                            ticker.record_intermediate(m.frames.len() as u64);
                            derived.set(f, &mut m.assignment, var, Some(true));
                            m.phase = Phase::UnitScan {
                                clause: 0,
                                changed: false,
                            };
                            ticker.node()?;
                        }
                    }
                }
                Phase::Unwind => match m.frames.last_mut() {
                    None => return Ok(None),
                    Some(top) => {
                        if !top.tried_false {
                            top.tried_false = true;
                            let var = top.var;
                            derived.set(f, &mut m.assignment, var, Some(false));
                            m.phase = Phase::UnitScan {
                                clause: 0,
                                changed: false,
                            };
                        } else if let Some(frame) = m.frames.pop() {
                            std::iter::once(frame.var)
                                .chain(frame.trail)
                                .for_each(|v| derived.set(f, &mut m.assignment, v, None));
                        }
                    }
                },
            }
        }
    }

    fn encode(&self, m: &Machine, w: &mut PayloadWriter) {
        w.seq(&m.assignment, |w, a| {
            w.u8(match a {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
        });
        w.seq_usize(&m.trail).seq(&m.frames, |w, frame| {
            w.usize(frame.var).bool(frame.tried_false);
            w.seq_usize(&frame.trail);
        });
        match m.phase {
            Phase::UnitScan { clause, changed } => {
                w.u8(0).usize(clause).bool(changed);
            }
            Phase::PureScan { var, changed } => {
                w.u8(1).usize(var).bool(changed);
                w.each(0..m.assignment.len(), |w, i| {
                    w.bool(m.pure_pos.get(i).copied().unwrap_or(false));
                    w.bool(m.pure_neg.get(i).copied().unwrap_or(false));
                });
            }
            Phase::Choose => {
                w.u8(2);
            }
            Phase::Unwind => {
                w.u8(3);
            }
        }
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Machine, CheckpointError> {
        let n = self.f.num_vars();
        let assignment = r.seq(n..=n, 1, "assignment", |r, _| {
            let at = r.offset();
            match r.u8()? {
                0 => Ok(None),
                1 => Ok(Some(false)),
                2 => Ok(Some(true)),
                b => Err(CheckpointError::Malformed {
                    what: format!("invalid assignment byte {b}"),
                    offset: at,
                }),
            }
        })?;
        let read_trail =
            |r: &mut PayloadReader<'_>| r.seq(.., 8, "trail", |r, _| r.usize_below(n, "trail var"));
        let trail = read_trail(r)?;
        let frames = r.seq(.., 17, "decision stack", |r, _| {
            Ok(Frame {
                var: r.usize_below(n, "decision var")?,
                tried_false: r.bool()?,
                trail: read_trail(r)?,
            })
        })?;
        let tag_at = r.offset();
        let (phase, pure_pos, pure_neg) = match r.u8()? {
            0 => {
                let clause = r.usize_at_most(self.f.clauses().len(), "clause index")?;
                let changed = r.bool()?;
                (Phase::UnitScan { clause, changed }, Vec::new(), Vec::new())
            }
            1 => {
                let var = r.usize_at_most(n, "pure-scan var")?;
                let changed = r.bool()?;
                let snapshot = r.items(0..n, 2, "purity snapshot", |r, _| {
                    Ok((r.bool()?, r.bool()?))
                })?;
                let (pos, neg) = snapshot.into_iter().unzip();
                (Phase::PureScan { var, changed }, pos, neg)
            }
            2 => (Phase::Choose, Vec::new(), Vec::new()),
            3 => (Phase::Unwind, Vec::new(), Vec::new()),
            b => {
                return Err(CheckpointError::Malformed {
                    what: format!("invalid phase tag {b}"),
                    offset: tag_at,
                })
            }
        };
        Ok(Machine {
            assignment,
            trail,
            frames,
            pure_pos,
            pure_neg,
            phase,
        })
    }
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

    fn all_configs() -> Vec<DpllConfig> {
        let mut out = Vec::new();
        for up in [false, true] {
            for pl in [false, true] {
                for br in [Branching::FirstUnassigned, Branching::MostFrequent] {
                    out.push(DpllConfig {
                        unit_propagation: up,
                        pure_literal: pl,
                        branching: br,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn simple_sat() {
        let f = CnfFormula::from_clauses(
            3,
            vec![vec![l(1), l(2)], vec![l(-1), l(3)], vec![l(-2), l(-3)]],
        );
        for cfg in all_configs() {
            let (out, _) = DpllSolver::new(cfg).solve(&f, &Budget::unlimited());
            let m = out.unwrap_decided().expect("satisfiable");
            assert!(f.eval(&m));
        }
    }

    #[test]
    fn simple_unsat() {
        // (x1) ∧ (¬x1 ∨ x2) ∧ (¬x2) is unsatisfiable.
        let f = CnfFormula::from_clauses(2, vec![vec![l(1)], vec![l(-1), l(2)], vec![l(-2)]]);
        for cfg in all_configs() {
            let (out, _) = DpllSolver::new(cfg).solve(&f, &Budget::unlimited());
            assert!(out.is_unsat());
        }
    }

    #[test]
    fn agrees_with_brute_force_on_random_3sat() {
        for seed in 0..20u64 {
            let f = generators::random_ksat(8, 30, 3, seed);
            let brute_sat = brute::solve(&f, &Budget::unlimited())
                .0
                .unwrap_decided()
                .is_some();
            for cfg in all_configs() {
                let (out, _) = DpllSolver::new(cfg).solve(&f, &Budget::unlimited());
                let model = out.unwrap_decided();
                assert_eq!(model.is_some(), brute_sat, "seed {seed}, cfg {cfg:?}");
                if let Some(m) = model {
                    assert!(f.eval(&m), "invalid model, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn unit_propagation_reduces_decisions() {
        // Chain of implications: x1, x1→x2, ..., x9→x10. Pure DPLL without
        // propagation needs decisions; with it, zero.
        let mut clauses = vec![vec![l(1)]];
        for i in 1..10 {
            clauses.push(vec![Lit::neg(i - 1), Lit::pos(i)]);
        }
        let f = CnfFormula::from_clauses(10, clauses);
        let with = DpllSolver::new(DpllConfig {
            unit_propagation: true,
            pure_literal: false,
            branching: Branching::FirstUnassigned,
        });
        let (out, stats) = with.solve(&f, &Budget::unlimited());
        assert!(out.is_sat());
        assert_eq!(stats.nodes, 0);
        assert!(stats.propagations >= 10);
    }

    #[test]
    fn pure_literal_solves_monotone_formula() {
        // All-positive clauses: every variable is pure.
        let f = CnfFormula::from_clauses(4, vec![vec![l(1), l(2)], vec![l(3), l(4)]]);
        let solver = DpllSolver::new(DpllConfig {
            unit_propagation: false,
            pure_literal: true,
            branching: Branching::FirstUnassigned,
        });
        let (out, stats) = solver.solve(&f, &Budget::unlimited());
        assert!(out.is_sat());
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn planted_instance_is_satisfied() {
        let (f, planted) = generators::planted_ksat(12, 40, 3, 7);
        assert!(f.eval(&planted));
        let (out, _) = DpllSolver::default().solve(&f, &Budget::unlimited());
        assert!(f.eval(&out.unwrap_sat()));
    }

    #[test]
    fn tiny_budget_exhausts_without_wrong_verdict() {
        let f = generators::random_ksat(10, 42, 3, 3);
        let (out, stats) = DpllSolver::default().solve(&f, &Budget::ticks(2));
        assert!(out.is_exhausted(), "2 ticks cannot decide 42 clauses");
        assert!(stats.total_ops() >= 2);
    }

    #[test]
    fn incremental_counts_match_a_rebuild() {
        // Tautologies and a unit clause alongside random 3-clauses; 70
        // clauses span two bitset words.
        let mut clauses = vec![vec![l(1), l(-1)], vec![l(2), l(-2), l(3)], vec![l(4)]];
        clauses.extend(
            generators::random_ksat(9, 67, 3, 11)
                .clauses()
                .iter()
                .cloned(),
        );
        let f = CnfFormula::from_clauses(9, clauses);
        let mut assignment = vec![None; 9];
        let mut derived = Derived::new(&f, &assignment);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = (state % 9) as usize;
            let value = [None, Some(false), Some(true)][(state >> 8) as usize % 3];
            derived.set(&f, &mut assignment, v, value);
            assert_eq!(derived.counts, Derived::new(&f, &assignment).counts);
        }
    }
}
