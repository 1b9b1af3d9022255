//! Worst-case optimal join: columnar Leapfrog Triejoin with skew handling
//! (paper Theorem 3.3; Veldhuizen's Leapfrog Triejoin; Ngo–Ré–Rudra's
//! "Skew Strikes Back" heavy/light split).
//!
//! The algorithm fixes a global variable order and proceeds one variable
//! at a time over per-atom columnar [`Trie`]s (built once during
//! preparation). At each level the participants' candidate ranges are
//! intersected in one of two modes, chosen per residual range:
//!
//! * **heavy** — every participant's range still holds at least
//!   `max(4, ⌊√rows⌋)` distinct values (a heavy-hitter block): run the
//!   leapfrog intersection proper. Iterators take turns galloping
//!   ([`Trie::seek`], exponential + binary search) to the running
//!   maximum key; a value is charged as a [`RunStats::nodes`] candidate
//!   only when *all* iterators agree on it, so long disjoint runs cost
//!   O(log) seeks instead of per-value probes.
//! * **light** — the smallest range is below its relation's √N
//!   threshold: enumerate it directly and probe the other participants
//!   (the residual-query path; at most √N candidates, so the AGM budget
//!   is respected exactly as in "Skew Strikes Back").
//!
//! Its running time is within a log factor of N^{ρ*} — matching the
//! unconditional lower bound of Theorem 3.2, which is what makes it
//! *worst-case optimal*.
//!
//! Engine mapping: each candidate value *tried* (light) or *matched*
//! (heavy) is a [`RunStats::nodes`] tick, each probe or leapfrog seek a
//! [`RunStats::trie_advances`] tick, and each answer tuple emitted a
//! [`RunStats::tuples`] tick — machine-independent proxies for the
//! Õ(N^{ρ*}) running time. The pre-leapfrog generic join is preserved in
//! [`crate::reference`] as the differential oracle.
//!
//! # Preemption safety
//!
//! The join runs on an explicit frame stack (one frame per bound
//! variable) holding the trie-iterator positions: per-atom level ranges,
//! the light-mode cursor or the heavy-mode leapfrog state (per-iterator
//! positions, whose turn it is, the running maximum, how many agree).
//! Every counted operation applies its effect and advances the phase
//! *before* spending the tick. [`JoinSearch`] implements [`Resumable`] and
//! [`Countable`], so the engine's [`find_slice`] (the Boolean query: is
//! there an answer?) and [`count_slice`] drivers can suspend at any failed
//! charge into a [`Checkpoint`] and later continue with the next operation
//! — same verdict, same summed [`RunStats`] as one uninterrupted run.
//! Preparing the tries is the only step that can fail on a malformed
//! instance, and it happens in [`JoinSearch::new`], before any slice runs.
//!
//! Light mode runs fused: one loop takes the driver's next candidate
//! (`nodes` tick), probes the other participants in turn (a
//! `trie_advances` tick each) and, on a miss, goes straight on to the next
//! candidate, without returning to the phase dispatch in between. It
//! leaves only to bind a surviving candidate or to pop an exhausted level.
//! Every step in it still applies its effect and sets `phase` (`Step`
//! before a candidate, `Narrow { idx }` before a probe) before charging
//! its tick, so a failed charge leaves a frontier that names the next
//! operation exactly, and its checkpoint bytes do not depend on whether
//! the loop or the phase dispatch ran the step. (The
//! materializing [`join`] is deliberately *not* resumable: its collected
//! output would make checkpoints unbounded; [`join_foreach`] streams
//! instead.)
//!
//! # The root split
//!
//! A [`count`] that cannot stop early (no tick limit, no deadline, no
//! fault plan) uses up to [`std::thread::available_parallelism`] threads,
//! the caller's included. The subtrees below the bindings of the first
//! variable only read the shared tries: one root machine behind a mutex
//! hands its bindings out one at a time, and each worker runs a binding's
//! subtree on its own machine and [`Ticker`] until it pops back to the
//! root. The root's ticker pays the first variable's ticks once and the
//! workers pay everything below, so the summed [`RunStats`] equal the
//! sequential machine's exactly. Every entry point that can stop early
//! (`count` under a budget or a fault plan, every slice of a
//! [`JoinSearch`], [`is_empty`], [`join`], [`join_foreach`]) runs
//! sequentially.
//!
//! [`Trie`]: crate::trie::Trie
//! [`Trie::seek`]: crate::trie::Trie::seek
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::trie_advances`]: lb_engine::RunStats::trie_advances
//! [`RunStats::tuples`]: lb_engine::RunStats::tuples
//! [`RunStats`]: lb_engine::RunStats
//! [`Resumable`]: lb_engine::resumable::Resumable
//! [`Countable`]: lb_engine::resumable::Countable
//! [`find_slice`]: lb_engine::resumable::find_slice
//! [`count_slice`]: lb_engine::resumable::count_slice
//! [`Checkpoint`]: lb_engine::checkpoint::Checkpoint

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::database::{sort_dedup_rows, Database};
use crate::query::{AnswerTuple, JoinQuery};
use crate::trie::Trie;
use crate::Value;
use lb_engine::checkpoint::{CheckpointError, Digest, PayloadReader, PayloadWriter, SolverFamily};
use lb_engine::resumable::{self, Countable, Resumable};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// Payload version of generic-join checkpoints; bumped whenever the
/// frontier encoding below changes. Version 2 is the leapfrog frame
/// encoding (columnar trie ranges + heavy/light intersection state);
/// version 1 was the row-major generic-join encoding.
pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 2;

/// Errors from join evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The database is missing a table or has an arity mismatch.
    BadDatabase(String),
    /// A supplied variable order is not a permutation of the attributes.
    BadOrder(String),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::BadDatabase(m) => write!(f, "bad database: {m}"),
            JoinError::BadOrder(m) => write!(f, "bad variable order: {m}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// A prepared atom: a columnar trie over the rows re-sorted so columns
/// follow the global variable order, repeated attributes collapsed to
/// their diagonal.
struct PreparedAtom {
    /// Global variable ranks of this atom's (distinct) attributes, ascending.
    var_ranks: Vec<usize>,
    /// The flat columnar trie over the projected rows.
    trie: Trie,
}

struct Prepared {
    atoms: Vec<PreparedAtom>,
    num_vars: usize,
}

fn prepare(q: &JoinQuery, db: &Database, order: Option<&[String]>) -> Result<Prepared, JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let attrs = q.attributes();
    let order: Vec<String> = match order {
        Some(o) => {
            let mut sorted = o.to_vec();
            sorted.sort();
            if sorted != attrs {
                return Err(JoinError::BadOrder(format!(
                    "order {o:?} is not a permutation of {attrs:?}"
                )));
            }
            o.to_vec()
        }
        None => attrs.clone(),
    };
    let rank_of = |name: &str| {
        order
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| JoinError::BadOrder(format!("order {order:?} lacks attribute {name}")))
    };

    let atoms = q
        .atoms
        .iter()
        .map(|atom| {
            let table = db.table(&atom.relation).ok_or_else(|| {
                JoinError::BadDatabase(format!("missing table {}", atom.relation))
            })?;
            // (rank, column) per attribute; a repeated attribute's first
            // column sorts first within its rank.
            let mut cols: Vec<(usize, usize)> = atom
                .attrs
                .iter()
                .enumerate()
                .map(|(col, a)| Ok((rank_of(a)?, col)))
                .collect::<Result<_, JoinError>>()?;
            cols.sort_unstable();
            // Repeated attributes must agree: (column, first column) pairs.
            let diagonal: Vec<(usize, usize)> = cols
                .iter()
                .filter_map(|&(r, col)| {
                    let first = cols
                        .iter()
                        .find(|&&(fr, _)| fr == r)
                        .map_or(col, |&(_, c)| c);
                    (first != col).then_some((col, first))
                })
                .collect();
            cols.dedup_by_key(|&mut (r, _)| r);
            let var_ranks: Vec<usize> = cols.iter().map(|&(r, _)| r).collect();
            let k = cols.len();
            let flat = table.flat();
            let identity =
                diagonal.is_empty() && cols.iter().enumerate().all(|(i, &(_, c))| i == c);
            let trie = if identity
                && flat
                    .chunks_exact(k.max(1))
                    .zip(flat.chunks_exact(k.max(1)).skip(1))
                    .all(|(a, b)| a < b)
            {
                // Columns already in rank order and rows strictly
                // increasing: the table is its own projection.
                Trie::build(flat, k, table.len())
            } else {
                // Filter diagonal rows, project to the distinct columns in
                // rank order, then sort and dedup the projection.
                let mut projected: Vec<Value> = Vec::with_capacity(table.len() * k);
                table
                    .rows()
                    .filter(|row| {
                        diagonal
                            .iter()
                            .all(|&(col, first)| row.get(col) == row.get(first))
                    })
                    .for_each(|row| {
                        projected.extend(cols.iter().filter_map(|&(_, col)| row.get(col).copied()));
                    });
                sort_dedup_rows(&mut projected, k);
                Trie::build(&projected, k, projected.len() / k.max(1))
            };
            Ok(PreparedAtom { var_ranks, trie })
        })
        .collect::<Result<Vec<_>, JoinError>>()?;
    Ok(Prepared {
        atoms,
        num_vars: attrs.len(),
    })
}

/// Active trie range of one atom during the search: `depth` columns are
/// bound; `[lo, hi)` indexes level `depth`'s value column (or, when the
/// atom is fully bound, a degenerate entry range on the deepest level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Range {
    lo: usize,
    hi: usize,
    depth: usize,
}

/// Upper bound for a range's `lo`/`hi` at a given depth (hostile-decode
/// validation and defensive clamping share it).
fn range_bound(trie: &Trie, depth: usize) -> usize {
    let k = trie.num_levels();
    if k == 0 {
        0
    } else {
        trie.level_len(depth.min(k - 1))
    }
}

/// Narrows a participant's range to the children of entry `j` (clamped
/// defensively: hostile checkpoints may put `j` at the range end).
fn descend(atom: &PreparedAtom, r: Range, j: usize) -> Range {
    let k = atom.trie.num_levels();
    if r.depth + 1 < k {
        let (lo, hi) = atom.trie.child_range(r.depth, j);
        Range {
            lo,
            hi,
            depth: r.depth + 1,
        }
    } else {
        let len = range_bound(&atom.trie, r.depth);
        let lo = j.min(len);
        Range {
            lo,
            hi: (j + 1).min(len).max(lo),
            depth: r.depth + 1,
        }
    }
}

/// Where the machine resumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Entering level `frames.len()`: emit a tuple or open a frame.
    Enter,
    /// Advance the top frame: next light candidate or one leapfrog step.
    Step,
    /// Light mode: probe/narrow the top frame's participant `idx`.
    Narrow { idx: usize },
    /// Heavy mode: all iterators agreed; narrow everyone and bind.
    Bind,
    /// A tuple's charge has been paid; deliver it, then continue.
    Emit,
}

/// One bound variable: the intersection state at its level.
#[derive(Clone, Debug, Default)]
struct Frame {
    /// Atoms whose next unbound column is this level's variable.
    participants: Vec<usize>,
    /// Participant ranges as they were at level entry, parallel to
    /// `participants`; restored between candidates.
    saved: Vec<Range>,
    /// Intersection mode: leapfrog (heavy block) or enumerate-and-probe.
    heavy: bool,
    /// Slot (index into `participants`) of the smallest entry range; the
    /// light-mode driver.
    driver: usize,
    /// Light mode: driver cursor into its level's value column.
    cur: usize,
    /// Heavy mode: per-iterator positions, parallel to `participants`.
    pos: Vec<usize>,
    /// Heavy mode: slot whose iterator moves next.
    turn: usize,
    /// Heavy mode: how many consecutive iterators sit on `max_v`
    /// (0 = the round restarts at `turn`'s current position).
    agreed: usize,
    /// Heavy mode: the running maximum key (intersection candidate).
    max_v: Value,
    /// The candidate value bound at this level.
    v: Value,
}

/// What one heavy leapfrog micro-step decided to do.
enum LeapAction {
    Exhausted,
    Advance {
        max_v: Value,
        agreed: usize,
        turn: usize,
        pos: Option<usize>,
    },
    Agreed {
        max_v: Value,
        pos: Option<usize>,
    },
}

/// The explicit-stack Leapfrog Triejoin state: trie-iterator positions
/// per atom plus the per-level intersection frames; the frontier a
/// [`JoinSearch`] checkpoints.
///
/// `floor` and `ceiling` bound the levels this machine may search; they
/// only differ from 0 and `usize::MAX` in a split [`count`], and never
/// enter a checkpoint.
#[derive(Clone, Debug)]
pub struct Machine {
    ranges: Vec<Range>,
    tuple: Vec<Value>,
    frames: Vec<Frame>,
    phase: Phase,
    /// Frames below this depth belong to another machine: popping down to
    /// it ends the search instead of advancing the parent.
    floor: usize,
    /// Entering this level stops the run with `Ok(true)`: the binding of
    /// every level below it is in `tuple` and `ranges`, not yet advanced.
    ceiling: usize,
}

impl Machine {
    fn fresh(p: &Prepared) -> Machine {
        Machine {
            ranges: p
                .atoms
                .iter()
                .map(|a| Range {
                    lo: 0,
                    hi: a.trie.level_len(0),
                    depth: 0,
                })
                .collect(),
            tuple: vec![0; p.num_vars],
            frames: Vec::new(),
            phase: Phase::Enter,
            floor: 0,
            ceiling: usize::MAX,
        }
    }

    /// Restores the top frame's participants to their entry ranges and
    /// advances its iterator past the current candidate.
    fn restore_and_advance(frame: &mut Frame, ranges: &mut [Range]) {
        // lb-lint: allow(unbudgeted-loop) -- restores one frame's saved ranges; bounded by participants
        for (&i, &r) in frame.participants.iter().zip(&frame.saved) {
            if let Some(slot) = ranges.get_mut(i) {
                *slot = r;
            }
        }
        if frame.heavy {
            // Move iterator 0 past the matched value and restart the round.
            if let Some(p0) = frame.pos.get_mut(0) {
                *p0 = p0.saturating_add(1);
            }
            frame.turn = 0;
            frame.agreed = 0;
            frame.max_v = 0;
        } else {
            frame.cur = frame.cur.saturating_add(1);
        }
    }

    /// Advances the top frame past the binding a `ceiling` stop left in
    /// place, so the next [`Machine::run`] moves on to the next candidate.
    fn advance_top(&mut self) {
        if let Some(top) = self.frames.last_mut() {
            Machine::restore_and_advance(top, &mut self.ranges);
        }
        self.phase = Phase::Step;
    }

    /// Pops the exhausted top frame onto `spare` and advances the parent
    /// (if any). Returns false when the stack is down to `floor` (search
    /// over).
    fn pop_level(&mut self, spare: &mut Vec<Frame>) -> bool {
        if let Some(frame) = self.frames.pop() {
            spare.push(frame);
        }
        if self.frames.len() <= self.floor {
            return false;
        }
        match self.frames.last_mut() {
            None => false,
            Some(parent) => {
                Machine::restore_and_advance(parent, &mut self.ranges);
                true
            }
        }
    }

    /// Light mode, fused: takes the driver's candidates and probes the
    /// other participants in one loop, without going back through the
    /// phase dispatch between steps. `resume` is the participant to probe
    /// next (the machine stopped inside a candidate, phase `Narrow`), or
    /// `None` to start with the driver's next candidate (phase `Step`).
    /// Leaves with `Ok(true)` once a candidate survives every probe (bound
    /// at this level, phase `Enter`) or the level is exhausted and popped
    /// (phase `Step`, uncharged); `Ok(false)` when that pop ends the search.
    /// Each step applies its effect and sets `phase` before it charges the
    /// tick, so a failed charge suspends with a frontier that resumes here
    /// at the next operation.
    fn run_light(
        &mut self,
        p: &Prepared,
        ticker: &mut Ticker,
        spare: &mut Vec<Frame>,
        resume: Option<usize>,
    ) -> Result<bool, ExhaustReason> {
        let level = self.frames.len().saturating_sub(1);
        let Machine {
            ranges,
            tuple,
            frames,
            phase,
            ..
        } = self;
        let Some(frame) = frames.last_mut() else {
            return Ok(false);
        };
        let dr = frame.saved.get(frame.driver).copied().unwrap_or_default();
        let driver = frame
            .participants
            .get(frame.driver)
            .and_then(|&i| p.atoms.get(i));
        let mut probe = resume;
        loop {
            let mut idx = match probe {
                Some(idx) => idx,
                None => {
                    // Next candidate from the driver.
                    let next = if frame.cur < dr.hi {
                        driver.and_then(|a| a.trie.value(dr.depth, frame.cur))
                    } else {
                        None
                    };
                    // Level exhausted: ascend (uncharged, like the
                    // classic generic join).
                    let Some(v) = next else { break };
                    frame.v = v;
                    *phase = Phase::Narrow { idx: 0 };
                    ticker.node()?;
                    0
                }
            };
            loop {
                let Some(&atom_i) = frame.participants.get(idx) else {
                    // All participants narrowed: the candidate is in the
                    // intersection. Bind it and descend.
                    if let Some(slot) = tuple.get_mut(level) {
                        *slot = frame.v;
                    }
                    *phase = Phase::Enter;
                    return Ok(true);
                };
                let r = ranges.get(atom_i).copied().unwrap_or_default();
                let atom = p.atoms.get(atom_i);
                let found = if idx == frame.driver {
                    // The driver's cursor already sits on the value.
                    if frame.cur < r.hi {
                        Some(frame.cur.max(r.lo))
                    } else {
                        None
                    }
                } else {
                    atom.and_then(|a| a.trie.find(r.depth, r.lo, r.hi, frame.v))
                };
                let Some(j) = found else {
                    // Empty intersection: restore and move to the next
                    // candidate. The probe is still a counted advance.
                    Machine::restore_and_advance(frame, ranges);
                    *phase = Phase::Step;
                    ticker.trie_advance()?;
                    break;
                };
                if let (Some(a), Some(slot)) = (atom, ranges.get_mut(atom_i)) {
                    *slot = descend(a, r, j);
                }
                idx += 1;
                *phase = Phase::Narrow { idx };
                ticker.trie_advance()?;
            }
            probe = None;
        }
        Ok(self.pop_level(spare))
    }

    /// Runs micro-steps until the next answer tuple (`Ok(true)`: the tuple
    /// is in `self.tuple`, in global variable order, and the machine is
    /// positioned to continue past it), the end of the search (`Ok(false)`),
    /// or a failed charge (`Err`, machine resumable). Entering the
    /// `ceiling` level also returns `Ok(true)`, before anything is
    /// charged there; [`Machine::advance_top`] then moves on. Popped frames go to
    /// `spare` and are refilled when a level opens, so the search
    /// allocates nothing per frame once the stack has reached its depth.
    fn run(
        &mut self,
        p: &Prepared,
        ticker: &mut Ticker,
        spare: &mut Vec<Frame>,
    ) -> Result<bool, ExhaustReason> {
        loop {
            match self.phase {
                Phase::Enter => {
                    let level = self.frames.len();
                    if level >= self.ceiling {
                        return Ok(true);
                    }
                    if level == p.num_vars {
                        self.phase = Phase::Emit;
                        ticker.tuple()?;
                        continue;
                    }
                    let mut frame = spare.pop().unwrap_or_default();
                    // Atoms whose next unbound column is this variable.
                    frame.participants.clear();
                    frame.participants.extend(
                        p.atoms
                            .iter()
                            .zip(&self.ranges)
                            .enumerate()
                            .filter(|(_, (a, r))| a.var_ranks.get(r.depth) == Some(&level))
                            .map(|(i, _)| i),
                    );
                    debug_assert!(
                        !frame.participants.is_empty(),
                        "every variable occurs in some atom"
                    );
                    frame.saved.clear();
                    frame.saved.extend(
                        frame
                            .participants
                            .iter()
                            .map(|&i| self.ranges.get(i).copied().unwrap_or_default()),
                    );
                    let saved = &frame.saved;
                    // Smallest entry range leads the intersection.
                    let Some(driver) = (0..saved.len())
                        .min_by_key(|&s| saved.get(s).map_or(0, |r| r.hi.saturating_sub(r.lo)))
                    else {
                        // Unreachable for well-formed queries; finish
                        // soundly instead of panicking.
                        return Ok(false);
                    };
                    let min_width = saved.get(driver).map_or(0, |r| r.hi.saturating_sub(r.lo));
                    // Heavy/light split ("Skew Strikes Back"): leapfrog
                    // only when even the smallest residual range is a
                    // heavy block of its relation.
                    let heavy = frame.participants.len() >= 2
                        && frame
                            .participants
                            .get(driver)
                            .and_then(|&i| p.atoms.get(i))
                            .is_some_and(|a| min_width >= a.trie.heavy_threshold());
                    frame.heavy = heavy;
                    frame.driver = driver;
                    frame.cur = if heavy {
                        0
                    } else {
                        saved.get(driver).map_or(0, |r| r.lo)
                    };
                    frame.pos.clear();
                    if heavy {
                        frame.pos.extend(frame.saved.iter().map(|r| r.lo));
                    }
                    frame.turn = 0;
                    frame.agreed = 0;
                    frame.max_v = 0;
                    frame.v = 0;
                    self.frames.push(frame);
                    ticker.record_intermediate(self.frames.len() as u64);
                    self.phase = Phase::Step;
                }
                Phase::Step => {
                    let Some(frame) = self.frames.last() else {
                        return Ok(false);
                    };
                    if frame.heavy {
                        // One leapfrog micro-step: examine or seek the
                        // iterator whose turn it is.
                        let k = frame.participants.len().max(1);
                        let slot = frame.turn % k;
                        let sr = frame.saved.get(slot).copied().unwrap_or_default();
                        let trie = frame
                            .participants
                            .get(slot)
                            .and_then(|&i| p.atoms.get(i))
                            .map(|a| &a.trie);
                        let pos = frame.pos.get(slot).copied().unwrap_or(sr.hi);
                        let action = if frame.agreed == 0 {
                            // (Re)start the round at `slot`'s position.
                            match trie.and_then(|t| {
                                if pos < sr.hi {
                                    t.value(sr.depth, pos)
                                } else {
                                    None
                                }
                            }) {
                                None => LeapAction::Exhausted,
                                // A single iterator trivially agrees with
                                // itself (k == 1 must not spin forever).
                                Some(val) if k == 1 => LeapAction::Agreed {
                                    max_v: val,
                                    pos: None,
                                },
                                Some(val) => LeapAction::Advance {
                                    max_v: val,
                                    agreed: 1,
                                    turn: (slot + 1) % k,
                                    pos: None,
                                },
                            }
                        } else {
                            let j =
                                trie.map_or(sr.hi, |t| t.seek(sr.depth, pos, sr.hi, frame.max_v));
                            match trie.and_then(|t| {
                                if j < sr.hi {
                                    t.value(sr.depth, j)
                                } else {
                                    None
                                }
                            }) {
                                None => LeapAction::Exhausted,
                                Some(val) if val == frame.max_v => {
                                    if frame.agreed + 1 >= k {
                                        LeapAction::Agreed {
                                            max_v: val,
                                            pos: Some(j),
                                        }
                                    } else {
                                        LeapAction::Advance {
                                            max_v: frame.max_v,
                                            agreed: frame.agreed + 1,
                                            turn: (slot + 1) % k,
                                            pos: Some(j),
                                        }
                                    }
                                }
                                Some(val) => LeapAction::Advance {
                                    max_v: val,
                                    agreed: 1,
                                    turn: (slot + 1) % k,
                                    pos: Some(j),
                                },
                            }
                        };
                        match action {
                            LeapAction::Exhausted => {
                                if !self.pop_level(spare) {
                                    // Still charge the exhausting seek so a
                                    // resumed run replays the same op count.
                                    ticker.trie_advance()?;
                                    return Ok(false);
                                }
                                self.phase = Phase::Step;
                                ticker.trie_advance()?;
                            }
                            LeapAction::Advance {
                                max_v,
                                agreed,
                                turn,
                                pos,
                            } => {
                                let Some(frame) = self.frames.last_mut() else {
                                    return Ok(false);
                                };
                                if let (Some(j), Some(pp)) = (pos, frame.pos.get_mut(slot)) {
                                    *pp = j;
                                }
                                frame.max_v = max_v;
                                frame.agreed = agreed;
                                frame.turn = turn;
                                ticker.trie_advance()?;
                            }
                            LeapAction::Agreed { max_v, pos } => {
                                let Some(frame) = self.frames.last_mut() else {
                                    return Ok(false);
                                };
                                if let (Some(j), Some(pp)) = (pos, frame.pos.get_mut(slot)) {
                                    *pp = j;
                                }
                                frame.agreed = frame.participants.len();
                                frame.max_v = max_v;
                                frame.v = max_v;
                                self.phase = Phase::Bind;
                                ticker.trie_advance()?;
                            }
                        }
                    } else if !self.run_light(p, ticker, spare, None)? {
                        return Ok(false);
                    }
                }
                Phase::Narrow { idx } => {
                    if !self.run_light(p, ticker, spare, Some(idx))? {
                        return Ok(false);
                    }
                }
                Phase::Bind => {
                    let level = self.frames.len().saturating_sub(1);
                    let Some(frame) = self.frames.last_mut() else {
                        return Ok(false);
                    };
                    // Narrow every participant to the children of its
                    // matched entry, then bind the agreed value.
                    // lb-lint: allow(unbudgeted-loop) -- O(participants) narrowing after the charged match below
                    for slot in 0..frame.participants.len() {
                        let Some(&atom_i) = frame.participants.get(slot) else {
                            continue;
                        };
                        let Some(&sr) = frame.saved.get(slot) else {
                            continue;
                        };
                        let j = frame
                            .pos
                            .get(slot)
                            .copied()
                            .unwrap_or(sr.lo)
                            .clamp(sr.lo, sr.hi);
                        if let (Some(a), Some(dst)) =
                            (p.atoms.get(atom_i), self.ranges.get_mut(atom_i))
                        {
                            *dst = descend(a, sr, j);
                        }
                    }
                    let v = frame.max_v;
                    frame.v = v;
                    if let Some(slot) = self.tuple.get_mut(level) {
                        *slot = v;
                    }
                    self.phase = Phase::Enter;
                    ticker.node()?;
                }
                Phase::Emit => {
                    // Deliver the bound tuple and position past it.
                    match self.frames.last_mut() {
                        None => self.phase = Phase::Step, // nullary query: next run() finishes
                        Some(parent) => {
                            Machine::restore_and_advance(parent, &mut self.ranges);
                            self.phase = Phase::Step;
                        }
                    }
                    return Ok(true);
                }
            }
        }
    }
}

/// Positions of the sorted attributes within the chosen variable order.
#[expect(
    clippy::expect_used,
    reason = "invariant: the chosen order covers every atom attribute"
)]
fn attr_positions(attrs: &[String], ord: &[String]) -> Vec<usize> {
    attrs
        .iter()
        .map(|a| ord.iter().position(|x| x == a).expect("validated"))
        .collect()
}

/// Computes the full answer; tuples are in [`JoinQuery::attributes`] order,
/// sorted lexicographically. Malformed inputs fail with `Err`; running out
/// of budget yields `Ok` with [`Outcome::Exhausted`].
#[must_use = "dropping the result discards the join answers or the failure"]
pub fn join(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Result<(Outcome<Vec<AnswerTuple>>, RunStats), JoinError> {
    let attrs = q.attributes();
    let ord: Vec<String> = order.map(|o| o.to_vec()).unwrap_or_else(|| attrs.clone());
    let p = prepare(q, db, order)?;
    let pos_of = attr_positions(&attrs, &ord);
    let mut ticker = Ticker::new(budget);
    let mut m = Machine::fresh(&p);
    let mut spare = Vec::new();
    let mut out = Vec::new();
    let result = loop {
        match m.run(&p, &mut ticker, &mut spare) {
            Ok(true) => {
                out.push(
                    pos_of
                        .iter()
                        .map(|&i| m.tuple.get(i).copied().unwrap_or(0))
                        .collect::<Vec<Value>>(),
                );
                ticker.record_intermediate(out.len() as u64);
            }
            Ok(false) => break Ok(()),
            Err(reason) => break Err(reason),
        }
    };
    out.sort_unstable();
    Ok(ticker.finish(result.map(|()| Some(out))))
}

/// Streams every answer tuple through `visit` without materializing the
/// answer set: the visitor sees each tuple once, in [`JoinQuery::attributes`]
/// column order (tuples arrive in variable-order lexicographic sequence,
/// not sorted). Returns the number of tuples visited. This is the entry
/// point for callers that only count, print, or aggregate — their memory
/// stays O(num_vars) no matter how large the answer is.
#[must_use = "dropping the result discards the visit count or the failure"]
pub fn join_foreach<F: FnMut(&[Value])>(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
    visit: F,
) -> Result<(Outcome<u64>, RunStats), JoinError> {
    let attrs = q.attributes();
    let ord: Vec<String> = order.map(|o| o.to_vec()).unwrap_or_else(|| attrs.clone());
    let p = prepare(q, db, order)?;
    let pos_of = attr_positions(&attrs, &ord);
    Ok(run_foreach(&p, &pos_of, Ticker::new(budget), visit))
}

/// The sequential machine behind [`join_foreach`]: visits every answer,
/// permuted by `pos_of` (an empty `pos_of` visits empty slices).
fn run_foreach<F: FnMut(&[Value])>(
    p: &Prepared,
    pos_of: &[usize],
    mut ticker: Ticker,
    mut visit: F,
) -> (Outcome<u64>, RunStats) {
    let mut m = Machine::fresh(p);
    let mut spare = Vec::new();
    let mut buf = vec![0; pos_of.len()];
    let mut n = 0u64;
    let result = loop {
        match m.run(p, &mut ticker, &mut spare) {
            Ok(true) => {
                // Permute the tuple into attribute order (bounded by arity).
                buf.iter_mut()
                    .zip(pos_of)
                    .for_each(|(slot, &i)| *slot = m.tuple.get(i).copied().unwrap_or(0));
                n += 1;
                visit(&buf);
            }
            Ok(false) => break Ok(Some(n)),
            Err(reason) => break Err(reason),
        }
    };
    ticker.finish(result)
}

/// Counts answer tuples without materializing them: `Sat(count)` or
/// `Exhausted`.
///
/// A count that cannot stop early (no tick limit, no deadline, no fault
/// plan) runs on up to [`std::thread::available_parallelism`] threads, the
/// caller's included: the subtrees below the bindings of the first variable
/// only read the shared tries, so each runs on its own machine and their
/// counts add. The answer and every [`RunStats`] field equal the
/// sequential [`join_foreach`]'s. A count that can stop early runs
/// sequentially, so it stops at exactly the same tick as before.
#[must_use = "dropping the result discards the answer count or the failure"]
pub fn count(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Result<(Outcome<u64>, RunStats), JoinError> {
    let p = prepare(q, db, order)?;
    let mut ticker = Ticker::new(budget);
    // One variable leaves nothing below the root to split.
    if p.num_vars >= 2 && ticker.cannot_exhaust() {
        match count_split(&p, ticker) {
            Some(done) => return Ok(done),
            // A worker failed: count again on the sequential machine.
            None => ticker = Ticker::new(budget),
        }
    }
    Ok(run_foreach(&p, &[], ticker, |_| {}))
}

/// The root level of a split count, shared by its workers: a machine that
/// stops at each binding of the first variable (`ceiling` 1), and the
/// ticker that pays that level's ticks.
struct Root {
    m: Machine,
    ticker: Ticker,
    spare: Vec<Frame>,
    done: bool,
}

/// Runs a count that cannot exhaust on scoped threads. `None` when a worker
/// failed (a poisoned lock or a failed join); the caller then counts
/// sequentially.
fn count_split(p: &Prepared, ticker: Ticker) -> Option<(Outcome<u64>, RunStats)> {
    let mut m = Machine::fresh(p);
    m.ceiling = 1;
    let root = std::sync::Mutex::new(Root {
        m,
        ticker,
        spare: Vec::new(),
        done: false,
    });
    let helpers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .saturating_sub(1);
    let workers = std::thread::scope(|s| {
        // A helper the OS refuses to start is simply not there: the
        // remaining workers take its share of the bindings.
        let handles: Vec<_> = (0..helpers)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(s, || count_subtrees(p, &root))
                    .ok()
            })
            .collect();
        let own = count_subtrees(p, &root);
        handles
            .into_iter()
            .map(|h| h.join().ok().flatten())
            .fold(own, |acc, w| {
                let ((n, mut stats), (wn, ws)) = (acc?, w?);
                stats.absorb(&ws);
                Some((n + wn, stats))
            })
    });
    let (n, stats) = workers?;
    let mut root = root.into_inner().ok()?;
    if !root.done {
        return None;
    }
    root.ticker.absorb(&stats);
    Some(root.ticker.finish(Ok(Some(n))))
}

/// One worker of a split count: takes the root's next binding under the
/// lock, then runs its subtree on its own machine (`floor` 1, a placeholder
/// standing in for the root's frame), ticker and spare frames until the
/// subtree pops back to the root. Returns its answers and counters.
fn count_subtrees(p: &Prepared, root: &std::sync::Mutex<Root>) -> Option<(u64, RunStats)> {
    let mut m = Machine::fresh(p);
    m.floor = 1;
    m.frames.push(Frame::default());
    let mut ticker = Ticker::new(&Budget::unlimited());
    let mut spare = Vec::new();
    let mut n = 0u64;
    loop {
        {
            let mut guard = root.lock().ok()?;
            let r = &mut *guard;
            if r.done {
                break;
            }
            match r.m.run(p, &mut r.ticker, &mut r.spare) {
                Ok(true) => {
                    m.ranges.clone_from(&r.m.ranges);
                    m.tuple.clone_from(&r.m.tuple);
                    r.m.advance_top();
                }
                Ok(false) => {
                    r.done = true;
                    break;
                }
                Err(_) => {
                    r.done = true;
                    return None;
                }
            }
        }
        m.phase = Phase::Enter;
        loop {
            match m.run(p, &mut ticker, &mut spare) {
                Ok(true) => n += 1,
                Ok(false) => break,
                Err(_) => return None,
            }
        }
    }
    Some((n, ticker.stats()))
}

/// Decides emptiness with early exit (the BOOLEAN JOIN QUERY problem):
/// `Sat(is_empty)` or `Exhausted`.
#[must_use = "dropping the result discards the emptiness answer or the failure"]
pub fn is_empty(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Result<(Outcome<bool>, RunStats), JoinError> {
    let (found, stats) = resumable::find(&JoinSearch::new(q, db, order)?, budget);
    let empty = match found {
        Outcome::Sat(_) => Outcome::Sat(false),
        Outcome::Unsat => Outcome::Sat(true),
        Outcome::Exhausted(reason) => Outcome::Exhausted(reason),
    };
    Ok((empty, stats))
}

/// Leapfrog Triejoin on one query, database and variable order, as a
/// resumable search: find mode answers the Boolean query with one answer
/// tuple (in [`JoinQuery::attributes`] order), count mode counts the
/// answers. The tries are built once, by [`JoinSearch::new`].
pub struct JoinSearch<'a> {
    q: &'a JoinQuery,
    db: &'a Database,
    order: Option<Vec<String>>,
    p: Prepared,
    pos_of: Vec<usize>,
}

impl<'a> JoinSearch<'a> {
    /// Prepares the tries of `q` over `db` in `order` (attribute order
    /// when `None`): the only step that can fail, on a malformed database
    /// or order.
    pub fn new(
        q: &'a JoinQuery,
        db: &'a Database,
        order: Option<&[String]>,
    ) -> Result<JoinSearch<'a>, JoinError> {
        let p = prepare(q, db, order)?;
        let attrs = q.attributes();
        let pos_of = attr_positions(&attrs, order.unwrap_or(&attrs));
        Ok(JoinSearch {
            q,
            db,
            order: order.map(<[String]>::to_vec),
            p,
            pos_of,
        })
    }
}

/// Writes one trie range (the codec of [`JoinSearch`]'s frontier).
fn put_range(w: &mut PayloadWriter, r: &Range) {
    w.usize(r.depth).usize(r.lo).usize(r.hi);
}

impl Resumable for JoinSearch<'_> {
    type State = Machine;
    type Answer = Vec<Value>;
    const FAMILY: SolverFamily = SolverFamily::GenericJoin;
    const PAYLOAD_VERSION: u16 = CHECKPOINT_PAYLOAD_VERSION;
    /// Counting wrote mode 0 and the emptiness check mode 1 before the
    /// two shared one interface.
    const MODE_TAGS: Option<[u8; 2]> = Some([1, 0]);

    /// FNV digest binding a checkpoint to (query, database, variable order).
    fn digest(&self) -> u64 {
        let (q, db) = (self.q, self.db);
        let mut d = Digest::new();
        d.str("generic-join");
        let attrs = q.attributes();
        let ord = self.order.as_deref().unwrap_or(&attrs);
        d.usize(ord.len());
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in query and database; runs once per resume
        for a in ord {
            d.str(a);
        }
        d.usize(q.atoms.len());
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in query and database; runs once per resume
        for atom in &q.atoms {
            d.str(&atom.relation);
            d.usize(atom.attrs.len());
            // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in query and database; runs once per resume
            for a in &atom.attrs {
                d.str(a);
            }
            if let Some(table) = db.table(&atom.relation) {
                // Row-major values: the same sequence as row by row.
                d.usize(table.arity()).usize(table.len());
                table.flat().iter().for_each(|&v| {
                    d.u64(v);
                });
            }
        }
        d.finish()
    }

    fn fresh(&self) -> Machine {
        Machine::fresh(&self.p)
    }

    fn run(
        &self,
        m: &mut Machine,
        ticker: &mut Ticker,
    ) -> Result<Option<Vec<Value>>, ExhaustReason> {
        let found = m.run(&self.p, ticker, &mut Vec::new())?;
        Ok(found.then(|| {
            self.pos_of
                .iter()
                .map(|&i| m.tuple.get(i).copied().unwrap_or(0))
                .collect()
        }))
    }

    fn encode(&self, m: &Machine, w: &mut PayloadWriter) {
        w.seq(&m.ranges, put_range)
            .seq(&m.tuple, |w, &v| {
                w.u64(v);
            })
            .seq(&m.frames, |w, f| {
                w.seq_usize(&f.participants)
                    .bool(f.heavy)
                    .usize(f.driver)
                    .each(&f.saved, put_range);
                if f.heavy {
                    w.each(&f.pos, |w, &p| {
                        w.usize(p);
                    })
                    .usize(f.turn)
                    .usize(f.agreed)
                    .u64(f.max_v);
                } else {
                    w.usize(f.cur);
                }
                w.u64(f.v);
            });
        w.u8(match m.phase {
            Phase::Enter => 0,
            Phase::Step => 1,
            Phase::Narrow { .. } => 2,
            Phase::Bind => 3,
            Phase::Emit => 4,
        });
        if let Phase::Narrow { idx } = m.phase {
            w.usize(idx);
        }
    }

    /// Decodes and validates a frontier against the prepared query.
    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Machine, CheckpointError> {
        let p = &self.p;
        let num_atoms = p.atoms.len();
        let read_range =
            |r: &mut PayloadReader<'_>, atom: usize| -> Result<Range, CheckpointError> {
                let Some(pa) = p.atoms.get(atom) else {
                    return Err(CheckpointError::Malformed {
                        what: format!("range for unknown atom {atom}"),
                        offset: r.offset(),
                    });
                };
                let ranks = pa.var_ranks.len();
                let at = r.offset();
                let depth = r.usize_at_most(ranks, "range depth")?;
                let bound = range_bound(&pa.trie, depth);
                let lo = r.usize_at_most(bound, "range lo")?;
                let hi = r.usize_at_most(bound, "range hi")?;
                if lo > hi {
                    return Err(CheckpointError::Malformed {
                        what: format!("range lo {lo} > hi {hi}"),
                        offset: at,
                    });
                }
                Ok(Range { lo, hi, depth })
            };
        let ranges = r.seq(num_atoms..=num_atoms, 24, "atom ranges", read_range)?;
        let tuple = r.seq(p.num_vars..=p.num_vars, 8, "tuple", |r, _| r.u64())?;
        let frames = r.seq(..=p.num_vars, 33, "frame stack", |r, _| {
            let participants = r.seq(.., 8, "participants", |r, _| {
                r.usize_below(num_atoms, "participant atom")
            })?;
            let part_len = participants.len();
            let heavy = r.bool()?;
            let driver = r.usize_below(part_len.max(1), "driver slot")?;
            if part_len == 0 {
                return Err(CheckpointError::Malformed {
                    what: "frame with no participants".into(),
                    offset: r.offset(),
                });
            }
            let saved = r.items(participants.iter(), 24, "saved ranges", |r, &atom| {
                read_range(r, atom)
            })?;
            let mut frame = Frame {
                participants,
                heavy,
                driver,
                ..Frame::default()
            };
            if heavy {
                frame.pos = r.items(saved.iter(), 8, "leapfrog positions", |r, sr| {
                    let at = r.offset();
                    let pj = r.usize_at_most(sr.hi, "leapfrog position")?;
                    if pj < sr.lo {
                        return Err(CheckpointError::Malformed {
                            what: format!("leapfrog position {pj} below range lo {}", sr.lo),
                            offset: at,
                        });
                    }
                    Ok(pj)
                })?;
                frame.turn = r.usize_below(part_len, "leapfrog turn")?;
                frame.agreed = r.usize_at_most(part_len, "leapfrog agreement")?;
                frame.max_v = r.u64()?;
            } else {
                let sr = saved.get(driver).copied().unwrap_or_default();
                let at = r.offset();
                frame.cur = r.usize_at_most(sr.hi, "light cursor")?;
                if frame.cur < sr.lo {
                    return Err(CheckpointError::Malformed {
                        what: format!("light cursor {} below range lo {}", frame.cur, sr.lo),
                        offset: at,
                    });
                }
            }
            frame.saved = saved;
            frame.v = r.u64()?;
            Ok(frame)
        })?;
        let tag_at = r.offset();
        let phase = match r.u8()? {
            0 => Phase::Enter,
            1 => Phase::Step,
            2 => {
                let top = frames.last().ok_or_else(|| CheckpointError::Malformed {
                    what: "narrow phase with an empty frame stack".into(),
                    offset: tag_at,
                })?;
                if top.heavy {
                    return Err(CheckpointError::Malformed {
                        what: "narrow phase on a heavy (leapfrog) frame".into(),
                        offset: tag_at,
                    });
                }
                let idx = r.usize_at_most(top.participants.len(), "narrow index")?;
                Phase::Narrow { idx }
            }
            3 => {
                let top = frames.last().ok_or_else(|| CheckpointError::Malformed {
                    what: "bind phase with an empty frame stack".into(),
                    offset: tag_at,
                })?;
                if !top.heavy {
                    return Err(CheckpointError::Malformed {
                        what: "bind phase on a light frame".into(),
                        offset: tag_at,
                    });
                }
                Phase::Bind
            }
            4 => Phase::Emit,
            b => {
                return Err(CheckpointError::Malformed {
                    what: format!("invalid phase tag {b}"),
                    offset: tag_at,
                })
            }
        };
        Ok(Machine {
            ranges,
            tuple,
            frames,
            phase,
            floor: 0,
            ceiling: usize::MAX,
        })
    }
}

impl Countable for JoinSearch<'_> {
    /// Runs the slice with one pool of spare frames, as [`count`] does.
    fn count_answers(
        &self,
        m: &mut Machine,
        n: &mut u64,
        ticker: &mut Ticker,
    ) -> Result<(), ExhaustReason> {
        let mut spare = Vec::new();
        while m.run(&self.p, ticker, &mut spare)? {
            *n += 1;
        }
        Ok(())
    }
}

/// Testing oracle: joins the atoms one at a time by scanning all pairs
/// (no hashing, no sorting tricks). Exponentially slower but obviously
/// correct; output matches [`join`]'s order.
#[must_use = "dropping the result discards the join answers or the failure"]
pub fn nested_loop_join(
    q: &JoinQuery,
    db: &Database,
    budget: &Budget,
) -> Result<(Outcome<Vec<AnswerTuple>>, RunStats), JoinError> {
    db.validate_for(q).map_err(JoinError::BadDatabase)?;
    let mut ticker = Ticker::new(budget);
    let result = nested_loop_inner(q, db, &mut ticker);
    Ok(ticker.finish(result.map(Some)))
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "invariant: validate_for checked every atom's relation before the join ran, so every atom attribute is in attrs (ai < attrs.len() = cand.len()) and a full pass assigns every attribute"
)]
fn nested_loop_inner(
    q: &JoinQuery,
    db: &Database,
    ticker: &mut Ticker,
) -> Result<Vec<AnswerTuple>, ExhaustReason> {
    let attrs = q.attributes();
    // Partial tuples: map attr index → value, grown atom by atom.
    let mut partial: Vec<Vec<Option<Value>>> = vec![vec![None; attrs.len()]];
    for atom in &q.atoms {
        let table = db.table(&atom.relation).expect("validated");
        let cols: Vec<usize> = atom
            .attrs
            .iter()
            .map(|a| attrs.binary_search(a).expect("known"))
            .collect();
        let mut next = Vec::new();
        for pt in &partial {
            'rows: for row in table.rows() {
                ticker.node()?;
                let mut cand = pt.clone();
                // lb-lint: allow(unbudgeted-loop) -- binds one row's attributes; bounded by arity, one pass per charged tuple
                for (&ai, &v) in cols.iter().zip(row) {
                    match cand[ai] {
                        None => cand[ai] = Some(v),
                        Some(existing) if existing == v => {}
                        Some(_) => continue 'rows,
                    }
                }
                ticker.tuple()?;
                next.push(cand);
            }
        }
        partial = next;
        ticker.record_intermediate(partial.len() as u64);
    }
    let mut out: Vec<AnswerTuple> = partial
        .into_iter()
        .map(|pt| {
            pt.into_iter()
                .map(|o| o.expect("all attrs covered"))
                .collect()
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Table;
    use crate::generators;
    use crate::query::Atom;
    use crate::reference;

    fn join_all(q: &JoinQuery, db: &Database, order: Option<&[String]>) -> Vec<AnswerTuple> {
        join(q, db, order, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    fn count_all(q: &JoinQuery, db: &Database) -> u64 {
        count(q, db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    fn nested_all(q: &JoinQuery, db: &Database) -> Vec<AnswerTuple> {
        nested_loop_join(q, db, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat()
    }

    fn tiny_triangle_db() -> Database {
        // Edges of a 4-cycle + chord: triangles {0,1,2}.
        let pairs = vec![vec![0u64, 1], vec![1, 2], vec![0, 2], vec![2, 3]];
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            let mut rows = pairs.clone();
            // Symmetric closure so orientation doesn't matter.
            let rev: Vec<Vec<u64>> = pairs.iter().map(|p| vec![p[1], p[0]]).collect();
            rows.extend(rev);
            db.insert(name, Table::from_rows(2, rows));
        }
        db
    }

    /// A triangle database with one heavy-hitter value (0) whose tails are
    /// disjoint runs: leapfrog gallops over them in O(log) seeks while the
    /// old generic join probes every candidate.
    fn heavy_hitter_db(hub: u64, tail: u64) -> Database {
        let mut db = Database::new();
        let mut r_rows: Vec<Vec<Value>> = (0..hub).map(|b| vec![0, b]).collect();
        r_rows.extend((1..=tail).map(|i| vec![i, i]));
        db.insert("R", Table::from_rows(2, r_rows));
        let mut s_rows: Vec<Vec<Value>> = (0..hub).map(|c| vec![0, c]).collect();
        s_rows.extend((1..=tail).map(|i| vec![10_000 + i, i]));
        db.insert("S", Table::from_rows(2, s_rows));
        let mut t_rows: Vec<Vec<Value>> = (0..hub).map(|x| vec![x, x]).collect();
        t_rows.extend((0..hub).map(|x| vec![x, (x + 1) % hub]));
        db.insert("T", Table::from_rows(2, t_rows));
        db
    }

    #[test]
    fn triangle_join_finds_triangles() {
        let q = JoinQuery::triangle();
        let db = tiny_triangle_db();
        let ans = join_all(&q, &db, None);
        // Triangle {0,1,2} in all 6 orientations.
        assert_eq!(ans.len(), 6);
        assert!(ans.contains(&vec![0, 1, 2]));
        assert_eq!(count_all(&q, &db), 6);
        assert!(!is_empty(&q, &db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat());
    }

    #[test]
    fn counters_reflect_the_search() {
        let q = JoinQuery::triangle();
        let db = tiny_triangle_db();
        let (out, stats) = join(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(out.unwrap_sat().len(), 6);
        assert_eq!(stats.tuples, 6);
        assert!(stats.nodes > 0, "candidate values must be counted");
        assert!(
            stats.trie_advances >= stats.nodes,
            "every candidate costs at least one seek or probe"
        );
    }

    #[test]
    fn join_foreach_streams_in_attribute_order() {
        let q = JoinQuery::triangle();
        let db = tiny_triangle_db();
        let mut seen: Vec<AnswerTuple> = Vec::new();
        let (out, stats) = join_foreach(&q, &db, None, &Budget::unlimited(), |t| {
            seen.push(t.to_vec())
        })
        .unwrap();
        assert_eq!(out.unwrap_sat(), 6);
        assert_eq!(stats.tuples, 6);
        seen.sort_unstable();
        assert_eq!(seen, join_all(&q, &db, None));
        // The streaming entry records no materialized intermediate for
        // the answers themselves (only the frame stack).
        assert!(stats.max_intermediate <= 3);
    }

    #[test]
    fn tiny_budget_exhausts() {
        let q = JoinQuery::triangle();
        let db = tiny_triangle_db();
        let (out, stats) = join(&q, &db, None, &Budget::ticks(3)).unwrap();
        assert!(out.is_exhausted());
        assert_eq!(stats.total_ops(), 4); // the crossing op is still recorded
        let (out, _) = count(&q, &db, None, &Budget::ticks(3)).unwrap();
        assert!(out.is_exhausted());
        let (out, _) = nested_loop_join(&q, &db, &Budget::ticks(3)).unwrap();
        assert!(out.is_exhausted());
    }

    #[test]
    fn matches_nested_loop_on_random_inputs() {
        for seed in 0..10u64 {
            let q = JoinQuery::triangle();
            let db = generators::random_binary_database(&q, 30, 8, seed);
            let a = join_all(&q, &db, None);
            let b = nested_all(&q, &db);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn matches_nested_loop_on_cycle_query() {
        for seed in 0..5u64 {
            let q = JoinQuery::cycle(4);
            let db = generators::random_binary_database(&q, 20, 6, seed);
            assert_eq!(join_all(&q, &db, None), nested_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn matches_nested_loop_on_loomis_whitney() {
        for seed in 0..5u64 {
            let q = JoinQuery::loomis_whitney(3);
            let db = generators::random_database(&q, 25, 5, seed);
            assert_eq!(join_all(&q, &db, None), nested_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn matches_nested_loop_on_skewed_inputs() {
        for seed in 0..6u64 {
            let q = JoinQuery::triangle();
            let db = generators::skewed_binary_database(&q, 40, 16, seed);
            assert_eq!(join_all(&q, &db, None), nested_all(&q, &db), "seed {seed}");
        }
    }

    #[test]
    fn custom_variable_orders_agree() {
        let q = JoinQuery::triangle();
        let db = generators::random_binary_database(&q, 40, 10, 3);
        let base = join_all(&q, &db, None);
        for ord in [
            vec!["a".to_string(), "b".into(), "c".into()],
            vec!["c".to_string(), "b".into(), "a".into()],
            vec!["b".to_string(), "c".into(), "a".into()],
        ] {
            assert_eq!(join_all(&q, &db, Some(&ord)), base, "order {ord:?}");
        }
    }

    #[test]
    fn bad_order_rejected() {
        let q = JoinQuery::triangle();
        let db = tiny_triangle_db();
        let ord = vec!["a".to_string(), "b".into()];
        assert!(matches!(
            join(&q, &db, Some(&ord), &Budget::unlimited()),
            Err(JoinError::BadOrder(_))
        ));
        assert!(matches!(
            JoinSearch::new(&q, &db, Some(&ord)),
            Err(JoinError::BadOrder(_))
        ));
    }

    #[test]
    fn empty_relation_empty_answer() {
        let q = JoinQuery::triangle();
        let mut db = tiny_triangle_db();
        db.insert("S", Table::new(2));
        assert!(is_empty(&q, &db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat());
        assert_eq!(count_all(&q, &db), 0);
    }

    #[test]
    fn single_atom_query_returns_table() {
        let q = JoinQuery::new(vec![Atom::new("R", &["x", "y"])]);
        let mut db = Database::new();
        db.insert("R", Table::from_rows(2, vec![vec![1, 2], vec![3, 4]]));
        let ans = join_all(&q, &db, None);
        assert_eq!(ans, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn repeated_attribute_diagonal() {
        // R(a, a) keeps only diagonal rows.
        let q = JoinQuery::new(vec![Atom::new("R", &["a", "a"])]);
        let mut db = Database::new();
        db.insert(
            "R",
            Table::from_rows(2, vec![vec![1, 1], vec![1, 2], vec![3, 3]]),
        );
        let ans = join_all(&q, &db, None);
        assert_eq!(ans, vec![vec![1], vec![3]]);
    }

    #[test]
    fn atoms_with_unsorted_attribute_order() {
        // R(b, a) ⋈ S(a, c): columns must be permuted into global variable
        // order during preparation.
        let q = JoinQuery::new(vec![
            Atom::new("R", &["b", "a"]),
            Atom::new("S", &["a", "c"]),
        ]);
        let mut db = Database::new();
        db.insert(
            "R",
            Table::from_rows(2, vec![vec![10, 1], vec![20, 2]]), // (b, a)
        );
        db.insert(
            "S",
            Table::from_rows(2, vec![vec![1, 100], vec![2, 200], vec![3, 300]]),
        );
        let ans = join_all(&q, &db, None);
        // Attributes sorted: [a, b, c].
        assert_eq!(ans, vec![vec![1, 10, 100], vec![2, 20, 200]]);
        assert_eq!(ans, nested_all(&q, &db));
    }

    #[test]
    fn worst_case_count_equals_prediction() {
        let q = JoinQuery::triangle();
        let (db, predicted) = crate::agm::worst_case_database(&q, 49).unwrap();
        assert_eq!(count_all(&q, &db) as u128, predicted);
    }

    #[test]
    fn heavy_mode_beats_reference_on_disjoint_heavy_hitters() {
        // One hub value shared by R.a and S.a, plus long disjoint tails:
        // the reference generic join probes every tail value; leapfrog
        // gallops over both tails in a handful of seeks.
        let q = JoinQuery::triangle();
        let db = heavy_hitter_db(32, 300);
        let (new_out, new_stats) = count(&q, &db, None, &Budget::unlimited()).unwrap();
        let (old_out, old_stats) = reference::count(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(new_out.unwrap_sat(), old_out.unwrap_sat());
        assert!(
            new_stats.total_ops() * 2 < old_stats.total_ops(),
            "leapfrog should at least halve the op count on disjoint heavy tails: {} vs {}",
            new_stats.total_ops(),
            old_stats.total_ops()
        );
    }

    #[test]
    fn a_nullary_atom_trie_counts_the_tables_row() {
        let q = JoinQuery::new(vec![Atom::new("R", &["a", "b"]), Atom::new("U", &[])]);
        let mut db = tiny_triangle_db();
        let mut unit = Table::new(0);
        unit.push(&[]);
        unit.normalize();
        db.insert("U", unit);
        let p = prepare(&q, &db, None).unwrap();
        assert_eq!(p.atoms[1].trie.rows(), 1);
        assert_eq!(p.atoms[0].trie.rows(), db.table("R").unwrap().len());
    }
}
