//! One interface for every resumable search, and the drivers that run one:
//! a slice at a time, or whole.
//!
//! The five searches whose lower bounds the paper proves — DPLL under the
//! ETH, CSP backtracking, the worst-case optimal join, triangle detection
//! and k-clique — each run as a micro-step machine whose whole frontier
//! fits in a [`Checkpoint`]. A family implements [`Resumable`] once: its
//! tag and payload version, the instance digest, a fresh frontier, `run`,
//! and `encode`/`decode` of the frontier. [`find_slice`] and
//! [`count_slice`] own everything else a resumed slice does, the same way
//! for every family (and [`find`] and [`count`] run a search whole, with no
//! checkpoint in or out):
//!
//! 1. check the checkpoint's family and payload version
//!    ([`Checkpoint::verify`]);
//! 2. check the instance digest, so a frontier never resumes against
//!    another instance or configuration;
//! 3. check the mode byte, so a count frontier never resumes as a find;
//! 4. decode the frontier (or start a fresh one) and require the payload
//!    to be consumed exactly;
//! 5. run under a [`Ticker`] for the slice's budget;
//! 6. on a failed charge, wrap the encoded frontier in
//!    [`Checkpoint::new`].
//!
//! # Payload layout
//!
//! ```text
//! u64   instance digest            (Resumable::digest)
//! u8    mode byte                  (absent when MODE_TAGS is None)
//! u64   running count              (absent when COUNT_FIELD is false;
//!                                   find mode writes 0)
//! ...   the family's frontier      (Resumable::encode)
//! ```
//!
//! The two header hooks keep every payload written before the trait
//! existed byte-identical: DPLL, which only finds, writes no mode byte, and
//! the triangle scan keeps its running sum inside its own frontier, so it
//! writes no count field.

use crate::checkpoint::{
    Checkpoint, CheckpointError, PayloadReader, PayloadWriter, ResumableOutcome, SolverFamily,
};
use crate::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use std::cell::OnceCell;

/// A resumable search: an instance (with its solver configuration) bound
/// to the micro-step machine that searches it.
///
/// The contract every implementation keeps is *effect before charge*:
/// each counted operation updates the state to its continuation point
/// before it spends the tick, so a failed charge leaves a `State` that
/// [`encode`](Self::encode) can persist and the next slice continues with
/// the next operation. Chained slices then reach the verdict of one
/// uninterrupted run with the same summed [`RunStats`].
pub trait Resumable {
    /// The search frontier: everything a checkpoint carries.
    type State;
    /// What find mode returns for a found answer.
    type Answer;

    /// The family tag written into the checkpoint container.
    const FAMILY: SolverFamily;
    /// The family's payload version, bumped whenever `encode` changes.
    const PAYLOAD_VERSION: u16;
    /// Header hook: the mode bytes `[find, count]` written after the
    /// digest, or `None` for a family that writes none.
    const MODE_TAGS: Option<[u8; 2]> = Some([0, 1]);
    /// Header hook: whether a u64 running count follows the mode byte.
    const COUNT_FIELD: bool = true;

    /// FNV digest of the instance and the configuration; a checkpoint
    /// resumes only against an equal digest.
    fn digest(&self) -> u64;

    /// The frontier of a search that has not started.
    fn fresh(&self) -> Self::State;

    /// Runs micro-steps until the next answer (`Ok(Some(..))`, the state
    /// positioned to continue past it), the end of the search (`Ok(None)`),
    /// or a failed charge (`Err`, the state resumable).
    fn run(
        &self,
        state: &mut Self::State,
        ticker: &mut Ticker,
    ) -> Result<Option<Self::Answer>, ExhaustReason>;

    /// Appends the frontier to a payload whose header is already written.
    fn encode(&self, state: &Self::State, w: &mut PayloadWriter);

    /// Reads back what [`encode`](Self::encode) wrote, validating every
    /// index against the instance: a hostile payload is a typed
    /// [`CheckpointError`], never a panic. The driver checks that the
    /// payload ends where the frontier does.
    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Self::State, CheckpointError>;
}

/// A [`Resumable`] search that can also count its answers.
pub trait Countable: Resumable {
    /// Runs to the end of the search, adding each answer passed to `n`, or
    /// stops at a failed charge with `n` counting the answers passed so
    /// far. A family whose frontier keeps its own running total (and so
    /// sets [`Resumable::COUNT_FIELD`] to false) overrides this to set `n`
    /// from that total when the search ends.
    fn count_answers(
        &self,
        state: &mut Self::State,
        n: &mut u64,
        ticker: &mut Ticker,
    ) -> Result<(), ExhaustReason> {
        while self.run(state, ticker)?.is_some() {
            *n += 1;
        }
        Ok(())
    }
}

/// The mode byte `S` writes for count mode (`count`) or find mode, if any.
fn mode_tag<S: Resumable>(count: bool) -> Option<u8> {
    S::MODE_TAGS.map(|[find, counting]| if count { counting } else { find })
}

/// Starts a slice: a fresh frontier, or `from` checked against `search`
/// and the mode and decoded. Returns the frontier and the running count.
/// `digest` holds the instance digest once a slice has computed it: at most
/// once per slice, and not at all for a fresh slice that settles.
fn open<S: Resumable>(
    search: &S,
    count: bool,
    digest: &OnceCell<u64>,
    from: Option<&Checkpoint>,
) -> Result<(S::State, u64), CheckpointError> {
    let Some(ck) = from else {
        return Ok((search.fresh(), 0));
    };
    ck.verify(S::FAMILY, S::PAYLOAD_VERSION)?;
    let mut r = PayloadReader::new(ck.payload());
    let expected = *digest.get_or_init(|| search.digest());
    let found = r.u64()?;
    if found != expected {
        return Err(CheckpointError::InstanceMismatch {
            family: S::FAMILY,
            expected,
            found,
        });
    }
    if let Some(tag) = mode_tag::<S>(count) {
        let at = r.offset();
        let stored = r.u8()?;
        if stored != tag {
            return Err(CheckpointError::Malformed {
                what: format!("checkpoint mode {stored} does not match entry point mode {tag}"),
                offset: at,
            });
        }
    }
    let n = if S::COUNT_FIELD { r.u64()? } else { 0 };
    let state = search.decode(&mut r)?;
    r.finish()?;
    Ok((state, n))
}

/// Ends a slice at a failed charge: the frontier and count in a checkpoint.
fn suspend<S: Resumable, W>(
    search: &S,
    count: bool,
    digest: &OnceCell<u64>,
    state: &S::State,
    n: u64,
    reason: ExhaustReason,
) -> ResumableOutcome<W> {
    let mut w = PayloadWriter::new();
    w.u64(*digest.get_or_init(|| search.digest()));
    if let Some(tag) = mode_tag::<S>(count) {
        w.u8(tag);
    }
    if S::COUNT_FIELD {
        w.u64(n);
    }
    search.encode(state, &mut w);
    ResumableOutcome::Suspended {
        reason,
        checkpoint: Checkpoint::new(S::FAMILY, S::PAYLOAD_VERSION, w.finish()),
    }
}

/// Find mode: runs one slice of `search` under `budget`, from `from` or
/// from scratch, to its first answer (`Sat`), the end of the search
/// (`Unsat`), or a suspension whose checkpoint the next slice resumes.
#[must_use = "a resumable run's outcome carries the checkpoint needed to continue"]
pub fn find_slice<S: Resumable>(
    search: &S,
    budget: &Budget,
    from: Option<&Checkpoint>,
) -> Result<(ResumableOutcome<S::Answer>, RunStats), CheckpointError> {
    let digest = OnceCell::new();
    let (mut state, _) = open(search, false, &digest, from)?;
    let mut ticker = Ticker::new(budget);
    let outcome = match search.run(&mut state, &mut ticker) {
        Ok(Some(answer)) => ResumableOutcome::Sat(answer),
        Ok(None) => ResumableOutcome::Unsat,
        Err(reason) => suspend(search, false, &digest, &state, 0, reason),
    };
    Ok((outcome, ticker.stats()))
}

/// Count mode: runs one slice of `search` under `budget`, from `from` or
/// from scratch, to the number of answers (`Sat(n)`, summed over every
/// slice) or a suspension whose checkpoint carries the running count.
#[must_use = "a resumable run's outcome carries the checkpoint needed to continue"]
pub fn count_slice<S: Countable>(
    search: &S,
    budget: &Budget,
    from: Option<&Checkpoint>,
) -> Result<(ResumableOutcome<u64>, RunStats), CheckpointError> {
    let digest = OnceCell::new();
    let (mut state, mut n) = open(search, true, &digest, from)?;
    let mut ticker = Ticker::new(budget);
    let outcome = match search.count_answers(&mut state, &mut n, &mut ticker) {
        Ok(()) => ResumableOutcome::Sat(n),
        Err(reason) => suspend(search, true, &digest, &state, n, reason),
    };
    Ok((outcome, ticker.stats()))
}

/// Find mode in one uninterrupted run under `budget`: the first answer,
/// `Unsat`, or `Exhausted` (final: no checkpoint is written).
pub fn find<S: Resumable>(search: &S, budget: &Budget) -> (Outcome<S::Answer>, RunStats) {
    let mut state = search.fresh();
    let mut ticker = Ticker::new(budget);
    let result = search.run(&mut state, &mut ticker);
    ticker.finish(result)
}

/// Count mode in one uninterrupted run under `budget`: `Sat(answers)` or
/// `Exhausted` (final: no checkpoint is written).
pub fn count<S: Countable>(search: &S, budget: &Budget) -> (Outcome<u64>, RunStats) {
    let mut state = search.fresh();
    let mut n = 0;
    let mut ticker = Ticker::new(budget);
    let result = search.count_answers(&mut state, &mut n, &mut ticker);
    ticker.finish(result.map(|()| Some(n)))
}
