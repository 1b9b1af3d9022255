//! The pre-leapfrog Generic Join, frozen as a differential oracle.
//!
//! This is the row-major generic join that [`crate::wcoj`] used before the
//! columnar Leapfrog Triejoin rewrite: per-variable intersection by
//! iterating the smallest relation's distinct values and binary-searching
//! the other participants' sorted row projections. It is kept verbatim
//! (minus checkpointing) so property tests and the BENCH harness can
//! compare the new engine's answers and op counts against a known-good
//! implementation of the same Õ(N^{ρ*}) algorithm.
//!
//! Engine mapping (identical to the old path): each candidate value tried
//! is a `nodes` tick, each per-relation range narrowing a `trie_advances`
//! tick, each answer tuple a `tuples` tick, and the frame-stack depth is
//! recorded in `max_intermediate`.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::database::Database;
use crate::query::{AnswerTuple, JoinQuery};
use crate::wcoj::JoinError;
use crate::Value;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// A prepared atom: rows re-sorted so columns follow the global variable
/// order, repeated attributes collapsed to their diagonal.
struct PreparedAtom {
    /// Global variable ranks of this atom's (distinct) attributes, ascending.
    var_ranks: Vec<usize>,
    /// Rows sorted lexicographically in `var_ranks` column order.
    rows: Vec<Vec<Value>>,
}

struct Prepared {
    atoms: Vec<PreparedAtom>,
    num_vars: usize,
}

#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "invariant: validate_for checked every atom's relation and row arity, and the order was verified to cover every query attribute, so every rank is in distinct and every column is within its row"
)]
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
    let rank_of = |name: &str| order.iter().position(|a| a == name).expect("validated");

    let mut atoms = Vec::with_capacity(q.atoms.len());
    // lb-lint: allow(unbudgeted-loop) -- plan construction, linear in database size; runs once before search
    for atom in &q.atoms {
        let table = db.table(&atom.relation).expect("validated");
        let mut distinct: Vec<(usize, usize)> = Vec::new(); // (rank, column)
                                                            // lb-lint: allow(unbudgeted-loop) -- plan construction, linear in database size; runs once before search
        for (col, a) in atom.attrs.iter().enumerate() {
            let r = rank_of(a);
            if !distinct.iter().any(|&(dr, _)| dr == r) {
                distinct.push((r, col)); // lb-lint: allow(unbounded-growth) -- one entry per distinct attribute, bounded by atom arity
            }
        }
        distinct.sort_unstable();
        let var_ranks: Vec<usize> = distinct.iter().map(|&(r, _)| r).collect();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        // lb-lint: allow(unbudgeted-loop) -- plan construction, linear in database size; runs once before search
        'rows: for row in table.rows() {
            // lb-lint: allow(unbudgeted-loop) -- plan construction, linear in database size; runs once before search
            for (col, a) in atom.attrs.iter().enumerate() {
                let r = rank_of(a);
                let first_col = distinct
                    .iter()
                    .find(|&&(dr, _)| dr == r)
                    .expect("present")
                    .1;
                if row[col] != row[first_col] {
                    continue 'rows;
                }
            }
            rows.push(distinct.iter().map(|&(_, col)| row[col]).collect()); // lb-lint: allow(unbounded-growth) -- projected copy of one input table, linear in database size
        }
        rows.sort_unstable();
        rows.dedup();
        atoms.push(PreparedAtom { var_ranks, rows }); // lb-lint: allow(unbounded-growth) -- one prepared atom per query atom
    }
    Ok(Prepared {
        atoms,
        num_vars: attrs.len(),
    })
}

/// Active range of an atom's sorted rows during the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Range {
    lo: usize,
    hi: usize,
    depth: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Enter,
    Step,
    Narrow { idx: usize },
    Emit,
}

struct Frame {
    participants: Vec<usize>,
    driver: usize,
    saved: Vec<Range>,
    lo: usize,
    lo_end: usize,
    hi: usize,
    v: Value,
}

struct Machine {
    ranges: Vec<Range>,
    tuple: Vec<Value>,
    frames: Vec<Frame>,
    phase: Phase,
}

impl Machine {
    fn fresh(p: &Prepared) -> Machine {
        Machine {
            ranges: p
                .atoms
                .iter()
                .map(|a| Range {
                    lo: 0,
                    hi: a.rows.len(),
                    depth: 0,
                })
                .collect(),
            tuple: vec![0; p.num_vars],
            frames: Vec::new(),
            phase: Phase::Enter,
        }
    }

    fn restore_and_advance(frame: &mut Frame, ranges: &mut [Range]) {
        // lb-lint: allow(unbudgeted-loop) -- restores one frame's saved ranges; bounded by participants
        for (&i, &r) in frame.participants.iter().zip(&frame.saved) {
            if let Some(slot) = ranges.get_mut(i) {
                *slot = r;
            }
        }
        frame.lo = frame.lo_end;
    }

    fn run(
        &mut self,
        p: &Prepared,
        ticker: &mut Ticker,
    ) -> Result<Option<Vec<Value>>, ExhaustReason> {
        loop {
            match self.phase {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "participants, and so driver, are atom indices < ranges.len()"
                )]
                Phase::Enter => {
                    let level = self.frames.len();
                    if level == p.num_vars {
                        self.phase = Phase::Emit;
                        ticker.tuple()?;
                        continue;
                    }
                    let participants: Vec<usize> = p
                        .atoms
                        .iter()
                        .zip(&self.ranges)
                        .enumerate()
                        .filter(|(_, (a, r))| a.var_ranks.get(r.depth) == Some(&level))
                        .map(|(i, _)| i)
                        .collect();
                    let Some(&driver) = participants
                        .iter()
                        .min_by_key(|&&i| self.ranges[i].hi - self.ranges[i].lo)
                    else {
                        return Ok(None);
                    };
                    let r = self.ranges[driver];
                    let saved: Vec<Range> = participants.iter().map(|&i| self.ranges[i]).collect();
                    self.frames.push(Frame {
                        participants,
                        driver,
                        saved,
                        lo: r.lo,
                        lo_end: r.lo,
                        hi: r.hi,
                        v: 0,
                    });
                    ticker.record_intermediate(self.frames.len() as u64);
                    self.phase = Phase::Step;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "driver is a participant index < ranges.len() = p.atoms.len(); lo < hi <= rows.len(); depth < var_ranks.len() = projected row arity"
                )]
                Phase::Step => {
                    let Some(frame) = self.frames.last_mut() else {
                        return Ok(None);
                    };
                    if frame.lo >= frame.hi {
                        self.frames.pop();
                        match self.frames.last_mut() {
                            None => return Ok(None),
                            Some(parent) => {
                                Machine::restore_and_advance(parent, &mut self.ranges);
                            }
                        }
                        continue;
                    }
                    let driver = frame.driver;
                    let depth = self.ranges[driver].depth;
                    let v = p.atoms[driver].rows[frame.lo][depth];
                    let lo_end = upper_bound(&p.atoms[driver].rows, frame.lo, frame.hi, depth, v);
                    frame.v = v;
                    frame.lo_end = lo_end;
                    self.phase = Phase::Narrow { idx: 0 };
                    ticker.node()?;
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i is a participant index < ranges.len() = p.atoms.len()"
                )]
                Phase::Narrow { idx } => {
                    let Some(frame) = self.frames.last_mut() else {
                        return Ok(None);
                    };
                    let Some(&i) = frame.participants.get(idx) else {
                        let v = frame.v;
                        let level = self.frames.len() - 1;
                        if let Some(slot) = self.tuple.get_mut(level) {
                            *slot = v;
                        }
                        self.phase = Phase::Enter;
                        continue;
                    };
                    let r = self.ranges[i];
                    let (nl, nh) = if i == frame.driver {
                        (frame.lo, frame.lo_end)
                    } else {
                        equal_range(&p.atoms[i].rows, r.lo, r.hi, r.depth, frame.v)
                    };
                    if nl == nh {
                        Machine::restore_and_advance(frame, &mut self.ranges);
                        self.phase = Phase::Step;
                        ticker.trie_advance()?;
                    } else {
                        self.ranges[i] = Range {
                            lo: nl,
                            hi: nh,
                            depth: r.depth + 1,
                        };
                        self.phase = Phase::Narrow { idx: idx + 1 };
                        ticker.trie_advance()?;
                    }
                }
                Phase::Emit => {
                    let out = self.tuple.clone();
                    match self.frames.last_mut() {
                        None => self.phase = Phase::Step,
                        Some(parent) => {
                            Machine::restore_and_advance(parent, &mut self.ranges);
                            self.phase = Phase::Step;
                        }
                    }
                    return Ok(Some(out));
                }
            }
        }
    }
}

/// First index in [lo, hi) where `rows[idx][col] > v` (rows sorted, columns
/// before `col` constant on the range).
#[expect(
    clippy::indexing_slicing,
    reason = "lo <= hi <= rows.len(), and col < the uniform projected row arity"
)]
fn upper_bound(rows: &[Vec<Value>], lo: usize, hi: usize, col: usize, v: Value) -> usize {
    lo + rows[lo..hi].partition_point(|r| r[col] <= v)
}

#[expect(
    clippy::indexing_slicing,
    reason = "lo <= hi <= rows.len(), and col < the uniform projected row arity"
)]
fn equal_range(rows: &[Vec<Value>], lo: usize, hi: usize, col: usize, v: Value) -> (usize, usize) {
    let start = lo + rows[lo..hi].partition_point(|r| r[col] < v);
    let end = start + rows[start..hi].partition_point(|r| r[col] == v);
    (start, end)
}

/// Reference join: full answer in [`JoinQuery::attributes`] order, sorted.
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
    #[expect(
        clippy::expect_used,
        reason = "invariant: the chosen order covers every atom attribute"
    )]
    let pos_of: Vec<usize> = attrs
        .iter()
        .map(|a| ord.iter().position(|x| x == a).expect("validated"))
        .collect();
    let mut ticker = Ticker::new(budget);
    let mut m = Machine::fresh(&p);
    let mut out = Vec::new();
    let result = loop {
        match m.run(&p, &mut ticker) {
            Ok(Some(t)) => {
                out.push(
                    pos_of
                        .iter()
                        .map(|&i| t.get(i).copied().unwrap_or(0))
                        .collect::<Vec<Value>>(),
                );
                ticker.record_intermediate(out.len() as u64);
            }
            Ok(None) => break Ok(()),
            Err(reason) => break Err(reason),
        }
    };
    out.sort_unstable();
    Ok(ticker.finish(result.map(|()| Some(out))))
}

/// Reference count of answer tuples.
#[must_use = "dropping the result discards the answer count or the failure"]
pub fn count(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Result<(Outcome<u64>, RunStats), JoinError> {
    let p = prepare(q, db, order)?;
    let mut ticker = Ticker::new(budget);
    let mut m = Machine::fresh(&p);
    let mut n = 0u64;
    let result = loop {
        match m.run(&p, &mut ticker) {
            Ok(Some(_)) => n += 1,
            Ok(None) => break Ok(Some(n)),
            Err(reason) => break Err(reason),
        }
    };
    Ok(ticker.finish(result))
}

/// Reference emptiness decision with early exit.
#[must_use = "dropping the result discards the emptiness answer or the failure"]
pub fn is_empty(
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    budget: &Budget,
) -> Result<(Outcome<bool>, RunStats), JoinError> {
    let p = prepare(q, db, order)?;
    let mut ticker = Ticker::new(budget);
    let mut m = Machine::fresh(&p);
    let result = match m.run(&p, &mut ticker) {
        Ok(found) => Ok(Some(found.is_none())),
        Err(reason) => Err(reason),
    };
    Ok(ticker.finish(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Table;
    use crate::query::Atom;

    #[test]
    fn reference_finds_triangles() {
        let q = JoinQuery::triangle();
        let pairs = vec![vec![0u64, 1], vec![1, 2], vec![0, 2], vec![2, 3]];
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            let mut rows = pairs.clone();
            let rev: Vec<Vec<u64>> = pairs.iter().map(|p| vec![p[1], p[0]]).collect();
            rows.extend(rev);
            db.insert(name, Table::from_rows(2, rows));
        }
        let (out, stats) = join(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(out.unwrap_sat().len(), 6);
        assert_eq!(stats.tuples, 6);
        assert!(stats.trie_advances >= stats.nodes);
        assert_eq!(
            count(&q, &db, None, &Budget::unlimited())
                .unwrap()
                .0
                .unwrap_sat(),
            6
        );
        assert!(!is_empty(&q, &db, None, &Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat());
    }

    #[test]
    fn reference_exhausts_under_tiny_budget() {
        let q = JoinQuery::new(vec![Atom::new("R", &["x", "y"])]);
        let mut db = Database::new();
        db.insert("R", Table::from_rows(2, vec![vec![1, 2], vec![3, 4]]));
        let (out, _) = count(&q, &db, None, &Budget::ticks(1)).unwrap();
        assert!(out.is_exhausted());
    }
}
