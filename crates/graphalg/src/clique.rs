//! k-Clique: brute force vs. Nešetřil–Poljak (paper §5, §6.3, §8).
//!
//! * [`find_clique`] / [`count_cliques`] — branch-and-prune enumeration of
//!   k-cliques, the n^k baseline that Theorem 6.3 (ETH) says cannot be
//!   improved to n^{o(k)};
//! * [`find_clique_neipol`] — the Nešetřil–Poljak reduction: a 3t-clique in
//!   G is a triangle in the auxiliary graph whose vertices are the
//!   t-cliques of G, detected by boolean matrix multiplication — running
//!   time n^{ωk/3}. The k-clique conjecture (§8) says the ω/3 factor is
//!   optimal. k ≢ 0 (mod 3) is handled by guessing k mod 3 vertices first.
//!
//! Engine mapping: each vertex extension tried is a [`RunStats::nodes`]
//! tick; the Nešetřil–Poljak auxiliary-graph construction ticks one
//! [`RunStats::propagations`] per compatibility check and absorbs the
//! triangle detector's counters.
//!
//! # Preemption safety
//!
//! The branch-and-prune enumeration runs on an explicit frame stack (one
//! candidate list + cursor per level of the partial clique) and applies
//! each extension's effect before spending the tick. [`CliqueSearch`]
//! implements [`Resumable`] and [`Countable`], so the engine's
//! [`find_slice`] and [`count_slice`] drivers can suspend any failed charge
//! into a [`Checkpoint`] and continue later — same verdict, same summed
//! [`RunStats`] as an uninterrupted run. The Nešetřil–Poljak detector is
//! deliberately *not* resumable: its progress lives inside whole matrix
//! multiplies.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations
//! [`RunStats`]: lb_engine::RunStats
//! [`Resumable`]: lb_engine::resumable::Resumable
//! [`Countable`]: lb_engine::resumable::Countable
//! [`find_slice`]: lb_engine::resumable::find_slice
//! [`count_slice`]: lb_engine::resumable::count_slice
//! [`Checkpoint`]: lb_engine::checkpoint::Checkpoint

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::triangle::find_triangle_matmul;
use lb_engine::checkpoint::{CheckpointError, Digest, PayloadReader, PayloadWriter, SolverFamily};
use lb_engine::resumable::{self, Countable, Resumable};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::Graph;

/// Payload version of clique-enumeration checkpoints; bumped whenever the
/// frontier encoding below changes.
pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 1;

/// One level of the partial clique: the candidate vertices compatible with
/// `current[..depth]`, ascending, with a scan cursor.
#[derive(Clone, Debug)]
struct Frame {
    cands: Vec<usize>,
    pos: usize,
}

/// Where the machine resumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Extend (or unwind) the deepest frame.
    Step,
    /// A complete clique's charge has been paid; deliver it, then ascend.
    Emit,
}

/// The explicit-stack enumeration state: the frontier a [`CliqueSearch`]
/// checkpoints. Invariant: in `Step`, `frames.len() == current.len() + 1`
/// (or both empty once finished); in `Emit`, `current.len() == k` and no
/// frame was opened for the full level.
#[derive(Clone, Debug)]
pub struct Machine {
    current: Vec<usize>,
    frames: Vec<Frame>,
    phase: Phase,
}

/// Branch-and-prune k-clique enumeration on one graph, as a resumable
/// search: find mode returns a k-clique (vertices ascending), count mode
/// the number of k-cliques.
#[derive(Clone, Copy, Debug)]
pub struct CliqueSearch<'a> {
    g: &'a Graph,
    k: usize,
}

impl<'a> CliqueSearch<'a> {
    /// The search for k-cliques of `g`.
    pub fn new(g: &'a Graph, k: usize) -> CliqueSearch<'a> {
        CliqueSearch { g, k }
    }
}

impl Resumable for CliqueSearch<'_> {
    type State = Machine;
    type Answer = Vec<usize>;
    const FAMILY: SolverFamily = SolverFamily::CliqueEnum;
    const PAYLOAD_VERSION: u16 = CHECKPOINT_PAYLOAD_VERSION;

    /// FNV digest binding a checkpoint to (graph, k).
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.str("clique-enum");
        d.usize(self.g.num_vertices())
            .usize(self.g.num_edges())
            .usize(self.k);
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in the edge list; runs once per resume
        for (u, v) in self.g.edges() {
            d.usize(u).usize(v);
        }
        d.finish()
    }

    fn fresh(&self) -> Machine {
        if self.k == 0 {
            // The empty clique always exists: emit it, then finish.
            return Machine {
                current: Vec::new(),
                frames: Vec::new(),
                phase: Phase::Emit,
            };
        }
        Machine {
            current: Vec::new(),
            frames: vec![Frame {
                cands: (0..self.g.num_vertices()).collect(),
                pos: 0,
            }],
            phase: Phase::Step,
        }
    }

    /// Runs micro-steps until the next k-clique (`Ok(Some(..))`, vertices
    /// ascending, machine positioned to continue past it), the end of the
    /// search (`Ok(None)`), or a failed charge (`Err`, resumable).
    fn run(
        &self,
        m: &mut Machine,
        ticker: &mut Ticker,
    ) -> Result<Option<Vec<usize>>, ExhaustReason> {
        let (g, k) = (self.g, self.k);
        loop {
            match m.phase {
                Phase::Emit => {
                    let out = m.current.clone();
                    // Position past the clique: drop its last vertex and
                    // continue scanning the frame that produced it.
                    m.current.pop();
                    m.phase = Phase::Step;
                    return Ok(Some(out));
                }
                Phase::Step => {
                    let Some(frame) = m.frames.last_mut() else {
                        return Ok(None);
                    };
                    let need = k - m.current.len();
                    if frame.cands.len() < need {
                        // Prune: too few candidates left (uncharged, as in
                        // the recursive formulation).
                        m.frames.pop();
                        m.current.pop();
                        continue;
                    }
                    let Some(&v) = frame.cands.get(frame.pos) else {
                        // Frame exhausted: ascend (uncharged).
                        m.frames.pop();
                        m.current.pop();
                        continue;
                    };
                    frame.pos += 1;
                    m.current.push(v);
                    ticker.record_intermediate(m.current.len() as u64);
                    if m.current.len() == k {
                        m.phase = Phase::Emit;
                        ticker.node()?;
                        continue;
                    }
                    // Candidates compatible with the extended clique. The
                    // full intersection is kept (the prune above counts
                    // vertices below the scan start, matching the
                    // recursion); the cursor skips to the first above `v`.
                    let cands: Vec<usize> = m
                        .frames
                        .last()
                        .map(|f| {
                            f.cands
                                .iter()
                                .copied()
                                .filter(|&x| g.has_edge(v, x))
                                .collect()
                        })
                        .unwrap_or_default();
                    let pos = cands.partition_point(|&x| x <= v);
                    m.frames.push(Frame { cands, pos });
                    ticker.record_intermediate(m.frames.len() as u64);
                    ticker.node()?;
                }
            }
        }
    }

    fn encode(&self, m: &Machine, w: &mut PayloadWriter) {
        w.seq_usize(&m.current).seq(&m.frames, |w, f| {
            w.seq_usize(&f.cands).usize(f.pos);
        });
        w.u8(match m.phase {
            Phase::Step => 0,
            Phase::Emit => 1,
        });
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Machine, CheckpointError> {
        let (nv, k) = (self.g.num_vertices(), self.k);
        let current = r.seq(..=k, 8, "partial clique", |r, _| {
            r.usize_below(nv, "clique vertex")
        })?;
        let frames = r.seq(..=k.max(1), 16, "frame stack", |r, _| {
            let at = r.offset();
            let cands = r.seq(.., 8, "candidate list", |r, _| {
                r.usize_below(nv, "candidate vertex")
            })?;
            if !cands.iter().zip(cands.iter().skip(1)).all(|(a, b)| a < b) {
                return Err(CheckpointError::Malformed {
                    what: "candidate list is not strictly ascending".into(),
                    offset: at,
                });
            }
            let pos = r.usize_at_most(cands.len(), "candidate cursor")?;
            Ok(Frame { cands, pos })
        })?;
        let tag_at = r.offset();
        let phase = match r.u8()? {
            0 => Phase::Step,
            1 => Phase::Emit,
            b => {
                return Err(CheckpointError::Malformed {
                    what: format!("invalid phase tag {b}"),
                    offset: tag_at,
                })
            }
        };
        let consistent = match phase {
            Phase::Step => {
                frames.len() == current.len() + 1 || (frames.is_empty() && current.is_empty())
            }
            Phase::Emit => current.len() == k && frames.len() == k,
        };
        if !consistent {
            return Err(CheckpointError::Malformed {
                what: format!(
                    "frame stack ({}) inconsistent with partial clique ({}) in this phase",
                    frames.len(),
                    current.len()
                ),
                offset: tag_at,
            });
        }
        Ok(Machine {
            current,
            frames,
            phase,
        })
    }
}

impl Countable for CliqueSearch<'_> {}

/// Finds a k-clique by branch-and-prune enumeration: `Sat(clique)`,
/// `Unsat`, or `Exhausted`.
pub fn find_clique(g: &Graph, k: usize, budget: &Budget) -> (Outcome<Vec<usize>>, RunStats) {
    resumable::find(&CliqueSearch::new(g, k), budget)
}

/// Counts the k-cliques of `g`: `Sat(count)` or `Exhausted`.
pub fn count_cliques(g: &Graph, k: usize, budget: &Budget) -> (Outcome<u64>, RunStats) {
    resumable::count(&CliqueSearch::new(g, k), budget)
}

/// Enumerates k-cliques (vertices ascending within each clique) through a
/// callback; returning `true` stops. `Sat(true)` means the visitor stopped
/// the scan, `Sat(false)` that it ran to the end.
pub fn enumerate_cliques<F: FnMut(&[usize]) -> bool>(
    g: &Graph,
    k: usize,
    budget: &Budget,
    visit: &mut F,
) -> (Outcome<bool>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let search = CliqueSearch::new(g, k);
    let mut m = search.fresh();
    let result = loop {
        match search.run(&mut m, &mut ticker) {
            Ok(Some(c)) => {
                if visit(&c) {
                    break Ok(Some(true));
                }
            }
            Ok(None) => break Ok(Some(false)),
            Err(reason) => break Err(reason),
        }
    };
    ticker.finish(result)
}

/// Finds a k-clique via the Nešetřil–Poljak construction (n^{ωk/3}):
/// `Sat(clique)`, `Unsat`, or `Exhausted`.
///
/// For `k = 3t`: build the auxiliary graph on all t-cliques (adjacent iff
/// their union is a 2t-clique) and detect a triangle by matrix
/// multiplication. For `k = 3t+1` / `3t+2`: guess the extra vertex / edge
/// and recurse into the common neighborhood.
pub fn find_clique_neipol(g: &Graph, k: usize, budget: &Budget) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = neipol_inner(g, k, &mut ticker);
    ticker.finish(result)
}

#[expect(
    clippy::indexing_slicing,
    reason = "subgraph vertices index `map` by construction"
)]
fn neipol_inner(
    g: &Graph,
    k: usize,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    match k {
        0 => Ok(Some(vec![])),
        1 => Ok((g.num_vertices() > 0).then(|| vec![0])),
        2 => Ok(g.edges().first().map(|&(u, v)| vec![u, v])),
        _ => match k % 3 {
            0 => neipol_3t(g, k / 3, ticker),
            1 => {
                // Guess one vertex, search a (k−1)-clique in its
                // neighborhood.
                for v in 0..g.num_vertices() {
                    ticker.node()?;
                    let nbrs: Vec<usize> = g.neighbors(v).to_vec();
                    let (sub, map) = g.induced_subgraph(&nbrs);
                    if let Some(c) = neipol_inner(&sub, k - 1, ticker)? {
                        let mut out: Vec<usize> = c.into_iter().map(|x| map[x]).collect();
                        out.push(v);
                        out.sort_unstable();
                        return Ok(Some(out));
                    }
                }
                Ok(None)
            }
            _ => {
                // Guess an edge, search a (k−2)-clique in the common
                // neighborhood.
                for (u, v) in g.edges() {
                    ticker.node()?;
                    let mut common = g.neighbor_set(u).clone();
                    common.intersect_with(g.neighbor_set(v));
                    let verts: Vec<usize> = common.iter().collect();
                    let (sub, map) = g.induced_subgraph(&verts);
                    if let Some(c) = neipol_inner(&sub, k - 2, ticker)? {
                        let mut out: Vec<usize> = c.into_iter().map(|x| map[x]).collect();
                        out.push(u);
                        out.push(v);
                        out.sort_unstable();
                        return Ok(Some(out));
                    }
                }
                Ok(None)
            }
        },
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "i, j < na = t_cliques.len() by the loop bounds, and aux-graph vertices are t_cliques indices by construction"
)]
fn neipol_3t(
    g: &Graph,
    t: usize,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    // Enumerate all t-cliques.
    let mut t_cliques: Vec<Vec<usize>> = Vec::new();
    let search = CliqueSearch::new(g, t);
    let mut m = search.fresh();
    while let Some(c) = search.run(&mut m, ticker)? {
        t_cliques.push(c);
        ticker.record_intermediate(t_cliques.len() as u64);
    }
    if t_cliques.is_empty() {
        return Ok(None);
    }
    // Auxiliary graph: i ~ j iff union is a 2t-clique (disjoint + all cross
    // edges present).
    let na = t_cliques.len();
    let mut aux = Graph::new(na);
    for i in 0..na {
        for j in (i + 1)..na {
            ticker.propagation()?;
            if cliques_compatible(g, &t_cliques[i], &t_cliques[j]) {
                aux.add_edge(i, j);
            }
        }
    }
    let (tri_out, tri_stats) = find_triangle_matmul(&aux, &ticker.remaining_budget());
    ticker.absorb(&tri_stats);
    let tri = match tri_out {
        Outcome::Exhausted(r) => return Err(r),
        Outcome::Unsat => return Ok(None),
        Outcome::Sat(t) => t,
    };
    let mut out: Vec<usize> = tri
        .iter()
        .flat_map(|&i| t_cliques[i].iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    debug_assert_eq!(out.len(), 3 * t);
    debug_assert!(g.is_clique(&out));
    Ok(Some(out))
}

fn cliques_compatible(g: &Graph, a: &[usize], b: &[usize]) -> bool {
    // lb-lint: allow(unbudgeted-loop) -- pairwise scan of two cliques, bounded by k^2
    for &x in a {
        // lb-lint: allow(unbudgeted-loop) -- pairwise scan of two cliques, bounded by k^2
        for &y in b {
            if x == y || !g.has_edge(x, y) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;

    fn find_unlimited(g: &Graph, k: usize) -> Option<Vec<usize>> {
        find_clique(g, k, &Budget::unlimited()).0.unwrap_decided()
    }

    fn count_unlimited(g: &Graph, k: usize) -> u64 {
        count_cliques(g, k, &Budget::unlimited()).0.unwrap_sat()
    }

    fn neipol_unlimited(g: &Graph, k: usize) -> Option<Vec<usize>> {
        find_clique_neipol(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    #[test]
    fn brute_force_on_known_graphs() {
        let k5 = generators::clique(5);
        assert!(find_unlimited(&k5, 5).is_some());
        assert!(find_unlimited(&k5, 6).is_none());
        assert_eq!(count_unlimited(&k5, 3), 10);
        assert_eq!(count_unlimited(&k5, 5), 1);
        let c5 = generators::cycle(5);
        assert!(find_unlimited(&c5, 3).is_none());
        assert_eq!(count_unlimited(&c5, 2), 5);
    }

    #[test]
    fn found_cliques_are_cliques() {
        let (g, planted) = generators::planted_clique(25, 6, 0.3, 5);
        let c = find_unlimited(&g, 6).unwrap();
        assert!(g.is_clique(&c));
        assert_eq!(planted.len(), 6);
    }

    #[test]
    fn neipol_agrees_with_brute_force() {
        for seed in 0..10u64 {
            let g = generators::gnp(18, 0.5, seed);
            for k in 1..=6 {
                let brute = find_unlimited(&g, k);
                let neipol = neipol_unlimited(&g, k);
                assert_eq!(brute.is_some(), neipol.is_some(), "seed {seed}, k {k}");
                if let Some(c) = neipol {
                    assert_eq!(c.len(), k);
                    assert!(g.is_clique(&c), "seed {seed}, k {k}");
                }
            }
        }
    }

    #[test]
    fn neipol_finds_planted_clique() {
        for k in [3usize, 4, 5, 6] {
            let (g, _) = generators::planted_clique(20, k, 0.2, k as u64);
            let c = neipol_unlimited(&g, k).unwrap();
            assert!(g.is_clique(&c));
            assert_eq!(c.len(), k);
        }
    }

    #[test]
    fn zero_and_one_cliques() {
        let g = generators::path(3);
        assert_eq!(find_unlimited(&g, 0), Some(vec![]));
        assert_eq!(count_unlimited(&g, 1), 3);
        assert_eq!(neipol_unlimited(&g, 0), Some(vec![]));
        assert!(neipol_unlimited(&g, 1).is_some());
    }

    #[test]
    fn clique_numbers_of_petersen() {
        // The Petersen graph is triangle-free with clique number 2.
        let g = generators::petersen();
        assert!(find_unlimited(&g, 3).is_none());
        assert!(neipol_unlimited(&g, 3).is_none());
        assert!(neipol_unlimited(&g, 2).is_some());
    }

    #[test]
    fn tiny_budget_exhausts_both_algorithms() {
        let g = generators::gnp(18, 0.5, 0);
        // k = 10 needs ≥ 10 node ticks even to confirm a witness, so a
        // 5-tick budget must exhaust rather than answer.
        let (out, stats) = find_clique(&g, 10, &Budget::ticks(5));
        assert!(out.is_exhausted());
        assert_eq!(stats.nodes, 6); // the crossing op is still recorded
        let (out, _) = find_clique_neipol(&g, 6, &Budget::ticks(5));
        assert!(out.is_exhausted());
        let (out, _) = count_cliques(&g, 3, &Budget::ticks(5));
        assert!(out.is_exhausted());
    }

    #[test]
    fn counters_monotone_in_budget() {
        let g = generators::gnp(14, 0.4, 2);
        let (_, small) = count_cliques(&g, 3, &Budget::ticks(20));
        let (_, large) = count_cliques(&g, 3, &Budget::unlimited());
        assert!(small.le(&large));
    }
}
