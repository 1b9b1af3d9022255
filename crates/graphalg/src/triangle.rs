//! Triangle detection three ways (paper §8).
//!
//! * [`find_triangle_naive`] — edge iteration with neighborhood-bitset
//!   intersection, O(m·n/64);
//! * [`find_triangle_matmul`] — the A²∧A test via boolean matrix
//!   multiplication, O(n^ω) (the k-clique-conjecture route);
//! * [`find_triangle_ayz`] — Alon–Yuster–Zwick: split vertices at degree
//!   Δ = m^{(ω−1)/(ω+1)}; light triangles by enumerating two-paths through
//!   light vertices, heavy triangles by dense matrix multiplication on the
//!   ≤ 2m/Δ heavy vertices; total m^{2ω/(ω+1)} — conjecturally optimal in
//!   m (the Strong Triangle Conjecture).
//!
//! All three return a witness triangle and are cross-checked against each
//! other.
//!
//! Engine mapping: the naive detector ticks a [`RunStats::nodes`] per edge
//! scanned; the matrix detector ticks one [`RunStats::propagations`] per
//! matrix row (the budget-visible granularity of the block multiply); AYZ
//! ticks nodes for light-vertex scans and absorbs the dense detector's
//! counters for the heavy part.
//!
//! # Preemption safety
//!
//! The naive edge scan is a one-counter state machine (next edge index,
//! running count, pending witness) that applies each edge's effect before
//! spending the tick. [`TriangleScan`] implements [`Resumable`] and
//! [`Countable`], so the engine's [`find_slice`] and [`count_slice`]
//! drivers can suspend any failed charge into a [`Checkpoint`] and
//! continue later — same verdict, same summed [`RunStats`] as an
//! uninterrupted run. The running sum lives in the frontier, so the scan
//! writes no separate count field. The matrix and AYZ detectors are
//! deliberately *not* resumable: their budget granularity is whole matrix
//! multiplies, so a checkpoint could not capture useful partial progress.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations
//! [`RunStats`]: lb_engine::RunStats
//! [`Resumable`]: lb_engine::resumable::Resumable
//! [`Countable`]: lb_engine::resumable::Countable
//! [`find_slice`]: lb_engine::resumable::find_slice
//! [`count_slice`]: lb_engine::resumable::count_slice
//! [`Checkpoint`]: lb_engine::checkpoint::Checkpoint

use crate::matmul::BoolMatrix;
use lb_engine::checkpoint::{CheckpointError, Digest, PayloadReader, PayloadWriter, SolverFamily};
use lb_engine::resumable::{self, Countable, Resumable};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::Graph;

/// Payload version of triangle-scan checkpoints; bumped whenever the
/// frontier encoding below changes.
pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 1;

/// The edge-scan frontier: everything needed to continue the naive scan,
/// and what a [`TriangleScan`] checkpoints.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Next edge index to examine.
    next: usize,
    /// Running Σ|N(u) ∩ N(v)| over examined edges (count mode).
    total: u64,
    /// A witness found by an edge whose tick then failed: delivered first
    /// thing on resume, without a second charge.
    pending: Option<[usize; 3]>,
}

impl Machine {
    /// Scans edges until a witness (`Ok(Some)`, find mode only), the end of
    /// the edge list (`Ok(None)`), or a failed charge (`Err`, resumable).
    fn run(
        &mut self,
        g: &Graph,
        edges: &[(usize, usize)],
        find_witness: bool,
        ticker: &mut Ticker,
    ) -> Result<Option<[usize; 3]>, ExhaustReason> {
        loop {
            if let Some(t) = self.pending.take() {
                return Ok(Some(t));
            }
            let Some(&(u, v)) = edges.get(self.next) else {
                return Ok(None);
            };
            let mut common = g.neighbor_set(u).clone();
            common.intersect_with(g.neighbor_set(v));
            // The per-edge neighborhood intersection is this scan's largest
            // materialized intermediate.
            ticker.record_intermediate(common.count() as u64);
            if find_witness {
                if let Some(w) = common.min() {
                    self.pending = Some(sorted3(u, v, w));
                }
            } else {
                self.total += common.count() as u64;
            }
            self.next += 1;
            ticker.node()?;
        }
    }
}

/// The naive edge scan over one graph, as a resumable search: find mode
/// returns a triangle (vertices ascending), count mode the number of
/// triangles.
#[derive(Clone, Debug)]
pub struct TriangleScan<'a> {
    g: &'a Graph,
    edges: Vec<(usize, usize)>,
}

impl<'a> TriangleScan<'a> {
    /// The scan over the edges of `g`.
    pub fn new(g: &'a Graph) -> TriangleScan<'a> {
        TriangleScan {
            g,
            edges: g.edges(),
        }
    }
}

impl Resumable for TriangleScan<'_> {
    type State = Machine;
    type Answer = [usize; 3];
    const FAMILY: SolverFamily = SolverFamily::TriangleScan;
    const PAYLOAD_VERSION: u16 = CHECKPOINT_PAYLOAD_VERSION;
    const COUNT_FIELD: bool = false;

    /// FNV digest binding a checkpoint to the graph.
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.str("triangle-scan");
        d.usize(self.g.num_vertices()).usize(self.edges.len());
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in the edge list; runs once per resume
        for &(u, v) in &self.edges {
            d.usize(u).usize(v);
        }
        d.finish()
    }

    fn fresh(&self) -> Machine {
        Machine {
            next: 0,
            total: 0,
            pending: None,
        }
    }

    fn run(
        &self,
        m: &mut Machine,
        ticker: &mut Ticker,
    ) -> Result<Option<[usize; 3]>, ExhaustReason> {
        m.run(self.g, &self.edges, true, ticker)
    }

    fn encode(&self, m: &Machine, w: &mut PayloadWriter) {
        w.usize(m.next).u64(m.total);
        match m.pending {
            None => {
                w.u8(0);
            }
            Some([a, b, c]) => {
                w.u8(1).usize(a).usize(b).usize(c);
            }
        }
    }

    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Machine, CheckpointError> {
        let next = r.usize_at_most(self.edges.len(), "edge cursor")?;
        let total = r.u64()?;
        let n = self.g.num_vertices();
        let pending = match r.u8()? {
            0 => None,
            1 => Some([
                r.usize_below(n, "witness vertex")?,
                r.usize_below(n, "witness vertex")?,
                r.usize_below(n, "witness vertex")?,
            ]),
            b => {
                return Err(CheckpointError::Malformed {
                    what: format!("invalid pending-witness tag {b}"),
                    offset: r.offset().saturating_sub(1),
                })
            }
        };
        Ok(Machine {
            next,
            total,
            pending,
        })
    }
}

impl Countable for TriangleScan<'_> {
    /// Count mode scans for the running sum Σ|N(u) ∩ N(v)| kept in the
    /// frontier, which counts each triangle once per edge.
    fn count_answers(
        &self,
        m: &mut Machine,
        n: &mut u64,
        ticker: &mut Ticker,
    ) -> Result<(), ExhaustReason> {
        m.run(self.g, &self.edges, false, ticker)?;
        *n = m.total / 3;
        Ok(())
    }
}

/// Naive detection: for each edge, intersect the endpoints' neighborhoods.
/// `Sat(triangle)`, `Unsat`, or `Exhausted`.
pub fn find_triangle_naive(g: &Graph, budget: &Budget) -> (Outcome<[usize; 3]>, RunStats) {
    resumable::find(&TriangleScan::new(g), budget)
}

/// Matrix-multiplication detection: a triangle exists iff (A²∧A) ≠ 0.
/// `Sat(triangle)`, `Unsat`, or `Exhausted`.
pub fn find_triangle_matmul(g: &Graph, budget: &Budget) -> (Outcome<[usize; 3]>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = matmul_inner(g, &mut ticker);
    ticker.finish(result)
}

fn matmul_inner(g: &Graph, ticker: &mut Ticker) -> Result<Option<[usize; 3]>, ExhaustReason> {
    // One tick per matrix row before the block multiply: the coarsest
    // granularity at which the budget can interrupt the O(n^ω) work.
    for _ in 0..g.num_vertices() {
        ticker.propagation()?;
    }
    let a = BoolMatrix::adjacency(g);
    let a2 = a.multiply(&a);
    let Some((i, j)) = a2.intersection_witness(&a) else {
        return Ok(None);
    };
    // Find the middle vertex.
    let w = g
        .neighbor_set(i)
        .iter()
        .find(|&w| g.has_edge(w, j))
        // lb-lint: allow(no-panic, panic-reachability) -- invariant: A^2[i][j] > 0 certifies a common neighbor exists
        .expect("A²[i][j] set ⇒ a common neighbor exists");
    Ok(Some(sorted3(i, j, w)))
}

/// Alon–Yuster–Zwick detection in m^{2ω/(ω+1)}.
///
/// `omega` is the matrix-multiplication exponent used for the degree
/// threshold; pass 2.807 for Strassen (the default via
/// [`find_triangle_ayz`]).
pub fn find_triangle_ayz_with_omega(
    g: &Graph,
    omega: f64,
    budget: &Budget,
) -> (Outcome<[usize; 3]>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = ayz_inner(g, omega, &mut ticker);
    ticker.finish(result)
}

fn ayz_inner(
    g: &Graph,
    omega: f64,
    ticker: &mut Ticker,
) -> Result<Option<[usize; 3]>, ExhaustReason> {
    let m = g.num_edges();
    if m == 0 {
        return Ok(None);
    }
    let delta = (m as f64).powf((omega - 1.0) / (omega + 1.0)).ceil() as usize;

    // Light triangles: some vertex has degree ≤ Δ; enumerate two-paths
    // centered at light vertices.
    for v in 0..g.num_vertices() {
        if g.degree(v) > delta {
            continue;
        }
        ticker.node()?;
        let nbrs = g.neighbors(v);
        for (i, &x) in nbrs.iter().enumerate() {
            for &y in &nbrs[i + 1..] {
                ticker.trie_advance()?;
                if g.has_edge(x, y) {
                    return Ok(Some(sorted3(v, x, y)));
                }
            }
        }
    }

    // Heavy triangles: all three vertices heavy; ≤ 2m/Δ of them, dense MM.
    let heavy: Vec<usize> = (0..g.num_vertices())
        .filter(|&v| g.degree(v) > delta)
        .collect();
    if heavy.len() < 3 {
        return Ok(None);
    }
    let (h, map) = g.induced_subgraph(&heavy);
    let (out, sub_stats) = find_triangle_matmul(&h, &ticker.remaining_budget());
    ticker.absorb(&sub_stats);
    match out {
        Outcome::Exhausted(r) => Err(r),
        Outcome::Unsat => Ok(None),
        // lb-lint: allow(no-unchecked-index, panic-reachability) -- induced-subgraph vertices index `map` by construction
        Outcome::Sat(t) => Ok(Some(sorted3(map[t[0]], map[t[1]], map[t[2]]))),
    }
}

/// AYZ with the Strassen exponent ω = log₂7 ≈ 2.807.
pub fn find_triangle_ayz(g: &Graph, budget: &Budget) -> (Outcome<[usize; 3]>, RunStats) {
    find_triangle_ayz_with_omega(g, 2.807, budget)
}

/// Counts triangles exactly via trace-free enumeration (for tests and the
/// counting experiments): Σ over edges of |N(u) ∩ N(v)| / 3. `Sat(count)`
/// or `Exhausted`.
pub fn count_triangles(g: &Graph, budget: &Budget) -> (Outcome<u64>, RunStats) {
    resumable::count(&TriangleScan::new(g), budget)
}

fn sorted3(a: usize, b: usize, c: usize) -> [usize; 3] {
    let mut t = [a, b, c];
    t.sort_unstable();
    t
}

/// Validates a triangle witness.
pub fn is_triangle(g: &Graph, t: &[usize; 3]) -> bool {
    let [a, b, c] = *t;
    a != b && b != c && g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;

    fn all_detectors(g: &Graph) -> [Option<[usize; 3]>; 3] {
        let b = Budget::unlimited();
        [
            find_triangle_naive(g, &b).0.unwrap_decided(),
            find_triangle_matmul(g, &b).0.unwrap_decided(),
            find_triangle_ayz(g, &b).0.unwrap_decided(),
        ]
    }

    fn count_unlimited(g: &Graph) -> u64 {
        count_triangles(g, &Budget::unlimited()).0.unwrap_sat()
    }

    #[test]
    fn clique_has_triangle() {
        let g = generators::clique(5);
        for t in all_detectors(&g) {
            assert!(is_triangle(&g, &t.unwrap()));
        }
        assert_eq!(count_unlimited(&g), 10);
    }

    #[test]
    fn bipartite_has_none() {
        let g = generators::complete_bipartite(4, 4);
        for t in all_detectors(&g) {
            assert!(t.is_none());
        }
        assert_eq!(count_unlimited(&g), 0);
    }

    #[test]
    fn detectors_agree_on_random_graphs() {
        for seed in 0..20u64 {
            let g = generators::gnp(30, 0.12, seed);
            let results = all_detectors(&g);
            let has = results[0].is_some();
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.is_some(), has, "seed {seed}, detector {i}");
                if let Some(t) = r {
                    assert!(is_triangle(&g, t), "seed {seed}, detector {i}");
                }
            }
            assert_eq!(has, count_unlimited(&g) > 0, "seed {seed}");
        }
    }

    #[test]
    fn sparse_graphs_with_heavy_hubs() {
        // A star plus one edge between two leaves: the triangle passes
        // through the heavy hub.
        let mut g = generators::star(50);
        g.add_edge(1, 2);
        for t in all_detectors(&g) {
            assert!(is_triangle(&g, &t.unwrap()));
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let b = Budget::unlimited();
        assert!(find_triangle_ayz(&Graph::new(0), &b).0.is_unsat());
        assert!(find_triangle_naive(&Graph::new(2), &b).0.is_unsat());
        assert!(find_triangle_matmul(&generators::path(3), &b).0.is_unsat());
    }

    #[test]
    fn count_matches_brute_force() {
        for seed in 0..10u64 {
            let g = generators::gnp(15, 0.4, seed);
            let mut brute = 0u64;
            for a in 0..15 {
                for b in (a + 1)..15 {
                    for c in (b + 1)..15 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            brute += 1;
                        }
                    }
                }
            }
            assert_eq!(count_unlimited(&g), brute, "seed {seed}");
        }
    }

    #[test]
    fn tiny_budget_exhausts_every_detector() {
        let g = generators::gnp(30, 0.3, 1);
        let b = Budget::ticks(0); // the very first counted op exhausts
        assert!(find_triangle_naive(&g, &b).0.is_exhausted());
        assert!(find_triangle_matmul(&g, &b).0.is_exhausted());
        assert!(find_triangle_ayz(&g, &b).0.is_exhausted());
        assert!(count_triangles(&g, &b).0.is_exhausted());
    }

    use lb_graph::Graph;
}
