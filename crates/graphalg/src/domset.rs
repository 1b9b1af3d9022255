//! k-Dominating Set (paper §7, Theorem 7.1).
//!
//! The trivial algorithm enumerates all O(n^k) k-subsets and checks each in
//! O(n²); Patrascu–Williams (Theorem 7.1) show that an O(n^{k−ε}) algorithm
//! for any k ≥ 3 would refute the SETH, so the exponent k is tight. Both a
//! plain enumerator and a closed-neighborhood branching variant (better in
//! practice, same worst-case exponent) are provided; experiment E8 measures
//! the n^k scaling and feeds the Theorem 7.2 reduction in `lb-reductions`.
//!
//! Engine mapping: both searches tick one [`RunStats::nodes`] per candidate
//! vertex added to the partial solution; [`domination_number`] delegates to
//! the branching search per k and absorbs its counters.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes

use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::graph::BitSet;
use lb_graph::Graph;

/// Finds a dominating set of size ≤ k by enumerating subsets in increasing
/// lexicographic order (the paper's n^{k+O(1)} baseline). `Sat(set)`,
/// `Unsat`, or `Exhausted`.
pub fn find_dominating_set_brute(
    g: &Graph,
    k: usize,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = brute_entry(g, k, &mut ticker);
    ticker.finish(result)
}

fn brute_entry(
    g: &Graph,
    k: usize,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(Some(vec![]));
    }
    if k == 0 {
        return Ok(None);
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    brute_rec(g, k, 0, &mut chosen, ticker)
}

fn brute_rec(
    g: &Graph,
    k: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    if g.is_dominating_set(chosen) {
        return Ok(Some(chosen.clone()));
    }
    if chosen.len() == k {
        return Ok(None);
    }
    for v in start..g.num_vertices() {
        ticker.node()?;
        chosen.push(v);
        ticker.record_intermediate(chosen.len() as u64);
        let hit = brute_rec(g, k, v + 1, chosen, ticker);
        chosen.pop();
        if let Some(s) = hit? {
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// Finds a dominating set of size ≤ k by branching on an undominated
/// vertex's closed neighborhood (one of N\[v\] must be selected).
/// `Sat(set)`, `Unsat`, or `Exhausted`.
pub fn find_dominating_set_branching(
    g: &Graph,
    k: usize,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let n = g.num_vertices();
    let mut dominated = BitSet::new(n);
    let mut chosen = Vec::with_capacity(k);
    let result = branch_rec(g, k, &mut dominated, &mut chosen, &mut ticker);
    ticker.finish(result)
}

fn branch_rec(
    g: &Graph,
    k: usize,
    dominated: &mut BitSet,
    chosen: &mut Vec<usize>,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    // First undominated vertex.
    let v = (0..g.num_vertices()).find(|&v| !dominated.contains(v));
    let Some(v) = v else {
        return Ok(Some(chosen.clone()));
    };
    if chosen.len() == k {
        return Ok(None);
    }
    // One of N[v] must be in the solution.
    let mut candidates: Vec<usize> = vec![v];
    candidates.extend_from_slice(g.neighbors(v));
    for c in candidates {
        ticker.node()?;
        let closed = g.closed_neighborhood(c);
        // Record which vertices become newly dominated, for undo.
        let newly: Vec<usize> = closed.iter().filter(|&x| !dominated.contains(x)).collect();
        // lb-lint: allow(unbudgeted-loop) -- bookkeeping for one branching choice, bounded by a closed neighborhood; the branch itself is charged
        for &x in &newly {
            dominated.insert(x); // lb-lint: allow(unbounded-growth) -- fixed-capacity bitset over the n graph vertices
        }
        chosen.push(c);
        ticker.record_intermediate(chosen.len() as u64);
        let hit = branch_rec(g, k, dominated, chosen, ticker);
        chosen.pop();
        // lb-lint: allow(unbudgeted-loop) -- bookkeeping for one branching choice, bounded by a closed neighborhood; the branch itself is charged
        for &x in &newly {
            dominated.remove(x);
        }
        if let Some(s) = hit? {
            return Ok(Some(s));
        }
    }
    Ok(None)
}

/// The minimum dominating set size (exponential; for small test graphs).
/// `Sat(γ(G))` or `Exhausted`.
pub fn domination_number(g: &Graph, budget: &Budget) -> (Outcome<usize>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = domination_inner(g, &mut ticker);
    ticker.finish(result)
}

#[expect(
    clippy::unreachable,
    reason = "invariant: V(G) always dominates, so the subset search terminates before this"
)]
fn domination_inner(g: &Graph, ticker: &mut Ticker) -> Result<Option<usize>, ExhaustReason> {
    for k in 0..=g.num_vertices() {
        let (out, sub_stats) = find_dominating_set_branching(g, k, &ticker.remaining_budget());
        ticker.absorb(&sub_stats);
        match out {
            Outcome::Exhausted(r) => return Err(r),
            Outcome::Sat(_) => return Ok(Some(k)),
            Outcome::Unsat => {}
        }
    }
    unreachable!("V(G) always dominates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;

    fn brute(g: &Graph, k: usize) -> Option<Vec<usize>> {
        find_dominating_set_brute(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    fn branching(g: &Graph, k: usize) -> Option<Vec<usize>> {
        find_dominating_set_branching(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    fn gamma(g: &Graph) -> usize {
        domination_number(g, &Budget::unlimited()).0.unwrap_sat()
    }

    #[test]
    fn star_dominated_by_center() {
        let g = generators::star(6);
        let s = brute(&g, 1).unwrap();
        assert_eq!(s, vec![0]);
        assert_eq!(gamma(&g), 1);
    }

    #[test]
    fn path_domination_number() {
        // γ(P_n) = ⌈n/3⌉.
        for n in [3usize, 4, 6, 7, 9] {
            let g = generators::path(n);
            assert_eq!(gamma(&g), n.div_ceil(3), "n = {n}");
        }
    }

    #[test]
    fn brute_and_branching_agree() {
        for seed in 0..15u64 {
            let g = generators::gnp(10, 0.25, seed);
            for k in 1..=4 {
                let a = brute(&g, k);
                let b = branching(&g, k);
                assert_eq!(a.is_some(), b.is_some(), "seed {seed}, k {k}");
                if let Some(s) = a {
                    assert!(g.is_dominating_set(&s));
                }
                if let Some(s) = b {
                    assert!(g.is_dominating_set(&s));
                }
            }
        }
    }

    #[test]
    fn cycle_domination() {
        // γ(C_6) = 2.
        let g = generators::cycle(6);
        assert!(brute(&g, 1).is_none());
        let s = brute(&g, 2).unwrap();
        assert!(g.is_dominating_set(&s));
    }

    #[test]
    fn empty_graph_trivially_dominated() {
        let g = lb_graph::Graph::new(0);
        assert_eq!(brute(&g, 0), Some(vec![]));
        assert_eq!(branching(&g, 0), Some(vec![]));
    }

    #[test]
    fn isolated_vertices_must_be_chosen() {
        let g = lb_graph::Graph::new(3); // three isolated vertices
        assert!(branching(&g, 2).is_none());
        let s = branching(&g, 3).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn tiny_budget_exhausts() {
        let g = generators::gnp(10, 0.25, 0);
        let b = Budget::ticks(0); // the first candidate vertex exhausts
        assert!(find_dominating_set_brute(&g, 3, &b).0.is_exhausted());
        assert!(find_dominating_set_branching(&g, 3, &b).0.is_exhausted());
        assert!(domination_number(&g, &b).0.is_exhausted());
    }

    #[test]
    fn counters_monotone_in_budget() {
        let g = generators::gnp(10, 0.25, 3);
        let (_, small) = find_dominating_set_brute(&g, 2, &Budget::ticks(10));
        let (_, large) = find_dominating_set_brute(&g, 2, &Budget::unlimited());
        assert!(small.le(&large));
    }
}
