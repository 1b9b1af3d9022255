//! FPT Vertex Cover (paper §5).
//!
//! The paper's showcase fixed-parameter-tractable problem: a vertex cover
//! of size ≤ k can be found in 2^k · n^{O(1)} by the bounded search tree
//! (branch on either endpoint of an uncovered edge), optionally after the
//! Buss kernelization (any vertex of degree > k must be in the cover; a
//! reduced yes-instance has ≤ k² + k edges). Contrast this with Clique,
//! where no f(k)·n^{O(1)} algorithm is known — the FPT ≠ W\[1\] divide.
//!
//! Engine mapping: the search tree ticks one [`RunStats::nodes`] per branch
//! taken; the FPT pipeline additionally ticks one [`RunStats::propagations`]
//! per input edge before kernelizing (the budget-visible granularity of the
//! polynomial preprocessing). [`buss_kernel`] itself stays a pure function.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations

use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::Graph;

/// Finds a vertex cover of size ≤ k by the 2^k bounded search tree.
/// `Sat(cover)`, `Unsat`, or `Exhausted`.
pub fn vertex_cover_search_tree(
    g: &Graph,
    k: usize,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let edges = g.edges();
    let mut in_cover = vec![false; g.num_vertices()];
    let mut chosen = Vec::with_capacity(k);
    let result = branch(&edges, &mut in_cover, &mut chosen, k, &mut ticker).map(|found| {
        found.then(|| {
            chosen.sort_unstable();
            chosen
        })
    });
    ticker.finish(result)
}

fn branch(
    edges: &[(usize, usize)],
    in_cover: &mut Vec<bool>,
    chosen: &mut Vec<usize>,
    k: usize,
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    // First uncovered edge.
    let uncovered = edges.iter().find(|&&(u, v)| !in_cover[u] && !in_cover[v]);
    let Some(&(u, v)) = uncovered else {
        return Ok(true);
    };
    if chosen.len() == k {
        return Ok(false);
    }
    for w in [u, v] {
        ticker.node()?;
        in_cover[w] = true;
        chosen.push(w);
        if branch(edges, in_cover, chosen, k, ticker)? {
            return Ok(true);
        }
        chosen.pop();
        in_cover[w] = false;
    }
    Ok(false)
}

/// The Buss kernel: returns `None` if the instance is already decided
/// "no"; otherwise `Some((forced, kept_edges, k_remaining))` where `forced`
/// are high-degree vertices that must be in any ≤ k cover and `kept_edges`
/// are the edges of the kernel (≤ k'·(k'+1) of them).
#[allow(clippy::type_complexity)]
pub fn buss_kernel(g: &Graph, k: usize) -> Option<(Vec<usize>, Vec<(usize, usize)>, usize)> {
    let mut forced: Vec<usize> = Vec::new();
    let mut k_rem = k;
    let mut active_edges: Vec<(usize, usize)> = g.edges();
    loop {
        // Degrees in the current edge set.
        let mut deg = vec![0usize; g.num_vertices()];
        for &(u, v) in &active_edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        match (0..g.num_vertices()).find(|&v| deg[v] > k_rem) {
            Some(v) => {
                if k_rem == 0 {
                    return None;
                }
                forced.push(v);
                k_rem -= 1;
                active_edges.retain(|&(a, b)| a != v && b != v);
            }
            None => break,
        }
    }
    // Kernel size bound: a yes-instance has ≤ k_rem·(k_rem + 1) edges
    // (each cover vertex covers ≤ k_rem edges... the classical bound k²+k).
    if active_edges.len() > k_rem * (k_rem + 1) {
        return None;
    }
    forced.sort_unstable();
    Some((forced, active_edges, k_rem))
}

/// Kernelize-then-search: the standard FPT pipeline. `Sat(cover)`, `Unsat`,
/// or `Exhausted`.
pub fn vertex_cover_fpt(g: &Graph, k: usize, budget: &Budget) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = fpt_inner(g, k, &mut ticker);
    ticker.finish(result)
}

fn fpt_inner(
    g: &Graph,
    k: usize,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    // One tick per input edge before the polynomial kernelization pass.
    for _ in 0..g.num_edges() {
        ticker.propagation()?;
    }
    let Some((forced, kernel_edges, k_rem)) = buss_kernel(g, k) else {
        return Ok(None);
    };
    // Search on the kernel edges only.
    let mut in_cover = vec![false; g.num_vertices()];
    let mut chosen = Vec::new();
    if !branch(&kernel_edges, &mut in_cover, &mut chosen, k_rem, ticker)? {
        return Ok(None);
    }
    let mut out = forced;
    out.extend(chosen);
    out.sort_unstable();
    out.dedup();
    debug_assert!(g.is_vertex_cover(&out));
    debug_assert!(out.len() <= k);
    Ok(Some(out))
}

/// Brute-force minimum vertex cover (testing oracle, small graphs only).
/// `Sat(cover)` or `Exhausted`.
pub fn min_vertex_cover_brute(g: &Graph, budget: &Budget) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let result = brute_inner(g, &mut ticker).map(Some);
    ticker.finish(result)
}

#[expect(
    clippy::expect_used,
    reason = "invariant: V(G) is always a vertex cover, so best is set"
)]
fn brute_inner(g: &Graph, ticker: &mut Ticker) -> Result<Vec<usize>, ExhaustReason> {
    let n = g.num_vertices();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let edges = g.edges();
    let mut best: Option<Vec<usize>> = None;
    for mask in 0u32..(1u32 << n) {
        ticker.node()?;
        let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        if let Some(ref b) = best {
            if set.len() >= b.len() {
                continue;
            }
        }
        if edges
            .iter()
            .all(|&(u, v)| mask >> u & 1 == 1 || mask >> v & 1 == 1)
        {
            best = Some(set);
        }
    }
    Ok(best.expect("V(G) is always a cover"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;

    fn st(g: &Graph, k: usize) -> Option<Vec<usize>> {
        vertex_cover_search_tree(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    fn fpt(g: &Graph, k: usize) -> Option<Vec<usize>> {
        vertex_cover_fpt(g, k, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    fn brute(g: &Graph) -> Vec<usize> {
        min_vertex_cover_brute(g, &Budget::unlimited())
            .0
            .unwrap_sat()
    }

    #[test]
    fn star_cover_is_center() {
        let g = generators::star(8);
        assert_eq!(fpt(&g, 1), Some(vec![0]));
        assert_eq!(st(&g, 1), Some(vec![0]));
    }

    #[test]
    fn matching_needs_one_per_edge() {
        let g = lb_graph::Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        assert!(fpt(&g, 2).is_none());
        let c = fpt(&g, 3).unwrap();
        assert_eq!(c.len(), 3);
        assert!(g.is_vertex_cover(&c));
    }

    #[test]
    fn fpt_matches_brute_force_threshold() {
        for seed in 0..15u64 {
            let g = generators::gnp(12, 0.3, seed);
            let opt = brute(&g).len();
            for k in 0..=12 {
                let st_cover = st(&g, k);
                let fpt_cover = fpt(&g, k);
                assert_eq!(
                    st_cover.is_some(),
                    k >= opt,
                    "seed {seed}, k {k} (search tree)"
                );
                assert_eq!(fpt_cover.is_some(), k >= opt, "seed {seed}, k {k} (fpt)");
                if let Some(c) = fpt_cover {
                    assert!(g.is_vertex_cover(&c));
                    assert!(c.len() <= k);
                }
            }
        }
    }

    #[test]
    fn buss_kernel_forces_high_degree() {
        // Star with 5 leaves, k = 2: the center (degree 5 > 2) is forced.
        let g = generators::star(5);
        let (forced, kernel, k_rem) = buss_kernel(&g, 2).unwrap();
        assert_eq!(forced, vec![0]);
        assert!(kernel.is_empty());
        assert_eq!(k_rem, 1);
    }

    #[test]
    fn buss_kernel_rejects_dense() {
        // K6 needs a cover of 5; k = 2 is rejected by the kernel edge bound
        // or during forcing.
        let g = generators::clique(6);
        assert!(fpt(&g, 2).is_none());
    }

    #[test]
    fn edgeless_graph_zero_cover() {
        let g = lb_graph::Graph::new(5);
        assert_eq!(fpt(&g, 0), Some(vec![]));
    }

    #[test]
    fn tiny_budget_exhausts() {
        let g = generators::gnp(12, 0.3, 0);
        let b = Budget::ticks(0); // the very first counted op exhausts
        assert!(vertex_cover_search_tree(&g, 4, &b).0.is_exhausted());
        assert!(vertex_cover_fpt(&g, 4, &b).0.is_exhausted());
        assert!(min_vertex_cover_brute(&g, &b).0.is_exhausted());
    }

    #[test]
    fn counters_monotone_in_budget() {
        let g = generators::gnp(12, 0.3, 5);
        let (_, small) = vertex_cover_search_tree(&g, 4, &Budget::ticks(8));
        let (_, large) = vertex_cover_search_tree(&g, 4, &Budget::unlimited());
        assert!(small.le(&large));
    }
}
