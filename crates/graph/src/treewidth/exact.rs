//! Exact treewidth for small graphs.
//!
//! Dynamic programming over vertex subsets (Bodlaender–Koster style): for a
//! set `S ⊆ V`, let `f(S)` be the minimum over orderings that eliminate
//! exactly the vertices of `S` first of the maximum back-degree incurred.
//! Then
//!
//! ```text
//! f(∅)  = 0
//! f(S)  = min over v ∈ S of max( f(S \ {v}),  Q(S \ {v}, v) )
//! tw(G) = f(V)
//! ```
//!
//! where `Q(S', v)` is the number of vertices outside `S' ∪ {v}` reachable
//! from `v` through `S'` — exactly v's back-degree in the fill-in graph when
//! it is eliminated right after `S'`.
//!
//! The table has `2^n` entries, so this is limited to `n ≤ MAX_EXACT_N`
//! vertices; for larger graphs use the heuristics in
//! [`super::heuristics`]. All experiment workloads that need *exact* widths
//! (validating the reductions of §5–§7) stay below this limit.

use crate::graph::Graph;

/// Largest vertex count accepted by the exact algorithms.
pub const MAX_EXACT_N: usize = 22;

/// Exact treewidth of `g`.
///
/// # Panics
/// Panics if `g` has more than [`MAX_EXACT_N`] vertices.
pub fn treewidth_exact(g: &Graph) -> usize {
    let (w, _) = treewidth_exact_order(g);
    w
}

/// Exact treewidth together with an optimal elimination ordering.
///
/// # Panics
/// Panics if `g` has more than [`MAX_EXACT_N`] vertices.
pub fn treewidth_exact_order(g: &Graph) -> (usize, Vec<usize>) {
    let n = g.num_vertices();
    assert!(
        n <= MAX_EXACT_N,
        "exact treewidth limited to {MAX_EXACT_N} vertices (got {n}); use the heuristics"
    );
    if n == 0 {
        return (0, vec![]);
    }

    // Adjacency as bitmasks over u32 (n ≤ 22 < 32).
    let adj: Vec<u32> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0u32, |acc, &w| acc | (1 << w)))
        .collect();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    let mut f = vec![u8::MAX; 1usize << n];
    f[0] = 0;
    // Iterate subsets in increasing popcount order implicitly: any S > all
    // its subsets numerically is not guaranteed, but S \ {v} < S always
    // holds numerically, so a plain ascending loop is safe.
    for s in 1..=(full as usize) {
        let s32 = s as u32;
        let mut best = u8::MAX;
        let mut bits = s32;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = s32 & !(1 << v);
            let sub = f[prev as usize];
            if sub >= best {
                continue; // cannot improve
            }
            let q = back_degree(&adj, full, prev, v);
            let cand = sub.max(q as u8);
            if cand < best {
                best = cand;
            }
        }
        f[s] = best;
    }

    // Reconstruct an optimal ordering by walking down from the full set.
    let tw = f[full as usize] as usize;
    let mut order_rev = Vec::with_capacity(n);
    let mut s = full;
    while s != 0 {
        let mut bits = s;
        let mut chosen = None;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = s & !(1 << v);
            let q = back_degree(&adj, full, prev, v);
            if f[prev as usize].max(q as u8) == f[s as usize] {
                chosen = Some(v);
                break;
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: the DP table records a witness for every reconstructed state"
        )]
        let v = chosen.expect("DP reconstruction must find a witness");
        order_rev.push(v);
        s &= !(1 << v);
    }
    order_rev.reverse();
    (tw, order_rev)
}

/// `Q(S, v)`: vertices outside `S ∪ {v}` reachable from `v` through `S`.
fn back_degree(adj: &[u32], full: u32, s: u32, v: usize) -> usize {
    // BFS from v where intermediate vertices must lie in S.
    let mut reached_in_s: u32 = adj[v] & s;
    let mut frontier = reached_in_s;
    let mut outside: u32 = adj[v] & !s & full & !(1 << v);
    while frontier != 0 {
        let u = frontier.trailing_zeros() as usize;
        frontier &= frontier - 1;
        let new_in_s = adj[u] & s & !reached_in_s;
        reached_in_s |= new_in_s;
        frontier |= new_in_s;
        outside |= adj[u] & !s & full & !(1 << v);
    }
    outside.count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::treewidth::elimination::{elimination_width, from_elimination_order};
    use crate::treewidth::heuristics::treewidth_upper_bound;

    #[test]
    fn known_widths() {
        assert_eq!(treewidth_exact(&generators::path(8)), 1);
        assert_eq!(treewidth_exact(&generators::cycle(8)), 2);
        assert_eq!(treewidth_exact(&generators::clique(7)), 6);
        assert_eq!(treewidth_exact(&Graph::new(5)), 0);
        assert_eq!(treewidth_exact(&generators::complete_bipartite(3, 4)), 3);
    }

    #[test]
    fn grid_3x3_is_3() {
        assert_eq!(treewidth_exact(&generators::grid(3, 3)), 3);
    }

    #[test]
    fn k_tree_width_is_k() {
        for k in 1..=3 {
            let g = generators::k_tree(k, 10, 99);
            assert_eq!(treewidth_exact(&g), k, "k = {k}");
        }
    }

    #[test]
    fn optimal_order_achieves_width() {
        let g = generators::gnp(12, 0.3, 5);
        let (tw, order) = treewidth_exact_order(&g);
        assert_eq!(elimination_width(&g, &order), tw);
        let td = from_elimination_order(&g, &order);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), tw);
    }

    #[test]
    fn heuristics_never_beat_exact() {
        for seed in 0..5u64 {
            let g = generators::gnp(11, 0.35, seed);
            let tw = treewidth_exact(&g);
            let (ub, _) = treewidth_upper_bound(&g);
            assert!(ub >= tw, "heuristic {ub} below exact {tw}");
        }
    }

    #[test]
    fn petersen_graph_is_4() {
        let g = generators::petersen();
        assert_eq!(treewidth_exact(&g), 4);
    }

    use crate::graph::Graph;
}
