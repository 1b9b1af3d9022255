//! Elimination-order heuristics: min-degree and min-fill.
//!
//! These produce upper bounds on treewidth quickly. For the graph families
//! used in the paper's reductions they are frequently optimal: both return
//! width k on k-trees, width k−1 on k-cliques, width 1 on trees. The bench
//! `e3` ablates which heuristic feeds Freuder's dynamic program.

use super::elimination::from_elimination_order;
use super::TreeDecomposition;
use crate::graph::{BitSet, Graph};

/// The min-degree elimination ordering: repeatedly eliminate a vertex of
/// minimum degree in the current fill-in graph (ties broken by vertex id).
pub fn min_degree_order(g: &Graph) -> Vec<usize> {
    greedy_order(g, |nbr, alive, v| {
        let mut s = nbr[v].clone();
        s.intersect_with(alive);
        s.count()
    })
}

/// The min-fill elimination ordering: repeatedly eliminate the vertex whose
/// elimination adds the fewest fill edges (ties broken by vertex id).
pub fn min_fill_order(g: &Graph) -> Vec<usize> {
    greedy_order(g, |nbr, alive, v| {
        let mut s = nbr[v].clone();
        s.intersect_with(alive);
        let hood: Vec<usize> = s.iter().collect();
        let mut fill = 0usize;
        for (i, &a) in hood.iter().enumerate() {
            for &b in &hood[i + 1..] {
                if !nbr[a].contains(b) {
                    fill += 1;
                }
            }
        }
        fill
    })
}

fn greedy_order<F>(g: &Graph, mut score: F) -> Vec<usize>
where
    F: FnMut(&[BitSet], &BitSet, usize) -> usize,
{
    let n = g.num_vertices();
    let mut nbr: Vec<BitSet> = (0..n).map(|v| g.neighbor_set(v).clone()).collect();
    let mut alive = BitSet::new(n);
    for v in 0..n {
        alive.insert(v);
    }
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        #[expect(
            clippy::expect_used,
            reason = "invariant: the elimination loop runs only while the alive set is nonempty"
        )]
        let v = alive
            .iter()
            .min_by_key(|&v| (score(&nbr, &alive, v), v))
            .expect("alive set nonempty");
        // Connect remaining neighbors pairwise.
        let mut rem = nbr[v].clone();
        rem.intersect_with(&alive);
        let hood: Vec<usize> = rem.iter().collect();
        for (i, &a) in hood.iter().enumerate() {
            for &b in &hood[i + 1..] {
                nbr[a].insert(b);
                nbr[b].insert(a);
            }
        }
        alive.remove(v);
        order.push(v);
    }
    order
}

/// A treewidth upper bound: the best of min-degree and min-fill, returned as
/// `(width, decomposition)`.
pub fn treewidth_upper_bound(g: &Graph) -> (usize, TreeDecomposition) {
    let d1 = from_elimination_order(g, &min_degree_order(g));
    let d2 = from_elimination_order(g, &min_fill_order(g));
    if d1.width() <= d2.width() {
        (d1.width(), d1)
    } else {
        (d2.width(), d2)
    }
}

/// The MMD (maximum minimum degree / degeneracy) lower bound on treewidth:
/// repeatedly delete a minimum-degree vertex; the largest minimum degree
/// seen is a lower bound on tw(G). Sandwiching
/// `treewidth_lower_bound ≤ tw ≤ treewidth_upper_bound` certifies the
/// heuristics on graphs too large for the exact DP.
pub fn treewidth_lower_bound(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut alive = BitSet::new(n);
    for v in 0..n {
        alive.insert(v);
    }
    let mut bound = 0usize;
    for _ in 0..n {
        #[expect(
            clippy::expect_used,
            reason = "invariant: the elimination loop runs only while the alive set is nonempty"
        )]
        let (v, deg) = alive
            .iter()
            .map(|v| {
                let mut s = g.neighbor_set(v).clone();
                s.intersect_with(&alive);
                (v, s.count())
            })
            .min_by_key(|&(v, d)| (d, v))
            .expect("alive set nonempty");
        bound = bound.max(deg);
        alive.remove(v);
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn tree_gets_width_1() {
        // A binary-ish tree.
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let (w, td) = treewidth_upper_bound(&g);
        td.validate(&g).unwrap();
        assert_eq!(w, 1);
    }

    #[test]
    fn cycle_gets_width_2() {
        let g = generators::cycle(9);
        let (w, td) = treewidth_upper_bound(&g);
        td.validate(&g).unwrap();
        assert_eq!(w, 2);
    }

    #[test]
    fn clique_gets_width_k_minus_1() {
        let g = generators::clique(6);
        let (w, _) = treewidth_upper_bound(&g);
        assert_eq!(w, 5);
    }

    #[test]
    fn k_tree_gets_width_k() {
        let g = generators::k_tree(3, 12, 42);
        let (w, td) = treewidth_upper_bound(&g);
        td.validate(&g).unwrap();
        assert_eq!(w, 3);
    }

    #[test]
    fn grid_width_at_most_side() {
        let g = generators::grid(4, 4);
        let (w, td) = treewidth_upper_bound(&g);
        td.validate(&g).unwrap();
        // tw(4x4 grid) = 4; heuristics achieve ≤ 5 comfortably.
        assert!((4..=5).contains(&w), "got width {w}");
    }

    #[test]
    fn lower_bound_sandwich() {
        use crate::treewidth::exact::treewidth_exact;
        for seed in 0..8u64 {
            let g = generators::gnp(12, 0.3, seed);
            let lo = treewidth_lower_bound(&g);
            let tw = treewidth_exact(&g);
            let (hi, _) = treewidth_upper_bound(&g);
            assert!(lo <= tw, "seed {seed}: MMD {lo} exceeds tw {tw}");
            assert!(tw <= hi, "seed {seed}");
        }
    }

    #[test]
    fn lower_bound_exact_on_cliques_and_cycles() {
        assert_eq!(treewidth_lower_bound(&generators::clique(6)), 5);
        assert_eq!(treewidth_lower_bound(&generators::cycle(9)), 2);
        assert_eq!(treewidth_lower_bound(&generators::path(5)), 1);
    }

    #[test]
    fn orders_are_permutations() {
        let g = generators::gnp(20, 0.3, 7);
        for order in [min_degree_order(&g), min_fill_order(&g)] {
            let mut s = order.clone();
            s.sort_unstable();
            assert_eq!(s, (0..20).collect::<Vec<_>>());
        }
    }

    use crate::graph::Graph;
}
