//! Partitioned subgraph isomorphism (paper §2.3).
//!
//! Given a pattern H, a host G, and a partition of V(G) into |V(H)| classes,
//! find a subgraph of G that takes exactly one vertex from each class and
//! has an edge wherever H does. This is precisely the graph-theoretic form
//! of a binary CSP (classes = variable domains, H = primal graph), and the
//! vehicle for the hardness results of §5–§6: Partitioned Clique ↔ CSP with
//! clique primal graph.
//!
//! Engine mapping: the backtracking search ticks one [`RunStats::nodes`]
//! per candidate host vertex tried and one [`RunStats::propagations`] per
//! adjacency check against an already-assigned pattern neighbor.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations

use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};
use lb_graph::Graph;

/// Finds a mapping `f: V(H) → V(G)` with `f(i) ∈ classes[i]` and an edge
/// `f(i)f(j)` in G for every edge `ij` of H. `Sat(mapping)`, `Unsat`, or
/// `Exhausted`.
///
/// # Panics
/// Panics if `classes.len() != |V(H)|` or a class member is out of range.
pub fn partitioned_subgraph_iso(
    h: &Graph,
    g: &Graph,
    classes: &[Vec<usize>],
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    assert_eq!(
        classes.len(),
        h.num_vertices(),
        "one class per pattern vertex"
    );
    for c in classes {
        assert!(
            c.iter().all(|&v| v < g.num_vertices()),
            "class member out of range"
        );
    }
    let mut ticker = Ticker::new(budget);
    let mut assignment: Vec<Option<usize>> = vec![None; h.num_vertices()];
    // Order pattern vertices by descending degree (most constrained first).
    let mut order: Vec<usize> = (0..h.num_vertices()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(h.degree(v)));
    let result = backtrack(h, g, classes, &order, 0, &mut assignment, &mut ticker);
    ticker.finish(result)
}

#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::expect_used,
    reason = "invariant: reaching full depth means every pattern vertex was assigned"
)]
fn backtrack(
    h: &Graph,
    g: &Graph,
    classes: &[Vec<usize>],
    order: &[usize],
    pos: usize,
    assignment: &mut Vec<Option<usize>>,
    ticker: &mut Ticker,
) -> Result<Option<Vec<usize>>, ExhaustReason> {
    if pos == order.len() {
        return Ok(Some(
            assignment.iter().map(|a| a.expect("complete")).collect(),
        ));
    }
    let hv = order[pos];
    'candidates: for &gv in &classes[hv] {
        ticker.node()?;
        // Respect the partition: distinct classes may share vertices in a
        // degenerate input, so enforce injectivity explicitly.
        if assignment.contains(&Some(gv)) {
            continue;
        }
        for &hn in h.neighbors(hv) {
            if let Some(gn) = assignment[hn] {
                ticker.propagation()?;
                if !g.has_edge(gv, gn) {
                    continue 'candidates;
                }
            }
        }
        assignment[hv] = Some(gv);
        let hit = backtrack(h, g, classes, order, pos + 1, assignment, ticker);
        assignment[hv] = None;
        if let Some(sol) = hit? {
            return Ok(Some(sol));
        }
    }
    Ok(None)
}

/// The Partitioned Clique instance of a k-clique search (§2.3, §6): H = K_k,
/// G' = k copies of V(G) with edges between copies i ≠ j wherever G has an
/// edge. Returns `(host, classes)`; a partitioned K_k subgraph of the host
/// exists iff G has a k-clique.
pub fn partitioned_clique_instance(g: &Graph, k: usize) -> (Graph, Vec<Vec<usize>>) {
    let n = g.num_vertices();
    let mut host = Graph::new(n * k);
    let classes: Vec<Vec<usize>> = (0..k).map(|i| (i * n..(i + 1) * n).collect()).collect();
    for i in 0..k {
        for j in (i + 1)..k {
            for (u, v) in g.edges() {
                host.add_edge(i * n + u, j * n + v);
                host.add_edge(i * n + v, j * n + u);
            }
        }
    }
    (host, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;

    fn iso(h: &Graph, g: &Graph, classes: &[Vec<usize>]) -> Option<Vec<usize>> {
        partitioned_subgraph_iso(h, g, classes, &Budget::unlimited())
            .0
            .unwrap_decided()
    }

    #[test]
    fn triangle_in_tripartite() {
        // Host: proper tripartite triangle on classes {0},{1},{2}.
        let g = generators::clique(3);
        let h = generators::clique(3);
        let classes = vec![vec![0], vec![1], vec![2]];
        let f = iso(&h, &g, &classes).unwrap();
        assert_eq!(f, vec![0, 1, 2]);
    }

    #[test]
    fn partitioned_clique_reduction_is_correct() {
        for seed in 0..10u64 {
            let g = generators::gnp(9, 0.5, seed);
            for k in 2..=4 {
                let (host, classes) = partitioned_clique_instance(&g, k);
                let pattern = generators::clique(k);
                let found = iso(&pattern, &host, &classes);
                let expect = crate::clique::find_clique(&g, k, &Budget::unlimited())
                    .0
                    .is_sat();
                assert_eq!(found.is_some(), expect, "seed {seed}, k {k}");
                if let Some(f) = found {
                    // Decode: class i's vertex maps back to g-vertex f[i] mod n.
                    let verts: Vec<usize> = f.iter().map(|&x| x % g.num_vertices()).collect();
                    assert!(g.is_clique(&verts), "seed {seed}, k {k}");
                }
            }
        }
    }

    #[test]
    fn pattern_path_in_host() {
        // Pattern P3 (path on 3), host C4, classes chosen so the middle must
        // be vertex 1.
        let h = generators::path(3);
        let g = generators::cycle(4);
        let classes = vec![vec![0, 2], vec![1], vec![0, 2]];
        let f = iso(&h, &g, &classes).unwrap();
        assert_eq!(f[1], 1);
        assert!(g.has_edge(f[0], f[1]) && g.has_edge(f[1], f[2]));
        assert_ne!(f[0], f[2]);
    }

    #[test]
    fn infeasible_partition() {
        let h = generators::clique(2);
        let g = lb_graph::Graph::new(4); // no edges
        let classes = vec![vec![0, 1], vec![2, 3]];
        assert!(iso(&h, &g, &classes).is_none());
    }

    #[test]
    fn empty_pattern() {
        let h = lb_graph::Graph::new(0);
        let g = generators::clique(3);
        assert_eq!(iso(&h, &g, &[]), Some(vec![]));
    }

    #[test]
    fn tiny_budget_exhausts() {
        let g = generators::gnp(9, 0.5, 2);
        let (host, classes) = partitioned_clique_instance(&g, 3);
        let pattern = generators::clique(3);
        let b = Budget::ticks(0); // the first candidate vertex exhausts
        let (out, stats) = partitioned_subgraph_iso(&pattern, &host, &classes, &b);
        assert!(out.is_exhausted());
        assert_eq!(stats.total_ops(), 1);
    }
}
