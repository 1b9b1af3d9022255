//! Directed graphs and strongly connected components.
//!
//! The main client is the linear-time 2SAT solver in `lb-sat` (the
//! polynomial-time case contrasted with 3SAT in paper §4), which needs
//! Tarjan's SCC algorithm over the implication graph.

/// A directed graph on vertices `0..n` with adjacency lists.
#[derive(Clone, Debug)]
pub struct DiGraph {
    n: usize,
    adj: Vec<Vec<usize>>,
    m: usize,
}

impl DiGraph {
    /// Creates an arcless digraph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.m
    }

    /// Adds arc `u → v` (parallel arcs allowed; harmless for SCC).
    pub fn add_arc(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "arc endpoint out of range");
        self.adj[u].push(v);
        self.m += 1;
    }

    /// Out-neighbors of `u`.
    pub fn successors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Tarjan's strongly connected components, iteratively (no recursion, so
    /// implication graphs with hundreds of thousands of literals are fine).
    ///
    /// Returns `comp` where `comp[v]` is the SCC index of `v`. Components are
    /// numbered in *reverse topological order*: if there is an arc from SCC
    /// `a` to SCC `b` with `a != b`, then `comp` index of `a` is **greater**
    /// than that of `b`. (This is the property the 2SAT solver relies on.)
    pub fn tarjan_scc(&self) -> SccResult {
        let n = self.n;
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut num_comps = 0usize;

        // Explicit DFS stack: (vertex, next child position).
        let mut call: Vec<(usize, usize)> = Vec::new();

        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            call.push((root, 0));
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                if *ci < self.adj[v].len() {
                    let w = self.adj[v][*ci];
                    *ci += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        loop {
                            #[expect(
                                clippy::expect_used,
                                reason = "invariant: Tarjan pushes w before popping it, so the stack cannot underflow"
                            )]
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp[w] = num_comps;
                            if w == v {
                                break;
                            }
                        }
                        num_comps += 1;
                    }
                }
            }
        }

        SccResult { comp, num_comps }
    }

    /// Topological order of a DAG, or `None` if the digraph has a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            for &v in &self.adj[u] {
                indeg[v] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }
}

/// Result of an SCC computation.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// `comp[v]` is the component index of vertex `v`, in reverse
    /// topological order of the condensation.
    pub comp: Vec<usize>,
    /// Number of strongly connected components.
    pub num_comps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_one_scc() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1);
        g.add_arc(1, 2);
        g.add_arc(2, 3);
        g.add_arc(3, 0);
        let r = g.tarjan_scc();
        assert_eq!(r.num_comps, 1);
        assert!(r.comp.iter().all(|&c| c == r.comp[0]));
    }

    #[test]
    fn dag_has_singleton_sccs_in_reverse_topo_order() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1);
        g.add_arc(1, 2);
        let r = g.tarjan_scc();
        assert_eq!(r.num_comps, 3);
        // Arc a→b implies comp[a] > comp[b].
        assert!(r.comp[0] > r.comp[1]);
        assert!(r.comp[1] > r.comp[2]);
    }

    #[test]
    fn two_cycles_bridge() {
        // SCCs: {0,1}, {2,3}, with a bridge 1→2.
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1);
        g.add_arc(1, 0);
        g.add_arc(2, 3);
        g.add_arc(3, 2);
        g.add_arc(1, 2);
        let r = g.tarjan_scc();
        assert_eq!(r.num_comps, 2);
        assert_eq!(r.comp[0], r.comp[1]);
        assert_eq!(r.comp[2], r.comp[3]);
        assert!(r.comp[0] > r.comp[2]);
    }

    #[test]
    fn topological_order_of_dag() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1);
        g.add_arc(0, 2);
        g.add_arc(1, 3);
        g.add_arc(2, 3);
        let order = g.topological_order().expect("dag");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_has_no_topological_order() {
        let mut g = DiGraph::new(2);
        g.add_arc(0, 1);
        g.add_arc(1, 0);
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        assert_eq!(g.tarjan_scc().num_comps, 0);
        assert_eq!(g.topological_order(), Some(vec![]));
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        let n = 200_000;
        let mut g = DiGraph::new(n);
        for v in 0..n - 1 {
            g.add_arc(v, v + 1);
        }
        let r = g.tarjan_scc();
        assert_eq!(r.num_comps, n);
    }
}
