//! Nice tree decompositions.
//!
//! A *nice* decomposition is a rooted binary decomposition whose nodes are of
//! four kinds — leaf (empty bag), introduce, forget, join — such that bags
//! change by one vertex at a time. Freuder-style dynamic programming
//! (Theorem 4.2) is cleanest on this form: `lb-csp`'s treewidth DP consumes
//! [`NiceDecomposition`] directly, and counting solutions is correct without
//! any inclusion–exclusion bookkeeping.

use super::TreeDecomposition;

/// Kind of a nice-decomposition node. Indices refer to [`NiceDecomposition`]
/// node ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NiceNode {
    /// An empty bag with no children.
    Leaf,
    /// Bag = child's bag ∪ {var}.
    Introduce { child: usize, var: usize },
    /// Bag = child's bag \ {var}.
    Forget { child: usize, var: usize },
    /// Bag identical to both children's bags.
    Join { left: usize, right: usize },
}

/// A nice tree decomposition; the root always has an **empty bag**, so a
/// bottom-up DP ends with a single table entry.
#[derive(Clone, Debug)]
pub struct NiceDecomposition {
    /// Sorted bag per node.
    pub bags: Vec<Vec<usize>>,
    /// Node kinds; children indices always point to lower-indexed nodes, so
    /// iterating nodes in increasing order is a valid bottom-up evaluation
    /// order.
    pub kinds: Vec<NiceNode>,
    /// Index of the root node (always the last node).
    pub root: usize,
}

impl NiceDecomposition {
    /// Width: `max |bag| − 1` (an all-empty decomposition has width 0).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// Structural validation: node-kind/bag consistency and bottom-up
    /// ordering of children.
    pub fn validate(&self) -> Result<(), String> {
        if self.bags.len() != self.kinds.len() {
            return Err("bags/kinds length mismatch".into());
        }
        if self.root != self.bags.len() - 1 {
            return Err("root must be the last node".into());
        }
        if !self.bags[self.root].is_empty() {
            return Err("root bag must be empty".into());
        }
        for (i, kind) in self.kinds.iter().enumerate() {
            match *kind {
                NiceNode::Leaf => {
                    if !self.bags[i].is_empty() {
                        return Err(format!("leaf node {i} has nonempty bag"));
                    }
                }
                NiceNode::Introduce { child, var } => {
                    if child >= i {
                        return Err(format!("node {i} child {child} not below it"));
                    }
                    let mut expect = self.bags[child].clone();
                    if expect.binary_search(&var).is_ok() {
                        return Err(format!(
                            "introduce node {i}: var {var} already in child bag"
                        ));
                    }
                    expect.push(var);
                    expect.sort_unstable();
                    if expect != self.bags[i] {
                        return Err(format!("introduce node {i}: bag mismatch"));
                    }
                }
                NiceNode::Forget { child, var } => {
                    if child >= i {
                        return Err(format!("node {i} child {child} not below it"));
                    }
                    let mut expect = self.bags[child].clone();
                    match expect.binary_search(&var) {
                        Ok(pos) => {
                            expect.remove(pos);
                        }
                        Err(_) => {
                            return Err(format!("forget node {i}: var {var} not in child bag"))
                        }
                    }
                    if expect != self.bags[i] {
                        return Err(format!("forget node {i}: bag mismatch"));
                    }
                }
                NiceNode::Join { left, right } => {
                    if left >= i || right >= i {
                        return Err(format!("join node {i} has a child not below it"));
                    }
                    if self.bags[left] != self.bags[i] || self.bags[right] != self.bags[i] {
                        return Err(format!("join node {i}: children bags differ from own"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Converts a [`TreeDecomposition`] into nice form, rooted at bag 0, with an
/// empty root bag appended on top.
///
/// `_num_graph_vertices` is accepted for interface clarity (bags are already
/// bounded by it) but not otherwise needed.
pub fn make_nice(td: &TreeDecomposition, _num_graph_vertices: usize) -> NiceDecomposition {
    let nb = td.num_bags();
    // Rooted tree structure over td's bags.
    let mut adj = vec![Vec::new(); nb];
    for &(a, b) in td.tree_edges() {
        adj[a].push(b);
        adj[b].push(a);
    }
    // Iterative DFS from bag 0 to get children lists and a post-order.
    let root_bag = 0usize;
    let mut parent = vec![usize::MAX; nb];
    let mut order = Vec::with_capacity(nb);
    let mut stack = vec![root_bag];
    let mut seen = vec![false; nb];
    seen[root_bag] = true;
    while let Some(x) = stack.pop() {
        order.push(x);
        for &y in &adj[x] {
            if !seen[y] {
                seen[y] = true;
                parent[y] = x;
                stack.push(y);
            }
        }
    }
    // Post-order: reverse of the DFS discovery order works for processing
    // children before parents only if children are discovered after parents,
    // which DFS guarantees.
    let post: Vec<usize> = order.iter().rev().copied().collect();
    let children: Vec<Vec<usize>> = {
        let mut ch = vec![Vec::new(); nb];
        for v in 0..nb {
            if parent[v] != usize::MAX {
                ch[parent[v]].push(v);
            }
        }
        ch
    };

    let mut bags: Vec<Vec<usize>> = Vec::new();
    let mut kinds: Vec<NiceNode> = Vec::new();
    // For each td bag, the nice node index whose bag equals it.
    let mut nice_of = vec![usize::MAX; nb];

    let push = |bags: &mut Vec<Vec<usize>>,
                kinds: &mut Vec<NiceNode>,
                bag: Vec<usize>,
                kind: NiceNode|
     -> usize {
        bags.push(bag);
        kinds.push(kind);
        bags.len() - 1
    };

    // Builds a chain from `from_node` (whose bag is `from_bag`) to `to_bag`
    // via forgets then introduces; returns the top node index.
    let morph = |bags: &mut Vec<Vec<usize>>,
                 kinds: &mut Vec<NiceNode>,
                 mut node: usize,
                 from_bag: &[usize],
                 to_bag: &[usize]|
     -> usize {
        let mut cur: Vec<usize> = from_bag.to_vec();
        // Forget everything not in the target.
        let to_forget: Vec<usize> = cur
            .iter()
            .copied()
            .filter(|v| to_bag.binary_search(v).is_err())
            .collect();
        for v in to_forget {
            #[expect(
                clippy::expect_used,
                reason = "invariant: v was inserted into cur before this search"
            )]
            let pos = cur.binary_search(&v).expect("var present");
            cur.remove(pos);
            node = {
                bags.push(cur.clone());
                kinds.push(NiceNode::Forget {
                    child: node,
                    var: v,
                });
                bags.len() - 1
            };
        }
        // Introduce everything missing.
        let to_introduce: Vec<usize> = to_bag
            .iter()
            .copied()
            .filter(|v| cur.binary_search(v).is_err())
            .collect();
        for v in to_introduce {
            #[expect(
                clippy::unwrap_used,
                reason = "invariant: v was filtered to be absent from cur, so its search fails"
            )]
            let pos = cur.binary_search(&v).unwrap_err();
            cur.insert(pos, v);
            node = {
                bags.push(cur.clone());
                kinds.push(NiceNode::Introduce {
                    child: node,
                    var: v,
                });
                bags.len() - 1
            };
        }
        node
    };

    for &t in &post {
        let target = td.bags()[t].clone();
        // Build a base node with bag = target.
        let mut acc: Option<usize> = None;
        for &c in &children[t] {
            let child_top = nice_of[c];
            let child_bag = td.bags()[c].clone();
            let morphed = morph(&mut bags, &mut kinds, child_top, &child_bag, &target);
            acc = Some(match acc {
                None => morphed,
                Some(prev) => {
                    // Join prev and morphed (both have bag == target).
                    push(
                        &mut bags,
                        &mut kinds,
                        target.clone(),
                        NiceNode::Join {
                            left: prev,
                            right: morphed,
                        },
                    )
                }
            });
        }
        let node = match acc {
            Some(node) => node,
            None => {
                // Leaf bag: start from empty and introduce everything.
                let leaf = push(&mut bags, &mut kinds, vec![], NiceNode::Leaf);
                morph(&mut bags, &mut kinds, leaf, &[], &target)
            }
        };
        nice_of[t] = node;
    }

    // Forget the root bag down to empty.
    let root_top = nice_of[root_bag];
    let root_bag_content = td.bags()[root_bag].clone();
    let final_root = morph(&mut bags, &mut kinds, root_top, &root_bag_content, &[]);
    // Edge case: the root bag was already empty and had no children; ensure
    // at least one node exists (push already guaranteed it).
    let root = final_root;

    NiceDecomposition { bags, kinds, root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::treewidth::elimination::from_elimination_order;
    use crate::treewidth::heuristics::min_fill_order;

    fn nice_for(g: &crate::graph::Graph) -> NiceDecomposition {
        let td = from_elimination_order(g, &min_fill_order(g));
        td.validate(g).unwrap();
        td.to_nice(g.num_vertices())
    }

    #[test]
    fn path_nice_is_valid_width_1() {
        let g = generators::path(6);
        let nd = nice_for(&g);
        nd.validate().unwrap();
        assert_eq!(nd.width(), 1);
    }

    #[test]
    fn cycle_nice_is_valid_width_2() {
        let g = generators::cycle(8);
        let nd = nice_for(&g);
        nd.validate().unwrap();
        assert_eq!(nd.width(), 2);
    }

    #[test]
    fn clique_nice_is_valid() {
        let g = generators::clique(5);
        let nd = nice_for(&g);
        nd.validate().unwrap();
        assert_eq!(nd.width(), 4);
    }

    #[test]
    fn every_graph_vertex_introduced_and_forgotten() {
        // In a nice decomposition with empty root, each vertex is introduced
        // at least once and forgotten at least once. (A vertex may be
        // introduced once per branch below a join, so counts need not match.)
        let g = generators::k_tree(2, 9, 3);
        let nd = nice_for(&g);
        nd.validate().unwrap();
        let mut intro = [0usize; 9];
        let mut forget = [0usize; 9];
        for k in &nd.kinds {
            match *k {
                NiceNode::Introduce { var, .. } => intro[var] += 1,
                NiceNode::Forget { var, .. } => forget[var] += 1,
                _ => {}
            }
        }
        for v in 0..9 {
            assert!(intro[v] >= 1, "vertex {v} never introduced");
            assert!(forget[v] >= 1, "vertex {v} never forgotten");
        }
    }

    #[test]
    fn trivial_decomposition_nice() {
        let _g = generators::clique(3);
        let td = super::super::TreeDecomposition::trivial(3);
        let nd = td.to_nice(3);
        nd.validate().unwrap();
        assert_eq!(nd.width(), 2);
    }

    #[test]
    fn single_vertex_graph() {
        let g = crate::graph::Graph::new(1);
        let td = super::super::TreeDecomposition::trivial(1);
        td.validate(&g).unwrap();
        let nd = td.to_nice(1);
        nd.validate().unwrap();
    }

    #[test]
    fn disconnected_graph_nice() {
        let g = crate::graph::Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let nd = nice_for(&g);
        nd.validate().unwrap();
        assert_eq!(nd.width(), 1);
    }
}
