//! Workspace-wide call graph over parsed `fn` items, with path-insensitive
//! reachability.
//!
//! Resolution is by name, not by type (there is no type checker here), with
//! the precision ladder documented in `DESIGN.md` §6:
//!
//! * `Type::name(...)` resolves to the `impl Type` functions named `name`
//!   when `Type` is a type defined in the workspace; an unknown CamelCase
//!   segment (a std type like `Vec`) resolves to nothing.
//! * `module::name(...)` (lowercase segment) resolves to the free functions
//!   named `name`.
//! * `.name(...)` resolves to every impl/trait function named `name` in the
//!   workspace, whatever its type — a deliberate over-approximation.
//! * `name(...)` resolves to the free functions named `name`, falling back
//!   to any function of that name.
//!
//! Extra edges only make the reachability rules (R8, R11, R16) stricter, so the
//! over-approximations are on the sound side for a gate; the one known
//! under-approximation (bare identifiers passed as function pointers) is
//! called out in the design notes.

use crate::items::{Callee, FnItem, LoopItem, ParsedFile, Span};
use std::collections::{HashMap, HashSet, VecDeque};

/// One function node in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub qualifier: Option<String>,
    /// True for plain `pub`.
    pub is_pub: bool,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Body line span (`None` for bodyless trait declarations).
    pub body: Option<Span>,
    /// Loops in the body.
    pub loops: Vec<LoopItem>,
}

impl FnNode {
    /// `Qualifier::name` or plain `name` for display.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call edge: `to` is the callee node id, `line` the call-site line in the
/// caller's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node id.
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: usize,
}

/// How a node was reached during BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// The node is itself a root.
    Root,
    /// Reached from node `from` via the call at `line` in `from`'s file.
    Via {
        /// Caller node id.
        from: usize,
        /// Call-site line.
        line: usize,
    },
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Function nodes, ordered by (file, line).
    pub nodes: Vec<FnNode>,
    /// Outgoing edges per node, in call order, deduplicated.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph from parsed files. `files` must already be sorted by
    /// path (as produced by the workspace walk) for deterministic node ids.
    pub fn build(files: &[(String, ParsedFile)]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut calls: Vec<&FnItem> = Vec::new();
        for (path, parsed) in files {
            for f in &parsed.fns {
                nodes.push(FnNode {
                    file: path.clone(),
                    name: f.name.clone(),
                    qualifier: f.qualifier.clone(),
                    is_pub: f.is_pub,
                    line: f.line,
                    body: f.body,
                    loops: f.loops.clone(),
                });
                calls.push(f);
            }
        }

        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut method_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qual_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
        let mut qualifiers: HashSet<&str> = HashSet::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(&n.name).or_default().push(id);
            match &n.qualifier {
                Some(q) => {
                    method_by_name.entry(&n.name).or_default().push(id);
                    by_qual_name
                        .entry((q.as_str(), &n.name))
                        .or_default()
                        .push(id);
                    qualifiers.insert(q.as_str());
                }
                None => free_by_name.entry(&n.name).or_default().push(id),
            }
        }

        let empty: Vec<usize> = Vec::new();
        let mut edges = Vec::with_capacity(nodes.len());
        for f in &calls {
            let mut out: Vec<Edge> = Vec::new();
            let mut seen: HashSet<(usize, usize)> = HashSet::new();
            for c in &f.calls {
                let targets: &Vec<usize> = match &c.callee {
                    Callee::Free(n) => free_by_name
                        .get(n.as_str())
                        .or_else(|| by_name.get(n.as_str()))
                        .unwrap_or(&empty),
                    Callee::Method(n) => method_by_name.get(n.as_str()).unwrap_or(&empty),
                    Callee::Qualified(q, n) => {
                        if qualifiers.contains(q.as_str()) {
                            by_qual_name
                                .get(&(q.as_str(), n.as_str()))
                                .unwrap_or(&empty)
                        } else if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                            // A module path: resolves to free functions.
                            free_by_name.get(n.as_str()).unwrap_or(&empty)
                        } else {
                            // An unknown type (std or external): no edge.
                            &empty
                        }
                    }
                };
                for &to in targets {
                    if seen.insert((to, c.line)) {
                        out.push(Edge { to, line: c.line });
                    }
                }
            }
            edges.push(out);
        }
        CallGraph { nodes, edges }
    }

    /// BFS from `roots`. Returns, per node, how it was first reached
    /// (`None` = unreachable). Roots are visited in id order, so parent
    /// chains are deterministic.
    pub fn reachable(&self, roots: &[usize]) -> Vec<Option<Parent>> {
        let mut parent: Vec<Option<Parent>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if parent[r].is_none() {
                parent[r] = Some(Parent::Root);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in &self.edges[id] {
                if parent[e.to].is_some() {
                    continue;
                }
                parent[e.to] = Some(Parent::Via {
                    from: id,
                    line: e.line,
                });
                queue.push_back(e.to);
            }
        }
        parent
    }

    /// The set of "charging" functions: those whose body contains a direct
    /// charge line (per `is_charge_line`, a per-file line predicate) plus
    /// every function that calls one, transitively.
    pub fn charging_set<F: Fn(&str, usize) -> bool>(&self, is_charge_line: F) -> Vec<bool> {
        let mut charging = vec![false; self.nodes.len()];
        // Reverse edges for the fixpoint.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (from, out) in self.edges.iter().enumerate() {
            for e in out {
                rev[e.to].push(from);
            }
        }
        let mut queue = VecDeque::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if let Some(body) = n.body {
                if (body.start..=body.end).any(|l| is_charge_line(&n.file, l)) {
                    charging[id] = true;
                    queue.push_back(id);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for &caller in &rev[id] {
                if !charging[caller] {
                    charging[caller] = true;
                    queue.push_back(caller);
                }
            }
        }
        charging
    }

    /// The example call chain from a root to `target`, rendered as
    /// `root -> ... -> target` display names. Empty string if unreached.
    pub fn chain_to(&self, parents: &[Option<Parent>], target: usize) -> String {
        let mut names = Vec::new();
        let mut cur = target;
        let mut guard = 0;
        loop {
            names.push(self.nodes[cur].display_name());
            match parents[cur] {
                Some(Parent::Via { from, .. }) => cur = from,
                Some(Parent::Root) => break,
                None => return String::new(),
            }
            guard += 1;
            if guard > self.nodes.len() {
                return String::new();
            }
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Deterministic text dump of the graph (for `lb-lint graph`): one block
    /// per function in (file, line) order, listing loops and resolved calls.
    pub fn dump(&self) -> String {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            (&self.nodes[a].file, self.nodes[a].line, &self.nodes[a].name).cmp(&(
                &self.nodes[b].file,
                self.nodes[b].line,
                &self.nodes[b].name,
            ))
        });
        let mut out = String::new();
        for id in order {
            let n = &self.nodes[id];
            out.push_str(&format!(
                "fn {}:{} {}{}\n",
                n.file,
                n.line,
                if n.is_pub { "pub " } else { "" },
                n.display_name()
            ));
            for l in &n.loops {
                out.push_str(&format!(
                    "  loop {}:{} ({}, body {}..{})\n",
                    n.file, l.line, l.kind, l.body.start, l.body.end
                ));
            }
            let mut edges = self.edges[id].clone();
            edges.sort_by_key(|e| (e.line, e.to));
            for e in edges {
                let t = &self.nodes[e.to];
                out.push_str(&format!(
                    "  call {} ({}:{}) at line {}\n",
                    t.display_name(),
                    t.file,
                    t.line,
                    e.line
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse;
    use crate::lexer::scan;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, ParsedFile)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), parse(&scan(s))))
            .collect();
        CallGraph::build(&parsed)
    }

    fn id_of(g: &CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap()
    }

    #[test]
    fn edges_resolve_free_method_and_qualified() {
        let g = graph_of(&[(
            "a.rs",
            "\
pub fn solve() { helper(); S::assoc(); s.step(); }
fn helper() {}
struct S;
impl S {
    fn assoc() {}
    fn step(&self) {}
}
",
        )]);
        let solve = id_of(&g, "solve");
        let targets: Vec<&str> = g.edges[solve]
            .iter()
            .map(|e| g.nodes[e.to].name.as_str())
            .collect();
        assert_eq!(targets, vec!["helper", "assoc", "step"]);
    }

    #[test]
    fn unknown_std_types_resolve_to_nothing() {
        let g = graph_of(&[(
            "a.rs",
            "pub fn f() { let v = Vec::new(); let s = String::from(\"x\"); }\nfn new() {}\n",
        )]);
        let f = id_of(&g, "f");
        assert!(
            g.edges[f].is_empty(),
            "Vec::new must not resolve to a workspace fn named new"
        );
    }

    #[test]
    fn module_qualified_calls_resolve_to_free_fns() {
        let g = graph_of(&[
            ("a.rs", "pub fn top() { util::deep(); }\n"),
            ("b.rs", "pub fn deep() {}\n"),
        ]);
        let top = id_of(&g, "top");
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(g.nodes[g.edges[top][0].to].name, "deep");
    }

    #[test]
    fn reachability_and_chains() {
        let g = graph_of(&[(
            "a.rs",
            "\
pub fn root() { mid(); }
fn mid() { leaf(); }
fn leaf() {}
fn island() {}
",
        )]);
        let root = id_of(&g, "root");
        let leaf = id_of(&g, "leaf");
        let island = id_of(&g, "island");
        let parents = g.reachable(&[root]);
        assert!(parents[leaf].is_some());
        assert!(parents[island].is_none());
        assert_eq!(g.chain_to(&parents, leaf), "root -> mid -> leaf");
    }

    #[test]
    fn charging_set_propagates_to_callers() {
        let g = graph_of(&[(
            "a.rs",
            "\
pub fn entry() { worker(); }
fn worker() { t.node(); }
fn idle() {}
",
        )]);
        // Line 2 holds the direct charge.
        let charging = g.charging_set(|_, line| line == 2);
        assert!(charging[id_of(&g, "worker")]);
        assert!(charging[id_of(&g, "entry")]);
        assert!(!charging[id_of(&g, "idle")]);
    }

    #[test]
    fn dump_is_deterministic_and_complete() {
        let g = graph_of(&[("a.rs", "pub fn f() { loop { g(); } }\nfn g() {}\n")]);
        let d1 = g.dump();
        let d2 = g.dump();
        assert_eq!(d1, d2);
        assert!(d1.contains("fn a.rs:1 pub f"));
        assert!(d1.contains("loop a.rs:1"));
        assert!(d1.contains("call g (a.rs:2) at line 1"));
    }
}
