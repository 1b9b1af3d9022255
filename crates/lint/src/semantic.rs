//! The call-graph semantic rules R8 and R11–R16.
//!
//! Unlike the per-file directive check in [`crate::rules`], these passes
//! see the whole workspace at once: they parse every library file into
//! `fn` items ([`crate::items`]), build a name-resolved call graph
//! ([`crate::graph`]), and check an invariant that was previously enforced
//! only dynamically (via lb-chaos fuzzing and property tests):
//!
//! * **R8 `unbudgeted-loop`** — every `loop`/`while`/`for` in the solver
//!   crates that is transitively reachable from a public entry point must
//!   charge the `Budget`, either by a direct `Ticker` charge call in its
//!   body or by calling (transitively) a function that charges.
//!
//! The dataflow rules sit on top of the same graph, fed by the
//! per-function summaries from [`crate::dataflow`]:
//!
//! * **R11 `unbounded-growth`** — a loop-carried collection mutation in a
//!   budget-reachable solver loop must be charged to
//!   `RunStats.max_intermediate`: the enclosing function either charges
//!   directly or calls (transitively) a charging function.
//! * **R12 `swallowed-result`** — no `let _ =`, statement-final `.ok();`,
//!   or never-read binding of a workspace `Result`-returning call in
//!   library code.
//! * **R13 `send-hostile-state`** — no `Rc`/`RefCell`/`Cell`/raw-pointer
//!   fields or `thread_local!` state in the checkpoint-serializable solver
//!   state files (and the engine), so frames stay `Send` by construction.

use crate::dataflow::{self, FileFlow};
use crate::effects::{self, CrateEffects, FileEffects};
use crate::graph::CallGraph;
use crate::items::{self, ParsedFile};
use crate::lexer::{scan, ScannedFile};
use crate::rules::{is_library, parse_allows, snippet_at, Allows, Config, Rule, Violation};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Coverage statistics from a semantic run, for the dogfood self-tests and
/// the CLI summary.
#[derive(Debug, Clone, Default)]
pub struct SemanticStats {
    /// Display names of the reachability roots, sorted and deduplicated.
    pub root_names: Vec<String>,
    /// Functions reachable from the roots.
    pub reachable_fns: usize,
    /// Loops examined by R8 (reachable, in solver paths).
    pub loops_checked: usize,
    /// Per-crate dataflow coverage (R11–R13), keyed by crate name.
    pub dataflow: BTreeMap<String, CrateDataflow>,
    /// Per-crate effect coverage (R14–R16), keyed by crate name.
    pub effects: BTreeMap<String, CrateEffects>,
}

/// Dataflow coverage for one crate: how much the R11–R13 passes actually
/// saw. The `tests/lint_gate.rs` floors require these to be nonzero per
/// solver crate, so a path-scope misconfiguration cannot silently empty
/// the rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrateDataflow {
    /// Collection-typed `let` bindings classified by the dataflow pass.
    pub collection_bindings: usize,
    /// `Result` sites: `Result`-returning fn signatures plus discard-shaped
    /// statements examined by R12.
    pub result_sites: usize,
    /// Structs parsed in the R13 state-struct files.
    pub state_structs: usize,
}

/// The crate name under `crates/`, if any (`crates/sat/src/x.rs` → `sat`).
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// One file prepared for semantic analysis.
struct SemFile {
    rel: String,
    source: String,
    scanned: ScannedFile,
    allows: Allows,
    parsed: ParsedFile,
}

fn path_matches(rel: &str, pats: &[String]) -> bool {
    pats.iter().any(|p| rel.contains(p.as_str()))
}

/// Runs R8 and R11–R16 over the walked workspace files. `files` holds
/// `(workspace-relative path, source)` pairs in sorted path order.
pub fn check(files: &[(String, String)], config: &Config) -> (Vec<Violation>, SemanticStats) {
    let sem_files = prepare(files, config);
    let graph = build_graph(&sem_files);
    let allows: HashMap<&str, &Allows> = sem_files
        .iter()
        .map(|f| (f.rel.as_str(), &f.allows))
        .collect();
    let sources: HashMap<&str, &str> = sem_files
        .iter()
        .map(|f| (f.rel.as_str(), f.source.as_str()))
        .collect();
    let allowed = |file: &str, line: usize, rule: Rule| {
        allows.get(file).is_some_and(|a| a.allowed(line, rule))
    };
    let snippet = |file: &str, line: usize| {
        sources
            .get(file)
            .map(|s| snippet_at(s, line))
            .unwrap_or_default()
    };

    let mut stats = SemanticStats::default();
    let mut out = Vec::new();

    // ---- Roots: public entry points in the API-surface paths. ----
    let is_root_name = |name: &str| {
        config
            .root_prefixes
            .iter()
            .any(|p| name.starts_with(p.as_str()))
            || config
                .root_suffixes
                .iter()
                .any(|s| name.ends_with(s.as_str()))
            || config.root_exact.iter().any(|e| e == name)
    };
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.is_pub && path_matches(&n.file, &config.api_root_paths) && is_root_name(&n.name)
        })
        .map(|(id, _)| id)
        .collect();
    let mut root_names: Vec<String> = roots
        .iter()
        .map(|&id| graph.nodes[id].display_name())
        .collect();
    root_names.sort();
    root_names.dedup();
    stats.root_names = root_names;

    // ---- Charge lines per file (direct Ticker charge calls). ----
    let mut charge_lines: HashMap<&str, HashSet<usize>> = HashMap::new();
    for f in &sem_files {
        let set: HashSet<usize> = f
            .scanned
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.in_test && charge_on_line(&l.code, &config.charge_methods))
            .map(|(idx, _)| idx + 1)
            .collect();
        if !set.is_empty() {
            charge_lines.insert(f.rel.as_str(), set);
        }
    }
    let charging =
        graph.charging_set(|file, line| charge_lines.get(file).is_some_and(|s| s.contains(&line)));

    // ---- R8: reachable loops in solver paths must charge the budget. ----
    let parents_all = graph.reachable(&roots);
    stats.reachable_fns = parents_all.iter().filter(|p| p.is_some()).count();
    for (id, node) in graph.nodes.iter().enumerate() {
        if parents_all[id].is_none() || !path_matches(&node.file, &config.solver_loop_paths) {
            continue;
        }
        for lp in &node.loops {
            stats.loops_checked += 1;
            if allowed(&node.file, lp.line, Rule::UnbudgetedLoop) {
                continue;
            }
            let direct = charge_lines
                .get(node.file.as_str())
                .is_some_and(|s| (lp.body.start..=lp.body.end).any(|l| s.contains(&l)));
            let via_call = graph.edges[id]
                .iter()
                .any(|e| lp.body.contains(e.line) && charging[e.to]);
            if !direct && !via_call {
                let chain = graph.chain_to(&parents_all, id);
                out.push(Violation {
                    rule: Rule::UnbudgetedLoop,
                    path: node.file.clone(),
                    line: lp.line,
                    message: format!(
                        "`{}` loop in `{}` (reachable via {chain}) never charges the budget: \
                         no `Ticker` charge call in its body and no call to a charging fn; \
                         an exhausted budget cannot cancel or checkpoint this loop — charge \
                         per iteration or add `// lb-lint: allow(unbudgeted-loop) -- reason`",
                        lp.kind,
                        node.display_name()
                    ),
                    snippet: snippet(&node.file, lp.line),
                });
            }
        }
    }

    // ---- R11–R13: per-function dataflow + summary propagation. ----
    let flows: Vec<FileFlow> = sem_files
        .iter()
        .map(|f| dataflow::analyze(&f.scanned, &f.parsed, config))
        .collect();

    // Functions that charge `max_intermediate`, closed over callers.
    let mut icharge_lines: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (fi, f) in sem_files.iter().enumerate() {
        let set: HashSet<usize> = flows[fi]
            .fns
            .iter()
            .flat_map(|ff| ff.charge_lines.iter().copied())
            .collect();
        if !set.is_empty() {
            icharge_lines.insert(f.rel.as_str(), set);
        }
    }
    let icharging =
        graph.charging_set(|file, line| icharge_lines.get(file).is_some_and(|s| s.contains(&line)));

    // Node lookup for dataflow summaries: (file, fn line, name) → node id.
    let mut node_at: HashMap<(&str, usize, &str), usize> = HashMap::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        node_at.insert((n.file.as_str(), n.line, n.name.as_str()), id);
    }

    // Workspace `Result`-returning fn names, bucketed like graph
    // resolution (free / method / type-qualified).
    let mut free_result: HashSet<&str> = HashSet::new();
    let mut method_result: HashSet<&str> = HashSet::new();
    let mut qual_result: HashSet<(&str, &str)> = HashSet::new();
    let mut qualifiers: HashSet<&str> = HashSet::new();
    for flow in &flows {
        for ff in &flow.fns {
            match &ff.qualifier {
                Some(q) => {
                    qualifiers.insert(q.as_str());
                    if ff.returns_result {
                        method_result.insert(ff.name.as_str());
                        qual_result.insert((q.as_str(), ff.name.as_str()));
                    }
                }
                None => {
                    if ff.returns_result {
                        free_result.insert(ff.name.as_str());
                    }
                }
            }
        }
    }
    let callee_returns_result = |c: &dataflow::UnusedResultCandidate| {
        if c.is_method {
            return method_result.contains(c.callee.as_str());
        }
        match &c.callee_qualifier {
            Some(q) if qualifiers.contains(q.as_str()) => {
                qual_result.contains(&(q.as_str(), c.callee.as_str()))
            }
            Some(q) if q.chars().next().is_some_and(char::is_lowercase) => {
                free_result.contains(c.callee.as_str())
            }
            Some(_) => false, // unknown std/external type
            None => free_result.contains(c.callee.as_str()),
        }
    };

    for (fi, f) in sem_files.iter().enumerate() {
        let flow = &flows[fi];
        let rel = f.rel.as_str();
        let df = stats
            .dataflow
            .entry(crate_of(rel).unwrap_or("workspace").to_string())
            .or_default();
        let in_state_paths = path_matches(rel, &config.state_struct_paths);
        if in_state_paths {
            df.state_structs += flow.structs;
        }
        for ff in &flow.fns {
            df.collection_bindings += ff.bindings.iter().filter(|b| b.is_collection).count();
            df.result_sites += usize::from(ff.returns_result)
                + ff.wildcard_lets.len()
                + ff.ok_discards.len()
                + ff.unused_candidates.len();
        }

        // R11: loop-carried growth in budget-reachable solver loops.
        if path_matches(rel, &config.solver_loop_paths) {
            for ff in &flow.fns {
                let Some(&id) = node_at.get(&(rel, ff.line, ff.name.as_str())) else {
                    continue;
                };
                if parents_all[id].is_none() {
                    continue;
                }
                let fn_charges =
                    !ff.charge_lines.is_empty() || graph.edges[id].iter().any(|e| icharging[e.to]);
                for g in ff.grows.iter().filter(|g| g.carried) {
                    let Some(loop_line) = g.loop_line else {
                        continue;
                    };
                    if fn_charges || allowed(rel, g.line, Rule::UnboundedGrowth) {
                        continue;
                    }
                    let chain = graph.chain_to(&parents_all, id);
                    out.push(Violation {
                        rule: Rule::UnboundedGrowth,
                        path: rel.to_string(),
                        line: g.line,
                        message: format!(
                            "`{}.{}(..)` grows loop-carried state in the budget-reachable \
                             loop at line {loop_line} (via {chain}) but `{}` never charges \
                             `RunStats.max_intermediate`; record the frontier size with \
                             `ticker.record_intermediate(..)` or state the bound with \
                             `// lb-lint: allow(unbounded-growth) -- reason`",
                            g.receiver,
                            g.method,
                            ff.display_name()
                        ),
                        snippet: snippet(rel, g.line),
                    });
                }
            }
        }

        // R12: swallowed `Result`s in library code.
        if path_matches(rel, &config.result_checked_paths) {
            for ff in &flow.fns {
                for &line in &ff.wildcard_lets {
                    if allowed(rel, line, Rule::SwallowedResult) {
                        continue;
                    }
                    out.push(Violation {
                        rule: Rule::SwallowedResult,
                        path: rel.to_string(),
                        line,
                        message: format!(
                            "`let _ =` in `{}` discards a value unseen; if the discard is \
                             deliberate, state the invariant with \
                             `// lb-lint: allow(swallowed-result) -- reason`",
                            ff.display_name()
                        ),
                        snippet: snippet(rel, line),
                    });
                }
                for &line in &ff.ok_discards {
                    if allowed(rel, line, Rule::SwallowedResult) {
                        continue;
                    }
                    out.push(Violation {
                        rule: Rule::SwallowedResult,
                        path: rel.to_string(),
                        line,
                        message: format!(
                            "statement-final `.ok();` in `{}` swallows an error; handle it, \
                             propagate it, or add \
                             `// lb-lint: allow(swallowed-result) -- reason`",
                            ff.display_name()
                        ),
                        snippet: snippet(rel, line),
                    });
                }
                for c in &ff.unused_candidates {
                    if c.used_later
                        || !callee_returns_result(c)
                        || allowed(rel, c.line, Rule::SwallowedResult)
                    {
                        continue;
                    }
                    out.push(Violation {
                        rule: Rule::SwallowedResult,
                        path: rel.to_string(),
                        line: c.line,
                        message: format!(
                            "`{}` binds the `Result` of `{}` but never reads it; check it, \
                             propagate it, or add \
                             `// lb-lint: allow(swallowed-result) -- reason`",
                            c.name, c.callee
                        ),
                        snippet: snippet(rel, c.line),
                    });
                }
            }
        }

        // R13: Send-hostile state in checkpoint-serializable solver files.
        if in_state_paths {
            for h in &flow.hostile_fields {
                if allowed(rel, h.line, Rule::SendHostileState) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::SendHostileState,
                    path: rel.to_string(),
                    line: h.line,
                    message: format!(
                        "field `{}.{}` holds `{}`, which is not `Send`-clean; checkpoint \
                         state must be stealable across threads without `unsafe impl Send` — \
                         use owned data, or justify with \
                         `// lb-lint: allow(send-hostile-state) -- reason`",
                        h.struct_name, h.field, h.marker
                    ),
                    snippet: snippet(rel, h.line),
                });
            }
            for &line in &flow.thread_local_lines {
                if allowed(rel, line, Rule::SendHostileState) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::SendHostileState,
                    path: rel.to_string(),
                    line,
                    message: "`thread_local!` state is invisible to checkpoints and pins \
                              behavior to the spawning thread; pass the state explicitly, or \
                              justify with `// lb-lint: allow(send-hostile-state) -- reason`"
                        .to_string(),
                    snippet: snippet(rel, line),
                });
            }
        }
    }

    // ---- R14–R16: effect summaries + interprocedural propagation. ----
    let file_effects = effect_summaries(&sem_files, config);
    let rels: Vec<String> = sem_files.iter().map(|f| f.rel.clone()).collect();
    for (fi, fe) in file_effects.iter().enumerate() {
        let agg = stats
            .effects
            .entry(crate_of(&rels[fi]).unwrap_or("workspace").to_string())
            .or_default();
        effects::tally(fe, agg);
    }
    let (r_eff, _order) = effects::check(&graph, &rels, &file_effects, config, &allowed, &snippet);
    out.extend(r_eff);

    (out, stats)
}

/// Runs the per-file effect extraction over the effect-scope files; files
/// outside the scope (and the blessed recovery module, whose whole point
/// is to contain the recovery idiom) carry an empty summary.
fn effect_summaries(sem_files: &[SemFile], config: &Config) -> Vec<FileEffects> {
    sem_files
        .iter()
        .map(|f| {
            if path_matches(&f.rel, &config.effect_paths)
                && !path_matches(&f.rel, &config.blessed_recovery_paths)
            {
                effects::analyze(&f.scanned, &f.source, &f.parsed, config)
            } else {
                FileEffects::default()
            }
        })
        .collect()
}

/// Prepares library files (scan + allows + item parse), skipping excluded
/// paths and non-library file kinds.
fn prepare(files: &[(String, String)], config: &Config) -> Vec<SemFile> {
    files
        .iter()
        .filter(|(rel, _)| is_library(rel) && !path_matches(rel, &config.semantic_exclude_paths))
        .map(|(rel, source)| {
            let scanned = scan(source);
            let allows = parse_allows(&scanned);
            let parsed = items::parse(&scanned);
            SemFile {
                rel: rel.clone(),
                source: source.clone(),
                scanned,
                allows,
                parsed,
            }
        })
        .collect()
}

fn build_graph(sem_files: &[SemFile]) -> CallGraph {
    let parsed: Vec<(String, ParsedFile)> = sem_files
        .iter()
        .map(|f| (f.rel.clone(), f.parsed.clone()))
        .collect();
    CallGraph::build(&parsed)
}

/// Builds the call graph for `lb-lint graph` (same scope as the semantic
/// rules) and returns its deterministic dump.
pub fn graph_dump(files: &[(String, String)], config: &Config) -> String {
    build_graph(&prepare(files, config)).dump()
}

/// Deterministic dump of the per-function dataflow summaries (for
/// `lb-lint dataflow`): one block per function in (file, line) order, then
/// the struct/thread-local findings and a per-crate coverage footer.
pub fn dataflow_dump(files: &[(String, String)], config: &Config) -> String {
    let mut sem_files = prepare(files, config);
    // The dump is an artifact diffed across CI runs: key it by path so the
    // output is independent of directory-walk order.
    sem_files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let mut out = String::new();
    let mut per_crate: BTreeMap<String, CrateDataflow> = BTreeMap::new();
    for f in &sem_files {
        let flow = dataflow::analyze(&f.scanned, &f.parsed, config);
        let df = per_crate
            .entry(crate_of(&f.rel).unwrap_or("workspace").to_string())
            .or_default();
        if path_matches(&f.rel, &config.state_struct_paths) {
            df.state_structs += flow.structs;
        }
        for ff in &flow.fns {
            let collections = ff.bindings.iter().filter(|b| b.is_collection).count();
            df.collection_bindings += collections;
            df.result_sites += usize::from(ff.returns_result)
                + ff.wildcard_lets.len()
                + ff.ok_discards.len()
                + ff.unused_candidates.len();
            out.push_str(&format!(
                "fn {}:{} {} result={} charges={} bindings={}/{}\n",
                f.rel,
                ff.line,
                ff.display_name(),
                ff.returns_result,
                ff.charge_lines.len(),
                collections,
                ff.bindings.len(),
            ));
            for g in &ff.grows {
                out.push_str(&format!(
                    "  grow {}.{} at {} carried={} loop={}\n",
                    g.receiver,
                    g.method,
                    g.line,
                    g.carried,
                    g.loop_line.map_or("-".to_string(), |l| l.to_string()),
                ));
            }
            for &l in &ff.wildcard_lets {
                out.push_str(&format!("  discard wildcard-let at {l}\n"));
            }
            for &l in &ff.ok_discards {
                out.push_str(&format!("  discard ok at {l}\n"));
            }
            for c in &ff.unused_candidates {
                if !c.used_later {
                    out.push_str(&format!(
                        "  discard unused `{}` = {}(..) at {}\n",
                        c.name, c.callee, c.line
                    ));
                }
            }
        }
        for h in &flow.hostile_fields {
            out.push_str(&format!(
                "hostile {}:{} {}.{} {}\n",
                f.rel, h.line, h.struct_name, h.field, h.marker
            ));
        }
        for &l in &flow.thread_local_lines {
            out.push_str(&format!("thread-local {}:{}\n", f.rel, l));
        }
    }
    for (name, df) in &per_crate {
        out.push_str(&format!(
            "crate {name} collection_bindings={} result_sites={} state_structs={}\n",
            df.collection_bindings, df.result_sites, df.state_structs
        ));
    }
    out
}

/// Deterministic dump of the per-function effect summaries (for
/// `lb-lint effects`): one block per effectful function in (file, line)
/// order, the poisoned-lock recovery sites, the global lock-order edges,
/// and a per-crate coverage footer. Diffed as a CI artifact, so the
/// output is keyed by path — independent of directory-walk order.
pub fn effects_dump(files: &[(String, String)], config: &Config) -> String {
    let mut sem_files = prepare(files, config);
    sem_files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let graph = build_graph(&sem_files);
    let file_effects = effect_summaries(&sem_files, config);
    let rels: Vec<String> = sem_files.iter().map(|f| f.rel.clone()).collect();
    let allowed = |_: &str, _: usize, _: Rule| false;
    let snip = |_: &str, _: usize| String::new();
    let (_viol, order) = effects::check(&graph, &rels, &file_effects, config, &allowed, &snip);

    let mut out = String::new();
    let mut per_crate: BTreeMap<String, CrateEffects> = BTreeMap::new();
    for (fi, f) in sem_files.iter().enumerate() {
        let fe = &file_effects[fi];
        effects::tally(
            fe,
            per_crate
                .entry(crate_of(&f.rel).unwrap_or("workspace").to_string())
                .or_default(),
        );
        for fx in &fe.fns {
            if !fx.has_effects() {
                continue;
            }
            out.push_str(&format!("fn {}:{} {}\n", f.rel, fx.line, fx.display_name()));
            for l in &fx.locks {
                out.push_str(&format!(
                    "  lock {} at {}..{} bound={}\n",
                    l.name, l.line, l.end_line, l.bound
                ));
            }
            for s in &fx.blocking {
                out.push_str(&format!("  blocking {} at {}\n", s.what, s.line));
            }
            for s in &fx.durable {
                out.push_str(&format!("  durable {} at {}\n", s.what, s.line));
            }
            for s in &fx.guards {
                out.push_str(&format!("  guard {} at {}\n", s.what, s.line));
            }
            for &l in &fx.acks {
                out.push_str(&format!("  ack at {l}\n"));
            }
            for s in &fx.requeues {
                out.push_str(&format!("  requeue {} at {}\n", s.what, s.line));
            }
        }
        for &l in &fe.recovery_lines {
            out.push_str(&format!("recovery {}:{}\n", f.rel, l));
        }
    }
    for e in &order {
        out.push_str(&format!(
            "order {} -> {} at {}:{}\n",
            e.from, e.to, e.file, e.line
        ));
    }
    for (name, ce) in &per_crate {
        out.push_str(&format!(
            "crate {name} lock_sites={} durability_sites={} blocking_sites={} \
             guard_sites={} ack_sites={} requeue_sites={}\n",
            ce.lock_sites,
            ce.durability_sites,
            ce.blocking_sites,
            ce.guard_sites,
            ce.ack_sites,
            ce.requeue_sites
        ));
    }
    out
}

/// Whether a masked code line contains a direct budget charge call. The
/// `tuples` method name is shared with non-charging accessors, so a bare
/// `.tuples()` (no argument) does not count.
fn charge_on_line(code: &str, methods: &[String]) -> bool {
    methods.iter().any(|m| {
        let needle = format!(".{m}(");
        let mut s = 0;
        while let Some(p) = code[s..].find(&needle) {
            let after = s + p + needle.len();
            if m != "tuples" || !code[after..].trim_start().starts_with(')') {
                return true;
            }
            s = after;
        }
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config() -> Config {
        Config {
            api_root_paths: vec!["crates/s/src/".into()],
            solver_loop_paths: vec!["crates/s/src/".into()],
            ..Config::default()
        }
    }

    fn run(files: &[(&str, &str)], config: &Config) -> (Vec<Violation>, SemanticStats) {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        check(&owned, config)
    }

    #[test]
    fn r8_flags_reachable_unbudgeted_loop() {
        let src = "\
pub fn solve(n: u32) -> u32 {
    let mut acc = 0;
    while acc < n {
        acc += 1;
    }
    acc
}
";
        let (v, stats) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        assert_eq!(stats.loops_checked, 1);
        assert!(v
            .iter()
            .any(|v| v.rule == Rule::UnbudgetedLoop && v.line == 3));
    }

    #[test]
    fn r8_accepts_direct_and_transitive_charges() {
        let src = "\
pub fn solve(t: &mut Ticker) -> u32 {
    loop {
        t.node();
    }
}
pub fn solve_outer(t: &mut Ticker) -> u32 {
    loop {
        step(t);
    }
}
fn step(t: &mut Ticker) {
    t.backtrack();
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        assert!(!v.iter().any(|v| v.rule == Rule::UnbudgetedLoop), "{v:?}");
    }

    #[test]
    fn r8_unreachable_loops_are_exempt() {
        let src = "\
fn private_helper(n: u32) -> u32 {
    let mut acc = 0;
    while acc < n { acc += 1; }
    acc
}
";
        let (v, stats) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        assert_eq!(stats.loops_checked, 0);
        assert!(v.iter().all(|v| v.rule != Rule::UnbudgetedLoop));
    }

    #[test]
    fn r8_allow_suppresses() {
        let src = "\
pub fn solve(n: u32) -> u32 {
    // lb-lint: allow(unbudgeted-loop) -- bounded by u8 domain
    while n > 0 { }
    n
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        assert!(v.iter().all(|v| v.rule != Rule::UnbudgetedLoop));
    }

    #[test]
    fn charge_line_detection() {
        let methods: Vec<String> = ["node", "tuples"].iter().map(|s| s.to_string()).collect();
        assert!(charge_on_line("t.node()?;", &methods));
        assert!(charge_on_line("ticker.tuples(n as u64)?;", &methods));
        // A zero-arg `.tuples()` is a relation accessor, not a charge.
        assert!(!charge_on_line("for t in rel.tuples() {", &methods));
        assert!(!charge_on_line("let x = stats.nodes;", &methods));
    }
}
