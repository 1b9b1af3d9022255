//! The call-graph semantic rules R8–R10 and the R10 baseline workflow.
//!
//! Unlike the token-level rules in [`crate::rules`], these passes see the
//! whole workspace at once: they parse every library file into `fn` items
//! ([`crate::items`]), build a name-resolved call graph ([`crate::graph`]),
//! and check three invariants that PRs 2–4 previously enforced only
//! dynamically (via lb-chaos fuzzing and property tests):
//!
//! * **R8 `unbudgeted-loop`** — every `loop`/`while`/`for` in the solver
//!   crates that is transitively reachable from a public entry point must
//!   charge the `Budget`, either by a direct `Ticker` charge call in its
//!   body or by calling (transitively) a function that charges.
//! * **R9 `panic-reachability`** — no panic site may be transitively
//!   reachable from the panic-free public API surface; every justified site
//!   must carry `allow(panic-reachability)` (an R1 `allow(no-panic)` is a
//!   *local* justification and deliberately does not satisfy R9 — the
//!   reachability proof is a separate, stronger obligation). An allow on a
//!   call line cuts that line's edges instead (per-edge suppression).
//! * **R10 `checkpoint-schema-drift`** — the token-stream fingerprint of
//!   each checkpoint family's encode/decode bodies must match the committed
//!   baseline unless the family's payload-version const was bumped; either
//!   way the baseline is re-pinned with `lb-lint --write-baseline`.
//!
//! PR 6 adds the dataflow rules on top of the same graph, fed by the
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
use crate::items::{self, ParsedFile, Span};
use crate::lexer::{scan, ScannedFile};
use crate::rules::{
    contains_token, is_library, parse_allows, snippet_at, unchecked_index_in, Allows,
    CheckpointSpec, Config, Rule, Violation,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;

/// Coverage statistics from a semantic run, for the dogfood self-tests and
/// the CLI summary.
#[derive(Debug, Clone, Default)]
pub struct SemanticStats {
    /// Display names of the reachability roots, sorted and deduplicated.
    pub root_names: Vec<String>,
    /// Functions reachable from the roots (before R9 edge cuts).
    pub reachable_fns: usize,
    /// Loops examined by R8 (reachable, in solver paths).
    pub loops_checked: usize,
    /// Panic sites considered by R9 (before reachability filtering).
    pub panic_sites: usize,
    /// Checkpoint families checked by R10.
    pub families_checked: usize,
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

/// Runs R8–R10 over the walked workspace files. `files` holds
/// `(workspace-relative path, source)` pairs in sorted path order; `root`
/// is only used to read the R10 baseline file.
pub fn check(
    root: &Path,
    files: &[(String, String)],
    config: &Config,
) -> (Vec<Violation>, SemanticStats) {
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
    let parents_all = graph.reachable(&roots, |_, _| false);
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

    // ---- R9: panic sites reachable from the panic-free API surface. ----
    // Sites: the R1 panic tokens everywhere in library code, plus unchecked
    // indexing in the R7 hot-path files. An `allow(panic-reachability)` on
    // the site line discharges the site; on a call line it cuts the edges.
    let mut sites: Vec<(usize, usize, &'static str)> = Vec::new(); // (file idx, line, what)
    for (fi, f) in sem_files.iter().enumerate() {
        let indexed = path_matches(&f.rel, &config.index_checked_paths);
        for (idx, line) in f.scanned.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let lineno = idx + 1;
            for (needle, what) in [
                (".unwrap()", "`unwrap()`"),
                (".expect(", "`expect()`"),
                ("panic!", "`panic!`"),
                ("todo!", "`todo!`"),
                ("unreachable!", "`unreachable!`"),
            ] {
                if contains_token(&line.code, needle) {
                    sites.push((fi, lineno, what));
                }
            }
            if indexed && unchecked_index_in(&line.code).is_some() {
                sites.push((fi, lineno, "unchecked `[i]` indexing"));
            }
        }
    }
    stats.panic_sites = sites.len();
    let parents_cut = graph.reachable(&roots, |caller, line| {
        allowed(&caller.file, line, Rule::PanicReachability)
    });
    // Innermost-fn attribution: per file, the node ids with bodies.
    let mut file_nodes: HashMap<&str, Vec<(Span, usize)>> = HashMap::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if let Some(body) = n.body {
            file_nodes
                .entry(n.file.as_str())
                .or_default()
                .push((body, id));
        }
    }
    for (fi, lineno, what) in sites {
        let f = &sem_files[fi];
        if allowed(&f.rel, lineno, Rule::PanicReachability) {
            continue;
        }
        let Some(&(_, id)) = file_nodes.get(f.rel.as_str()).and_then(|spans| {
            spans
                .iter()
                .filter(|(s, _)| s.contains(lineno))
                .min_by_key(|(s, _)| s.len())
        }) else {
            continue; // Site outside any fn body (const/static init).
        };
        if parents_cut[id].is_none() {
            continue;
        }
        let chain = graph.chain_to(&parents_cut, id);
        out.push(Violation {
            rule: Rule::PanicReachability,
            path: f.rel.clone(),
            line: lineno,
            message: format!(
                "{what} is reachable from the panic-free public API (via {chain}); \
                 refactor to a typed error, or state the invariant with \
                 `// lb-lint: allow(panic-reachability) -- reason` on this line \
                 (or on a call line along the chain to cut that edge)"
            ),
            snippet: snippet(&f.rel, lineno),
        });
    }

    // ---- R10: checkpoint schema fingerprints vs the committed baseline. ----
    let (r10, families) = check_schema_drift(root, &sem_files, config, &allowed, &snippet);
    stats.families_checked = families;
    out.extend(r10);

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

// ---------------------------------------------------------------------------
// R10: fingerprints and the baseline file.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprints the bodies of the named functions in a scanned file: an
/// FNV-1a-64 hash over their token streams (masked code, so comments,
/// whitespace, and string-literal *contents* do not affect it). Returns the
/// hash and the set of names actually found with a body.
pub fn fingerprint_fns(file: &ScannedFile, names: &[String]) -> (u64, Vec<String>) {
    let parsed = items::parse(file);
    let toks = items::tokenize(file);
    let mut spans: Vec<Span> = Vec::new();
    let mut found: Vec<String> = Vec::new();
    for f in &parsed.fns {
        if names.contains(&f.name) {
            if let Some(body) = f.body {
                spans.push(body);
                if !found.contains(&f.name) {
                    found.push(f.name.clone());
                }
            }
        }
    }
    spans.sort_by_key(|s| (s.start, s.end));
    let mut h = FNV_OFFSET;
    for t in &toks {
        if spans.iter().any(|s| s.contains(t.line)) {
            match &t.kind {
                items::TokKind::Word(w) => h = fnv1a_feed(h, w.as_bytes()),
                items::TokKind::Punct(c) => {
                    let mut buf = [0u8; 4];
                    h = fnv1a_feed(h, c.encode_utf8(&mut buf).as_bytes());
                }
            }
            h = fnv1a_feed(h, &[0x1f]);
        }
    }
    found.sort();
    (h, found)
}

/// Locates `const <name>: u16 = N;` in a scanned file, returning `(N, line)`.
fn find_version_const(file: &ScannedFile, name: &str) -> Option<(u64, usize)> {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !contains_token(&line.code, name) {
            continue;
        }
        let code = &line.code;
        let Some(pos) = code.find(name) else { continue };
        let Some(eq) = code[pos..].find('=') else {
            continue;
        };
        let digits: String = code[pos + eq + 1..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(v) = digits.parse::<u64>() {
            return Some((v, idx + 1));
        }
    }
    None
}

/// One baseline entry: family → (payload version, fingerprint).
type Baseline = BTreeMap<String, (u64, u64)>;

fn parse_baseline(text: &str) -> Baseline {
    let mut out = Baseline::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(family), Some(ver), Some(fp)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if let (Ok(ver), Ok(fp)) = (ver.parse::<u64>(), u64::from_str_radix(fp, 16)) {
            out.insert(family.to_string(), (ver, fp));
        }
    }
    out
}

/// Per-family schema state: `(version, fingerprint, version-const line)` on
/// success, a description of why the spec cannot be fingerprinted otherwise.
type SchemaState = Result<(u64, u64, usize), String>;

/// Computes the current per-family schema table.
fn current_schema(
    sem_files: &[SemFile],
    specs: &[CheckpointSpec],
) -> Vec<(CheckpointSpec, SchemaState)> {
    specs
        .iter()
        .map(|spec| {
            let entry = match sem_files.iter().find(|f| f.rel == spec.file) {
                None => Err(format!("file `{}` not found in the workspace", spec.file)),
                Some(f) => {
                    let (fp, found) = fingerprint_fns(&f.scanned, &spec.fns);
                    let missing: Vec<&String> =
                        spec.fns.iter().filter(|n| !found.contains(n)).collect();
                    if !missing.is_empty() {
                        Err(format!(
                            "could not locate fn {} in `{}`",
                            missing
                                .iter()
                                .map(|n| format!("`{n}`"))
                                .collect::<Vec<_>>()
                                .join(", "),
                            spec.file
                        ))
                    } else {
                        match find_version_const(&f.scanned, &spec.version_const) {
                            None => Err(format!(
                                "could not locate `const {}` in `{}`",
                                spec.version_const, spec.file
                            )),
                            Some((ver, line)) => Ok((ver, fp, line)),
                        }
                    }
                }
            };
            (spec.clone(), entry)
        })
        .collect()
}

fn check_schema_drift(
    root: &Path,
    sem_files: &[SemFile],
    config: &Config,
    allowed: &dyn Fn(&str, usize, Rule) -> bool,
    snippet: &dyn Fn(&str, usize) -> String,
) -> (Vec<Violation>, usize) {
    let mut out = Vec::new();
    if config.checkpoint_specs.is_empty() {
        return (out, 0);
    }
    let current = current_schema(sem_files, &config.checkpoint_specs);
    let baseline_path = root.join(&config.baseline_file);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => parse_baseline(&text),
        Err(_) => {
            out.push(Violation {
                rule: Rule::CheckpointSchemaDrift,
                path: config.baseline_file.clone(),
                line: 1,
                message: format!(
                    "checkpoint-schema baseline `{}` is missing; generate it with \
                     `lb-lint --write-baseline` and commit it",
                    config.baseline_file
                ),
                snippet: String::new(),
            });
            return (out, current.len());
        }
    };
    for (spec, entry) in &current {
        match entry {
            Err(msg) => out.push(Violation {
                rule: Rule::CheckpointSchemaDrift,
                path: spec.file.clone(),
                line: 1,
                message: format!(
                    "cannot fingerprint checkpoint family `{}`: {msg}",
                    spec.family
                ),
                snippet: String::new(),
            }),
            Ok((ver, fp, line)) => {
                if allowed(&spec.file, *line, Rule::CheckpointSchemaDrift) {
                    continue;
                }
                match baseline.get(&spec.family) {
                    None => out.push(Violation {
                        rule: Rule::CheckpointSchemaDrift,
                        path: spec.file.clone(),
                        line: *line,
                        message: format!(
                            "checkpoint family `{}` has no baseline entry; re-pin with \
                             `lb-lint --write-baseline`",
                            spec.family
                        ),
                        snippet: snippet(&spec.file, *line),
                    }),
                    Some((base_ver, base_fp)) => {
                        if fp != base_fp && ver == base_ver {
                            out.push(Violation {
                                rule: Rule::CheckpointSchemaDrift,
                                path: spec.file.clone(),
                                line: *line,
                                message: format!(
                                    "checkpoint family `{}` encode/decode bodies changed \
                                     (fingerprint {fp:016x} vs baseline {base_fp:016x}) but \
                                     `{}` is still {ver}; bump the payload version so stale \
                                     checkpoints are rejected, then re-pin with \
                                     `lb-lint --write-baseline`",
                                    spec.family, spec.version_const
                                ),
                                snippet: snippet(&spec.file, *line),
                            });
                        } else if ver != base_ver || fp != base_fp {
                            out.push(Violation {
                                rule: Rule::CheckpointSchemaDrift,
                                path: spec.file.clone(),
                                line: *line,
                                message: format!(
                                    "checkpoint family `{}` payload version is {ver} but the \
                                     baseline records {base_ver}; re-pin with \
                                     `lb-lint --write-baseline`",
                                    spec.family
                                ),
                                snippet: snippet(&spec.file, *line),
                            });
                        }
                    }
                }
            }
        }
    }
    (out, current.len())
}

/// Renders the current schema table as the baseline-file content.
/// Errors if any family cannot be fingerprinted.
pub fn render_baseline(files: &[(String, String)], config: &Config) -> io::Result<String> {
    let sem_files = prepare(files, config);
    let current = current_schema(&sem_files, &config.checkpoint_specs);
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for (spec, entry) in current {
        match entry {
            Ok((ver, fp, _)) => rows.push((spec.family, ver, fp)),
            Err(msg) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cannot baseline family `{}`: {msg}", spec.family),
                ))
            }
        }
    }
    rows.sort();
    let mut out = String::from(
        "# lb-lint checkpoint-schema baseline (rule R10).\n\
         # One line per family: <family> <payload-version> <fnv1a-64 fingerprint>.\n\
         # Regenerate with `lb-lint --write-baseline` after bumping a\n\
         # CHECKPOINT_PAYLOAD_VERSION const alongside an encode/decode change.\n",
    );
    for (family, ver, fp) in rows {
        out.push_str(&format!("{family} {ver} {fp:016x}\n"));
    }
    Ok(out)
}

/// Computes and writes the baseline file under `root`, returning its content.
pub fn write_baseline(
    root: &Path,
    files: &[(String, String)],
    config: &Config,
) -> io::Result<String> {
    let content = render_baseline(files, config)?;
    let path = root.join(&config.baseline_file);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, &content)?;
    Ok(content)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config() -> Config {
        Config {
            api_root_paths: vec!["crates/s/src/".into()],
            solver_loop_paths: vec!["crates/s/src/".into()],
            index_checked_paths: vec!["crates/s/src/hot.rs".into()],
            checkpoint_specs: Vec::new(),
            ..Config::default()
        }
    }

    fn run(files: &[(&str, &str)], config: &Config) -> (Vec<Violation>, SemanticStats) {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        check(Path::new("/nonexistent"), &owned, config)
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
    fn r9_flags_reachable_panic_with_chain() {
        let src = "\
pub fn solve(o: Option<u32>) -> u32 {
    helper(o)
}
fn helper(o: Option<u32>) -> u32 {
    o.unwrap()
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        let hit = v
            .iter()
            .find(|v| v.rule == Rule::PanicReachability)
            .expect("R9 must fire");
        assert_eq!(hit.line, 5);
        assert!(hit.message.contains("solve -> helper"), "{}", hit.message);
    }

    #[test]
    fn r9_site_allow_and_edge_cut() {
        let site_allowed = "\
pub fn solve(o: Option<u32>) -> u32 {
    o.unwrap() // lb-lint: allow(panic-reachability) -- input validated by caller
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", site_allowed)], &mini_config());
        assert!(v.iter().all(|v| v.rule != Rule::PanicReachability));

        let edge_cut = "\
pub fn solve(o: Option<u32>) -> u32 {
    helper(o) // lb-lint: allow(panic-reachability) -- helper only sees Some here
}
fn helper(o: Option<u32>) -> u32 {
    o.unwrap()
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", edge_cut)], &mini_config());
        assert!(v.iter().all(|v| v.rule != Rule::PanicReachability));
    }

    #[test]
    fn r9_unreachable_panic_is_exempt_but_r1_still_applies() {
        let src = "\
fn never_called() -> u32 {
    panic!(\"not on any public path\")
}
";
        let (v, _) = run(&[("crates/s/src/lib.rs", src)], &mini_config());
        assert!(v.iter().all(|v| v.rule != Rule::PanicReachability));
    }

    #[test]
    fn r9_counts_unchecked_index_in_hot_paths() {
        let src = "\
pub fn solve(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
";
        let (v, _) = run(&[("crates/s/src/hot.rs", src)], &mini_config());
        assert!(v.iter().any(|v| v.rule == Rule::PanicReachability));
        // The same file outside the hot-path list carries no index sites.
        let (v, _) = run(&[("crates/s/src/cold.rs", src)], &mini_config());
        assert!(v.iter().all(|v| v.rule != Rule::PanicReachability));
    }

    #[test]
    fn fingerprint_ignores_comments_and_whitespace_but_not_tokens() {
        let base = "fn encode(x: u32) -> u32 {\n    x + 1\n}\n";
        let reformatted = "fn encode(x: u32) -> u32 {\n    // a comment\n    x   + 1\n}\n";
        let changed = "fn encode(x: u32) -> u32 {\n    x + 2\n}\n";
        let names = vec!["encode".to_string()];
        let (f1, _) = fingerprint_fns(&scan(base), &names);
        let (f2, _) = fingerprint_fns(&scan(reformatted), &names);
        let (f3, _) = fingerprint_fns(&scan(changed), &names);
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
    }

    #[test]
    fn version_const_is_found() {
        let src = "pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 7;\n";
        let (v, line) =
            find_version_const(&scan(src), "CHECKPOINT_PAYLOAD_VERSION").expect("found");
        assert_eq!((v, line), (7, 1));
    }

    #[test]
    fn baseline_round_trips_through_parse() {
        let text = "# comment\nfam-a 1 00000000deadbeef\nfam-b 2 0000000000000001\n";
        let b = parse_baseline(text);
        assert_eq!(b.get("fam-a"), Some(&(1, 0xdead_beef)));
        assert_eq!(b.get("fam-b"), Some(&(2, 1)));
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
