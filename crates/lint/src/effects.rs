//! Per-function *effect summaries* over the masked token stream, feeding
//! the serve-layer concurrency and durability rules R14–R16.
//!
//! Where [`crate::dataflow`] recovers def-use structure, this pass recovers
//! *effects*: things a function does to the outside world that the serve
//! layer's invariants constrain. Four effect families are extracted per
//! function body (nested `fn` items excluded, closures attributed to the
//! enclosing function, `#[cfg(test)]` regions invisible):
//!
//! * **lock acquisitions** — calls to the configured acquisition fns
//!   (`lock_recover`, `lock_state`) or methods (`.lock()`), with the lock
//!   *identity* (the last receiver/argument-chain component:
//!   `lock_recover(&self.state)` acquires lock `state`) and a *held
//!   region*: a `let`-bound guard is held to the end of its enclosing
//!   block, terminated early only by a same-depth `drop(guard)`; an
//!   unbound guard (a temporary, `if lock_recover(&m).dead {`) is held to
//!   the end of its statement;
//! * **blocking I/O** — socket/file reads and writes, `flush`, fsync,
//!   `accept`, file renames, and the `write!`/`writeln!` macros;
//! * **durability** — spool saves, checkpoint writes, quarantines,
//!   `atomic_write`/`sync_all` (these also count as blocking for R14);
//! * **ack/requeue and timeout guards** — `"OK …"` line construction
//!   (scanned on the *raw* source, because the lexer masks string
//!   contents), scheduler requeue calls, and `set_read_timeout`/
//!   `set_write_timeout`/`set_nonblocking` calls.
//!
//! `check` then propagates the summaries interprocedurally over the PR-5
//! call graph, exactly like the PR-6 `charging_set`: per-function effect
//! sets close over callees by fixpoint, and demand sites that are not
//! discharged inside their own function walk up the (reverse) call graph
//! until a caller discharges them or a root is reached. Three rules:
//!
//! * **R14 `lock-discipline`** — the global lock-order graph (lock B
//!   acquired while A is held, including through calls) must be acyclic;
//!   no lock may be held across a blocking or durability effect (fsync
//!   latency under the scheduler lock serializes every connection); and
//!   the poisoned-lock recovery idiom (`unwrap_or_else(|e|
//!   e.into_inner())`) must live in the one blessed `sync` module.
//! * **R15 `durability-ordering`** — every ack/requeue effect must be
//!   dominated by a durability effect on every caller chain: nothing is
//!   acknowledged that a `kill -9` immediately after could lose.
//! * **R16 `unbounded-blocking`** — every blocking *socket* effect
//!   reachable from the accept-loop roots must be dominated by a timeout
//!   guard on every undischarged chain, so a silent or trickling peer can
//!   never wedge a handler thread.
//!
//! Approximations lean conservative and coarse by design: lock identity is
//! a name, not an object (two locks both named `state` in different types
//! share a node in the order graph — a collision that can only create
//! false cycles, never hide one), and a guard whose `drop` sits in a
//! nested arm is treated as held to the block end. A violation is
//! discharged by an `allow` either at the offending line or (for
//! held-across) at the acquisition line, so one invariant statement covers
//! one guard's whole region.

use crate::dataflow::{locate_fn, own_token_indices, punct_at, receiver_chain, word_at};
use crate::graph::CallGraph;
use crate::items::{self, FnItem, ParsedFile, Span, Tok};
use crate::lexer::ScannedFile;
use crate::rules::{Config, Rule, Violation};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One lock acquisition with its held region.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// The lock identity: the last receiver/argument-chain component.
    pub name: String,
    /// Acquisition line.
    pub line: usize,
    /// Last line of the held region (enclosing-block close, same-depth
    /// `drop`, or end of statement for unbound temporaries).
    pub end_line: usize,
    /// Whether the guard was bound by a `let`.
    pub bound: bool,
}

/// One non-lock effect site.
#[derive(Debug, Clone)]
pub struct EffectSite {
    /// Line of the call.
    pub line: usize,
    /// The call name (`save_record`, `fill_buf`, `writeln!` …).
    pub what: String,
}

/// Per-function effect summary.
#[derive(Debug, Clone)]
pub struct FnEffects {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub qualifier: Option<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Body line span.
    pub body: Span,
    /// Lock acquisitions, in order.
    pub locks: Vec<LockSite>,
    /// Blocking-I/O sites (socket/file reads, writes, flush, accept…).
    pub blocking: Vec<EffectSite>,
    /// Durability sites (spool saves, checkpoints, quarantine, fsync).
    pub durable: Vec<EffectSite>,
    /// Timeout-guard sites (`set_read_timeout` & friends).
    pub guards: Vec<EffectSite>,
    /// `"OK …"` ack-line construction sites (raw-source lines).
    pub acks: Vec<usize>,
    /// Requeue sites (`enqueue(..)`).
    pub requeues: Vec<EffectSite>,
}

impl FnEffects {
    /// `Qualifier::name` or plain `name` for display.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether the function has any effect worth printing.
    pub fn has_effects(&self) -> bool {
        !(self.locks.is_empty()
            && self.blocking.is_empty()
            && self.durable.is_empty()
            && self.guards.is_empty()
            && self.acks.is_empty()
            && self.requeues.is_empty())
    }
}

/// Effect results for one file.
#[derive(Debug, Clone, Default)]
pub struct FileEffects {
    /// Per-function summaries, in `fn`-keyword order.
    pub fns: Vec<FnEffects>,
    /// Lines carrying the poisoned-lock recovery idiom
    /// (`unwrap_or_else` + `into_inner` on one masked line).
    pub recovery_lines: Vec<usize>,
}

/// Per-crate effect coverage, floored by `tests/lint_gate.rs` so a
/// path-scope typo cannot silently empty R14–R16.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrateEffects {
    /// Lock acquisition sites.
    pub lock_sites: usize,
    /// Durability sites.
    pub durability_sites: usize,
    /// Blocking-I/O sites (excluding the durability ones).
    pub blocking_sites: usize,
    /// Timeout-guard sites.
    pub guard_sites: usize,
    /// Ack-line construction sites.
    pub ack_sites: usize,
    /// Requeue sites.
    pub requeue_sites: usize,
}

/// Adds one file's sites to a per-crate tally.
pub fn tally(fe: &FileEffects, agg: &mut CrateEffects) {
    for f in &fe.fns {
        agg.lock_sites += f.locks.len();
        agg.durability_sites += f.durable.len();
        agg.blocking_sites += f.blocking.len();
        agg.guard_sites += f.guards.len();
        agg.ack_sites += f.acks.len();
        agg.requeue_sites += f.requeues.len();
    }
}

/// One lock-order edge: `to` acquired while `from` was held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    /// The already-held lock.
    pub from: String,
    /// The lock acquired inside `from`'s held region.
    pub to: String,
    /// File of the inner acquisition (or the call that performs it).
    pub file: String,
    /// Line of the inner acquisition (or the call).
    pub line: usize,
}

/// Words that *parse* an `"OK "` line rather than emit one; an occurrence
/// immediately inside their call parens is not an ack site.
const ACK_PARSE_WORDS: [&str; 6] = [
    "strip_prefix",
    "starts_with",
    "trim_start_matches",
    "ends_with",
    "contains",
    "eq",
];

/// Runs the per-function effect extraction over one scanned+parsed file.
/// `source` is the raw (unmasked) text — ack lines live inside string
/// literals, which the lexer masks to spaces.
pub fn analyze(
    scanned: &ScannedFile,
    source: &str,
    parsed: &ParsedFile,
    config: &Config,
) -> FileEffects {
    let toks = items::tokenize(scanned);
    let close = items::match_braces(&toks);
    let mut out = FileEffects::default();

    for (idx, line) in scanned.lines.iter().enumerate() {
        if !line.in_test && line.code.contains("unwrap_or_else") && line.code.contains("into_inner")
        {
            out.recovery_lines.push(idx + 1);
        }
    }

    for f in &parsed.fns {
        if f.body.is_none() {
            continue;
        }
        if let Some(fe) = analyze_fn(&toks, &close, f, config) {
            out.fns.push(fe);
        }
    }
    out.fns.sort_by_key(|f| f.line);

    // Ack lines: `"OK ` on the raw source, attributed to the innermost
    // enclosing fn. A parse-shaped occurrence (`strip_prefix("OK ")`) is
    // a read of the protocol, not an acknowledgment.
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        if scanned
            .lines
            .get(idx)
            .is_none_or(|l| l.in_test || l.comment.contains("\"OK "))
        {
            continue;
        }
        if !is_ack_line(raw) {
            continue;
        }
        if let Some(fe) = out
            .fns
            .iter_mut()
            .filter(|f| f.body.contains(lineno))
            .min_by_key(|f| f.body.len())
        {
            fe.acks.push(lineno);
        }
    }
    out
}

/// Whether a raw source line constructs an `"OK …"` protocol line.
fn is_ack_line(raw: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = raw[search..].find("\"OK ") {
        let abs = search + pos;
        let before = raw[..abs].trim_end();
        let before = before.strip_suffix('(').unwrap_or(before).trim_end();
        let word_start = before
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        if !ACK_PARSE_WORDS.contains(&&before[word_start..]) {
            return true;
        }
        search = abs + 4;
    }
    false
}

/// The enclosing-`{` token index for every token in the body of `open`.
fn enclosing_opens(toks: &[Tok], close: &[usize], open: usize) -> HashMap<usize, usize> {
    let mut encl = HashMap::new();
    let mut stack = vec![open];
    for k in open + 1..close[open] {
        match punct_at(toks, k) {
            Some('{') => {
                encl.insert(k, *stack.last().unwrap_or(&open));
                stack.push(k);
            }
            Some('}') => {
                stack.pop();
                encl.insert(k, *stack.last().unwrap_or(&open));
            }
            _ => {
                encl.insert(k, *stack.last().unwrap_or(&open));
            }
        }
    }
    encl
}

/// The last identifier inside the call parens starting at token `paren`
/// (depth-1 words only): `lock_recover(&self.state)` → `state`.
fn last_arg_component(toks: &[Tok], paren: usize) -> Option<String> {
    let mut depth = 0i64;
    let mut last = None;
    for k in paren..toks.len() {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if depth == 1 {
                    if let Some(w) = word_at(toks, k) {
                        last = Some(w.to_string());
                    }
                }
            }
        }
    }
    last
}

/// Walks back from own-position `p` to the start of the statement; returns
/// whether the statement is a `let` binding and the bound name (first
/// non-`mut` word after `let`).
fn binding_before(toks: &[Tok], own: &[usize], p: usize) -> (bool, Option<String>) {
    let mut q = p;
    while q > 0 {
        q -= 1;
        match punct_at(toks, own[q]) {
            Some(';') | Some('{') | Some('}') => break,
            _ => {}
        }
        if word_at(toks, own[q]) == Some("let") {
            let mut r = q + 1;
            while word_at(toks, own.get(r).copied().unwrap_or(usize::MAX)) == Some("mut") {
                r += 1;
            }
            let name = own
                .get(r)
                .and_then(|&i| word_at(toks, i))
                .map(str::to_string);
            return (true, name);
        }
    }
    (false, None)
}

/// The held-region end line of a temporary guard (token index `i`): it
/// dies at the end of its statement (or, for an `if`/`while` condition,
/// before the branch block opens).
fn temporary_end_line(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    for k in i + 1..toks.len() {
        match punct_at(toks, k) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some(';') | Some('{') | Some('}') if depth <= 0 => return toks[k].line,
            _ => {}
        }
    }
    toks[i].line
}

/// The held-region end line of a `let`-bound guard acquired at
/// own-position `p` (token index `i`): the close of its enclosing block.
fn bound_end_line(
    toks: &[Tok],
    close: &[usize],
    encl: &HashMap<usize, usize>,
    own: &[usize],
    p: usize,
    i: usize,
    guard: Option<&str>,
) -> usize {
    let block = *encl.get(&i).unwrap_or(&0);
    let block_close = close.get(block).copied().unwrap_or(usize::MAX);
    let end_line = toks.get(block_close).map_or(toks[i].line, |t| t.line);
    // A same-depth `drop(guard)` ends the region early; a drop in a nested
    // arm does not (conservative: the guard may be live on other paths).
    if let Some(g) = guard {
        for &k in own.iter().skip(p + 1) {
            if k >= block_close {
                break;
            }
            if word_at(toks, k) == Some("drop")
                && punct_at(toks, k + 1) == Some('(')
                && word_at(toks, k + 2) == Some(g)
                && punct_at(toks, k + 3) == Some(')')
                && encl.get(&k) == Some(&block)
            {
                return toks[k].line;
            }
        }
    }
    end_line
}

fn name_in(list: &[String], w: &str) -> bool {
    list.iter().any(|m| m == w)
}

/// Extracts one function's effect summary.
fn analyze_fn(toks: &[Tok], close: &[usize], f: &FnItem, config: &Config) -> Option<FnEffects> {
    let (_kw, open) = locate_fn(toks, close, f)?;
    let own = own_token_indices(toks, close, open);
    let encl = enclosing_opens(toks, close, open);
    let mut fe = FnEffects {
        name: f.name.clone(),
        qualifier: f.qualifier.clone(),
        line: f.line,
        body: f.body?,
        locks: Vec::new(),
        blocking: Vec::new(),
        durable: Vec::new(),
        guards: Vec::new(),
        acks: Vec::new(),
        requeues: Vec::new(),
    };

    for (p, &i) in own.iter().enumerate() {
        let Some(w) = word_at(toks, i) else { continue };
        let line = toks[i].line;
        if punct_at(toks, i + 1) == Some('!')
            && punct_at(toks, i + 2) == Some('(')
            && name_in(&config.blocking_macros, w)
        {
            fe.blocking.push(EffectSite {
                line,
                what: format!("{w}!"),
            });
            continue;
        }
        if punct_at(toks, i + 1) != Some('(') {
            continue;
        }
        let after_dot = p > 0 && punct_at(toks, own[p - 1]) == Some('.');
        let lock_name = if !after_dot && name_in(&config.lock_acquire_fns, w) {
            last_arg_component(toks, i + 1)
        } else if after_dot && name_in(&config.lock_acquire_methods, w) {
            receiver_chain(toks, &own, p - 1).0.last().cloned()
        } else {
            None
        };
        if let Some(name) = lock_name {
            let (bound, guard) = binding_before(toks, &own, p);
            let end_line = if bound {
                bound_end_line(toks, close, &encl, &own, p, i, guard.as_deref())
            } else {
                temporary_end_line(toks, i)
            };
            fe.locks.push(LockSite {
                name,
                line,
                end_line,
                bound,
            });
        } else if name_in(&config.durability_methods, w) {
            fe.durable.push(EffectSite {
                line,
                what: w.to_string(),
            });
        } else if name_in(&config.blocking_methods, w) {
            fe.blocking.push(EffectSite {
                line,
                what: w.to_string(),
            });
        } else if name_in(&config.timeout_guard_methods, w) {
            fe.guards.push(EffectSite {
                line,
                what: w.to_string(),
            });
        } else if !after_dot && name_in(&config.requeue_fns, w) {
            fe.requeues.push(EffectSite {
                line,
                what: w.to_string(),
            });
        }
    }
    Some(fe)
}

// ---------------------------------------------------------------------------
// Interprocedural checking (R14–R16).
// ---------------------------------------------------------------------------

/// Runs R14–R16 over the whole workspace. `rels[fi]` / `effects[fi]` are
/// parallel to the semantic file list; files outside the effect scope carry
/// an empty [`FileEffects`]. Returns the violations and the global
/// lock-order edges (for the deterministic dump).
pub(crate) fn check<FA, FS>(
    graph: &CallGraph,
    rels: &[String],
    effects: &[FileEffects],
    config: &Config,
    allowed: &FA,
    snippet: &FS,
) -> (Vec<Violation>, Vec<OrderEdge>)
where
    FA: Fn(&str, usize, Rule) -> bool,
    FS: Fn(&str, usize) -> String,
{
    let mut out = Vec::new();

    // Node id → (file index, FnEffects index).
    let mut by_key: HashMap<(&str, usize, &str), (usize, usize)> = HashMap::new();
    for (fi, fe) in effects.iter().enumerate() {
        for (k, f) in fe.fns.iter().enumerate() {
            by_key.insert((rels[fi].as_str(), f.line, f.name.as_str()), (fi, k));
        }
    }
    let node_fx: Vec<Option<(usize, usize)>> = graph
        .nodes
        .iter()
        .map(|n| {
            by_key
                .get(&(n.file.as_str(), n.line, n.name.as_str()))
                .copied()
        })
        .collect();
    let fx = |id: usize| node_fx[id].map(|(fi, k)| (&rels[fi], &effects[fi].fns[k]));

    // Reverse edges: callee → (caller, call line).
    let mut callers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.nodes.len()];
    for (u, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            callers[e.to].push((u, e.line));
        }
    }

    // Fixpoint closure of per-fn effect sets over callees: calling `f` may
    // acquire `acquired[f]`, may block if `blocks[f]`, makes job state
    // durable if `durable_t[f]`, configures a timeout if `guards_t[f]`.
    let n = graph.nodes.len();
    let mut acquired: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut blocks: Vec<bool> = vec![false; n];
    let mut durable_t: Vec<bool> = vec![false; n];
    let mut guards_t: Vec<bool> = vec![false; n];
    for id in 0..n {
        if let Some((_, f)) = fx(id) {
            acquired[id].extend(f.locks.iter().map(|l| l.name.clone()));
            blocks[id] = !f.blocking.is_empty() || !f.durable.is_empty();
            durable_t[id] = !f.durable.is_empty();
            guards_t[id] = !f.guards.is_empty();
        }
    }
    loop {
        let mut changed = false;
        for u in 0..n {
            for e in &graph.edges[u] {
                if e.to == u {
                    continue;
                }
                if !acquired[e.to].is_empty() && !acquired[e.to].is_subset(&acquired[u]) {
                    let extra: Vec<String> = acquired[e.to].iter().cloned().collect();
                    acquired[u].extend(extra);
                    changed = true;
                }
                for mine in [&mut blocks, &mut durable_t, &mut guards_t] {
                    if mine[e.to] && !mine[u] {
                        mine[u] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- R14: held-across-blocking + lock-order edges. ----
    let mut order: Vec<OrderEdge> = Vec::new();
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        for lock in &f.locks {
            let in_region = |line: usize| line > lock.line && line <= lock.end_line;
            let lock_ok = allowed(file, lock.line, Rule::LockDiscipline);
            let mut flagged: HashSet<usize> = HashSet::new();
            for site in f.blocking.iter().chain(&f.durable) {
                if !in_region(site.line) || !flagged.insert(site.line) {
                    continue;
                }
                if lock_ok || allowed(file, site.line, Rule::LockDiscipline) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::LockDiscipline,
                    path: file.clone(),
                    line: site.line,
                    message: format!(
                        "lock `{}` (acquired at line {}) is held across blocking `{}(..)` \
                         in `{}`; every other thread contending for the lock now waits on \
                         this I/O — release the guard first, or state the invariant with \
                         `// lb-lint: allow(lock-discipline) -- reason` here or on the \
                         acquisition line",
                        lock.name,
                        lock.line,
                        site.what,
                        f.display_name()
                    ),
                    snippet: snippet(file, site.line),
                });
            }
            for e in &graph.edges[id] {
                if !in_region(e.line) || e.to == id || !blocks[e.to] {
                    continue;
                }
                if !flagged.insert(e.line) {
                    continue;
                }
                if lock_ok || allowed(file, e.line, Rule::LockDiscipline) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::LockDiscipline,
                    path: file.clone(),
                    line: e.line,
                    message: format!(
                        "lock `{}` (acquired at line {}) is held across the call to \
                         `{}`, which blocks (directly or transitively); release the \
                         guard first, or state the invariant with \
                         `// lb-lint: allow(lock-discipline) -- reason` here or on the \
                         acquisition line",
                        lock.name,
                        lock.line,
                        graph.nodes[e.to].display_name()
                    ),
                    snippet: snippet(file, e.line),
                });
            }
            // Order edges: other acquisitions inside the held region.
            for l2 in &f.locks {
                if in_region(l2.line) {
                    order.push(OrderEdge {
                        from: lock.name.clone(),
                        to: l2.name.clone(),
                        file: file.clone(),
                        line: l2.line,
                    });
                }
            }
            for e in &graph.edges[id] {
                if !in_region(e.line) || e.to == id {
                    continue;
                }
                for nm in &acquired[e.to] {
                    order.push(OrderEdge {
                        from: lock.name.clone(),
                        to: nm.clone(),
                        file: file.clone(),
                        line: e.line,
                    });
                }
            }
        }
    }
    order.sort();
    order.dedup();

    // Cycle check: an edge u→v where v already reaches u closes a cycle.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &order {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for e in &order {
        if !reaches(e.to.as_str(), e.from.as_str()) {
            continue;
        }
        if allowed(&e.file, e.line, Rule::LockDiscipline) {
            continue;
        }
        out.push(Violation {
            rule: Rule::LockDiscipline,
            path: e.file.clone(),
            line: e.line,
            message: format!(
                "acquiring lock `{}` while `{}` is held closes a lock-order cycle \
                 (`{}` is also acquired, transitively, while `{}` is held): two \
                 threads taking the locks in opposite orders deadlock — pick one \
                 global order, or state the invariant with \
                 `// lb-lint: allow(lock-discipline) -- reason`",
                e.to, e.from, e.from, e.to
            ),
            snippet: snippet(&e.file, e.line),
        });
    }

    // Poisoned-lock recovery outside the blessed helper.
    for (fi, fe) in effects.iter().enumerate() {
        let file = rels[fi].as_str();
        for &line in &fe.recovery_lines {
            if allowed(file, line, Rule::LockDiscipline) {
                continue;
            }
            out.push(Violation {
                rule: Rule::LockDiscipline,
                path: file.to_string(),
                line,
                message: "poisoned-lock recovery (`unwrap_or_else(|e| e.into_inner())`) \
                          outside the blessed `sync` helper; the consistency argument for \
                          recovering a poisoned guard lives in one audited place — route \
                          this acquisition through `lb_serve::sync`, or justify with \
                          `// lb-lint: allow(lock-discipline) -- reason`"
                    .to_string(),
                snippet: snippet(file, line),
            });
        }
    }

    // ---- R15: acks/requeues dominated by durability. ----
    let prefix_durable = |id: usize, line: usize| -> bool {
        let Some((_, f)) = fx(id) else { return false };
        f.durable.iter().any(|d| d.line <= line)
            || graph.edges[id]
                .iter()
                .any(|e| e.line <= line && e.to != id && durable_t[e.to])
    };
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        let demands: Vec<(usize, String)> = f
            .acks
            .iter()
            .map(|&l| (l, "`\"OK …\"` ack construction".to_string()))
            .chain(
                f.requeues
                    .iter()
                    .map(|r| (r.line, format!("requeue `{}(..)`", r.what))),
            )
            .collect();
        for (line, what) in demands {
            if prefix_durable(id, line) || allowed(file, line, Rule::DurabilityOrdering) {
                continue;
            }
            let Some(chain) =
                undischarged_chain(graph, &callers, id, &|c, lc| prefix_durable(c, lc), &|c| {
                    callers[c].is_empty()
                })
            else {
                continue;
            };
            out.push(Violation {
                rule: Rule::DurabilityOrdering,
                path: file.clone(),
                line,
                message: format!(
                    "{what} in `{}` is not dominated by a durability effect (chain: \
                     {chain}): a `kill -9` here acknowledges work the spool never saw — \
                     persist the record/checkpoint first, or state the invariant with \
                     `// lb-lint: allow(durability-ordering) -- reason`",
                    f.display_name()
                ),
                snippet: snippet(file, line),
            });
        }
    }

    // ---- R16: socket blocking reachable from the accept loop is timed. ----
    let is_root: Vec<bool> = graph
        .nodes
        .iter()
        .map(|nd| {
            config
                .accept_roots
                .iter()
                .any(|(p, name)| nd.file.contains(p.as_str()) && nd.name == *name)
        })
        .collect();
    let prefix_guard = |id: usize, line: usize| -> bool {
        let Some((_, f)) = fx(id) else { return false };
        f.guards.iter().any(|g| g.line <= line)
            || graph.edges[id]
                .iter()
                .any(|e| e.line <= line && e.to != id && guards_t[e.to])
    };
    for id in 0..n {
        let Some((file, f)) = fx(id) else { continue };
        if !config
            .socket_paths
            .iter()
            .any(|p| file.contains(p.as_str()))
        {
            continue;
        }
        for site in &f.blocking {
            if prefix_guard(id, site.line) || allowed(file, site.line, Rule::UnboundedBlocking) {
                continue;
            }
            let chain = if is_root[id] {
                Some(format!("`{}`", graph.nodes[id].display_name()))
            } else {
                undischarged_chain(graph, &callers, id, &|c, lc| prefix_guard(c, lc), &|c| {
                    is_root[c]
                })
            };
            let Some(chain) = chain else { continue };
            out.push(Violation {
                rule: Rule::UnboundedBlocking,
                path: file.clone(),
                line: site.line,
                message: format!(
                    "blocking `{}(..)` in `{}` is reachable from the accept loop \
                     (chain: {chain}) with no dominating `set_read_timeout`/\
                     `set_write_timeout`/`set_nonblocking`: a silent or trickling peer \
                     holds this handler thread forever — configure a deadline first, or \
                     state the invariant with \
                     `// lb-lint: allow(unbounded-blocking) -- reason`",
                    site.what,
                    f.display_name()
                ),
                snippet: snippet(file, site.line),
            });
        }
    }

    (out, order)
}

/// Depth-first walk up the reverse call graph from `start`, looking for a
/// chain of calls on which the demand is never discharged and whose top
/// satisfies `is_top`. Returns the rendered chain (top-down) if found.
fn undischarged_chain(
    graph: &CallGraph,
    callers: &[Vec<(usize, usize)>],
    start: usize,
    discharged: &dyn Fn(usize, usize) -> bool,
    is_top: &dyn Fn(usize) -> bool,
) -> Option<String> {
    fn walk(
        callers: &[Vec<(usize, usize)>],
        u: usize,
        discharged: &dyn Fn(usize, usize) -> bool,
        is_top: &dyn Fn(usize) -> bool,
        visited: &mut HashSet<usize>,
        path: &mut Vec<(usize, usize)>,
    ) -> bool {
        if is_top(u) {
            return true;
        }
        for &(c, lc) in &callers[u] {
            if discharged(c, lc) || !visited.insert(c) {
                continue;
            }
            path.push((c, lc));
            if walk(callers, c, discharged, is_top, visited, path) {
                return true;
            }
            path.pop();
        }
        false
    }
    let mut visited = HashSet::from([start]);
    let mut path = Vec::new();
    if !walk(callers, start, discharged, is_top, &mut visited, &mut path) {
        return None;
    }
    // `path` runs from the demand's fn upward; render top-down.
    let mut parts: Vec<String> = Vec::new();
    for &(c, lc) in path.iter().rev() {
        parts.push(format!(
            "`{}` ({}:{})",
            graph.nodes[c].display_name(),
            graph.nodes[c].file,
            lc
        ));
    }
    parts.push(format!("`{}`", graph.nodes[start].display_name()));
    Some(parts.join(" -> "))
}
