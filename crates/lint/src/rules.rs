//! The repo-specific lint rules and the per-file checking engine.
//!
//! Conventions rustc and clippy can check (no panics in library code, no
//! unchecked indexing in solver hot paths, no `unsafe`, no dropped
//! `Result`, no `process::exit` in libraries, no ad-hoc `Instant::now`, no
//! lossy casts in bound arithmetic) live in the workspace `[lints]` table,
//! `clippy.toml` and crate- or file-level `deny` attributes; the rules here
//! are the ones the toolchain cannot express.
//!
//! The per-file pass checks the `// lb-lint: allow(rule) -- reason` escape
//! hatch itself, on the masked lines produced by [`crate::lexer::scan`] (so
//! prose in strings is never a directive): a justification after `--` is
//! mandatory, and an allow without one, or naming an unknown rule, is
//! itself a violation.

use crate::lexer::{scan, Line, ScannedFile};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// The enforced rules. Codes are stable: R1–R7 moved to rustc/clippy, R9
/// repeated R1 and R7, R10 gave way to the executed checkpoint goldens, and
/// their codes are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R8: every loop transitively reachable from a public solver entry
    /// point must charge the budget (directly or through a callee), so no
    /// reachable loop can spin uncancellable and uncheckpointable.
    UnbudgetedLoop,
    /// R11: a loop-carried collection mutation (`push`/`insert`/`extend`/
    /// `push_back` on state that outlives the loop iteration) inside a
    /// budget-reachable loop must be charged to `RunStats.max_intermediate`
    /// (directly or through a transitively-charging callee) — otherwise the
    /// machine-independent cost claims silently stop covering space.
    UnboundedGrowth,
    /// R12: no `let _ =` / statement-final `.ok();` / unused-`Result`
    /// discard in library code — a swallowed `Result` on the panic-free
    /// surface turns a typed failure into silent wrong behavior.
    SwallowedResult,
    /// R13: no `Rc`/`RefCell`/`Cell`/raw-pointer fields (or `thread_local!`
    /// state) in checkpoint-serializable solver state — frames must stay
    /// `Send`-clean by construction so a future work-stealing executor
    /// never needs `unsafe impl Send`.
    SendHostileState,
    /// R14: lock discipline in the serve layer — the global lock-order
    /// graph (lock B acquired while A is held, including through calls)
    /// must be acyclic, no lock may be held across a blocking-I/O or fsync
    /// effect, and poisoned-lock recovery (`unwrap_or_else(|e|
    /// e.into_inner())`) must live in the one blessed `sync` helper.
    LockDiscipline,
    /// R15: durability ordering in serve code — every ack (`"OK …"` line
    /// construction) or requeue effect must be dominated by a durability
    /// effect (spool save / checkpoint / quarantine) on every caller chain;
    /// nothing is acknowledged that a `kill -9` could lose.
    DurabilityOrdering,
    /// R16: every blocking socket read/write reachable from the server
    /// accept loop must be dominated by a `set_read_timeout`/
    /// `set_write_timeout`/`set_nonblocking` call on that stream, so a
    /// silent or trickling peer can never wedge a handler thread.
    UnboundedBlocking,
    /// D0: a malformed `lb-lint:` directive (unknown rule, missing reason).
    BadDirective,
}

impl Rule {
    /// All real rules (excludes the directive pseudo-rule).
    pub const ALL: [Rule; 7] = [
        Rule::UnbudgetedLoop,
        Rule::UnboundedGrowth,
        Rule::SwallowedResult,
        Rule::SendHostileState,
        Rule::LockDiscipline,
        Rule::DurabilityOrdering,
        Rule::UnboundedBlocking,
    ];

    /// The stable kebab-case name used in `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnbudgetedLoop => "unbudgeted-loop",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::SwallowedResult => "swallowed-result",
            Rule::SendHostileState => "send-hostile-state",
            Rule::LockDiscipline => "lock-discipline",
            Rule::DurabilityOrdering => "durability-ordering",
            Rule::UnboundedBlocking => "unbounded-blocking",
            Rule::BadDirective => "bad-directive",
        }
    }

    /// The short code (R8, R11–R16, D0 for directives).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnbudgetedLoop => "R8",
            Rule::UnboundedGrowth => "R11",
            Rule::SwallowedResult => "R12",
            Rule::SendHostileState => "R13",
            Rule::LockDiscipline => "R14",
            Rule::DurabilityOrdering => "R15",
            Rule::UnboundedBlocking => "R16",
            Rule::BadDirective => "D0",
        }
    }

    /// Parses a directive rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// Whether a workspace-relative path (forward slashes) is library code.
/// Tests, benches, examples, and binaries are not, and the semantic rules
/// skip them.
pub(crate) fn is_library(rel_path: &str) -> bool {
    let p = rel_path.replace('\\', "/");
    !(p.contains("/tests/")
        || p.contains("/benches/")
        || p.starts_with("tests/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/src/bin/")
        || p.ends_with("/src/main.rs")
        || p == "src/main.rs")
}

/// One violation found by the linter.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Linter configuration: the semantic-analysis scopes (R8, R11–R16).
#[derive(Debug, Clone)]
pub struct Config {
    /// Path substrings whose public entry-point fns are the roots of R8
    /// reachability (the surface lb-chaos guarantees panic-free).
    pub api_root_paths: Vec<String>,
    /// Path substrings whose reachable loops must charge the budget (R8).
    pub solver_loop_paths: Vec<String>,
    /// Entry-point name prefixes (`solve…`, `count…`, `find_…`).
    pub root_prefixes: Vec<String>,
    /// Entry-point name suffixes (`…_resumable`, `…_join`).
    pub root_suffixes: Vec<String>,
    /// Entry-point exact names (`join`, `is_empty`, `from_dimacs`).
    pub root_exact: Vec<String>,
    /// Method names whose calls charge the budget (`Ticker` charge points).
    pub charge_methods: Vec<String>,
    /// Path substrings excluded from semantic analysis entirely (vendored
    /// std-only test-support crates are not part of the solver surface).
    pub semantic_exclude_paths: Vec<String>,
    /// Method names the dataflow pass treats as collection growth (R11).
    pub growth_methods: Vec<String>,
    /// Method names that charge `RunStats.max_intermediate`; a growth site
    /// is "charged" when one of these is called in the enclosing loop or
    /// function, directly or through a transitively-charging callee.
    pub intermediate_charge_methods: Vec<String>,
    /// Path substrings whose library files carry the `swallowed-result`
    /// rule (R12).
    pub result_checked_paths: Vec<String>,
    /// Path substrings whose structs are checkpoint-serializable solver
    /// state and must stay `Send`-clean (R13).
    pub state_struct_paths: Vec<String>,
    /// Path substrings whose files carry the effect analysis (R14–R16):
    /// the concurrent serve layer.
    pub effect_paths: Vec<String>,
    /// Free/associated fn names whose call is a lock acquisition; the lock
    /// identity is the last component of the argument chain
    /// (`lock_recover(&self.state)` acquires lock "state").
    pub lock_acquire_fns: Vec<String>,
    /// Method names whose call is a lock acquisition; the lock identity is
    /// the last receiver-chain component (`self.state.lock()` → "state").
    pub lock_acquire_methods: Vec<String>,
    /// Call names (method, free, or qualified) that block: socket/file
    /// reads and writes, fsync, accept, rename. R14 forbids holding a lock
    /// across any of these.
    pub blocking_methods: Vec<String>,
    /// Macro names (`write!`, `writeln!`) that block like their method
    /// counterparts.
    pub blocking_macros: Vec<String>,
    /// Call names that make job state durable (spool saves, checkpoint
    /// writes, quarantine). R15 demands one of these dominates every
    /// ack/requeue; R14 also treats them as blocking (they fsync).
    pub durability_methods: Vec<String>,
    /// Call names that bound how long a socket op may block; R16 demands
    /// one of these dominates every blocking socket op reachable from the
    /// accept loop.
    pub timeout_guard_methods: Vec<String>,
    /// Free fn names that re-queue a job (an R15 demand site, like acks).
    pub requeue_fns: Vec<String>,
    /// Path substrings of the files whose blocking sites are *socket*
    /// blocking (the R16 demand set); spool fsync latency is not a socket
    /// hang and is governed by R14/R15 instead.
    pub socket_paths: Vec<String>,
    /// `(path substring, fn name)` pairs naming the accept-loop roots R16
    /// walks up to.
    pub accept_roots: Vec<(String, String)>,
    /// Path substrings of the one blessed poisoned-lock recovery helper
    /// module; the `unwrap_or_else(|e| e.into_inner())` idiom anywhere
    /// else in effect scope is an R14 violation.
    pub blessed_recovery_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            api_root_paths: vec![
                "crates/sat/src/".into(),
                "crates/csp/src/".into(),
                "crates/join/src/".into(),
                "crates/graphalg/src/".into(),
                "crates/serve/src/runner.rs".into(),
                // The generic slice drivers every resumable family runs
                // through (`find_slice`, `count_slice`).
                "crates/engine/src/resumable.rs".into(),
            ],
            solver_loop_paths: vec![
                "crates/sat/src/".into(),
                "crates/csp/src/".into(),
                "crates/join/src/".into(),
                "crates/graphalg/src/".into(),
                "crates/serve/src/runner.rs".into(),
                "crates/engine/src/resumable.rs".into(),
            ],
            root_prefixes: vec!["solve".into(), "count".into(), "find_".into()],
            root_suffixes: vec!["_resumable".into(), "_join".into()],
            root_exact: vec!["join".into(), "is_empty".into(), "from_dimacs".into()],
            charge_methods: vec![
                "node".into(),
                "propagation".into(),
                "trie_advance".into(),
                "tuple".into(),
                "tuples".into(),
                "backtrack".into(),
                "absorb".into(),
            ],
            semantic_exclude_paths: vec!["vendor/".into()],
            growth_methods: vec![
                "push".into(),
                "insert".into(),
                "extend".into(),
                "push_back".into(),
            ],
            intermediate_charge_methods: vec!["record_intermediate".into()],
            result_checked_paths: vec!["crates/".into()],
            state_struct_paths: vec![
                "crates/serve/src/job.rs".into(),
                // Survival-layer shared state: scheduler entries cross the
                // worker/accept-thread boundary, and a FaultStream's two
                // cloned halves share their fault schedule — both must
                // stay Send-clean.
                "crates/serve/src/scheduler.rs".into(),
                "crates/serve/src/netfault.rs".into(),
                "crates/sat/src/dpll.rs".into(),
                "crates/csp/src/solver/backtracking.rs".into(),
                "crates/join/src/wcoj.rs".into(),
                "crates/graphalg/src/triangle.rs".into(),
                "crates/graphalg/src/clique.rs".into(),
                "crates/engine/src/".into(),
            ],
            effect_paths: vec!["crates/serve/src/".into()],
            lock_acquire_fns: vec!["lock_recover".into(), "lock_state".into()],
            lock_acquire_methods: vec!["lock".into()],
            blocking_methods: vec![
                "read".into(),
                "read_line".into(),
                "read_exact".into(),
                "read_to_end".into(),
                "fill_buf".into(),
                "write".into(),
                "write_all".into(),
                "flush".into(),
                "sync_all".into(),
                "sync_data".into(),
                "append_frame".into(),
                "accept".into(),
                "rename".into(),
            ],
            blocking_macros: vec!["write".into(), "writeln".into()],
            durability_methods: vec![
                "atomic_write".into(),
                "append_frame".into(),
                "save_record".into(),
                "save_checkpoint".into(),
                "save_progress".into(),
                "discard_progress".into(),
                "quarantine".into(),
                "sync_all".into(),
                "sync_data".into(),
            ],
            timeout_guard_methods: vec![
                "set_read_timeout".into(),
                "set_write_timeout".into(),
                "set_nonblocking".into(),
            ],
            requeue_fns: vec!["enqueue".into()],
            socket_paths: vec![
                "crates/serve/src/server.rs".into(),
                "crates/serve/src/netfault.rs".into(),
            ],
            accept_roots: vec![
                ("crates/serve/src/server.rs".into(), "run".into()),
                (
                    "crates/serve/src/server.rs".into(),
                    "handle_connection".into(),
                ),
            ],
            blessed_recovery_paths: vec!["crates/serve/src/sync.rs".into()],
        }
    }
}

/// How many well-formed `lb-lint: allow` directives some files carry: in
/// total, and per rule named (a directive naming two rules counts once in
/// the total and once under each rule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllowCounts {
    /// Number of directives.
    pub directives: usize,
    /// Number of directives naming each rule.
    pub by_rule: BTreeMap<Rule, usize>,
}

impl AllowCounts {
    /// Adds another file's counts to these.
    pub(crate) fn absorb(&mut self, other: &AllowCounts) {
        self.directives += other.directives;
        for (rule, n) in &other.by_rule {
            *self.by_rule.entry(*rule).or_default() += n;
        }
    }
}

/// Counts the well-formed `lb-lint: allow` directives in one file.
pub(crate) fn count_allows(source: &str) -> AllowCounts {
    parse_allows(&scan(source)).counts
}

/// Allows parsed from `lb-lint:` directives: line → rules allowed there.
pub(crate) struct Allows {
    pub(crate) by_line: HashMap<usize, BTreeSet<Rule>>,
    pub(crate) errors: Vec<(usize, String)>,
    pub(crate) counts: AllowCounts,
}

impl Allows {
    /// Whether `rule` is allowed on `line`.
    pub(crate) fn allowed(&self, line: usize, rule: Rule) -> bool {
        self.by_line
            .get(&line)
            .is_some_and(|set| set.contains(&rule))
    }
}

/// Parses every `lb-lint:` directive in the file.
///
/// Syntax: `lb-lint: allow(rule[, rule…]) -- reason`. A directive on a line
/// with code applies to that line; a directive alone on a line applies to
/// the next line carrying code.
pub(crate) fn parse_allows(file: &ScannedFile) -> Allows {
    let mut by_line: HashMap<usize, BTreeSet<Rule>> = HashMap::new();
    let mut errors = Vec::new();
    let mut counts = AllowCounts::default();
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        // Only a comment that *starts* with `lb-lint:` is a directive; prose
        // that merely mentions the syntax (docs, reasons) is ignored.
        let trimmed = line.comment.trim_start();
        let Some(directive) = trimmed.strip_prefix("lb-lint:") else {
            continue;
        };
        let directive = directive.trim();
        let Some(rest) = directive.strip_prefix("allow") else {
            errors.push((lineno, format!("unknown lb-lint directive {directive:?}; only `allow(rule) -- reason` is supported")));
            continue;
        };
        let rest = rest.trim_start();
        let Some(close) = rest.find(')') else {
            errors.push((lineno, "malformed allow: missing `)`".into()));
            continue;
        };
        let Some(inner) = rest[..close].strip_prefix('(') else {
            errors.push((lineno, "malformed allow: missing `(`".into()));
            continue;
        };
        let after = rest[close + 1..].trim();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            errors.push((
                lineno,
                "allow directive requires a justification: `-- reason`".into(),
            ));
            continue;
        }
        let mut rules = BTreeSet::new();
        let mut ok = true;
        for name in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Rule::from_name(name) {
                Some(r) => {
                    rules.insert(r);
                }
                None => {
                    errors.push((lineno, format!("unknown rule {name:?} in allow directive")));
                    ok = false;
                }
            }
        }
        if !ok || rules.is_empty() {
            if rules.is_empty() && ok {
                errors.push((lineno, "allow directive names no rules".into()));
            }
            continue;
        }
        // Standalone comment line → the allow targets the next code line
        // that is not an outer attribute.
        let target = if line.code.trim().is_empty() {
            next_item_line(file.lines.get(idx + 1..).unwrap_or_default())
                .map(|off| lineno + 1 + off)
                .unwrap_or(lineno)
        } else {
            lineno
        };
        counts.directives += 1;
        for rule in &rules {
            *counts.by_rule.entry(*rule).or_default() += 1;
        }
        by_line.entry(target).or_default().extend(rules);
    }
    Allows {
        by_line,
        errors,
        counts,
    }
}

/// The index in `lines` of the first line carrying code other than outer
/// attributes (`#[…]`, on one line or spread over several), or `None`. A
/// line where code follows an attribute's closing `]` is that line.
fn next_item_line(lines: &[Line]) -> Option<usize> {
    // Unclosed `[` of the attribute being read.
    let mut depth = 0usize;
    lines.iter().position(|line| {
        let mut code = line.code.trim_start();
        loop {
            if depth == 0 {
                match code.strip_prefix("#[") {
                    Some(attr) => {
                        depth = 1;
                        code = attr;
                    }
                    None => return !code.is_empty(),
                }
            }
            // Just past the `]` that closes the attribute.
            let Some(end) = code.char_indices().find_map(|(at, c)| {
                match c {
                    '[' => depth += 1,
                    ']' => depth -= 1,
                    _ => {}
                }
                (depth == 0).then_some(at + 1)
            }) else {
                return false;
            };
            code = code.get(end..).unwrap_or_default().trim_start();
        }
    })
}

/// Checks one file's `lb-lint:` directives, reporting each malformed one
/// (D0). `rel_path` is the workspace-relative path used for reporting.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    parse_allows(&scan(source))
        .errors
        .into_iter()
        .map(|(line, message)| Violation {
            rule: Rule::BadDirective,
            path: rel_path.to_string(),
            line,
            message,
            snippet: snippet_at(source, line),
        })
        .collect()
}

pub(crate) fn snippet_at(source: &str, lineno: usize) -> String {
    source
        .lines()
        .nth(lineno.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .chars()
        .take(120)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Violation> {
        lint_source("crates/x/src/foo.rs", src)
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let src = "fn f() {} // lb-lint: allow(swallowed-result)\n";
        let v = lint_lib(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BadDirective);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn well_formed_allows_are_silent() {
        let src = "\
// lb-lint: allow(unbudgeted-loop) -- demonstration of line targeting
fn f() { loop {} }
fn g() { let _ = h(); } // lb-lint: allow(swallowed-result, unbounded-growth) -- best effort
";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn standalone_allows_skip_outer_attributes() {
        let src = "\
// lb-lint: allow(unbudgeted-loop) -- one-line attribute
#[expect(clippy::indexing_slicing, reason = \"x[0]\")]
while a {}
// lb-lint: allow(unbudgeted-loop) -- attribute over three lines, then another
#[expect(
    clippy::indexing_slicing, reason = \"]\"
)] #[inline]
fn f() {}
// lb-lint: allow(unbudgeted-loop) -- code after the attribute's `]`
#[inline] fn g() {}
// lb-lint: allow(unbudgeted-loop) -- an inner attribute is code
#![deny(x)]
";
        let mut targets: Vec<usize> = parse_allows(&scan(src)).by_line.into_keys().collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![3, 8, 10, 12]);
    }

    #[test]
    fn directives_in_strings_are_not_directives() {
        let src = "fn f() { let s = \"// lb-lint: allow(nothing)\"; }\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "fn f() {} // lb-lint: allow(no-such-rule) -- whatever\n";
        let v = lint_lib(src);
        assert!(v.iter().any(|v| v.rule == Rule::BadDirective));
    }

    #[test]
    fn allows_are_counted_per_directive_and_per_rule() {
        let src = "\
fn f() { loop {} } // lb-lint: allow(unbudgeted-loop, unbounded-growth) -- bounded
// lb-lint: allow(swallowed-result) -- best effort
fn g() { let _ = h(); }
fn k() {} // lb-lint: allow(swallowed-result)
";
        let counts = count_allows(src);
        assert_eq!(counts.directives, 2, "the reasonless allow is not counted");
        assert_eq!(counts.by_rule.get(&Rule::UnbudgetedLoop), Some(&1));
        assert_eq!(counts.by_rule.get(&Rule::UnboundedGrowth), Some(&1));
        assert_eq!(counts.by_rule.get(&Rule::SwallowedResult), Some(&1));
    }

    #[test]
    fn removed_rule_names_are_bad_directives() {
        // R1–R7 moved to rustc/clippy, R9 repeated R1 and R7, and R10 gave
        // way to the checkpoint goldens; a leftover allow naming one is
        // stale.
        for name in [
            "no-panic",
            "no-unchecked-index",
            "panic-reachability",
            "no-lossy-cast",
            "checkpoint-schema-drift",
        ] {
            let v = lint_lib(&format!("fn f() {{}} // lb-lint: allow({name}) -- stale\n"));
            assert!(
                v.iter().any(|v| v.rule == Rule::BadDirective),
                "{name}: {v:?}"
            );
        }
    }

    #[test]
    fn library_classification() {
        assert!(is_library("crates/x/src/lib.rs"));
        assert!(is_library("crates/x/src/solver/mod.rs"));
        for other in [
            "crates/x/tests/t.rs",
            "crates/x/benches/b.rs",
            "examples/e.rs",
            "tests/gate.rs",
            "crates/x/src/bin/tool.rs",
            "src/main.rs",
        ] {
            assert!(!is_library(other), "{other} is not library code");
        }
    }
}
