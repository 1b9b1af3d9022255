//! `lb-lint` — a zero-dependency static-analysis gate for solver and
//! reduction soundness.
//!
//! This repo's value is machine-checked correctness of reductions and
//! optimal algorithms; a panic on malformed input or an unbudgeted solver
//! loop silently breaks exactly the contracts the paper's algorithms are
//! measured against. `lb-lint` makes the repo's conventions enforced
//! invariants. It walks every `.rs` file in the workspace with its own
//! lightweight lexer (string-, comment-, and `#[cfg(test)]`-aware; no `syn`,
//! because the build environment is offline).
//!
//! Conventions the toolchain can check are not re-implemented here. Every
//! library crate root denies clippy's `unwrap_used`, `expect_used`,
//! `panic`, `todo` and `unreachable` outside `cfg(test)` (formerly R1), and
//! the solver hot-path files deny `indexing_slicing` (R7); each justified
//! site carries an `#[expect(clippy::…, reason = "…")]`, which fails the
//! build once the site is gone. The workspace `[lints]` table in the root
//! `Cargo.toml` forbids `unsafe` (R3), denies dropped `Result`s (R4),
//! `process::exit` (R5) and, through `clippy.toml`, ad-hoc `Instant::now`
//! (R6); `crates/lp/src/lib.rs` and `crates/join/src/agm.rs` deny clippy's
//! lossy-cast lints (R2). R9 (`panic-reachability`) flagged only R1 and R7
//! sites and went with them. Those codes are retired, not reused.
//!
//! `lb-lint` enforces what the toolchain cannot express. A **semantic
//! layer** ([`items`], [`graph`], [`semantic`]) parses `fn`/`impl` items,
//! builds a workspace-wide call graph, and proves an invariant that
//! lb-chaos previously only spot-checked dynamically:
//!
//! * **R8 `unbudgeted-loop`** — every loop transitively reachable from a
//!   public solver entry point charges the `Budget` (directly or through a
//!   callee), so exhaustion can always cancel and checkpoint.
//!
//! R10 is retired too: checkpoint-format drift is caught by executing the
//! formats, not by fingerprinting their source (the replay pins and the
//! checkpoint goldens of the root `tests/`).
//!
//! A **dataflow layer** ([`dataflow`]) walks each `fn` body's masked token
//! stream, building def-use chains for collection bindings and `Result`
//! values; per-function summaries propagate over the same call graph and
//! drive three more rules:
//!
//! * **R11 `unbounded-growth`** — a loop-carried collection mutation
//!   (`push`/`insert`/`extend`/`push_back` whose receiver outlives the
//!   innermost loop iteration) in a budget-reachable solver loop must be
//!   charged to `RunStats.max_intermediate` — by the enclosing function or
//!   a transitively-charging callee — or carry an allow stating the bound;
//! * **R12 `swallowed-result`** — library code may not discard a `Result`
//!   unseen: no wildcard `let _ =`, no statement-final `.ok();`, no
//!   never-read binding of a workspace `Result`-returning call;
//! * **R13 `send-hostile-state`** — checkpoint-serializable solver state
//!   stays `Send`-clean: no `Rc`/`RefCell`/`Cell`/`UnsafeCell`/`NonNull`/
//!   raw-pointer fields and no `thread_local!` in the state files.
//!
//! `lb-lint dataflow` dumps the full fact base deterministically and floors
//! per-crate coverage, mirroring `SemanticStats::dataflow`.
//!
//! An **effects layer** ([`effects`]) extracts per-function effect
//! summaries for the serve crate — lock acquisitions with held regions,
//! blocking I/O, durability writes, ack/requeue sites, timeout guards —
//! and propagates them over the same call graph to enforce the
//! concurrency and durability discipline the lb-serve soak tests probe
//! dynamically:
//!
//! * **R14 `lock-discipline`** — the global lock-order graph stays
//!   acyclic, no lock is held across blocking I/O or fsync, and
//!   poisoned-lock recovery lives only in the blessed `lb_serve::sync`
//!   helpers;
//! * **R15 `durability-ordering`** — every `"OK …"` ack and scheduler
//!   requeue is dominated by a spool save/checkpoint/quarantine on every
//!   call chain, so a `kill -9` after the ack can never lose acknowledged
//!   work;
//! * **R16 `unbounded-blocking`** — every blocking socket read/write
//!   reachable from the accept loop is dominated by a
//!   `set_read_timeout`/`set_write_timeout`/`set_nonblocking` call, so a
//!   silent peer cannot wedge a handler thread.
//!
//! `lb-lint effects` dumps the summaries, recovery sites, and lock-order
//! edges deterministically and floors per-crate coverage, mirroring
//! `SemanticStats::effects`.
//!
//! Escape hatch: a trailing comment of the form
//! `lb-lint: allow(rule) -- reason` (the justification after `--` is
//! mandatory; an allow without one is itself reported). A directive alone on
//! a line applies to the next code line. The clean summary and the JSON
//! report count the directives per rule, and `tests/lint_gate.rs` caps the
//! total so it can only go down.
//!
//! The gate is wired three ways: the `lb-lint` CLI (`cargo run -p lb-lint`),
//! the workspace test `tests/lint_gate.rs` (so plain `cargo test` enforces
//! it), and CI (`.github/workflows/ci.yml`).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unreachable
    )
)]

pub mod dataflow;
pub mod effects;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod semantic;
pub mod walk;

pub use effects::CrateEffects;
pub use report::{clean_summary, exit_code, render_json, render_text};
pub use rules::{lint_source, AllowCounts, Config, Rule, Violation};
pub use semantic::{CrateDataflow, SemanticStats};

use std::io;
use std::path::Path;

/// The result of a full workspace analysis: all violations (directive and
/// semantic), the file count, the allow directives in force, and semantic
/// coverage statistics.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All violations, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
    /// The well-formed `lb-lint: allow` directives across those files.
    pub allows: AllowCounts,
    /// Semantic-layer coverage statistics (roots, loops, dataflow…).
    pub stats: SemanticStats,
}

/// Reads every `.rs` file under `root` (skipping `target`, `.git`, and lint
/// `fixtures`) into `(relative path, source)` pairs, sorted by path.
fn read_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let files = walk::rust_files(root)?;
    let mut out = Vec::with_capacity(files.len());
    for rel in &files {
        let rel_str = walk::rel_display(rel);
        let source = std::fs::read_to_string(root.join(rel))?;
        out.push((rel_str, source));
    }
    Ok(out)
}

/// Runs the full analysis (the directive check per file, then the semantic
/// rules R8 and R11–R16 over the workspace call graph).
pub fn analyze_workspace(root: &Path, config: &Config) -> io::Result<Analysis> {
    let files = read_workspace(root)?;
    let mut violations = Vec::new();
    let mut allows = AllowCounts::default();
    for (rel, source) in &files {
        violations.extend(rules::lint_source(rel, source));
        allows.absorb(&rules::count_allows(source));
    }
    let (semantic_violations, stats) = semantic::check(&files, config);
    violations.extend(semantic_violations);
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Analysis {
        violations,
        files_checked: files.len(),
        allows,
        stats,
    })
}

/// Dumps the workspace call graph (deterministic text, for `lb-lint graph`).
pub fn graph_dump_workspace(root: &Path, config: &Config) -> io::Result<String> {
    let files = read_workspace(root)?;
    Ok(semantic::graph_dump(&files, config))
}

/// Dumps the per-function dataflow summaries (deterministic text, for
/// `lb-lint dataflow`).
pub fn dataflow_dump_workspace(root: &Path, config: &Config) -> io::Result<String> {
    let files = read_workspace(root)?;
    Ok(semantic::dataflow_dump(&files, config))
}

/// Dumps the per-function effect summaries and lock-order edges
/// (deterministic text, for `lb-lint effects`).
pub fn effects_dump_workspace(root: &Path, config: &Config) -> io::Result<String> {
    let files = read_workspace(root)?;
    Ok(semantic::effects_dump(&files, config))
}

/// The workspace root as seen from this crate (two levels above the crate
/// manifest). This is correct both under `cargo run -p lb-lint` and from
/// workspace tests.
pub fn default_workspace_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_cargo_toml() {
        assert!(default_workspace_root().join("Cargo.toml").exists());
    }

    #[test]
    fn analysis_reports_semantic_coverage() {
        let a = analyze_workspace(default_workspace_root(), &Config::default()).unwrap();
        assert!(
            a.files_checked > 50,
            "expected a real workspace, saw {} files",
            a.files_checked
        );
        assert!(
            !a.stats.root_names.is_empty(),
            "semantic layer found no entry-point roots"
        );
        assert!(a.stats.loops_checked > 0, "no reachable loops examined");
    }
}
