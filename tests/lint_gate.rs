//! The static-analysis gate, wired into plain `cargo test`.
//!
//! Two halves:
//!
//! * `lb-lint` over every `.rs` file in the workspace — the call-graph
//!   semantic rule R8, the dataflow rules R11–R13, and the effect rules
//!   R14–R16 — failing if any rule fires, so an unbudgeted solver loop, an
//!   uncharged frontier, a swallowed `Result`, a `Send`-hostile state
//!   field, a lock held across fsync, an ack that outruns its spool save,
//!   or an untimed socket read cannot land without either a fix or a
//!   justified `// lb-lint: allow(rule) -- reason` annotation.
//!   (Checkpoint-format drift, once R10, is caught by executing the
//!   formats: the replay pins and `tests/checkpoint_goldens.rs`.)
//! * rustc and clippy for the checks that moved to the toolchain: R1
//!   panics in library code, R2 lossy casts in bound arithmetic, R3
//!   `unsafe`, R4 dropped `Result`s, R5 `process::exit`, R6 ad-hoc
//!   `Instant::now`, and R7 unchecked indexing in solver hot paths. The
//!   workspace must pass `cargo clippy -- -D warnings`, every member must
//!   inherit the workspace `[lints]` table, every library crate root and
//!   hot-path file must carry its deny attribute, and each rule's violating
//!   fixture must fail the toolchain under a copy of that table and
//!   attribute (its clean fixture must pass), so deleting a lint line flips
//!   the gate.
//!
//! The exceptions of both halves share one cap that may only go down: the
//! `lb-lint: allow` directives plus the `#[expect]`/`#[allow]` attributes
//! that name a moved panic lint.
//!
//! The same lb-lint check runs as `cargo run -p lb-lint` and in CI
//! (`.github/workflows/ci.yml`), next to CI's own clippy step.

use lb_lint::{analyze_workspace, default_workspace_root, lexer, render_text, walk, Config};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The most exceptions the workspace may carry: `lb-lint: allow`
/// directives plus attributes that expect or allow a moved panic lint
/// ([`PANIC_LINTS`]). Lower it when a change removes exceptions; never
/// raise it.
const ALLOW_CEILING: usize = 192;

/// The clippy lints that replaced R1 (`no-panic`) and R7
/// (`no-unchecked-index`).
const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unreachable",
    "clippy::indexing_slicing",
];

/// The solver hot paths that deny `clippy::indexing_slicing`: on
/// adversarial input a stray index there is a panic where the contract
/// demands `Exhausted` or a typed error.
const INDEX_CHECKED: [&str; 9] = [
    "crates/serve/src/protocol.rs",
    "crates/sat/src/dpll.rs",
    "crates/sat/src/twosat.rs",
    "crates/csp/src/solver/backtracking.rs",
    "crates/join/src/wcoj.rs",
    "crates/join/src/trie.rs",
    "crates/join/src/reference.rs",
    "crates/graphalg/src/clique.rs",
    "crates/graphalg/src/triangle.rs",
];

/// Counts the `#[expect(…)]`/`#[allow(…)]` attributes (inner or outer)
/// under `root` that name one of [`PANIC_LINTS`]. Strings and comments are
/// masked first, so prose about the attributes is not counted.
fn panic_lint_exceptions(root: &Path) -> usize {
    let files = walk::rust_files(root).unwrap_or_else(|e| panic!("walk {}: {e}", root.display()));
    let mut count = 0;
    for rel in files {
        let source = read(&root.join(rel));
        let code: Vec<String> = lexer::scan(&source)
            .lines
            .into_iter()
            .map(|line| line.code)
            .collect();
        let code = code.join("\n");
        for opener in ["#[expect(", "#[allow(", "#![expect(", "#![allow("] {
            for (start, _) in code.match_indices(opener) {
                let body = &code[start + opener.len()..];
                let body = &body[..body.find(")]").unwrap_or(body.len())];
                if body
                    .split(',')
                    .any(|lint| PANIC_LINTS.contains(&lint.trim()))
                {
                    count += 1;
                }
            }
        }
    }
    count
}

#[test]
fn workspace_is_lint_clean() {
    let root = default_workspace_root();
    let analysis = analyze_workspace(root, &Config::default())
        .unwrap_or_else(|e| panic!("lb-lint failed to walk {}: {e}", root.display()));
    assert!(
        analysis.files_checked > 50,
        "lb-lint walked only {} files from {} — wrong workspace root?",
        analysis.files_checked,
        root.display()
    );
    assert!(
        analysis.violations.is_empty(),
        "lb-lint found violations (fix them or add `// lb-lint: allow(rule) -- reason`):\n{}",
        render_text(&analysis.violations)
    );
    let expects = panic_lint_exceptions(root);
    assert!(
        analysis.allows.directives + expects <= ALLOW_CEILING,
        "the workspace carries {} `lb-lint: allow` directives and {expects} \
         panic-lint `#[expect]`s, more than the ceiling of {ALLOW_CEILING} \
         together; make the invariant structural instead of adding an \
         exception (directives per rule: {:?})",
        analysis.allows.directives,
        analysis.allows.by_rule
    );
}

#[test]
fn semantic_analysis_actually_covers_the_solvers() {
    // A zero-violation result is only meaningful if the semantic layer saw
    // the workspace: the call graph must root at the real solver entry
    // points and traverse real loops. These floors catch a misconfigured
    // path scope silently emptying a rule.
    let root = default_workspace_root();
    let analysis = analyze_workspace(root, &Config::default())
        .unwrap_or_else(|e| panic!("lb-lint failed to walk {}: {e}", root.display()));
    let stats = &analysis.stats;

    for expected in [
        "DpllSolver::solve",
        // The generic slice drivers: every resumable family's `run`,
        // `encode` and `decode` is reached through them.
        "find_slice",
        "solve_2sat",
        "count_slice",
        // The server's slice executor: every scheduler-driven solver run
        // goes through it, so R8 must treat it as a root.
        "solve_slice",
        "solve_to_verdict",
    ] {
        assert!(
            stats.root_names.iter().any(|n| n == expected),
            "`{expected}` is missing from the R8 reachability roots; \
             roots found: {:?}",
            stats.root_names
        );
    }
    assert!(
        stats.reachable_fns >= 100,
        "only {} fns reachable from the roots — the call graph is too sparse",
        stats.reachable_fns
    );
    assert!(
        stats.loops_checked >= 100,
        "R8 examined only {} loops — solver_loop_paths likely misconfigured",
        stats.loops_checked
    );

    // The R11–R13 dataflow pass must have real coverage in every solver
    // crate: collection bindings tracked, `Result` sites examined, and
    // checkpoint state structs scanned. An empty entry means the dataflow
    // layer silently stopped seeing that crate.
    for name in ["sat", "csp", "join", "graphalg", "serve"] {
        let df = stats
            .dataflow
            .get(name)
            .unwrap_or_else(|| panic!("no dataflow coverage recorded for crate `{name}`"));
        assert!(
            df.collection_bindings > 0,
            "R11 tracked no collection bindings in `{name}`"
        );
        assert!(
            df.result_sites > 0,
            "R12 examined no `Result` sites in `{name}`"
        );
        assert!(
            df.state_structs > 0,
            "R13 scanned no checkpoint state structs in `{name}`"
        );
    }

    // Survival-layer floors. The serve crate's retry/quarantine paths are
    // where a swallowed spool `Result` silently loses a job, and its
    // scheduler/netfault state crosses thread boundaries — so R12/R13
    // coverage there must stay deep, not merely nonzero. The floors sit
    // well under current counts (199 result sites, 13 state structs at
    // the time of writing) but far above what a path-scope regression
    // would leave behind.
    let serve = &stats.dataflow["serve"];
    assert!(
        serve.result_sites >= 150,
        "R12 examined only {} `Result` sites in `serve` — spool/quarantine \
         I/O is no longer fully covered",
        serve.result_sites
    );
    assert!(
        serve.state_structs >= 10,
        "R13 scanned only {} state structs in `serve` — scheduler/netfault \
         shared state fell out of state_struct_paths",
        serve.state_structs
    );
    // The storm harness drives the survival layer from outside; its own
    // Result discipline (every spawn/connect/kill handled) is R12-checked.
    let chaos = &stats.dataflow["chaos"];
    assert!(
        chaos.result_sites >= 60,
        "R12 examined only {} `Result` sites in `chaos` — the storm \
         harness fell out of scope",
        chaos.result_sites
    );

    // Effect-layer floors (R14–R16). A zero-violation effect pass is only
    // meaningful if it saw the serve crate's real lock, durability, and
    // blocking sites; these sit well under current counts (11 lock, 14
    // durability, 24 blocking at the time of writing) but far above what
    // an `effect_paths` regression would leave behind.
    let fx = stats
        .effects
        .get("serve")
        .unwrap_or_else(|| panic!("no effect coverage recorded for crate `serve`"));
    assert!(
        fx.lock_sites >= 10,
        "R14 saw only {} lock sites in `serve` — scheduler/netfault \
         acquisitions fell out of effect_paths",
        fx.lock_sites
    );
    assert!(
        fx.durability_sites >= 5,
        "R15 saw only {} durability sites in `serve` — spool saves fell \
         out of effect_paths",
        fx.durability_sites
    );
    assert!(
        fx.blocking_sites >= 8,
        "R16 saw only {} blocking-I/O sites in `serve` — socket/file I/O \
         fell out of effect_paths",
        fx.blocking_sites
    );
}

// ---------------------------------------------------------------------------
// The toolchain half: R1–R7 as rustc/clippy lints.
// ---------------------------------------------------------------------------

fn cargo() -> Command {
    Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn output_text(out: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn workspace_passes_clippy() {
    let root = default_workspace_root();
    let out = cargo()
        .current_dir(root)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--offline",
            "--quiet",
        ])
        .arg("--target-dir")
        .arg(root.join("target").join("lint-gate").join("clippy"))
        .args(["--", "-D", "warnings"])
        .output()
        .unwrap_or_else(|e| panic!("could not run cargo clippy: {e}"));
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        output_text(&out)
    );
}

/// The directories of the workspace members: the root package and every
/// package the root `Cargo.toml`'s `members` line names.
fn members(root: &Path) -> Vec<PathBuf> {
    let manifest = read(&root.join("Cargo.toml"));
    let members_line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .unwrap_or_else(|| panic!("root Cargo.toml lists no workspace members"));
    let mut dirs = vec![root.to_path_buf()];
    for pattern in members_line.split('"').skip(1).step_by(2) {
        match pattern.strip_suffix("/*") {
            Some(dir) => {
                let entries =
                    fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("list {dir}: {e}"));
                for entry in entries {
                    let path = entry.expect("directory entry").path();
                    if path.join("Cargo.toml").exists() {
                        dirs.push(path);
                    }
                }
            }
            None => dirs.push(root.join(pattern)),
        }
    }
    assert!(
        dirs.len() > 10,
        "found only {} workspace members — wrong `members` parse?",
        dirs.len()
    );
    dirs
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    for dir in members(default_workspace_root()) {
        let path = dir.join("Cargo.toml");
        assert!(
            read(&path).contains("[lints]\nworkspace = true\n"),
            "{} must inherit the workspace lints (`[lints]` with \
             `workspace = true`)",
            path.display()
        );
    }
}

/// The root `[workspace.lints.*]` tables, rewritten as a standalone
/// package's `[lints.*]` tables.
fn lint_table(root: &Path) -> String {
    let mut out = String::new();
    let mut copying = false;
    for line in read(&root.join("Cargo.toml")).lines() {
        if line.starts_with('[') {
            copying = line.starts_with("[workspace.lints");
        }
        if copying {
            out.push_str(&line.replacen("[workspace.lints", "[lints", 1));
            out.push('\n');
        }
    }
    out
}

/// The inner attribute (`#![…]`) of `file` that names `marker`.
fn inner_attribute(root: &Path, file: &str, marker: &str) -> String {
    let source = read(&root.join(file));
    source
        .match_indices("#![")
        .filter_map(|(start, _)| {
            let end = start + source[start..].find(")]")? + 2;
            Some(&source[start..end])
        })
        .find(|attr| attr.contains(marker))
        .unwrap_or_else(|| panic!("{file} carries no inner attribute naming {marker}"))
        .to_string()
}

/// The inner attribute that denies clippy's lossy-cast lints in
/// `crates/lp/src/lib.rs`. `crates/join/src/agm.rs` must carry the same one.
fn cast_deny(root: &Path) -> String {
    let deny = inner_attribute(root, "crates/lp/src/lib.rs", "clippy::cast_");
    assert!(
        read(&root.join("crates/join/src/agm.rs")).contains(&deny),
        "crates/join/src/agm.rs must carry the cast-lint deny of crates/lp/src/lib.rs:\n{deny}"
    );
    deny
}

/// The deny of the panic lints (formerly R1) that every library crate root
/// carries, as written in `crates/sat/src/lib.rs`.
fn panic_deny(root: &Path) -> String {
    inner_attribute(root, "crates/sat/src/lib.rs", "clippy::unwrap_used")
}

/// The deny of unchecked indexing (formerly R7) that every file of
/// [`INDEX_CHECKED`] carries, as written in `crates/sat/src/dpll.rs`.
fn index_deny(root: &Path) -> String {
    inner_attribute(root, "crates/sat/src/dpll.rs", "clippy::indexing_slicing")
}

#[test]
fn every_library_crate_root_denies_the_panic_lints() {
    let root = default_workspace_root();
    let deny = panic_deny(root);
    for dir in members(root) {
        let lib = dir.join("src").join("lib.rs");
        assert!(
            !lib.exists() || read(&lib).contains(&deny),
            "{} must carry the panic-lint deny of crates/sat/src/lib.rs:\n{deny}",
            lib.display()
        );
    }
}

#[test]
fn every_hot_path_file_denies_unchecked_indexing() {
    let root = default_workspace_root();
    let deny = index_deny(root);
    for file in INDEX_CHECKED {
        assert!(
            read(&root.join(file)).contains(&deny),
            "{file} must carry the indexing deny of crates/sat/src/dpll.rs:\n{deny}"
        );
    }
}

/// Builds `fixtures/{name}.rs`, with `prelude` (an inner deny attribute, or
/// nothing) prepended, as a scratch crate under the root lint table and
/// `clippy.toml`, and runs `cargo clippy -- -D warnings` on it, as the
/// workspace gate does. A fixture with `fn main` builds as a binary.
fn clippy_fixture(name: &str, prelude: &str) -> Output {
    let root = default_workspace_root();
    let dir = root.join("target").join("lint-gate").join(name);
    let src = dir.join("src");
    if src.exists() {
        fs::remove_dir_all(&src).unwrap_or_else(|e| panic!("clear {}: {e}", src.display()));
    }
    fs::create_dir_all(&src).unwrap_or_else(|e| panic!("create {}: {e}", src.display()));
    let manifest = format!(
        "[package]\nname = \"gate-{}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n{}",
        name.replace('_', "-"),
        lint_table(root)
    );
    let fixture = read(&root.join("crates/lint/fixtures").join(format!("{name}.rs")));
    let source = format!("{prelude}\n{fixture}");
    let target = if source.contains("fn main()") {
        "main.rs"
    } else {
        "lib.rs"
    };
    for (path, text) in [
        (dir.join("Cargo.toml"), manifest),
        (dir.join("clippy.toml"), read(&root.join("clippy.toml"))),
        (src.join(target), source),
    ] {
        fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    cargo()
        .args(["clippy", "--offline", "--quiet", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(dir.join("target"))
        .args(["--", "-D", "warnings"])
        .output()
        .unwrap_or_else(|e| panic!("could not run cargo clippy on {name}: {e}"))
}

/// rustc spells lint names with dashes in its "requested on the command
/// line" notes; compare in the underscore form.
fn diagnostics(out: &Output) -> String {
    output_text(out).replace('-', "_")
}

/// The gate flip for one migrated rule: the violating fixture must fail
/// with every one of `lints` named in the diagnostics, and the clean
/// fixture must pass.
fn assert_gate_flips(code: &str, prelude: &str, lints: &[&str]) {
    let out = clippy_fixture(&format!("{code}_violating"), prelude);
    let text = diagnostics(&out);
    assert!(
        !out.status.success(),
        "{code}_violating.rs passed the toolchain — its lint is no longer enforced:\n{text}"
    );
    for lint in lints {
        assert!(
            text.contains(lint),
            "{code}_violating.rs failed, but not with `{lint}`:\n{text}"
        );
    }
    let out = clippy_fixture(&format!("{code}_clean"), prelude);
    assert!(
        out.status.success(),
        "{code}_clean.rs must pass the toolchain:\n{}",
        output_text(&out)
    );
}

#[test]
fn r1_panic_gate_flips() {
    assert_gate_flips(
        "r1",
        &panic_deny(default_workspace_root()),
        &[
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::todo",
            "clippy::unreachable",
        ],
    );
}

#[test]
fn r2_lossy_cast_gate_flips() {
    assert_gate_flips(
        "r2",
        &cast_deny(default_workspace_root()),
        &[
            "cast_possible_truncation",
            "cast_precision_loss",
            "cast_sign_loss",
        ],
    );
}

#[test]
fn r3_unsafe_code_gate_flips() {
    assert_gate_flips("r3", "", &["unsafe_code"]);
}

#[test]
fn r4_dropped_result_gate_flips() {
    assert_gate_flips("r4", "", &["unused_must_use"]);
}

#[test]
fn r5_process_exit_gate_flips() {
    assert_gate_flips("r5", "", &["clippy::exit"]);
}

#[test]
fn r6_adhoc_timing_gate_flips() {
    assert_gate_flips("r6", "", &["clippy::disallowed_methods", "Instant::now"]);
}

#[test]
fn r7_unchecked_index_gate_flips() {
    assert_gate_flips(
        "r7",
        &index_deny(default_workspace_root()),
        &["clippy::indexing_slicing"],
    );
}

#[test]
fn a_stale_expect_fails_the_gate() {
    // An exception outliving its site is an error, so an `#[expect]` cannot
    // linger the way a stale allow directive could.
    let out = clippy_fixture("stale_expect", &panic_deny(default_workspace_root()));
    let text = diagnostics(&out);
    assert!(
        !out.status.success() && text.contains("unfulfilled_lint_expectations"),
        "stale_expect.rs must fail with unfulfilled_lint_expectations:\n{text}"
    );
}
