//! Fixture self-tests: every lb-lint rule has at least one violating
//! fixture (the linter must flag it) and one clean fixture (the linter must
//! stay silent).
//!
//! Fixtures live in `crates/lint/fixtures/`, which the workspace walker
//! skips — they are linted here explicitly, each under a synthetic
//! workspace-relative path that exercises the intended path classification
//! (solver crate, serve crate, …). The `r1`–`r7` fixtures and
//! `stale_expect.rs` belong to the rules that moved to rustc/clippy;
//! `tests/lint_gate.rs` runs the toolchain on them.

use lb_lint::{lint_source, semantic, Config, Rule, Violation};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixtures_root().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
}

#[test]
fn bad_directives_are_reported_and_do_not_suppress() {
    let source = fixture("d0_bad_directive.rs");
    let v = lint_source("crates/x/src/foo.rs", &source);
    let d0: Vec<usize> = v
        .iter()
        .filter(|v| v.rule == Rule::BadDirective)
        .map(|v| v.line)
        .collect();
    assert_eq!(
        d0,
        vec![10, 15],
        "missing-reason and unknown-rule must both fire: {v:?}"
    );
    let v = semantic_violations_src(source, "crates/x/src/foo.rs", &Config::default());
    assert!(
        v.iter()
            .any(|v| v.rule == Rule::SwallowedResult && v.line == 11),
        "a reasonless allow must not suppress the discard: {v:?}"
    );
}

#[test]
fn good_directives_suppress_cleanly() {
    let source = fixture("d0_good_directive.rs");
    let v = lint_source("crates/x/src/foo.rs", &source);
    assert!(v.is_empty(), "{v:?}");
    let v = semantic_violations_src(source, "crates/x/src/foo.rs", &Config::default());
    assert!(v.is_empty(), "{v:?}");
}

// ---------------------------------------------------------------------------
// Semantic rules (R8): fixtures are linted as one-file workspaces through
// `semantic::check`, under a config that points the path-scoped knobs at the
// synthetic `crates/s/src/` crate.
// ---------------------------------------------------------------------------

/// A config whose R8 scopes cover the synthetic fixture crate.
fn sem_config() -> Config {
    Config {
        api_root_paths: vec!["crates/s/src/".into()],
        solver_loop_paths: vec!["crates/s/src/".into()],
        ..Config::default()
    }
}

/// `sem_config` extended so the fixture tree also carries the R13
/// state-struct rule (the default config points R13 at the real solver
/// files, which a fixture path never matches).
fn df_config() -> Config {
    Config {
        state_struct_paths: vec!["crates/s/src/".into()],
        ..sem_config()
    }
}

/// Runs only the semantic rules on a fixture mounted at `rel_path`.
fn semantic_violations(name: &str, rel_path: &str, config: &Config) -> Vec<Violation> {
    semantic_violations_src(fixture(name), rel_path, config)
}

/// Like [`semantic_violations`], but on an in-memory source — used by the
/// gate-flip tests that mutate a clean fixture and expect the rule to fire.
fn semantic_violations_src(source: String, rel_path: &str, config: &Config) -> Vec<Violation> {
    let files = vec![(rel_path.to_string(), source)];
    let (violations, _) = semantic::check(&files, config);
    violations
}

#[test]
fn r8_violating_fixture_flags_direct_and_transitive_loops() {
    let v = semantic_violations("r8_violating.rs", "crates/s/src/solver.rs", &sem_config());
    let lines: Vec<usize> = v
        .iter()
        .filter(|v| v.rule == Rule::UnbudgetedLoop)
        .map(|v| v.line)
        .collect();
    assert_eq!(
        lines,
        vec![6, 9, 16],
        "while + for in the root and loop in the helper must fire: {v:?}"
    );
    assert!(
        v.iter().any(|v| v.message.contains("solve -> helper")),
        "the helper violation must carry its call chain: {v:?}"
    );
}

#[test]
fn r8_clean_fixture_is_silent() {
    let v = semantic_violations("r8_clean.rs", "crates/s/src/solver.rs", &sem_config());
    assert!(v.is_empty(), "charged loops must not fire: {v:?}");
}

#[test]
fn r8_allowed_fixture_is_suppressed() {
    let v = semantic_violations("r8_allowed.rs", "crates/s/src/solver.rs", &sem_config());
    assert!(v.is_empty(), "allow(unbudgeted-loop) must suppress: {v:?}");
}

#[test]
fn r11_violating_fixture_flags_root_and_helper_growth() {
    let v = semantic_violations("r11_violating.rs", "crates/s/src/solver.rs", &df_config());
    let growth: Vec<&Violation> = v
        .iter()
        .filter(|v| v.rule == Rule::UnboundedGrowth)
        .collect();
    assert_eq!(
        growth.len(),
        2,
        "frontier.push in solve and acc.push in grow must both fire: {v:?}"
    );
    assert!(
        v.iter().all(|v| v.rule == Rule::UnboundedGrowth),
        "the budgeted loops must not co-fire other rules: {v:?}"
    );
    assert!(
        growth
            .iter()
            .any(|v| v.message.contains("via solve -> grow")),
        "the helper violation must carry its root-to-loop call chain: {v:?}"
    );
    assert!(
        growth
            .iter()
            .all(|v| v.message.contains("record_intermediate")),
        "the diagnostic must name the fix: {v:?}"
    );
}

#[test]
fn r11_clean_fixture_accepts_direct_and_transitive_charges() {
    let v = semantic_violations("r11_clean.rs", "crates/s/src/solver.rs", &df_config());
    assert!(
        v.is_empty(),
        "a direct charge and a charge via note_frontier must both discharge: {v:?}"
    );
}

#[test]
fn r11_allowed_fixture_accepts_standalone_and_trailing_allows() {
    let v = semantic_violations("r11_allowed.rs", "crates/s/src/solver.rs", &df_config());
    assert!(v.is_empty(), "justified allows must suppress R11: {v:?}");
}

#[test]
fn r11_gate_flips_when_the_charge_is_removed() {
    // Acceptance: deleting the `record_intermediate` charges from the
    // clean fixture leaves an uncharged push in a budget-reachable loop.
    let mutated: String = fixture("r11_clean.rs")
        .lines()
        .filter(|l| !l.contains("record_intermediate"))
        .collect::<Vec<_>>()
        .join("\n");
    let v = semantic_violations_src(mutated, "crates/s/src/solver.rs", &df_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::UnboundedGrowth),
        "removing the charge must flip the gate to failing: {v:?}"
    );
}

#[test]
fn r12_violating_fixture_flags_all_three_discard_shapes() {
    let v = semantic_violations("r12_violating.rs", "crates/s/src/solver.rs", &df_config());
    let lines: Vec<usize> = v
        .iter()
        .filter(|v| v.rule == Rule::SwallowedResult)
        .map(|v| v.line)
        .collect();
    assert_eq!(
        lines,
        vec![15, 16, 17],
        "wildcard let, .ok(); and the never-read binding must fire — and \
         `answer` (read later) must not: {v:?}"
    );
    assert!(v.iter().all(|v| v.rule == Rule::SwallowedResult), "{v:?}");
}

#[test]
fn r12_clean_fixture_is_silent() {
    let v = semantic_violations("r12_clean.rs", "crates/s/src/solver.rs", &df_config());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r12_allowed_fixture_accepts_per_shape_allows() {
    let v = semantic_violations("r12_allowed.rs", "crates/s/src/solver.rs", &df_config());
    assert!(v.is_empty(), "justified allows must suppress R12: {v:?}");
}

#[test]
fn r12_gate_flips_on_a_new_bare_discard() {
    // Acceptance: appending a bare `let _ = solve(3);` to the clean
    // fixture must fail the gate.
    let mutated = format!(
        "{}\npub fn probe() {{\n    let _ = solve(3);\n}}\n",
        fixture("r12_clean.rs")
    );
    let v = semantic_violations_src(mutated, "crates/s/src/solver.rs", &df_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::SwallowedResult),
        "a new wildcard discard must flip the gate to failing: {v:?}"
    );
}

#[test]
fn r13_violating_fixture_flags_every_hostile_marker() {
    let v = semantic_violations("r13_violating.rs", "crates/s/src/state.rs", &df_config());
    let r13: Vec<&Violation> = v
        .iter()
        .filter(|v| v.rule == Rule::SendHostileState)
        .collect();
    assert_eq!(
        r13.len(),
        4,
        "Rc, RefCell, and raw-pointer fields plus thread_local! must fire: {v:?}"
    );
    for marker in ["Rc", "RefCell", "thread_local"] {
        assert!(
            r13.iter().any(|v| v.message.contains(marker)),
            "diagnostics must name the {marker} marker: {v:?}"
        );
    }
}

#[test]
fn r13_is_scoped_to_state_struct_paths() {
    // The same source outside `state_struct_paths` is not checkpoint
    // state; R13 must stay silent under the narrower sem_config.
    let v = semantic_violations("r13_violating.rs", "crates/s/src/state.rs", &sem_config());
    assert!(
        !v.iter().any(|v| v.rule == Rule::SendHostileState),
        "R13 is path-scoped: {v:?}"
    );
}

#[test]
fn r13_clean_fixture_is_silent() {
    let v = semantic_violations("r13_clean.rs", "crates/s/src/state.rs", &df_config());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn r13_allowed_fixture_accepts_field_and_macro_allows() {
    let v = semantic_violations("r13_allowed.rs", "crates/s/src/state.rs", &df_config());
    assert!(v.is_empty(), "justified allows must suppress R13: {v:?}");
}

#[test]
fn r13_gate_flips_when_an_rc_field_is_added() {
    // Acceptance: inserting an `Rc` field into the clean state struct
    // must fail the gate.
    let mutated = fixture("r13_clean.rs").replace(
        "pub depth: u32,",
        "pub shared: std::rc::Rc<Vec<u32>>,\n    pub depth: u32,",
    );
    let v = semantic_violations_src(mutated, "crates/s/src/state.rs", &df_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::SendHostileState),
        "a new Rc field must flip the gate to failing: {v:?}"
    );
}

// ---------------------------------------------------------------------------
// Effect rules (R14–R16): fixtures are linted through `semantic::check`
// under a config whose effect scope covers the synthetic fixture crate.
// ---------------------------------------------------------------------------

/// `sem_config` extended so the effect rules see the fixture crate: the
/// effect scope covers `crates/s/src/`, the socket file is `net.rs`, and
/// the accept root is its `accept_loop` (the blessed recovery module is a
/// path no fixture mounts at, so the recovery idiom always counts).
fn fx_config() -> Config {
    Config {
        effect_paths: vec!["crates/s/src/".into()],
        socket_paths: vec!["crates/s/src/net.rs".into()],
        accept_roots: vec![("crates/s/src/net.rs".into(), "accept_loop".into())],
        blessed_recovery_paths: vec!["crates/s/src/blessed.rs".into()],
        ..sem_config()
    }
}

#[test]
fn r14_violating_fixture_flags_held_across_cycle_and_recovery() {
    let v = semantic_violations("r14_violating.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.iter().all(|v| v.rule == Rule::LockDiscipline),
        "only R14 may fire: {v:?}"
    );
    let mut lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![15, 21, 28, 34],
        "held-across write, both cycle edges, and the recovery idiom: {v:?}"
    );
    assert!(v.iter().any(|v| v.message.contains("held across")), "{v:?}");
    assert!(
        v.iter().any(|v| v.message.contains("lock-order cycle")),
        "{v:?}"
    );
    assert!(v.iter().any(|v| v.message.contains("blessed")), "{v:?}");
}

#[test]
fn r14_clean_fixture_is_silent() {
    let v = semantic_violations("r14_clean.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.is_empty(),
        "release-before-I/O and a consistent order must be clean: {v:?}"
    );
}

#[test]
fn r14_allowed_fixture_accepts_acquisition_site_and_recovery_allows() {
    let v = semantic_violations("r14_allowed.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(v.is_empty(), "justified allows must suppress R14: {v:?}");
}

#[test]
fn r14_gate_flips_when_two_locks_are_reordered() {
    // Acceptance: inverting the acquisition order in one function closes a
    // lock-order cycle against the untouched sibling.
    let mutated = fixture("r14_clean.rs").replacen(
        "let ga = self.a.lock();\n        let gb = self.b.lock();",
        "let gb = self.b.lock();\n        let ga = self.a.lock();",
        1,
    );
    let v = semantic_violations_src(mutated, "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.iter()
            .any(|v| v.rule == Rule::LockDiscipline && v.message.contains("cycle")),
        "reordering two locks must flip the gate to failing: {v:?}"
    );
}

#[test]
fn r15_violating_fixture_flags_ack_and_requeue_with_chains() {
    let v = semantic_violations("r15_violating.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.iter().all(|v| v.rule == Rule::DurabilityOrdering),
        "only R15 may fire: {v:?}"
    );
    let mut lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![7, 11],
        "the unsaved ack and the unsaved requeue must both fire: {v:?}"
    );
    assert!(
        v.iter().all(|v| v.message.contains("top")),
        "diagnostics must carry the undischarged call chain: {v:?}"
    );
}

#[test]
fn r15_clean_fixture_is_silent() {
    let v = semantic_violations("r15_clean.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.is_empty(),
        "save-before-ack and save-before-requeue must be clean: {v:?}"
    );
}

#[test]
fn r15_allowed_fixture_accepts_a_stateless_ack() {
    let v = semantic_violations("r15_allowed.rs", "crates/s/src/solver.rs", &fx_config());
    assert!(v.is_empty(), "justified allows must suppress R15: {v:?}");
}

#[test]
fn r15_gate_flips_when_the_ack_moves_above_the_save() {
    // Acceptance: dropping the save that precedes the ack leaves an
    // acknowledgment no durability effect dominates.
    let mutated = fixture("r15_clean.rs").replacen(
        "    spool.save_record(id);\n    format!(\"OK {id}\")",
        "    format!(\"OK {id}\")",
        1,
    );
    let v = semantic_violations_src(mutated, "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::DurabilityOrdering),
        "an ack with no dominating save must flip the gate to failing: {v:?}"
    );
}

#[test]
fn r15_gate_flips_when_the_ack_moves_above_the_append() {
    // Acceptance: an `OK` formed before the log append it reports is an
    // acknowledgment no durability effect dominates.
    let mutated = fixture("r15_clean.rs").replacen(
        "    append_frame(id);\n    let line = format!(\"OK {id}\");",
        "    let line = format!(\"OK {id}\");\n    append_frame(id);",
        1,
    );
    assert_ne!(mutated, fixture("r15_clean.rs"), "the mutation must apply");
    let v = semantic_violations_src(mutated, "crates/s/src/solver.rs", &fx_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::DurabilityOrdering),
        "an ack that precedes its append must flip the gate to failing: {v:?}"
    );
}

#[test]
fn r16_violating_fixture_flags_root_and_transitive_reads() {
    let v = semantic_violations("r16_violating.rs", "crates/s/src/net.rs", &fx_config());
    assert!(
        v.iter().all(|v| v.rule == Rule::UnboundedBlocking),
        "only R16 may fire: {v:?}"
    );
    let mut lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    lines.sort_unstable();
    assert_eq!(
        lines,
        vec![6, 12],
        "the read in the root and the read one call down must both fire: {v:?}"
    );
    assert!(
        v.iter().all(|v| v.message.contains("accept_loop")),
        "diagnostics must name the accept-loop chain: {v:?}"
    );
}

#[test]
fn r16_clean_fixture_accepts_timeouts_and_ignores_unreachable_reads() {
    let v = semantic_violations("r16_clean.rs", "crates/s/src/net.rs", &fx_config());
    assert!(
        v.is_empty(),
        "a timed read on the chain and an unreachable helper must be clean: {v:?}"
    );
}

#[test]
fn r16_allowed_fixture_accepts_a_justified_untimed_read() {
    let v = semantic_violations("r16_allowed.rs", "crates/s/src/net.rs", &fx_config());
    assert!(v.is_empty(), "justified allows must suppress R16: {v:?}");
}

#[test]
fn r16_gate_flips_when_the_timeout_call_is_dropped() {
    // Acceptance: deleting the `set_read_timeout` leaves the accept-chain
    // read unguarded.
    let mutated = fixture("r16_clean.rs").replace("    stream.set_read_timeout(None);\n", "");
    let v = semantic_violations_src(mutated, "crates/s/src/net.rs", &fx_config());
    assert!(
        v.iter().any(|v| v.rule == Rule::UnboundedBlocking),
        "dropping the timeout must flip the gate to failing: {v:?}"
    );
}

#[test]
fn every_rule_has_a_violating_and_a_clean_fixture() {
    // Meta-check: the fixture corpus stays complete as rules evolve. R1–R7
    // are the toolchain-checked rules of `tests/lint_gate.rs`.
    let dir = fixtures_root();
    for code in [
        "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r11", "r12", "r13", "r14", "r15", "r16",
    ] {
        for suffix in ["violating", "clean"] {
            let name = format!("{code}_{suffix}.rs");
            assert!(dir.join(&name).exists(), "fixture corpus is missing {name}");
        }
    }
    for name in [
        "r8_allowed.rs",
        "r11_allowed.rs",
        "r12_allowed.rs",
        "r13_allowed.rs",
        "r14_allowed.rs",
        "r15_allowed.rs",
        "r16_allowed.rs",
        "stale_expect.rs",
    ] {
        assert!(dir.join(name).exists(), "fixture corpus is missing {name}");
    }
}
