//! End-to-end CLI tests for the `lbtool` checkpoint surface: the `join`,
//! `triangle`, and `clique` subcommands accept `--checkpoint`/`--resume`/
//! `--checkpoint-interval` with the same exit-code contract as `sat` and
//! `csp` — exit 3 with a *resumable* diagnostic when a frontier was saved,
//! a *terminal* one when it wasn't — and a resumed run reaches the same
//! answer as an uninterrupted one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lbtool(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lbtool"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn lbtool")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn exit(out: &Output) -> i32 {
    out.status.code().expect("lbtool exit code")
}

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("lbtool-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, name: &str, content: &str) -> String {
        std::fs::write(self.0.join(name), content).expect("write fixture");
        name.to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Three relations forming one triangle `R(a,b) S(b,c) T(a,c)` instance.
const TRIANGLE_DB: &str =
    "rel R 2\n0 1\n1 2\n0 2\nrel S 2\n0 1\n1 2\n0 2\nrel T 2\n0 1\n1 2\n0 2\n";
const TRIANGLE_QUERY: &str = "R(a,b) S(b,c) T(a,c)";

/// Two triangles sharing vertex 2: {0,1,2} and {2,3,4}.
const TWO_TRIANGLES: &str = "5\n0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n";

#[test]
fn join_counts_and_checkpoint_roundtrip_reaches_the_same_answer() {
    let s = Scratch::new("join");
    let db = s.write("t.db", TRIANGLE_DB);
    let direct = lbtool(&s.0, &["join", &db, TRIANGLE_QUERY]);
    assert_eq!(exit(&direct), 0, "stderr: {}", stderr(&direct));
    assert_eq!(stdout(&direct).trim(), "1");

    let exhausted = lbtool(
        &s.0,
        &[
            "join",
            &db,
            TRIANGLE_QUERY,
            "--budget",
            "3",
            "--checkpoint",
            "j.ck",
        ],
    );
    assert_eq!(exit(&exhausted), 3, "stderr: {}", stderr(&exhausted));
    assert_eq!(stdout(&exhausted).trim(), "UNKNOWN");
    assert!(
        stderr(&exhausted).contains("resumable"),
        "diagnostic must mark a saved frontier resumable: {}",
        stderr(&exhausted)
    );
    assert!(s.0.join("j.ck").exists(), "frontier file must be saved");

    let resumed = lbtool(
        &s.0,
        &[
            "join",
            &db,
            TRIANGLE_QUERY,
            "--resume",
            "j.ck",
            "--checkpoint",
            "j.ck",
        ],
    );
    assert_eq!(exit(&resumed), 0, "stderr: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed).trim(), "1", "resume must reach the answer");
    assert!(
        !s.0.join("j.ck").exists(),
        "completed run must remove its checkpoint"
    );
}

#[test]
fn join_stats_json_emits_machine_readable_counters() {
    let s = Scratch::new("statsjson");
    let db = s.write("t.db", TRIANGLE_DB);
    let out = lbtool(&s.0, &["join", &db, TRIANGLE_QUERY, "--stats-json"]);
    assert_eq!(exit(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("1"), "count line comes first");
    let json = lines.next().expect("stats JSON line");
    for key in [
        "\"nodes\":",
        "\"propagations\":",
        "\"trie_advances\":",
        "\"tuples\":1",
        "\"backtracks\":",
        "\"max_intermediate\":",
        "\"total_ops\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "one JSON object per line: {json}"
    );
}

#[test]
fn join_print_streams_tuples_and_rejects_checkpointing() {
    let s = Scratch::new("joinprint");
    let db = s.write("t.db", TRIANGLE_DB);
    let out = lbtool(&s.0, &["join", &db, TRIANGLE_QUERY, "--print"]);
    assert_eq!(exit(&out), 0, "stderr: {}", stderr(&out));
    // The streamed tuple (a=0, b=1, c=2 in attribute order), then the count.
    assert_eq!(stdout(&out).trim(), "0 1 2\n1");

    let rejected = lbtool(
        &s.0,
        &[
            "join",
            &db,
            TRIANGLE_QUERY,
            "--print",
            "--checkpoint",
            "j.ck",
        ],
    );
    assert_eq!(exit(&rejected), 1, "stderr: {}", stderr(&rejected));
    assert!(
        stderr(&rejected).contains("--print"),
        "diagnostic must name the conflicting flag: {}",
        stderr(&rejected)
    );
}

#[test]
fn triangle_checkpoint_roundtrip_reaches_the_same_count() {
    let s = Scratch::new("triangle");
    let g = s.write("g.graph", TWO_TRIANGLES);
    let direct = lbtool(&s.0, &["triangle", &g]);
    assert_eq!(exit(&direct), 0, "stderr: {}", stderr(&direct));
    assert_eq!(stdout(&direct).trim(), "2");

    let exhausted = lbtool(
        &s.0,
        &["triangle", &g, "--budget", "4", "--checkpoint", "t.ck"],
    );
    assert_eq!(exit(&exhausted), 3, "stderr: {}", stderr(&exhausted));
    assert!(stderr(&exhausted).contains("resumable"));

    let resumed = lbtool(&s.0, &["triangle", &g, "--resume", "t.ck"]);
    assert_eq!(exit(&resumed), 0, "stderr: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed).trim(), "2");
}

#[test]
fn clique_find_and_count_support_checkpoints() {
    let s = Scratch::new("clique");
    let g = s.write("g.graph", TWO_TRIANGLES);
    let found = lbtool(&s.0, &["clique", &g, "3"]);
    assert_eq!(exit(&found), 0, "stderr: {}", stderr(&found));
    assert!(stdout(&found).starts_with("CLIQUE"));

    let counted = lbtool(&s.0, &["clique", &g, "3", "--count"]);
    assert_eq!(exit(&counted), 0, "stderr: {}", stderr(&counted));
    assert_eq!(stdout(&counted).trim(), "2");

    let exhausted = lbtool(
        &s.0,
        &[
            "clique",
            &g,
            "3",
            "--count",
            "--budget",
            "4",
            "--checkpoint",
            "c.ck",
        ],
    );
    assert_eq!(exit(&exhausted), 3, "stderr: {}", stderr(&exhausted));
    assert!(stderr(&exhausted).contains("resumable"));

    let resumed = lbtool(&s.0, &["clique", &g, "3", "--count", "--resume", "c.ck"]);
    assert_eq!(exit(&resumed), 0, "stderr: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed).trim(), "2");

    let none = lbtool(&s.0, &["clique", &g, "4"]);
    assert_eq!(exit(&none), 0, "stderr: {}", stderr(&none));
    assert_eq!(stdout(&none).trim(), "NONE");
}

#[test]
fn exhaustion_without_a_checkpoint_is_terminal() {
    let s = Scratch::new("terminal");
    let g = s.write("g.graph", TWO_TRIANGLES);
    let out = lbtool(&s.0, &["triangle", &g, "--budget", "4"]);
    assert_eq!(exit(&out), 3, "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "UNKNOWN");
    assert!(
        stderr(&out).contains("terminal"),
        "no saved frontier means terminal exhaustion: {}",
        stderr(&out)
    );
}

#[test]
fn checkpoint_flags_are_rejected_on_unsupported_subcommands() {
    let s = Scratch::new("reject");
    let g = s.write("g.graph", TWO_TRIANGLES);
    let out = lbtool(&s.0, &["treewidth", &g, "--checkpoint", "x.ck"]);
    assert_eq!(exit(&out), 2);
    assert!(stderr(&out).contains("--checkpoint"));
}

#[test]
fn malformed_database_rows_are_positioned_parse_errors() {
    let s = Scratch::new("baddb");
    let db = s.write("bad.db", "rel R 2\n0 1 2\n");
    let out = lbtool(&s.0, &["join", &db, "R(a,b)"]);
    assert_eq!(exit(&out), 1);
    assert!(
        stderr(&out).contains("bad.db:2:1"),
        "diagnostic must carry file:line:col: {}",
        stderr(&out)
    );
}

#[test]
fn rho_star_refuses_comma_separated_atoms() {
    let s = Scratch::new("rho");
    let out = lbtool(&s.0, &["rho-star", TRIANGLE_QUERY]);
    assert_eq!(exit(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("ρ*:      3/2"), "{}", stdout(&out));
    // Before names were checked, this read as one 6-ary atom with ρ* 1.
    let out = lbtool(&s.0, &["rho-star", "R(a,b),S(a,c),T(b,c)"]);
    assert_eq!(exit(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("<query>:1:6") && stderr(&out).contains("`)` in a name"),
        "diagnostic must name the offending column: {}",
        stderr(&out)
    );
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 20,000 rows of `i i`: about 200 KiB of answer lines, far more than a
    // pipe buffers, so lbtool is still writing when the reader goes away.
    let dir = Scratch::new("closed-stdout");
    let rows: String = (0..20_000).map(|i| format!("{i} {i}\n")).collect();
    let db = dir.write("big.db", &format!("rel R 2\n{rows}"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_lbtool"))
        .args(["join", &db, "R(a,b)", "--print"])
        .current_dir(&dir.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lbtool");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first tuple");
    assert_eq!(first, "0 0\n");
    // The reader is dropped here: lbtool's next writes hit a closed pipe.
    let out = child.wait_with_output().expect("wait for lbtool");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "lbtool panicked: {err}");
    assert_ne!(out.status.code(), Some(101), "stderr: {err}");
}
