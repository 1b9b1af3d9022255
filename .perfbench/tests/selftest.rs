//! Self-test: a two-second run of every workload in both modes, with the
//! benchmark's real pools and set-ups, through the same `run.sh` the
//! benchmark command uses. Each run must print every metric
//! `BENCHMARK.json` declares for its mode, with the declared unit, and
//! settle every operation correctly at the seed.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`, which
/// keeps one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    let mut in_section = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with('"') && line.contains("\": [") {
            in_section = line.contains(&format!("\"{section}\""));
        }
        if in_section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(!out.is_empty(), "no metrics declared under {section}");
    out
}

/// Runs one workload for two seconds and returns the last stdout line.
fn run(workload: &str, trace: u8) -> String {
    let root = repo_root();
    let out = Command::new("bash")
        .arg(".perfbench/run.sh")
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .args(["--trace", &trace.to_string()])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join(".bench_build"))
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let result = run(workload, trace);
        assert!(
            result.starts_with("{\"correct\": true"),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
        for (name, unit) in declared(section) {
            // Each metric renders as `"name": {"value": v, "unit": "u"}`.
            let body = result
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .and_then(|rest| rest.split('}').next())
                .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {result}"));
            let (value, unit_field) = body.split_once(", ").expect("value, unit");
            assert_eq!(
                unit_field,
                format!("\"unit\": \"{unit}\""),
                "{workload}: unit of {name}"
            );
            let value: f64 = value.parse().expect("a number");
            if trace == 0 {
                assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
            }
            if name == "failed_frac" {
                assert_eq!(value, 0.0, "{workload}: failed_frac");
            }
        }
    }
}

#[test]
fn solve_join_reports_every_metric() {
    check("solve_join");
}

#[test]
fn solve_search_reports_every_metric() {
    check("solve_search");
}

#[test]
fn serve_mixed_reports_every_metric() {
    check("serve_mixed");
}
