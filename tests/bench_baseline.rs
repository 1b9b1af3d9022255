//! Tier-1 guard on the committed WCOJ baseline: the pinned workloads,
//! re-run fresh, must match `BENCH_wcoj.json` within its tolerance. This
//! is the same comparison CI's `bench regression` job performs via
//! `experiments bench-wcoj --check`; having it in the root package's
//! `cargo test` means the baseline cannot rot silently between CI
//! configurations.
//!
//! Op counts are machine-independent, so this is deterministic — a failure
//! here means the join machine changed behaviour and the file needs a
//! conscious re-pin (`cargo run --release -p lb-bench --bin experiments
//! bench-wcoj --write`).

use lb_bench::bench_wcoj;

fn committed() -> bench_wcoj::Report {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_wcoj.json"))
        .expect("BENCH_wcoj.json is committed at the repo root");
    bench_wcoj::from_json(&text).expect("committed baseline parses")
}

#[test]
fn committed_baseline_matches_a_fresh_run() {
    let committed = committed();
    let fresh = bench_wcoj::run();
    let problems = bench_wcoj::compare(&committed, &fresh);
    assert!(
        problems.is_empty(),
        "committed BENCH_wcoj.json drifted from a fresh run:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn committed_baseline_covers_every_pinned_workload_class() {
    let committed = committed();
    assert_eq!(committed.schema, bench_wcoj::SCHEMA);
    let names: Vec<&str> = committed
        .workloads
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for required in [
        "triangle_uniform",
        "cycle4_uniform",
        "clique4_uniform",
        "triangle_agm_worst",
        "triangle_skew_zipf",
        "skew_heavy_hitter",
    ] {
        assert!(names.contains(&required), "missing workload `{required}`");
    }
}

#[test]
fn committed_baseline_records_the_skew_win() {
    // The acceptance criterion of the leapfrog rewrite, pinned in the
    // committed file itself: on the heavy-hitter workload the leapfrog
    // op count must stay at least 2x below the frozen reference machine.
    let committed = committed();
    let hh = committed
        .workloads
        .iter()
        .find(|m| m.name == "skew_heavy_hitter")
        .expect("skew workload committed");
    assert!(
        hh.leapfrog.total_ops() * 2 < hh.reference.total_ops(),
        "committed skew win eroded: {} vs {}",
        hh.leapfrog.total_ops(),
        hh.reference.total_ops()
    );
}
