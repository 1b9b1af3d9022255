//! Conformance of every resumable family and mode to the one interface,
//! `lowerbounds::engine::resumable`: each family implements `Resumable`
//! (and `Countable` where it counts), and the `find_slice`/`count_slice`
//! drivers do the checking. Two table-driven tests:
//!
//! - **Refusals.** Each family and mode starts from its checkpoint golden
//!   (`crates/engine/fixtures/goldens/`) and must refuse, with a typed
//!   `CheckpointError` and never a panic: every strict prefix of the golden's
//!   payload in a valid container; a checkpoint its other mode wrote on the
//!   same instance; the payload under every other family's tag
//!   (`WrongFamily`) and under the next payload version
//!   (`PayloadVersionSkew`); and the golden against a changed instance or
//!   configuration (`InstanceMismatch`). DPLL only finds: its search is
//!   not `Countable`, so a count of it does not compile.
//! - **Slices equal the one-shot entry points.** Chained slices, every
//!   checkpoint round-tripped through bytes, reach the verdict (witness
//!   included) and the summed `RunStats` of the family's one-shot entry
//!   point (`DpllSolver::solve`, `backtracking::solve`/`count`, the join's
//!   `resumable::find` (which `wcoj::is_empty` wraps) and `wcoj::count`,
//!   `find_triangle_naive`/`count_triangles`,
//!   `find_clique`/`count_cliques`), over every configuration; join counts
//!   also equal the reference join's.

use lowerbounds::csp::generators::random_binary_csp;
use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
use lowerbounds::engine::checkpoint::{
    Checkpoint, CheckpointError, ResumableOutcome, SolverFamily,
};
use lowerbounds::engine::resumable::{self, count_slice, find_slice, Countable, Resumable};
use lowerbounds::engine::{Budget, Outcome, RunStats};
use lowerbounds::graph::generators::{gnp, grid};
use lowerbounds::graphalg::{clique, triangle};
use lowerbounds::join::{generators, reference, wcoj, Database, JoinQuery, Table};
use lowerbounds::sat::generators::random_ksat;
use lowerbounds::sat::{Branching, DpllConfig, DpllSolver};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One slice of one mode of one search, its answer rendered with `Debug`.
type Slice<'a> = Box<
    dyn Fn(
            &Budget,
            Option<&Checkpoint>,
        ) -> Result<(ResumableOutcome<String>, RunStats), CheckpointError>
        + 'a,
>;

fn rendered<W: Debug>(out: ResumableOutcome<W>) -> ResumableOutcome<String> {
    match out {
        ResumableOutcome::Sat(w) => ResumableOutcome::Sat(format!("{w:?}")),
        ResumableOutcome::Unsat => ResumableOutcome::Unsat,
        ResumableOutcome::Suspended { reason, checkpoint } => {
            ResumableOutcome::Suspended { reason, checkpoint }
        }
    }
}

/// Find mode of `search`.
fn find<'a, S: Resumable + 'a>(search: S) -> Slice<'a>
where
    S::Answer: Debug,
{
    Box::new(move |b, from| find_slice(&search, b, from).map(|(o, s)| (rendered(o), s)))
}

/// Count mode of `search`.
fn count<'a, S: Countable + 'a>(search: S) -> Slice<'a> {
    Box::new(move |b, from| count_slice(&search, b, from).map(|(o, s)| (rendered(o), s)))
}

fn join<'a>(q: &'a JoinQuery, db: &'a Database, order: Option<&[String]>) -> wcoj::JoinSearch<'a> {
    wcoj::JoinSearch::new(q, db, order).expect("a valid join instance")
}

/// One family and mode: its golden, the search of the golden's instance,
/// the other mode on the same instance (none for DPLL), and searches of
/// changed instances or configurations.
struct Refusals<'a> {
    golden: &'static str,
    this: Slice<'a>,
    other_mode: Option<Slice<'a>>,
    changed: Vec<Slice<'a>>,
}

fn read_golden(name: &str) -> Checkpoint {
    let path = format!(
        "{}/crates/engine/fixtures/goldens/{name}.lbck",
        env!("CARGO_MANIFEST_DIR")
    );
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Checkpoint::from_bytes(&bytes).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Resumes `ck` with `slice` on a zero-tick budget, catching a panic.
fn resume(
    slice: &Slice<'_>,
    ck: &Checkpoint,
) -> Result<(ResumableOutcome<String>, RunStats), CheckpointError> {
    catch_unwind(AssertUnwindSafe(|| slice(&Budget::ticks(0), Some(ck))))
        .unwrap_or_else(|_| panic!("resuming a {} checkpoint panicked", ck.family()))
}

fn check_refusals(case: &Refusals<'_>) {
    let name = case.golden;
    let golden = read_golden(name);
    let (family, version) = (golden.family(), golden.payload_version());
    let payload = golden.payload();
    assert!(
        resume(&case.this, &golden).is_ok(),
        "{name}: the golden must resume on its own instance"
    );

    for n in 0..payload.len() {
        let prefix = Checkpoint::new(family, version, payload[..n].to_vec());
        match resume(&case.this, &prefix) {
            Err(CheckpointError::Truncated { .. } | CheckpointError::Malformed { .. }) => {}
            other => panic!("{name}: a {n}-byte payload prefix gave {other:?}"),
        }
    }

    if let Some(other) = &case.other_mode {
        let written = match other(&Budget::ticks(0), None) {
            Ok((ResumableOutcome::Suspended { checkpoint, .. }, _)) => checkpoint,
            other => panic!("{name}: the other mode did not suspend: {other:?}"),
        };
        assert!(
            matches!(
                resume(&case.this, &written),
                Err(CheckpointError::Malformed { offset: 8, .. })
            ),
            "{name}: a checkpoint of the other mode was not refused at its mode byte"
        );
    }

    for alien in SolverFamily::ALL.into_iter().filter(|&f| f != family) {
        let ck = Checkpoint::new(alien, version, payload.to_vec());
        assert_eq!(
            resume(&case.this, &ck).err(),
            Some(CheckpointError::WrongFamily {
                expected: family,
                found: alien
            }),
            "{name}: under the `{alien}` tag"
        );
    }
    let skewed = Checkpoint::new(family, version + 1, payload.to_vec());
    assert!(
        matches!(
            resume(&case.this, &skewed),
            Err(CheckpointError::PayloadVersionSkew { .. })
        ),
        "{name}: under payload version {}",
        version + 1
    );

    for (i, changed) in case.changed.iter().enumerate() {
        assert!(
            matches!(
                resume(changed, &golden),
                Err(CheckpointError::InstanceMismatch { .. })
            ),
            "{name}: changed instance {i} accepted the golden"
        );
    }
}

#[test]
fn every_family_and_mode_refuses_what_it_did_not_write() {
    // The goldens' instances, as `tests/checkpoint_goldens.rs` builds them,
    // and a changed instance for each.
    let (f, f2) = (random_ksat(30, 128, 3, 2), random_ksat(30, 128, 3, 3));
    let first_unassigned = DpllSolver::new(DpllConfig {
        branching: Branching::FirstUnassigned,
        ..DpllConfig::default()
    });
    let csp = random_binary_csp(&gnp(10, 0.5, 4), 3, 0.25, 4);
    let csp2 = random_binary_csp(&gnp(10, 0.5, 5), 3, 0.25, 5);
    let plain = BacktrackConfig {
        mrv: false,
        forward_checking: false,
    };
    let csp_search = |inst, config| backtracking::CspSearch::new(inst, config);
    let q = JoinQuery::triangle();
    let db = |domain, seed| generators::random_binary_database(&q, 80, domain, seed);
    let (db14, db14b, db60, db60b) = (db(14, 7), db(14, 8), db(60, 7), db(60, 8));
    let mut reversed = q.attributes();
    reversed.reverse();
    let (g, g2) = (gnp(24, 0.35, 5), gnp(24, 0.35, 6));
    let (grid66, grid67) = (grid(6, 6), grid(6, 7));
    let dpll = DpllSolver::default();
    let default = BacktrackConfig::default();
    let scan = triangle::TriangleScan::new;
    let cliques = clique::CliqueSearch::new;

    let cases = vec![
        Refusals {
            golden: "dpll",
            this: find(dpll.search(&f)),
            other_mode: None,
            changed: vec![find(dpll.search(&f2)), find(first_unassigned.search(&f))],
        },
        Refusals {
            golden: "csp-solve",
            this: find(csp_search(&csp, default)),
            other_mode: Some(count(csp_search(&csp, default))),
            changed: vec![
                find(csp_search(&csp2, default)),
                find(csp_search(&csp, plain)),
            ],
        },
        Refusals {
            golden: "csp-count",
            this: count(csp_search(&csp, default)),
            other_mode: Some(find(csp_search(&csp, default))),
            changed: vec![
                count(csp_search(&csp2, default)),
                count(csp_search(&csp, plain)),
            ],
        },
        Refusals {
            golden: "join-count",
            this: count(join(&q, &db14, None)),
            other_mode: Some(find(join(&q, &db14, None))),
            changed: vec![
                count(join(&q, &db14b, None)),
                count(join(&q, &db14, Some(&reversed))),
            ],
        },
        Refusals {
            golden: "join-is-empty",
            this: find(join(&q, &db60, None)),
            other_mode: Some(count(join(&q, &db60, None))),
            changed: vec![
                find(join(&q, &db60b, None)),
                find(join(&q, &db60, Some(&reversed))),
            ],
        },
        Refusals {
            golden: "triangle-find",
            this: find(scan(&grid66)),
            other_mode: Some(count(scan(&grid66))),
            changed: vec![find(scan(&grid67))],
        },
        Refusals {
            golden: "triangle-count",
            this: count(scan(&g)),
            other_mode: Some(find(scan(&g))),
            changed: vec![count(scan(&g2))],
        },
        Refusals {
            golden: "clique-find",
            this: find(cliques(&g, 4)),
            other_mode: Some(count(cliques(&g, 4))),
            changed: vec![find(cliques(&g2, 4)), find(cliques(&g, 5))],
        },
        Refusals {
            golden: "clique-count",
            this: count(cliques(&g, 4)),
            other_mode: Some(find(cliques(&g, 4))),
            changed: vec![count(cliques(&g2, 4)), count(cliques(&g, 5))],
        },
    ];
    assert_eq!(cases.len(), 2 * SolverFamily::ALL.len() - 1);
    for case in &cases {
        check_refusals(case);
    }
}

fn one_shot<W: Debug>((out, stats): (Outcome<W>, RunStats)) -> (Outcome<String>, RunStats) {
    (out.map(|w| format!("{w:?}")), stats)
}

/// Chains `slice` through slices of each of `ticks`, every checkpoint
/// through its bytes, and requires the one-shot entry point's outcome and
/// counters.
fn assert_equivalent(
    mode: &str,
    slice: Slice<'_>,
    want: (Outcome<String>, RunStats),
    ticks: &[u64],
) {
    for &t in ticks {
        let mut from: Option<Checkpoint> = None;
        let mut summed = RunStats::default();
        let got = loop {
            let (out, stats) = slice(&Budget::ticks(t), from.as_ref()).expect("clean resume");
            summed.absorb(&stats);
            match out {
                ResumableOutcome::Suspended { checkpoint, .. } => {
                    let bytes = checkpoint.to_bytes();
                    from = Some(Checkpoint::from_bytes(&bytes).expect("round trip"));
                }
                done => break done.into_outcome(),
            }
        };
        assert_eq!((got, summed), want, "{mode}, {t}-tick slices");
    }
}

#[test]
fn sliced_runs_equal_the_one_shot_entry_points() {
    let all = Budget::unlimited();
    for seed in 0..6 {
        let f = random_ksat(8, 30, 3, seed);
        for unit_propagation in [false, true] {
            for pure_literal in [false, true] {
                for branching in [Branching::FirstUnassigned, Branching::MostFrequent] {
                    let s = DpllSolver::new(DpllConfig {
                        unit_propagation,
                        pure_literal,
                        branching,
                    });
                    assert_equivalent(
                        "dpll",
                        find(s.search(&f)),
                        one_shot(s.solve(&f, &all)),
                        &[7],
                    );
                }
            }
        }
        let inst = random_binary_csp(&gnp(6, 0.5, seed), 3, 0.4, seed);
        for mrv in [false, true] {
            for forward_checking in [false, true] {
                let c = BacktrackConfig {
                    mrv,
                    forward_checking,
                };
                let search = || backtracking::CspSearch::new(&inst, c);
                let solved = one_shot(backtracking::solve(&inst, c, &all));
                assert_equivalent("csp-solve", find(search()), solved, &[5]);
                let counted = one_shot(backtracking::count(&inst, c, &all));
                assert_equivalent("csp-count", count(search()), counted, &[5]);
            }
        }
        let g = gnp(16, 0.45, seed);
        for k in [3, 4] {
            let found = one_shot(clique::find_clique(&g, k, &all));
            assert_equivalent(
                "clique-find",
                find(clique::CliqueSearch::new(&g, k)),
                found,
                &[5],
            );
            let counted = one_shot(clique::count_cliques(&g, k, &all));
            assert_equivalent(
                "clique-count",
                count(clique::CliqueSearch::new(&g, k)),
                counted,
                &[5],
            );
        }
    }
    for seed in 0..8 {
        let g = gnp(25, 0.15, seed);
        let found = one_shot(triangle::find_triangle_naive(&g, &all));
        assert_equivalent(
            "triangle-find",
            find(triangle::TriangleScan::new(&g)),
            found,
            &[4],
        );
        let counted = one_shot(triangle::count_triangles(&g, &all));
        assert_equivalent(
            "triangle-count",
            count(triangle::TriangleScan::new(&g)),
            counted,
            &[4],
        );
    }
    let triangle = JoinQuery::triangle();
    let mut joins: Vec<_> = (0..6)
        .map(|seed| {
            let db = generators::random_binary_database(&triangle, 30, 8, seed);
            (triangle.clone(), db)
        })
        .collect();
    // Slices small enough to suspend mid-leapfrog (Bind/Step phases).
    joins.push((triangle.clone(), heavy_hitter_db(16, 60)));
    for (q, rows, domain) in [
        (JoinQuery::triangle(), 40, 10),
        (JoinQuery::cycle(4), 30, 8),
        (JoinQuery::clique(4), 25, 6),
        (JoinQuery::loomis_whitney(3), 25, 6),
        (JoinQuery::star(3), 30, 8),
    ] {
        let db = generators::skewed_database(&q, rows, domain, 11);
        joins.push((q, db));
    }
    for (q, db) in &joins {
        let search = join(q, db, None);
        let found = one_shot(resumable::find(&search, &all));
        assert_equivalent("join-find", find(search), found, &[1, 3, 6, 7, 9]);
        let counted = wcoj::count(q, db, None, &all).expect("valid database");
        let oracle = reference::count(q, db, None, &all).expect("valid database");
        assert_eq!(
            counted.0, oracle.0,
            "leapfrog and the reference join disagree"
        );
        assert_equivalent(
            "join-count",
            count(join(q, db, None)),
            one_shot(counted),
            &[1, 3, 6, 7, 9],
        );
    }
}

/// A triangle database with one heavy-hitter value (0) whose tails are
/// disjoint runs, so leapfrog frames (and their checkpoints) are heavy.
fn heavy_hitter_db(hub: u64, tail: u64) -> Database {
    let mut db = Database::new();
    let mut r_rows: Vec<Vec<u64>> = (0..hub).map(|b| vec![0, b]).collect();
    r_rows.extend((1..=tail).map(|i| vec![i, i]));
    db.insert("R", Table::from_rows(2, r_rows));
    let mut s_rows: Vec<Vec<u64>> = (0..hub).map(|c| vec![0, c]).collect();
    s_rows.extend((1..=tail).map(|i| vec![10_000 + i, i]));
    db.insert("S", Table::from_rows(2, s_rows));
    let mut t_rows: Vec<Vec<u64>> = (0..hub).map(|x| vec![x, x]).collect();
    t_rows.extend((0..hub).map(|x| vec![x, (x + 1) % hub]));
    db.insert("T", Table::from_rows(2, t_rows));
    db
}
