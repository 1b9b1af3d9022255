//! Executed checkpoint goldens: the checkpoint formats a spool may hold
//! must still resume, byte for byte.
//!
//! `crates/engine/fixtures/goldens/` holds one LBCK blob per resumable
//! family and mode at its current payload version, each the frontier of
//! one named instance after a first slice of a fixed number of ticks, plus
//! one served job log (`spool/jobs/j1.job`: an admission record frame and
//! one `LBPG` progress frame). Each golden must
//!
//! - regenerate byte for byte from its instance and slice, so an
//!   encoder change with no payload-version bump fails here;
//! - decode, resume to its pinned verdict and summed [`RunStats`], and
//!   re-encode byte for byte (a zero-tick resume makes one operation on the
//!   decoded state and must encode what a fresh run one tick longer
//!   encodes), so a decoder change fails here;
//! - for the job log, recover through `Spool::recover` and the scheduler
//!   to the uninterrupted reference verdict.
//!
//! A format change that bumps a payload version moves the family's old
//! golden under `skew/`, where it must be refused with a typed
//! `PayloadVersionSkew` and, under served recovery, restart from scratch.
//! On a byte mismatch the fresh blob is written under this test target's
//! `CARGO_TARGET_TMPDIR` (`goldens/<name>`), ready to be committed once the
//! change is meant.

use lb_serve::job::{JobFamily, JobRecord, JobSpec, JobStatus};
use lb_serve::runner::{self, SliceError, SliceOutcome};
use lb_serve::scheduler::{Scheduler, SchedulerConfig};
use lb_serve::spool::{Progress, Spool};
use lb_serve::Verdict;
use lowerbounds::csp::generators::random_binary_csp;
use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
use lowerbounds::engine::checkpoint::{
    Checkpoint, CheckpointError, ResumableOutcome, SolverFamily,
};
use lowerbounds::engine::resumable::{count_slice, find_slice};
use lowerbounds::engine::{Budget, RunStats};
use lowerbounds::graph::generators::gnp;
use lowerbounds::graphalg::{clique, triangle};
use lowerbounds::join::{generators, wcoj, JoinQuery};
use lowerbounds::sat::generators::random_ksat;
use lowerbounds::sat::DpllSolver;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

const GOLDENS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/engine/fixtures/goldens"
);

/// One same-version golden: `<name>.lbck`, the frontier after a first
/// slice of `ticks` on the instance [`slice`] names, the verdict its
/// resume reaches (the outcome's `Debug` text), and the first slice's and
/// the resume's summed counters as `[nodes, propagations, trie_advances,
/// tuples, backtracks, max_intermediate]`.
struct Golden {
    name: &'static str,
    ticks: u64,
    verdict: &'static str,
    stats: [u64; 6],
}

const GOLDEN_PINS: [Golden; 9] = [
    Golden {
        name: "dpll",
        ticks: 170,
        verdict: "Unsat",
        stats: [27, 284, 0, 0, 28, 17],
    },
    Golden {
        name: "csp-solve",
        ticks: 13,
        verdict: "Sat([0, 0, 2, 0, 1, 0, 0, 0, 0, 2])",
        stats: [12, 0, 0, 0, 14, 10],
    },
    Golden {
        name: "csp-count",
        ticks: 95,
        verdict: "Sat(45)",
        stats: [107, 0, 0, 0, 83, 10],
    },
    Golden {
        name: "join-count",
        ticks: 500,
        verdict: "Sat(113)",
        stats: [320, 0, 588, 113, 0, 3],
    },
    Golden {
        name: "join-is-empty",
        ticks: 90,
        verdict: "Sat(false)",
        stats: [59, 0, 115, 1, 0, 3],
    },
    Golden {
        name: "triangle-find",
        ticks: 30,
        verdict: "Unsat",
        stats: [60, 0, 0, 0, 0, 0],
    },
    Golden {
        name: "triangle-count",
        ticks: 40,
        verdict: "Sat(44)",
        stats: [79, 0, 0, 0, 0, 5],
    },
    Golden {
        name: "clique-find",
        ticks: 15,
        verdict: "Sat([2, 6, 17, 21])",
        stats: [29, 0, 0, 0, 0, 4],
    },
    Golden {
        name: "clique-count",
        ticks: 100,
        verdict: "Sat(3)",
        stats: [141, 0, 0, 0, 0, 4],
    },
];

/// A slice's end: the settled outcome's `Debug` text, or the frontier.
enum Step {
    Done(String),
    Suspended(Checkpoint),
}

fn step<W: Debug>(
    run: Result<(ResumableOutcome<W>, RunStats), CheckpointError>,
) -> Result<(Step, RunStats), CheckpointError> {
    let (out, stats) = run?;
    let step = match out {
        ResumableOutcome::Suspended { checkpoint, .. } => Step::Suspended(checkpoint),
        done => Step::Done(format!("{:?}", done.into_outcome())),
    };
    Ok((step, stats))
}

impl Step {
    /// A join find's verdict as the emptiness check's: an answer means
    /// not empty.
    fn emptiness(self) -> Step {
        match self {
            Step::Done(v) => Step::Done(format!("Sat({})", v == "Unsat")),
            frontier => frontier,
        }
    }
}

/// One slice of the golden `name`'s search and mode on its instance.
fn slice(
    name: &str,
    budget: &Budget,
    from: Option<&Checkpoint>,
) -> Result<(Step, RunStats), CheckpointError> {
    let csp = random_binary_csp(&gnp(10, 0.5, 4), 3, 0.25, 4);
    let csp = backtracking::CspSearch::new(&csp, BacktrackConfig::default());
    let q = JoinQuery::triangle();
    let join_db = |domain| generators::random_binary_database(&q, 80, domain, 7);
    let graph = gnp(24, 0.35, 5);
    let grid = lowerbounds::graph::generators::grid(6, 6);
    match name {
        "dpll" => {
            let f = random_ksat(30, 128, 3, 2);
            step(find_slice(&DpllSolver::default().search(&f), budget, from))
        }
        "csp-solve" => step(find_slice(&csp, budget, from)),
        "csp-count" => step(count_slice(&csp, budget, from)),
        "join-count" => {
            let db = join_db(14);
            let search = wcoj::JoinSearch::new(&q, &db, None).expect("golden join instance");
            step(count_slice(&search, budget, from))
        }
        "join-is-empty" => {
            let db = join_db(60);
            let search = wcoj::JoinSearch::new(&q, &db, None).expect("golden join instance");
            step(find_slice(&search, budget, from)).map(|(s, stats)| (s.emptiness(), stats))
        }
        "triangle-find" => step(find_slice(
            &triangle::TriangleScan::new(&grid),
            budget,
            from,
        )),
        "triangle-count" => step(count_slice(
            &triangle::TriangleScan::new(&graph),
            budget,
            from,
        )),
        "clique-find" => step(find_slice(
            &clique::CliqueSearch::new(&graph, 4),
            budget,
            from,
        )),
        "clique-count" => step(count_slice(
            &clique::CliqueSearch::new(&graph, 4),
            budget,
            from,
        )),
        _ => panic!("no instance for golden `{name}`"),
    }
}

fn counters(s: &RunStats) -> [u64; 6] {
    [
        s.nodes,
        s.propagations,
        s.trie_advances,
        s.tuples,
        s.backtracks,
        s.max_intermediate,
    ]
}

/// The committed golden at `rel` (empty if missing).
fn read_golden(rel: &str) -> Vec<u8> {
    fs::read(Path::new(GOLDENS).join(rel)).unwrap_or_default()
}

/// `None` if `fresh` equals the committed golden at `rel`; otherwise the
/// fresh bytes are written under `CARGO_TARGET_TMPDIR` and the mismatch
/// is described.
fn golden_drift(rel: &str, fresh: &[u8]) -> Option<String> {
    let committed = read_golden(rel);
    if committed == fresh {
        return None;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("goldens")
        .join(rel);
    fs::create_dir_all(out.parent().expect("a file path")).expect("create the output dir");
    fs::write(&out, fresh).expect("write the fresh golden");
    let at = committed
        .iter()
        .zip(fresh)
        .position(|(a, b)| a != b)
        .unwrap_or(committed.len().min(fresh.len()));
    Some(format!(
        "golden `{rel}` ({} bytes) differs from a fresh run ({} bytes) from byte {at}; \
         the fresh bytes are in {}",
        committed.len(),
        fresh.len(),
        out.display()
    ))
}

/// The frontier of the golden `name` after its first slice of `ticks`.
fn first_slice(name: &str, ticks: u64) -> (Checkpoint, RunStats) {
    match slice(name, &Budget::ticks(ticks), None) {
        Ok((Step::Suspended(ck), stats)) => (ck, stats),
        Ok((Step::Done(v), _)) => panic!("{name}: settled as {v} within {ticks} ticks"),
        Err(e) => panic!("{name}: {e}"),
    }
}

#[test]
fn every_golden_regenerates_byte_for_byte() {
    let drifted: Vec<String> = GOLDEN_PINS
        .iter()
        .filter_map(|g| {
            let (ck, _) = first_slice(g.name, g.ticks);
            golden_drift(&format!("{}.lbck", g.name), &ck.to_bytes())
        })
        .collect();
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

/// The committed golden `name`, decoded.
fn golden(name: &str) -> Checkpoint {
    Checkpoint::from_bytes(&read_golden(&format!("{name}.lbck")))
        .unwrap_or_else(|e| panic!("{name}: golden does not decode: {e}"))
}

#[test]
fn every_golden_resumes_to_its_pinned_verdict() {
    let mut got = Vec::new();
    for g in &GOLDEN_PINS {
        let (_, mut summed) = first_slice(g.name, g.ticks);
        let verdict = match slice(g.name, &Budget::unlimited(), Some(&golden(g.name))) {
            Ok((Step::Done(v), stats)) => {
                summed.absorb(&stats);
                v
            }
            Ok((Step::Suspended(_), _)) => panic!("{}: suspended unlimited", g.name),
            Err(e) => panic!("{}: golden does not resume: {e}", g.name),
        };
        got.push((g.name, verdict, counters(&summed)));
    }
    let pinned: Vec<(&str, String, [u64; 6])> = GOLDEN_PINS
        .iter()
        .map(|g| (g.name, g.verdict.to_string(), g.stats))
        .collect();
    assert!(
        got == pinned,
        "golden resumes changed; recomputed (name, verdict, stats):\n{}",
        got.iter()
            .map(|r| format!("    {r:?},\n"))
            .collect::<String>()
    );
}

#[test]
fn every_golden_reencodes_byte_for_byte() {
    for g in &GOLDEN_PINS {
        // A zero-tick resume decodes the frontier, makes the one operation
        // every slice makes, and suspends: it must encode exactly what an
        // uninterrupted run one tick longer does.
        let (next, _) = first_slice(g.name, g.ticks + 1);
        match slice(g.name, &Budget::ticks(0), Some(&golden(g.name))) {
            Ok((Step::Suspended(again), _)) => assert!(
                again.to_bytes() == next.to_bytes(),
                "{}: the decoded frontier re-encodes differently",
                g.name
            ),
            Ok((Step::Done(v), _)) => panic!("{}: settled as {v} on zero ticks", g.name),
            Err(e) => panic!("{}: {e}", g.name),
        }
    }
}

#[test]
fn every_family_and_mode_has_a_golden() {
    let families: BTreeSet<u16> = GOLDEN_PINS
        .iter()
        .map(|g| golden(g.name).family().tag())
        .collect();
    let all: BTreeSet<u16> = SolverFamily::ALL.iter().map(|f| f.tag()).collect();
    assert_eq!(families, all, "a solver family has no golden");
    // Two modes for every family but DPLL, which only solves.
    assert_eq!(GOLDEN_PINS.len(), 2 * SolverFamily::ALL.len() - 1);
}

/// The served job of the spool golden and of the skew cases: a triangle
/// join over the 10 pairs `i < j` of `0..5` in each relation.
fn join_job() -> JobRecord {
    let pairs: String = (0..5)
        .flat_map(|i| ((i + 1)..5).map(move |j| format!("{i} {j}\n")))
        .collect();
    let payload = ["R", "S", "T"]
        .iter()
        .fold(String::from("R(a,b) S(a,c) T(b,c)\n"), |acc, r| {
            format!("{acc}rel {r} 2\n{pairs}")
        });
    JobRecord {
        id: "j1".into(),
        spec: JobSpec {
            tenant: "t0".into(),
            family: JobFamily::Join,
            k: 0,
            budget: None,
            payload,
        },
        status: JobStatus::Queued,
        preemptions: 0,
        spent: 0,
        attempts: 0,
    }
}

/// Ticks of the served job's first slice, and of every slice after it.
const SPOOL_SLICE: u64 = 8;

fn scratch(test: &str) -> (PathBuf, Spool) {
    let dir = std::env::temp_dir().join(format!("lb-goldens-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let spool = Spool::open(&dir).expect("open a scratch spool");
    (dir, spool)
}

fn reference(rec: &JobRecord) -> Verdict {
    let instance = rec.spec.instance().expect("the job parses");
    runner::solve_to_verdict(&instance, SPOOL_SLICE, None)
        .expect("the reference run settles")
        .0
}

/// Recovers `spool`, runs its one job to a verdict, and returns the job's
/// final status line and the recovery's discarded-checkpoint count.
fn serve_to_verdict(spool: &Spool) -> (lb_serve::protocol::StatusReport, usize) {
    let cfg = SchedulerConfig {
        slice_ticks: SPOOL_SLICE,
        workers: 1,
        retry_backoff_ms: 1,
        ..SchedulerConfig::default()
    };
    let (sched, report) = Scheduler::recover(spool.clone(), cfg).expect("recover");
    assert_eq!(report.resumed, 1, "{report:?}");
    let workers = sched.spawn_workers();
    let mut waited = Duration::ZERO;
    let status = loop {
        let status = sched.status("j1").expect("the job is known");
        if status.verdict.is_some() {
            break status;
        }
        assert!(waited < Duration::from_secs(30), "j1 never settled");
        std::thread::sleep(Duration::from_micros(200));
        waited += Duration::from_micros(200);
    };
    sched.drain();
    for w in workers {
        w.join().expect("worker exits");
    }
    (status, report.discarded_checkpoints.len())
}

#[test]
fn the_spool_golden_regenerates_and_recovers_to_the_reference_verdict() {
    let rec = join_job();
    let (dir, spool) = scratch("spool-regen");
    spool.save_record(&rec).expect("admission frame");
    let instance = rec.spec.instance().expect("the job parses");
    match runner::solve_slice(&instance, &Budget::ticks(SPOOL_SLICE), None) {
        Ok((SliceOutcome::Suspended { checkpoint, .. }, stats)) => {
            let progress = Progress {
                preemptions: 1,
                spent: stats.total_ops(),
            };
            spool
                .save_progress("j1", progress, &checkpoint)
                .expect("progress frame");
        }
        other => panic!("expected a suspension, got {other:?}"),
    }
    let log = fs::read(spool.job_path("j1")).expect("the log");
    if let Some(drift) = golden_drift("spool/jobs/j1.job", &log) {
        panic!("{drift}");
    }
    let _ = fs::remove_dir_all(&dir);

    let (dir, spool) = scratch("spool-recover");
    fs::write(spool.job_path("j1"), read_golden("spool/jobs/j1.job")).expect("install");
    let (status, discarded) = serve_to_verdict(&spool);
    assert_eq!(discarded, 0, "the golden frontier decodes");
    assert_eq!(status.attempts, 0, "no rung climbed");
    assert!(status.preemptions >= 1, "{status:?}");
    assert_eq!(status.verdict, Some(reference(&rec)));
    let _ = fs::remove_dir_all(&dir);
}

/// Goldens of superseded payload versions, under `skew/`: the file, its
/// family, and its payload version. The served job of each is
/// [`join_job`]'s instance.
const SKEWED: [(&str, SolverFamily, u16); 1] =
    [("generic-join-v1.lbck", SolverFamily::GenericJoin, 1)];

#[test]
fn skewed_goldens_are_refused_and_restart_from_scratch() {
    let rec = join_job();
    let instance = rec.spec.instance().expect("the job parses");
    for (file, family, found) in SKEWED {
        let ck = Checkpoint::from_bytes(&read_golden(&format!("skew/{file}")))
            .unwrap_or_else(|e| panic!("{file}: the container must still decode: {e}"));
        assert_eq!((ck.family(), ck.payload_version()), (family, found));
        match runner::solve_slice(&instance, &Budget::unlimited(), Some(&ck)) {
            Err(SliceError::Checkpoint(CheckpointError::PayloadVersionSkew {
                family: f,
                found: v,
                ..
            })) => assert_eq!((f, v), (family, found), "{file}"),
            other => panic!("{file}: expected a payload version skew, got {other:?}"),
        }

        // Served recovery: the job resumes on the skewed frontier, its
        // first slice refuses it, and the retry starts from scratch.
        let (dir, spool) = scratch("skew");
        spool.save_record(&rec).expect("admission frame");
        spool.save_checkpoint("j1", &ck).expect("progress frame");
        let (status, _) = serve_to_verdict(&spool);
        assert_eq!(
            status.attempts, 1,
            "{file}: one rung for the refused frontier"
        );
        assert_eq!(status.verdict, Some(reference(&rec)), "{file}");
        let _ = fs::remove_dir_all(&dir);
    }
}
