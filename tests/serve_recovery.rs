//! `lb-serve` recovery from the one-write suspension layout: a suspended
//! job's counters travel in a progress envelope in front of its LBCK
//! frontier (`ckpt/<id>.lbck`), and its record is not rewritten per
//! slice. Recovery must resume from the frontier with the larger of the
//! record's and the envelope's counters, still load a bare LBCK blob,
//! and send a torn envelope down the discarded-checkpoint path.

use lb_serve::job::{JobFamily, JobRecord, JobSpec, JobStatus};
use lb_serve::runner::{self, SliceOutcome};
use lb_serve::scheduler::{RecoveryReport, Scheduler, SchedulerConfig};
use lb_serve::spool::{Progress, Spool};
use lowerbounds::engine::{Budget, Checkpoint};
use std::fs;
use std::path::PathBuf;

fn scratch(test: &str) -> (PathBuf, Spool) {
    let dir = std::env::temp_dir().join(format!("lb-serve-recovery-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let spool = Spool::open(&dir).unwrap();
    (dir, spool)
}

/// A queued triangle job (K4, so a one-tick slice always suspends) whose
/// record carries the given counters.
fn queued(id: &str, preemptions: u64, spent: u64) -> JobRecord {
    JobRecord {
        id: id.into(),
        spec: JobSpec {
            tenant: "t0".into(),
            family: JobFamily::Triangle,
            k: 0,
            budget: None,
            payload: "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n".into(),
        },
        status: JobStatus::Queued,
        preemptions,
        spent,
        attempts: 0,
    }
}

/// A real frontier for `rec`'s instance, taken after one tick.
fn frontier(rec: &JobRecord) -> Checkpoint {
    let instance = rec.spec.instance().unwrap();
    match runner::solve_slice(&instance, &Budget::ticks(1), None) {
        Ok((SliceOutcome::Suspended { checkpoint, .. }, _)) => checkpoint,
        other => panic!("expected a suspension, got {other:?}"),
    }
}

fn recover(spool: &Spool) -> (std::sync::Arc<Scheduler>, RecoveryReport) {
    let cfg = SchedulerConfig {
        max_attempts: 3,
        ..SchedulerConfig::default()
    };
    Scheduler::recover(spool.clone(), cfg).unwrap()
}

/// `(preemptions, spent, attempts)` as `STATUS` reports them.
fn counters(sched: &Scheduler, id: &str) -> (u64, u64, u64) {
    let s = sched.status(id).unwrap();
    assert_eq!(s.state, "queued");
    (s.preemptions, s.spent, s.attempts)
}

#[test]
fn stale_record_resumes_with_the_envelope_counters() {
    let (dir, spool) = scratch("envelope");
    let rec = queued("j1", 0, 0);
    spool.save_record(&rec).unwrap();
    let progress = Progress {
        preemptions: 2,
        spent: 131_072,
    };
    spool
        .save_progress("j1", progress, &frontier(&rec))
        .unwrap();

    let (sched, report) = recover(&spool);
    assert_eq!(report.resumed, 1, "{report:?}");
    assert_eq!(report.restarted_from_scratch, 0);
    assert!(report.discarded_checkpoints.is_empty());
    assert_eq!(counters(&sched, "j1"), (2, 131_072, 0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bare_lbck_blob_still_resumes() {
    let (dir, spool) = scratch("bare");
    let rec = queued("j1", 1, 77);
    spool.save_record(&rec).unwrap();
    spool.save_checkpoint("j1", &frontier(&rec)).unwrap();

    let (sched, report) = recover(&spool);
    assert_eq!(report.resumed, 1, "{report:?}");
    assert_eq!(report.restarted_from_scratch, 0);
    assert!(report.discarded_checkpoints.is_empty());
    assert_eq!(counters(&sched, "j1"), (1, 77, 0), "the record's counters");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_envelope_takes_the_discarded_checkpoint_path() {
    let progress = Progress {
        preemptions: 2,
        spent: 9,
    };
    for name in ["header", "frontier", "counter"] {
        let (dir, spool) = scratch(&format!("torn-{name}"));
        let rec = queued("j1", 0, 0);
        spool.save_record(&rec).unwrap();
        spool
            .save_progress("j1", progress, &frontier(&rec))
            .unwrap();
        let mut bytes = fs::read(spool.ckpt_path("j1")).unwrap();
        match name {
            "header" => bytes.truncate(20),
            "frontier" => bytes.truncate(bytes.len() - 3),
            _ => bytes[7] ^= 1, // a bit of the preemption count
        }
        fs::write(spool.ckpt_path("j1"), &bytes).unwrap();

        let (sched, report) = recover(&spool);
        assert_eq!(report.resumed, 1, "{name}: {report:?}");
        assert_eq!(report.restarted_from_scratch, 1, "{name}");
        assert_eq!(report.discarded_checkpoints.len(), 1, "{name}");
        assert_eq!(counters(&sched, "j1"), (0, 0, 1), "{name}");
        let on_disk =
            JobRecord::decode(&fs::read_to_string(spool.job_path("j1")).unwrap()).unwrap();
        assert_eq!(on_disk.attempts, 1, "{name}: the rung is persisted");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn spent_never_goes_down_across_a_recovery() {
    let (dir, spool) = scratch("monotone");
    // The envelope is ahead of the record: the usual case, since the
    // record is not rewritten per slice.
    let rec = queued("j1", 0, 10);
    spool.save_record(&rec).unwrap();
    let ahead = Progress {
        preemptions: 3,
        spent: 300,
    };
    spool.save_progress("j1", ahead, &frontier(&rec)).unwrap();
    // The record is ahead of the envelope: a ladder rung rewrote it after
    // a progress write failed.
    let rec = queued("j2", 4, 500);
    spool.save_record(&rec).unwrap();
    let behind = Progress {
        preemptions: 3,
        spent: 300,
    };
    spool.save_progress("j2", behind, &frontier(&rec)).unwrap();

    let (sched, _) = recover(&spool);
    let first = [counters(&sched, "j1"), counters(&sched, "j2")];
    assert_eq!(first, [(3, 300, 0), (4, 500, 0)]);
    drop(sched);
    // A second crash before any slice runs changes nothing.
    let (sched, _) = recover(&spool);
    assert_eq!([counters(&sched, "j1"), counters(&sched, "j2")], first);
    let _ = fs::remove_dir_all(&dir);
}
