//! Recovery behavior pinned against hand-written hostile spool trees
//! (`fixtures/spool/`): a corrupt checkpoint restarts its job from
//! scratch one rung up the retry ladder, a corrupt record dead-letters
//! raw into quarantine, and a recovery-time discard that exhausts the
//! ladder quarantines the job without ever re-queueing it.

use lb_engine::checkpoint::read_frames;
use lb_serve::job::JobRecord;
use lb_serve::scheduler::{Scheduler, SchedulerConfig};
use lb_serve::spool::{Spool, RECORD_FRAME};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/spool")
        .join(name)
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), &dst).unwrap();
        }
    }
}

/// Copies a fixture spool into a scratch dir named for the test, so
/// parallel tests never collide.
fn scratch_spool(fixture_name: &str, test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbserve-fix-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    copy_tree(&fixture(fixture_name), &dir);
    dir
}

fn config() -> SchedulerConfig {
    SchedulerConfig {
        max_attempts: 3,
        retry_backoff_ms: 1,
        ..SchedulerConfig::default()
    }
}

#[test]
fn corrupt_checkpoint_restarts_from_scratch_with_attempt_bumped() {
    let dir = scratch_spool("corrupt-checkpoint", "ckpt");
    let spool = Spool::open(&dir).unwrap();
    let (sched, report) = Scheduler::recover(spool.clone(), config()).unwrap();

    assert_eq!(report.resumed, 1, "the job must re-queue: {report:?}");
    assert_eq!(report.restarted_from_scratch, 1);
    assert_eq!(report.quarantined, 0);
    assert!(report.discarded_checkpoints[0].starts_with("j1:"));

    // The ladder rung is persisted before any slice runs: a second crash
    // cannot reset the attempt counter. Recovery turned the older text
    // record into a job log, so the rung is its last record frame.
    let log = fs::read(spool.job_path("j1")).unwrap();
    let frames = read_frames(&log).unwrap();
    let rung = frames.last(RECORD_FRAME).unwrap().payload;
    let on_disk = JobRecord::decode(std::str::from_utf8(rung).unwrap()).unwrap();
    assert_eq!(on_disk.attempts, 1);
    assert_eq!(on_disk.preemptions, 2, "history survives the restart");

    let status = sched.status("j1").unwrap();
    assert_eq!(status.state, "queued");
    assert_eq!(status.attempts, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_dead_letters_raw_with_typed_evidence() {
    let dir = scratch_spool("corrupt-record", "rec");
    let spool = Spool::open(&dir).unwrap();
    let (sched, report) = Scheduler::recover(spool.clone(), config()).unwrap();

    assert_eq!(report.resumed, 0);
    assert_eq!(report.dead_lettered.len(), 1, "{report:?}");
    assert!(report.dead_lettered[0].starts_with("j2:"));

    // Raw bytes preserved in quarantine, live record and orphan
    // checkpoint gone.
    assert!(!spool.job_path("j2").exists());
    assert!(!spool.ckpt_path("j2").exists(), "orphan checkpoint swept");
    let raw = fs::read_to_string(spool.quarantine_path("j2")).unwrap();
    assert!(
        raw.starts_with("lbjob 2\nid j2\n"),
        "bytes kept for forensics"
    );
    assert!(spool
        .load_evidence("j2")
        .unwrap()
        .contains("failed to decode"));

    // STATUS still answers for the id, as quarantined with evidence.
    let status = sched.status("j2").unwrap();
    assert_eq!(status.state, "quarantined");
    assert!(status.evidence.unwrap().contains("failed to decode"));

    // The dead-lettered id is never reissued to a new submission.
    assert!(report.dead_lettered[0].starts_with("j2"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_discard_that_exhausts_the_ladder_quarantines() {
    let dir = scratch_spool("exhausted-ladder", "ladder");
    let spool = Spool::open(&dir).unwrap();
    let (sched, report) = Scheduler::recover(spool.clone(), config()).unwrap();

    // attempts was already 2 on disk; the recovery-time discard is the
    // third strike under max_attempts=3.
    assert_eq!(report.resumed, 0, "an exhausted job must not re-queue");
    assert_eq!(report.restarted_from_scratch, 0);
    assert_eq!(report.quarantined, 1, "{report:?}");

    let status = sched.status("j3").unwrap();
    assert_eq!(status.state, "quarantined");
    assert_eq!(status.attempts, 3);
    assert!(status.evidence.unwrap().contains("attempts exhausted"));

    // Durably dead-lettered: record moved into quarantine with evidence.
    assert!(!spool.job_path("j3").exists());
    let q = JobRecord::decode(&fs::read_to_string(spool.quarantine_path("j3")).unwrap()).unwrap();
    assert_eq!(q.attempts, 3);
    assert!(spool
        .load_evidence("j3")
        .unwrap()
        .contains("checkpoint discarded on recovery"));

    // A second recovery honors the quarantine copy and never resurrects
    // the job.
    drop(sched);
    let spool2 = Spool::open(&dir).unwrap();
    let (sched2, report2) = Scheduler::recover(spool2, config()).unwrap();
    assert_eq!(report2.resumed, 0);
    assert_eq!(report2.quarantined, 1);
    assert_eq!(sched2.status("j3").unwrap().state, "quarantined");
    let _ = fs::remove_dir_all(&dir);
}
