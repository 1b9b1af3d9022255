//! `lb-serve` recovery from its spool.
//!
//! A job's durable state is one append-only log, `jobs/<id>.job`: a record
//! frame at admission, on each ladder rung and at the verdict, and a
//! progress frame (counters + LBCK frontier) per suspension. A crash can
//! cut the log at any byte; recovery must then resume from the last
//! complete frames and reach the uninterrupted run's verdict, once.
//!
//! Older spools keep a text record in `jobs/<id>.job` and the frontier in
//! `ckpt/<id>.lbck`, behind a progress envelope or as a bare LBCK blob.
//! The first four cases write that layout byte for byte and must recover
//! as before: resume from the frontier with the larger of the record's
//! and the envelope's counters, still load a bare blob, and send a torn
//! envelope down the discarded-checkpoint path. Recovery turns such a
//! queued job into a log before anything appends to it.

use lb_engine::checkpoint::{append_frame, fnv1a, read_frames, PayloadWriter};
use lb_serve::job::{JobFamily, JobRecord, JobSpec, JobStatus};
use lb_serve::runner::{self, SliceOutcome};
use lb_serve::scheduler::{RecoveryReport, Scheduler, SchedulerConfig};
use lb_serve::spool::{decode_progress, Progress, Spool, PROGRESS_FRAME, RECORD_FRAME};
use lb_serve::Verdict;
use lowerbounds::engine::{Budget, Checkpoint};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

/// Writes `rec` as the older layout's text record.
fn write_legacy_record(spool: &Spool, rec: &JobRecord) {
    fs::write(spool.job_path(&rec.id), rec.encode()).unwrap();
}

/// The older layout's `ckpt/<id>.lbck` envelope, byte for byte: `LBPG`,
/// u16 version 1, u64 preemptions, u64 spent, the FNV-1a-64 of those 22
/// bytes, then the LBCK container.
fn legacy_envelope(progress: Progress, ck: &Checkpoint) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.bytes(b"LBPG")
        .u16(1)
        .u64(progress.preemptions)
        .u64(progress.spent);
    let mut bytes = w.finish();
    let sum = fnv1a(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&ck.to_bytes());
    bytes
}

fn config(slice_ticks: u64) -> SchedulerConfig {
    SchedulerConfig {
        max_attempts: 3,
        slice_ticks,
        workers: 1,
        ..SchedulerConfig::default()
    }
}

fn recover(spool: &Spool) -> (Arc<Scheduler>, RecoveryReport) {
    Scheduler::recover(spool.clone(), config(65_536)).unwrap()
}

/// `(preemptions, spent, attempts)` as `STATUS` reports them.
fn counters(sched: &Scheduler, id: &str) -> (u64, u64, u64) {
    let s = sched.status(id).unwrap();
    assert_eq!(s.state, "queued");
    (s.preemptions, s.spent, s.attempts)
}

/// Runs the scheduler's workers until `id` settles, then drains them.
fn run_until_done(sched: &Arc<Scheduler>, id: &str) -> Verdict {
    let workers = sched.spawn_workers();
    let mut waited = Duration::ZERO;
    let verdict = loop {
        let status = sched.status(id).unwrap();
        if let Some(v) = status.verdict {
            break v;
        }
        assert!(waited < Duration::from_secs(30), "{id} never settled");
        std::thread::sleep(Duration::from_micros(200));
        waited += Duration::from_micros(200);
    };
    sched.drain();
    for w in workers {
        w.join().unwrap();
    }
    verdict
}

/// The `(kind, payload)` of every complete frame of a job log.
fn frames(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
    read_frames(bytes)
        .unwrap()
        .frames
        .iter()
        .map(|f| (f.kind, f.payload.to_vec()))
        .collect()
}

fn decode_record(payload: &[u8]) -> JobRecord {
    JobRecord::decode(std::str::from_utf8(payload).unwrap()).unwrap()
}

/// The last record frame of the job log at `id`.
fn last_record(spool: &Spool, id: &str) -> JobRecord {
    let log = frames(&fs::read(spool.job_path(id)).unwrap());
    let (_, text) = log.iter().rev().find(|(k, _)| *k == RECORD_FRAME).unwrap();
    decode_record(text)
}

/// The larger of the last record frame's and the last progress frame's
/// `(preemptions, spent)`: what recovery must not go below.
fn floor_of(frames: &[(u8, Vec<u8>)]) -> (u64, u64) {
    let mut floor = (0, 0);
    if let Some((_, text)) = frames.iter().rev().find(|(k, _)| *k == RECORD_FRAME) {
        let rec = decode_record(text);
        floor = (rec.preemptions, rec.spent);
    }
    let progress = frames.iter().rev().find(|(k, _)| *k == PROGRESS_FRAME);
    if let Some(Ok((_, Some(p)))) = progress.map(|(_, b)| decode_progress(b)) {
        floor = (floor.0.max(p.preemptions), floor.1.max(p.spent));
    }
    floor
}

#[test]
fn stale_record_resumes_with_the_envelope_counters() {
    let (dir, spool) = scratch("envelope");
    let rec = queued("j1", 0, 0);
    write_legacy_record(&spool, &rec);
    let progress = Progress {
        preemptions: 2,
        spent: 131_072,
    };
    fs::write(
        spool.ckpt_path("j1"),
        legacy_envelope(progress, &frontier(&rec)),
    )
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
    write_legacy_record(&spool, &rec);
    fs::write(spool.ckpt_path("j1"), frontier(&rec).to_bytes()).unwrap();

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
        write_legacy_record(&spool, &rec);
        let mut bytes = legacy_envelope(progress, &frontier(&rec));
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
        let on_disk = last_record(&spool, "j1");
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
    write_legacy_record(&spool, &rec);
    let ahead = Progress {
        preemptions: 3,
        spent: 300,
    };
    fs::write(
        spool.ckpt_path("j1"),
        legacy_envelope(ahead, &frontier(&rec)),
    )
    .unwrap();
    // The record is ahead of the envelope: a ladder rung rewrote it after
    // a progress write failed.
    let rec = queued("j2", 4, 500);
    write_legacy_record(&spool, &rec);
    let behind = Progress {
        preemptions: 3,
        spent: 300,
    };
    fs::write(
        spool.ckpt_path("j2"),
        legacy_envelope(behind, &frontier(&rec)),
    )
    .unwrap();

    let (sched, _) = recover(&spool);
    let first = [counters(&sched, "j1"), counters(&sched, "j2")];
    assert_eq!(first, [(3, 300, 0), (4, 500, 0)]);
    drop(sched);
    // A second crash before any slice runs changes nothing.
    let (sched, _) = recover(&spool);
    assert_eq!([counters(&sched, "j1"), counters(&sched, "j2")], first);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_job_becomes_a_log_at_recovery() {
    let (dir, spool) = scratch("migrate");
    let rec = queued("j1", 2, 5);
    write_legacy_record(&spool, &rec);
    let progress = Progress {
        preemptions: 2,
        spent: 5,
    };
    let envelope = legacy_envelope(progress, &frontier(&rec));
    fs::write(spool.ckpt_path("j1"), &envelope).unwrap();
    // A settled older job is never written again and stays text.
    let mut done = queued("j2", 0, 9);
    done.status = JobStatus::Done(Verdict::Count(4));
    write_legacy_record(&spool, &done);

    let (sched, report) = Scheduler::recover(spool.clone(), config(2)).unwrap();
    assert_eq!((report.resumed, report.settled), (1, 1), "{report:?}");
    // Before any slice runs, the queued job is a log of its text record
    // and its frontier, byte for byte, and the older checkpoint is gone.
    assert_eq!(
        frames(&fs::read(spool.job_path("j1")).unwrap()),
        [
            (RECORD_FRAME, rec.encode().into_bytes()),
            (PROGRESS_FRAME, envelope)
        ]
    );
    assert!(!spool.ckpt_path("j1").exists());
    assert_eq!(
        fs::read_to_string(spool.job_path("j2")).unwrap(),
        done.encode()
    );
    let verdict = run_until_done(&sched, "j1");
    let instance = rec.spec.instance().unwrap();
    let (reference, _, _) = runner::solve_to_verdict(&instance, 2, None).unwrap();
    assert_eq!(verdict, reference);

    // Its next suspensions and its verdict were appended behind the two
    // migrated frames.
    let log = frames(&fs::read(spool.job_path("j1")).unwrap());
    assert_eq!(log[0], (RECORD_FRAME, rec.encode().into_bytes()));
    assert_eq!(log[2].0, PROGRESS_FRAME);
    let (last_kind, last) = log.last().unwrap();
    assert_eq!(*last_kind, RECORD_FRAME);
    let settled = decode_record(last);
    assert_eq!(settled.status, JobStatus::Done(reference));
    assert!(settled.preemptions > progress.preemptions);
    assert!(!spool.ckpt_path("j1").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_undecodable_frontier_is_discarded_once_across_recoveries() {
    let (dir, spool) = scratch("discard-once");
    let rec = queued("j1", 0, 0);
    spool.save_record(&rec).unwrap();
    append_frame(&spool.job_path("j1"), PROGRESS_FRAME, b"garbage").unwrap();
    for round in 1..=3 {
        let (sched, report) = recover(&spool);
        let discarded = usize::from(round == 1);
        assert_eq!(report.discarded_checkpoints.len(), discarded, "{report:?}");
        assert_eq!(counters(&sched, "j1"), (0, 0, 1), "round {round}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Writes `bytes` over the start of the file at `path` and cuts it there,
/// in place: a log under one block frees nothing.
fn overwrite(path: &std::path::Path, bytes: &[u8]) {
    use std::io::Write as _;
    let mut f = fs::OpenOptions::new().write(true).open(path).unwrap();
    f.write_all(bytes).unwrap();
    f.set_len(bytes.len() as u64).unwrap();
}

#[test]
fn a_crash_at_every_byte_of_a_job_log_recovers_to_the_reference_verdict() {
    let (dir, spool) = scratch("every-byte");
    let rec = queued("j1", 0, 0);
    let slice = 1;
    let instance = rec.spec.instance().unwrap();
    let (reference, _, _) = runner::solve_to_verdict(&instance, slice, None).unwrap();

    // The full log of one served run: admission, k suspensions, verdict.
    let (sched, _) = Scheduler::recover(spool.clone(), config(slice)).unwrap();
    let id = sched
        .submit(lb_serve::Submission::parse(rec.spec.clone()).unwrap())
        .unwrap();
    assert_eq!(id, "j1");
    assert_eq!(run_until_done(&sched, &id), reference);
    drop(sched);
    let path = spool.job_path(&id);
    let log = fs::read(&path).unwrap();
    let full = frames(&log);
    assert!(full.len() >= 5, "want >= 3 suspensions, got {full:?}");
    assert_eq!(
        full.len(),
        2 + decode_record(&full.last().unwrap().1).preemptions as usize
    );
    // Rewriting one small file in place keeps every prefix below inside
    // the file's first block: nothing is freed between cases.
    assert!(log.len() < 4096, "log of {} bytes", log.len());
    let admission_len = read_frames(&log).unwrap().frames[1].offset;

    // Prefixes that cut the admission frame: that append's sync never
    // returned, so `OK` was never sent. The job must vanish, not appear.
    for n in 0..admission_len {
        let (short_dir, short) = scratch("every-byte-unacked");
        fs::write(short.job_path(&id), &log[..n]).unwrap();
        let (sched, report) = recover(&short);
        assert_eq!(report.torn_tails, 1, "prefix {n}: {report:?}");
        assert_eq!(
            report.resumed + report.settled + report.dead_lettered.len(),
            0
        );
        assert!(sched.status(&id).is_none(), "prefix {n}");
        assert!(!short.job_path(&id).exists(), "prefix {n}");
        let _ = fs::remove_dir_all(&short_dir);
    }

    // Every other prefix: recover, run to completion, compare.
    for n in admission_len..=log.len() {
        overwrite(&path, &log[..n]);
        let survived = frames(&log[..n]);
        let floor = floor_of(&survived);
        let (sched, report) = Scheduler::recover(spool.clone(), config(slice)).unwrap();
        assert!(report.dead_lettered.is_empty(), "prefix {n}: {report:?}");
        let at_recovery = sched.status(&id).unwrap();
        assert!(
            at_recovery.preemptions >= floor.0 && at_recovery.spent >= floor.1,
            "prefix {n}: {at_recovery:?} below {floor:?}"
        );
        assert_eq!(run_until_done(&sched, &id), reference, "prefix {n}");
        let settled = sched.status(&id).unwrap();
        assert!(settled.preemptions >= floor.0 && settled.spent >= floor.1);
        drop(sched);
        let after = frames(&fs::read(&path).unwrap());
        let verdicts = after
            .iter()
            .filter(|(k, p)| {
                *k == RECORD_FRAME && matches!(decode_record(p).status, JobStatus::Done(_))
            })
            .count();
        assert_eq!(verdicts, 1, "prefix {n}: one verdict frame, never two");
        assert_eq!(
            after[..survived.len()],
            survived[..],
            "prefix {n}: history kept"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_tail_whose_bytes_never_landed_is_cut_not_dead_lettered() {
    let (dir, spool) = scratch("zero-tail");
    let rec = queued("j1", 0, 0);
    let (sched, _) = Scheduler::recover(spool.clone(), config(2)).unwrap();
    let id = sched
        .submit(lb_serve::Submission::parse(rec.spec.clone()).unwrap())
        .unwrap();
    let reference = run_until_done(&sched, &id);
    drop(sched);
    let path = spool.job_path(&id);
    let log = fs::read(&path).unwrap();
    let offsets: Vec<usize> = read_frames(&log)
        .unwrap()
        .frames
        .iter()
        .map(|f| f.offset)
        .collect();
    // A crash that extended the file without landing its bytes: zeros
    // behind each frame boundary and inside each frame past admission.
    let mut cuts: Vec<usize> = offsets.windows(2).map(|w| (w[0] + w[1]) / 2).collect();
    cuts.extend(&offsets[1..]);
    cuts.push(log.len());
    cuts.retain(|&n| n >= offsets[1]);
    for n in cuts {
        for tail in [13, 64] {
            let mut torn = log[..n].to_vec();
            torn.resize(n + tail, 0);
            overwrite(&path, &torn);
            let (sched, report) = Scheduler::recover(spool.clone(), config(2)).unwrap();
            assert!(
                report.dead_lettered.is_empty(),
                "cut {n}+{tail}: {report:?}"
            );
            assert_eq!(report.torn_tails, 1, "cut {n}+{tail}");
            assert_eq!(run_until_done(&sched, &id), reference, "cut {n}+{tail}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_before_the_last_frame_dead_letters_with_evidence() {
    let (dir, spool) = scratch("flip");
    let rec = queued("j1", 0, 0);
    let (sched, _) = Scheduler::recover(spool.clone(), config(2)).unwrap();
    let id = sched
        .submit(lb_serve::Submission::parse(rec.spec.clone()).unwrap())
        .unwrap();
    run_until_done(&sched, &id);
    drop(sched);
    let log = fs::read(spool.job_path(&id)).unwrap();
    let offsets: Vec<usize> = read_frames(&log)
        .unwrap()
        .frames
        .iter()
        .map(|f| f.offset)
        .collect();
    // One byte in the middle of each frame but the last.
    for pair in offsets.windows(2) {
        let at = (pair[0] + pair[1]) / 2;
        let (flip_dir, flipped) = scratch("flip-case");
        let mut evil = log.clone();
        evil[at] ^= 0x10;
        fs::write(flipped.job_path(&id), &evil).unwrap();
        let (sched, report) = recover(&flipped);
        assert_eq!(report.dead_lettered.len(), 1, "byte {at}: {report:?}");
        assert_eq!(report.resumed + report.settled, 0, "byte {at}");
        let status = sched.status(&id).unwrap();
        assert_eq!(status.state, "quarantined", "byte {at}");
        let evidence = status.evidence.unwrap();
        assert!(
            evidence.contains("job log failed to decode")
                && evidence.contains(&format!("byte {}", pair[0])),
            "byte {at}: {evidence}"
        );
        assert_eq!(fs::read(flipped.quarantine_path(&id)).unwrap(), evil);
        let _ = fs::remove_dir_all(&flip_dir);
    }
    let _ = fs::remove_dir_all(&dir);
}
