//! Injected I/O faults against the atomic checkpoint save path and the
//! frame-log append path.
//!
//! The claim under test is the spool's crash-safety contract: no matter
//! where a save dies — during the tmp write, the fsync, or the rename —
//! the destination file is always either *absent* or *the previous valid
//! version*, a torn `.tmp` sibling is the worst surviving debris, and
//! reading any of it back yields a typed [`CheckpointError`], never a
//! panic and never a conjured frontier. For an append — a torn write of
//! half the frame, or a failed `fdatasync` — reading the log back yields
//! its last complete frame or a typed error, never a frame that was not
//! fully written.

use lb_engine::checkpoint::{
    append_frame, encode_frame, read_frames, tmp_sibling, Checkpoint, CheckpointError, SolverFamily,
};
use lb_engine::fault::with_io_plan;
use lb_engine::{IoFaultKind, IoFaultPlan};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lb-io-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn ck(tag: u8) -> Checkpoint {
    Checkpoint::new(
        SolverFamily::Dpll,
        1,
        (0..64).map(|i| i ^ tag).collect::<Vec<u8>>(),
    )
}

/// The invariant every fault must preserve: the destination is absent or
/// loads as a complete previous version.
fn assert_absent_or_valid(path: &Path, valid: &[Checkpoint]) {
    if !path.exists() {
        return;
    }
    let loaded = Checkpoint::load(path).expect("destination must never be torn");
    assert!(
        valid.iter().any(|c| c.to_bytes() == loaded.to_bytes()),
        "destination holds bytes that were never a completed save"
    );
}

#[test]
fn every_stage_fault_leaves_destination_absent_or_valid() {
    for (kind, stage) in [
        (IoFaultKind::TmpWrite, "save-write"),
        (IoFaultKind::Sync, "save-sync"),
        (IoFaultKind::Rename, "save-rename"),
    ] {
        let path = scratch(&format!("stage-{stage}.lbck"));
        let _fresh = std::fs::remove_file(&path);
        let _debris = std::fs::remove_file(tmp_sibling(&path));
        let old = ck(0x11);
        let new = ck(0x22);
        old.save(&path).expect("baseline save");

        let plan = IoFaultPlan::new().with_point(kind, 1);
        let err = with_io_plan(&plan, || new.save(&path))
            .expect_err("injected fault must surface as an error");
        match err {
            CheckpointError::Io { error, .. } => {
                assert!(
                    error.contains("injected"),
                    "{stage}: expected the injected marker, got `{error}`"
                );
            }
            other => panic!("{stage}: expected CheckpointError::Io, got {other:?}"),
        }
        // The old version must still load; the new one must not be visible.
        assert_absent_or_valid(&path, std::slice::from_ref(&old));
        let survived = Checkpoint::load(&path).expect("old version intact");
        assert_eq!(survived.to_bytes(), old.to_bytes());

        // A retry with no plan active lands the new version cleanly.
        new.save(&path).expect("retry must succeed");
        assert_eq!(
            Checkpoint::load(&path).expect("new version").to_bytes(),
            new.to_bytes()
        );
    }
}

#[test]
fn first_ever_save_fault_leaves_no_destination() {
    for kind in [
        IoFaultKind::TmpWrite,
        IoFaultKind::Sync,
        IoFaultKind::Rename,
    ] {
        let path = scratch(&format!("first-{}.lbck", kind.name()));
        let _fresh = std::fs::remove_file(&path);
        let _debris = std::fs::remove_file(tmp_sibling(&path));
        let plan = IoFaultPlan::new().with_point(kind, 1);
        with_io_plan(&plan, || ck(0x33).save(&path)).expect_err("injected fault must surface");
        assert!(
            !path.exists(),
            "{}: a failed first save must not create the destination",
            kind.name()
        );
    }
}

#[test]
fn torn_tmp_is_a_typed_error_never_a_frontier() {
    let path = scratch("torn.lbck");
    let _fresh = std::fs::remove_file(&path);
    let plan = IoFaultPlan::new().with_point(IoFaultKind::TmpWrite, 1);
    with_io_plan(&plan, || ck(0x44).save(&path)).expect_err("fault fires");
    let tmp = tmp_sibling(&path);
    assert!(tmp.exists(), "TmpWrite leaves the torn prefix behind");
    // The torn prefix must decode as a typed error, not a checkpoint and
    // not a panic — exactly what a restart's recovery sweep relies on.
    let torn = Checkpoint::load(&tmp);
    assert!(torn.is_err(), "a half-written blob must not decode");
}

#[test]
fn seeded_fault_storms_never_tear_the_destination() {
    let path = scratch("storm.lbck");
    let _fresh = std::fs::remove_file(&path);
    let _debris = std::fs::remove_file(tmp_sibling(&path));
    let mut valid: Vec<Checkpoint> = Vec::new();
    for seed in 0..200u64 {
        let next = ck((seed % 251) as u8);
        let plan = IoFaultPlan::from_seed(seed);
        let landed = with_io_plan(&plan, || {
            // Several saves per scope so multi-point plans hit attempts > 1;
            // any one success makes `next` a legitimately completed version.
            let mut landed = false;
            for _ in 0..3 {
                if next.save(&path).is_ok() {
                    landed = true;
                }
            }
            landed
        });
        if landed {
            valid.push(next);
        }
        assert_absent_or_valid(&path, &valid);
    }
    assert!(!valid.is_empty(), "some storms must let a save through");
}

#[test]
fn io_plans_round_trip_their_spec_string() {
    let plan = IoFaultPlan::new()
        .with_point(IoFaultKind::TmpWrite, 2)
        .with_point(IoFaultKind::Rename, 1);
    let spec = plan.to_string();
    let reparsed: IoFaultPlan = spec.parse().expect("rendered spec must reparse");
    assert_eq!(reparsed.to_string(), spec);
    assert!(IoFaultPlan::from_seed(7)
        .to_string()
        .parse::<IoFaultPlan>()
        .is_ok());
    assert!("save-write@".parse::<IoFaultPlan>().is_err());
    assert!("save-frobnicate@1".parse::<IoFaultPlan>().is_err());
}

/// The payloads of a log's complete frames; the whole file must be
/// complete frames (an append never leaves a torn tail behind it).
fn complete_payloads(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).expect("log readable");
    let log = read_frames(&bytes).expect("an append never corrupts the log");
    assert_eq!(
        log.complete_len,
        bytes.len(),
        "no torn tail after an append"
    );
    log.frames.iter().map(|f| f.payload.to_vec()).collect()
}

#[test]
fn every_append_stage_fault_leaves_the_last_complete_frame() {
    for (kind, stage) in [
        (IoFaultKind::TmpWrite, "append-write"),
        (IoFaultKind::Sync, "fdatasync"),
    ] {
        let path = scratch(&format!("append-{stage}.log"));
        let _fresh = std::fs::remove_file(&path);
        append_frame(&path, 1, b"old").expect("baseline append");
        let before = std::fs::read(&path).expect("log");

        let plan = IoFaultPlan::new().with_point(kind, 1);
        let err = with_io_plan(&plan, || append_frame(&path, 2, b"new"))
            .expect_err("injected fault must surface as an error");
        match err {
            CheckpointError::Io { error, .. } => assert!(
                error.contains(&format!("injected io fault: {stage}")),
                "{stage}: got `{error}`"
            ),
            other => panic!("{stage}: expected CheckpointError::Io, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).expect("log"), before, "{stage}");
        assert_eq!(complete_payloads(&path), [b"old".to_vec()], "{stage}");

        // A retry with no plan active lands behind the old frame.
        append_frame(&path, 2, b"new").expect("retry must succeed");
        assert_eq!(
            complete_payloads(&path),
            [b"old".to_vec(), b"new".to_vec()],
            "{stage}"
        );
    }
}

#[test]
fn a_torn_append_reads_back_as_the_last_complete_frame() {
    // What a crash between the torn write and its rollback leaves: every
    // prefix of the new frame behind a complete one.
    let old = encode_frame(1, b"complete").expect("frame");
    let new = encode_frame(2, &[0xab; 48]).expect("frame");
    for cut in 0..new.len() {
        let mut bytes = old.clone();
        bytes.extend_from_slice(&new[..cut]);
        let log = read_frames(&bytes).expect("a torn tail is not corruption");
        assert_eq!(log.complete_len, old.len(), "cut at {cut}");
        let payloads: Vec<&[u8]> = log.frames.iter().map(|f| f.payload).collect();
        assert_eq!(payloads, [&b"complete"[..]], "cut at {cut}");
    }
}

#[test]
fn rename_faults_never_fire_on_an_append() {
    let path = scratch("append-rename.log");
    let _fresh = std::fs::remove_file(&path);
    let plan = IoFaultPlan::new().with_point(IoFaultKind::Rename, 1);
    with_io_plan(&plan, || append_frame(&path, 1, b"lands")).expect("an append has no rename");
    assert_eq!(complete_payloads(&path), [b"lands".to_vec()]);
}

#[test]
fn seeded_fault_storms_never_tear_a_log() {
    let path = scratch("append-storm.log");
    let _fresh = std::fs::remove_file(&path);
    let mut landed: Vec<Vec<u8>> = Vec::new();
    for seed in 0..200u64 {
        let plan = IoFaultPlan::from_seed(seed);
        with_io_plan(&plan, || {
            // Several appends per scope so multi-point plans hit attempts > 1.
            for i in 0..3u8 {
                let payload = vec![(seed % 251) as u8 ^ i; 1 + (seed as usize % 40)];
                if append_frame(&path, 1 + i, &payload).is_ok() {
                    landed.push(payload);
                }
            }
        });
        assert_eq!(complete_payloads(&path), landed, "seed {seed}");
    }
    assert!(landed.len() < 600, "some storms must fail an append");
}
