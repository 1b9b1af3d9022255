//! The spool directory: everything the server must not lose across
//! `kill -9`.
//!
//! ```text
//! <spool>/jobs/<id>.job                the job's append-only log: one checksummed
//!                                      frame per durable change (below)
//! <spool>/quarantine/<id>.job          a dead-lettered record (or the raw bytes when
//!                                      the job's own file failed to decode)
//! <spool>/quarantine/<id>.evidence     the per-attempt evidence that sent it there
//! <spool>/ckpt/<id>.lbck               older spools only: a job's frontier beside
//!                                      its bare text record
//! ```
//!
//! **The job log.** Each durable change appends one frame
//! ([`lb_engine::checkpoint::append_frame`]: magic, kind, length, header
//! check, payload, FNV-1a) and `fdatasync`s it:
//!
//! - a *record* frame, the versioned text record of [`crate::job`]: at
//!   admission, on a ladder rung and at the verdict — never per slice;
//! - a *progress* frame per suspension ([`Spool::save_progress`]): a
//!   30-byte envelope (`LBPG`, version, preemptions, spent, header FNV-1a)
//!   in front of the job's LBCK frontier, so a crash can never split
//!   counters from frontier. A bare LBCK frontier
//!   ([`Spool::save_checkpoint`]) carries no counters; an empty payload
//!   ([`Spool::discard_progress`]) drops the frontier.
//!
//! Nothing on a job's path from admission to verdict replaces or deletes a
//! file. On a filesystem mounted with `discard`, freeing a file's blocks
//! costs tens of milliseconds and is serialized filesystem-wide, while an
//! append plus `fdatasync` of a 35 KB record frame costs about 0.3 ms on
//! its own and about 2 ms at the median under `serve_mixed` load (2-vCPU
//! VM, ext4): still the larger part of each `OK <id>`, which must follow a
//! durable record.
//!
//! **Recovery invariant.** A job's state is the last complete frame of
//! each kind. `OK <id>` is sent only after the admission frame's sync
//! returned, so an acknowledged job is never lost; a job whose last record
//! says `done` is never re-run (no duplicated verdicts); a `queued` job
//! resumes from its last progress frame, or from scratch when there is
//! none or it fails to decode — losing at most one slice of work, never
//! soundness. The record is not rewritten per slice, so recovery keeps the
//! larger of the record's and the progress frame's counters. A short final
//! frame, or a bad frame (magic, header check or checksum) that no complete
//! frame follows, is an append whose sync never returned, so nothing
//! observed it — a cut write, or a size that landed without its bytes:
//! recovery truncates it before the job appends again, and a log left with
//! no complete record frame was never acknowledged and is removed. A bad
//! frame with a complete frame after it is corruption: the job is
//! dead-lettered raw with the typed error as evidence.
//!
//! **Older spools.** A `jobs/<id>.job` that is a bare text record, with its
//! frontier in `ckpt/<id>.lbck` (an envelope or a bare LBCK blob), still
//! recovers. A `queued` one becomes a log inside [`Spool::recover`], before
//! anything can append to it: one atomic write of its text as a record
//! frame and its frontier as a progress frame, then the `ckpt/` file is
//! dropped. A settled one is never written again and stays text.
//! Quarantine and that one-time rewrite are the only
//! [`lb_engine::atomic_write`]s left.

use crate::job::{JobRecord, JobStatus};
use lb_engine::checkpoint::{
    append_frame, atomic_write, cleanup_artifacts, encode_frame, fnv1a, read_frames, Checkpoint,
    CheckpointError, PayloadReader, PayloadWriter, FRAME_MAGIC,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A typed spool failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpoolError {
    /// Filesystem trouble, with the path involved.
    Io {
        /// The path the operation touched.
        path: String,
        /// The OS error text.
        error: String,
    },
    /// A checkpoint-layer failure (atomic write, frame append, LBCK
    /// decode).
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io { path, error } => write!(f, "{path}: {error}"),
            SpoolError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl From<CheckpointError> for SpoolError {
    fn from(e: CheckpointError) -> SpoolError {
        SpoolError::Checkpoint(e)
    }
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> SpoolError + '_ {
    move |e| SpoolError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// The two per-job counters a suspension persists beside its frontier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Suspensions so far.
    pub preemptions: u64,
    /// Ticks spent so far across all slices.
    pub spent: u64,
}

/// The kind byte of a job log's record frames.
pub const RECORD_FRAME: u8 = 1;
/// The kind byte of a job log's progress frames.
pub const PROGRESS_FRAME: u8 = 2;

/// `LBPG`: the magic of the progress envelope in front of a frontier.
const PROGRESS_MAGIC: u32 = u32::from_le_bytes(*b"LBPG");
const PROGRESS_VERSION: u16 = 1;

/// Encodes `progress` as the envelope header (magic, version, the two
/// counters, an FNV-1a of those bytes) followed by the LBCK bytes of `ck`.
fn encode_progress(progress: Progress, ck: &Checkpoint) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(PROGRESS_MAGIC)
        .u16(PROGRESS_VERSION)
        .u64(progress.preemptions)
        .u64(progress.spent);
    let mut bytes = w.finish();
    let sum = fnv1a(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes.extend_from_slice(&ck.to_bytes());
    bytes
}

/// Decodes a progress frame's payload (or an older spool's
/// `ckpt/<id>.lbck` file): an envelope yields its counters, a bare LBCK
/// blob yields none. Any torn or corrupt byte is a typed error.
pub fn decode_progress(bytes: &[u8]) -> Result<(Checkpoint, Option<Progress>), CheckpointError> {
    if !bytes.starts_with(&PROGRESS_MAGIC.to_le_bytes()) {
        return Ok((Checkpoint::from_bytes(bytes)?, None));
    }
    let mut r = PayloadReader::new(bytes);
    let _magic = r.u32()?;
    let version = r.u16()?;
    if version != PROGRESS_VERSION {
        return Err(CheckpointError::Malformed {
            what: format!("progress envelope v{version}, this build reads v{PROGRESS_VERSION}"),
            offset: 4,
        });
    }
    let progress = Progress {
        preemptions: r.u64()?,
        spent: r.u64()?,
    };
    let header_len = r.offset();
    let recorded = r.u64()?;
    let computed = fnv1a(&bytes[..header_len]);
    if recorded != computed {
        return Err(CheckpointError::Corrupted {
            expected: computed,
            found: recorded,
        });
    }
    let ck = Checkpoint::from_bytes(&bytes[r.offset()..])?;
    Ok((ck, Some(progress)))
}

/// What [`Spool::recover`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every decodable record, `done` and `queued` alike.
    pub records: Vec<JobRecord>,
    /// Decodable records already in the quarantine area — terminal, served
    /// for `STATUS`, never re-run.
    pub quarantined: Vec<JobRecord>,
    /// Jobs dead-lettered *during this recovery*: a `jobs/*.job` file that
    /// failed to decode was moved raw into quarantine with its typed error
    /// as evidence. `(id, evidence)` per job.
    pub dead_lettered: Vec<(String, String)>,
    /// Files that could not even be read, moved or repaired, with the
    /// error rendered — logged and skipped, never panicked over.
    pub skipped: Vec<(PathBuf, String)>,
    /// Stale `.tmp` siblings removed by the startup sweep.
    pub stale_tmp_removed: usize,
    /// Torn final frames cut off job logs, and logs removed for lacking a
    /// complete record frame (their admission never returned, so nothing
    /// was acknowledged).
    pub torn_tails: usize,
    /// The next fresh job number (max recovered id + 1, quarantine
    /// included so a dead-lettered id is never reissued).
    pub next_job_number: u64,
    /// Each `queued` record's spooled progress, by id, for
    /// [`Recovered::resume_point`].
    progress: BTreeMap<String, Result<Vec<u8>, CheckpointError>>,
}

impl Recovered {
    /// A `queued` record's resume point: its spooled frontier when it
    /// decodes, otherwise none (restart from scratch) plus the rendered
    /// reason it was discarded. Progress counters raise `rec`'s where they
    /// are larger: the record is not rewritten per slice, but a failed
    /// progress write leaves the record ahead of the progress frame.
    pub fn resume_point(&mut self, rec: &mut JobRecord) -> (Option<Checkpoint>, Option<String>) {
        if !matches!(rec.status, JobStatus::Queued) {
            return (None, None);
        }
        match self
            .progress
            .remove(&rec.id)
            .map(|bytes| decode_progress(&bytes?))
        {
            Some(Ok((ck, progress))) => {
                if let Some(p) = progress {
                    rec.preemptions = rec.preemptions.max(p.preemptions);
                    rec.spent = rec.spent.max(p.spent);
                }
                (Some(ck), None)
            }
            Some(Err(e)) => (None, Some(e.to_string())),
            None => (None, None),
        }
    }
}

/// What one `jobs/*.job` file holds.
enum Found {
    /// A decoded record and, for a `queued` one, its spooled progress.
    Record(JobRecord, Option<Result<Vec<u8>, CheckpointError>>),
    /// A log without one complete record frame: its admission never
    /// returned, so nothing was acknowledged. Removed.
    Unacknowledged,
    /// Undecodable: the evidence line it is dead-lettered with.
    Corrupt(String),
}

/// Handle on a spool directory (creates `jobs/`, `ckpt/`, and
/// `quarantine/` on open).
#[derive(Clone, Debug)]
pub struct Spool {
    jobs: PathBuf,
    ckpt: PathBuf,
    quarantine: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) the spool under `root`.
    pub fn open(root: &Path) -> Result<Spool, SpoolError> {
        let jobs = root.join("jobs");
        let ckpt = root.join("ckpt");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&jobs).map_err(io_err(&jobs))?;
        fs::create_dir_all(&ckpt).map_err(io_err(&ckpt))?;
        fs::create_dir_all(&quarantine).map_err(io_err(&quarantine))?;
        Ok(Spool {
            jobs,
            ckpt,
            quarantine,
        })
    }

    /// The job log path for a job id (an older spool's text record).
    pub fn job_path(&self, id: &str) -> PathBuf {
        self.jobs.join(format!("{id}.job"))
    }

    /// An older spool's checkpoint path for a job id.
    pub fn ckpt_path(&self, id: &str) -> PathBuf {
        self.ckpt.join(format!("{id}.lbck"))
    }

    /// The dead-letter record path for a job id.
    pub fn quarantine_path(&self, id: &str) -> PathBuf {
        self.quarantine.join(format!("{id}.job"))
    }

    /// The dead-letter evidence path for a job id.
    pub fn evidence_path(&self, id: &str) -> PathBuf {
        self.quarantine.join(format!("{id}.evidence"))
    }

    /// Durably persists a job record: one record frame appended to the
    /// job's log, which the first call creates. Once this returns, the job
    /// survives any crash.
    pub fn save_record(&self, rec: &JobRecord) -> Result<(), SpoolError> {
        append_frame(
            &self.job_path(&rec.id),
            RECORD_FRAME,
            rec.encode().as_bytes(),
        )?;
        Ok(())
    }

    /// Durably persists a job's frontier as a bare LBCK blob, with no
    /// counters; recovery then uses the record's.
    pub fn save_checkpoint(&self, id: &str, ck: &Checkpoint) -> Result<(), SpoolError> {
        self.save_progress_bytes(id, &ck.to_bytes())
    }

    /// Durably persists a suspension: the job's counters and its frontier
    /// in one progress frame, so a crash can never split them.
    pub fn save_progress(
        &self,
        id: &str,
        progress: Progress,
        ck: &Checkpoint,
    ) -> Result<(), SpoolError> {
        self.save_progress_bytes(id, &encode_progress(progress, ck))
    }

    /// Durably drops a job's spooled frontier (an empty progress frame),
    /// so a recovery restarts it from scratch.
    pub fn discard_progress(&self, id: &str) -> Result<(), SpoolError> {
        self.save_progress_bytes(id, &[])
    }

    fn save_progress_bytes(&self, id: &str, payload: &[u8]) -> Result<(), SpoolError> {
        append_frame(&self.job_path(id), PROGRESS_FRAME, payload)?;
        Ok(())
    }

    /// Removes `ckpt/<id>.lbck` and any stale `.tmp` sibling. Only an older
    /// spool has such a file, and [`Spool::recover`] drops it when it turns
    /// the job into a log, so the server never calls this; a missing file
    /// is fine.
    pub fn remove_checkpoint(&self, id: &str) -> Result<(), SpoolError> {
        cleanup_artifacts(&self.ckpt_path(id))?;
        Ok(())
    }

    /// Dead-letters a job: atomically writes the (already `Quarantined`)
    /// record and its evidence into `quarantine/`, then removes the live
    /// log (or record) and any checkpoint. Write-before-remove ordering
    /// means a crash in between leaves the job in *both* places;
    /// [`Spool::recover`] prefers the quarantine copy, so the job stays
    /// terminal.
    pub fn quarantine(&self, rec: &JobRecord, evidence: &str) -> Result<(), SpoolError> {
        atomic_write(&self.quarantine_path(&rec.id), rec.encode().as_bytes())?;
        atomic_write(&self.evidence_path(&rec.id), evidence.as_bytes())?;
        let live = self.job_path(&rec.id);
        if live.exists() {
            fs::remove_file(&live).map_err(io_err(&live))?;
        }
        cleanup_artifacts(&self.ckpt_path(&rec.id))?;
        Ok(())
    }

    /// Dead-letters a `jobs/*.job` file that failed to decode: the raw
    /// bytes move into quarantine under the same stem, `evidence` (the
    /// typed decode error) is written beside them, and any orphaned
    /// checkpoint blob is removed (it is unusable without its record).
    /// Returns the id (derived from the filename stem).
    pub fn dead_letter_raw(
        &self,
        path: &Path,
        raw: &[u8],
        evidence: &str,
    ) -> Result<String, SpoolError> {
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown")
            .to_string();
        atomic_write(&self.quarantine_path(&id), raw)?;
        atomic_write(&self.evidence_path(&id), format!("{evidence}\n").as_bytes())?;
        fs::remove_file(path).map_err(io_err(path))?;
        cleanup_artifacts(&self.ckpt_path(&id))?;
        Ok(id)
    }

    /// Reads a quarantined job's evidence file, if present.
    pub fn load_evidence(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.evidence_path(id)).ok()
    }

    /// Sweeps `.tmp` siblings left by an atomic write that was killed
    /// between tmp-write and rename. Returns how many were removed.
    fn sweep_stale_tmp(&self) -> Result<usize, SpoolError> {
        let mut removed = 0;
        for dir in [&self.jobs, &self.ckpt, &self.quarantine] {
            let entries = fs::read_dir(dir).map_err(io_err(dir))?;
            for entry in entries {
                let entry = entry.map_err(io_err(dir))?;
                let path = entry.path();
                let is_tmp = path.extension().is_some_and(|e| e.to_str() == Some("tmp"));
                if is_tmp {
                    fs::remove_file(&path).map_err(io_err(&path))?;
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Lists the `.job` files under `dir`, sorted for deterministic replay.
    fn job_files(&self, dir: &Path) -> Result<Vec<PathBuf>, SpoolError> {
        let entries = fs::read_dir(dir).map_err(io_err(dir))?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(io_err(dir))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e.to_str() == Some("job")) {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Reads one job log: its last record frame and, for a `queued`
    /// record, its last non-empty progress frame. A torn final frame is
    /// truncated here, before the job can append again.
    fn recover_log(
        &self,
        path: &Path,
        bytes: &[u8],
        torn_tails: &mut usize,
    ) -> Result<Found, SpoolError> {
        let log = match read_frames(bytes) {
            Ok(log) => log,
            Err(e) => return Ok(Found::Corrupt(format!("job log failed to decode: {e}"))),
        };
        let Some(record) = log.last(RECORD_FRAME) else {
            *torn_tails += 1;
            fs::remove_file(path).map_err(io_err(path))?;
            return Ok(Found::Unacknowledged);
        };
        if log.complete_len < bytes.len() {
            *torn_tails += 1;
            let file = fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(io_err(path))?;
            file.set_len(log.complete_len as u64)
                .and_then(|()| file.sync_data())
                .map_err(io_err(path))?;
        }
        let text = std::str::from_utf8(record.payload).map_err(|e| e.to_string());
        let rec = match text.and_then(|t| JobRecord::decode(t).map_err(|e| e.to_string())) {
            Ok(rec) => rec,
            Err(e) => {
                return Ok(Found::Corrupt(format!(
                    "job log record frame at byte {} failed to decode: {e}",
                    record.offset
                )))
            }
        };
        // A stale checkpoint beside a log is the leftover of a migration
        // (see `recover_legacy`) that crashed before dropping it: the log
        // already holds it.
        cleanup_artifacts(&self.ckpt_path(&rec.id))?;
        let progress = log
            .last(PROGRESS_FRAME)
            .filter(|f| matches!(rec.status, JobStatus::Queued) && !f.payload.is_empty())
            .map(|f| Ok(f.payload.to_vec()));
        Ok(Found::Record(rec, progress))
    }

    /// Reads an older spool's text record. A `queued` one is about to be
    /// appended to, so it becomes a log here, in one atomic write: its text
    /// as the first record frame, then its `ckpt/<id>.lbck` bytes (if any)
    /// as a progress frame. Then the `ckpt/` file is dropped; a crash
    /// before that leaves a stale copy that `recover_log` removes.
    /// A settled record is never written again and stays text.
    fn recover_legacy(&self, path: &Path, bytes: &[u8]) -> Result<Found, SpoolError> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string());
        let rec = match text.and_then(|t| JobRecord::decode(t).map_err(|e| e.to_string())) {
            Ok(rec) => rec,
            Err(e) => return Ok(Found::Corrupt(format!("record failed to decode: {e}"))),
        };
        if !matches!(rec.status, JobStatus::Queued) {
            return Ok(Found::Record(rec, None));
        }
        let ckpt = self.ckpt_path(&rec.id);
        let mut log = encode_frame(RECORD_FRAME, bytes)?;
        let progress = match fs::read(&ckpt) {
            Ok(frontier) => {
                log.extend(encode_frame(PROGRESS_FRAME, &frontier)?);
                Some(Ok(frontier))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => Some(Err(CheckpointError::Io {
                path: ckpt.display().to_string(),
                error: e.to_string(),
            })),
        };
        atomic_write(path, &log)?;
        cleanup_artifacts(&ckpt)?;
        Ok(Found::Record(rec, progress))
    }

    /// Scans the spool after a (possibly violent) restart: sweeps stale
    /// `.tmp` files, replays the quarantine area, reads every live job log
    /// (or older text record), and reports what survived. A live file that
    /// fails to decode is dead-lettered on the spot — moved raw into
    /// quarantine with its typed error as evidence. Corruption never panics
    /// and never conjures a verdict.
    pub fn recover(&self) -> Result<Recovered, SpoolError> {
        let mut out = Recovered {
            stale_tmp_removed: self.sweep_stale_tmp()?,
            ..Recovered::default()
        };
        let note_id = |out: &mut Recovered, id: &str| {
            let n = id
                .strip_prefix('j')
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            out.next_job_number = out.next_job_number.max(n + 1);
        };
        // Quarantine first: a job present in both areas (a crash between
        // the quarantine write and the live-record removal) stays terminal.
        let mut in_quarantine: Vec<String> = Vec::new();
        for path in self.job_files(&self.quarantine)? {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unknown")
                .to_string();
            in_quarantine.push(stem.clone());
            note_id(&mut out, &stem);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    out.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            match std::str::from_utf8(&bytes).map(JobRecord::decode) {
                Ok(Ok(rec)) => out.quarantined.push(rec),
                _ => {
                    // A raw dead-lettered file (the job's own file was the
                    // corruption); its evidence file says why.
                    let evidence = self
                        .load_evidence(&stem)
                        .unwrap_or_else(|| "evidence file missing".to_string());
                    out.dead_lettered.push((stem, evidence));
                }
            }
        }
        for path in self.job_files(&self.jobs)? {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if in_quarantine.iter().any(|q| q == stem) {
                // Quarantine already owns this id; the live copy is the
                // leftover of an interrupted dead-lettering.
                if let Err(e) = fs::remove_file(&path) {
                    out.skipped.push((path, e.to_string()));
                }
                continue;
            }
            let stem = stem.to_string();
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    out.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            // A log starts with the frame magic; a log torn inside its
            // first four bytes is a prefix of it. Anything else is an
            // older spool's text record.
            let is_log = bytes.iter().zip(FRAME_MAGIC).all(|(&a, b)| a == b);
            let found = if is_log {
                self.recover_log(&path, &bytes, &mut out.torn_tails)
            } else {
                self.recover_legacy(&path, &bytes)
            };
            let found = match found {
                Ok(found) => found,
                Err(e) => {
                    out.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            match found {
                Found::Record(rec, progress) => {
                    note_id(&mut out, &rec.id);
                    if let Some(progress) = progress {
                        out.progress.insert(rec.id.clone(), progress);
                    }
                    out.records.push(rec);
                }
                Found::Unacknowledged => note_id(&mut out, &stem),
                Found::Corrupt(why) => match self.dead_letter_raw(&path, &bytes, &why) {
                    Ok(id) => {
                        note_id(&mut out, &id);
                        out.dead_lettered.push((id, why));
                    }
                    Err(move_err) => out.skipped.push((path, format!("{why}; then {move_err}"))),
                },
            }
        }
        if out.next_job_number == 0 {
            out.next_job_number = 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobFamily, JobSpec, Verdict};

    fn rec(id: &str, status: JobStatus) -> JobRecord {
        JobRecord {
            id: id.into(),
            spec: JobSpec {
                tenant: "t0".into(),
                family: JobFamily::Triangle,
                k: 0,
                budget: None,
                payload: "3\n0 1\n1 2\n0 2\n".into(),
            },
            status,
            preemptions: 0,
            spent: 0,
            attempts: 0,
        }
    }

    #[test]
    fn records_survive_and_ids_advance() {
        let dir = std::env::temp_dir().join(format!("lbserve-spool-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        spool.save_record(&rec("j1", JobStatus::Queued)).unwrap();
        spool
            .save_record(&rec("j4", JobStatus::Done(Verdict::Count(1))))
            .unwrap();
        // A stale tmp sibling, as a killed save would leave it.
        fs::write(spool.job_path("j9").with_extension("job.tmp"), b"half").unwrap();
        // A torn record that must be dead-lettered with a typed error.
        fs::write(spool.job_path("j5"), "lbjob 2\nid j5\n").unwrap();

        let recovered = spool.recover().unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.dead_lettered.len(), 1);
        assert_eq!(recovered.dead_lettered[0].0, "j5");
        assert!(recovered.skipped.is_empty());
        assert_eq!(recovered.stale_tmp_removed, 1);
        assert_eq!(recovered.next_job_number, 6);
        // The torn record moved into quarantine, bytes intact, with
        // evidence beside it.
        assert!(!spool.job_path("j5").exists());
        assert_eq!(
            fs::read_to_string(spool.quarantine_path("j5")).unwrap(),
            "lbjob 2\nid j5\n"
        );
        assert!(spool
            .load_evidence("j5")
            .unwrap()
            .contains("failed to decode"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_records_stay_terminal_across_recoveries() {
        let dir = std::env::temp_dir().join(format!("lbserve-spoolq-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        let mut bad = rec("j3", JobStatus::Queued);
        spool.save_record(&bad).unwrap();
        bad.status = JobStatus::Quarantined {
            reason: "repeated checkpoint decode failure".into(),
        };
        bad.attempts = 3;
        spool
            .quarantine(&bad, "attempt 1: bad magic\nattempt 2: bad magic\n")
            .unwrap();
        assert!(!spool.job_path("j3").exists());

        // Two recoveries in a row: the job stays quarantined, is never
        // resurrected into records, and its id is never reissued.
        for _ in 0..2 {
            let recovered = spool.recover().unwrap();
            assert!(recovered.records.is_empty());
            assert_eq!(recovered.quarantined.len(), 1);
            assert_eq!(recovered.quarantined[0].id, "j3");
            assert_eq!(recovered.next_job_number, 4);
        }
        assert!(spool.load_evidence("j3").unwrap().contains("attempt 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_dead_lettering_prefers_the_quarantine_copy() {
        let dir = std::env::temp_dir().join(format!("lbserve-spooli-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        // Crash between quarantine write and live-record removal: the job
        // exists in both areas.
        let mut r = rec("j2", JobStatus::Queued);
        spool.save_record(&r).unwrap();
        r.status = JobStatus::Quarantined {
            reason: "livelock".into(),
        };
        atomic_write(&spool.quarantine_path("j2"), r.encode().as_bytes()).unwrap();
        atomic_write(&spool.evidence_path("j2"), b"slice made no progress\n").unwrap();

        let recovered = spool.recover().unwrap();
        assert!(recovered.records.is_empty(), "quarantine copy must win");
        assert_eq!(recovered.quarantined.len(), 1);
        assert!(!spool.job_path("j2").exists(), "live leftover swept");
        let _ = fs::remove_dir_all(&dir);
    }
}
