//! The spool directory: everything the server must not lose across
//! `kill -9`.
//!
//! ```text
//! <spool>/jobs/<id>.job                versioned text record (see [`crate::job`]),
//!                                      written at admission, on a ladder rung and
//!                                      at the verdict — never per slice
//! <spool>/ckpt/<id>.lbck               the job's progress: a 30-byte envelope
//!                                      (`LBPG`, version, preemptions, spent,
//!                                      header FNV-1a) in front of its LBCK
//!                                      frontier; absent when none
//! <spool>/quarantine/<id>.job          a dead-lettered record (or raw bytes when
//!                                      the record itself failed to decode)
//! <spool>/quarantine/<id>.evidence     the per-attempt evidence that sent it there
//! ```
//!
//! **Recovery invariant.** Every write lands through
//! [`lb_engine::atomic_write`] (tmp + fsync + rename), so after a crash
//! each file is either absent or a complete previous version — at worst a
//! stale `.tmp` sibling survives, which [`Spool::open`] sweeps. A job whose
//! submission was acknowledged (`OK <id>` is only sent after its record is
//! on disk) is therefore never lost; a job whose record says `done` is
//! never re-run (no duplicated verdicts); a `queued` record resumes from
//! its spooled checkpoint, or from scratch when the checkpoint is absent
//! or fails to decode — losing at most one slice of work, never soundness.
//! A suspension is one write ([`Spool::save_progress`]): frontier and
//! counters land together, so the record's `preemptions`/`spent` may be
//! stale, and recovery keeps the larger of record and envelope. A bare
//! LBCK blob (older spools, [`Spool::save_checkpoint`]) still loads, with
//! the record's counters.

use crate::job::{JobRecord, JobStatus};
use lb_engine::checkpoint::{
    atomic_write, cleanup_artifacts, fnv1a, Checkpoint, CheckpointError, PayloadReader,
    PayloadWriter,
};
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
    /// A checkpoint-layer failure (atomic write, LBCK decode).
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

/// Decodes a `ckpt/<id>.lbck` file: an envelope yields its counters, a
/// bare LBCK blob yields none. Any torn or corrupt byte is a typed error.
fn decode_progress(bytes: &[u8]) -> Result<(Checkpoint, Option<Progress>), CheckpointError> {
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
    /// Files that could not even be read or moved, with the error rendered
    /// — logged and skipped, never panicked over.
    pub skipped: Vec<(PathBuf, String)>,
    /// Stale `.tmp` siblings removed by the startup sweep.
    pub stale_tmp_removed: usize,
    /// The next fresh job number (max recovered id + 1, quarantine
    /// included so a dead-lettered id is never reissued).
    pub next_job_number: u64,
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

    /// The record path for a job id.
    pub fn job_path(&self, id: &str) -> PathBuf {
        self.jobs.join(format!("{id}.job"))
    }

    /// The checkpoint path for a job id.
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

    /// Atomically persists a job record. Once this returns, the job
    /// survives any crash.
    pub fn save_record(&self, rec: &JobRecord) -> Result<(), SpoolError> {
        atomic_write(&self.job_path(&rec.id), rec.encode().as_bytes())?;
        Ok(())
    }

    /// Atomically persists a job's frontier checkpoint as a bare LBCK
    /// blob, with no counters; recovery then uses the record's.
    pub fn save_checkpoint(&self, id: &str, ck: &Checkpoint) -> Result<(), SpoolError> {
        ck.save(&self.ckpt_path(id))?;
        Ok(())
    }

    /// Atomically persists a suspension: the job's counters and its
    /// frontier in one write, so a crash can never split them.
    pub fn save_progress(
        &self,
        id: &str,
        progress: Progress,
        ck: &Checkpoint,
    ) -> Result<(), SpoolError> {
        atomic_write(&self.ckpt_path(id), &encode_progress(progress, ck))?;
        Ok(())
    }

    /// Loads a job's frontier and, from an envelope, its counters.
    /// `Ok(None)` when absent; a present-but-undecodable file is the typed
    /// error (the caller restarts the job from scratch — sound, merely
    /// slower).
    pub(crate) fn load_progress(
        &self,
        id: &str,
    ) -> Result<Option<(Checkpoint, Option<Progress>)>, CheckpointError> {
        let path = self.ckpt_path(id);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = fs::read(&path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        decode_progress(&bytes).map(Some)
    }

    /// Removes a settled job's checkpoint and any stale `.tmp` sibling.
    pub fn remove_checkpoint(&self, id: &str) -> Result<(), SpoolError> {
        cleanup_artifacts(&self.ckpt_path(id))?;
        Ok(())
    }

    /// Dead-letters a job: atomically writes the (already `Quarantined`)
    /// record and its evidence into `quarantine/`, then removes the live
    /// record and checkpoint. Write-before-remove ordering means a crash
    /// in between leaves the job in *both* places; [`Spool::recover`]
    /// prefers the quarantine copy, so the job stays terminal.
    pub fn quarantine(&self, rec: &JobRecord, evidence: &str) -> Result<(), SpoolError> {
        atomic_write(&self.quarantine_path(&rec.id), rec.encode().as_bytes())?;
        atomic_write(&self.evidence_path(&rec.id), evidence.as_bytes())?;
        let live = self.job_path(&rec.id);
        if live.exists() {
            fs::remove_file(&live).map_err(io_err(&live))?;
        }
        self.remove_checkpoint(&rec.id)?;
        Ok(())
    }

    /// Dead-letters a `jobs/*.job` file that failed to decode: the raw
    /// bytes move into quarantine under the same stem, the typed decode
    /// error becomes the evidence, and any orphaned checkpoint blob is
    /// removed (it is unusable without its record). Returns the id
    /// (derived from the filename stem).
    pub fn dead_letter_raw(
        &self,
        path: &Path,
        raw: &str,
        error: &str,
    ) -> Result<String, SpoolError> {
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown")
            .to_string();
        let evidence = format!("record failed to decode: {error}\n");
        atomic_write(&self.quarantine_path(&id), raw.as_bytes())?;
        atomic_write(&self.evidence_path(&id), evidence.as_bytes())?;
        fs::remove_file(path).map_err(io_err(path))?;
        self.remove_checkpoint(&id)?;
        Ok(id)
    }

    /// Reads a quarantined job's evidence file, if present.
    pub fn load_evidence(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.evidence_path(id)).ok()
    }

    /// Sweeps `.tmp` siblings left by a save that was killed between
    /// tmp-write and rename. Returns how many were removed.
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

    /// Scans the spool after a (possibly violent) restart: sweeps stale
    /// `.tmp` files, replays the quarantine area, decodes every live
    /// record, and reports what survived. A live record that fails to
    /// decode is dead-lettered on the spot — moved raw into quarantine
    /// with its typed error as evidence. Corruption never panics and
    /// never conjures a verdict.
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
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    out.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            match JobRecord::decode(&text) {
                Ok(rec) => out.quarantined.push(rec),
                Err(_raw) => {
                    // A raw dead-lettered file (the record itself was the
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
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    out.skipped.push((path, e.to_string()));
                    continue;
                }
            };
            match JobRecord::decode(&text) {
                Ok(rec) => {
                    note_id(&mut out, &rec.id);
                    out.records.push(rec);
                }
                Err(e) => match self.dead_letter_raw(&path, &text, &e.to_string()) {
                    Ok(id) => {
                        note_id(&mut out, &id);
                        out.dead_lettered
                            .push((id, format!("record failed to decode: {e}")));
                    }
                    Err(move_err) => out.skipped.push((path, format!("{e}; then {move_err}"))),
                },
            }
        }
        if out.next_job_number == 0 {
            out.next_job_number = 1;
        }
        Ok(out)
    }

    /// A `queued` record's resume point: its spooled checkpoint when it
    /// decodes, otherwise none (restart from scratch) plus the rendered
    /// reason it was discarded. An envelope's counters raise `rec`'s where
    /// they are larger: the record is not rewritten per slice, but a
    /// failed progress write leaves the record ahead of the envelope.
    pub fn resume_point(&self, rec: &mut JobRecord) -> (Option<Checkpoint>, Option<String>) {
        if !matches!(rec.status, JobStatus::Queued) {
            return (None, None);
        }
        match self.load_progress(&rec.id) {
            Ok(Some((ck, progress))) => {
                if let Some(p) = progress {
                    rec.preemptions = rec.preemptions.max(p.preemptions);
                    rec.spent = rec.spent.max(p.spent);
                }
                (Some(ck), None)
            }
            Ok(None) => (None, None),
            Err(e) => (None, Some(e.to_string())),
        }
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
