//! Checkpoint/resume: preemption-safe persisted solver frontiers.
//!
//! Every solver family in this workspace is a long-running search. Under
//! multi-tenant load the engine's [`Budget`](crate::Budget) preempts runs,
//! and before this module a preemption *discarded* all work done: the only
//! artifact of an exhausted run was `Outcome::Exhausted(reason)`. This
//! module turns exhaustion into a pause. A solver's `solve_resumable` entry
//! point returns a [`ResumableOutcome`]: either a final verdict, or
//! `Suspended { reason, checkpoint }` where the [`Checkpoint`] captures the
//! exact search frontier — DPLL decision stack + assignment, CSP
//! backtracking state, WCOJ trie-iterator positions, triangle/clique loop
//! indices. Feeding the checkpoint back continues the run as if it had
//! never stopped.
//!
//! # Container format
//!
//! A checkpoint serializes to a versioned, checksummed, length-prefixed
//! binary container (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "LBCK"
//! 4       2     container format version (FORMAT_VERSION)
//! 6       2     solver family tag (SolverFamily)
//! 8       2     family payload version
//! 10      8     payload length `n` (u64)
//! 18      n     family payload (opaque to the container)
//! 18+n    8     FNV-1a-64 checksum over bytes [0, 18+n)
//! ```
//!
//! Decoding is strict: truncation, a flipped bit, a version skew, an
//! unknown family tag, or trailing garbage each produce a typed
//! [`CheckpointError`] with the byte offset where decoding failed — never a
//! panic, never a silently wrong frontier. Family payloads embed an
//! instance digest (FNV-1a over a canonical encoding of the instance plus
//! solver configuration) so resuming against the *wrong* instance is a
//! typed [`CheckpointError::InstanceMismatch`], not a wrong verdict.
//!
//! # Versioning rules
//!
//! * The container `FORMAT_VERSION` bumps only when the layout above
//!   changes. Decoders reject any other version ([`CheckpointError::VersionSkew`]).
//! * Each family owns an independent payload version constant, bumped
//!   whenever that family's frontier encoding changes; skew is rejected
//!   before any payload byte is interpreted.
//! * Checkpoints are not a migration surface: a rejected checkpoint means
//!   "recompute from scratch", which is always sound.
//!
//! # The slice-equivalence invariant
//!
//! The machine-checked contract (see `tests/resume_properties.rs`): for
//! every solver family, splitting a budget into k slices and chaining
//! resumes yields the same verdict, the same witness validity, and the same
//! *summed* [`RunStats`](crate::RunStats) as one uninterrupted run — even
//! when the interruption points are chosen adversarially by
//! [`FaultPlan::from_seed`](crate::FaultPlan::from_seed). Solvers uphold it
//! by structuring every counted operation as *effect before charge*: the
//! state mutation lands, the phase advances to the continuation point, and
//! only then is the tick spent. When the charge fails the operation is
//! already done and counted, so the resumed run continues with the *next*
//! operation — nothing is redone, nothing is double-counted.

use crate::ExhaustReason;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// The 4-byte magic prefix of every checkpoint container.
pub const MAGIC: [u8; 4] = *b"LBCK";

/// Container format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header length: magic + format version + family tag + payload
/// version + payload length.
const HEADER_LEN: usize = 4 + 2 + 2 + 2 + 8;

/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

/// Hard cap on the declared payload length (64 MiB): a corrupted length
/// prefix must not drive allocation.
const MAX_PAYLOAD_LEN: u64 = 64 << 20;

/// The solver family a checkpoint belongs to. Tags are stable: they are
/// part of the on-disk format and must never be reused or renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverFamily {
    /// DPLL SAT search (`lb_sat::dpll`).
    Dpll,
    /// Backtracking CSP search (`lb_csp::solver::backtracking`).
    CspBacktracking,
    /// Generic worst-case optimal join (`lb_join::wcoj`).
    GenericJoin,
    /// Edge-scan triangle detection/counting (`lb_graphalg::triangle`).
    TriangleScan,
    /// k-clique enumeration (`lb_graphalg::clique`).
    CliqueEnum,
}

impl SolverFamily {
    /// Every family, in tag order.
    pub const ALL: [SolverFamily; 5] = [
        SolverFamily::Dpll,
        SolverFamily::CspBacktracking,
        SolverFamily::GenericJoin,
        SolverFamily::TriangleScan,
        SolverFamily::CliqueEnum,
    ];

    /// The stable on-disk tag.
    pub fn tag(self) -> u16 {
        match self {
            SolverFamily::Dpll => 1,
            SolverFamily::CspBacktracking => 2,
            SolverFamily::GenericJoin => 3,
            SolverFamily::TriangleScan => 4,
            SolverFamily::CliqueEnum => 5,
        }
    }

    /// Decodes a tag; `None` for tags this build does not know.
    pub fn from_tag(tag: u16) -> Option<SolverFamily> {
        SolverFamily::ALL.into_iter().find(|f| f.tag() == tag)
    }

    /// Human-readable family name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SolverFamily::Dpll => "dpll",
            SolverFamily::CspBacktracking => "csp-backtracking",
            SolverFamily::GenericJoin => "generic-join",
            SolverFamily::TriangleScan => "triangle-scan",
            SolverFamily::CliqueEnum => "clique-enum",
        }
    }
}

impl fmt::Display for SolverFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a checkpoint could not be decoded or resumed. Every variant carries
/// enough context to diagnose the failure without a debugger; none of them
/// is ever a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the declared structure did.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
        /// Bytes needed at that offset.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not `LBCK`: not a checkpoint file.
    BadMagic,
    /// The container format version is not one this build reads.
    VersionSkew {
        /// Version found in the header.
        found: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The trailing FNV-1a-64 checksum does not match the container bytes.
    Corrupted {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum stored in the container.
        found: u64,
    },
    /// The family tag is not one this build knows.
    UnknownFamily {
        /// The unrecognized tag.
        tag: u16,
    },
    /// The checkpoint belongs to a different solver family than the one
    /// trying to resume from it.
    WrongFamily {
        /// The family the resuming solver expected.
        expected: SolverFamily,
        /// The family recorded in the checkpoint.
        found: SolverFamily,
    },
    /// The family payload version is not one this build's solver reads.
    PayloadVersionSkew {
        /// The family whose payload version skewed.
        family: SolverFamily,
        /// Version found in the header.
        found: u16,
        /// Version the solver supports.
        supported: u16,
    },
    /// The checkpoint was taken against a different instance (or solver
    /// configuration) than the one being resumed.
    InstanceMismatch {
        /// The family that detected the mismatch.
        family: SolverFamily,
        /// Digest of the instance being resumed.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// The payload is structurally invalid: an index out of bounds, an
    /// impossible phase tag, an inconsistent stack.
    Malformed {
        /// What was wrong.
        what: String,
        /// Byte offset within the payload where decoding failed.
        offset: usize,
    },
    /// Well-formed structure followed by extra bytes.
    TrailingGarbage {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A filesystem operation on a checkpoint file failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, stringified.
        error: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated {
                offset,
                needed,
                have,
            } => write!(
                f,
                "checkpoint truncated at byte {offset}: needed {needed} more byte(s), have {have}"
            ),
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint: missing LBCK magic at byte 0")
            }
            CheckpointError::VersionSkew { found, supported } => write!(
                f,
                "checkpoint format version skew: file has v{found}, this build reads v{supported}"
            ),
            CheckpointError::Corrupted { expected, found } => write!(
                f,
                "checkpoint corrupted: checksum {found:#018x} recorded, {expected:#018x} computed"
            ),
            CheckpointError::UnknownFamily { tag } => {
                write!(f, "checkpoint names unknown solver family tag {tag}")
            }
            CheckpointError::WrongFamily { expected, found } => write!(
                f,
                "checkpoint is for solver family `{found}`, but `{expected}` tried to resume it"
            ),
            CheckpointError::PayloadVersionSkew {
                family,
                found,
                supported,
            } => write!(
                f,
                "`{family}` payload version skew: checkpoint has v{found}, solver reads v{supported}"
            ),
            CheckpointError::InstanceMismatch {
                family,
                expected,
                found,
            } => write!(
                f,
                "`{family}` checkpoint was taken against a different instance/configuration \
                 (digest {found:#018x} recorded, {expected:#018x} expected)"
            ),
            CheckpointError::Malformed { what, offset } => {
                write!(f, "malformed checkpoint payload at byte {offset}: {what}")
            }
            CheckpointError::TrailingGarbage { offset } => {
                write!(f, "checkpoint has trailing garbage starting at byte {offset}")
            }
            CheckpointError::Io { path, error } => {
                write!(f, "checkpoint io error on `{path}`: {error}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash: the workspace's zero-dependency checksum and
/// instance-digest primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a-64 digest builder, used by solvers to fingerprint
/// the (instance, configuration) pair a checkpoint was taken against.
#[derive(Clone, Debug)]
pub struct Digest {
    h: u64,
}

impl Digest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Digest {
        Digest {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a little-endian u64 into the digest.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a usize (widened to u64) into the digest.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Folds a string (length-prefixed) into the digest.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// A serialized solver frontier: family, payload version, and the family's
/// opaque payload bytes. Constructed by solvers at suspension points and
/// handed back to them to resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    family: SolverFamily,
    payload_version: u16,
    payload: Vec<u8>,
}

impl Checkpoint {
    /// Wraps a family payload in a checkpoint.
    pub fn new(family: SolverFamily, payload_version: u16, payload: Vec<u8>) -> Checkpoint {
        Checkpoint {
            family,
            payload_version,
            payload,
        }
    }

    /// The solver family this checkpoint belongs to.
    pub fn family(&self) -> SolverFamily {
        self.family
    }

    /// The family payload version.
    pub fn payload_version(&self) -> u16 {
        self.payload_version
    }

    /// The opaque family payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Guard used by solvers at resume entry: errors unless the checkpoint
    /// belongs to `expected` at payload version `supported`.
    #[must_use = "a failed family/version guard must abort the resume"]
    pub fn verify(&self, expected: SolverFamily, supported: u16) -> Result<(), CheckpointError> {
        if self.family != expected {
            return Err(CheckpointError::WrongFamily {
                expected,
                found: self.family,
            });
        }
        if self.payload_version != supported {
            return Err(CheckpointError::PayloadVersionSkew {
                family: expected,
                found: self.payload_version,
                supported,
            });
        }
        Ok(())
    }

    /// Serializes to the LBCK container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.family.tag().to_le_bytes());
        out.extend_from_slice(&self.payload_version.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes an LBCK container, validating magic, version, length, and
    /// checksum. The family payload is *not* interpreted here — that is the
    /// owning solver's job at resume time.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let need = |offset: usize, needed: usize| -> Result<(), CheckpointError> {
            if bytes.len() < offset + needed {
                Err(CheckpointError::Truncated {
                    offset,
                    needed: offset + needed - bytes.len(),
                    have: bytes.len().saturating_sub(offset),
                })
            } else {
                Ok(())
            }
        };
        need(0, 4)?;
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        need(4, 2)?;
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionSkew {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        need(6, 2)?;
        let tag = u16::from_le_bytes([bytes[6], bytes[7]]);
        need(8, 2)?;
        let payload_version = u16::from_le_bytes([bytes[8], bytes[9]]);
        need(10, 8)?;
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bytes[10..18]);
        let payload_len = u64::from_le_bytes(len_bytes);
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(CheckpointError::Malformed {
                what: format!(
                    "declared payload length {payload_len} exceeds the {MAX_PAYLOAD_LEN}-byte cap"
                ),
                offset: 10,
            });
        }
        let payload_len = payload_len as usize;
        need(HEADER_LEN, payload_len + CHECKSUM_LEN)?;
        let body_end = HEADER_LEN + payload_len;
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&bytes[body_end..body_end + CHECKSUM_LEN]);
        let recorded = u64::from_le_bytes(sum_bytes);
        let computed = fnv1a(&bytes[..body_end]);
        if recorded != computed {
            return Err(CheckpointError::Corrupted {
                expected: computed,
                found: recorded,
            });
        }
        if bytes.len() > body_end + CHECKSUM_LEN {
            return Err(CheckpointError::TrailingGarbage {
                offset: body_end + CHECKSUM_LEN,
            });
        }
        // Family tag is validated *after* the checksum: an unknown tag in a
        // checksummed container is a genuine version problem, not noise.
        let family = SolverFamily::from_tag(tag).ok_or(CheckpointError::UnknownFamily { tag })?;
        Ok(Checkpoint {
            family,
            payload_version,
            payload: bytes[HEADER_LEN..body_end].to_vec(),
        })
    }

    /// Writes the checkpoint to `path` atomically: the bytes land in
    /// `<path>.tmp`, are fsynced, and are renamed over `path`, so a crash —
    /// including `kill -9` — leaves either the old checkpoint or the new
    /// one, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_write(path, &self.to_bytes())
    }

    /// Reads and decodes a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        Checkpoint::from_bytes(&bytes)
    }
}

/// The `.tmp` staging sibling of `path` used by [`atomic_write`]: the same
/// file name with `.tmp` appended (not a replaced extension, so
/// `job.lbck` stages through `job.lbck.tmp`).
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::path::PathBuf::from(tmp)
}

/// Writes `bytes` to `path` atomically: the bytes land in the
/// [`tmp_sibling`], are fsynced, and are renamed over `path`, so a crash —
/// including `kill -9` — leaves either the old contents or the new ones,
/// never a torn file. At worst a stale `.tmp` sibling survives; recovery
/// paths remove it with [`cleanup_artifacts`].
///
/// Every stage consults the [`fault::IoFaultPlan`](crate::fault::IoFaultPlan)
/// installed by [`fault::with_io_plan`](crate::fault::with_io_plan), so the
/// chaos suite can force a torn tmp write, a failed fsync, or a failed
/// rename at an exact save attempt and prove the destination is still
/// either absent or a previous complete version. An injected `TmpWrite`
/// fault deliberately leaves a *half-written* `.tmp` behind before
/// returning the typed error — the realistic torn artifact the recovery
/// invariant is about.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let display = path.display().to_string();
    let io_err = |e: std::io::Error| CheckpointError::Io {
        path: display.clone(),
        error: e.to_string(),
    };
    let injected = |stage: &str| CheckpointError::Io {
        path: display.clone(),
        error: format!("injected io fault: {stage}"),
    };
    let tmp = tmp_sibling(path);
    let attempt = crate::fault::io_attempt_begin();
    let mut file = fs::File::create(&tmp).map_err(io_err)?;
    if crate::fault::io_should_fail(crate::fault::IoFaultKind::TmpWrite, attempt) {
        // Torn write: a prefix lands on disk, then the "device" gives out.
        file.write_all(&bytes[..bytes.len() / 2]).map_err(io_err)?;
        return Err(injected("tmp-write"));
    }
    file.write_all(bytes).map_err(io_err)?;
    if crate::fault::io_should_fail(crate::fault::IoFaultKind::Sync, attempt) {
        return Err(injected("fsync"));
    }
    file.sync_all().map_err(io_err)?;
    drop(file);
    if crate::fault::io_should_fail(crate::fault::IoFaultKind::Rename, attempt) {
        return Err(injected("rename"));
    }
    fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// The 4-byte magic that opens every frame of a frame log ([`append_frame`]).
pub const FRAME_MAGIC: [u8; 4] = *b"LBJF";

/// Frame header length: magic + kind + payload length + header check.
const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// The low 32 bits of the FNV-1a-64 of a frame's first nine header bytes:
/// a flipped length byte must not pass for a frame that runs past the end
/// of the log (which would read as a torn tail, not as corruption).
fn frame_header_check(head: &[u8]) -> u32 {
    (fnv1a(head) & 0xffff_ffff) as u32
}

/// Encodes one frame of a frame log (all integers little-endian):
///
/// ```text
/// offset  size  field
/// 0       4     magic "LBJF"
/// 4       1     kind (caller-defined)
/// 5       4     payload length `n` (u32)
/// 9       4     header check: low 32 bits of FNV-1a-64 over bytes [0, 9)
/// 13      n     payload
/// 13+n    8     FNV-1a-64 over bytes [0, 13+n)
/// ```
///
/// A payload over the 64 MiB container cap is a typed error.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| u64::from(n) <= MAX_PAYLOAD_LEN)
        .ok_or_else(|| CheckpointError::Malformed {
            what: format!(
                "frame payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap",
                payload.len()
            ),
            offset: 5,
        })?;
    let mut w = PayloadWriter::new();
    w.bytes(&FRAME_MAGIC).u8(kind).u32(len);
    let mut out = w.finish();
    let check = frame_header_check(&out);
    out.reserve(4 + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&check.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// One complete frame of a frame log, borrowed from the log's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The caller-defined kind byte.
    pub kind: u8,
    /// Byte offset of the frame within the log.
    pub offset: usize,
    /// The frame's payload.
    pub payload: &'a [u8],
}

/// A frame log as [`read_frames`] found it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameLog<'a> {
    /// Every complete frame, in append order.
    pub frames: Vec<Frame<'a>>,
    /// Length of the complete prefix. Bytes past it are a torn final
    /// frame: an append whose sync never returned.
    pub complete_len: usize,
}

impl<'a> FrameLog<'a> {
    /// The last complete frame of `kind`, if any.
    pub fn last(&self, kind: u8) -> Option<&Frame<'a>> {
        self.frames.iter().rev().find(|f| f.kind == kind)
    }
}

/// What starts at one offset of a frame log.
enum FrameAt<'a> {
    /// A complete frame: its kind, its payload and its total length.
    Complete(u8, &'a [u8], usize),
    /// Fewer bytes than the header, or than the length it declares.
    Short,
    /// A header or trailing checksum that fails, with what failed.
    Bad(String),
}

/// Reads the frame at the start of `rest`.
fn frame_at(rest: &[u8]) -> FrameAt<'_> {
    if rest.len() < FRAME_HEADER_LEN {
        return FrameAt::Short;
    }
    let head = &rest[..9];
    let mut check = [0u8; 4];
    check.copy_from_slice(&rest[9..FRAME_HEADER_LEN]);
    if head[..4] != FRAME_MAGIC || u32::from_le_bytes(check) != frame_header_check(head) {
        return FrameAt::Bad("frame header fails its magic or check".into());
    }
    let mut len = [0u8; 4];
    len.copy_from_slice(&head[5..9]);
    let body_end = FRAME_HEADER_LEN + u32::from_le_bytes(len) as usize;
    let end = body_end + CHECKSUM_LEN;
    if rest.len() < end {
        return FrameAt::Short;
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&rest[body_end..end]);
    let recorded = u64::from_le_bytes(sum);
    let computed = fnv1a(&rest[..body_end]);
    if recorded != computed {
        return FrameAt::Bad(format!(
            "frame checksum {recorded:#018x} recorded, {computed:#018x} computed"
        ));
    }
    FrameAt::Complete(head[4], &rest[FRAME_HEADER_LEN..body_end], end)
}

/// Splits a frame log into its complete frames.
///
/// A bad frame (failed magic, header check or checksum) that no complete
/// frame follows is a torn append, as is a short final frame: it is left
/// out and `complete_len` stops before it. That covers a write cut short
/// and a tail whose size landed but whose bytes never did (zeros, or a
/// stale sector). A bad frame with a complete frame after it is
/// corruption: a typed error with the bad frame's offset. Never a panic,
/// and never a frame that was not fully written.
pub fn read_frames(bytes: &[u8]) -> Result<FrameLog<'_>, CheckpointError> {
    let mut frames = Vec::new();
    let mut at = 0;
    loop {
        match frame_at(&bytes[at..]) {
            FrameAt::Complete(kind, payload, len) => {
                frames.push(Frame {
                    kind,
                    offset: at,
                    payload,
                });
                at += len;
            }
            FrameAt::Short => break,
            FrameAt::Bad(what) => {
                let followed = (at + 1..bytes.len())
                    .any(|p| matches!(frame_at(&bytes[p..]), FrameAt::Complete(..)));
                if followed {
                    return Err(CheckpointError::Malformed { what, offset: at });
                }
                break;
            }
        }
    }
    Ok(FrameLog {
        frames,
        complete_len: at,
    })
}

/// Appends one frame ([`encode_frame`]) to the log at `path`, creating it
/// if absent, and `fdatasync`s it. Once this returns `Ok`, the frame
/// survives any crash. A failed write or sync truncates the log back to
/// its length before the call, so the next append never lands behind a
/// torn frame; a crash before that rollback leaves the torn frame, which
/// [`read_frames`] reports as a torn tail.
///
/// Consults the same [`fault::IoFaultPlan`](crate::fault::IoFaultPlan) as
/// [`atomic_write`], one save attempt per call: `TmpWrite` lands half the
/// frame, then fails; `Sync` fails the `fdatasync`. An append has no
/// rename, so `Rename` points never fire here.
pub fn append_frame(path: &Path, kind: u8, payload: &[u8]) -> Result<(), CheckpointError> {
    let frame = encode_frame(kind, payload)?;
    let attempt = crate::fault::io_attempt_begin();
    let fail = |stage: crate::fault::IoFaultKind| crate::fault::io_should_fail(stage, attempt);
    let io_err = |error: String| CheckpointError::Io {
        path: path.display().to_string(),
        error,
    };
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(e.to_string()))?;
    let start = file.metadata().map_err(|e| io_err(e.to_string()))?.len();
    let landed = if fail(crate::fault::IoFaultKind::TmpWrite) {
        // Torn append: a prefix lands, then the "device" gives out.
        file.write_all(&frame[..frame.len() / 2])
            .map_err(|e| e.to_string())
            .and(Err("injected io fault: append-write".to_string()))
    } else {
        file.write_all(&frame).map_err(|e| e.to_string())
    }
    .and_then(|()| {
        if fail(crate::fault::IoFaultKind::Sync) {
            return Err("injected io fault: fdatasync".to_string());
        }
        file.sync_data().map_err(|e| e.to_string())
    });
    let Err(error) = landed else {
        return Ok(());
    };
    match file.set_len(start).and_then(|()| file.sync_data()) {
        Ok(()) => Err(io_err(error)),
        Err(undo) => Err(io_err(format!(
            "{error}; rollback to {start} bytes also failed: {undo}"
        ))),
    }
}

/// Removes the artifact at `path` *and* any stale [`tmp_sibling`] left by a
/// save that was killed between tmp-write and rename. Missing files are
/// fine (cleanup is idempotent); the first real I/O error is returned as a
/// typed [`CheckpointError::Io`].
pub fn cleanup_artifacts(path: &Path) -> Result<(), CheckpointError> {
    let mut first_err = None;
    for target in [path.to_path_buf(), tmp_sibling(path)] {
        if let Err(e) = fs::remove_file(&target) {
            if e.kind() != std::io::ErrorKind::NotFound && first_err.is_none() {
                first_err = Some(CheckpointError::Io {
                    path: target.display().to_string(),
                    error: e.to_string(),
                });
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The one shared resumable-vs-terminal exhaustion diagnostic, used by both
/// lbtool's exit-3 path and the server's terminal-verdict detail so the two
/// never drift apart. `saved` is the checkpoint that survives the
/// exhaustion, if any.
pub fn exhaustion_diagnostic(reason: &str, saved: Option<&Path>) -> String {
    match saved {
        Some(p) => format!(
            "{reason} (resumable: frontier saved to {}; rerun with --resume {} and a fresh --budget)",
            p.display(),
            p.display()
        ),
        None => format!("{reason} (terminal: progress lost; rerun with a larger --budget or --checkpoint)"),
    }
}

/// The verdict of a resumable solver run: a final answer, or a suspension
/// carrying the frontier needed to continue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumableOutcome<W> {
    /// The run completed with witness/value `w`.
    Sat(W),
    /// The run completed: provably no witness.
    Unsat,
    /// The budget ran out (or a fault fired); the checkpoint resumes the
    /// run exactly where it stopped.
    Suspended {
        /// Why the run stopped.
        reason: ExhaustReason,
        /// The serialized frontier.
        checkpoint: Checkpoint,
    },
}

impl<W> ResumableOutcome<W> {
    /// True iff the run is suspended.
    pub fn is_suspended(&self) -> bool {
        matches!(self, ResumableOutcome::Suspended { .. })
    }

    /// The checkpoint, if suspended.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            ResumableOutcome::Suspended { checkpoint, .. } => Some(checkpoint),
            _ => None,
        }
    }

    /// Converts to a plain [`Outcome`](crate::Outcome), discarding any
    /// checkpoint.
    pub fn into_outcome(self) -> crate::Outcome<W> {
        match self {
            ResumableOutcome::Sat(w) => crate::Outcome::Sat(w),
            ResumableOutcome::Unsat => crate::Outcome::Unsat,
            ResumableOutcome::Suspended { reason, .. } => crate::Outcome::Exhausted(reason),
        }
    }
}

/// Append-only payload encoder: fixed-width little-endian primitives. The
/// matching [`PayloadReader`] validates every read.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> PayloadWriter {
        PayloadWriter { buf: Vec::new() }
    }

    /// Appends raw bytes, with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a u8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a usize widened to u64.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Appends a length-prefixed sequence of usizes.
    pub fn seq_usize(&mut self, vs: &[usize]) -> &mut Self {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
        self
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict payload decoder: every read is bounds-checked and every failure
/// is a typed [`CheckpointError`] carrying the byte offset.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(bytes: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Malformed {
            what: "payload offset overflow".into(),
            offset: self.pos,
        })?;
        if end > self.bytes.len() {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: end - self.bytes.len(),
                have: self.bytes.len() - self.pos,
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a u8.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Malformed {
                what: format!("expected bool (0/1), found {b}"),
                offset: at,
            }),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a usize (stored as u64); fails on platform overflow.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Malformed {
            what: format!("value {v} does not fit a usize on this platform"),
            offset: at,
        })
    }

    /// Reads a usize and checks `v < bound`, naming `what` on failure.
    pub fn usize_below(&mut self, bound: usize, what: &str) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let v = self.usize()?;
        if v >= bound {
            return Err(CheckpointError::Malformed {
                what: format!("{what} {v} out of range (< {bound} required)"),
                offset: at,
            });
        }
        Ok(v)
    }

    /// Reads a usize and checks `v <= bound`, naming `what` on failure.
    pub fn usize_at_most(&mut self, bound: usize, what: &str) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let v = self.usize()?;
        if v > bound {
            return Err(CheckpointError::Malformed {
                what: format!("{what} {v} out of range (<= {bound} required)"),
                offset: at,
            });
        }
        Ok(v)
    }

    /// Reads a sequence length, guarding against lengths that could not
    /// possibly fit in the remaining bytes (each element needs at least
    /// `min_elem_bytes`).
    pub fn seq_len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, CheckpointError> {
        let at = self.pos;
        let n = self.usize()?;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CheckpointError::Malformed {
                what: format!(
                    "{what} length {n} impossible: only {remaining} payload byte(s) remain"
                ),
                offset: at,
            });
        }
        Ok(n)
    }

    /// Asserts the payload is fully consumed.
    #[must_use = "an unfinished reader means the payload was not validated end to end"]
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::TrailingGarbage { offset: self.pos });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut w = PayloadWriter::new();
        w.u64(0xdead_beef).usize(7).bool(true).seq_usize(&[1, 2, 3]);
        Checkpoint::new(SolverFamily::Dpll, 3, w.finish())
    }

    #[test]
    fn round_trip_identity() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.family(), SolverFamily::Dpll);
        assert_eq!(back.payload_version(), 3);
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadMagic
                ),
                "prefix of {n} bytes: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_bitflip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[i] ^= 1 << bit;
                assert!(
                    Checkpoint::from_bytes(&evil).is_err(),
                    "bit {bit} of byte {i}: flip decoded successfully"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        // Fix nothing else: version is checked before the checksum so old
        // readers bail before interpreting a layout they do not know.
        assert_eq!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::VersionSkew {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn unknown_family_is_typed_after_checksum() {
        let ck = sample();
        let mut c = ck.clone();
        c.family = SolverFamily::CliqueEnum; // re-encode with a bogus tag below
        let mut bytes = c.to_bytes();
        bytes[6] = 0xfe;
        bytes[7] = 0xff;
        // Recompute the checksum so only the tag is "wrong".
        let body_end = bytes.len() - CHECKSUM_LEN;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::UnknownFamily { tag: 0xfffe }
        );
    }

    #[test]
    fn trailing_garbage_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::TrailingGarbage {
                offset: bytes.len() - 1
            }
        );
    }

    #[test]
    fn huge_declared_length_does_not_allocate() {
        let mut bytes = sample().to_bytes();
        bytes[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Malformed { .. }
        ));
    }

    #[test]
    fn verify_guards_family_and_version() {
        let ck = sample();
        assert!(ck.verify(SolverFamily::Dpll, 3).is_ok());
        assert_eq!(
            ck.verify(SolverFamily::GenericJoin, 3).unwrap_err(),
            CheckpointError::WrongFamily {
                expected: SolverFamily::GenericJoin,
                found: SolverFamily::Dpll
            }
        );
        assert_eq!(
            ck.verify(SolverFamily::Dpll, 4).unwrap_err(),
            CheckpointError::PayloadVersionSkew {
                family: SolverFamily::Dpll,
                found: 3,
                supported: 4
            }
        );
    }

    #[test]
    fn reader_validates_bounds_and_exhaustion() {
        let mut w = PayloadWriter::new();
        w.usize(5).u8(7);
        let payload = w.finish();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.usize_below(6, "var").unwrap(), 5);
        let mut r2 = PayloadReader::new(&payload);
        assert!(matches!(
            r2.usize_below(5, "var").unwrap_err(),
            CheckpointError::Malformed { .. }
        ));
        assert!(matches!(
            r.finish().unwrap_err(),
            CheckpointError::TrailingGarbage { offset: 8 }
        ));
    }

    #[test]
    fn reader_truncation_is_typed() {
        let mut r = PayloadReader::new(&[1, 2]);
        assert!(matches!(
            r.u64().unwrap_err(),
            CheckpointError::Truncated {
                offset: 0,
                needed: 6,
                have: 2
            }
        ));
    }

    #[test]
    fn seq_len_rejects_impossible_lengths() {
        let mut w = PayloadWriter::new();
        w.usize(1 << 40);
        let payload = w.finish();
        let mut r = PayloadReader::new(&payload);
        assert!(matches!(
            r.seq_len(8, "frames").unwrap_err(),
            CheckpointError::Malformed { .. }
        ));
    }

    #[test]
    fn save_load_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join(format!("lbck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ck");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // A missing file is a typed Io error, not a panic.
        assert!(matches!(
            Checkpoint::load(&dir.join("missing.ck")).unwrap_err(),
            CheckpointError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn three_frame_log() -> (Vec<u8>, Vec<usize>) {
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for (kind, payload) in [(1u8, &b"record"[..]), (2, &[7u8; 40][..]), (1, &b""[..])] {
            log.extend(encode_frame(kind, payload).unwrap());
            ends.push(log.len());
        }
        (log, ends)
    }

    #[test]
    fn every_prefix_reads_as_its_complete_frames() {
        let (log, ends) = three_frame_log();
        // Behind each prefix, nothing, or a tail whose size landed but
        // whose bytes never did (zeros, or a stale sector): both are torn.
        let tails = [(0u8, 0), (0, 1), (0, 12), (0, 13), (0, 64), (0xff, 13)];
        for n in 0..=log.len() {
            let complete = ends.iter().filter(|&&e| e <= n).count();
            for (fill, tail) in tails {
                let mut torn = log[..n].to_vec();
                torn.resize(n + tail, fill);
                let read = read_frames(&torn).unwrap();
                assert_eq!(
                    read.frames.len(),
                    complete,
                    "prefix {n} + {tail} x {fill:#x}"
                );
                assert_eq!(
                    read.complete_len,
                    ends[..complete].last().copied().unwrap_or(0)
                );
            }
        }
        let read = read_frames(&log).unwrap();
        assert_eq!(read.last(1).unwrap().payload, b"");
        assert_eq!(read.last(2).unwrap().payload, &[7u8; 40][..]);
        assert_eq!(read.last(3), None);
    }

    #[test]
    fn every_flip_before_the_final_frame_is_typed_corruption() {
        let (log, ends) = three_frame_log();
        for i in 0..ends[1] {
            let mut evil = log.clone();
            evil[i] ^= 0x20;
            match read_frames(&evil) {
                Err(CheckpointError::Malformed { offset, .. }) => {
                    assert!(offset <= i, "byte {i}: offset {offset} past the flip");
                }
                other => panic!("byte {i}: expected corruption, got {other:?}"),
            }
        }
        // A flip anywhere in the final frame, header included, reads as a
        // torn tail: no complete frame follows it.
        for i in ends[1]..log.len() {
            let mut evil = log.clone();
            evil[i] ^= 0x20;
            assert_eq!(
                read_frames(&evil).unwrap().complete_len,
                ends[1],
                "byte {i}"
            );
        }
    }

    #[test]
    fn append_frame_round_trips_and_rolls_back_faults() {
        use crate::fault::{with_io_plan, IoFaultKind, IoFaultPlan};
        let dir = std::env::temp_dir().join(format!("lbjf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.log");
        let _fresh = std::fs::remove_file(&path);
        append_frame(&path, 1, b"first").unwrap();
        let before = std::fs::read(&path).unwrap();
        for kind in [IoFaultKind::TmpWrite, IoFaultKind::Sync] {
            let plan = IoFaultPlan::new().with_point(kind, 1);
            let err = with_io_plan(&plan, || append_frame(&path, 2, b"second")).unwrap_err();
            assert!(err.to_string().contains("injected"), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "{kind:?} rolled back"
            );
        }
        append_frame(&path, 2, b"second").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let read = read_frames(&bytes).unwrap();
        assert_eq!(read.complete_len, bytes.len());
        let payloads: Vec<&[u8]> = read.frames.iter().map(|f| f.payload).collect();
        assert_eq!(payloads, vec![&b"first"[..], &b"second"[..]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumable_outcome_conversions() {
        let s: ResumableOutcome<u64> = ResumableOutcome::Sat(9);
        assert!(!s.is_suspended());
        assert_eq!(s.into_outcome(), crate::Outcome::Sat(9));
        let u: ResumableOutcome<u64> = ResumableOutcome::Unsat;
        assert_eq!(u.into_outcome(), crate::Outcome::Unsat);
        let p = ResumableOutcome::<u64>::Suspended {
            reason: ExhaustReason::Ticks { limit: 4 },
            checkpoint: sample(),
        };
        assert!(p.is_suspended());
        assert!(p.checkpoint().is_some());
        assert!(p.into_outcome().is_exhausted());
    }
}
