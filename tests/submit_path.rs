//! Pins of the bytes on the SUBMIT path: what the server answers for each
//! request in the protocol corpus, the payload text a hostile stream
//! assembles to, and the bytes `render_submit` puts on the wire and
//! `JobRecord::encode` puts in a job log.
//!
//! The reference for the last two is a copy, kept here, of the per-line
//! assembly and the `lines()` encoders the server used before payloads
//! travelled as one buffer: every error line, every trimmed `\r` and every
//! logged byte must come out as it did then.
//!
//! Past the bytes: a disk fault at admission is a retryable rejection that
//! acknowledges no id, and a job that settles keeps no payload text
//! (`STATS held_bytes=0`) while `STATUS` still answers it, after a
//! recovery too.

use lb_engine::fault::{with_io_plan, IoFaultKind, IoFaultPlan};
use lb_engine::parse::{ParseError, ParseErrorKind};
use lb_serve::client::{render_submit, retry_after_hint, retry_with_backoff, Backoff, ClientError};
use lb_serve::protocol::{parse_command, parse_request_bytes, Command, Reject, Request};
use lb_serve::protocol::{MAX_LINE_BYTES, MAX_PAYLOAD_LINES};
use lb_serve::{JobFamily, JobRecord, JobSpec, JobStatus, Submission, Verdict};
use lb_serve::{Scheduler, SchedulerConfig, Spool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/serve/fixtures/protocol")
}

/// A fresh admission record for `spec`, as the scheduler writes it.
fn admission(spec: JobSpec) -> JobRecord {
    JobRecord {
        id: "j1".to_string(),
        spec,
        status: JobStatus::Queued,
        preemptions: 0,
        spent: 0,
        attempts: 0,
    }
}

/// What the server makes of one request: its `ERR` line, the admission
/// record of an accepted submission, or the other request's debug form.
fn outcome(bytes: &[u8]) -> String {
    match parse_request_bytes(bytes) {
        Err(e) => Reject::Parse(e).to_line(),
        Ok(Request::Submit(s)) => admission(s.spec().clone()).encode(),
        Ok(other) => format!("{other:?}"),
    }
}

/// Every corpus request's outcome, captured before payloads travelled as
/// one buffer.
const CORPUS_OUTCOMES: &[(&str, &str)] = &[
    ("empty.req", "ERR parse 1:1: missing command verb"),
    ("invalid-utf8-payload.req", "ERR parse 2:1: malformed byte (invalid UTF-8)"),
    ("invalid-utf8.req", "ERR parse 1:3: malformed byte (invalid UTF-8)"),
    ("nul-after-crlf-line.req", "ERR parse 3:1: malformed NUL byte in request"),
    ("nul-in-payload.req", "ERR parse 2:10: malformed NUL byte in request"),
    ("status-extra-arg.req", "ERR parse 1:11: trailing garbage `j2`"),
    ("status-hostile-id.req", "ERR parse 1:8: malformed job id `../../etc/passwd` (allowed: ASCII letters, digits, `.`, `_`, `-`)"),
    ("status-missing-id.req", "ERR parse 1:1: missing job id after STATUS"),
    ("submit-bad-dimacs.req", "ERR parse 3:3: invalid literal `-x`"),
    ("submit-bad-family.req", "ERR parse 1:13: malformed family `frobnicate` (expected sat, csp, join, triangle, or clique)"),
    ("submit-budget-zero.req", "ERR parse 1:19: job budget `0` out of range (at least 1 tick)"),
    ("submit-clique-missing-k.req", "ERR parse 1:1: missing k=<n> for a clique job"),
    ("submit-edge-out-of-range.req", "ERR parse 3:3: edge endpoint `7` out of range (2 vertices declared)"),
    ("submit-hostile-tenant.req", "ERR parse 1:8: malformed tenant `ac!me` (allowed: ASCII letters, digits, `.`, `_`, `-`)"),
    ("submit-huge-count.req", "ERR parse 1:17: payload line count `99999` out of range (at most 4096)"),
    ("submit-join-comma-atoms.req", "ERR parse 2:6: malformed atom `R(a,b),S(a,c),T(b,c)` (`)` in a name; allowed: ASCII letters, digits, `_`)"),
    ("submit-k-on-sat.req", "ERR parse 1:1: malformed k option on a sat job (only clique takes k)"),
    ("submit-missing-count.req", "ERR parse 1:1: missing payload line count"),
    ("submit-missing-family.req", "ERR parse 1:1: missing family after tenant"),
    ("submit-missing-tenant.req", "ERR parse 1:1: missing tenant after SUBMIT"),
    ("submit-negative-count.req", "ERR parse 1:17: invalid payload line count `-3`"),
    ("submit-truncated-payload.req", "ERR parse 4:1: declared 3 payload lines, found 2"),
    ("submit-unknown-option.req", "ERR parse 1:19: malformed option `turbo` (expected k or budget)"),
    ("trailing-after-payload.req", "ERR parse 3:1: trailing garbage `extra request line`"),
    ("trailing-args.req", "ERR parse 1:6: trailing garbage `now`"),
    ("unknown-verb.req", "ERR parse 1:1: malformed command `FROB` (expected PING, STATS, DRAIN, STATUS, or SUBMIT)"),
    ("valid-ping.req", "Ping"),
    ("valid-stats.req", "Stats"),
    ("valid-status.req", "Status { job_id: \"j12\" }"),
    ("valid-submit-clique.req", "lbjob 2\nid j1\ntenant acme\nfamily clique\nk 3\nbudget 500\npreemptions 0\nspent 0\nattempts 0\nstatus queued\npayload 3\n3\n0 1\n1 2\nend\n"),
    ("valid-submit-crlf.req", "lbjob 2\nid j1\ntenant acme\nfamily sat\nk 0\nbudget 0\npreemptions 0\nspent 0\nattempts 0\nstatus queued\npayload 2\np cnf 2 1\n1 -2 0\nend\n"),
    ("valid-submit-interior-cr.req", "lbjob 2\nid j1\ntenant acme\nfamily triangle\nk 0\nbudget 0\npreemptions 0\nspent 0\nattempts 0\nstatus queued\npayload 2\n3\n0\r1\nend\n"),
    ("valid-submit-sat.req", "lbjob 2\nid j1\ntenant acme\nfamily sat\nk 0\nbudget 0\npreemptions 0\nspent 0\nattempts 0\nstatus queued\npayload 2\np cnf 2 1\n1 -2 0\nend\n"),
];

#[test]
fn every_corpus_request_has_its_pinned_outcome() {
    let mut names: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("fixture corpus directory must exist")
        .map(|e| e.expect("readable fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "req"))
        .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
        .collect();
    names.sort();
    let pinned: Vec<&str> = CORPUS_OUTCOMES.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, pinned, "every corpus file needs a pinned outcome");
    for &(name, want) in CORPUS_OUTCOMES {
        let bytes = std::fs::read(corpus_dir().join(name)).expect("readable fixture");
        assert_eq!(outcome(&bytes), want, "{name}");
    }
}

// ---- The reference: per-line assembly and `lines()` encoders. ----

fn ref_decode_line(lineno: usize, raw: &[u8]) -> Result<&str, ParseError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(ParseError::new(
            lineno,
            MAX_LINE_BYTES + 1,
            ParseErrorKind::OutOfRange {
                what: "request line length".to_string(),
                token: format!("{} bytes", raw.len()),
                limit: format!("at most {MAX_LINE_BYTES} bytes"),
            },
        ));
    }
    let s = std::str::from_utf8(raw).map_err(|e| {
        ParseError::new(
            lineno,
            e.valid_up_to() + 1,
            ParseErrorKind::Malformed {
                what: "byte (invalid UTF-8)".to_string(),
            },
        )
    })?;
    if let Some(pos) = s.find('\0') {
        return Err(ParseError::new(
            lineno,
            pos + 1,
            ParseErrorKind::Malformed {
                what: "NUL byte in request".to_string(),
            },
        ));
    }
    Ok(s.trim_end_matches('\r'))
}

/// The submission `bytes` assemble to line by line: `None` for a request
/// that is not a SUBMIT, the error otherwise rendered as its `ERR` line.
fn ref_parse_request_bytes(bytes: &[u8]) -> Result<Option<JobSpec>, String> {
    let reject = |e: ParseError| Reject::Parse(e).to_line();
    let mut lines = bytes.split(|&b| b == b'\n');
    let first = lines.next().unwrap_or_default();
    let cmd = parse_command(first).map_err(reject)?;
    let Command::Submit {
        tenant,
        family,
        k,
        budget,
        payload_lines,
    } = cmd
    else {
        let extra = lines.enumerate().find(|(_, chunk)| !chunk.is_empty());
        return match extra {
            Some((i, _)) => Err(reject(ParseError::new(
                i + 2,
                1,
                ParseErrorKind::TrailingGarbage {
                    token: "extra request line".to_string(),
                },
            ))),
            None => Ok(None),
        };
    };
    let mut payload: Vec<Vec<u8>> = Vec::new();
    for (i, chunk) in lines.enumerate() {
        if payload.len() < payload_lines {
            payload.push(chunk.to_vec());
        } else if !chunk.is_empty() {
            return Err(reject(ParseError::new(
                i + 2,
                1,
                ParseErrorKind::TrailingGarbage {
                    token: "extra request line".to_string(),
                },
            )));
        }
    }
    if payload.len() != payload_lines {
        return Err(reject(ParseError::at_eof(
            2 + payload.len(),
            ParseErrorKind::CountMismatch {
                what: "payload lines".to_string(),
                declared: payload_lines,
                found: payload.len(),
            },
        )));
    }
    let mut text = String::new();
    for (i, raw) in payload.iter().enumerate() {
        text.push_str(ref_decode_line(2 + i, raw).map_err(reject)?);
        text.push('\n');
    }
    let spec = JobSpec {
        tenant,
        family,
        k,
        budget,
        payload: text,
    };
    let submission = Submission::parse(spec).map_err(|mut e| {
        e.line += 1;
        reject(e)
    })?;
    Ok(Some(submission.spec().clone()))
}

fn ref_render_submit(spec: &JobSpec) -> String {
    let payload: Vec<&str> = spec.payload.lines().collect();
    let mut request = format!("SUBMIT {} {} {}", spec.tenant, spec.family, payload.len());
    if spec.k > 0 {
        request.push_str(&format!(" k={}", spec.k));
    }
    if let Some(b) = spec.budget {
        request.push_str(&format!(" budget={b}"));
    }
    request.push('\n');
    for line in payload {
        request.push_str(line);
        request.push('\n');
    }
    request
}

fn ref_encode(rec: &JobRecord) -> String {
    let mut out = String::new();
    out.push_str("lbjob 2\n");
    out.push_str(&format!("id {}\n", rec.id));
    out.push_str(&format!("tenant {}\n", rec.spec.tenant));
    out.push_str(&format!("family {}\n", rec.spec.family));
    out.push_str(&format!("k {}\n", rec.spec.k));
    out.push_str(&format!("budget {}\n", rec.spec.budget.unwrap_or(0)));
    out.push_str(&format!("preemptions {}\n", rec.preemptions));
    out.push_str(&format!("spent {}\n", rec.spent));
    out.push_str(&format!("attempts {}\n", rec.attempts));
    match &rec.status {
        JobStatus::Queued => out.push_str("status queued\n"),
        JobStatus::Done(v) => {
            out.push_str("status done\n");
            out.push_str(&format!("verdict {}\n", v.to_line()));
        }
        JobStatus::Quarantined { reason } => {
            out.push_str("status quarantined\n");
            out.push_str(&format!(
                "reason {}\n",
                reason.replace(['\n', '\r'], " ").trim()
            ));
        }
    }
    let payload_lines = rec.spec.payload.lines().count();
    out.push_str(&format!("payload {payload_lines}\n"));
    for line in rec.spec.payload.lines() {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

// ---- Generators. ----

/// Perhaps one hostile edit to a payload line.
fn hostile_edit(rng: &mut StdRng, mut line: Vec<u8>) -> Vec<u8> {
    let at = rng.gen_range(0..=line.len());
    match rng.gen_range(0..36u32) {
        0..=2 => line.push(b'\r'),
        3 => line.extend_from_slice(b"\r\r"),
        4 => line.insert(at, b'\r'),
        5 => line.insert(at, 0),
        6 => line.insert(at, 0xff),
        7 => line.extend_from_slice(" é".as_bytes()),
        8 => line.clear(),
        9 => line.resize(MAX_LINE_BYTES, b' '),
        10 => line.resize(MAX_LINE_BYTES + 1, b' '),
        11 => {
            line.resize(MAX_LINE_BYTES - 1, b' ');
            line.push(b'\r');
        }
        _ => {}
    }
    line
}

/// A SUBMIT stream for a triangle or SAT job: a header and plausible
/// payload lines, some of them edited, a declared count that is off now
/// and then, sometimes extra lines, and a final newline or none.
fn hostile_stream(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sat = rng.gen_range(0..2u32) == 0;
    let body = rng.gen_range(0..6usize);
    let mut lines: Vec<Vec<u8>> = Vec::new();
    lines.push(match sat {
        true => format!("p cnf 3 {body}").into_bytes(),
        false => b"6".to_vec(),
    });
    for _ in 0..body {
        let (a, b) = (rng.gen_range(0..6u32), rng.gen_range(0..6u32));
        lines.push(match sat {
            true => format!("{} -{} 0", a % 3 + 1, b % 3 + 1).into_bytes(),
            false => format!("{a} {b}").into_bytes(),
        });
    }
    let lines: Vec<Vec<u8>> = lines
        .into_iter()
        .map(|l| hostile_edit(&mut rng, l))
        .collect();
    let declared = match rng.gen_range(0..16u32) {
        0 | 1 => lines.len() - 1,
        2 | 3 => lines.len() + 1,
        4 => MAX_PAYLOAD_LINES + 1,
        _ => lines.len(),
    };
    let family = if sat { "sat" } else { "triangle" };
    let cr = if rng.gen_range(0..4u32) == 0 {
        "\r"
    } else {
        ""
    };
    let mut out = format!("SUBMIT acme {family} {declared}{cr}\n").into_bytes();
    for line in &lines {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    match rng.gen_range(0..8u32) {
        0 => {
            out.pop();
        }
        1 => out.extend_from_slice(b"PING\n"),
        2 => out.extend_from_slice(b"\n\n"),
        _ => {}
    }
    out
}

/// An arbitrary payload over an alphabet heavy in line ends.
fn arbitrary_payload(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    const ALPHABET: [&str; 9] = ["\n", "\r", "\r\n", " ", "0", "7", "x", "é", "\t"];
    (0..rng.gen_range(0..40usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A hostile SUBMIT stream gives the error line or the submission the
    /// per-line assembly gave.
    #[test]
    fn hostile_streams_assemble_as_line_by_line(seed in 0u64..u64::MAX) {
        let bytes = hostile_stream(seed);
        let want = ref_parse_request_bytes(&bytes);
        let got = match parse_request_bytes(&bytes) {
            Err(e) => Err(Reject::Parse(e).to_line()),
            Ok(Request::Submit(s)) => Ok(Some(s.spec().clone())),
            Ok(_) => Ok(None),
        };
        prop_assert_eq!(got, want);
    }

    /// `render_submit` and `JobRecord::encode` write the bytes the
    /// `lines()` encoders wrote, whatever the payload's line ends.
    #[test]
    fn wire_and_log_bytes_match_the_lines_encoders(seed in 0u64..u64::MAX) {
        let spec = JobSpec {
            tenant: "acme".to_string(),
            family: JobFamily::Csp,
            k: 0,
            budget: Some(seed % 3 + 1),
            payload: arbitrary_payload(seed),
        };
        prop_assert_eq!(render_submit(&spec), ref_render_submit(&spec));
        let mut rec = admission(spec);
        prop_assert_eq!(rec.encode(), ref_encode(&rec));
        rec.status = JobStatus::Done(Verdict::Count(seed));
        prop_assert_eq!(rec.encode(), ref_encode(&rec));
    }
}

#[test]
fn edge_payloads_render_and_encode_as_before() {
    for payload in [
        "", "\n", "\n\n", "a", "a\n", "a\nb", "a\r\n", "a\rb\n", "\r", "\r\n", "a\r", "a\n\r",
        "a\r\r\n", "3\n0 1\n",
    ] {
        let spec = JobSpec {
            tenant: "t0".to_string(),
            family: JobFamily::Triangle,
            k: 0,
            budget: None,
            payload: payload.to_string(),
        };
        assert_eq!(
            render_submit(&spec),
            ref_render_submit(&spec),
            "{payload:?}"
        );
        let rec = admission(spec);
        assert_eq!(rec.encode(), ref_encode(&rec), "{payload:?}");
    }
}

// ---- Admission and settling through the scheduler. ----

fn scratch(test: &str) -> (PathBuf, Spool) {
    let dir = std::env::temp_dir().join(format!("lb-submit-path-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spool = Spool::open(&dir).expect("scratch spool");
    (dir, spool)
}

fn config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    }
}

/// A triangle count on the complete graph on `n` vertices.
fn complete_graph(tenant: &str, n: usize) -> Submission {
    let mut payload = format!("{n}\n");
    for u in 0..n {
        for v in u + 1..n {
            payload.push_str(&format!("{u} {v}\n"));
        }
    }
    let spec = JobSpec {
        tenant: tenant.to_string(),
        family: JobFamily::Triangle,
        k: 0,
        budget: None,
        payload,
    };
    Submission::parse(spec).expect("a complete graph parses")
}

/// The value of `key=` in a `STATS` line.
fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in `{line}`"))
}

#[test]
fn a_spool_fault_at_admission_is_a_retryable_rejection() {
    let (dir, spool) = scratch("admission-fault");
    let (sched, _) = Scheduler::recover(spool.clone(), config()).unwrap();
    // The admission append's sync fails once: the append rolls back.
    let plan = IoFaultPlan::new().with_point(IoFaultKind::Sync, 1);
    let mut lines = Vec::new();
    let policy = Backoff {
        base_ms: 1,
        cap_ms: 1,
        attempts: 3,
        seed: 0,
    };
    let (id, backoffs) = retry_with_backoff(&policy, |attempt| {
        let submit = || sched.submit(complete_graph("acme", 3));
        let answer = if attempt == 0 {
            with_io_plan(&plan, submit)
        } else {
            submit()
        };
        answer.map_err(|reject| {
            let line = reject.to_line();
            lines.push(line.clone());
            ClientError::Rejected {
                retry_after_ms: retry_after_hint(&line),
                line,
            }
        })
    })
    .expect("the client's retry succeeds");
    assert_eq!(backoffs, 1);
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].starts_with("ERR spool retry-after-ms=100 ") && lines[0].contains("fdatasync"),
        "typed, with its hint and the cause: {}",
        lines[0]
    );
    // The rejected attempt's id was never acknowledged; the retry's was.
    assert_eq!(id, "j2");
    assert!(sched.status("j1").is_none());
    let stats = sched.stats_line();
    assert_eq!((stat(&stats, "jobs"), stat(&stats, "rejected")), (1, 1));
    assert_eq!(std::fs::read(spool.job_path("j1")).unwrap(), b"");
    drop(sched);

    // Recovery removes the empty log and keeps the acknowledged job.
    let (sched, report) = Scheduler::recover(spool.clone(), config()).unwrap();
    assert_eq!((report.torn_tails, report.resumed), (1, 1));
    assert!(!spool.job_path("j1").exists());
    assert!(sched.status("j1").is_none());
    assert_eq!(sched.status("j2").unwrap().state, "queued");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `sched`'s workers until every job in `ids` is settled, then
/// drains them.
fn settle_all(sched: &Arc<Scheduler>, ids: &[String]) {
    let workers = sched.spawn_workers();
    let mut waited = Duration::ZERO;
    while ids
        .iter()
        .any(|id| sched.status(id).is_some_and(|s| s.verdict.is_none()))
    {
        assert!(waited < Duration::from_secs(30), "jobs never settled");
        std::thread::sleep(Duration::from_micros(200));
        waited += Duration::from_micros(200);
    }
    sched.drain();
    for w in workers {
        w.join().expect("worker exits cleanly");
    }
}

#[test]
fn settled_jobs_hold_no_payload_text() {
    let (dir, spool) = scratch("held");
    let (sched, _) = Scheduler::recover(spool.clone(), config()).unwrap();
    let jobs = [
        ("acme", 3, 1),
        ("bolt", 4, 4),
        ("acme", 5, 10),
        ("core", 6, 20),
    ];
    let mut ids = Vec::new();
    let mut held = 0;
    for &(tenant, n, _) in &jobs {
        let submission = complete_graph(tenant, n);
        held += submission.spec().payload.len() as u64;
        ids.push(sched.submit(submission).unwrap());
    }
    assert_eq!(stat(&sched.stats_line(), "held_bytes"), held);
    settle_all(&sched, &ids);

    let verdicts = |sched: &Scheduler| -> Vec<Option<Verdict>> {
        ids.iter()
            .map(|id| sched.status(id).unwrap().verdict)
            .collect()
    };
    let want: Vec<Option<Verdict>> = jobs
        .iter()
        .map(|&(_, _, triangles)| Some(Verdict::Count(triangles)))
        .collect();
    let stats = sched.stats_line();
    assert_eq!((stat(&stats, "held_bytes"), stat(&stats, "done")), (0, 4));
    assert_eq!(verdicts(&sched), want);
    drop(sched);

    // A recovered spool of settled jobs, one of them quarantined, holds
    // no payload either, and STATUS still answers each job.
    let mut dead = admission(complete_graph("core", 3).spec().clone());
    dead.id = "j9".to_string();
    dead.attempts = 3;
    dead.status = JobStatus::Quarantined {
        reason: "3 attempts exhausted".to_string(),
    };
    spool.quarantine(&dead, "attempt 3: bad magic\n").unwrap();
    let (sched, report) = Scheduler::recover(spool, config()).unwrap();
    assert_eq!((report.settled, report.quarantined), (4, 1));
    let stats = sched.stats_line();
    assert_eq!(stat(&stats, "held_bytes"), 0);
    assert_eq!((stat(&stats, "jobs"), stat(&stats, "quarantined")), (5, 1));
    assert_eq!(verdicts(&sched), want);
    let status = sched.status("j9").unwrap();
    assert_eq!(
        status.to_line(),
        "STATUS j9 quarantined preemptions=0 spent=0 attempts=3 evidence=3 attempts exhausted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
