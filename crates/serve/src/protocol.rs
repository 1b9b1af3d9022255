//! The `lb-serve` line protocol: requests in, single-line responses out.
//!
//! ```text
//! PING                                     → PONG
//! STATS                                    → STATS jobs=.. queued=.. ... held_bytes=..
//! DRAIN                                    → OK draining
//! STATUS <job-id>                          → STATUS <id> <state> preemptions=.. spent=.. attempts=..
//!                                                   [verdict=..] [evidence=..]
//! SUBMIT <tenant> <family> <nlines> [k=<n>] [budget=<ticks>]
//! <nlines payload lines>                   → OK <job-id>
//! ```
//!
//! Every malformed, oversized, or truncated request is a positioned, typed
//! [`ParseError`] — the same `line:col` discipline as the DIMACS parser —
//! rendered as `ERR parse <line>:<col>: <message>`. Line 1 is the command
//! line; payload lines are numbered from 2, so a bad tuple deep inside a
//! submitted CSP still points at the exact request line that carried it.
//! Overload and quota rejections are their own typed responses carrying a
//! client-visible `retry-after-ms` backoff hint: the server sheds load, it
//! never hangs.

use crate::job::{JobFamily, JobSpec, Submission, Verdict};
use lb_engine::parse::{tokens, ParseError, ParseErrorKind};

/// Hard cap on one request line, bytes. Longer lines are rejected (and the
/// server stops reading them at the cap): memory stays bounded no matter
/// what a tenant sends.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Hard cap on declared payload lines per submission.
pub const MAX_PAYLOAD_LINES: usize = 4096;

/// Longest accepted tenant / job-id token.
pub const MAX_NAME_BYTES: usize = 64;

/// A parsed command line (request line 1), before any payload arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// One-line server counters.
    Stats,
    /// Begin graceful drain.
    Drain,
    /// Query one job.
    Status {
        /// The `j<N>` id being queried.
        job_id: String,
    },
    /// A submission header; `payload_lines` more lines follow.
    Submit {
        /// Tenant the job queues under.
        tenant: String,
        /// Solver family.
        family: JobFamily,
        /// Clique size (`k=<n>`), 0 when absent.
        k: usize,
        /// Per-job total tick budget (`budget=<n>`), `None` when absent.
        budget: Option<u64>,
        /// Declared payload line count.
        payload_lines: usize,
    },
}

/// A complete, validated request (payload included and parsed).
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One-line server counters.
    Stats,
    /// Begin graceful drain.
    Drain,
    /// Query one job.
    Status {
        /// The `j<N>` id being queried.
        job_id: String,
    },
    /// A fully validated submission: the payload is parsed once, here,
    /// and the instance travels with its spec to the scheduler.
    Submit(Submission),
}

fn malformed(line: usize, col: usize, what: String) -> ParseError {
    ParseError::new(line, col, ParseErrorKind::Malformed { what })
}

/// Decodes one request line as UTF-8, rejecting embedded NUL and oversized
/// lines with positioned errors. `lineno` is the 1-based stream line.
fn decode_line(lineno: usize, raw: &[u8]) -> Result<&str, ParseError> {
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
        malformed(
            lineno,
            e.valid_up_to() + 1,
            "byte (invalid UTF-8)".to_string(),
        )
    })?;
    if let Some(pos) = s.find('\0') {
        return Err(malformed(
            lineno,
            pos + 1,
            "NUL byte in request".to_string(),
        ));
    }
    Ok(s.trim_end_matches('\r'))
}

/// Validates a tenant or job-id token: short, non-empty, `[A-Za-z0-9._-]`.
fn check_name(lineno: usize, col: usize, what: &str, tok: &str) -> Result<String, ParseError> {
    if tok.len() > MAX_NAME_BYTES {
        return Err(ParseError::new(
            lineno,
            col,
            ParseErrorKind::OutOfRange {
                what: what.to_string(),
                token: format!("{} bytes", tok.len()),
                limit: format!("at most {MAX_NAME_BYTES} bytes"),
            },
        ));
    }
    let ok = !tok.is_empty()
        && tok
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if !ok {
        return Err(malformed(
            lineno,
            col,
            format!("{what} `{tok}` (allowed: ASCII letters, digits, `.`, `_`, `-`)"),
        ));
    }
    Ok(tok.to_string())
}

/// Parses a command line (stream line `lineno`, normally 1).
pub fn parse_command_at(lineno: usize, raw: &[u8]) -> Result<Command, ParseError> {
    let line = decode_line(lineno, raw)?;
    let mut toks = tokens(line);
    let Some((col, verb)) = toks.next() else {
        return Err(ParseError::new(
            lineno,
            1,
            ParseErrorKind::Missing {
                what: "command verb".to_string(),
            },
        ));
    };
    let rest: Vec<(usize, &str)> = toks.collect();
    let no_args = |rest: &[(usize, &str)]| -> Result<(), ParseError> {
        match rest.first() {
            Some(&(c, t)) => Err(ParseError::new(
                lineno,
                c,
                ParseErrorKind::TrailingGarbage {
                    token: t.to_string(),
                },
            )),
            None => Ok(()),
        }
    };
    match verb {
        "PING" => {
            no_args(&rest)?;
            Ok(Command::Ping)
        }
        "STATS" => {
            no_args(&rest)?;
            Ok(Command::Stats)
        }
        "DRAIN" => {
            no_args(&rest)?;
            Ok(Command::Drain)
        }
        "STATUS" => {
            let Some(&(c, id)) = rest.first() else {
                return Err(ParseError::new(
                    lineno,
                    col,
                    ParseErrorKind::Missing {
                        what: "job id after STATUS".to_string(),
                    },
                ));
            };
            no_args(rest.get(1..).unwrap_or_default())?;
            Ok(Command::Status {
                job_id: check_name(lineno, c, "job id", id)?,
            })
        }
        "SUBMIT" => parse_submit(lineno, col, &rest),
        other => Err(malformed(
            lineno,
            col,
            format!("command `{other}` (expected PING, STATS, DRAIN, STATUS, or SUBMIT)"),
        )),
    }
}

fn parse_submit(
    lineno: usize,
    verb_col: usize,
    rest: &[(usize, &str)],
) -> Result<Command, ParseError> {
    let mut fixed = rest.iter();
    let missing = |what: &str| {
        ParseError::new(
            lineno,
            verb_col,
            ParseErrorKind::Missing {
                what: what.to_string(),
            },
        )
    };
    let &(tcol, tenant) = fixed.next().ok_or_else(|| missing("tenant after SUBMIT"))?;
    let tenant = check_name(lineno, tcol, "tenant", tenant)?;
    let &(fcol, family) = fixed.next().ok_or_else(|| missing("family after tenant"))?;
    let family = JobFamily::from_name(family).ok_or_else(|| {
        malformed(
            lineno,
            fcol,
            format!("family `{family}` (expected sat, csp, join, triangle, or clique)"),
        )
    })?;
    let &(ncol, nlines) = fixed.next().ok_or_else(|| missing("payload line count"))?;
    let payload_lines: usize =
        crate::formats::parse_num(lineno, ncol, nlines, "payload line count")?;
    if payload_lines > MAX_PAYLOAD_LINES {
        return Err(ParseError::new(
            lineno,
            ncol,
            ParseErrorKind::OutOfRange {
                what: "payload line count".to_string(),
                token: nlines.to_string(),
                limit: format!("at most {MAX_PAYLOAD_LINES}"),
            },
        ));
    }
    let mut k = 0usize;
    let mut budget = None;
    for &(ocol, opt) in fixed {
        let Some((key, value)) = opt.split_once('=') else {
            return Err(malformed(
                lineno,
                ocol,
                format!("option `{opt}` (expected k=<n> or budget=<ticks>)"),
            ));
        };
        match key {
            "k" => k = crate::formats::parse_num(lineno, ocol, value, "clique size k")?,
            "budget" => {
                let b: u64 = crate::formats::parse_num(lineno, ocol, value, "job budget")?;
                if b == 0 {
                    return Err(ParseError::new(
                        lineno,
                        ocol,
                        ParseErrorKind::OutOfRange {
                            what: "job budget".to_string(),
                            token: value.to_string(),
                            limit: "at least 1 tick".to_string(),
                        },
                    ));
                }
                budget = Some(b);
            }
            other => {
                return Err(malformed(
                    lineno,
                    ocol,
                    format!("option `{other}` (expected k or budget)"),
                ));
            }
        }
    }
    if family == JobFamily::Clique && k == 0 {
        return Err(missing("k=<n> for a clique job"));
    }
    if family != JobFamily::Clique && k != 0 {
        return Err(malformed(
            lineno,
            verb_col,
            format!("k option on a {family} job (only clique takes k)"),
        ));
    }
    Ok(Command::Submit {
        tenant,
        family,
        k,
        budget,
        payload_lines,
    })
}

/// Parses a command line as stream line 1.
pub fn parse_command(raw: &[u8]) -> Result<Command, ParseError> {
    parse_command_at(1, raw)
}

/// Assembles a [`Request`] from a parsed command plus its raw payload:
/// the payload lines that followed the command, each ended by `\n`, in one
/// buffer (empty for non-SUBMIT commands). The payload is decoded and
/// parse-validated here — admission rejects a malformed instance before it
/// ever reaches a queue — with errors positioned in *stream* coordinates:
/// payload line `i` is stream line `first_payload_line + i - 1`.
///
/// A buffer that is already clean text (valid UTF-8, no NUL, no `\r`, no
/// line over [`MAX_LINE_BYTES`]) becomes the job's payload as it is, with
/// no copy. Any other buffer is decoded line by line, which builds the
/// positioned error or trims each line's trailing `\r`.
pub fn assemble(
    cmd: Command,
    payload: Vec<u8>,
    first_payload_line: usize,
) -> Result<Request, ParseError> {
    match cmd {
        Command::Ping => Ok(Request::Ping),
        Command::Stats => Ok(Request::Stats),
        Command::Drain => Ok(Request::Drain),
        Command::Status { job_id } => Ok(Request::Status { job_id }),
        Command::Submit {
            tenant,
            family,
            k,
            budget,
            payload_lines,
        } => {
            let found = payload.iter().filter(|&&b| b == b'\n').count();
            if found != payload_lines {
                return Err(ParseError::at_eof(
                    first_payload_line + found,
                    ParseErrorKind::CountMismatch {
                        what: "payload lines".to_string(),
                        declared: payload_lines,
                        found,
                    },
                ));
            }
            let spec = JobSpec {
                tenant,
                family,
                k,
                budget,
                payload: payload_text(payload, first_payload_line)?,
            };
            // Payload-relative error lines shift to stream coordinates.
            let submission = Submission::parse(spec).map_err(|mut e| {
                e.line += first_payload_line - 1;
                e
            })?;
            Ok(Request::Submit(submission))
        }
    }
}

/// The payload text of `\n`-ended `lines`. Clean text (valid UTF-8, no
/// NUL, no `\r`, no line over [`MAX_LINE_BYTES`]: lines [`decode_line`]
/// would pass unchanged) is the buffer itself; anything else is decoded
/// line by line.
fn payload_text(lines: Vec<u8>, first_payload_line: usize) -> Result<String, ParseError> {
    let clean = !lines.contains(&0)
        && !lines.contains(&b'\r')
        && (lines.len() <= MAX_LINE_BYTES
            || lines
                .split(|&b| b == b'\n')
                .all(|line| line.len() <= MAX_LINE_BYTES));
    let lines = if clean {
        match String::from_utf8(lines) {
            Ok(text) => return Ok(text),
            Err(e) => e.into_bytes(),
        }
    } else {
        lines
    };
    let mut text = String::with_capacity(lines.len());
    for (i, raw) in lines.split_inclusive(|&b| b == b'\n').enumerate() {
        let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
        text.push_str(decode_line(first_payload_line + i, raw)?);
        text.push('\n');
    }
    Ok(text)
}

/// Parses one complete request from a raw byte stream (the fixture-corpus
/// entry point): line 1 is the command, any declared payload lines follow,
/// and nothing may trail the request.
pub fn parse_request_bytes(bytes: &[u8]) -> Result<Request, ParseError> {
    let mut lines = bytes.split(|&b| b == b'\n');
    let first = lines.next().unwrap_or_default();
    let cmd = parse_command(first)?;
    let wanted = match &cmd {
        Command::Submit { payload_lines, .. } => *payload_lines,
        _ => 0,
    };
    // The declared payload lines lie side by side after the command line,
    // so they are copied as one slice; `end` passes `bytes.len()` by one
    // when the last of them has no `\n`.
    let start = (first.len() + 1).min(bytes.len());
    let mut end = start;
    let mut taken = 0usize;
    for (i, chunk) in lines.enumerate() {
        if taken < wanted {
            end += chunk.len() + 1;
            taken += 1;
        } else if !chunk.is_empty() {
            return Err(ParseError::new(
                i + 2,
                1,
                ParseErrorKind::TrailingGarbage {
                    token: "extra request line".to_string(),
                },
            ));
        }
    }
    let mut payload = bytes
        .get(start..end.min(bytes.len()))
        .unwrap_or_default()
        .to_vec();
    if end > bytes.len() {
        payload.push(b'\n');
    }
    assemble(cmd, payload, 2)
}

/// A typed rejection, rendered as an `ERR` line. Quota, overload, drain
/// and spool rejections carry the client-visible backoff hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// Malformed request: `ERR parse <line>:<col>: <msg>`.
    Parse(ParseError),
    /// Tenant exceeded its queued-jobs quota; retry after the hint.
    Quota {
        /// The tenant that hit its limit.
        tenant: String,
        /// The per-tenant active-jobs quota.
        limit: usize,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Server-wide admission cap hit; retry after the hint.
    Overload {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// Server is draining; this instance refuses new submissions, but a
    /// restarted one will take them — the hint tells clients when to try.
    Draining {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// The admission record could not be made durable (a disk fault): no
    /// id was issued, and the same request may succeed after the hint.
    Spool {
        /// The spool error.
        error: String,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// STATUS for an id this spool has never seen.
    UnknownJob {
        /// The unknown id.
        job_id: String,
    },
}

impl Reject {
    /// Renders the single `ERR` response line.
    pub fn to_line(&self) -> String {
        match self {
            Reject::Parse(e) => format!("ERR parse {e}"),
            Reject::Quota {
                tenant,
                limit,
                retry_after_ms,
            } => format!("ERR quota tenant={tenant} limit={limit} retry-after-ms={retry_after_ms}"),
            Reject::Overload { retry_after_ms } => {
                format!("ERR overload retry-after-ms={retry_after_ms}")
            }
            Reject::Draining { retry_after_ms } => {
                format!("ERR draining retry-after-ms={retry_after_ms}")
            }
            Reject::Spool {
                error,
                retry_after_ms,
            } => format!(
                "ERR spool retry-after-ms={retry_after_ms} {}",
                error.replace(['\n', '\r'], " ")
            ),
            Reject::UnknownJob { job_id } => format!("ERR unknown-job {job_id}"),
        }
    }

    /// The backoff hint, when this rejection carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Reject::Quota { retry_after_ms, .. }
            | Reject::Overload { retry_after_ms }
            | Reject::Draining { retry_after_ms }
            | Reject::Spool { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// A job's state as reported by `STATUS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusReport {
    /// The job id.
    pub job_id: String,
    /// `queued`, `running`, `done`, or `quarantined`.
    pub state: String,
    /// Preemption count so far.
    pub preemptions: u64,
    /// Ticks spent so far (the metering unit).
    pub spent: u64,
    /// Failed-attempt count so far (the retry-ladder rung).
    pub attempts: u64,
    /// The verdict, once done.
    pub verdict: Option<Verdict>,
    /// The one-line quarantine reason, once quarantined.
    pub evidence: Option<String>,
}

impl StatusReport {
    /// Renders the single `STATUS` response line. A report carries a
    /// verdict or evidence, never both; evidence is trailing free text.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "STATUS {} {} preemptions={} spent={} attempts={}",
            self.job_id, self.state, self.preemptions, self.spent, self.attempts
        );
        if let Some(v) = &self.verdict {
            line.push_str(" verdict=");
            line.push_str(&v.to_line());
        } else if let Some(e) = &self.evidence {
            line.push_str(" evidence=");
            line.push_str(&e.replace(['\n', '\r'], " "));
        }
        line
    }

    /// Parses [`StatusReport::to_line`] output (the client side).
    pub fn from_line(line: &str) -> Option<StatusReport> {
        let rest = line.strip_prefix("STATUS ")?;
        let (head, verdict, evidence) = if let Some((h, v)) = rest.split_once(" verdict=") {
            (h, Some(Verdict::from_line(v)?), None)
        } else if let Some((h, e)) = rest.split_once(" evidence=") {
            (h, None, Some(e.to_string()))
        } else {
            (rest, None, None)
        };
        let mut parts = head.split_whitespace();
        let job_id = parts.next()?.to_string();
        let state = parts.next()?.to_string();
        let preemptions = parts.next()?.strip_prefix("preemptions=")?.parse().ok()?;
        let spent = parts.next()?.strip_prefix("spent=")?.parse().ok()?;
        let attempts = parts.next()?.strip_prefix("attempts=")?.parse().ok()?;
        Some(StatusReport {
            job_id,
            state,
            preemptions,
            spent,
            attempts,
            verdict,
            evidence,
        })
    }
}
