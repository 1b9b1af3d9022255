//! The unit of work `lb-serve` schedules: a tenant's solver job, its
//! family, payload, verdict — and the versioned on-disk record that makes
//! all of it survive `kill -9`.
//!
//! A job record is a small line-oriented text file written only through
//! [`lb_engine::atomic_write`], so a record on disk is always complete:
//! either the previous version or the new one, never a torn one. The
//! record is the server's source of truth across restarts; the LBCK
//! checkpoint blob next to it (see [`crate::spool`]) carries the search
//! frontier itself.

use crate::formats;
use lb_csp::CspInstance;
use lb_engine::parse::{tokens, ParseError, ParseErrorKind};
use lb_graph::Graph;
use lb_join::{Database, JoinQuery};
use lb_sat::CnfFormula;
use std::fmt;

/// Record format version: bump when the encoding below changes shape.
/// Version 2 added the `attempts` field and the `quarantined` status.
pub const RECORD_VERSION: u32 = 2;

/// The solver families a job can ask for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobFamily {
    /// DPLL satisfiability on a DIMACS CNF payload.
    Sat,
    /// Backtracking CSP solving on a `csp`/`con` payload.
    Csp,
    /// Worst-case-optimal join counting; payload line 1 is the query,
    /// the rest is the database.
    Join,
    /// Triangle counting on a graph payload.
    Triangle,
    /// k-clique search on a graph payload (k rides in the job spec).
    Clique,
}

impl JobFamily {
    /// The stable wire/record name.
    pub fn name(self) -> &'static str {
        match self {
            JobFamily::Sat => "sat",
            JobFamily::Csp => "csp",
            JobFamily::Join => "join",
            JobFamily::Triangle => "triangle",
            JobFamily::Clique => "clique",
        }
    }

    /// Parses a wire/record name.
    pub fn from_name(name: &str) -> Option<JobFamily> {
        match name {
            "sat" => Some(JobFamily::Sat),
            "csp" => Some(JobFamily::Csp),
            "join" => Some(JobFamily::Join),
            "triangle" => Some(JobFamily::Triangle),
            "clique" => Some(JobFamily::Clique),
            _ => None,
        }
    }

    /// Every family, for enumeration in tests and the bench mix.
    pub const ALL: [JobFamily; 5] = [
        JobFamily::Sat,
        JobFamily::Csp,
        JobFamily::Join,
        JobFamily::Triangle,
        JobFamily::Clique,
    ];
}

impl fmt::Display for JobFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully validated job submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The tenant the job bills to and queues under.
    pub tenant: String,
    /// Which solver runs it.
    pub family: JobFamily,
    /// Clique size for [`JobFamily::Clique`]; 0 otherwise.
    pub k: usize,
    /// Optional per-job total tick budget; `None` runs to completion.
    pub budget: Option<u64>,
    /// The textual instance, in the [`formats`] encodings.
    pub payload: String,
}

impl JobSpec {
    /// Parses and validates the payload into a runnable [`Instance`].
    /// Positioned errors are payload-relative (line 1 = first payload
    /// line); callers that know the payload's position in a larger stream
    /// offset `err.line` themselves.
    pub fn instance(&self) -> Result<Instance, ParseError> {
        match self.family {
            JobFamily::Sat => Ok(Instance::Sat(CnfFormula::from_dimacs(&self.payload)?)),
            JobFamily::Csp => Ok(Instance::Csp(formats::parse_csp(&self.payload)?)),
            JobFamily::Join => {
                let mut lines = self.payload.splitn(2, '\n');
                let query_line = lines.next().unwrap_or("");
                let db_text = lines.next().unwrap_or("");
                let q = formats::parse_query(query_line)?;
                let db = formats::parse_db(db_text).map_err(|mut e| {
                    e.line += 1; // db starts on payload line 2
                    e
                })?;
                Ok(Instance::Join(q, db))
            }
            JobFamily::Triangle => Ok(Instance::Triangle(formats::parse_graph(&self.payload)?)),
            JobFamily::Clique => {
                if self.k == 0 {
                    return Err(ParseError::new(
                        1,
                        1,
                        ParseErrorKind::OutOfRange {
                            what: "clique size k".to_string(),
                            token: "0".to_string(),
                            limit: "at least 1".to_string(),
                        },
                    ));
                }
                Ok(Instance::Clique(
                    formats::parse_graph(&self.payload)?,
                    self.k,
                ))
            }
        }
    }
}

/// A submission whose payload is parsed: a [`JobSpec`] and the
/// [`Instance`] parsed from that spec's own payload. Only
/// [`Submission::parse`] pairs the two, so the payload a scheduler spools
/// is always the one it runs.
#[derive(Clone, Debug)]
pub struct Submission {
    spec: JobSpec,
    instance: Instance,
}

impl Submission {
    /// Parses `spec`'s payload once and keeps the result with the spec.
    /// Errors are payload-relative, as for [`JobSpec::instance`].
    pub fn parse(spec: JobSpec) -> Result<Self, ParseError> {
        let instance = spec.instance()?;
        Ok(Submission { spec, instance })
    }

    /// The submission as it will be spooled.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The instance parsed from [`Submission::spec`]'s payload.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Splits the pair for the scheduler to store.
    pub fn into_parts(self) -> (JobSpec, Instance) {
        (self.spec, self.instance)
    }
}

/// A parsed, validated instance ready for the runner.
#[derive(Clone, Debug)]
pub enum Instance {
    /// A CNF formula for DPLL.
    Sat(CnfFormula),
    /// A CSP instance for backtracking search.
    Csp(CspInstance),
    /// A join query and its database.
    Join(JoinQuery, Database),
    /// A graph for triangle counting.
    Triangle(Graph),
    /// A graph and the clique size to search for.
    Clique(Graph, usize),
}

/// A job's final answer, rendered as one stable line so verdicts can be
/// persisted, compared against reference runs, and shipped over the wire
/// without a serializer per family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A witness was found; the string is the family's rendering (SAT
    /// literals, CSP values, clique vertices — space-separated).
    Sat(String),
    /// Provably no witness.
    Unsat,
    /// A counting family's count.
    Count(u64),
    /// The job's total budget ran out (or the solver reported a typed
    /// error); the string is the shared exhaustion diagnostic.
    Unknown(String),
}

impl Verdict {
    /// Renders the verdict as the single record/wire line.
    pub fn to_line(&self) -> String {
        match self {
            Verdict::Sat(w) if w.is_empty() => "SAT".to_string(),
            Verdict::Sat(w) => format!("SAT {w}"),
            Verdict::Unsat => "UNSAT".to_string(),
            Verdict::Count(n) => format!("COUNT {n}"),
            Verdict::Unknown(why) => format!("UNKNOWN {why}"),
        }
    }

    /// Parses [`Verdict::to_line`] output.
    pub fn from_line(line: &str) -> Option<Verdict> {
        let line = line.trim();
        let (head, rest) = match line.split_once(' ') {
            Some((h, r)) => (h, r),
            None => (line, ""),
        };
        match head {
            "SAT" => Some(Verdict::Sat(rest.to_string())),
            "UNSAT" if rest.is_empty() => Some(Verdict::Unsat),
            "COUNT" => rest.parse().ok().map(Verdict::Count),
            "UNKNOWN" => Some(Verdict::Unknown(rest.to_string())),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle, as persisted. `Running` never hits
/// disk: a SIGKILL mid-slice must find the job re-queueable, so on disk a
/// job is either still owed work (`Queued`), settled (`Done`), or
/// dead-lettered (`Quarantined`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Owed work; may have a spooled checkpoint to resume from.
    Queued,
    /// Settled with a verdict; never re-run (the no-duplicate-verdicts
    /// invariant).
    Done(Verdict),
    /// Terminal without a verdict: the job climbed the whole retry ladder
    /// and was dead-lettered. The one-line reason rides in the record; the
    /// full per-attempt evidence lives next to it in the quarantine area.
    Quarantined {
        /// One-line summary of what sent the job to the dead-letter area.
        reason: String,
    },
}

/// One job's persisted state: the spec plus scheduling progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// The job id (`j<N>`), unique within a spool directory.
    pub id: String,
    /// The validated submission.
    pub spec: JobSpec,
    /// Lifecycle position.
    pub status: JobStatus,
    /// How many times the job was preempted (suspended and re-queued).
    pub preemptions: u64,
    /// Ticks spent so far across all slices (the metering unit).
    pub spent: u64,
    /// Failed attempts so far (slice errors, spool faults, livelocked
    /// slices, discarded checkpoints) — the retry-ladder rung. Reaching
    /// the configured maximum quarantines the job.
    pub attempts: u64,
}

impl JobRecord {
    /// Encodes the record as the versioned text format [`decode`] reads.
    ///
    /// [`decode`]: JobRecord::decode
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("lbjob {RECORD_VERSION}\n"));
        out.push_str(&format!("id {}\n", self.id));
        out.push_str(&format!("tenant {}\n", self.spec.tenant));
        out.push_str(&format!("family {}\n", self.spec.family));
        out.push_str(&format!("k {}\n", self.spec.k));
        out.push_str(&format!("budget {}\n", self.spec.budget.unwrap_or(0)));
        out.push_str(&format!("preemptions {}\n", self.preemptions));
        out.push_str(&format!("spent {}\n", self.spent));
        out.push_str(&format!("attempts {}\n", self.attempts));
        match &self.status {
            JobStatus::Queued => out.push_str("status queued\n"),
            JobStatus::Done(v) => {
                out.push_str("status done\n");
                out.push_str(&format!("verdict {}\n", v.to_line()));
            }
            JobStatus::Quarantined { reason } => {
                out.push_str("status quarantined\n");
                // The reason is free text but must stay one line.
                out.push_str(&format!(
                    "reason {}\n",
                    reason.replace(['\n', '\r'], " ").trim()
                ));
            }
        }
        let payload_lines = self.spec.payload.lines().count();
        out.push_str(&format!("payload {payload_lines}\n"));
        for line in self.spec.payload.lines() {
            out.push_str(line);
            out.push('\n');
        }
        // Trailer: lets `decode` tell a complete record from a torn prefix
        // even when the tear falls exactly on a payload line boundary.
        out.push_str("end\n");
        out
    }

    /// Decodes a record. Corruption is a positioned, typed [`ParseError`]
    /// — a half-written or tampered record must never panic or conjure a
    /// verdict.
    pub fn decode(text: &str) -> Result<JobRecord, ParseError> {
        let mut lines = text.lines().enumerate();
        let mut field = |name: &str| -> Result<(usize, String), ParseError> {
            let (idx, raw) = lines.next().ok_or_else(|| {
                ParseError::at_eof(
                    text.lines().count() + 1,
                    ParseErrorKind::Missing {
                        what: format!("`{name}` line"),
                    },
                )
            })?;
            let lineno = idx + 1;
            let mut toks = tokens(raw);
            let Some((col, kw)) = toks.next() else {
                return Err(ParseError::new(
                    lineno,
                    1,
                    ParseErrorKind::Missing {
                        what: format!("`{name}` line"),
                    },
                ));
            };
            if kw != name {
                return Err(ParseError::new(
                    lineno,
                    col,
                    ParseErrorKind::Malformed {
                        what: format!("record line `{kw}` (expected `{name}`)"),
                    },
                ));
            }
            let rest = raw
                .split_once(name)
                .map(|(_, r)| r.trim().to_string())
                .unwrap_or_default();
            Ok((lineno, rest))
        };

        let (lineno, version) = field("lbjob")?;
        let version: u32 = formats::parse_num(lineno, 7, &version, "record version")?;
        if version != RECORD_VERSION {
            return Err(ParseError::new(
                lineno,
                7,
                ParseErrorKind::OutOfRange {
                    what: "record version".to_string(),
                    token: version.to_string(),
                    limit: format!("exactly {RECORD_VERSION}"),
                },
            ));
        }
        let (_, id) = field("id")?;
        if id.is_empty() {
            return Err(ParseError::new(
                2,
                1,
                ParseErrorKind::Missing {
                    what: "job id".to_string(),
                },
            ));
        }
        let (_, tenant) = field("tenant")?;
        let (lineno, family) = field("family")?;
        let family = JobFamily::from_name(&family).ok_or_else(|| {
            ParseError::new(
                lineno,
                8,
                ParseErrorKind::Malformed {
                    what: format!("job family `{family}`"),
                },
            )
        })?;
        let (lineno, k) = field("k")?;
        let k: usize = formats::parse_num(lineno, 3, &k, "clique size")?;
        let (lineno, budget) = field("budget")?;
        let budget: u64 = formats::parse_num(lineno, 8, &budget, "job budget")?;
        let budget = if budget == 0 { None } else { Some(budget) };
        let (lineno, preemptions) = field("preemptions")?;
        let preemptions: u64 = formats::parse_num(lineno, 13, &preemptions, "preemption count")?;
        let (lineno, spent) = field("spent")?;
        let spent: u64 = formats::parse_num(lineno, 7, &spent, "spent ticks")?;
        let (lineno, attempts) = field("attempts")?;
        let attempts: u64 = formats::parse_num(lineno, 10, &attempts, "attempt count")?;
        let (lineno, status) = field("status")?;
        let status = match status.as_str() {
            "queued" => JobStatus::Queued,
            "done" => {
                let (vline, verdict) = field("verdict")?;
                let v = Verdict::from_line(&verdict).ok_or_else(|| {
                    ParseError::new(
                        vline,
                        9,
                        ParseErrorKind::Malformed {
                            what: format!("verdict `{verdict}`"),
                        },
                    )
                })?;
                JobStatus::Done(v)
            }
            "quarantined" => {
                let (_, reason) = field("reason")?;
                JobStatus::Quarantined { reason }
            }
            other => {
                return Err(ParseError::new(
                    lineno,
                    8,
                    ParseErrorKind::Malformed {
                        what: format!("job status `{other}`"),
                    },
                ));
            }
        };
        let (lineno, payload_count) = field("payload")?;
        let payload_count: usize =
            formats::parse_num(lineno, 9, &payload_count, "payload line count")?;
        let mut payload = String::new();
        let mut got = 0usize;
        let mut end_seen = false;
        for (idx, raw) in lines {
            if got < payload_count {
                payload.push_str(raw);
                payload.push('\n');
                got += 1;
                continue;
            }
            if !end_seen {
                if raw.trim() != "end" {
                    return Err(ParseError::new(
                        idx + 1,
                        1,
                        ParseErrorKind::Malformed {
                            what: "record trailer (expected `end`)".to_string(),
                        },
                    ));
                }
                end_seen = true;
                continue;
            }
            return Err(ParseError::new(
                idx + 1,
                1,
                ParseErrorKind::TrailingGarbage {
                    token: raw.chars().take(20).collect(),
                },
            ));
        }
        if got != payload_count {
            return Err(ParseError::new(
                lineno,
                9,
                ParseErrorKind::CountMismatch {
                    what: "payload lines".to_string(),
                    declared: payload_count,
                    found: got,
                },
            ));
        }
        if !end_seen {
            return Err(ParseError::at_eof(
                lineno + payload_count + 1,
                ParseErrorKind::Missing {
                    what: "record trailer `end`".to_string(),
                },
            ));
        }
        Ok(JobRecord {
            id,
            spec: JobSpec {
                tenant,
                family,
                k,
                budget,
                payload,
            },
            status,
            preemptions,
            spent,
            attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(status: JobStatus) -> JobRecord {
        JobRecord {
            id: "j7".into(),
            spec: JobSpec {
                tenant: "acme".into(),
                family: JobFamily::Clique,
                k: 3,
                budget: Some(500),
                payload: "4\n0 1\n1 2\n0 2\n".into(),
            },
            status,
            preemptions: 4,
            spent: 321,
            attempts: 2,
        }
    }

    #[test]
    fn record_round_trips() {
        for status in [
            JobStatus::Queued,
            JobStatus::Done(Verdict::Sat("0 1 2".into())),
            JobStatus::Done(Verdict::Unsat),
            JobStatus::Done(Verdict::Count(42)),
            JobStatus::Done(Verdict::Unknown("tick budget of 500 exhausted".into())),
            JobStatus::Quarantined {
                reason: "3 attempts exhausted: checkpoint: bad magic".into(),
            },
        ] {
            let rec = sample(status);
            let back = JobRecord::decode(&rec.encode()).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn truncated_record_is_a_typed_error() {
        let full = sample(JobStatus::Queued).encode();
        let original = sample(JobStatus::Queued);
        for cut in 0..full.len() {
            let torn = &full[..cut];
            // Any strict prefix must decode to a typed error — never a
            // panic, never a *different* record. (Cutting only the final
            // newline leaves a byte-equivalent record; that is fine.)
            match JobRecord::decode(torn) {
                Err(_) => {}
                Ok(rec) => assert_eq!(
                    rec, original,
                    "prefix of {cut} bytes decoded to a different record"
                ),
            }
        }
    }

    #[test]
    fn quarantine_reason_is_flattened_to_one_line() {
        let mut rec = sample(JobStatus::Quarantined {
            reason: "line one\nline two".into(),
        });
        let back = JobRecord::decode(&rec.encode()).unwrap();
        match back.status {
            JobStatus::Quarantined { ref reason } => assert_eq!(reason, "line one line two"),
            ref other => panic!("expected quarantined, got {other:?}"),
        }
        // Encoding is stable once flattened.
        rec.status = back.status.clone();
        assert_eq!(JobRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn verdict_lines_round_trip() {
        for v in [
            Verdict::Sat("1 -2".into()),
            Verdict::Sat(String::new()),
            Verdict::Unsat,
            Verdict::Count(0),
            Verdict::Unknown("deadline".into()),
        ] {
            assert_eq!(Verdict::from_line(&v.to_line()), Some(v));
        }
    }
}
