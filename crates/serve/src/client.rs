//! A small blocking client for the `lb-serve` line protocol — used by
//! `lbtool submit`, the soak harness, and the chaos storm.

use crate::job::{payload_lines, JobSpec};
use crate::protocol::StatusReport;
use lb_engine::splitmix;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A typed client-side failure.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Socket-level trouble (connect, read, write, server gone).
    Io(String),
    /// The server answered with an `ERR` line; `retry_after_ms` is the
    /// backoff hint when the rejection carried one.
    Rejected {
        /// The full `ERR ...` response line.
        line: String,
        /// Parsed `retry-after-ms=` hint, if present.
        retry_after_ms: Option<u64>,
    },
    /// The server answered, but not with a line this call understands.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Rejected { line, .. } => write!(f, "rejected: {line}"),
            ClientError::Unexpected(line) => write!(f, "unexpected response: {line}"),
        }
    }
}

fn io_err(e: std::io::Error) -> ClientError {
    ClientError::Io(e.to_string())
}

/// Pulls the `retry-after-ms=<n>` hint out of an `ERR` line, if any.
pub fn retry_after_hint(line: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix("retry-after-ms="))
        .and_then(|v| v.parse().ok())
}

/// Client-side retry policy: exponential backoff with deterministic
/// seeded jitter, honoring server `retry-after-ms` hints.
///
/// The jitter is a pure function of `seed` and the attempt number — two
/// clients with different seeds spread out, one client replays exactly.
/// When the server's rejection carries a `retry-after-ms` hint, the wait
/// is at least that long: the server knows its own backlog better than
/// any client-side curve does.
#[derive(Clone, Debug)]
pub struct Backoff {
    /// First delay, in ms (later delays double, pre-jitter).
    pub base_ms: u64,
    /// Hard per-delay cap, in ms.
    pub cap_ms: u64,
    /// Total tries before giving up with the last error.
    pub attempts: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            base_ms: 25,
            cap_ms: 2_000,
            attempts: 6,
            seed: 0,
        }
    }
}

impl Backoff {
    /// The wait after failed try `attempt` (0-based), folding in the
    /// server's `retry-after-ms` hint when one came back.
    pub fn delay(&self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms);
        // Deterministic jitter in [3/4, 5/4] of the exponential step.
        let mut state = self.seed ^ (u64::from(attempt) << 32) ^ 0x00ba_c0ff;
        let jittered = exp.saturating_sub(exp / 4) + splitmix(&mut state) % (exp / 2).max(1);
        Duration::from_millis(jittered.max(hint_ms.unwrap_or(0)).min(self.cap_ms))
    }
}

/// Whether an error is worth retrying: rejections that carry a backoff
/// hint (overload, quota, draining) and socket-level trouble (the server
/// may be mid-restart). Typed rejections without a hint — parse errors,
/// unknown jobs — are permanent and surface immediately.
fn retryable(e: &ClientError) -> Option<Option<u64>> {
    match e {
        ClientError::Io(_) => Some(None),
        ClientError::Rejected {
            retry_after_ms: Some(ms),
            ..
        } => Some(Some(*ms)),
        _ => None,
    }
}

/// Runs `op` under `policy`, sleeping the jittered backoff between
/// retryable failures. `op` receives the 0-based attempt number (callers
/// reconnect per try). Returns the value and how many backoffs were
/// taken; the last error when every try failed.
pub fn retry_with_backoff<T>(
    policy: &Backoff,
    mut op: impl FnMut(u32) -> Result<T, ClientError>,
) -> Result<(T, u32), ClientError> {
    let mut backoffs = 0u32;
    let tries = policy.attempts.max(1);
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => return Ok((v, backoffs)),
            Err(e) => {
                let Some(hint) = retryable(&e) else {
                    return Err(e);
                };
                if attempt + 1 >= tries {
                    return Err(e);
                }
                std::thread::sleep(policy.delay(attempt, hint));
                backoffs += 1;
                attempt += 1;
            }
        }
    }
}

/// One protocol connection. Requests are strictly sequential: send, then
/// read exactly one response line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with a read timeout so a wedged server surfaces as a typed
    /// error rather than a hang.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends raw request text (caller supplies the trailing newlines) and
    /// reads one response line.
    pub fn roundtrip(&mut self, request: &str) -> Result<String, ClientError> {
        self.writer.write_all(request.as_bytes()).map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(io_err)?;
        if n == 0 {
            return Err(ClientError::Io("server closed the connection".to_string()));
        }
        // A response without its newline is a torn write (the server died
        // mid-line): `OK j3` delivered as `OK j` would otherwise be
        // trusted as an ack for the wrong job id. Typed I/O error instead
        // — the retry layer reconnects and reissues.
        if !line.ends_with('\n') {
            return Err(ClientError::Io(format!(
                "connection closed mid-response (torn line `{}`)",
                line.trim_end()
            )));
        }
        Ok(line.trim_end().to_string())
    }

    fn expect_ok(line: String) -> Result<String, ClientError> {
        if let Some(hint) = line.strip_prefix("ERR ") {
            return Err(ClientError::Rejected {
                retry_after_ms: retry_after_hint(hint),
                line,
            });
        }
        Ok(line)
    }

    /// `PING` → `PONG`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let line = Self::expect_ok(self.roundtrip("PING\n")?)?;
        if line == "PONG" {
            Ok(())
        } else {
            Err(ClientError::Unexpected(line))
        }
    }

    /// `STATS` → the raw counters line.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        Self::expect_ok(self.roundtrip("STATS\n")?)
    }

    /// `DRAIN` → graceful shutdown begins server-side.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        Self::expect_ok(self.roundtrip("DRAIN\n")?).map(|_line| ())
    }

    /// Submits a job, returning the acknowledged id. The id only comes
    /// back once the server has the record durably spooled.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<String, ClientError> {
        let request = render_submit(spec);
        let line = Self::expect_ok(self.roundtrip(&request)?)?;
        match line.strip_prefix("OK ") {
            Some(id) => Ok(id.to_string()),
            None => Err(ClientError::Unexpected(line)),
        }
    }

    /// `STATUS <id>` → the parsed report.
    pub fn status(&mut self, job_id: &str) -> Result<StatusReport, ClientError> {
        let line = Self::expect_ok(self.roundtrip(&format!("STATUS {job_id}\n"))?)?;
        StatusReport::from_line(&line).ok_or(ClientError::Unexpected(line))
    }
}

/// Renders a [`JobSpec`] as the wire request (`SUBMIT` header + payload).
pub fn render_submit(spec: &JobSpec) -> String {
    let (count, payload) = payload_lines(&spec.payload);
    let mut request = String::with_capacity(payload.len() + 64);
    request.push_str(&format!("SUBMIT {} {} {count}", spec.tenant, spec.family));
    if spec.k > 0 {
        request.push_str(&format!(" k={}", spec.k));
    }
    if let Some(b) = spec.budget {
        request.push_str(&format!(" budget={b}"));
    }
    request.push('\n');
    request.push_str(&payload);
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFamily;
    use crate::protocol::{parse_request_bytes, Request};

    #[test]
    fn rendered_submit_parses_back() {
        let spec = JobSpec {
            tenant: "acme".into(),
            family: JobFamily::Clique,
            k: 3,
            budget: Some(500),
            payload: "3\n0 1\n1 2\n0 2\n".into(),
        };
        let wire = render_submit(&spec);
        match parse_request_bytes(wire.as_bytes()) {
            Ok(Request::Submit(parsed)) => assert_eq!(parsed.spec(), &spec),
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn retry_hint_is_extracted() {
        assert_eq!(retry_after_hint("overload retry-after-ms=250"), Some(250));
        assert_eq!(retry_after_hint("draining"), None);
    }

    #[test]
    fn backoff_is_deterministic_and_honors_hints() {
        let policy = Backoff {
            base_ms: 100,
            cap_ms: 1_000,
            attempts: 5,
            seed: 42,
        };
        for attempt in 0..5 {
            assert_eq!(
                policy.delay(attempt, None),
                policy.delay(attempt, None),
                "same seed and attempt must give the same delay"
            );
            let d = policy.delay(attempt, None).as_millis() as u64;
            assert!(d <= 1_000, "delay {d} exceeds the cap");
        }
        // A server hint is a floor (still capped).
        assert!(policy.delay(0, Some(400)).as_millis() >= 400);
        assert_eq!(policy.delay(0, Some(9_999)).as_millis(), 1_000);
        // Different seeds spread out somewhere on the curve.
        let other = Backoff { seed: 43, ..policy };
        assert!((0..5).any(|a| policy.delay(a, None) != other.delay(a, None)));
    }

    #[test]
    fn retry_gives_up_on_permanent_rejections() {
        let policy = Backoff {
            base_ms: 1,
            cap_ms: 1,
            attempts: 4,
            seed: 7,
        };
        let mut calls = 0u32;
        let result: Result<((), u32), _> = retry_with_backoff(&policy, |_attempt| {
            calls += 1;
            Err(ClientError::Rejected {
                line: "ERR parse".into(),
                retry_after_ms: None,
            })
        });
        assert!(result.is_err());
        assert_eq!(calls, 1, "a hint-less rejection must not be retried");
    }

    #[test]
    fn retry_retries_io_then_succeeds() {
        let policy = Backoff {
            base_ms: 1,
            cap_ms: 1,
            attempts: 4,
            seed: 7,
        };
        let mut calls = 0u32;
        let (value, backoffs) = retry_with_backoff(&policy, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(ClientError::Io("refused".into()))
            } else {
                Ok("up")
            }
        })
        .unwrap();
        assert_eq!((value, backoffs, calls), ("up", 2, 3));
    }
}
