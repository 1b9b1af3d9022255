//! The blocking-socket server: a `TcpListener` accept loop handing each
//! connection to a short-lived handler thread, all solving delegated to
//! the shared [`Scheduler`].
//!
//! Robustness posture, in order of preference: **reject with a typed
//! line, never hang.** Admission control runs before any queueing; the
//! connection cap sheds excess connections with `ERR overload` at accept
//! time; idle and mid-request read timeouts bound how long a silent or
//! trickling client can hold a handler thread. `DRAIN` stops admission
//! immediately, lets in-flight slices finish (each is bounded by the
//! slice budget), spools everything, and exits.

use crate::netfault::{FaultStream, NetFaultPlan, SessionStream};
use crate::protocol::{self, Command, Reject, Request, MAX_LINE_BYTES};
use crate::scheduler::{Scheduler, SchedulerConfig};
use crate::spool::{Spool, SpoolError};
use lb_engine::parse::{ParseError, ParseErrorKind};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Server tuning knobs (scheduler knobs ride along).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7071` (`:0` picks a free port).
    pub addr: String,
    /// Spool directory root.
    pub spool: PathBuf,
    /// Scheduler configuration.
    pub sched: SchedulerConfig,
    /// How long a connection may sit idle before its command line, ms.
    pub idle_timeout_ms: u64,
    /// How long one read may block mid-request, ms.
    pub read_timeout_ms: u64,
    /// Max simultaneous connections; excess get `ERR overload`.
    pub max_conns: usize,
    /// Chaos knob: when set, every second accepted connection is served
    /// through a [`FaultStream`] whose [`NetFaultPlan`] derives from
    /// `seed ^ connection-index` — deterministic torn writes, disconnects,
    /// trickles, and read timeouts on the server's own side of the wire.
    /// Even-indexed connections stay clean so well-behaved clients keep
    /// making progress through the storm.
    pub net_fault_seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7071".to_string(),
            spool: PathBuf::from("lb-spool"),
            sched: SchedulerConfig::default(),
            idle_timeout_ms: 30_000,
            read_timeout_ms: 10_000,
            max_conns: 64,
            net_fault_seed: None,
        }
    }
}

/// What reading one line off the wire found.
enum LineRead {
    /// A complete line, appended to the caller's buffer without its
    /// newline (it may be the final, unterminated one).
    Line,
    /// The peer closed with nothing pending.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; none of it was kept.
    Oversize(usize),
    /// The read timed out.
    TimedOut,
}

/// Appends one `\n`-terminated line to `line` without ever buffering more
/// than the cap of it: a tenant streaming gigabytes without a newline costs
/// us one capped line, not their patience's worth of memory.
fn read_line_capped<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<LineRead> {
    let start = line.len();
    let mut seen = 0usize;
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(LineRead::TimedOut);
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if seen == 0 {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (buf.len(), false),
        };
        seen += take;
        if seen > MAX_LINE_BYTES {
            // The line is rejected regardless: drop what we have and stop
            // accumulating.
            line.truncate(start);
            reader.consume(take + usize::from(done));
            return Ok(LineRead::Oversize(seen));
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take + usize::from(done));
        if done {
            return Ok(LineRead::Line);
        }
    }
}

fn oversize_error(lineno: usize, bytes: usize) -> ParseError {
    ParseError::new(
        lineno,
        MAX_LINE_BYTES + 1,
        ParseErrorKind::OutOfRange {
            what: "request line length".to_string(),
            token: format!("over {bytes} bytes"),
            limit: format!("at most {MAX_LINE_BYTES} bytes"),
        },
    )
}

fn timeout_error(lineno: usize, what: &str) -> ParseError {
    ParseError::at_eof(
        lineno,
        ParseErrorKind::Missing {
            what: format!("{what} (read timed out)"),
        },
    )
}

/// The running server: owns the listener, the scheduler, and the worker
/// pool; [`Server::run`] blocks until drained.
pub struct Server {
    listener: TcpListener,
    sched: Arc<Scheduler>,
    cfg: ServerConfig,
    conns: Arc<AtomicUsize>,
}

impl Server {
    /// Binds the listener, opens/recovers the spool, and reports what
    /// recovery found on stderr. Does not accept yet — call [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> Result<Server, SpoolError> {
        let spool = Spool::open(&cfg.spool)?;
        let (sched, report) = Scheduler::recover(spool, cfg.sched.clone())?;
        if report.resumed + report.settled + report.quarantined + report.restarted_from_scratch > 0
            || report.stale_tmp_removed + report.torn_tails > 0
        {
            eprintln!(
                "recovered spool: {} resumed, {} settled, {} quarantined, \
                 {} restarted from scratch, {} stale tmp swept, {} torn tails cut",
                report.resumed,
                report.settled,
                report.quarantined,
                report.restarted_from_scratch,
                report.stale_tmp_removed,
                report.torn_tails
            );
        }
        for line in report
            .skipped
            .iter()
            .chain(report.discarded_checkpoints.iter())
        {
            eprintln!("recovery: skipped {line}");
        }
        for line in &report.dead_lettered {
            eprintln!("recovery: dead-lettered {line}");
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| SpoolError::Io {
            path: cfg.addr.clone(),
            error: e.to_string(),
        })?;
        Ok(Server {
            listener,
            sched,
            cfg,
            conns: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The actually-bound address (resolves `:0`).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.local_addr().ok()
    }

    /// Accepts connections until a `DRAIN` request lands, then waits for
    /// open connections to close and for workers to finish their in-flight
    /// slice, and returns. Every connection gets its own handler thread;
    /// over-cap connections are shed with a typed overload line.
    pub fn run(self) -> Result<(), SpoolError> {
        let workers = self.sched.spawn_workers();
        // `accept` blocks; the `DRAIN` handler wakes it by connecting to
        // this address once the scheduler is draining.
        let wake = self.local_addr();
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut conn_index: u64 = 0;
        let mut accept_errors: u32 = 0;
        loop {
            let accepted = self.listener.accept();
            if self.sched.draining() {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    accept_errors = 0;
                    conn_index += 1;
                    let live = self.conns.fetch_add(1, Ordering::SeqCst);
                    if live >= self.cfg.max_conns {
                        self.conns.fetch_sub(1, Ordering::SeqCst);
                        shed_connection(stream, self.cfg.sched.retry_after_ms);
                        continue;
                    }
                    let sched = Arc::clone(&self.sched);
                    let cfg = self.cfg.clone();
                    let conns = Arc::clone(&self.conns);
                    // Odd-indexed connections get the fault wrapper when
                    // the chaos knob is on; the plan is a pure function of
                    // seed and index, so a storm replays exactly.
                    let wrap = match self.cfg.net_fault_seed {
                        Some(seed) if conn_index % 2 == 1 => {
                            Some(NetFaultPlan::from_seed(seed ^ conn_index))
                        }
                        _ => None,
                    };
                    handlers.push(thread::spawn(move || {
                        match wrap {
                            Some(plan) => handle_connection(
                                FaultStream::new(stream, &plan),
                                &sched,
                                &cfg,
                                wake,
                            ),
                            None => handle_connection(stream, &sched, &cfg, wake),
                        }
                        conns.fetch_sub(1, Ordering::SeqCst);
                    }));
                }
                Err(e) => {
                    // A persistent error (`EMFILE`) would otherwise spin
                    // this loop; one stray error costs no pause.
                    accept_errors = accept_errors.saturating_add(1);
                    let pause = accept_backoff(accept_errors);
                    eprintln!(
                        "accept error ({accept_errors} in a row, pausing {} ms): {e}",
                        pause.as_millis()
                    );
                    thread::sleep(pause);
                }
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _join = h.join();
        }
        for w in workers {
            let _join = w.join();
        }
        Ok(())
    }
}

/// How long the accept loop pauses after `consecutive` failed accepts in
/// a row: nothing after the first, then 5 ms doubling per further error,
/// capped at 1 s. A successful accept resets the count, so healthy
/// accepts are never delayed.
fn accept_backoff(consecutive: u32) -> Duration {
    const BASE_MS: u64 = 5;
    const CAP_MS: u64 = 1_000;
    if consecutive < 2 {
        return Duration::ZERO;
    }
    let doublings = (consecutive - 2).min(16);
    Duration::from_millis((BASE_MS << doublings).min(CAP_MS))
}

/// Wakes the blocking accept loop after a drain: one connection to the
/// listener, closed at once. A failure is logged; the loop then notices
/// the drain at the next connection instead.
fn wake_accept_loop(addr: SocketAddr) {
    if let Err(e) = TcpStream::connect_timeout(&addr, Duration::from_millis(1_000)) {
        eprintln!("drain wake-up connect to {addr} failed: {e}");
    }
}

/// Timeout configuration is best-effort — a socket that rejects the option
/// is still served — but the typed error is logged, never discarded, so
/// R12/R16 see every timeout site honestly.
fn log_timeout_err(what: &str, configured: io::Result<()>) {
    if let Err(e) = configured {
        eprintln!("timeout config failed ({what}), continuing untimed: {e}");
    }
}

/// Over-cap accept path: one typed line, then close. The write gets a
/// short timeout so a hostile unread socket cannot wedge the accept loop.
fn shed_connection(stream: TcpStream, retry_after_ms: u64) {
    log_timeout_err(
        "shed write",
        stream.set_write_timeout(Some(Duration::from_millis(500))),
    );
    let mut stream = stream;
    let _shed = respond(&mut stream, &Reject::Overload { retry_after_ms }.to_line());
}

/// Sends `line` and its newline in one write: a separate newline write on
/// an unbuffered socket waits out Nagle plus the peer's delayed ACK.
fn respond<W: Write>(stream: &mut W, line: &str) -> bool {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    stream.write_all(framed.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// Serves one connection: requests in a loop until the peer closes, the
/// idle timeout fires with nothing pending, or an unrecoverable read error.
/// Generic over [`SessionStream`] so the same handler serves clean sockets
/// and fault-injected ones — the robustness posture is identical either way.
/// `wake` is the listener's address, connected to after a `DRAIN` so the
/// accept loop sees it.
fn handle_connection<S: SessionStream>(
    stream: S,
    sched: &Arc<Scheduler>,
    cfg: &ServerConfig,
    wake: Option<SocketAddr>,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = stream;
    log_timeout_err(
        "write",
        write_half.set_write_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1)))),
    );
    let mut reader = BufReader::new(read_half);
    let mut cmd_raw: Vec<u8> = Vec::new();
    loop {
        // Idle timeout while waiting for a command line: silent close.
        log_timeout_err(
            "idle read",
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(cfg.idle_timeout_ms.max(1)))),
        );
        cmd_raw.clear();
        match read_line_capped(&mut reader, &mut cmd_raw) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::Eof) | Ok(LineRead::TimedOut) => return,
            Ok(LineRead::Oversize(n)) => {
                let reject = Reject::Parse(oversize_error(1, n));
                let _sent = respond(&mut write_half, &reject.to_line());
                return;
            }
            Err(_) => return,
        }
        // Tighter timeout once a request is in flight.
        log_timeout_err(
            "request read",
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1)))),
        );
        let cmd = match protocol::parse_command(&cmd_raw) {
            Ok(c) => c,
            Err(e) => {
                // A malformed command line gets its typed error; the
                // connection stays usable (the next line starts a fresh
                // request).
                if !respond(&mut write_half, &Reject::Parse(e).to_line()) {
                    return;
                }
                continue;
            }
        };
        let wanted = match &cmd {
            Command::Submit { payload_lines, .. } => *payload_lines,
            _ => 0,
        };
        // The payload lines go straight into the one buffer that becomes
        // the job's text, each ended by `\n` as `protocol::assemble` takes
        // them.
        let mut payload: Vec<u8> = Vec::new();
        let mut taken = 0usize;
        let mut failed: Option<Reject> = None;
        while taken < wanted {
            match read_line_capped(&mut reader, &mut payload) {
                Ok(LineRead::Line) => {
                    payload.push(b'\n');
                    taken += 1;
                }
                Ok(LineRead::Eof) => {
                    failed = Some(Reject::Parse(ParseError::at_eof(
                        2 + taken,
                        ParseErrorKind::CountMismatch {
                            what: "payload lines".to_string(),
                            declared: wanted,
                            found: taken,
                        },
                    )));
                    break;
                }
                Ok(LineRead::TimedOut) => {
                    failed = Some(Reject::Parse(timeout_error(2 + taken, "payload line")));
                    break;
                }
                Ok(LineRead::Oversize(n)) => {
                    failed = Some(Reject::Parse(oversize_error(2 + taken, n)));
                    break;
                }
                Err(_) => return,
            }
        }
        if let Some(reject) = failed {
            // A truncated or oversized submission poisons stream framing:
            // answer with the typed error, then close.
            let _sent = respond(&mut write_half, &reject.to_line());
            return;
        }
        let request = match protocol::assemble(cmd, payload, 2) {
            Ok(r) => r,
            Err(e) => {
                if !respond(&mut write_half, &Reject::Parse(e).to_line()) {
                    return;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Ping => "PONG".to_string(),
            Request::Stats => sched.stats_line(),
            Request::Drain => {
                sched.drain();
                if let Some(addr) = wake {
                    wake_accept_loop(addr);
                }
                "OK draining".to_string()
            }
            Request::Status { job_id } => match sched.status(&job_id) {
                Some(report) => report.to_line(),
                None => Reject::UnknownJob { job_id }.to_line(),
            },
            Request::Submit(submission) => match sched.submit(submission) {
                Ok(id) => format!("OK {id}"),
                Err(reject) => reject.to_line(),
            },
        };
        if !respond(&mut write_half, &reply) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` double recording each `write` call's bytes.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn accept_backoff_doubles_from_the_second_error_and_caps() {
        let ms = |n| accept_backoff(n).as_millis();
        assert_eq!((ms(0), ms(1)), (0, 0), "a lone error costs no pause");
        assert_eq!((ms(2), ms(3), ms(4)), (5, 10, 20));
        assert_eq!(ms(8), 320);
        assert_eq!(ms(9), 640);
        assert_eq!(ms(10), 1_000, "capped");
        assert_eq!(ms(u32::MAX), 1_000);
    }

    #[test]
    fn lines_append_to_one_buffer_and_an_oversize_line_keeps_none_of_it() {
        let mut wire = b"p cnf 1 1\r\n\n1 0".to_vec();
        wire.push(b'\n');
        wire.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
        // A small read buffer makes every long line span many fills.
        let mut reader = io::BufReader::with_capacity(7, io::Cursor::new(wire));
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(matches!(
                read_line_capped(&mut reader, &mut buf),
                Ok(LineRead::Line)
            ));
            buf.push(b'\n');
        }
        assert_eq!(buf, b"p cnf 1 1\r\n\n1 0\n");
        assert!(matches!(
            read_line_capped(&mut reader, &mut buf),
            Ok(LineRead::Oversize(n)) if n > MAX_LINE_BYTES
        ));
        assert_eq!(
            buf, b"p cnf 1 1\r\n\n1 0\n",
            "nothing of the long line kept"
        );
    }

    #[test]
    fn respond_sends_line_and_newline_in_one_write() {
        for line in [
            "PONG",
            "OK j1",
            "",
            &Reject::Overload { retry_after_ms: 5 }.to_line(),
        ] {
            let mut out = Recorder::default();
            assert!(respond(&mut out, line));
            assert_eq!(out.writes, vec![format!("{line}\n").into_bytes()]);
        }
    }
}
