//! `lb-chaos serve` — the network-level chaos soak against a live
//! `lb-serve` process.
//!
//! One *storm* is one seeded end-to-end pass: spawn the real server
//! binary with every chaos knob on (`--net-fault-seed` injects torn
//! writes, disconnects, slow-loris trickle, and read timeouts into every
//! second connection; `--io-fault-seed` injects spool faults into every
//! fourth settle), drive it with a deterministic job mix plus a raft of
//! raw hostile connections, SIGKILL it mid-flight on even seeds and
//! restart it on the same spool, then settle everything and check the
//! survival-layer invariant:
//!
//! * **verdict or quarantine, nothing else** — every acknowledged job
//!   ends either `done` with a verdict byte-equal to the uninterrupted
//!   in-process reference, or `quarantined` with non-empty evidence;
//! * **no lost jobs** — every acknowledged id answers `STATUS` to a
//!   terminal state before the deadline;
//! * **no hangs, no leaked slots** — after the storm a fresh connection
//!   still gets `PONG` and the server drains and exits promptly.
//!
//! Every failure line carries its seed; `lb-chaos serve --seed N
//! --storms 1` replays the identical storm (the fault schedules are pure
//! functions of the seed).

#![expect(
    clippy::disallowed_methods,
    reason = "the storm soak drives a live server under wall-clock deadlines"
)]

use lb_serve::client::{retry_with_backoff, Backoff, Client, ClientError};
use lb_serve::job::JobSpec;
use lb_serve::jobmix::{self, connect_patiently};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Storm-soak knobs.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// The `lb-serve` binary to spawn.
    pub server_bin: PathBuf,
    /// First storm seed; storm `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// How many storms to run.
    pub storms: u64,
    /// Tenants per storm.
    pub tenants: usize,
    /// Jobs per tenant per storm.
    pub jobs_per_tenant: usize,
    /// Per-storm settle deadline, ms.
    pub deadline_ms: u64,
    /// Keep the spool directory of a failing storm on disk (CI uploads it
    /// as the quarantine-evidence artifact).
    pub keep_failed_spool: bool,
}

impl StormConfig {
    /// Defaults around `server_bin`: 8 storms of 2×2 tiny jobs.
    pub fn new(server_bin: PathBuf) -> StormConfig {
        StormConfig {
            server_bin,
            base_seed: 1,
            storms: 8,
            tenants: 2,
            jobs_per_tenant: 2,
            deadline_ms: 60_000,
            keep_failed_spool: true,
        }
    }
}

/// What a storm run observed, summed across storms.
#[derive(Debug, Default)]
pub struct StormReport {
    /// Storms completed (including failing ones).
    pub storms: u64,
    /// Jobs acknowledged across all storms.
    pub jobs: usize,
    /// Jobs that settled `done` with the reference verdict.
    pub settled: usize,
    /// Jobs that ended `quarantined` with evidence.
    pub quarantined: usize,
    /// SIGKILL/restart cycles taken.
    pub kills: u64,
    /// Invariant violations; each line carries its replay seed.
    pub failures: Vec<String>,
}

/// Locates the sibling `lb-serve` binary next to the running executable
/// (both land in `target/<profile>/`), for the CLI default.
pub fn sibling_server_bin() -> Option<PathBuf> {
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    // Test binaries live one level deeper, in target/<profile>/deps/.
    [dir.join("lb-serve"), dir.parent()?.join("lb-serve")]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

struct StormServer {
    child: Child,
    addr: String,
}

/// Spawns the server with every chaos knob derived from `seed`. Slices
/// are small so jobs preempt; retry backoff is short so the ladder climbs
/// within the storm's deadline.
fn spawn_server(cfg: &StormConfig, spool: &PathBuf, seed: u64) -> Result<StormServer, String> {
    let seed_s = seed.to_string();
    let mut child = Command::new(&cfg.server_bin)
        .args(["run", "--spool"])
        .arg(spool)
        .args(["--addr", "127.0.0.1:0"])
        .args(["--slice-ticks", "16", "--workers", "2"])
        .args(["--max-attempts", "3", "--retry-backoff-ms", "5"])
        .args(["--retry-after-ms", "20"])
        .args(["--read-timeout-ms", "500", "--idle-timeout-ms", "2000"])
        .args(["--io-fault-seed", &seed_s, "--net-fault-seed", &seed_s])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cfg.server_bin.display()))?;
    let stdout = child.stdout.take().ok_or("server stdout missing")?;
    let first = BufReader::new(stdout)
        .lines()
        .next()
        .ok_or("server exited before its banner")?
        .map_err(|e| format!("read banner: {e}"))?;
    let addr = first
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected banner `{first}`"))?
        .to_string();
    Ok(StormServer { child, addr })
}

impl Drop for StormServer {
    fn drop(&mut self) {
        let _cleanup = self.child.kill();
        let _status = self.child.wait();
    }
}

/// Throws a handful of raw hostile connections at the server: garbage,
/// an oversize line, a torn SUBMIT header, and a silent close. All errors
/// are ignored — the server's reaction is judged by whether well-behaved
/// clients still settle afterwards.
fn hostile_leg(addr: &str, seed: u64) {
    let legs: [&[u8]; 4] = [
        b"\x00\xffgarbage with no protocol\n",
        b"SUBMIT tenant0 sat 5\np cnf 2 1\n", // declares 5 payload lines, sends 1, hangs up
        &[b'x'; 70_000],                      // oversize, no newline
        b"",                                  // connect and slam shut
    ];
    for (i, leg) in legs.iter().enumerate() {
        // Skew which legs run by seed so storms differ, but keep ≥2 legs.
        if seed.wrapping_add(i as u64).is_multiple_of(3) && i > 1 {
            continue;
        }
        let Ok(mut s) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        // lb-lint: allow(swallowed-result) -- a hostile leg is fire-and-forget by design; the socket may already be sabotaged
        let _cfg = s.set_write_timeout(Some(Duration::from_millis(500)));
        let _sent = s.write_all(leg);
        if !leg.is_empty() && !leg.ends_with(b"\n") {
            let _sent = s.write_all(b"\n");
        }
    }
}

/// Polls one job to a terminal state, reconnecting through injected
/// connection faults. Returns the terminal report or an error string.
fn poll_terminal(
    addr: &str,
    id: &str,
    deadline: Instant,
) -> Result<lb_serve::protocol::StatusReport, String> {
    let mut client: Option<Client> = None;
    loop {
        if Instant::now() >= deadline {
            return Err(format!("{id}: not terminal by the storm deadline"));
        }
        if client.is_none() {
            client = connect_patiently(
                addr,
                Duration::from_millis(2_000),
                deadline.saturating_duration_since(Instant::now()),
            )
            // lb-lint: allow(swallowed-result) -- converted to Option and handled as a terminal error on the next line
            .ok();
            if client.is_none() {
                return Err(format!("{id}: could not reconnect before the deadline"));
            }
        }
        let Some(c) = client.as_mut() else {
            continue;
        };
        match c.status(id) {
            Ok(s) if s.state == "done" || s.state == "quarantined" => return Ok(s),
            Ok(_running) => std::thread::sleep(Duration::from_millis(20)),
            // Unknown-job is terminal trouble only if it persists; an ERR
            // without a hint here is most likely our own faulted read —
            // reconnect and ask again.
            Err(ClientError::Io(_)) | Err(ClientError::Unexpected(_)) => client = None,
            Err(ClientError::Rejected { line, .. }) if line.contains("unknown-job") => {
                return Err(format!("{id}: server forgot an acknowledged job: {line}"));
            }
            Err(_rejected) => client = None,
        }
    }
}

/// Runs one storm; failure strings go into `report`.
fn run_storm(cfg: &StormConfig, seed: u64, report: &mut StormReport) {
    let replay = format!("replay: lb-chaos serve --seed {seed} --storms 1");
    let spool = std::env::temp_dir().join(format!("lb-storm-{}-{seed}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&spool);
    let fail = |report: &mut StormReport, what: String| {
        report
            .failures
            .push(format!("seed={seed}: {what}; {replay}"));
    };
    let mut server = match spawn_server(cfg, &spool, seed) {
        Ok(s) => s,
        Err(e) => return fail(report, e),
    };
    let deadline = Instant::now() + Duration::from_millis(cfg.deadline_ms);

    // Submit the deterministic mix, one fresh connection per try so the
    // submissions themselves run the net-fault gauntlet. A torn ack may
    // admit a job we never learn the id of; that job still settles
    // server-side, and the invariant quantifies over acknowledged ids.
    let specs = jobmix::generate_specs(cfg.tenants, cfg.jobs_per_tenant, seed);
    let policy = Backoff {
        base_ms: 5,
        cap_ms: 200,
        attempts: 12,
        seed,
    };
    let mut acked: Vec<(String, JobSpec)> = Vec::new();
    for spec in specs {
        let submitted = retry_with_backoff(&policy, |_attempt| {
            let mut c = Client::connect(&server.addr, Duration::from_millis(2_000))?;
            c.submit(&spec)
        });
        match submitted {
            Ok((id, _backoffs)) => acked.push((id, spec)),
            Err(e) => fail(report, format!("submit never acknowledged: {e}")),
        }
    }
    report.jobs += acked.len();

    hostile_leg(&server.addr, seed);

    // Even seeds take a SIGKILL mid-flight and restart on the same spool.
    if seed.is_multiple_of(2) {
        std::thread::sleep(Duration::from_millis(120));
        let _kill = server.child.kill();
        let _status = server.child.wait();
        report.kills += 1;
        server = match spawn_server(cfg, &spool, seed) {
            Ok(s) => s,
            Err(e) => return fail(report, format!("restart after kill: {e}")),
        };
        hostile_leg(&server.addr, seed.wrapping_add(1));
    }

    // Settle every acknowledged job: verdict ≡ reference, or quarantined
    // with evidence. Nothing else, and nothing unsettled.
    for (id, spec) in &acked {
        let status = match poll_terminal(&server.addr, id, deadline) {
            Ok(s) => s,
            Err(e) => {
                fail(report, e);
                continue;
            }
        };
        if status.state == "quarantined" {
            match status.evidence.as_deref() {
                Some(ev) if !ev.trim().is_empty() => report.quarantined += 1,
                _ => fail(report, format!("{id}: quarantined without evidence")),
            }
            continue;
        }
        let Some(verdict) = status.verdict else {
            fail(report, format!("{id}: done without a verdict"));
            continue;
        };
        match jobmix::reference_verdict(spec) {
            Ok(reference) if reference == verdict => report.settled += 1,
            Ok(reference) => fail(
                report,
                format!(
                    "{id}: served `{}` but reference says `{}`",
                    verdict.to_line(),
                    reference.to_line()
                ),
            ),
            Err(e) => fail(report, format!("{id}: reference run failed: {e}")),
        }
    }

    // The server must still answer PING — retried over fresh connections,
    // because half of them are (by design) served through the fault
    // wrapper and may be reset under us. Failing *every* try is the hang.
    let alive = retry_with_backoff(&policy, |_attempt| {
        let mut c = Client::connect(&server.addr, Duration::from_millis(2_000))?;
        c.ping().map(|()| c)
    });
    let mut drain_client = match alive {
        Ok((c, _backoffs)) => c,
        Err(e) => return fail(report, format!("no PONG after the storm: {e}")),
    };
    // ...and drain to a prompt exit — a wedged worker or leaked handler
    // thread shows up here as a hang. The DRAIN ack line may itself be
    // torn; drain latches server-side before the ack is written, so a
    // torn ack with a subsequent exit still counts.
    if drain_client.drain().is_err() {
        // Retry on fresh connections; if drain already latched, connects
        // start failing — the exit-wait below is the real judge either way.
        let _retried = retry_with_backoff(&policy, |_attempt| {
            let mut c = Client::connect(&server.addr, Duration::from_millis(2_000))?;
            c.drain()
        });
    }
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match server.child.try_wait() {
            Ok(Some(_status)) => break,
            Ok(None) if Instant::now() < drain_deadline => {
                std::thread::sleep(Duration::from_millis(50))
            }
            Ok(None) => return fail(report, "server did not exit within 30s of DRAIN".into()),
            Err(e) => return fail(report, format!("wait after drain: {e}")),
        }
    }

    let failed = report.failures.iter().any(|f| f.contains(&replay));
    if failed && cfg.keep_failed_spool {
        eprintln!(
            "seed={seed}: spool kept for inspection: {}",
            spool.display()
        );
    } else {
        let _cleanup = std::fs::remove_dir_all(&spool);
    }
}

/// Runs `cfg.storms` seeded storms and sums what they saw.
pub fn run_storms(cfg: &StormConfig) -> StormReport {
    let mut report = StormReport::default();
    for i in 0..cfg.storms {
        run_storm(cfg, cfg.base_seed + i, &mut report);
        report.storms += 1;
    }
    report
}
