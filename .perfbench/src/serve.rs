//! The served workload (`serve_mixed`): the unmodified `lb-serve run`
//! binary in its own process with its defaults, on a fresh spool, driven
//! over loopback by an open-loop generator with two threads and two
//! connections. One connection submits on a seeded schedule; the other
//! polls `STATUS` for every outstanding job at a fixed interval (plus a
//! `PING` every tenth round), and those polls are part of the load.

use crate::gen::{splitmix, Class, Job, TENANTS};
use crate::layers::{self, Replay};
use crate::stats::{self, mean, median, ratio, tail, Metrics};
use crate::trace::{self, Span, Trace};
use lb_serve::client::{render_submit, Backoff, Client, ClientError};
use lb_serve::protocol::{parse_request_bytes, StatusReport};
use lb_serve::{JobFamily, JobSpec, Spool, Verdict};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, jobs per second: about half of what the seed commit
/// completed on this mix when offered more (see `.perfbench/WORKLOADS.md`).
pub const RATE_PER_S: f64 = 10.0;
/// Interval between `STATUS` rounds over the outstanding jobs.
const POLL: Duration = Duration::from_millis(2);
/// How long jobs may take to settle after the last arrival.
const SETTLE_GRACE: Duration = Duration::from_secs(30);
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn client_err(e: ClientError) -> String {
    e.to_string()
}

/// A running `lb-serve run` process on its own spool directory. Dropping
/// it kills and reaps the process and removes the spool.
pub struct ServerProc {
    child: Child,
    addr: String,
    spool: PathBuf,
}

impl ServerProc {
    /// Spawns the server on a fresh spool and waits until it reports its
    /// address; [`ServerProc::ready`] then waits for it to answer.
    pub fn spawn(bin: &Path, spool: &Path) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(spool);
        std::fs::create_dir_all(spool).map_err(|e| format!("{}: {e}", spool.display()))?;
        let mut child = Command::new(bin)
            .arg("run")
            .arg("--spool")
            .arg(spool)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take();
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            spool: spool.to_path_buf(),
        };
        let mut line = String::new();
        if let Some(out) = stdout {
            BufReader::new(out)
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
        }
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not report its address (got `{}`)", line.trim()))?
            .to_string();
        Ok(proc)
    }

    /// Waits until `PING` → `PONG`.
    pub fn ready(mut self) -> Result<ServerProc, String> {
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match Client::connect(&self.addr, IO_TIMEOUT).and_then(|mut c| c.ping()) {
                Ok(()) => return Ok(self),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("server never answered PING: {e}"))
                }
                Err(_) => {
                    self.check_alive()?;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server exited early: {status}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn proc_field(&self, file: &str, key: &str) -> f64 {
        stats::proc_field(&self.child.id().to_string(), file, key)
    }

    /// `VmHWM` of the server, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.proc_field("status", "VmHWM:") / 1024.0
    }

    /// Bytes the server has caused to be written to storage.
    fn write_bytes(&self) -> f64 {
        self.proc_field("io", "write_bytes:")
    }

    /// `DRAIN`, then waits for the process to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.check_alive()?;
        Client::connect(&self.addr, IO_TIMEOUT)
            .and_then(|mut c| c.drain())
            .map_err(client_err)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status} after DRAIN")),
                None if Instant::now() >= deadline => {
                    return Err("server did not exit after DRAIN".into())
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// A span for one roundtrip that started at `t`, relative to `start`.
fn wire_span(op: usize, layer: &str, start: Instant, t: Instant, bytes: usize) -> Span {
    Span {
        op,
        layer: layer.to_string(),
        start_ms: t.duration_since(start).as_secs_f64() * 1e3,
        ms: ms_since(t),
        stats: Default::default(),
        bytes,
    }
}

/// One scheduled arrival: when it is due and which pool job it sends.
struct Arrival {
    due_ms: f64,
    job: usize,
    spec: JobSpec,
}

/// The seeded open-loop schedule: `rate × seconds` arrivals, arrival `i`
/// due at `(i + 0.5 + j) / rate` with a seeded jitter `j` in ±1/4, so gaps
/// stay within [0.5, 1.5] mean gaps and no `SUBMIT` follows its
/// predecessor's reply closely enough to meet a delayed ACK; jobs in pool
/// order, tenants round-robin.
fn schedule(pool: &[Job], seconds: f64, seed: u64) -> Vec<Arrival> {
    let rate = RATE_PER_S;
    let mut state = seed ^ 0x5c4e_d01e;
    let mut out = Vec::new();
    for i in 0..(rate * seconds).round() as usize {
        let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let t = (i as f64 + 0.25 + u / 2.0) / rate * 1e3;
        let mut spec = pool[i % pool.len()].spec.clone();
        spec.tenant = format!("tenant{}", i % TENANTS);
        out.push(Arrival {
            due_ms: t,
            job: i % pool.len(),
            spec,
        });
    }
    out
}

/// What the generator saw of one arrival.
#[derive(Default)]
pub struct Served {
    pub job: usize,
    pub due_ms: f64,
    pub sent_ms: f64,
    pub ack_ms: f64,
    pub id: Option<String>,
    /// When the first `STATUS` showing a settled job returned.
    pub done_ms: Option<f64>,
    pub report: Option<StatusReport>,
    pub error: Option<String>,
}

pub struct ServePass {
    pub served: Vec<Served>,
    pub seconds: f64,
    /// One span per `SUBMIT`, `STATUS` and `PING` roundtrip.
    pub wire: Vec<Span>,
    pub backoffs: u64,
    pub rejected: f64,
    pub retries: f64,
    pub peak_rss_mb: f64,
    pub write_bytes: f64,
}

struct Shared {
    served: Vec<Served>,
    outstanding: Vec<usize>,
    submitting: bool,
}

fn stats_field(line: &str, key: &str) -> f64 {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

fn submit(
    client: &mut Client,
    spec: &JobSpec,
    policy: &Backoff,
    backoffs: &mut u64,
) -> Result<String, String> {
    let mut attempt = 0;
    loop {
        match client.submit(spec) {
            Ok(id) => return Ok(id),
            Err(ClientError::Rejected {
                retry_after_ms: Some(hint),
                ..
            }) if attempt + 1 < policy.attempts => {
                *backoffs += 1;
                std::thread::sleep(policy.delay(attempt, Some(hint)));
                attempt += 1;
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Runs the open loop for `seconds` of arrivals against `server`, waits
/// for every acknowledged job to settle, then samples the server.
pub fn run_pass(
    server: &mut ServerProc,
    pool: &[Job],
    seconds: f64,
    seed: u64,
) -> Result<ServePass, String> {
    let arrivals = schedule(pool, seconds, seed);
    let mut poller = Client::connect(&server.addr, IO_TIMEOUT).map_err(client_err)?;
    let mut submitter = Client::connect(&server.addr, IO_TIMEOUT).map_err(client_err)?;
    let before = poller.stats().map_err(client_err)?;
    let shared = Mutex::new(Shared {
        served: arrivals
            .iter()
            .map(|a| Served {
                job: a.job,
                due_ms: a.due_ms,
                ..Served::default()
            })
            .collect(),
        outstanding: Vec::new(),
        submitting: true,
    });
    let policy = Backoff {
        seed,
        ..Backoff::default()
    };
    let start = Instant::now();
    let (backoffs, polled) = std::thread::scope(|s| {
        let submit_side = s.spawn(|| {
            let mut backoffs = 0u64;
            for (i, a) in arrivals.iter().enumerate() {
                let due = start + Duration::from_secs_f64(a.due_ms / 1e3);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let res = submit(&mut submitter, &a.spec, &policy, &mut backoffs);
                let ack_ms = ms_since(sent);
                let mut sh = shared.lock().expect("generator thread panicked");
                let rec = &mut sh.served[i];
                rec.sent_ms = sent.duration_since(start).as_secs_f64() * 1e3;
                rec.ack_ms = ack_ms;
                match res {
                    Ok(id) => {
                        rec.id = Some(id);
                        sh.outstanding.push(i);
                    }
                    Err(e) => rec.error = Some(e),
                }
            }
            shared.lock().expect("generator thread panicked").submitting = false;
            backoffs
        });
        let poll_side = s.spawn(|| -> Result<Vec<Span>, String> {
            let deadline = start + Duration::from_secs_f64(seconds) + SETTLE_GRACE;
            let mut wire = Vec::new();
            for round in 0usize.. {
                let round_start = Instant::now();
                if round % 10 == 0 {
                    poller.ping().map_err(client_err)?;
                    wire.push(wire_span(round, "protocol.ping", start, round_start, 0));
                }
                let ids: Vec<(usize, String)> = {
                    let sh = shared.lock().expect("generator thread panicked");
                    sh.outstanding
                        .iter()
                        .filter_map(|&i| sh.served[i].id.clone().map(|id| (i, id)))
                        .collect()
                };
                for (i, id) in ids {
                    let t = Instant::now();
                    let rep = poller.status(&id).map_err(client_err)?;
                    wire.push(wire_span(i, "protocol.status", start, t, 0));
                    if rep.state == "done" || rep.state == "quarantined" {
                        let mut sh = shared.lock().expect("generator thread panicked");
                        sh.served[i].done_ms = Some(ms_since(start));
                        sh.served[i].report = Some(rep);
                        sh.outstanding.retain(|&j| j != i);
                    }
                }
                {
                    let sh = shared.lock().expect("generator thread panicked");
                    if !sh.submitting && sh.outstanding.is_empty() {
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    break;
                }
                if let Some(wait) = (round_start + POLL).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            Ok(wire)
        });
        (
            submit_side.join().expect("submit thread panicked"),
            poll_side.join().expect("poll thread panicked"),
        )
    });
    let mut wire = polled?;
    server.check_alive()?;
    let after = poller.stats().map_err(client_err)?;
    let served = shared
        .into_inner()
        .expect("generator thread panicked")
        .served;
    for (i, s) in served.iter().enumerate() {
        wire.push(Span {
            op: i,
            layer: "protocol.submit".to_string(),
            start_ms: s.sent_ms,
            ms: s.ack_ms,
            stats: Default::default(),
            bytes: arrivals[i].spec.payload.len(),
        });
    }
    // The pass lasts until its last verdict arrives.
    let seconds = served.iter().filter_map(|s| s.done_ms).fold(0.0, f64::max) / 1e3;
    Ok(ServePass {
        served,
        seconds,
        wire,
        backoffs,
        rejected: stats_field(&after, "rejected=") - stats_field(&before, "rejected="),
        retries: stats_field(&after, "retries=") - stats_field(&before, "retries="),
        peak_rss_mb: server.peak_rss_mb(),
        write_bytes: server.write_bytes(),
    })
}

/// A served job's verdict, or why it has none.
pub fn settled(s: &Served) -> Result<&Verdict, String> {
    if let Some(e) = &s.error {
        return Err(format!("submit failed: {e}"));
    }
    let Some(rep) = &s.report else {
        return Err("not settled by the end of the run".into());
    };
    match (&rep.verdict, rep.state.as_str()) {
        (Some(v), "done") => Ok(v),
        _ => Err(format!(
            "{} without a verdict: {}",
            rep.state,
            rep.evidence.as_deref().unwrap_or("no evidence")
        )),
    }
}

/// Checks every served verdict against the uninterrupted in-process
/// reference of the same spec.
pub fn check(pool: &[Job], pass: &ServePass, checker: &mut layers::Checker) {
    for s in &pass.served {
        checker.check(pool, s.job, settled(s));
    }
}

fn ok_jobs<'a>(
    pool: &'a [Job],
    pass: &'a ServePass,
    class: Option<Class>,
) -> impl Iterator<Item = &'a Served> + 'a {
    pass.served
        .iter()
        .filter(move |s| settled(s).is_ok() && class.is_none_or(|c| pool[s.job].class == c))
}

/// Served jobs whose slice count contradicts their pinned class: a short
/// job that was preempted, or a long one that took fewer than four slices.
pub fn misclassified(pool: &[Job], pass: &ServePass) -> usize {
    ok_jobs(pool, pass, None)
        .filter(|s| {
            let pre = s.report.as_ref().map_or(0, |r| r.preemptions);
            match pool[s.job].class {
                Class::Short => pre > 0,
                Class::Long => pre < 3,
            }
        })
        .count()
}

/// Scheduled send → first `STATUS` showing `done`, ms.
fn latency(s: &Served) -> f64 {
    s.done_ms.unwrap_or(0.0) - s.due_ms
}

fn latencies(pool: &[Job], pass: &ServePass, class: Option<Class>) -> Vec<f64> {
    ok_jobs(pool, pass, class).map(latency).collect()
}

pub fn end_to_end(pool: &[Job], pass: &ServePass, m: &mut Metrics) {
    let all = latencies(pool, pass, None);
    let ack: Vec<f64> = pass
        .served
        .iter()
        .filter(|s| s.id.is_some())
        .map(|s| s.ack_ms)
        .collect();
    m.set(
        "throughput_per_s",
        ratio(all.len() as f64, pass.seconds),
        "ops/s",
    );
    m.set("latency_ms_p50", median(&all), "ms");
    m.set("latency_ms_tail", tail(&all), "ms");
    m.set(
        "short_latency_ms_p50",
        median(&latencies(pool, pass, Some(Class::Short))),
        "ms",
    );
    m.set(
        "long_latency_ms_p50",
        median(&latencies(pool, pass, Some(Class::Long))),
        "ms",
    );
    m.set("submit_ack_ms_p50", median(&ack), "ms");
    m.set("submit_ack_ms_tail", tail(&ack), "ms");
    m.set("peak_rss_mb", pass.peak_rss_mb, "MB");
}

/// Replays every distinct served job in-process through the public
/// functions of each layer: the protocol parser, the text parsers, the
/// family's uninterrupted solve, and the sliced run with its checkpoint
/// codec and spool writes on a scratch spool.
pub fn replay_all(
    pool: &[Job],
    pass: &ServePass,
    scratch: &Path,
    tr: &mut Trace,
) -> Result<BTreeMap<usize, Replay>, String> {
    let spool = Spool::open(scratch).map_err(|e| e.to_string())?;
    let mut replays = BTreeMap::new();
    for s in &pass.served {
        if replays.contains_key(&s.job) {
            continue;
        }
        let spec = &pool[s.job].spec;
        let wire = render_submit(spec);
        let t = Instant::now();
        parse_request_bytes(wire.as_bytes()).map_err(|e| e.to_string())?;
        tr.record(s.job, "protocol.parse", t, Default::default(), wire.len());
        let inst = layers::parse(spec, s.job, Some(tr))?;
        layers::solve(&inst, s.job, Some(tr))?;
        replays.insert(s.job, layers::replay(spec, &inst, s.job, &spool, tr)?);
    }
    let _ = std::fs::remove_dir_all(scratch);
    Ok(replays)
}

/// Families that appear in the per-family metrics.
const FAMILIES: [JobFamily; 4] = [
    JobFamily::Join,
    JobFamily::Sat,
    JobFamily::Csp,
    JobFamily::Clique,
];

/// Per-layer metrics of a traced pass and its replay; `plain` is the
/// untraced pass the tracing overhead is measured against.
pub fn per_layer(
    pool: &[Job],
    plain: &ServePass,
    pass: &ServePass,
    tr: &Trace,
    replays: &BTreeMap<usize, Replay>,
    m: &mut Metrics,
) {
    trace::solver_metrics(tr, m);
    let ok: Vec<&Served> = ok_jobs(pool, pass, None).collect();
    let slices = |s: &Served| {
        s.report
            .as_ref()
            .map_or(0.0, |r| r.preemptions as f64 + 1.0)
    };
    let join_slices: Vec<f64> = ok
        .iter()
        .filter(|s| pool[s.job].spec.family == JobFamily::Join)
        .map(|s| slices(s))
        .collect();
    m.set("trie.prepares_per_job", mean(&join_slices), "count");
    // What re-running `prepare` on every resume costs a long join job.
    let prepare: BTreeMap<usize, f64> = tr.layer("trie").map(|s| (s.op, s.ms)).collect();
    let rebuild: Vec<f64> = ok
        .iter()
        .filter(|s| pool[s.job].spec.family == JobFamily::Join && pool[s.job].class == Class::Long)
        .map(|s| prepare.get(&s.job).copied().unwrap_or(0.0) * (slices(s) - 1.0))
        .collect();
    m.set("trie.rebuild_ms_per_long_join", mean(&rebuild), "ms");

    let encode: Vec<&trace::Span> = tr.layer("checkpoint.encode").collect();
    m.set(
        "checkpoint.bytes",
        mean(&encode.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
        "bytes",
    );
    m.set(
        "checkpoint.encode_us",
        median(&tr.ms("checkpoint.encode")) * 1e3,
        "us",
    );
    m.set(
        "checkpoint.decode_us",
        median(&tr.ms("checkpoint.decode")) * 1e3,
        "us",
    );
    for f in FAMILIES {
        let f = f.name();
        m.set(
            &format!("checkpoint.resume_ms.{f}"),
            median(&tr.ms(&format!("checkpoint.resume.{f}"))),
            "ms",
        );
        m.set(
            &format!("runner.slice_ms.{f}"),
            median(&tr.ms(&format!("runner.slice.{f}"))),
            "ms",
        );
    }
    let replay_of = |s: &Served| &replays[&s.job];
    m.set(
        "runner.slices_per_job",
        mean(
            &ok.iter()
                .map(|s| replay_of(s).slices as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    m.set(
        "spool.save_record_ms",
        median(&tr.ms("spool.save_record")),
        "ms",
    );
    m.set(
        "spool.save_checkpoint_ms",
        median(&tr.ms("spool.save_checkpoint")),
        "ms",
    );
    m.set(
        "spool.write_bytes_per_job",
        ratio(pass.write_bytes, pass.served.len() as f64),
        "bytes",
    );

    m.set(
        "protocol.parse_us",
        median(&tr.ms("protocol.parse")) * 1e3,
        "us",
    );
    let rtt = |layer: &str| -> Vec<f64> {
        pass.wire
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.ms)
            .collect()
    };
    m.set(
        "protocol.ping_rtt_us",
        median(&rtt("protocol.ping")) * 1e3,
        "us",
    );
    m.set(
        "protocol.status_ms_p50",
        median(&rtt("protocol.status")),
        "ms",
    );

    // Attribution: latency = ack + slice work + spool writes + queue wait.
    let lat: Vec<f64> = ok.iter().map(|s| latency(s)).collect();
    let ack: Vec<f64> = ok.iter().map(|s| s.ack_ms).collect();
    let solve: Vec<f64> = ok.iter().map(|s| replay_of(s).solve_ms).collect();
    let spool: Vec<f64> = ok.iter().map(|s| replay_of(s).spool_ms).collect();
    let wait: Vec<f64> = ok
        .iter()
        .map(|s| latency(s) - s.ack_ms - replay_of(s).solve_ms - replay_of(s).spool_ms)
        .collect();
    m.set("stage.latency_ms_p50", median(&lat), "ms");
    m.set("stage.ack_ms_p50", median(&ack), "ms");
    m.set("stage.solve_ms_p50", median(&solve), "ms");
    m.set("stage.spool_ms_p50", median(&spool), "ms");
    m.set("scheduler.queue_wait_ms_p50", median(&wait), "ms");
    m.set("scheduler.queue_wait_ms_tail", tail(&wait), "ms");
    m.set(
        "unattributed_ms_p50",
        median(&lat) - median(&ack) - median(&solve) - median(&spool) - median(&wait),
        "ms",
    );
    m.set(
        "scheduler.preemptions_per_job",
        mean(&ok.iter().map(|s| slices(s) - 1.0).collect::<Vec<_>>()),
        "count",
    );
    m.set("scheduler.rejected", pass.rejected, "count");
    m.set("scheduler.retries", pass.retries, "count");
    m.set("client.backoffs", pass.backoffs as f64, "count");
    let lag: Vec<f64> = pass.served.iter().map(|s| s.sent_ms - s.due_ms).collect();
    m.set("loadgen.lag_ms_tail", tail(&lag), "ms");
    let plain_p50 = median(&latencies(pool, plain, None));
    m.set(
        "trace.overhead_frac",
        ratio(median(&lat), plain_p50) - 1.0,
        "ratio",
    );
}
