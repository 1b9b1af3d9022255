//! The kill-tolerant soak harness (tier-1).
//!
//! Spawns the real `lb-serve` binary, drives it with 8 tenants of mixed
//! solver jobs under a slice budget small enough to force repeated
//! preemption, SIGKILLs the server mid-soak, restarts it on the same
//! spool, and then checks the service's headline invariant:
//!
//! * **no lost jobs** — every acknowledged id reaches `done`;
//! * **no duplicated or drifted verdicts** — every served verdict equals
//!   the uninterrupted in-process reference run, and verdicts observed
//!   before the kill are byte-identical after the restart;
//! * **real preemption** — every job was suspended at least 3 times;
//! * **typed overload** — quota, capacity, and drain rejections arrive as
//!   `ERR` lines with backoff hints, never as a hang.

#![expect(
    clippy::disallowed_methods,
    reason = "the soak bounds a live server with wall-clock deadlines"
)]

use lb_serve::client::{Client, ClientError};
use lb_serve::job::{JobFamily, JobSpec};
use lb_serve::jobmix;
use lb_serve::runner;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(spool: &PathBuf, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lb-serve"))
            .arg("run")
            .arg("--spool")
            .arg(spool)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn lb-serve");
        let stdout = child.stdout.take().expect("server stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("server prints its address")
            .expect("readable server stdout");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .to_string();
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        jobmix::connect_patiently(
            &self.addr,
            Duration::from_millis(5_000),
            Duration::from_secs(20),
        )
        .expect("connect to spawned server")
    }

    fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL the server");
        let _status = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _cleanup = self.child.kill();
        let _status = self.child.wait();
    }
}

fn scratch_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lb-soak-{tag}-{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

fn lcg_next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// `n`, then every `u v` with u < v — the complete graph K_n.
fn complete_graph(n: usize) -> String {
    let mut out = format!("{n}\n");
    for u in 0..n {
        for v in (u + 1)..n {
            out.push_str(&format!("{u} {v}\n"));
        }
    }
    out
}

/// K_{m,m}: triangle-free, so clique search must exhaust every branch.
fn bipartite_graph(m: usize) -> String {
    let mut out = format!("{}\n", 2 * m);
    for u in 0..m {
        for v in 0..m {
            out.push_str(&format!("{u} {}\n", m + v));
        }
    }
    out
}

/// A random 3-SAT instance near the hard clause/variable ratio.
fn random_3sat(vars: usize, seed: u64) -> String {
    let clauses = vars * 43 / 10;
    let mut s = seed ^ 0x5eed_cafe;
    let mut out = format!("p cnf {vars} {clauses}\n");
    for _ in 0..clauses {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < 3 {
            picked.insert((lcg_next(&mut s) % vars as u64) as i64 + 1);
        }
        for var in &picked {
            let lit = if lcg_next(&mut s).is_multiple_of(2) {
                *var
            } else {
                -var
            };
            out.push_str(&format!("{lit} "));
        }
        out.push_str("0\n");
    }
    out
}

/// `free` unconstrained boolean variables in front of an unsatisfiable
/// odd cycle: chronological backtracking re-proves the cycle hopeless
/// under every one of the 2^free pad assignments.
fn padded_unsat_csp(free: usize) -> String {
    let cyc = 7;
    let n = free + cyc;
    let mut out = format!("csp {n} 2\n");
    for i in 0..cyc {
        let a = free + i;
        let b = free + (i + 1) % cyc;
        out.push_str(&format!("con {a} {b} : 0,1 1,0\n"));
    }
    out
}

/// The triangle query over the complete digraph on `m` nodes: the worst
/// case of the AGM bound, m(m-1)(m-2) output tuples.
fn triangle_join(m: usize) -> String {
    let mut out = String::from("R(a,b) S(b,c) T(c,a)\n");
    for rel in ["R", "S", "T"] {
        out.push_str(&format!("rel {rel} 2\n"));
        for u in 0..m {
            for v in 0..m {
                if u != v {
                    out.push_str(&format!("{u} {v}\n"));
                }
            }
        }
    }
    out
}

/// A deterministic synthetic spec whose uninterrupted reference run costs
/// at least `min_ops` ticks — guaranteeing real preemption under a small
/// slice budget. Instance sizes grow until the floor is met.
fn heavy_spec(tenant: &str, family: JobFamily, min_ops: u64, variant: u64) -> JobSpec {
    for attempt in 0..24u64 {
        let (k, payload) = match family {
            JobFamily::Sat => (
                0,
                random_3sat(14 + (variant % 3 + 2 * attempt) as usize, variant + attempt),
            ),
            JobFamily::Csp => (0, padded_unsat_csp(4 + (variant % 2 + attempt) as usize)),
            JobFamily::Triangle => {
                // The counter ticks once per edge: C(n,2) ops on K_n.
                let mut n = 10 + (variant % 3) as usize + attempt as usize;
                while ((n * (n - 1)) as u64) < 2 * min_ops {
                    n += 1;
                }
                (0, complete_graph(n))
            }
            JobFamily::Clique => (3, bipartite_graph(6 + (variant % 2 + attempt) as usize)),
            JobFamily::Join => (0, triangle_join(5 + (variant % 2 + attempt) as usize)),
        };
        let spec = JobSpec {
            tenant: tenant.to_string(),
            family,
            k,
            budget: None,
            payload,
        };
        let inst = spec.instance().expect("synthetic spec parses");
        let (_v, stats, _p) =
            runner::solve_to_verdict(&inst, u64::MAX, None).expect("reference settles");
        if stats.total_ops() >= min_ops {
            return spec;
        }
    }
    panic!("synthetic {family} never reached {min_ops} ops");
}

fn poll_done(client: &mut Client, id: &str, deadline: Instant) -> lb_serve::protocol::StatusReport {
    loop {
        match client.status(id) {
            Ok(s) if s.state == "done" => return s,
            Ok(_running) => {}
            Err(e) => panic!("{id}: status failed: {e}"),
        }
        assert!(Instant::now() < deadline, "{id} never settled");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkill_mid_soak_loses_no_jobs_and_duplicates_no_verdicts() {
    let spool = scratch_spool("kill");
    // 16-tick slices against jobs of ≥64 ops force ≥3 preemptions each.
    let knobs = [
        "--slice-ticks",
        "16",
        "--workers",
        "3",
        "--tenant-quota",
        "4",
        "--max-active",
        "64",
    ];
    let mut server = Server::spawn(&spool, &knobs);
    let mut client = server.connect();

    // 8 tenants × 2 jobs, families round-robin, all heavy enough to slice.
    let mut specs: Vec<JobSpec> = Vec::new();
    for t in 0..8 {
        for j in 0..2 {
            let family = JobFamily::ALL[(t + j) % JobFamily::ALL.len()];
            specs.push(heavy_spec(
                &format!("tenant{t}"),
                family,
                64,
                1 + (t * 2 + j) as u64,
            ));
        }
    }
    let mut ids: Vec<(String, JobSpec)> = Vec::new();
    for spec in specs {
        let id = client.submit(&spec).expect("submission acknowledged");
        ids.push((id, spec));
    }
    assert_eq!(ids.len(), 16);
    let unique: std::collections::BTreeSet<&str> = ids.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(unique.len(), 16, "job ids must be unique");

    // Let the scheduler make some progress, remember any verdicts already
    // settled, then SIGKILL mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    let mut pre_kill: BTreeMap<String, String> = BTreeMap::new();
    for (id, _) in &ids {
        if let Ok(s) = client.status(id) {
            if s.state == "done" {
                if let Some(v) = s.verdict {
                    pre_kill.insert(id.clone(), v.to_line());
                }
            }
        }
    }
    server.sigkill();

    // Restart on the same spool: every acknowledged job must come back.
    let mut server = Server::spawn(&spool, &knobs);
    let mut client = server.connect();
    let deadline = Instant::now() + Duration::from_secs(120);
    for (id, spec) in &ids {
        let status = poll_done(&mut client, id, deadline);
        let verdict = status.verdict.unwrap_or_else(|| {
            panic!("{id}: done without a verdict");
        });
        // No duplicated verdicts: a job settled before the kill reports
        // the same verdict after the restart, not a re-run's.
        if let Some(before) = pre_kill.get(id) {
            assert_eq!(
                &verdict.to_line(),
                before,
                "{id}: verdict changed across restart"
            );
        }
        // No drifted verdicts: the served answer equals the uninterrupted
        // in-process reference run.
        let reference = jobmix::reference_verdict(spec).expect("reference settles");
        assert_eq!(
            verdict, reference,
            "{id} ({} {}): served verdict drifted from reference",
            spec.tenant, spec.family
        );
        assert!(
            status.preemptions >= 3,
            "{id}: only {} preemptions; scheduler is not slicing",
            status.preemptions
        );
    }

    // Graceful drain shuts the server down cleanly.
    client.drain().expect("drain acknowledged");
    let _done = server.child.wait();
    std::mem::forget(server); // child already reaped
}

#[test]
fn admission_rejections_are_typed_and_never_hang() {
    let spool = scratch_spool("admission");
    let mut server = Server::spawn(
        &spool,
        &[
            "--slice-ticks",
            "8",
            "--workers",
            "1",
            "--tenant-quota",
            "1",
            "--max-active",
            "2",
            "--retry-after-ms",
            "70",
            "--idle-timeout-ms",
            "300",
        ],
    );
    let mut client = server.connect();

    // A heavy job occupies tenant0's whole quota for a while.
    let slow = heavy_spec("tenant0", JobFamily::Triangle, 2_000, 1);
    let _id0 = client.submit(&slow).expect("first job admitted");

    // Quota: same tenant again → typed rejection with a backoff hint.
    match client.submit(&slow) {
        Err(ClientError::Rejected {
            line,
            retry_after_ms,
        }) => {
            assert!(line.contains("quota"), "expected quota rejection: {line}");
            assert!(line.contains("tenant0"), "names the tenant: {line}");
            assert!(retry_after_ms.is_some(), "carries retry-after: {line}");
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }

    // Capacity: a second tenant fills the server, a third is shed.
    let mut slow1 = slow.clone();
    slow1.tenant = "tenant1".to_string();
    let _id1 = client.submit(&slow1).expect("second tenant admitted");
    let mut slow2 = slow.clone();
    slow2.tenant = "tenant2".to_string();
    match client.submit(&slow2) {
        Err(ClientError::Rejected {
            line,
            retry_after_ms,
        }) => {
            assert!(line.contains("overload"), "expected overload: {line}");
            assert!(retry_after_ms.is_some(), "carries retry-after: {line}");
        }
        other => panic!("expected overload rejection, got {other:?}"),
    }

    // A malformed command gets its typed line; the connection survives.
    let reply = client.roundtrip("FROB\n").expect("typed parse error");
    assert!(reply.starts_with("ERR parse 1:1:"), "got `{reply}`");
    client.ping().expect("connection still usable after ERR");

    // Draining: admission closes immediately with its own typed line.
    client.drain().expect("drain acknowledged");
    let mut slow3 = slow.clone();
    slow3.tenant = "tenant3".to_string();
    match client.submit(&slow3) {
        Err(ClientError::Rejected { line, .. }) => {
            assert!(line.contains("draining"), "expected draining: {line}");
        }
        other => panic!("expected draining rejection, got {other:?}"),
    }

    // A silent connection is closed at the idle timeout, not held forever.
    // (Last: waiting out the 300ms idle window would close `client` too.)
    let idle = std::net::TcpStream::connect(&server.addr);
    if let Ok(idle) = idle {
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut idle = idle;
        let mut buf = [0u8; 16];
        // EOF or reset both prove the socket was shed; a hang would hit
        // the 10s read timeout below as WouldBlock/TimedOut.
        match idle.read(&mut buf) {
            Ok(n) => assert_eq!(n, 0, "idle socket should see EOF, got {n} bytes"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "idle socket hung: {e}"
            ),
        }
    }
    let _done = server.child.wait();
    std::mem::forget(server); // child already reaped
}

#[test]
fn oversized_request_line_is_shed_with_a_typed_error() {
    let spool = scratch_spool("oversize");
    let server = Server::spawn(&spool, &["--workers", "1"]);
    let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // 80 KiB of garbage with no newline: the server must answer with a
    // positioned oversize rejection, not buffer forever.
    let garbage = vec![b'x'; 80 * 1024];
    stream.write_all(&garbage).expect("write garbage");
    stream.write_all(b"\n").expect("terminate line");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("typed reply");
    assert!(
        reply.starts_with("ERR parse 1:"),
        "expected oversize rejection, got `{reply}`"
    );
}

#[test]
fn drain_settles_or_requeues_every_job_and_hints_retry() {
    let spool = scratch_spool("drain");
    // Pre-poison the spool: a queued record already at attempts 2 whose
    // checkpoint blob is garbage. Recovery's discard is the third strike
    // under the default max_attempts=3, so the server starts with one
    // quarantined job alongside the live ones.
    {
        let sp = lb_serve::spool::Spool::open(&spool).expect("open spool");
        let poisoned = lb_serve::job::JobRecord {
            id: "j90".into(),
            spec: heavy_spec("tenant9", JobFamily::Triangle, 64, 3),
            status: lb_serve::job::JobStatus::Queued,
            preemptions: 4,
            spent: 77,
            attempts: 2,
        };
        // The older two-file layout: a text record beside its checkpoint.
        std::fs::write(sp.job_path("j90"), poisoned.encode()).expect("seed poisoned record");
        std::fs::write(sp.ckpt_path("j90"), b"definitely not an LBCK blob")
            .expect("seed garbage checkpoint");
    }
    let knobs = [
        "--slice-ticks",
        "16",
        "--workers",
        "2",
        "--retry-after-ms",
        "40",
    ];
    let mut server = Server::spawn(&spool, &knobs);
    let mut client = server.connect();

    // The poisoned job surfaces as quarantined-with-evidence: not lost,
    // not hung, not silently re-run.
    let q = client.status("j90").expect("status answers for quarantine");
    assert_eq!(q.state, "quarantined");
    assert!(
        q.evidence
            .expect("quarantine carries evidence")
            .contains("checkpoint discarded"),
        "evidence must name the discard"
    );

    // Two live in-flight jobs, then drain mid-flight.
    let specs = [
        heavy_spec("tenant0", JobFamily::Sat, 256, 5),
        heavy_spec("tenant1", JobFamily::Join, 256, 6),
    ];
    let ids: Vec<String> = specs
        .iter()
        .map(|spec| client.submit(spec).expect("submission acknowledged"))
        .collect();
    client.drain().expect("drain acknowledged");

    // New work is shed with the typed draining line AND a retry hint —
    // the successor process will recover the spool, so clients should
    // come back, not give up.
    match client.submit(&heavy_spec("tenant2", JobFamily::Csp, 64, 7)) {
        Err(ClientError::Rejected {
            line,
            retry_after_ms,
        }) => {
            assert!(line.contains("draining"), "expected draining: {line}");
            assert!(
                retry_after_ms.is_some(),
                "draining must carry retry-after-ms: {line}"
            );
        }
        other => panic!("expected draining rejection, got {other:?}"),
    }

    // While the server settles its in-flight slices, every acknowledged
    // job answers STATUS in a defined state — settled or requeued, never
    // limbo. (Bounded: the server waits for this connection to hang up
    // before it exits, so the poll must not be open-ended.)
    'alive: for _ in 0..20 {
        for id in &ids {
            match client.status(id) {
                Ok(s) => assert!(
                    matches!(
                        s.state.as_str(),
                        "queued" | "running" | "done" | "quarantined"
                    ),
                    "{id}: undefined drain-time state `{}`",
                    s.state
                ),
                // Server already shut this connection down mid-poll.
                Err(_exited) => break 'alive,
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Hang up; the drained server must now exit on its own, promptly.
    drop(client);
    let exit_deadline = Instant::now() + Duration::from_secs(30);
    while server.child.try_wait().expect("try_wait").is_none() {
        assert!(
            Instant::now() < exit_deadline,
            "draining server never exited"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::mem::forget(server); // child already reaped

    // Restart on the same spool: the requeued jobs settle to the exact
    // reference verdict, the quarantined one stays terminal. Every job
    // ends verdict-or-quarantine — drain loses nothing in between.
    let mut server = Server::spawn(&spool, &knobs);
    let mut client = server.connect();
    let deadline = Instant::now() + Duration::from_secs(120);
    for (id, spec) in ids.iter().zip(&specs) {
        let status = poll_done(&mut client, id, deadline);
        let reference = jobmix::reference_verdict(spec).expect("reference settles");
        assert_eq!(
            status.verdict.expect("done carries a verdict"),
            reference,
            "{id}: verdict drifted across a drain + restart"
        );
    }
    let q = client.status("j90").expect("status answers after restart");
    assert_eq!(q.state, "quarantined", "quarantine must survive restarts");
    client.drain().expect("second drain acknowledged");
    let _done = server.child.wait();
    std::mem::forget(server); // child already reaped
}
