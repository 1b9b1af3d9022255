//! The soak load generator behind `lb-serve bench`: N tenants submit M
//! mixed-family jobs each, honor typed backoff hints on rejection, poll
//! every job to a settled verdict, and compare each served verdict
//! against an in-process uninterrupted reference run.
//!
//! The generator is fully deterministic (chaos-instance sizes derive from
//! the seed), so the same invocation against a server that was
//! SIGKILLed and restarted mid-soak must produce byte-identical verdicts
//! — that comparison is the soak harness's core invariant.

#![expect(
    clippy::disallowed_methods,
    reason = "the load generator paces submissions and bounds its run in real time"
)]

use crate::client::{Backoff, Client, ClientError};
use crate::job::{JobFamily, JobSpec, Verdict};
use crate::runner;
use std::time::{Duration, Instant};

/// SplitMix64 behind the instance generators. Self-contained on purpose:
/// the load generator lives in the product crate, and the chaos harness
/// depends on *us* — reaching back into `lb-chaos` here would make the
/// dependency arrow point both ways.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Random 3-CNF in DIMACS text: `vars` variables, `3 * vars` clauses of
/// three distinct variables with random polarities.
fn gen_cnf(rng: &mut u64, vars: u64) -> String {
    let n = vars.max(3);
    let m = n * 3;
    let mut out = format!("p cnf {n} {m}\n");
    for _ in 0..m {
        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < 3 {
            let v = 1 + splitmix(rng) % n;
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        for v in seen {
            let sign = if splitmix(rng).is_multiple_of(2) {
                ""
            } else {
                "-"
            };
            out.push_str(&format!("{sign}{v} "));
        }
        out.push_str("0\n");
    }
    out
}

/// Random binary CSP text: `vars` variables over a 3-value domain, one
/// constraint per adjacent pair, each allowing 3–6 random tuples.
fn gen_csp(rng: &mut u64, vars: u64) -> String {
    let n = vars.max(2);
    let domain = 3u64;
    let mut out = format!("csp {n} {domain}\n");
    for v in 0..n - 1 {
        let tuples = 3 + splitmix(rng) % 4;
        let list: Vec<String> = (0..tuples)
            .map(|_| format!("{},{}", splitmix(rng) % domain, splitmix(rng) % domain))
            .collect();
        out.push_str(&format!("con {} {} : {}\n", v, v + 1, list.join(" ")));
    }
    out
}

/// Random graph text: `n` vertices, each pair an edge with probability
/// one half.
fn gen_graph(rng: &mut u64, n: u64) -> String {
    let n = n.max(3);
    let mut out = format!("{n}\n");
    for u in 0..n {
        for v in (u + 1)..n {
            if splitmix(rng).is_multiple_of(2) {
                out.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    out
}

/// Random triangle-join payload: the query line `R(a,b) S(b,c) T(c,a)`
/// followed by three relations of random pairs over `0..size`.
fn gen_join(rng: &mut u64, size: u64) -> String {
    let size = size.max(3);
    let mut out = "R(a,b) S(b,c) T(c,a)\n".to_string();
    for name in ["R", "S", "T"] {
        out.push_str(&format!("rel {name} 2\n"));
        for _ in 0..size * 2 {
            out.push_str(&format!(
                "{} {}\n",
                splitmix(rng) % size,
                splitmix(rng) % size
            ));
        }
    }
    out
}

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Server address.
    pub addr: String,
    /// Number of tenants.
    pub tenants: usize,
    /// Jobs submitted per tenant.
    pub jobs_per_tenant: usize,
    /// Instance-size seed.
    pub seed: u64,
    /// Per-operation socket timeout, ms.
    pub timeout_ms: u64,
    /// Overall deadline for the whole run, ms.
    pub deadline_ms: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            addr: "127.0.0.1:7071".to_string(),
            tenants: 8,
            jobs_per_tenant: 4,
            seed: 1,
            timeout_ms: 5_000,
            deadline_ms: 120_000,
        }
    }
}

/// What one soak run observed.
#[derive(Debug, Default)]
pub struct BenchReport {
    /// Jobs acknowledged with `OK <id>`.
    pub submitted: usize,
    /// Typed rejections absorbed by honoring the backoff hint.
    pub backoffs: u64,
    /// `(job id, served verdict, preemptions)` per settled job.
    pub verdicts: Vec<(String, Verdict, u64)>,
    /// Sum of preemptions across all jobs.
    pub preemptions: u64,
    /// Human-readable mismatches vs the reference run (must stay empty).
    pub mismatches: Vec<String>,
}

/// Deterministically generates the soak job mix: families round-robin
/// across SAT / CSP / join / triangle / clique, sizes jittered by `seed`.
pub fn generate_specs(tenants: usize, jobs_per_tenant: usize, seed: u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for t in 0..tenants {
        for j in 0..jobs_per_tenant {
            let index = t * jobs_per_tenant + j;
            let mut rng = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(index as u64 + 1);
            let wobble = splitmix(&mut rng) % 3;
            let (family, k, payload) = match index % 5 {
                0 => (JobFamily::Sat, 0, gen_cnf(&mut rng, 5 + wobble)),
                1 => (JobFamily::Csp, 0, gen_csp(&mut rng, 4 + wobble)),
                2 => (JobFamily::Triangle, 0, gen_graph(&mut rng, 6 + wobble)),
                3 => (JobFamily::Clique, 3, gen_graph(&mut rng, 6 + wobble)),
                _ => (JobFamily::Join, 0, gen_join(&mut rng, 4 + wobble)),
            };
            specs.push(JobSpec {
                tenant: format!("tenant{t}"),
                family,
                k,
                budget: None,
                payload,
            });
        }
    }
    specs
}

/// The uninterrupted in-process reference verdict for a spec.
pub fn reference_verdict(spec: &JobSpec) -> Result<Verdict, String> {
    let inst = spec.instance().map_err(|e| e.to_string())?;
    let (v, _stats, _slices) =
        runner::solve_to_verdict(&inst, u64::MAX, spec.budget).map_err(|e| e.to_string())?;
    Ok(v)
}

/// Connects, retrying briefly — the soak harness calls this right after
/// spawning (or restarting) the server process.
pub fn connect_patiently(
    addr: &str,
    timeout: Duration,
    deadline: Duration,
) -> Result<Client, ClientError> {
    let start = Instant::now();
    loop {
        match Client::connect(addr, timeout) {
            Ok(c) => return Ok(c),
            Err(e) if start.elapsed() >= deadline => return Err(e),
            Err(_retry) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// One resilient operation: on a typed rejection with a backoff hint,
/// sleep the jittered [`Backoff`] delay (never less than the hint) and
/// retry; on a socket error, reconnect (the server may have been killed
/// and restarted under us) and retry. Only the overall deadline ends the
/// loop — the soak rides out arbitrarily long storms.
fn with_retry<T>(
    client: &mut Option<Client>,
    cfg: &BenchConfig,
    deadline: Instant,
    backoffs: &mut u64,
    mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let policy = Backoff {
        seed: cfg.seed,
        ..Backoff::default()
    };
    let mut attempt: u32 = 0;
    loop {
        if client.is_none() {
            *client = Some(connect_patiently(
                &cfg.addr,
                Duration::from_millis(cfg.timeout_ms),
                deadline.saturating_duration_since(Instant::now()),
            )?);
        }
        let Some(c) = client.as_mut() else {
            return Err(ClientError::Io("not connected".to_string()));
        };
        match op(c) {
            Ok(v) => return Ok(v),
            Err(ClientError::Rejected {
                line,
                retry_after_ms: Some(ms),
            }) => {
                if Instant::now() >= deadline {
                    return Err(ClientError::Rejected {
                        line,
                        retry_after_ms: Some(ms),
                    });
                }
                *backoffs += 1;
                std::thread::sleep(policy.delay(attempt, Some(ms)));
                attempt = attempt.saturating_add(1);
            }
            Err(ClientError::Io(_)) if Instant::now() < deadline => {
                *client = None;
                std::thread::sleep(policy.delay(attempt, None));
                attempt = attempt.saturating_add(1);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Drives a full soak: submit everything (absorbing typed backoff), poll
/// every job to `done`, and diff served verdicts against the reference.
pub fn run(cfg: &BenchConfig) -> Result<BenchReport, ClientError> {
    let deadline = Instant::now() + Duration::from_millis(cfg.deadline_ms);
    let specs = generate_specs(cfg.tenants, cfg.jobs_per_tenant, cfg.seed);
    let mut report = BenchReport::default();
    let mut client: Option<Client> = None;
    let mut ids: Vec<(String, JobSpec)> = Vec::new();
    for spec in specs {
        let id = with_retry(&mut client, cfg, deadline, &mut report.backoffs, |c| {
            c.submit(&spec)
        })?;
        report.submitted += 1;
        ids.push((id, spec));
    }
    for (id, spec) in ids {
        let served = loop {
            let status = with_retry(&mut client, cfg, deadline, &mut report.backoffs, |c| {
                c.status(&id)
            })?;
            // "quarantined" is terminal too: the poll must not spin on a
            // dead-lettered job waiting for a verdict that will never come.
            if status.state == "done" || status.state == "quarantined" {
                break status;
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Io(format!("deadline waiting on {id}")));
            }
            std::thread::sleep(Duration::from_millis(25));
        };
        if served.state == "quarantined" {
            // Under a clean-weather bench a quarantine is a failure: no
            // fault was injected, so nothing should have climbed the
            // ladder. (The chaos storm harness has its own, laxer
            // invariant: verdict-or-quarantine-with-evidence.)
            report.mismatches.push(format!(
                "{id}: quarantined instead of settling: {}",
                served.evidence.as_deref().unwrap_or("(no evidence)")
            ));
            continue;
        }
        let verdict = match served.verdict {
            Some(v) => v,
            None => {
                report
                    .mismatches
                    .push(format!("{id}: done without a verdict"));
                continue;
            }
        };
        report.preemptions += served.preemptions;
        match reference_verdict(&spec) {
            Ok(reference) if reference == verdict => {}
            Ok(reference) => report.mismatches.push(format!(
                "{id} ({} {}): served `{}` but reference says `{}`",
                spec.tenant,
                spec.family,
                verdict.to_line(),
                reference.to_line()
            )),
            Err(e) => report
                .mismatches
                .push(format!("{id}: reference run failed: {e}")),
        }
        report.verdicts.push((id, verdict, served.preemptions));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_deterministic_and_valid() {
        let a = generate_specs(8, 3, 7);
        let b = generate_specs(8, 3, 7);
        assert_eq!(a.len(), 24);
        assert_eq!(a, b);
        for spec in &a {
            spec.instance().expect("generated spec must parse");
            reference_verdict(spec).expect("reference run must settle");
        }
    }
}
