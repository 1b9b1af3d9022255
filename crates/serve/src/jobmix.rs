//! Soak-harness support: the deterministic mixed-family job mix, its
//! uninterrupted in-process reference verdicts, and a patient connect.
//!
//! The soak tests (`tests/soak.rs`) and the `lb-chaos` storm submit
//! [`generate_specs`] against a live server that may be SIGKILLed and
//! restarted mid-run; every served verdict must equal
//! [`reference_verdict`]. Instance sizes derive from the seed, so the same
//! mix replays byte for byte.

#![expect(
    clippy::disallowed_methods,
    reason = "connecting patiently bounds its retries in real time"
)]

use crate::client::{Client, ClientError};
use crate::job::{JobFamily, JobSpec, Verdict};
use crate::runner;
use lb_engine::splitmix;
use std::time::{Duration, Instant};

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
