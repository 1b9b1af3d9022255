//! The in-process workloads (`solve_join`, `solve_search`): one thread, a
//! closed loop over the generated texts, each operation parsing its text
//! and solving it uninterrupted.
//!
//! A run makes whole rounds over the pool until its time is up, so every
//! instance runs several times; an instance's latency is its best time in
//! the run. On a shared machine other tenants only ever add time, and the
//! best of several repetitions is what stays put from run to run.

use crate::gen::{Class, Job};
use crate::layers;
use crate::stats::{median, ratio, tail, Metrics};
use crate::trace::{self, Trace};
use lb_serve::Verdict;
use std::time::Instant;

pub struct OpSample {
    /// Index into the pool.
    pub job: usize,
    pub parse_ms: f64,
    /// Text → verdict.
    pub latency_ms: f64,
    pub verdict: Result<Verdict, String>,
}

pub struct Pass {
    pub ops: Vec<OpSample>,
    pub trace: Trace,
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs whole rounds over `pool`, operations back to back, until
/// `seconds` have passed. Traced, every call into a layer gets a span.
pub fn run_pass(pool: &[Job], seconds: f64, traced: bool) -> Pass {
    let mut trace = Trace::new();
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() % pool.len() != 0 || ops.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let i = ops.len();
        let job = i % pool.len();
        let spec = std::hint::black_box(&pool[job].spec);
        let mut tr = traced.then_some(&mut trace);
        let t0 = Instant::now();
        let parsed = layers::parse(spec, i, tr.as_deref_mut());
        let parse_ms = since_ms(t0);
        let verdict = parsed.and_then(|inst| layers::solve(&inst, i, tr));
        let latency_ms = since_ms(t0);
        ops.push(OpSample {
            job,
            parse_ms,
            latency_ms,
            verdict: std::hint::black_box(verdict),
        });
    }
    Pass { ops, trace }
}

/// Checks every operation's verdict.
pub fn check(pool: &[Job], pass: &Pass, checker: &mut layers::Checker) {
    for op in &pass.ops {
        checker.check(pool, op.job, op.verdict.as_ref().map_err(String::clone));
    }
}

/// Each pool instance's best time over `samples` (`(instance, ms)`
/// pairs), for the instances of `class` (all when `None`).
fn best(
    pool: &[Job],
    samples: impl Iterator<Item = (usize, f64)>,
    class: Option<Class>,
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; pool.len()];
    for (job, ms) in samples {
        best[job] = best[job].min(ms);
    }
    best.into_iter()
        .enumerate()
        .filter(|&(j, t)| t.is_finite() && class.is_none_or(|c| pool[j].class == c))
        .map(|(_, t)| t)
        .collect()
}

fn latencies(pool: &[Job], ops: &[OpSample], class: Option<Class>) -> Vec<f64> {
    best(pool, ops.iter().map(|o| (o.job, o.latency_ms)), class)
}

fn parse_times(pool: &[Job], ops: &[OpSample]) -> Vec<f64> {
    best(pool, ops.iter().map(|o| (o.job, o.parse_ms)), None)
}

/// End-to-end metrics of an untraced pass, over the instances' best
/// times. Throughput is the pool's size over the sum of those times. In
/// process, `submit_ack` is the admission step a server would do before
/// acknowledging: parsing and validating the text into an instance.
pub fn end_to_end(pool: &[Job], pass: &Pass, m: &mut Metrics) {
    let all = latencies(pool, &pass.ops, None);
    let parse = parse_times(pool, &pass.ops);
    m.set(
        "throughput_per_s",
        ratio(all.len() as f64 * 1e3, all.iter().sum()),
        "ops/s",
    );
    m.set("latency_ms_p50", median(&all), "ms");
    m.set("latency_ms_tail", tail(&all), "ms");
    m.set(
        "short_latency_ms_p50",
        median(&latencies(pool, &pass.ops, Some(Class::Short))),
        "ms",
    );
    m.set(
        "long_latency_ms_p50",
        median(&latencies(pool, &pass.ops, Some(Class::Long))),
        "ms",
    );
    m.set("submit_ack_ms_p50", median(&parse), "ms");
    m.set("submit_ack_ms_tail", tail(&parse), "ms");
}

/// Per-layer metrics of a traced pass; `plain` is the untraced pass the
/// tracing overhead is measured against.
pub fn per_layer(pool: &[Job], plain: &Pass, traced: &Pass, m: &mut Metrics) {
    trace::solver_metrics(&traced.trace, m);
    let joins = traced
        .ops
        .iter()
        .filter(|o| pool[o.job].spec.family == lb_serve::JobFamily::Join)
        .count();
    // One uninterrupted `wcoj::count` prepares its tries once.
    m.set(
        "trie.prepares_per_job",
        ratio(traced.trace.layer("wcoj").count() as f64, joins as f64),
        "count",
    );
    // Attribution over the instances' best times: latency = parse + solve.
    let solve_by_op = trace::solve_ms_by_op(&traced.trace);
    let solve = best(
        pool,
        traced
            .ops
            .iter()
            .enumerate()
            .map(|(i, o)| (o.job, solve_by_op.get(&i).copied().unwrap_or(0.0))),
        None,
    );
    let parse = parse_times(pool, &traced.ops);
    let lat = latencies(pool, &traced.ops, None);
    m.set("stage.latency_ms_p50", median(&lat), "ms");
    m.set("stage.ack_ms_p50", median(&parse), "ms");
    m.set("stage.solve_ms_p50", median(&solve), "ms");
    m.set(
        "unattributed_ms_p50",
        median(&lat) - median(&parse) - median(&solve),
        "ms",
    );
    let plain_p50 = median(&latencies(pool, &plain.ops, None));
    m.set(
        "trace.overhead_frac",
        ratio(median(&lat), plain_p50) - 1.0,
        "ratio",
    );
}
