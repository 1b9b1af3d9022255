//! `perfbench`: the end-to-end and per-layer benchmark for the solvers and
//! `lb-serve`.
//!
//! ```text
//! perfbench --workload solve_join|solve_search|serve_mixed --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures with client-side timestamps only and reports the
//! end-to-end metrics; `--trace 1` runs an untraced and a traced pass of
//! `S/2` seconds each and reports the per-layer metrics. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `serve_mixed` runs the `lb-serve` binary built beside this
//! one. Exit codes: 0 correct, 1 a wrong verdict, 2 error.

mod gen;
mod inproc;
mod layers;
mod serve;
mod stats;
mod trace;

use lb_engine::RunStats;
use stats::{median, ratio, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_per_s", "ops/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("short_latency_ms_p50", "ms"),
    ("long_latency_ms_p50", "ms"),
    ("submit_ack_ms_p50", "ms"),
    ("submit_ack_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload never
/// calls reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("formats.parse_ms", "ms"),
    ("formats.mb_per_s", "MB/s"),
    ("trie.prepare_ms", "ms"),
    ("trie.prepares_per_job", "count"),
    ("trie.rebuild_ms_per_long_join", "ms"),
    ("wcoj.search_ms", "ms"),
    ("wcoj.trie_advances", "count"),
    ("wcoj.ns_per_tick", "ns"),
    ("dpll.solve_ms", "ms"),
    ("dpll.nodes", "count"),
    ("dpll.propagations", "count"),
    ("dpll.ns_per_tick", "ns"),
    ("backtracking.solve_ms", "ms"),
    ("backtracking.nodes", "count"),
    ("backtracking.backtracks", "count"),
    ("clique.solve_ms", "ms"),
    ("clique.nodes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.resume_ms.join", "ms"),
    ("checkpoint.resume_ms.sat", "ms"),
    ("checkpoint.resume_ms.csp", "ms"),
    ("checkpoint.resume_ms.clique", "ms"),
    ("spool.save_record_ms", "ms"),
    ("spool.save_checkpoint_ms", "ms"),
    ("spool.write_bytes_per_job", "bytes"),
    ("protocol.parse_us", "us"),
    ("protocol.ping_rtt_us", "us"),
    ("protocol.status_ms_p50", "ms"),
    ("runner.slice_ms.join", "ms"),
    ("runner.slice_ms.sat", "ms"),
    ("runner.slice_ms.csp", "ms"),
    ("runner.slice_ms.clique", "ms"),
    ("runner.slices_per_job", "count"),
    ("scheduler.queue_wait_ms_p50", "ms"),
    ("scheduler.queue_wait_ms_tail", "ms"),
    ("scheduler.preemptions_per_job", "count"),
    ("scheduler.rejected", "count"),
    ("scheduler.retries", "count"),
    ("client.backoffs", "count"),
    ("loadgen.lag_ms_tail", "ms"),
    ("stage.latency_ms_p50", "ms"),
    ("stage.ack_ms_p50", "ms"),
    ("stage.solve_ms_p50", "ms"),
    ("stage.spool_ms_p50", "ms"),
    ("unattributed_ms_p50", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SolveJoin,
    SolveSearch,
    ServeMixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SolveJoin => "solve_join",
            Workload::SolveSearch => "solve_search",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Ticks in `stats` that only a bypassed family charges: search
    /// counters (propagations, backtracks) on `solve_join`, join counters
    /// (trie advances, tuples) on `solve_search`. The traced run checks
    /// that every solver call reports none, which makes each in-process
    /// workload the bypass workload for a change to the other's layers.
    fn foreign_ticks(self, stats: &RunStats) -> u64 {
        match self {
            Workload::SolveJoin => stats.propagations + stats.backtracks,
            Workload::SolveSearch => stats.trie_advances + stats.tuples,
            Workload::ServeMixed => 0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SolveJoin,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} wants a number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got `{value}`"))?
            }
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0.0,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = [
        Workload::SolveJoin,
        Workload::SolveSearch,
        Workload::ServeMixed,
    ]
    .into_iter()
    .find(|w| workload.as_deref() == Some(w.name()))
    .ok_or(format!(
        "--workload wants solve_join, solve_search or serve_mixed, got {workload:?}"
    ))?;
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The `lb-serve` binary `run.sh` builds beside this one.
fn server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("lb-serve");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} not found; build it first", bin.display()))
    }
}

/// Scratch space inside the checkout (spools, the replay spool), removed
/// when the run ends, whichever way it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let (slots, cycles): (&[gen::Slot], usize) = match args.workload {
        Workload::SolveJoin => (&gen::SOLVE_JOIN, 12),
        Workload::SolveSearch => (&gen::SOLVE_SEARCH, 2),
        Workload::ServeMixed => (&gen::SERVE_MIXED, 4),
    };
    let scratch = Scratch(PathBuf::from(".bench_tmp").join(std::process::id().to_string()));
    let tmp = &scratch.0;
    let bin = match args.workload {
        Workload::ServeMixed => Some(server_bin()?),
        _ => None,
    };

    // Set-up: generate the inputs (and, for serve, start the server on an
    // empty spool until PING → PONG) several times; report the median. The
    // server starts first and the inputs are generated while it starts, so
    // the PING never races the server's first poll of its listener (which
    // made the set-up time flip between two values by chance).
    let mut setup = Vec::new();
    let mut pool = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            serve::ServerProc::stop(s)?;
        }
        // One pool at a time: a second live pool would set the
        // benchmark's own memory peak.
        drop(std::mem::take(&mut pool));
        let t = Instant::now();
        let spawned = match &bin {
            Some(bin) => Some(serve::ServerProc::spawn(
                bin,
                &tmp.join(format!("spool{rep}")),
            )?),
            None => None,
        };
        pool = gen::generate(slots, cycles, args.seed);
        server = spawned.map(serve::ServerProc::ready).transpose()?;
        setup.push(t.elapsed().as_secs_f64());
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup), "s");
    let mut checked = layers::Checker::default();
    let mut notes = Vec::new();
    let trace_path = PathBuf::from(".bench_trace").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    notes.push(format!(
        "set-ups: {}",
        setup
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if bin.is_none() {
        // One untimed round: caches, allocator and CPU settle first.
        inproc::run_pass(&pool, 0.0, false);
        // From here on the peak covers only the resident pool plus what
        // parsing and solving allocate.
        if !stats::reset_peak_rss() {
            notes.push("peak_rss_mb includes set-up: /proc/self/clear_refs is not writable".into());
        }
    }
    match (bin, server) {
        (None, _) if !args.trace => {
            let pass = inproc::run_pass(&pool, args.seconds, false);
            m.set(
                "peak_rss_mb",
                stats::proc_field("self", "status", "VmHWM:") / 1024.0,
                "MB",
            );
            inproc::check(&pool, &pass, &mut checked);
            inproc::end_to_end(&pool, &pass, &mut m);
            notes.push(format!(
                "latency samples: {} instances, best of {} rounds",
                pool.len(),
                pass.ops.len() / pool.len()
            ));
        }
        (None, _) => {
            let plain = inproc::run_pass(&pool, args.seconds / 2.0, false);
            let traced = inproc::run_pass(&pool, args.seconds / 2.0, true);
            inproc::check(&pool, &plain, &mut checked);
            inproc::check(&pool, &traced, &mut checked);
            inproc::per_layer(&pool, &plain, &traced, &mut m);
            for span in &traced.trace.spans {
                let foreign = args.workload.foreign_ticks(&span.stats);
                if foreign != 0 {
                    checked.wrong.push(format!(
                        "layer separation: {} op {} reported {foreign} ticks of a bypassed family",
                        span.layer, span.op
                    ));
                }
            }
            traced
                .trace
                .write_jsonl(&trace_path)
                .map_err(|e| e.to_string())?;
            notes.push(format!(
                "latency samples: {} untraced, {} traced",
                plain.ops.len(),
                traced.ops.len()
            ));
        }
        (Some(bin), Some(mut server)) => {
            let seconds = if args.trace {
                args.seconds / 2.0
            } else {
                args.seconds
            };
            let plain = serve::run_pass(&mut server, &pool, seconds, args.seed)?;
            server.stop()?;
            serve::check(&pool, &plain, &mut checked);
            notes.push(format!(
                "jobs: {} offered at {} jobs/s over {seconds} s",
                plain.served.len(),
                serve::RATE_PER_S
            ));
            notes.push(format!(
                "class check: {} served jobs took a slice count their pinned class rules out",
                serve::misclassified(&pool, &plain)
            ));
            if args.trace {
                let mut server = serve::ServerProc::spawn(&bin, &tmp.join("spool-traced"))?.ready()?;
                let pass = serve::run_pass(&mut server, &pool, seconds, args.seed)?;
                server.stop()?;
                serve::check(&pool, &pass, &mut checked);
                let mut tr = trace::Trace::new();
                let replays = serve::replay_all(&pool, &pass, &tmp.join("replay"), &mut tr)?;
                serve::per_layer(&pool, &plain, &pass, &tr, &replays, &mut m);
                tr.spans.extend(pass.wire);
                tr.write_jsonl(&trace_path).map_err(|e| e.to_string())?;
            } else {
                serve::end_to_end(&pool, &plain, &mut m);
            }
        }
        (Some(_), None) => return Err("no server was started".into()),
    }
    let failed_frac = ratio(checked.failed as f64, checked.attempted as f64);
    m.set("failed_frac", failed_frac, "ratio");

    // Report exactly the declared metrics of this mode; only per-layer
    // metrics may read 0, for a layer the workload never calls.
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut report = Metrics::default();
    for &(name, unit) in declared {
        match m.get(name) {
            Some(v) => report.set(name, v, unit),
            None if args.trace => report.set(name, 0.0, unit),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    for note in &notes {
        println!("# {note}");
    }
    println!("# tail percentile: p{:.0}", stats::TAIL * 100.0);
    println!(
        "# failed_frac = {failed_frac} ({} failed of {} attempted)",
        checked.failed, checked.attempted
    );
    for w in &checked.wrong {
        println!("# FAILED CHECK {w}");
    }
    for (name, (value, unit)) in report.iter() {
        println!("{name} = {value:.6} {unit}");
    }
    let correct = checked.wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checked.attempted.max(1),
        checked.failed,
        report.to_json()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
