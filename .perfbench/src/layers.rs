//! Calls into the solver layers, only through their public API: the
//! family's own uninterrupted entry point, the resumable slice runner, the
//! checkpoint codec and the spool. Each call can be wrapped in a span.

use crate::gen::Job;
use crate::trace::Trace;
use lb_engine::checkpoint::Checkpoint;
use lb_engine::{Budget, Outcome, RunStats};
use lb_serve::job::{Instance, JobRecord, JobSpec, JobStatus, Verdict};
use lb_serve::runner::{self, SliceOutcome};
use lb_serve::Spool;
use std::collections::BTreeMap;
use std::time::Instant;

/// Ticks per slice: the `lb-serve run` default.
pub const SLICE_TICKS: u64 = 65_536;

fn values<T: ToString>(vals: &[T]) -> String {
    let vals: Vec<String> = vals.iter().map(T::to_string).collect();
    vals.join(" ")
}

fn sat_model(model: &[bool]) -> String {
    let lits: Vec<String> = model
        .iter()
        .enumerate()
        .map(|(v, &b)| format!("{}{}", if b { "" } else { "-" }, v + 1))
        .collect();
    lits.join(" ")
}

fn verdict<W>(out: Outcome<W>, render: impl FnOnce(W) -> Verdict) -> Result<Verdict, String> {
    match out {
        Outcome::Sat(w) => Ok(render(w)),
        Outcome::Unsat => Ok(Verdict::Unsat),
        other => Err(format!(
            "unlimited solve did not decide: {:?}",
            other.exhaust_reason()
        )),
    }
}

/// Solves `inst` uninterrupted with its family's own entry point. With a
/// trace, a join first pays a separate `wcoj::count` under a zero-tick
/// budget: that call validates, projects, sorts and builds every trie,
/// then stops at the first tick, so its span is the prepare cost.
pub fn solve(inst: &Instance, op: usize, mut trace: Option<&mut Trace>) -> Result<Verdict, String> {
    let unlimited = Budget::unlimited();
    if let (Instance::Join(q, db), Some(tr)) = (inst, trace.as_deref_mut()) {
        let t = Instant::now();
        let (_, stats) =
            lb_join::wcoj::count(q, db, None, &Budget::ticks(0)).map_err(|e| e.to_string())?;
        tr.record(op, "trie", t, stats, 0);
    }
    let t = Instant::now();
    let (layer, v, stats) = match inst {
        Instance::Join(q, db) => {
            let (out, stats) =
                lb_join::wcoj::count(q, db, None, &unlimited).map_err(|e| e.to_string())?;
            ("wcoj", verdict(out, Verdict::Count)?, stats)
        }
        Instance::Sat(f) => {
            let (out, stats) = lb_sat::DpllSolver::default().solve(f, &unlimited);
            (
                "dpll",
                verdict(out, |m| Verdict::Sat(sat_model(&m)))?,
                stats,
            )
        }
        Instance::Csp(c) => {
            let cfg = lb_csp::solver::BacktrackConfig::default();
            let (out, stats) = lb_csp::solver::backtracking::solve(c, cfg, &unlimited);
            (
                "backtracking",
                verdict(out, |a| Verdict::Sat(values(&a)))?,
                stats,
            )
        }
        Instance::Clique(g, k) => {
            let (out, stats) = lb_graphalg::clique::find_clique(g, *k, &unlimited);
            (
                "clique",
                verdict(out, |vs| Verdict::Sat(values(&vs)))?,
                stats,
            )
        }
        Instance::Triangle(_) => return Err("no workload generates triangle jobs".into()),
    };
    if let Some(tr) = trace {
        tr.record(op, layer, t, stats, 0);
    }
    Ok(v)
}

/// Parses a job's text (`JobSpec::instance`: the `formats` parsers and
/// `CnfFormula::from_dimacs`), recording a `formats` span when traced.
pub fn parse(spec: &JobSpec, op: usize, trace: Option<&mut Trace>) -> Result<Instance, String> {
    let t = Instant::now();
    let inst = spec.instance().map_err(|e| format!("parse: {e}"))?;
    if let Some(tr) = trace {
        tr.record(op, "formats", t, RunStats::default(), spec.payload.len());
    }
    Ok(inst)
}

/// The reference verdict: a differential run through the resumable path
/// (`runner::solve_to_verdict` at the server's slice size), whose witness
/// is then checked against the instance itself.
pub fn reference(spec: &JobSpec) -> Result<Verdict, String> {
    let inst = spec.instance().map_err(|e| format!("parse: {e}"))?;
    if let Instance::Join(q, db) = &inst {
        let (out, _) = lb_join::reference::count(q, db, None, &Budget::unlimited())
            .map_err(|e| e.to_string())?;
        return verdict(out, Verdict::Count);
    }
    let (v, _, _) =
        runner::solve_to_verdict(&inst, SLICE_TICKS, None).map_err(|e| e.to_string())?;
    if let Verdict::Sat(w) = &v {
        let nums: Vec<i64> = w
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        let ok = match &inst {
            Instance::Sat(f) => f.eval(&nums.iter().map(|&l| l > 0).collect::<Vec<bool>>()),
            Instance::Csp(c) => {
                c.eval(&nums.iter().map(|&x| x as lb_csp::Value).collect::<Vec<_>>())
            }
            Instance::Clique(g, k) => {
                nums.len() == *k
                    && nums.iter().enumerate().all(|(i, &a)| {
                        nums[i + 1..]
                            .iter()
                            .all(|&b| g.has_edge(a as usize, b as usize))
                    })
            }
            _ => true,
        };
        if !ok {
            return Err(format!("reference witness does not check: {}", v.to_line()));
        }
    }
    Ok(v)
}

/// Checks verdicts against each pool instance's reference, computed once
/// per instance and outside any timed region.
#[derive(Default)]
pub struct Checker {
    refs: BTreeMap<usize, Result<Verdict, String>>,
    pub attempted: usize,
    pub failed: usize,
    /// Wrong verdicts and broken checks: any entry makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Checker {
    /// Checks one operation on pool instance `job`: `got` is its verdict,
    /// or why it has none. A typed error fails the operation; a verdict
    /// that differs from the reference also makes the run incorrect.
    pub fn check(&mut self, pool: &[Job], job: usize, got: Result<&Verdict, String>) {
        self.attempted += 1;
        let want = self
            .refs
            .entry(job)
            .or_insert_with(|| reference(&pool[job].spec));
        let recipe = &pool[job].recipe;
        match (got, want) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(got), Ok(want)) => {
                self.failed += 1;
                self.wrong.push(format!(
                    "{recipe} #{job}: got `{}`, reference `{}`",
                    got.to_line(),
                    want.to_line()
                ));
            }
            (Err(e), _) => {
                self.failed += 1;
                eprintln!("perfbench: {recipe} #{job}: {e}");
            }
            (_, Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: {recipe} #{job}: reference: {e}");
            }
        }
    }
}

/// One served job replayed in-process at the server's slice size:
/// per-slice `runner::solve_slice`, the checkpoint codec, the fixed
/// resume cost, and the spool writes the server makes per suspension.
pub struct Replay {
    pub slices: usize,
    /// Sum of slice times (each includes its own resume), ms.
    pub solve_ms: f64,
    /// Spool writes one job makes after its submit: a checkpoint plus a
    /// record per suspension, then the final record, ms.
    pub spool_ms: f64,
}

pub fn replay(
    spec: &JobSpec,
    inst: &Instance,
    op: usize,
    spool: &Spool,
    tr: &mut Trace,
) -> Result<Replay, String> {
    let family = spec.family.name();
    let mut rec = JobRecord {
        id: format!("r{op}"),
        spec: spec.clone(),
        status: JobStatus::Queued,
        preemptions: 0,
        spent: 0,
        attempts: 0,
    };
    let save_record = |rec: &JobRecord, tr: &mut Trace| -> Result<f64, String> {
        let bytes = rec.encode().len();
        let t = Instant::now();
        spool.save_record(rec).map_err(|e| e.to_string())?;
        Ok(tr.record(op, "spool.save_record", t, RunStats::default(), bytes))
    };
    let mut out = Replay {
        slices: 0,
        solve_ms: 0.0,
        spool_ms: 0.0,
    };
    let mut from: Option<Checkpoint> = None;
    loop {
        if let Some(ck) = &from {
            let t = Instant::now();
            let (_, stats) = runner::solve_slice(inst, &Budget::ticks(0), Some(ck))
                .map_err(|e| e.to_string())?;
            tr.record(op, &format!("checkpoint.resume.{family}"), t, stats, 0);
        }
        let t = Instant::now();
        let (res, stats) = runner::solve_slice(inst, &Budget::ticks(SLICE_TICKS), from.as_ref())
            .map_err(|e| e.to_string())?;
        out.solve_ms += tr.record(op, &format!("runner.slice.{family}"), t, stats, 0);
        out.slices += 1;
        rec.spent += stats.total_ops();
        match res {
            SliceOutcome::Done(v) => {
                rec.status = JobStatus::Done(v);
                out.spool_ms += save_record(&rec, tr)?;
                spool
                    .remove_checkpoint(&rec.id)
                    .map_err(|e| e.to_string())?;
                return Ok(out);
            }
            SliceOutcome::Suspended { checkpoint, .. } => {
                let t = Instant::now();
                let bytes = checkpoint.to_bytes();
                tr.record(op, "checkpoint.encode", t, RunStats::default(), bytes.len());
                let t = Instant::now();
                let back = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
                tr.record(op, "checkpoint.decode", t, RunStats::default(), bytes.len());
                let t = Instant::now();
                spool
                    .save_checkpoint(&rec.id, &back)
                    .map_err(|e| e.to_string())?;
                out.spool_ms += tr.record(
                    op,
                    "spool.save_checkpoint",
                    t,
                    RunStats::default(),
                    bytes.len(),
                );
                rec.preemptions += 1;
                out.spool_ms += save_record(&rec, tr)?;
                from = Some(back);
            }
        }
    }
}
