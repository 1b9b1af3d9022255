//! Backtracking CSP search with MRV and forward checking.
//!
//! The workhorse solver: still worst-case exponential (as the ETH demands,
//! Theorem 6.4), but with the two classic refinements — minimum-remaining-
//! values variable ordering and forward checking — each independently
//! toggleable for the E7 ablation.
//!
//! Engine mapping: assignments tried are [`RunStats::nodes`] ticks, domain
//! values pruned by forward checking are [`RunStats::backtracks`].
//!
//! # Preemption safety
//!
//! The search runs on an explicit frame stack structured as a micro-step
//! machine: every counted operation applies its effect and advances the
//! phase *before* spending the tick. [`CspSearch`] implements [`Resumable`]
//! and [`Countable`], so the engine's [`find_slice`] and [`count_slice`]
//! drivers can suspend at any failed charge into a [`Checkpoint`] and later
//! continue with the next operation — same verdict, same summed
//! [`RunStats`] as one uninterrupted run.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::backtracks`]: lb_engine::RunStats::backtracks
//! [`RunStats`]: lb_engine::RunStats
//! [`Resumable`]: lb_engine::resumable::Resumable
//! [`Countable`]: lb_engine::resumable::Countable
//! [`find_slice`]: lb_engine::resumable::find_slice
//! [`count_slice`]: lb_engine::resumable::count_slice
//! [`Checkpoint`]: lb_engine::checkpoint::Checkpoint

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::instance::{Assignment, CspInstance, Value};
use lb_engine::checkpoint::{CheckpointError, Digest, PayloadReader, PayloadWriter, SolverFamily};
use lb_engine::resumable::{self, Countable, Resumable};
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// Payload version of backtracking-CSP checkpoints; bumped whenever the
/// frontier encoding below changes.
pub const CHECKPOINT_PAYLOAD_VERSION: u16 = 1;

/// Feature toggles for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BacktrackConfig {
    /// Pick the unassigned variable with the fewest remaining values
    /// (otherwise: lowest index first).
    pub mrv: bool,
    /// After each assignment, prune the domains of not-yet-assigned
    /// variables through constraints with exactly one unassigned variable.
    pub forward_checking: bool,
}

impl Default for BacktrackConfig {
    fn default() -> Self {
        BacktrackConfig {
            mrv: true,
            forward_checking: true,
        }
    }
}

/// Backtracking search on one instance under one configuration, as a
/// resumable search: find mode returns a solution, count mode the number
/// of solutions. Holds the constraint-by-variable index (recomputed, never
/// serialized).
#[derive(Clone, Debug)]
pub struct CspSearch<'a> {
    inst: &'a CspInstance,
    config: BacktrackConfig,
    by_var: Vec<Vec<usize>>,
}

impl<'a> CspSearch<'a> {
    /// The search of `inst` under `config`.
    pub fn new(inst: &'a CspInstance, config: BacktrackConfig) -> Self {
        let mut by_var = vec![Vec::new(); inst.num_vars];
        // lb-lint: allow(unbudgeted-loop) -- one-time index construction, linear in total scope size
        for (ci, c) in inst.constraints.iter().enumerate() {
            let mut seen = c.scope.clone();
            seen.sort_unstable();
            seen.dedup();
            #[expect(
                clippy::indexing_slicing,
                reason = "scope variables are < num_vars, validated by CspInstance::add_constraint"
            )]
            // lb-lint: allow(unbudgeted-loop) -- one-time index construction, linear in total scope size
            for v in seen {
                // lb-lint: allow(unbounded-growth) -- one-time index construction, linear in total scope size
                by_var[v].push(ci);
            }
        }
        CspSearch {
            inst,
            config,
            by_var,
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "var/v index per-variable vectors sized num_vars"
    )]
    fn pick_var(&self, assigned: &[Option<Value>], domain_count: &[usize]) -> Option<usize> {
        let unassigned = (0..self.inst.num_vars).filter(|&v| assigned[v].is_none());
        if self.config.mrv {
            unassigned.min_by_key(|&v| domain_count[v])
        } else {
            let mut it = unassigned;
            it.next()
        }
    }

    /// Checks constraints that are fully assigned and involve `var`.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "var and scope variables are < num_vars (validated by CspInstance::add_constraint), by_var holds constraint indices from enumerate(), and only assigned scope variables are projected"
    )]
    fn consistent_after(&self, assigned: &[Option<Value>], var: usize) -> bool {
        // lb-lint: allow(unbudgeted-loop) -- bounded by the constraints on one variable; the caller charges per node
        for &ci in &self.by_var[var] {
            let c = &self.inst.constraints[ci];
            if c.scope.iter().all(|&v| assigned[v].is_some()) {
                let t: Vec<Value> = c
                    .scope
                    .iter()
                    .map(|&v| assigned[v].expect("checked"))
                    .collect();
                if !c.relation.allows(&t) {
                    return false;
                }
            }
        }
        true
    }
}

/// Where the machine resumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Pick the next variable (or recognize a complete solution).
    Select,
    /// Try values `>= d` for `var`.
    NextValue { var: usize, d: Value },
    /// The top frame's value was just assigned: check full constraints.
    Consist,
    /// Forward checking on the top frame's variable, resuming at constraint
    /// `ci_idx` (within `by_var[var]`) and candidate value `d`.
    ForwardCheck { ci_idx: usize, d: Value },
    /// The current value failed (or its subtree is exhausted): undo and
    /// advance.
    Unwind,
}

/// One active assignment: variable, value tried, and the forward-checking
/// prunes made on its behalf.
#[derive(Clone, Debug)]
struct Frame {
    var: usize,
    d: Value,
    trail: Vec<(usize, Value)>,
}

/// The explicit-stack backtracking state: the frontier a [`CspSearch`]
/// checkpoints. `domain_count` is derived from `domains` (and recomputed on
/// decode).
#[derive(Clone, Debug)]
pub struct Machine {
    /// `domains[v][d]` = still possible.
    domains: Vec<Vec<bool>>,
    domain_count: Vec<usize>,
    assigned: Vec<Option<Value>>,
    frames: Vec<Frame>,
    phase: Phase,
}

/// Finds one solution under `budget`: `Sat(assignment)`, `Unsat`, or
/// `Exhausted`, plus run counters.
pub fn solve(
    inst: &CspInstance,
    config: BacktrackConfig,
    budget: &Budget,
) -> (Outcome<Assignment>, RunStats) {
    resumable::find(&CspSearch::new(inst, config), budget)
}

/// Counts all solutions under `budget`: `Sat(count)` (zero counts as
/// completed) or `Exhausted`.
pub fn count(
    inst: &CspInstance,
    config: BacktrackConfig,
    budget: &Budget,
) -> (Outcome<u64>, RunStats) {
    resumable::count(&CspSearch::new(inst, config), budget)
}

/// Enumerates all solutions through a callback; returning `true` stops.
/// `Sat(true)` means the visitor stopped the search, `Sat(false)` that the
/// space was exhausted normally; `Exhausted` that the budget ran out.
pub fn enumerate_until<F: FnMut(&[Value]) -> bool>(
    inst: &CspInstance,
    config: BacktrackConfig,
    budget: &Budget,
    mut visit: F,
) -> (Outcome<bool>, RunStats) {
    let ctx = CspSearch::new(inst, config);
    let mut m = ctx.fresh();
    let mut ticker = Ticker::new(budget);
    let result = loop {
        match ctx.run(&mut m, &mut ticker) {
            Ok(Some(solution)) => {
                if visit(&solution) {
                    break Ok(Some(true));
                }
            }
            Ok(None) => break Ok(Some(false)),
            Err(reason) => break Err(reason),
        }
    };
    ticker.finish(result)
}

impl Resumable for CspSearch<'_> {
    type State = Machine;
    type Answer = Assignment;
    const FAMILY: SolverFamily = SolverFamily::CspBacktracking;
    const PAYLOAD_VERSION: u16 = CHECKPOINT_PAYLOAD_VERSION;

    /// FNV digest binding a checkpoint to (instance, configuration).
    fn digest(&self) -> u64 {
        let inst = self.inst;
        let mut d = Digest::new();
        d.str("csp-backtracking")
            .usize(inst.num_vars)
            .usize(inst.domain_size)
            .usize(inst.constraints.len());
        // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in instance size; runs once per resume
        for c in &inst.constraints {
            d.usize(c.scope.len());
            // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in instance size; runs once per resume
            for &v in &c.scope {
                d.usize(v);
            }
            d.usize(c.relation.arity()).usize(c.relation.tuples().len());
            // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in instance size; runs once per resume
            for t in c.relation.tuples() {
                // lb-lint: allow(unbudgeted-loop) -- digest pass, linear in instance size; runs once per resume
                for &v in t {
                    d.u64(u64::from(v));
                }
            }
        }
        d.u64(u64::from(self.config.mrv))
            .u64(u64::from(self.config.forward_checking));
        d.finish()
    }

    fn fresh(&self) -> Machine {
        let inst = self.inst;
        Machine {
            domains: vec![vec![true; inst.domain_size]; inst.num_vars],
            domain_count: vec![inst.domain_size; inst.num_vars],
            assigned: vec![None; inst.num_vars],
            frames: Vec::new(),
            phase: Phase::Select,
        }
    }

    /// Runs micro-steps until the next solution (`Ok(Some(..))`, machine
    /// positioned to continue past it), exhaustion of the search space
    /// (`Ok(None)`), or a failed charge (`Err`, machine resumable).
    fn run(
        &self,
        m: &mut Machine,
        ticker: &mut Ticker,
    ) -> Result<Option<Assignment>, ExhaustReason> {
        loop {
            match m.phase {
                Phase::Select => match self.pick_var(&m.assigned, &m.domain_count) {
                    None => {
                        #[expect(
                            clippy::expect_used,
                            reason = "invariant: a complete solution assigns every variable"
                        )]
                        let solution: Assignment = m
                            .assigned
                            .iter()
                            .map(|a| a.expect("all assigned"))
                            .collect();
                        debug_assert!(self.inst.eval(&solution));
                        m.phase = Phase::Unwind;
                        return Ok(Some(solution));
                    }
                    Some(var) => m.phase = Phase::NextValue { var, d: 0 },
                },
                #[expect(
                    clippy::indexing_slicing,
                    reason = "var < num_vars, and d < domain_size by the loop bound"
                )]
                Phase::NextValue { var, d } => {
                    let mut d = d;
                    let mut open = None;
                    // lb-lint: allow(unbudgeted-loop) -- scans at most domain_size values for the next open value; selection charges a node
                    while (d as usize) < self.inst.domain_size {
                        if m.domains[var][d as usize] {
                            open = Some(d);
                            break;
                        }
                        d += 1;
                    }
                    match open {
                        None => m.phase = Phase::Unwind,
                        Some(d) => {
                            m.frames.push(Frame {
                                var,
                                d,
                                trail: Vec::new(),
                            });
                            ticker.record_intermediate(m.frames.len() as u64);
                            m.assigned[var] = Some(d);
                            m.phase = Phase::Consist;
                            ticker.node()?;
                        }
                    }
                }
                Phase::Consist => {
                    let Some(frame) = m.frames.last() else {
                        // Unreachable from valid transitions; recover by
                        // unwinding rather than panicking.
                        m.phase = Phase::Unwind;
                        continue;
                    };
                    let var = frame.var;
                    m.phase = if !self.consistent_after(&m.assigned, var) {
                        Phase::Unwind
                    } else if self.config.forward_checking {
                        Phase::ForwardCheck { ci_idx: 0, d: 0 }
                    } else {
                        Phase::Select
                    };
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "var, u and scope variables are < num_vars (validated by CspInstance::add_constraint), by_var holds constraint indices from enumerate(), and d < domain_size by the loop bound"
                )]
                Phase::ForwardCheck { ci_idx, d } => {
                    let Some(frame) = m.frames.last() else {
                        m.phase = Phase::Unwind;
                        continue;
                    };
                    let var = frame.var;
                    let mut ci_idx = ci_idx;
                    let mut d = d;
                    loop {
                        let Some(&ci) = self.by_var[var].get(ci_idx) else {
                            m.phase = Phase::Select;
                            break;
                        };
                        let c = &self.inst.constraints[ci];
                        // Exactly one unassigned scope variable?
                        let mut unassigned_var = None;
                        let mut multiple = false;
                        // lb-lint: allow(unbudgeted-loop) -- scans one constraint scope; bounded by arity
                        for &v in &c.scope {
                            if m.assigned[v].is_none() {
                                match unassigned_var {
                                    None => unassigned_var = Some(v),
                                    Some(u) if u == v => {}
                                    Some(_) => {
                                        multiple = true;
                                        break;
                                    }
                                }
                            }
                        }
                        let (Some(u), false) = (unassigned_var, multiple) else {
                            ci_idx += 1;
                            d = 0;
                            continue;
                        };
                        // Prune values of u not extendable to an allowed tuple.
                        while (d as usize) < self.inst.domain_size {
                            if m.domains[u][d as usize] {
                                let t: Vec<Value> = c
                                    .scope
                                    .iter()
                                    .map(|&v| m.assigned[v].unwrap_or(d))
                                    .collect();
                                if !c.relation.allows(&t) {
                                    m.domains[u][d as usize] = false;
                                    m.domain_count[u] -= 1;
                                    if let Some(top) = m.frames.last_mut() {
                                        top.trail.push((u, d));
                                        ticker.record_intermediate(top.trail.len() as u64);
                                    }
                                    d += 1;
                                    m.phase = Phase::ForwardCheck { ci_idx, d };
                                    ticker.backtrack()?;
                                    continue;
                                }
                            }
                            d += 1;
                        }
                        if m.domain_count[u] == 0 {
                            m.phase = Phase::Unwind;
                            break;
                        }
                        ci_idx += 1;
                        d = 0;
                    }
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "trail entries were in range when pushed and are bounds-checked on decode, and frame.var < num_vars"
                )]
                Phase::Unwind => match m.frames.pop() {
                    None => return Ok(None),
                    Some(frame) => {
                        // lb-lint: allow(unbudgeted-loop) -- undoes one frame's trail; entries were charged when pruned
                        for &(v, dv) in &frame.trail {
                            // Restore idempotently: a hostile (but
                            // checksummed) trail must not corrupt counts.
                            if !m.domains[v][dv as usize] {
                                m.domains[v][dv as usize] = true;
                                m.domain_count[v] += 1;
                            }
                        }
                        m.assigned[frame.var] = None;
                        m.phase = Phase::NextValue {
                            var: frame.var,
                            d: frame.d + 1,
                        };
                    }
                },
            }
        }
    }

    fn encode(&self, m: &Machine, w: &mut PayloadWriter) {
        w.seq(&m.domains, |w, row| {
            w.seq(row, |w, &b| {
                w.bool(b);
            });
        })
        .each(&m.assigned, |w, a| {
            w.u64(a.map_or(0, |v| u64::from(v) + 1));
        })
        .seq(&m.frames, |w, frame| {
            w.usize(frame.var)
                .u32(frame.d)
                .seq(&frame.trail, |w, &(v, d)| {
                    w.usize(v).u32(d);
                });
        });
        match m.phase {
            Phase::Select => {
                w.u8(0);
            }
            Phase::NextValue { var, d } => {
                w.u8(1).usize(var).u32(d);
            }
            Phase::Consist => {
                w.u8(2);
            }
            Phase::ForwardCheck { ci_idx, d } => {
                w.u8(3).usize(ci_idx).u32(d);
            }
            Phase::Unwind => {
                w.u8(4);
            }
        }
    }

    /// Decodes and validates a frontier against the instance.
    fn decode(&self, r: &mut PayloadReader<'_>) -> Result<Machine, CheckpointError> {
        let n = self.inst.num_vars;
        let ds = self.inst.domain_size;
        let domains = r.seq(n..=n, 8, "domain rows", |r, _| {
            r.seq(ds..=ds, 1, "domain row", |r, _| r.bool())
        })?;
        let domain_count = domains
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .collect();
        let assigned = r.items(0..n, 8, "assignment", |r, _| {
            let at = r.offset();
            match r.u64()? {
                0 => Ok(None),
                v if v - 1 < ds as u64 => Ok(Some((v - 1) as Value)),
                v => Err(CheckpointError::Malformed {
                    what: format!("assigned value {} out of domain (< {ds} required)", v - 1),
                    offset: at,
                }),
            }
        })?;
        let read_value = |r: &mut PayloadReader<'_>| -> Result<Value, CheckpointError> {
            let at = r.offset();
            let d = r.u32()?;
            if (d as usize) < ds {
                Ok(d)
            } else {
                Err(CheckpointError::Malformed {
                    what: format!("domain value {d} out of range (< {ds} required)"),
                    offset: at,
                })
            }
        };
        let frames = r.seq(.., 20, "frame stack", |r, _| {
            let var = r.usize_below(n, "frame var")?;
            let d = read_value(r)?;
            let trail = r.seq(.., 12, "prune trail", |r, _| {
                Ok((r.usize_below(n, "trail var")?, read_value(r)?))
            })?;
            Ok(Frame { var, d, trail })
        })?;
        let tag_at = r.offset();
        let phase = match r.u8()? {
            0 => Phase::Select,
            1 => {
                let var = r.usize_below(n, "next-value var")?;
                let at = r.offset();
                let d = r.u32()?;
                if (d as usize) > ds {
                    return Err(CheckpointError::Malformed {
                        what: format!("next-value cursor {d} out of range (<= {ds} required)"),
                        offset: at,
                    });
                }
                Phase::NextValue { var, d }
            }
            2 => Phase::Consist,
            3 => {
                let top_var =
                    frames
                        .last()
                        .map(|f| f.var)
                        .ok_or_else(|| CheckpointError::Malformed {
                            what: "forward-check phase with an empty frame stack".into(),
                            offset: tag_at,
                        })?;
                let constraints = self.by_var.get(top_var).map_or(0, Vec::len);
                let ci_idx = r.usize_at_most(constraints, "constraint cursor")?;
                let at = r.offset();
                let d = r.u32()?;
                if (d as usize) > ds {
                    return Err(CheckpointError::Malformed {
                        what: format!("forward-check cursor {d} out of range (<= {ds} required)"),
                        offset: at,
                    });
                }
                Phase::ForwardCheck { ci_idx, d }
            }
            4 => Phase::Unwind,
            b => {
                return Err(CheckpointError::Malformed {
                    what: format!("invalid phase tag {b}"),
                    offset: tag_at,
                })
            }
        };
        if matches!(phase, Phase::Consist) && frames.is_empty() {
            return Err(CheckpointError::Malformed {
                what: "consistency phase with an empty frame stack".into(),
                offset: tag_at,
            });
        }
        Ok(Machine {
            domains,
            domain_count,
            assigned,
            frames,
            phase,
        })
    }
}

impl Countable for CspSearch<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::instance::{Constraint, Relation};
    use crate::solver::bruteforce;
    use std::sync::Arc;

    fn all_configs() -> Vec<BacktrackConfig> {
        let mut out = Vec::new();
        for mrv in [false, true] {
            for fc in [false, true] {
                out.push(BacktrackConfig {
                    mrv,
                    forward_checking: fc,
                });
            }
        }
        out
    }

    #[test]
    fn coloring_triangle() {
        let mut inst = CspInstance::new(3, 3);
        let neq = Arc::new(Relation::disequality(3));
        inst.add_constraint(Constraint::new(vec![0, 1], neq.clone()));
        inst.add_constraint(Constraint::new(vec![1, 2], neq.clone()));
        inst.add_constraint(Constraint::new(vec![0, 2], neq));
        for cfg in all_configs() {
            let (sol, _) = solve(&inst, cfg, &Budget::unlimited());
            assert!(inst.eval(&sol.unwrap_sat()));
            let (cnt, _) = count(&inst, cfg, &Budget::unlimited());
            assert_eq!(cnt.unwrap_sat(), 6); // 3! proper 3-colorings of K3
        }
    }

    #[test]
    fn agrees_with_bruteforce_on_random_instances() {
        for seed in 0..15u64 {
            let g = lb_graph::generators::gnp(6, 0.5, seed);
            let inst = generators::random_binary_csp(&g, 3, 0.4, seed);
            let expect = bruteforce::count(&inst, &Budget::unlimited())
                .0
                .unwrap_sat();
            for cfg in all_configs() {
                let (cnt, _) = count(&inst, cfg, &Budget::unlimited());
                assert_eq!(cnt.unwrap_sat(), expect, "seed {seed}, cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn ternary_constraints() {
        // x + y + z ≡ 0 (mod 2) over D = {0,1}: 4 solutions.
        let mut inst = CspInstance::new(3, 2);
        inst.add_constraint(Constraint::new(
            vec![0, 1, 2],
            Arc::new(Relation::from_fn(3, 2, |t| (t[0] + t[1] + t[2]) % 2 == 0)),
        ));
        for cfg in all_configs() {
            assert_eq!(count(&inst, cfg, &Budget::unlimited()).0.unwrap_sat(), 4);
        }
    }

    #[test]
    fn forward_checking_prunes() {
        // A chain of equalities pinned at one end: FC collapses domains.
        let d = 5;
        let mut inst = CspInstance::new(6, d);
        let eq = Arc::new(Relation::equality(d));
        for i in 0..5 {
            inst.add_constraint(Constraint::new(vec![i, i + 1], eq.clone()));
        }
        inst.add_constraint(Constraint::new(
            vec![0],
            Arc::new(Relation::new(1, vec![vec![3]])),
        ));
        let (sol, stats_fc) = solve(
            &inst,
            BacktrackConfig {
                mrv: true,
                forward_checking: true,
            },
            &Budget::unlimited(),
        );
        assert_eq!(sol.unwrap_sat(), vec![3; 6]);
        assert!(stats_fc.backtracks > 0);
    }

    #[test]
    fn empty_relation_unsat() {
        let mut inst = CspInstance::new(2, 3);
        inst.add_constraint(Constraint::new(vec![0, 1], Arc::new(Relation::empty(2))));
        for cfg in all_configs() {
            assert!(solve(&inst, cfg, &Budget::unlimited()).0.is_unsat());
        }
    }

    #[test]
    fn repeated_variable_in_scope() {
        // (x, x) ∈ disequality is unsatisfiable.
        let mut inst = CspInstance::new(1, 4);
        inst.add_constraint(Constraint::new(
            vec![0, 0],
            Arc::new(Relation::disequality(4)),
        ));
        for cfg in all_configs() {
            assert!(
                solve(&inst, cfg, &Budget::unlimited()).0.is_unsat(),
                "cfg {cfg:?}"
            );
        }
    }

    #[test]
    fn zero_domain() {
        let inst = CspInstance::new(2, 0);
        for cfg in all_configs() {
            assert!(solve(&inst, cfg, &Budget::unlimited()).0.is_unsat());
            assert_eq!(count(&inst, cfg, &Budget::unlimited()).0.unwrap_sat(), 0);
        }
    }

    #[test]
    fn enumerate_early_stop() {
        let inst = CspInstance::new(2, 3);
        let mut seen = 0;
        let (out, _) = enumerate_until(
            &inst,
            BacktrackConfig::default(),
            &Budget::unlimited(),
            |_| {
                seen += 1;
                seen == 4
            },
        );
        assert_eq!(seen, 4);
        assert!(out.unwrap_sat());
    }

    #[test]
    fn tiny_budget_exhausts_and_counters_are_monotone() {
        let g = lb_graph::generators::gnp(7, 0.5, 5);
        let inst = generators::random_binary_csp(&g, 3, 0.4, 5);
        let (out, small) = count(&inst, BacktrackConfig::default(), &Budget::ticks(3));
        assert!(out.is_exhausted());
        let (full, big) = count(&inst, BacktrackConfig::default(), &Budget::unlimited());
        assert!(full.is_sat());
        assert!(small.le(&big));
    }
}
