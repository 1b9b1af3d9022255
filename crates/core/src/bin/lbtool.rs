//! `lbtool` — command-line access to the workspace's solvers.
//!
//! ```text
//! lbtool sat <file.cnf>            solve a DIMACS CNF with DPLL
//! lbtool 2sat <file.cnf>           solve a width-≤2 DIMACS CNF in linear time
//! lbtool count <file.cnf>          count the models of a DIMACS CNF
//! lbtool csp <file.csp>            solve a CSP instance by backtracking
//! lbtool join <file.db> "<query>"  count join results worst-case optimally
//!                                  (--print streams the tuples themselves;
//!                                  --stats-json emits RunStats as JSON)
//! lbtool triangle <file.graph>     count the triangles of a graph
//! lbtool clique <file.graph> <k>   find (or --count) k-cliques
//! lbtool treewidth <file.graph>    treewidth bounds (exact when n ≤ 22)
//! lbtool rho-star "<query>"        ρ* and the AGM bound of a join query
//! lbtool claims [hypothesis]       the paper's lower-bound claims
//! lbtool serve --spool <dir>       run the multi-tenant solver service
//! lbtool submit <family> <file>    submit a job to a running service and
//!                                  wait for its verdict
//! ```
//!
//! Solver commands accept `--budget <ticks>`: the run stops with exit code 3
//! and prints `UNKNOWN` once the solver has spent that many counted
//! operations. Without the flag the solver runs to completion.
//!
//! `sat`, `csp`, `join`, `triangle`, and `clique` additionally accept:
//!
//! ```text
//! --checkpoint <file>            persist the search frontier to <file>
//! --resume <file>                continue from a previously saved frontier
//! --checkpoint-interval <ticks>  ops between saves (default 65536)
//! ```
//!
//! With `--checkpoint`, the solver runs in slices and atomically rewrites
//! `<file>` after each one, so a killed process (even `kill -9`) loses at
//! most one interval of work; rerunning with `--resume <file>` continues
//! where the last save left off and reaches the same answer as an
//! uninterrupted run. On completion the checkpoint file is removed. An
//! exhausted budget is *resumable* when a checkpoint was saved (the
//! `UNKNOWN` diagnostic names the file to resume from) and *terminal*
//! otherwise (the partial search is lost).
//!
//! Graph files: first line `n`, then one `u v` edge per line (0-based).
//! Query syntax: whitespace-separated atoms like `R(a,b) S(a,c) T(b,c)`.
//! CSP files: header `csp <num_vars> <domain_size>`, then one constraint
//! per line, `con <v1> <v2> ... : <t>,<t> <t>,<t> ...` (0-based variables,
//! tuples comma-separated; `#` starts a comment).
//! Database files: a `rel <name> <arity>` line opens a relation; each
//! following numeric line is one of its rows. Rows are set-semantics
//! (duplicates collapse), matching the paper's relational model.
//!
//! Malformed input never panics: every parser reports a typed
//! [`ParseError`] printed as `file:line:col: message`, exit code 1.
//!
//! A closed stdout (a reader such as `head` that stopped reading) ends the
//! command quietly with exit code 0.

use lb_serve::formats::{parse_csp, parse_db, parse_graph, parse_query};
use lowerbounds::engine::checkpoint::{Checkpoint, CheckpointError, ResumableOutcome};
use lowerbounds::engine::resumable::{self, count_slice, find_slice, Countable, Resumable};
use lowerbounds::engine::{Budget, Outcome, ParseError, RunStats};
use lowerbounds::graph::treewidth;
use lowerbounds::hypotheses::Hypothesis;
use lowerbounds::join::agm;
use lowerbounds::sat::{solve_2sat, CnfFormula, DpllSolver};
use std::path::PathBuf;
use std::process::ExitCode;

/// Prints one line to stdout, as `println!` would; every line lbtool
/// prints goes through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. When the reader has gone away (a broken
/// pipe) nobody is left to read the rest, so the process ends quietly with
/// exit code 0, wherever the command was; any other write failure is
/// reported on stderr, exit code 1.
#[expect(clippy::exit, reason = "a closed stdout ends lbtool from any depth")]
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Distinguishes "wrong input" from "budget ran out" for the process exit
/// code. Parse failures keep their source position so every diagnostic is
/// printed in the one conventional `file:line:col: message` shape. An
/// exhausted budget records whether a checkpoint survives it: `resumable`
/// exhaustion names the saved frontier, `terminal` exhaustion means the
/// partial search is lost.
enum CmdError {
    Usage(String),
    Parse {
        path: String,
        err: ParseError,
    },
    Exhausted {
        reason: String,
        checkpoint: Option<PathBuf>,
    },
}

impl From<String> for CmdError {
    fn from(msg: String) -> CmdError {
        CmdError::Usage(msg)
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> CmdError {
        CmdError::Usage(msg.to_string())
    }
}

/// Attaches a file path to a [`ParseError`] for diagnostics.
fn in_file(path: &str) -> impl Fn(ParseError) -> CmdError + '_ {
    move |err| CmdError::Parse {
        path: path.to_string(),
        err,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let (budget, ck) = match parse_common_flags(&mut args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let cmd = args.first().map(String::as_str);
    if ck.active() && !matches!(cmd, Some("sat" | "csp" | "join" | "triangle" | "clique")) {
        eprintln!(
            "error: --checkpoint/--resume are supported by `sat`, `csp`, `join`, `triangle`, and `clique` only"
        );
        return ExitCode::from(2);
    }
    let result = match cmd {
        Some("sat") => cmd_sat(&args[1..], false, &budget, &ck),
        Some("2sat") => cmd_sat(&args[1..], true, &budget, &ck),
        Some("count") => cmd_count(&args[1..], &budget),
        Some("csp") => cmd_csp(&args[1..], &budget, &ck),
        Some("join") => cmd_join(&args[1..], &budget, &ck),
        Some("triangle") => cmd_triangle(&args[1..], &budget, &ck),
        Some("clique") => cmd_clique(&args[1..], &budget, &ck),
        Some("treewidth") => cmd_treewidth(&args[1..]),
        Some("rho-star") => cmd_rho_star(&args[1..]),
        Some("claims") => cmd_claims(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        _ => {
            eprintln!(
                "usage: lbtool <sat|2sat|count|csp|join|triangle|clique|treewidth|rho-star|claims|serve|submit> [--budget <ticks>] [--checkpoint <file>] [--resume <file>] ..."
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CmdError::Parse { path, err }) => {
            eprintln!("{path}:{err}");
            ExitCode::FAILURE
        }
        Err(CmdError::Exhausted { reason, checkpoint }) => {
            out!("UNKNOWN");
            // Shared with lb-serve: one wording for resumable-vs-terminal
            // exhaustion everywhere a budget can run out.
            eprintln!(
                "{}",
                lowerbounds::engine::exhaustion_diagnostic(&reason, checkpoint.as_deref())
            );
            ExitCode::from(3)
        }
    }
}

/// Checkpoint-related command-line state shared by `sat` and `csp`.
struct CkOpts {
    /// Where to persist the frontier (`--checkpoint`).
    save: Option<PathBuf>,
    /// A frontier to continue from (`--resume`).
    resume: Option<PathBuf>,
    /// Ops between saves (`--checkpoint-interval`).
    interval: u64,
}

impl CkOpts {
    fn active(&self) -> bool {
        self.save.is_some() || self.resume.is_some()
    }
}

/// Removes `--budget <ticks>`, `--checkpoint <file>`, `--resume <file>`,
/// and `--checkpoint-interval <ticks>` from the argument list; the budget
/// is unlimited when the flag is absent.
fn parse_common_flags(args: &mut Vec<String>) -> Result<(Budget, CkOpts), String> {
    let budget = match extract_value(args, "--budget")? {
        None => Budget::unlimited(),
        Some(v) => Budget::ticks(
            v.parse()
                .map_err(|e| format!("bad --budget value `{v}`: {e}"))?,
        ),
    };
    let save = extract_value(args, "--checkpoint")?.map(PathBuf::from);
    let resume = extract_value(args, "--resume")?.map(PathBuf::from);
    let interval = match extract_value(args, "--checkpoint-interval")? {
        None => 65_536,
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|e| format!("bad --checkpoint-interval value `{v}`: {e}"))?;
            if n == 0 {
                return Err("--checkpoint-interval must be positive".into());
            }
            n
        }
    };
    Ok((
        budget,
        CkOpts {
            save,
            resume,
            interval,
        },
    ))
}

/// Removes a bare `<flag>` from the argument list, reporting its presence.
fn extract_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// Removes `<flag> <value>` from the argument list, returning the value.
fn extract_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args[pos + 1].clone();
    args.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Drives one mode of a resumable search (`slice`: a [`find_slice`] or
/// [`count_slice`] of it) in `interval`-sized slices, atomically saving
/// the frontier after every suspended slice, until the verdict arrives or
/// `budget` is spent. The returned outcome is terminal: an `Exhausted`
/// here means the total budget ran out (with the last frontier saved, if a
/// save path was given). The checkpoint file is removed on completion. A
/// refused checkpoint is reported with the file it came from.
fn run_sliced<W>(
    budget: &Budget,
    ck: &CkOpts,
    mut slice: impl FnMut(
        &Budget,
        Option<&Checkpoint>,
    ) -> Result<(ResumableOutcome<W>, RunStats), CheckpointError>,
) -> Result<(Outcome<W>, RunStats), CmdError> {
    let mut from = match &ck.resume {
        Some(p) => Some(Checkpoint::load(p).map_err(|e| format!("{}: {e}", p.display()))?),
        None => None,
    };
    let mut total = RunStats::default();
    let mut spent = 0u64;
    loop {
        let slice_ticks = match budget.max_ticks() {
            None => ck.interval,
            Some(t) => {
                let remaining = t.saturating_sub(spent);
                match (remaining, &from) {
                    (0, Some(frontier)) => {
                        return Err(exhaust_with_save(
                            format!("tick budget of {t} exhausted"),
                            frontier,
                            ck,
                        ));
                    }
                    // A zero budget with no frontier yet: run one zero-tick
                    // slice so the crossing op is still recorded, exactly
                    // like the non-resumable path.
                    (r, _) => r.min(ck.interval),
                }
            }
        };
        let (out, stats) = slice(&Budget::ticks(slice_ticks), from.as_ref())
            .map_err(|e| format!("{}: {e}", describe_ck_source(ck)))?;
        total.absorb(&stats);
        spent += stats.total_ops();
        match out {
            ResumableOutcome::Suspended {
                reason: _,
                checkpoint,
            } => {
                // A suspended slice always made progress (every slice has a
                // positive tick budget and the crossing op is counted), so
                // looping — with or without a save path — terminates.
                if let Some(path) = &ck.save {
                    checkpoint
                        .save(path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                }
                from = Some(checkpoint);
            }
            done => {
                if let Some(path) = &ck.save {
                    // Cleanup: a completed run needs no frontier, and a stale
                    // file here would feed a later `--resume` old state — as
                    // would a stale `.tmp` sibling left by a save that was
                    // killed between write and rename, so both are removed.
                    // Warn rather than fail — the verdict itself is already
                    // in hand; absence (completed within the first slice) is
                    // not a hazard.
                    if let Err(e) = lowerbounds::engine::cleanup_artifacts(path) {
                        eprintln!(
                            "warning: could not remove completed checkpoint {}: {e}",
                            path.display()
                        );
                    }
                }
                return Ok((done.into_outcome(), total));
            }
        }
    }
}

/// Builds the resumable-exhaustion error, saving the final frontier first
/// so the diagnostic only names a file that exists.
fn exhaust_with_save(reason: String, frontier: &Checkpoint, ck: &CkOpts) -> CmdError {
    match &ck.save {
        Some(path) => match frontier.save(path) {
            Ok(()) => CmdError::Exhausted {
                reason,
                checkpoint: Some(path.clone()),
            },
            Err(e) => CmdError::Usage(format!("{}: {e}", path.display())),
        },
        None => CmdError::Exhausted {
            reason,
            checkpoint: None,
        },
    }
}

/// Runs find mode of `search` whole: in saved slices ([`run_sliced`]) when
/// a checkpoint flag is given, else in one go.
fn find_run<S: Resumable>(
    search: &S,
    budget: &Budget,
    ck: &CkOpts,
) -> Result<(Outcome<S::Answer>, RunStats), CmdError> {
    if ck.active() {
        run_sliced(budget, ck, |slice, from| find_slice(search, slice, from))
    } else {
        Ok(resumable::find(search, budget))
    }
}

/// Runs count mode of `search` whole, like [`find_run`].
fn count_run<S: Countable>(
    search: &S,
    budget: &Budget,
    ck: &CkOpts,
) -> Result<(Outcome<u64>, RunStats), CmdError> {
    if ck.active() {
        run_sliced(budget, ck, |slice, from| count_slice(search, slice, from))
    } else {
        Ok(resumable::count(search, budget))
    }
}

/// The verdict of a finished run: the answer, `None` for `Unsat`, or the
/// exhausted budget as a terminal error.
fn decided<W>(outcome: Outcome<W>) -> Result<Option<W>, CmdError> {
    match outcome {
        Outcome::Sat(w) => Ok(Some(w)),
        Outcome::Unsat => Ok(None),
        Outcome::Exhausted(r) => Err(CmdError::Exhausted {
            reason: r.to_string(),
            checkpoint: None,
        }),
    }
}

fn report_stats(stats: &RunStats) {
    eprintln!(
        "nodes: {}, propagations: {}, backtracks: {}",
        stats.nodes, stats.propagations, stats.backtracks
    );
}

/// Like [`report_stats`], but leads with the counters join-style work
/// actually charges (index advances and materialized tuples).
fn report_join_stats(stats: &RunStats) {
    eprintln!(
        "trie advances: {}, tuples: {}, nodes: {}, backtracks: {}",
        stats.trie_advances, stats.tuples, stats.nodes, stats.backtracks
    );
}

/// Prints the final [`RunStats`] as one machine-readable JSON line on
/// stdout (`--stats-json`) — the hook the bench harness scrapes.
fn print_stats_json(stats: &RunStats) {
    out!(
        "{{\"nodes\":{},\"propagations\":{},\"trie_advances\":{},\"tuples\":{},\"backtracks\":{},\"max_intermediate\":{},\"total_ops\":{}}}",
        stats.nodes,
        stats.propagations,
        stats.trie_advances,
        stats.tuples,
        stats.backtracks,
        stats.max_intermediate,
        stats.total_ops()
    );
}

fn cmd_sat(args: &[String], two: bool, budget: &Budget, ck: &CkOpts) -> Result<(), CmdError> {
    let path = args.first().ok_or("missing CNF file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let f = CnfFormula::from_dimacs(&text).map_err(in_file(path))?;
    let (outcome, stats) = if two {
        if !f.is_ksat(2) {
            return Err("formula has clauses wider than 2; use `lbtool sat`".into());
        }
        solve_2sat(&f, budget)
    } else {
        find_run(&DpllSolver::default().search(&f), budget, ck)?
    };
    report_stats(&stats);
    match decided(outcome)? {
        Some(m) => {
            let lits: Vec<String> = m
                .iter()
                .enumerate()
                .map(|(v, &b)| format!("{}{}", if b { "" } else { "-" }, v + 1))
                .collect();
            out!("SATISFIABLE\nv {} 0", lits.join(" "));
        }
        None => out!("UNSATISFIABLE"),
    }
    Ok(())
}

/// Names the checkpoint file involved in a decode failure for diagnostics.
fn describe_ck_source(ck: &CkOpts) -> String {
    ck.resume
        .as_deref()
        .or(ck.save.as_deref())
        .map_or_else(|| "<checkpoint>".to_string(), |p| p.display().to_string())
}

fn cmd_count(args: &[String], budget: &Budget) -> Result<(), CmdError> {
    let path = args.first().ok_or("missing CNF file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let f = CnfFormula::from_dimacs(&text).map_err(in_file(path))?;
    let (outcome, stats) = lowerbounds::sat::count_models(&f, budget);
    report_stats(&stats);
    out!("{}", decided(outcome)?.unwrap_or(0));
    Ok(())
}

fn cmd_csp(args: &[String], budget: &Budget, ck: &CkOpts) -> Result<(), CmdError> {
    use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
    let path = args.first().ok_or("missing CSP file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let inst = parse_csp(&text).map_err(in_file(path))?;
    let search = backtracking::CspSearch::new(&inst, BacktrackConfig::default());
    let (outcome, stats) = find_run(&search, budget, ck)?;
    report_stats(&stats);
    match decided(outcome)? {
        Some(a) => {
            let vals: Vec<String> = a.iter().map(|v| v.to_string()).collect();
            out!("SATISFIABLE\nv {}", vals.join(" "));
        }
        None => out!("UNSATISFIABLE"),
    }
    Ok(())
}

fn cmd_join(args: &[String], budget: &Budget, ck: &CkOpts) -> Result<(), CmdError> {
    use lowerbounds::join::wcoj;
    let mut args: Vec<String> = args.to_vec();
    let order: Option<Vec<String>> = extract_value(&mut args, "--order")?
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let stats_json = extract_flag(&mut args, "--stats-json");
    let print = extract_flag(&mut args, "--print");
    if print && ck.active() {
        return Err("--print streams tuples and cannot be combined with --checkpoint/--resume (count without --print to run resumably)".into());
    }
    let path = args.first().ok_or("missing database file")?;
    let spec = args.get(1).ok_or("missing query string")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let db = parse_db(&text).map_err(in_file(path))?;
    let q = parse_query(spec).map_err(in_file("<query>"))?;
    let (outcome, stats) = if ck.active() {
        let search = wcoj::JoinSearch::new(&q, &db, order.as_deref()).map_err(|e| e.to_string())?;
        run_sliced(budget, ck, |slice, from| count_slice(&search, slice, from))?
    } else if print {
        // Stream each tuple as it is found (attribute order, one line
        // each) — memory stays flat no matter how large the answer is.
        wcoj::join_foreach(&q, &db, order.as_deref(), budget, |t| {
            let line = t
                .iter()
                .map(u64::to_string)
                .collect::<Vec<String>>()
                .join(" ");
            out!("{line}");
        })
        .map_err(|e| e.to_string())?
    } else {
        // `count` itself streams through `join_foreach` internally: no
        // answer tuple is ever materialized for a count-only run.
        wcoj::count(&q, &db, order.as_deref(), budget).map_err(|e| e.to_string())?
    };
    report_join_stats(&stats);
    out!("{}", decided(outcome)?.unwrap_or(0));
    if stats_json {
        print_stats_json(&stats);
    }
    Ok(())
}

fn cmd_triangle(args: &[String], budget: &Budget, ck: &CkOpts) -> Result<(), CmdError> {
    use lowerbounds::graphalg::triangle;
    let path = args.first().ok_or("missing graph file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let g = parse_graph(&text).map_err(in_file(path))?;
    let (outcome, stats) = count_run(&triangle::TriangleScan::new(&g), budget, ck)?;
    report_join_stats(&stats);
    out!("{}", decided(outcome)?.unwrap_or(0));
    Ok(())
}

fn cmd_clique(args: &[String], budget: &Budget, ck: &CkOpts) -> Result<(), CmdError> {
    use lowerbounds::graphalg::clique;
    let mut args: Vec<String> = args.to_vec();
    let counting = if let Some(pos) = args.iter().position(|a| a == "--count") {
        args.remove(pos);
        true
    } else {
        false
    };
    let path = args.first().ok_or("missing graph file")?;
    let k: usize = match args.get(1) {
        Some(tok) => tok
            .parse()
            .map_err(|e| format!("bad clique size `{tok}`: {e}"))?,
        None => return Err("missing clique size k".into()),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let g = parse_graph(&text).map_err(in_file(path))?;
    let search = clique::CliqueSearch::new(&g, k);
    if counting {
        let (outcome, stats) = count_run(&search, budget, ck)?;
        report_stats(&stats);
        out!("{}", decided(outcome)?.unwrap_or(0));
        return Ok(());
    }
    let (outcome, stats) = find_run(&search, budget, ck)?;
    report_stats(&stats);
    match decided(outcome)? {
        Some(vs) => {
            let vs: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            out!("CLIQUE\nv {}", vs.join(" "));
        }
        None => out!("NONE"),
    }
    Ok(())
}

fn cmd_treewidth(args: &[String]) -> Result<(), CmdError> {
    let path = args.first().ok_or("missing graph file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let g = parse_graph(&text).map_err(in_file(path))?;
    let lo = treewidth::treewidth_lower_bound(&g);
    let (hi, td) = treewidth::treewidth_upper_bound(&g);
    out!("n = {}, m = {}", g.num_vertices(), g.num_edges());
    out!("MMD lower bound:        {lo}");
    out!("heuristic upper bound:  {hi} ({} bags)", td.num_bags());
    if g.num_vertices() <= treewidth::exact::MAX_EXACT_N {
        let tw = treewidth::treewidth_exact(&g);
        out!("exact treewidth:        {tw}");
    } else {
        out!(
            "exact treewidth:        (skipped, n > {})",
            treewidth::exact::MAX_EXACT_N
        );
    }
    Ok(())
}

fn cmd_rho_star(args: &[String]) -> Result<(), CmdError> {
    let spec = args.first().ok_or("missing query string")?;
    let q = parse_query(spec).map_err(in_file("<query>"))?;
    let rho = agm::rho_star(&q).map_err(|e| e.to_string())?;
    out!("query:   {spec}");
    out!("ρ*:      {rho} (= {:.4})", rho.to_f64());
    for n in [1000u64, 1_000_000] {
        out!(
            "AGM bound at N = {n}: {:.0} tuples",
            agm::agm_bound(&q, n).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_claims(args: &[String]) -> Result<(), CmdError> {
    let claims = match args.first().map(String::as_str) {
        None => lowerbounds::claims::all_claims(),
        Some(name) => {
            let h = Hypothesis::ALL
                .into_iter()
                .find(|h| {
                    h.name().eq_ignore_ascii_case(name)
                        || format!("{h:?}").eq_ignore_ascii_case(name)
                })
                .ok_or_else(|| {
                    format!(
                        "unknown hypothesis `{name}`; known: {:?}",
                        Hypothesis::ALL.map(|h| format!("{h:?}"))
                    )
                })?;
            lowerbounds::claims::claims_under(h)
        }
    };
    for c in claims {
        let hyp = c
            .hypothesis
            .map_or("unconditional".to_string(), |h| h.name().to_string());
        out!("{:<44} [{hyp}]", c.id);
        out!("    {}", c.statement);
        out!("    rules out: {} | witness: {}", c.rules_out, c.witness);
    }
    Ok(())
}

/// Removes `<flag> <number>` from the argument list, with a default.
fn extract_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match extract_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_bad| format!("bad {flag} value `{v}` (expected a number)")),
    }
}

/// `lbtool serve --spool DIR [...]` — runs the solver service in the
/// foreground until a client sends `DRAIN`. Same knobs as `lb-serve run`.
fn cmd_serve(args: &[String]) -> Result<(), CmdError> {
    use lb_serve::{SchedulerConfig, ServerConfig};
    let mut args = args.to_vec();
    let spool = extract_value(&mut args, "--spool")?.ok_or("serve needs --spool <dir>")?;
    let d = ServerConfig::default();
    let sd = SchedulerConfig::default();
    let cfg = ServerConfig {
        addr: extract_value(&mut args, "--addr")?.unwrap_or(d.addr),
        spool: PathBuf::from(spool),
        sched: SchedulerConfig {
            slice_ticks: extract_num(&mut args, "--slice-ticks", sd.slice_ticks)?,
            workers: extract_num(&mut args, "--workers", sd.workers)?,
            tenant_quota: extract_num(&mut args, "--tenant-quota", sd.tenant_quota)?,
            max_active: extract_num(&mut args, "--max-active", sd.max_active)?,
            retry_after_ms: extract_num(&mut args, "--retry-after-ms", sd.retry_after_ms)?,
            max_attempts: extract_num(&mut args, "--max-attempts", sd.max_attempts)?,
            retry_backoff_ms: extract_num(&mut args, "--retry-backoff-ms", sd.retry_backoff_ms)?,
            io_fault_seed: extract_value(&mut args, "--io-fault-seed")?
                .map(|v| {
                    v.parse()
                        .map_err(|_bad| format!("bad --io-fault-seed `{v}`"))
                })
                .transpose()?,
        },
        idle_timeout_ms: extract_num(&mut args, "--idle-timeout-ms", d.idle_timeout_ms)?,
        read_timeout_ms: extract_num(&mut args, "--read-timeout-ms", d.read_timeout_ms)?,
        max_conns: extract_num(&mut args, "--max-conns", d.max_conns)?,
        net_fault_seed: extract_value(&mut args, "--net-fault-seed")?
            .map(|v| {
                v.parse()
                    .map_err(|_bad| format!("bad --net-fault-seed `{v}`"))
            })
            .transpose()?,
    };
    if let Some(stray) = args.first() {
        return Err(format!("unknown `serve` argument `{stray}`").into());
    }
    let server = lb_serve::Server::bind(cfg).map_err(|e| e.to_string())?;
    if let Some(addr) = server.local_addr() {
        out!("listening on {addr}");
        use std::io::Write;
        std::io::stdout().flush().map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| e.to_string())?;
    eprintln!("drained; all unsettled jobs remain spooled");
    Ok(())
}

/// `lbtool submit <family> <file> [--addr HOST:PORT] [--tenant NAME]
/// [--k N] [--job-budget TICKS] [--no-wait] [--timeout-ms MS]` — submits
/// one job to a running service and (by default) polls until its verdict
/// arrives. The payload file uses the same formats the local commands
/// read; a `join` payload is the query line followed by the database.
fn cmd_submit(args: &[String]) -> Result<(), CmdError> {
    use lb_serve::client::{retry_with_backoff, Backoff, Client};
    use lb_serve::{JobFamily, JobSpec};
    use std::time::Duration;
    let mut args = args.to_vec();
    let addr = extract_value(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let tenant = extract_value(&mut args, "--tenant")?.unwrap_or_else(|| "cli".to_string());
    let k: usize = extract_num(&mut args, "--k", 0)?;
    let budget: u64 = extract_num(&mut args, "--job-budget", 0)?;
    let timeout_ms: u64 = extract_num(&mut args, "--timeout-ms", 120_000)?;
    let wait = !extract_flag(&mut args, "--no-wait");
    let family = args
        .first()
        .ok_or("missing job family (sat, csp, join, triangle, or clique)")?;
    let family = JobFamily::from_name(family).ok_or_else(|| {
        format!("unknown family `{family}` (expected sat, csp, join, triangle, or clique)")
    })?;
    let path = args.get(1).ok_or("missing payload file")?;
    let payload = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = JobSpec {
        tenant,
        family,
        k,
        budget: (budget > 0).then_some(budget),
        payload,
    };
    // Validate locally first so a malformed payload is reported with the
    // file's own coordinates, not the wire protocol's.
    spec.instance().map_err(in_file(path))?;
    // Retryable rejections (overload, quota, draining — anything with a
    // retry-after hint) and connection trouble get the seeded jittered
    // backoff; permanent rejections surface immediately.
    let policy = Backoff::default();
    let (mut client, id, backoffs) = retry_with_backoff(&policy, |_attempt| {
        let mut client = Client::connect(&addr, Duration::from_millis(5_000))?;
        let id = client.submit(&spec)?;
        Ok((client, id))
    })
    .map(|((client, id), backoffs)| (client, id, backoffs))
    .map_err(|e| e.to_string())?;
    out!("submitted {id}");
    if backoffs > 0 {
        eprintln!("absorbed {backoffs} typed rejection(s) before admission");
    }
    if !wait {
        return Ok(());
    }
    // Poll by iteration count, not wall clock: attempts × interval bounds
    // the wait without consulting a timer.
    let interval_ms = 50u64;
    let attempts = timeout_ms / interval_ms;
    for _ in 0..=attempts {
        let status = client.status(&id).map_err(|e| e.to_string())?;
        if status.state == "done" {
            eprintln!(
                "preemptions: {}, ticks spent: {}",
                status.preemptions, status.spent
            );
            match status.verdict {
                Some(v) => out!("{}", v.to_line()),
                None => return Err(format!("{id}: done without a verdict").into()),
            }
            return Ok(());
        }
        if status.state == "quarantined" {
            // The survival ladder gave up on this job: surface the typed
            // verdict and evidence instead of polling forever.
            eprintln!(
                "attempts: {}, preemptions: {}, ticks spent: {}",
                status.attempts, status.preemptions, status.spent
            );
            out!(
                "QUARANTINED {}",
                status
                    .evidence
                    .as_deref()
                    .unwrap_or("(no evidence recorded)")
            );
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    Err(format!(
        "{id}: still {} after {timeout_ms} ms; rerun `lbtool submit` or query STATUS later",
        "unsettled"
    )
    .into())
}
