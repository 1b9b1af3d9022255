//! The `lb-lint` CLI.
//!
//! ```text
//! lb-lint [check] [--format json|text] [--root PATH]
//! lb-lint graph [--root PATH]
//! lb-lint dataflow [--root PATH]
//! lb-lint effects [--root PATH]
//! ```
//!
//! Exit codes: 0 clean, 1 violations (details in the output), 2 usage or IO
//! error. Both report formats count the `lb-lint: allow` directives per rule.
//! `dataflow` dumps the deterministic per-function R11–R13 summaries and
//! exits 1 if a solver crate's dataflow coverage floor is empty (the same
//! floors `tests/lint_gate.rs` asserts). `effects` does the same for the
//! R14–R16 effect summaries, floored on the serve crate.

use lb_lint::{analyze_workspace, clean_summary, exit_code, render_json, render_text, Config};
use std::path::PathBuf;
use std::process;

enum Format {
    Text,
    Json,
}

enum Cmd {
    Check,
    Graph,
    Dataflow,
    Effects,
}

fn main() {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut cmd = Cmd::Check;
    let mut args = std::env::args().skip(1).peekable();
    if let Some(first) = args.peek() {
        match first.as_str() {
            "check" => {
                args.next();
            }
            "graph" => {
                cmd = Cmd::Graph;
                args.next();
            }
            "dataflow" => {
                cmd = Cmd::Dataflow;
                args.next();
            }
            "effects" => {
                cmd = Cmd::Effects;
                args.next();
            }
            _ => {}
        }
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => usage_error(&format!("--format expects json|text, got {other:?}")),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => usage_error("--root expects a path"),
            },
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let root = root.unwrap_or_else(|| lb_lint::default_workspace_root().to_path_buf());
    let config = Config::default();
    match cmd {
        Cmd::Graph => match lb_lint::graph_dump_workspace(&root, &config) {
            Ok(dump) => print!("{dump}"),
            Err(e) => io_error(&e),
        },
        Cmd::Dataflow => match lb_lint::dataflow_dump_workspace(&root, &config) {
            Ok(dump) => {
                print!("{dump}");
                // The same coverage floors tests/lint_gate.rs asserts: an
                // empty dataflow pass over a solver crate means the rule
                // scope is misconfigured, not that the crate is clean.
                let analysis = match analyze_workspace(&root, &config) {
                    Ok(a) => a,
                    Err(e) => io_error(&e),
                };
                let mut floor_failed = false;
                for name in ["sat", "csp", "join", "graphalg"] {
                    let df = analysis
                        .stats
                        .dataflow
                        .get(name)
                        .copied()
                        .unwrap_or_default();
                    if df.collection_bindings == 0 || df.result_sites == 0 || df.state_structs == 0
                    {
                        eprintln!(
                            "lb-lint: dataflow coverage floor failed for crate `{name}`: \
                             collection_bindings={} result_sites={} state_structs={}",
                            df.collection_bindings, df.result_sites, df.state_structs
                        );
                        floor_failed = true;
                    }
                }
                if floor_failed {
                    process::exit(1);
                }
            }
            Err(e) => io_error(&e),
        },
        Cmd::Effects => match lb_lint::effects_dump_workspace(&root, &config) {
            Ok(dump) => {
                print!("{dump}");
                // Coverage floors, mirroring tests/lint_gate.rs: an empty
                // effect pass over the serve crate means the effect scope is
                // misconfigured, not that the crate is disciplined.
                let analysis = match analyze_workspace(&root, &config) {
                    Ok(a) => a,
                    Err(e) => io_error(&e),
                };
                let fx = analysis
                    .stats
                    .effects
                    .get("serve")
                    .copied()
                    .unwrap_or_default();
                if fx.lock_sites < 10 || fx.durability_sites < 5 || fx.blocking_sites < 8 {
                    eprintln!(
                        "lb-lint: effect coverage floor failed for crate `serve`: \
                         lock_sites={} durability_sites={} blocking_sites={}",
                        fx.lock_sites, fx.durability_sites, fx.blocking_sites
                    );
                    process::exit(1);
                }
            }
            Err(e) => io_error(&e),
        },
        Cmd::Check => match analyze_workspace(&root, &config) {
            Ok(a) => {
                let report = match format {
                    Format::Json => render_json(&a.violations, a.files_checked, &a.allows),
                    Format::Text if a.violations.is_empty() => {
                        clean_summary(a.files_checked, &a.allows)
                    }
                    Format::Text => render_text(&a.violations),
                };
                print!("{report}");
                process::exit(exit_code(&a.violations));
            }
            Err(e) => io_error(&e),
        },
    }
}

fn print_help() {
    println!("usage: lb-lint [check] [--format json|text] [--root PATH]");
    println!("       lb-lint graph [--root PATH]");
    println!("       lb-lint dataflow [--root PATH]");
    println!("       lb-lint effects [--root PATH]");
    println!("exit codes: 0 clean, 1 violations, 2 usage/io");
    println!("  graph:              dump the workspace call graph (deterministic)");
    println!("  dataflow:           dump per-fn R11-R13 summaries + coverage floors");
    println!("  effects:            dump per-fn R14-R16 effect summaries + lock-order");
    println!("                      edges + coverage floors");
}

#[expect(clippy::exit, reason = "the CLI owns its exit codes")]
fn usage_error(msg: &str) -> ! {
    eprintln!("lb-lint: {msg}");
    eprintln!("usage: lb-lint [check|graph|dataflow|effects] [--format json|text] [--root PATH]");
    process::exit(2);
}

#[expect(clippy::exit, reason = "the CLI owns its exit codes")]
fn io_error(e: &std::io::Error) -> ! {
    eprintln!("lb-lint: IO error: {e}");
    process::exit(2);
}
