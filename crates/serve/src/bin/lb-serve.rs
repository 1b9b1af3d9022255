//! `lb-serve` — run the solver service.
//!
//! ```text
//! lb-serve run   --spool DIR [--addr HOST:PORT] [--slice-ticks N] [--workers N]
//!                [--tenant-quota N] [--max-active N] [--retry-after-ms MS]
//!                [--max-attempts N] [--retry-backoff-ms MS]
//!                [--io-fault-seed N] [--net-fault-seed N]
//!                [--idle-timeout-ms MS] [--read-timeout-ms MS] [--max-conns N]
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage.

use lb_serve::scheduler::SchedulerConfig;
use lb_serve::server::{Server, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lb-serve run [options]
  run   --spool DIR [--addr HOST:PORT] [--slice-ticks N] [--workers N]
        [--tenant-quota N] [--max-active N] [--retry-after-ms MS]
        [--max-attempts N] [--retry-backoff-ms MS]
        [--io-fault-seed N] [--net-fault-seed N]
        [--idle-timeout-ms MS] [--read-timeout-ms MS] [--max-conns N]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("lb-serve: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Pulls `--flag value` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String> {
    match take_flag(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_bad| format!("{flag} wants a number, got `{v}`")),
    }
}

/// Pulls an optional `--flag N` seed out of `args`: absent means "off".
fn take_seed(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    match take_flag(args, flag)? {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_bad| format!("{flag} wants a number, got `{v}`")),
    }
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let spool = take_flag(&mut args, "--spool")?.ok_or("run needs --spool DIR")?;
    let defaults = ServerConfig::default();
    let sched_defaults = SchedulerConfig::default();
    let cfg = ServerConfig {
        addr: take_flag(&mut args, "--addr")?.unwrap_or(defaults.addr),
        spool: PathBuf::from(spool),
        sched: SchedulerConfig {
            slice_ticks: take_num(&mut args, "--slice-ticks", sched_defaults.slice_ticks)?,
            workers: take_num(&mut args, "--workers", sched_defaults.workers)?,
            tenant_quota: take_num(&mut args, "--tenant-quota", sched_defaults.tenant_quota)?,
            max_active: take_num(&mut args, "--max-active", sched_defaults.max_active)?,
            retry_after_ms: take_num(&mut args, "--retry-after-ms", sched_defaults.retry_after_ms)?,
            max_attempts: take_num(&mut args, "--max-attempts", sched_defaults.max_attempts)?,
            retry_backoff_ms: take_num(
                &mut args,
                "--retry-backoff-ms",
                sched_defaults.retry_backoff_ms,
            )?,
            io_fault_seed: take_seed(&mut args, "--io-fault-seed")?,
        },
        idle_timeout_ms: take_num(&mut args, "--idle-timeout-ms", defaults.idle_timeout_ms)?,
        read_timeout_ms: take_num(&mut args, "--read-timeout-ms", defaults.read_timeout_ms)?,
        max_conns: take_num(&mut args, "--max-conns", defaults.max_conns)?,
        net_fault_seed: take_seed(&mut args, "--net-fault-seed")?,
    };
    if let Some(stray) = args.first() {
        return Err(format!("unknown argument `{stray}`"));
    }
    let server = Server::bind(cfg).map_err(|e| e.to_string())?;
    if let Some(addr) = server.local_addr() {
        // The soak harness parses this line to find the picked port.
        println!("listening on {addr}");
        std::io::stdout().flush().map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| e.to_string())?;
    eprintln!("drained; all unsettled jobs remain spooled");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("missing subcommand");
    }
    let sub = args.remove(0);
    let result = match sub.as_str() {
        "run" => cmd_run(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage(&format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            if msg.contains("needs") || msg.contains("wants") || msg.contains("unknown argument") {
                usage(&msg)
            } else {
                eprintln!("lb-serve: {msg}");
                ExitCode::FAILURE
            }
        }
    }
}
