//! `lb-chaos` — deterministic fault injection and adversarial-input
//! fuzzing for the lowerbounds workspace.
//!
//! The paper's lower-bound arguments are only as good as the solvers the
//! machine-checked reductions run on: a solver that crashes or silently
//! mis-answers on a degenerate instance invalidates every claim built on
//! top of it. This crate enforces the two guarantees the rest of the
//! workspace promises:
//!
//! * **Panic-free public API**: every solver and parser entry point, fed
//!   hostile-but-legal instances or malformed text, returns a value
//!   (`Outcome`, `JoinError`, `ParseError`) — never panics.
//! * **Soundness under faults**: with an [`lb_engine::FaultPlan`]
//!   injecting forced exhaustion, simulated deadline expiry, trie-advance
//!   failures, or poisoned intermediate sizes, a solver may lose
//!   *completeness* (return `Exhausted`) but never *soundness* (a
//!   completed `Sat`/`Unsat` verdict always agrees with the brute-force
//!   oracle, and every `Sat` witness checks out).
//!
//! The pieces:
//!
//! * [`rng`] — SplitMix64; everything is a pure function of a seed;
//! * [`hostile`] — hostile-instance generators per input family (CNF,
//!   CSP, joins, graphs) plus malformed-text generators for the parsers;
//! * [`differential`] — the per-family checks against brute-force oracles
//!   under seeded fault plans, plus the checkpoint/resume differential
//!   (`lb-chaos resume`): sliced, adversarially interrupted runs must
//!   match the uninterrupted run in verdict and summed stats;
//! * [`shrink`] — greedy shrinking so every failure prints minimal;
//! * [`harness`] — the N-seeds-per-family driver and the fixed smoke
//!   configuration that CI runs (`cargo run -p lb-chaos -- smoke`);
//! * [`storm`] — the network-level chaos soak against a live `lb-serve`
//!   process (`lb-chaos serve`): seeded storms of hostile connections,
//!   injected spool and socket faults, and SIGKILL/restart cycles, with
//!   the verdict-or-quarantine invariant checked per job.
//!
//! Replay: a failure report's seed is its reproducer —
//! `cargo run -p lb-chaos -- --family sat --seed N` reruns exactly the
//! same instance, fault plan, and budget.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unreachable
    )
)]

pub mod differential;
pub mod harness;
pub mod hostile;
pub mod rng;
pub mod shrink;
pub mod storm;

pub use differential::{check, check_resume, Failure, Family};
pub use harness::{resume_smoke, run_family, run_resume_family, smoke, FamilyReport};
