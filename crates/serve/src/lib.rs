//! `lb-serve`: a crash-safe multi-tenant solver service.
//!
//! The crate turns the workspace's resumable solvers (SAT, CSP, worst-case
//! optimal join, triangle counting, clique search) into a long-running
//! server with:
//!
//! - **preemptive fair scheduling** — every job runs in fixed budget
//!   slices through the engine's checkpoint layer; an exhausted slice
//!   suspends the job to an LBCK blob and re-queues it behind other
//!   tenants ([`scheduler`]);
//! - **typed admission control** — per-tenant quotas and a global cap
//!   shed load with client-visible retry-after hints instead of hanging
//!   ([`protocol::Reject`]);
//! - **crash safety** — all job state persists atomically in a spool
//!   directory, so a `kill -9` loses no acknowledged job and duplicates
//!   no verdict ([`spool`]);
//! - **a survival ladder** — jobs that repeatedly fail (corrupt
//!   checkpoints, injected I/O faults, budget livelock) climb an
//!   attempt/backoff ladder and land in a durable quarantine with
//!   evidence instead of retrying forever ([`scheduler`], [`spool`]);
//! - **deterministic network chaos** — seeded connection-level fault
//!   injection (torn writes, disconnects, slow-loris trickle, read
//!   timeouts) for soaking the server through hostile weather
//!   ([`netfault`]);
//! - **a line protocol** with the same positioned typed-error discipline
//!   as the DIMACS parser ([`protocol`]).
//!
//! The `lb-serve` binary runs the server (`run`); `lbtool serve` /
//! `lbtool submit` wrap the same entry points. The soak harness's job mix
//! lives in [`jobmix`].

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

pub mod client;
pub mod formats;
pub mod job;
pub mod jobmix;
pub mod netfault;
pub mod protocol;
pub mod runner;
pub mod scheduler;
pub mod server;
pub mod spool;
pub mod sync;

pub use job::{Instance, JobFamily, JobRecord, JobSpec, JobStatus, Submission, Verdict};
pub use protocol::{Command, Reject, Request, StatusReport};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig};
pub use spool::{Spool, SpoolError};
