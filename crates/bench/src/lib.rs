//! Experiment workloads behind the `experiments` binary (which prints the
//! EXPERIMENTS.md tables).
//!
//! Each `eN` module owns the workload generators and sweep logic for one
//! experiment of DESIGN.md's index; the binary formats the results.

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

pub mod workloads;

pub use workloads::*;
