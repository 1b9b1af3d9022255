//! Workspace façade crate.
//!
//! This package exists so that the repository root can carry the runnable
//! `examples/` and cross-crate integration `tests/` required by the project
//! layout. All functionality lives in the member crates; see the
//! [`lowerbounds`] umbrella crate for the public API.

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

pub use lowerbounds as lb;
