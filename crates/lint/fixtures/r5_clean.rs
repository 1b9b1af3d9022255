//! R5 fixture: a binary's `main` deciding its own exit code, which
//! `clippy::exit` permits (the gate builds a fixture with `fn main` as a
//! binary crate).

use std::process;

fn main() {
    if std::env::args().any(|a| a == "--fail") {
        process::exit(1);
    }
}
