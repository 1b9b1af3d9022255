//! R5 fixture: `std::process::exit` from library code, which the workspace
//! `clippy::exit = "deny"` lint must reject.

pub fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
