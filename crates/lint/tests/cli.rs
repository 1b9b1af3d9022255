//! The `lb-lint` binary's argument handling.

use std::process::Command;

#[test]
fn retired_write_baseline_flag_is_a_usage_error() {
    // `--write-baseline` re-pinned the retired R10 baseline; it is now an
    // unknown argument: exit 2 with the usage line, and nothing written.
    let out = Command::new(env!("CARGO_BIN_EXE_lb-lint"))
        .arg("--write-baseline")
        .output()
        .expect("run lb-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument") && stderr.contains("usage: lb-lint"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
}
