//! R4 fixture: callers that drop a fallible entry point's `Result`, which
//! the workspace `unused_must_use = "deny"` lint must reject.

pub fn solve(input: &str) -> Result<u64, String> {
    input.parse().map_err(|_| "bad input".to_string())
}

pub fn caller(input: &str) {
    solve(input);
}

pub fn chained_caller(input: &str) {
    solve(input).map(|x| x + 1);
}
