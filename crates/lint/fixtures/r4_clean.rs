//! R4 fixture: callers that propagate, inspect, or explicitly default the
//! entry point's `Result`.

#[must_use = "dropping the result discards the answer or the failure"]
pub fn solve(input: &str) -> Result<u64, String> {
    input.parse().map_err(|_| "bad input".to_string())
}

pub fn propagating_caller(input: &str) -> Result<u64, String> {
    let x = solve(input)?;
    Ok(x + 1)
}

pub fn defaulting_caller(input: &str) -> u64 {
    solve(input).unwrap_or(0)
}

pub fn inspecting_caller(input: &str) -> bool {
    match solve(input) {
        Ok(_) => true,
        Err(e) => e.is_empty(),
    }
}
