//! Directive fixture: allow directives missing the mandatory `-- reason`
//! justification, or naming an unknown rule. Both are themselves violations,
//! and a reasonless allow does NOT suppress the underlying finding.

pub fn save() -> Result<(), String> {
    Ok(())
}

pub fn flush() {
    // lb-lint: allow(swallowed-result)
    let _ = save();
}

pub fn retry() {
    // lb-lint: allow(not-a-rule) -- the rule name is wrong
    let _ = save();
}
