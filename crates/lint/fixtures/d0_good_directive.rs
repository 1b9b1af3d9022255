//! Directive fixture: well-formed directives — standalone-line form,
//! trailing form, and a multi-rule allow — all with justifications.

pub fn save() -> Result<(), String> {
    Ok(())
}

pub fn standalone() {
    // lb-lint: allow(swallowed-result) -- best effort: a failed save is retried later
    let _ = save();
}

pub fn trailing() {
    let _ = save(); // lb-lint: allow(swallowed-result) -- best effort: a failed save is retried later
}

pub fn multi() {
    // lb-lint: allow(swallowed-result, unbounded-growth) -- best effort: a failed save is retried later
    let _ = save();
}
