//! Violation reporting: text and JSON rendering, exit codes.

use crate::rules::{AllowCounts, Rule, Violation};

/// The process exit code for a set of violations: 1 when any rule fired
/// (details are in the rendered output), 0 when clean. Usage/IO errors exit
/// 2 (see the CLI).
pub fn exit_code(violations: &[Violation]) -> i32 {
    i32::from(!violations.is_empty())
}

/// Renders violations as human-readable text, one block per violation.
pub fn render_text(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "lb-lint: no violations\n".to_string();
    }
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            v.path, v.line, v.rule, v.message, v.snippet
        ));
    }
    let files = count_files(violations);
    out.push_str(&format!(
        "lb-lint: {} violation{} ({files} file{})\n",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" },
        if files == 1 { "" } else { "s" },
    ));
    out
}

/// Renders the report as a deterministic JSON object (hand-rolled: the
/// linter is zero-dependency by design). Violations appear in their sorted
/// (path, line, rule) order, so byte-identical inputs give byte-identical
/// reports. `allows` counts the `lb-lint: allow` directives, in total and
/// per rule name.
pub fn render_json(violations: &[Violation], files_checked: usize, allows: &AllowCounts) -> String {
    let by_rule: Vec<String> = allows
        .by_rule
        .iter()
        .map(|(rule, n)| format!("{}: {n}", json_string(rule.name())))
        .collect();
    let mut out = format!(
        "{{\n  \"version\": 2,\n  \"files_checked\": {files_checked},\n  \
         \"allows\": {{\"total\": {}, \"by_rule\": {{{}}}}},\n  \"violations\": [",
        allows.directives,
        by_rule.join(", ")
    );
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"code\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
            json_string(v.rule.name()),
            json_string(v.rule.code()),
            json_string(&v.path),
            v.line,
            json_string(&v.message),
            json_string(&v.snippet),
        ));
    }
    out.push_str(if violations.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

fn count_files(violations: &[Violation]) -> usize {
    let mut paths: Vec<&str> = violations.iter().map(|v| v.path.as_str()).collect();
    paths.sort_unstable();
    paths.dedup();
    paths.len()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Summary lines for a clean run: every enforced rule, then the allow
/// directives in force, in total and per rule.
pub fn clean_summary(files_checked: usize, allows: &AllowCounts) -> String {
    let rules: Vec<String> = Rule::ALL.iter().map(|r| r.to_string()).collect();
    let by_rule: Vec<String> = allows
        .by_rule
        .iter()
        .map(|(rule, n)| format!("{rule} {n}"))
        .collect();
    format!(
        "lb-lint: {files_checked} files clean under {}\nlb-lint: {} allow directives: {}\n",
        rules.join(", "),
        allows.directives,
        by_rule.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{count_allows, lint_source};

    fn sample() -> Vec<Violation> {
        lint_source(
            "crates/x/src/foo.rs",
            "pub fn f() {} // lb-lint: allow(swallowed-result)\n",
        )
    }

    #[test]
    fn exit_codes() {
        let v = sample();
        assert_eq!(exit_code(&v), 1);
        assert_eq!(exit_code(&[]), 0);
    }

    #[test]
    fn text_mentions_path_line_rule() {
        let text = render_text(&sample());
        assert!(text.contains("crates/x/src/foo.rs:1"));
        assert!(text.contains("D0"));
        assert!(text.contains("bad-directive"));
        assert!(text.contains("1 violation"));
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let json = render_json(&sample(), 3, &AllowCounts::default());
        assert!(json.starts_with('{'));
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"files_checked\": 3"));
        assert!(json.contains("\"allows\": {\"total\": 0, \"by_rule\": {}}"));
        assert!(json.contains("\"rule\": \"bad-directive\""));
        assert!(json.contains("\"line\": 1"));
        let empty = render_json(&[], 0, &AllowCounts::default());
        assert!(empty.contains("\"violations\": []"));
    }

    #[test]
    fn allow_counts_are_reported() {
        let allows = count_allows(
            "fn f() { loop {} } // lb-lint: allow(unbudgeted-loop, unbounded-growth) -- checked\n",
        );
        let json = render_json(&[], 1, &allows);
        assert!(
            json.contains("\"allows\": {\"total\": 1, \"by_rule\": {\"unbudgeted-loop\": 1, \"unbounded-growth\": 1}}"),
            "{json}"
        );
        let summary = clean_summary(1, &allows);
        assert!(
            summary
                .contains("1 allow directives: R8 (unbudgeted-loop) 1, R11 (unbounded-growth) 1"),
            "{summary}"
        );
    }

    #[test]
    fn json_is_deterministic() {
        let allows = AllowCounts::default();
        assert_eq!(
            render_json(&sample(), 9, &allows),
            render_json(&sample(), 9, &allows)
        );
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
