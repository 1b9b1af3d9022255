//! A lightweight lexical scanner for Rust source.
//!
//! Not a parser: it produces, per line, (a) the code with comment text and
//! string/char-literal *contents* blanked to spaces (so rule matching never
//! fires inside literals, and columns stay aligned), (b) the comment text
//! (where `lb-lint: allow` directives live), and (c) whether the line sits
//! inside a `#[cfg(test)]` item. Handles line and nested block comments,
//! string/raw-string/byte-string/char literals, and lifetimes.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Source code with comments and literal contents replaced by spaces.
    pub code: String,
    /// Concatenated comment text appearing on the line.
    pub comment: String,
    /// True if the line is inside an item annotated `#[cfg(test)]`.
    pub in_test: bool,
}

/// A whole scanned file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// The scanned lines, in order (line numbers are index + 1).
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Scans `source` into masked lines.
pub fn scan(source: &str) -> ScannedFile {
    let mut lines: Vec<Line> = Vec::new();
    let mut state = State::Code;

    for raw in source.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut i = 0;

        // A line comment never carries across a newline.
        if state == State::LineComment {
            state = State::Code;
        }

        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        comment.push_str(&chars[i + 2..].iter().collect::<String>());
                        code.extend(std::iter::repeat_n(' ', chars.len() - i));
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string start: r", r#", br", b"…
                        if let Some((hashes, consumed)) = raw_string_open(&chars[i..]) {
                            state = if hashes == u32::MAX {
                                State::Str
                            } else {
                                State::RawStr(hashes)
                            };
                            code.push('"');
                            for _ in 1..consumed {
                                code.push(' ');
                            }
                            i += consumed;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        if is_lifetime(&chars[i..]) {
                            code.push('\'');
                            i += 1;
                        } else {
                            state = State::Char;
                            code.push('\'');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    // Defensive: line comments consume the rest of the line
                    // in the Code arm, so this is never entered.
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        code.push_str("  ");
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        code.push_str("  ");
                        i += 2;
                    } else {
                        comment.push(c);
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Code;
                        code.push('"');
                        i += 1;
                    }
                    '{' if next == Some('{') => {
                        // Escaped literal brace, not a capture.
                        code.push_str("  ");
                        i += 2;
                    }
                    '{' => {
                        if let Some(len) = capture_ident(&chars[i..]) {
                            // Preserve the inline format capture's identifier
                            // (`{e}`, `{e:?}`) so dataflow analysis sees the
                            // read; braces and the format spec stay masked.
                            code.push(' ');
                            for k in 1..=len {
                                code.push(chars[i + k]);
                            }
                            i += 1 + len;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                        state = State::Code;
                        code.push('"');
                        for _ in 0..hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '\'' => {
                        state = State::Code;
                        code.push('\'');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
            }
        }

        // Multi-line strings/comments: the state simply carries over.
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }

    let mut file = ScannedFile { lines };
    mark_test_regions(&mut file);
    file
}

/// Detects a Rust 2021 inline format capture at `chars[0] == '{'`: an
/// identifier (not a positional index) followed by `}` or a `:` format
/// spec. Returns the identifier's length. Over-approximates — a brace
/// template in a non-format string also matches — which only ever makes
/// the swallowed-result rule *see* more reads, never fewer.
fn capture_ident(chars: &[char]) -> Option<usize> {
    let mut j = 1;
    match chars.get(j) {
        Some(c) if c.is_ascii_alphabetic() || *c == '_' => j += 1,
        _ => return None,
    }
    while chars
        .get(j)
        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
    {
        j += 1;
    }
    match chars.get(j) {
        Some('}') | Some(':') => Some(j - 1),
        _ => None,
    }
}

/// Detects `r"`, `r#"`, `b"`, `br#"`… at the start of `chars`. Returns the
/// number of hashes and the consumed char count; `u32::MAX` hashes encodes a
/// plain byte string `b"` (which behaves like an ordinary string).
fn raw_string_open(chars: &[char]) -> Option<(u32, usize)> {
    let mut i = 1;
    if chars[0] == 'b' {
        match chars.get(1) {
            Some('"') => return Some((u32::MAX, 2)),
            Some('r') => i = 2,
            _ => return None,
        }
    }
    let mut hashes = 0u32;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    // `r"`, `r#…#"`, `br#…#"`: the char before the quote must be `r` or `#`.
    if chars.get(i) == Some(&'"') && (chars[i - 1] == '#' || chars[i - 1] == 'r') {
        return Some((hashes, i + 1));
    }
    None
}

/// Whether `chars[1..]` closes a raw string with `hashes` hashes after the
/// quote already seen at `chars[0]`.
fn closes_raw(after_quote: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| after_quote.get(k) == Some(&'#'))
}

/// Distinguishes lifetimes (`'a`, `'static`) from char literals (`'x'`).
fn is_lifetime(chars: &[char]) -> bool {
    // A lifetime is `'` + ident-start + ident-chars NOT followed by `'`.
    match chars.get(1) {
        Some(c) if c.is_alphabetic() || *c == '_' => {
            let mut j = 2;
            while chars
                .get(j)
                .is_some_and(|c| c.is_alphanumeric() || *c == '_')
            {
                j += 1;
            }
            chars.get(j) != Some(&'\'')
        }
        _ => false,
    }
}

/// Marks lines inside `#[cfg(test)]` items (modules or functions) by brace
/// matching on the masked code.
fn mark_test_regions(file: &mut ScannedFile) {
    let n = file.lines.len();
    let mut i = 0;
    while i < n {
        if file.lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the annotated item (skipping further
            // attributes), then its matching close.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            'outer: while j < n {
                for ch in file.lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && j > i => {
                            // `#[cfg(test)] mod tests;` — out-of-line module;
                            // only the declaration line itself is test code.
                            break 'outer;
                        }
                        _ => {}
                    }
                    if opened && depth == 0 {
                        break 'outer;
                    }
                }
                j += 1;
            }
            let end = j.min(n - 1);
            for line in &mut file.lines[i..=end] {
                line.in_test = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_masked() {
        let f = scan(r#"let s = "unwrap() inside"; s.len();"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("s.len()"));
        // Columns preserved.
        assert_eq!(
            f.lines[0].code.len(),
            r#"let s = "unwrap() inside"; s.len();"#.len()
        );
    }

    #[test]
    fn inline_format_captures_surface_their_identifier() {
        let f = scan(r#"eprintln!("warn: {e} at {site:?} {} {{lit}} {0}", x);"#);
        let code = &f.lines[0].code;
        assert!(code.contains(" e "), "capture identifier preserved: {code}");
        assert!(code.contains("site"), "spec'd capture preserved: {code}");
        assert!(!code.contains("warn"), "plain text still masked: {code}");
        assert!(!code.contains("lit"), "escaped braces are literal: {code}");
        assert!(!code.contains('{'), "braces stay masked: {code}");
        assert!(!code.contains('0'), "positional args are not reads: {code}");
        // Columns preserved.
        assert_eq!(
            code.len(),
            r#"eprintln!("warn: {e} at {site:?} {} {{lit}} {0}", x);"#.len()
        );
    }

    #[test]
    fn raw_strings_are_masked() {
        let f = scan(r##"let s = r#"panic!("x")"# ; f();"##);
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("f();"));
    }

    #[test]
    fn escaped_quote_in_string() {
        let f = scan(r#"let s = "a\"b.unwrap()"; g();"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("g();"));
    }

    #[test]
    fn comments_are_captured_and_masked() {
        let f = scan("x(); // lb-lint: allow(unbudgeted-loop) -- reason\ny();");
        assert!(f.lines[0].code.contains("x();"));
        assert!(!f.lines[0].code.contains("lb-lint"));
        assert!(f.lines[0]
            .comment
            .contains("lb-lint: allow(unbudgeted-loop) -- reason"));
        assert!(f.lines[1].code.contains("y();"));
    }

    #[test]
    fn nested_block_comments() {
        let f = scan("a(); /* outer /* inner unwrap() */ still comment */ b();");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("a();"));
        assert!(f.lines[0].code.contains("b();"));
    }

    #[test]
    fn multiline_block_comment() {
        let f = scan("a();\n/* unwrap()\n   panic! */\nb();");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(!f.lines[2].code.contains("panic"));
        assert!(f.lines[3].code.contains("b();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = scan("let c = '\\''; fn f<'a>(x: &'a str) {} let q = '\"';");
        assert!(f.lines[0].code.contains("<'a>"));
        assert!(f.lines[0].code.contains("&'a str"));
        // The quote char literal must not open a string.
        assert!(f.lines[0].code.contains("let q ="));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn after() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_single_fn() {
        let src = "#[cfg(test)]\nfn helper() {\n    a.unwrap();\n}\nfn real() {}\n";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn out_of_line_test_module() {
        let src = "#[cfg(test)]\nmod tests;\nfn real() { x.unwrap(); }\n";
        let f = scan(src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn multiline_string_carries_state() {
        let src = "let s = \"line one\nline two unwrap()\nend\"; f();";
        let f = scan(src);
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("f();"));
    }
}
