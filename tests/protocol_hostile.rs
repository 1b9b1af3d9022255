//! The hostile-bytes corpus for the wire protocol, pinned as a tier-1
//! test: every `*.req` fixture under `crates/serve/fixtures/protocol/` must parse
//! without panicking — files named `valid-*` to a complete [`Request`],
//! everything else to a positioned, typed [`ParseError`] whose rendering
//! carries the `line:col:` position a client can act on.

use lb_serve::job::Instance;
use lb_serve::protocol::{
    parse_command, parse_request_bytes, Reject, Request, MAX_LINE_BYTES, MAX_PAYLOAD_LINES,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/serve/fixtures/protocol")
}

#[test]
fn every_corpus_file_parses_to_a_typed_outcome() {
    let mut seen = 0usize;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("fixture corpus directory must exist")
        .map(|e| e.expect("readable fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "req"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 32,
        "corpus shrank to {} files; hostile coverage regressed",
        entries.len()
    );
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let bytes = std::fs::read(&path).expect("readable fixture");
        let outcome = parse_request_bytes(&bytes);
        seen += 1;
        if name.starts_with("valid-") {
            assert!(outcome.is_ok(), "{name}: expected Ok, got {outcome:?}");
            continue;
        }
        let err = match outcome {
            Err(e) => e,
            Ok(req) => panic!("{name}: hostile fixture parsed as {req:?}"),
        };
        // Positioned: line and column are both 1-based and present in the
        // rendering (the `ERR parse <line>:<col>: <msg>` client contract).
        assert!(err.line >= 1, "{name}: unpositioned line in {err}");
        assert!(err.col >= 1, "{name}: unpositioned col in {err}");
        let rendered = Reject::Parse(err).to_line();
        assert!(
            rendered.starts_with("ERR parse "),
            "{name}: rendered as `{rendered}`"
        );
    }
    assert!(seen >= 32, "corpus loop ran dry");
}

#[test]
fn positions_point_at_the_offending_token() {
    let read = |name: &str| std::fs::read(corpus_dir().join(name)).expect("fixture");

    // Command-line errors are on line 1 at the bad token's column.
    let e = parse_request_bytes(&read("submit-bad-family.req")).expect_err("bad family");
    assert_eq!((e.line, e.col), (1, 13), "family token column: {e}");

    // A payload error is reported in stream coordinates: payload line i is
    // stream line 1 + i.
    let e = parse_request_bytes(&read("submit-bad-dimacs.req")).expect_err("bad literal");
    assert_eq!(e.line, 3, "second payload line is stream line 3: {e}");

    // Truncation is an EOF-positioned count mismatch.
    let e = parse_request_bytes(&read("submit-truncated-payload.req")).expect_err("truncated");
    assert_eq!(e.line, 4, "truncation points past the last line: {e}");
    assert!(
        e.to_string().contains("declared 3"),
        "count mismatch names the declared count: {e}"
    );
}

#[test]
fn oversized_lines_are_rejected_at_the_cap() {
    let mut raw = b"SUBMIT acme sat 1 ".to_vec();
    raw.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 10));
    let e = parse_command(&raw).expect_err("oversized command line");
    assert_eq!((e.line, e.col), (1, MAX_LINE_BYTES + 1), "cap column: {e}");

    let declared_too_many = format!("SUBMIT acme sat {}\n", MAX_PAYLOAD_LINES + 1);
    let e = parse_request_bytes(declared_too_many.as_bytes()).expect_err("payload cap");
    assert!(e.to_string().contains("payload line count"), "{e}");
}

#[test]
fn valid_submissions_round_trip_through_the_parser() {
    let bytes = std::fs::read(corpus_dir().join("valid-submit-clique.req")).expect("fixture");
    match parse_request_bytes(&bytes).expect("valid fixture parses") {
        Request::Submit(submission) => {
            let spec = submission.spec();
            assert_eq!(spec.tenant, "acme");
            assert_eq!(spec.k, 3);
            assert_eq!(spec.budget, Some(500));
            assert!(matches!(submission.instance(), Instance::Clique(_, 3)));
        }
        other => panic!("expected Submit, got {other:?}"),
    }
}
