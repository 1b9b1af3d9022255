//! Integration tests pinning the effect layer's extraction on the hostile
//! shapes real serve code contains: lock acquisitions inside closures,
//! shadowed and early-dropped guards, unbound guard temporaries in `if`
//! conditions, nested `fn` carve-outs, blocking I/O behind trait calls, and
//! the raw-source ack scan. The in-crate fixtures cover the rule verdicts;
//! these pin the per-function summaries end to end through the public API
//! (`lexer::scan` → `items::parse` → `effects::analyze`), plus the
//! determinism of the `lb-lint effects` dump.

use lb_lint::effects::{self, FileEffects};
use lb_lint::{items, lexer, semantic, Config, Rule};

fn effects_of(src: &str) -> FileEffects {
    let scanned = lexer::scan(src);
    let parsed = items::parse(&scanned);
    effects::analyze(&scanned, src, &parsed, &Config::default())
}

/// A lock acquired inside a closure belongs to the enclosing function's
/// summary — closures run on the enclosing thread, so the guard is held
/// there.
#[test]
fn locks_inside_closures_attribute_to_the_enclosing_fn() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let tick = || {
        let g = lock_recover(m);
        drop(g);
    };
    tick();
}
";
    let fe = effects_of(src);
    assert_eq!(fe.fns.len(), 1, "a closure is not a separate fn item");
    assert_eq!(fe.fns[0].locks.len(), 1);
    assert_eq!(fe.fns[0].locks[0].name, "m");
}

/// A nested `fn` item owns its own acquisitions; nothing leaks outward.
#[test]
fn nested_fn_items_are_summarized_separately() {
    let src = "\
fn outer(m: &std::sync::Mutex<u32>) {
    fn inner(m: &std::sync::Mutex<u32>) {
        let g = lock_recover(m);
        drop(g);
    }
    inner(m);
}
";
    let fe = effects_of(src);
    let outer = fe.fns.iter().find(|f| f.name == "outer").unwrap();
    let inner = fe.fns.iter().find(|f| f.name == "inner").unwrap();
    assert!(
        outer.locks.is_empty(),
        "inner's lock must not leak: {outer:?}"
    );
    assert_eq!(inner.locks.len(), 1);
}

/// A same-depth `drop(guard)` ends the held region early; a `drop` inside
/// a nested arm does not (the guard may still be live on other paths).
#[test]
fn same_depth_drop_ends_the_region_and_nested_drop_does_not() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>) {
    let g = lock_recover(m);
    drop(g);
    after();
}

fn h(m: &std::sync::Mutex<u32>) {
    let g = lock_recover(m);
    if broken() {
        drop(g);
        return;
    }
    after();
}
";
    let fe = effects_of(src);
    let f = fe.fns.iter().find(|x| x.name == "f").unwrap();
    assert_eq!(f.locks[0].end_line, 3, "drop on line 3 ends f's region");
    let h = fe.fns.iter().find(|x| x.name == "h").unwrap();
    assert_eq!(
        h.locks[0].end_line, 14,
        "the drop in the if-arm must not end h's region — it runs to the fn close"
    );
}

/// Shadowing a guard binding never shortens the original region: the
/// conservative region runs to the first same-depth `drop` of the name or
/// the block end.
#[test]
fn shadowed_guards_keep_the_conservative_region() {
    let src = "\
fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g = lock_recover(a);
    let g = lock_recover(b);
    drop(g);
}
";
    let fe = effects_of(src);
    let ends: Vec<usize> = fe.fns[0].locks.iter().map(|l| l.end_line).collect();
    assert_eq!(
        ends,
        vec![4, 4],
        "both regions run to the drop; rebinding `g` does not release lock `a`"
    );
}

/// A guard that is never bound (`if lock_recover(&m).dead {`) is a
/// temporary: it drops at the end of its statement, before the branch
/// block runs.
#[test]
fn unbound_guard_temporaries_end_at_the_statement() {
    let src = "\
fn f(m: &std::sync::Mutex<Flag>) -> bool {
    if lock_recover(m).dead {
        return true;
    }
    false
}
";
    let fe = effects_of(src);
    let lock = &fe.fns[0].locks[0];
    assert!(!lock.bound);
    assert_eq!(
        lock.end_line, 2,
        "the temporary dies at the if-condition's end, not the block's"
    );
}

/// Blocking I/O is recognized token-level, so a call through a generic
/// trait bound (`S: SessionStream`) counts like a concrete one.
#[test]
fn blocking_io_behind_trait_calls_is_counted() {
    let src = "\
fn f<S: std::io::Read>(s: &mut S) {
    let mut b = [0u8; 4];
    s.read(&mut b);
}
";
    let fe = effects_of(src);
    assert_eq!(fe.fns[0].blocking.len(), 1);
    assert_eq!(fe.fns[0].blocking[0].what, "read");
}

/// R16 end to end through a trait: the blocking call sits behind a generic
/// bound two frames below the accept root, with no timeout on the chain.
#[test]
fn unguarded_trait_io_reachable_from_the_accept_root_fires_r16() {
    let src = "\
pub trait Wire {
    fn read_line(&mut self) -> usize;
}

pub fn accept_loop<W: Wire>(w: &mut W) {
    pump(w);
}

pub fn pump<W: Wire>(w: &mut W) {
    w.read_line();
}
";
    let config = Config {
        effect_paths: vec!["crates/s/src/".into()],
        socket_paths: vec!["crates/s/src/net.rs".into()],
        accept_roots: vec![("crates/s/src/net.rs".into(), "accept_loop".into())],
        ..Config::default()
    };
    let files = vec![("crates/s/src/net.rs".to_string(), src.to_string())];
    let (v, _) = semantic::check(&files, &config);
    let r16: Vec<_> = v
        .iter()
        .filter(|v| v.rule == Rule::UnboundedBlocking)
        .collect();
    assert_eq!(r16.len(), 1, "the trait read must fire once: {v:?}");
    assert_eq!(r16[0].line, 10);
    assert!(
        r16[0].message.contains("accept_loop"),
        "chain must start at the root: {}",
        r16[0].message
    );
}

/// Ack detection runs on the raw source (the lexer masks string contents),
/// and excludes parse-shaped uses like `strip_prefix("OK ")`.
#[test]
fn ack_scan_sees_raw_strings_and_skips_parsers() {
    let src = "\
fn emit(n: u32) -> String {
    format!(\"OK {n}\")
}

fn is_ack(line: &str) -> bool {
    line.starts_with(\"OK \")
}

fn body(line: &str) -> Option<&str> {
    line.strip_prefix(\"OK \")
}
";
    let fe = effects_of(src);
    let emit = fe.fns.iter().find(|f| f.name == "emit").unwrap();
    assert_eq!(emit.acks, vec![2]);
    for parser in ["is_ack", "body"] {
        let f = fe.fns.iter().find(|f| f.name == parser).unwrap();
        assert!(
            f.acks.is_empty(),
            "`{parser}` reads the protocol, it does not acknowledge: {f:?}"
        );
    }
}

/// The `lb-lint effects` dump is deterministic and keyed by file path:
/// permuting the input file order changes nothing.
#[test]
fn effects_dump_is_deterministic_under_file_reordering() {
    let a = (
        "crates/serve/src/a.rs".to_string(),
        "pub fn f(m: &std::sync::Mutex<u32>) { let g = lock_recover(m); drop(g); }\n".to_string(),
    );
    let b = (
        "crates/serve/src/b.rs".to_string(),
        "pub fn save_all(s: &Spool) { s.save_record(1); }\n".to_string(),
    );
    let config = Config::default();
    let d1 = semantic::effects_dump(&[a.clone(), b.clone()], &config);
    let d2 = semantic::effects_dump(&[b, a], &config);
    assert_eq!(d1, d2, "dump must not depend on input order");
    assert!(d1.contains("fn crates/serve/src/a.rs:1 f"), "{d1}");
    assert!(d1.contains("lock m at 1..1"), "{d1}");
    assert!(
        d1.contains("crate serve lock_sites=1 durability_sites=1"),
        "per-crate footer missing: {d1}"
    );
}
