//! Properties of the flat `Table` layout, checked against the obvious
//! `Vec<Vec<Value>>` oracle: sort the rows, drop duplicates. Arities 0–6
//! cover the nullary case (zero or one empty row), the fixed-width sorts
//! (1–4) and the index sort for wider rows; a domain of at most four values
//! makes duplicate rows common.
//!
//! The database text format loads into the same tables: `parse_db` reads a
//! plain row with one byte scan and every other line with the token path,
//! and both must give the rows `Table::from_rows` gives, with the token
//! path's error messages unchanged.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lb_serve::formats::parse_db;
use lowerbounds::engine::parse::ParseErrorKind;
use lowerbounds::join::{Table, Value};

/// `n` random rows of width `arity` over `[0, domain)`, in generation order.
fn random_rows(seed: u64, arity: usize, n: usize, domain: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..domain)).collect())
        .collect()
}

/// The oracle: sorted, deduplicated rows.
fn oracle(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = rows.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    t.rows().map(<[Value]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `from_rows` and unsorted `push` + `normalize` both equal the oracle,
    /// row by row and as one row-major buffer.
    #[test]
    fn flat_table_matches_the_vec_of_vec_oracle(
        seed in 0u64..1_000_000,
        arity in 0usize..7,
        n in 0usize..40,
        domain in 1u64..5,
    ) {
        let rows = random_rows(seed, arity, n, domain);
        let want = oracle(&rows);

        let mut pushed = Table::new(arity);
        for r in &rows {
            pushed.push(r);
        }
        // Before normalizing: every push is kept, in push order.
        prop_assert_eq!(pushed.len(), rows.len());
        prop_assert_eq!(rows_of(&pushed), rows.clone());
        pushed.normalize();

        let built = Table::from_rows(arity, rows.clone());
        for t in [&pushed, &built] {
            prop_assert_eq!(t.arity(), arity);
            prop_assert_eq!(t.len(), want.len());
            prop_assert_eq!(t.is_empty(), want.is_empty());
            prop_assert_eq!(t.rows().len(), want.len());
            prop_assert_eq!(rows_of(t), want.clone());
            prop_assert_eq!(t.flat().to_vec(), want.concat());
        }
        prop_assert_eq!(&pushed, &built);

        // Normalizing again changes nothing.
        let mut again = built.clone();
        again.normalize();
        prop_assert_eq!(&again, &built);
    }

    /// `contains` agrees with a linear scan of the oracle, for present rows,
    /// random probes and probes of the wrong width.
    #[test]
    fn contains_matches_the_oracle(
        seed in 0u64..1_000_000,
        arity in 0usize..7,
        n in 0usize..40,
        domain in 1u64..5,
    ) {
        let rows = random_rows(seed, arity, n, domain);
        let want = oracle(&rows);
        let t = Table::from_rows(arity, rows);
        for r in &want {
            prop_assert!(t.contains(r), "missing row {:?}", r);
        }
        for probe in random_rows(seed ^ 0x9e37, arity, 20, domain + 1) {
            prop_assert_eq!(t.contains(&probe), want.contains(&probe), "probe {:?}", probe);
        }
        let wide = vec![0; arity + 1];
        prop_assert!(!t.contains(&wide));
        if arity > 0 {
            prop_assert!(!t.contains(&wide[..arity - 1]));
        }
    }
}

/// Writes `v` the way a hand-edited file might: sometimes with a `+` sign,
/// sometimes with leading zeros.
fn spell(rng: &mut StdRng, v: Value) -> String {
    let sign = if rng.gen_range(0..4u32) == 0 { "+" } else { "" };
    let zeros = if rng.gen_range(0..3u32) == 0 {
        "0".repeat(rng.gen_range(1..3usize))
    } else {
        String::new()
    };
    format!("{sign}{zeros}{v}")
}

/// A separator run: mostly the space and tab the byte scan reads, sometimes
/// whitespace only the token path reads (U+3000, U+00A0, form feed).
fn separator(rng: &mut StdRng) -> &'static str {
    const SEPS: [&str; 8] = [" ", " ", "\t", "  ", " \t", "\u{3000}", "\u{a0}", "\x0c"];
    SEPS[rng.gen_range(0..SEPS.len())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Rows written with mixed separators, `+` signs and leading zeros load
    /// into exactly the table `Table::from_rows` builds from their values.
    #[test]
    fn parsed_rows_match_from_rows(
        seed in 0u64..1_000_000,
        arity in 1usize..5,
        n in 0usize..30,
        domain in 1u64..6,
    ) {
        let mut rows = random_rows(seed, arity, n, domain);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        // Widest values too: u64::MAX still fits, so the scan must take it.
        for row in &mut rows {
            if rng.gen_range(0..8u32) == 0 {
                row[0] = Value::MAX - rng.gen_range(0..2u64);
            }
        }
        let mut text = format!("rel R {arity}\n");
        for row in &rows {
            if rng.gen_range(0..4u32) == 0 {
                text.push_str(separator(&mut rng));
            }
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    text.push_str(separator(&mut rng));
                }
                text.push_str(&spell(&mut rng, v));
            }
            if rng.gen_range(0..4u32) == 0 {
                text.push_str(separator(&mut rng));
            }
            text.push('\n');
        }
        let db = parse_db(&text).map_err(|e| TestCaseError::fail(format!("{e} in {text:?}")))?;
        prop_assert_eq!(db.table("R"), Some(&Table::from_rows(arity, rows)), "text {:?}", text);
    }
}

/// Malformed row lines fall through the byte scan to the token path, whose
/// messages (positions included) are pinned here.
#[test]
fn malformed_rows_keep_their_messages() {
    let cases = [
        (
            "rel R 2\n18446744073709551616 1\n",
            "2:1: invalid row value `18446744073709551616`",
        ),
        (
            "rel R 2\n1 2\n1 2 3\n",
            "3:1: declared 2 row values, found 3",
        ),
        ("rel R 2\n\t7\n", "2:2: declared 2 row values, found 1"),
        ("rel R 1\n1x\n", "2:1: invalid row value `1x`"),
        ("rel R 2\n4 -1\n", "2:3: invalid row value `-1`"),
        ("1 2\nrel R 2\n", "1:1: missing `rel` header before rows"),
    ];
    for (text, want) in cases {
        let err = parse_db(text).expect_err(text);
        assert_eq!(err.to_string(), want, "input {text:?}");
    }
}

/// A second `rel` header for a name already read is refused at the name,
/// instead of its table silently replacing the first one's rows.
#[test]
fn a_repeated_relation_header_is_refused() {
    let err = parse_db("rel R 1\n1\n3\nrel R 1\n2\n").expect_err("duplicate header");
    assert_eq!((err.line, err.col), (4, 5));
    assert!(matches!(err.kind, ParseErrorKind::Duplicate { .. }));
    assert_eq!(err.to_string(), "4:5: duplicate relation `R`");
    // Also when another relation sits between the two headers.
    let err = parse_db("rel R 1\n1\nrel S 1\n2\nrel  R 1\n").expect_err("duplicate header");
    assert_eq!((err.line, err.col), (5, 6));
    // Distinct names still load side by side.
    let db = parse_db("rel R 1\n1\nrel S 1\n2\n").expect("two relations");
    assert_eq!(db.table("R"), Some(&Table::from_rows(1, vec![vec![1]])));
    assert_eq!(db.table("S"), Some(&Table::from_rows(1, vec![vec![2]])));
}
