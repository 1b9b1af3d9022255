//! Properties of the flat `Table` layout, checked against the obvious
//! `Vec<Vec<Value>>` oracle: sort the rows, drop duplicates. Arities 0–6
//! cover the nullary case (zero or one empty row), the fixed-width sorts
//! (1–4) and the index sort for wider rows; a domain of at most four values
//! makes duplicate rows common.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
