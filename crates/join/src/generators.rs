//! Random database generators for join experiments.

use crate::database::{Database, Table};
use crate::query::JoinQuery;
use crate::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random database for a query with **binary** atoms: each relation gets
/// `rows_per_relation` uniform random pairs over `[0, domain)`.
pub fn random_binary_database(
    q: &JoinQuery,
    rows_per_relation: usize,
    domain: u64,
    seed: u64,
) -> Database {
    assert!(
        q.atoms.iter().all(|a| a.attrs.len() == 2),
        "binary atoms only"
    );
    random_database(q, rows_per_relation, domain, seed)
}

/// A random database for an arbitrary query: each relation gets up to
/// `rows_per_relation` uniform random tuples over `[0, domain)` per column.
pub fn random_database(
    q: &JoinQuery,
    rows_per_relation: usize,
    domain: u64,
    seed: u64,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for atom in &q.atoms {
        let arity = atom.attrs.len();
        let mut table = Table::new(arity);
        let mut row = vec![0; arity];
        for _ in 0..rows_per_relation {
            row.iter_mut()
                .for_each(|v| *v = rng.gen_range(0..domain) as Value);
            table.push(&row);
        }
        table.normalize();
        db.insert(&atom.relation, table);
    }
    db
}

/// A skewed database for a query with **binary** atoms: same shape as
/// [`random_binary_database`] but with a Zipf-like value distribution.
pub fn skewed_binary_database(
    q: &JoinQuery,
    rows_per_relation: usize,
    domain: u64,
    seed: u64,
) -> Database {
    assert!(
        q.atoms.iter().all(|a| a.attrs.len() == 2),
        "binary atoms only"
    );
    skewed_database(q, rows_per_relation, domain, seed)
}

/// A skewed random database: each relation gets up to `rows_per_relation`
/// tuples whose values follow a Zipf-like heavy-hitter distribution over
/// `[0, domain)` — value 0 is the heavy hitter (drawn directly ~30% of the
/// time), and the rest of the mass decays polynomially (a cubed uniform
/// variate, so small values dominate). Exercises the WCOJ heavy/light
/// split: heavy-hitter blocks go through leapfrog, sparse tails through
/// the residual enumerate-and-probe path.
pub fn skewed_database(
    q: &JoinQuery,
    rows_per_relation: usize,
    domain: u64,
    seed: u64,
) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = domain.max(1);
    let draw = |rng: &mut StdRng| -> Value {
        if rng.gen_range(0..10u32) < 3 {
            return 0;
        }
        // Cubing a uniform variate in [0, 2^20) skews the mass toward
        // small values (P[v ≥ k] ≈ (k/domain)^{1/3}) using integer math
        // only, keeping this path exact and platform-independent.
        let x = rng.gen_range(0..(1u64 << 20)) as u128;
        ((x * x * x * domain as u128) >> 60) as Value % domain
    };
    let mut db = Database::new();
    for atom in &q.atoms {
        let arity = atom.attrs.len();
        let mut table = Table::new(arity);
        let mut row = vec![0; arity];
        for _ in 0..rows_per_relation {
            row.iter_mut().for_each(|v| *v = draw(&mut rng));
            table.push(&row);
        }
        table.normalize();
        db.insert(&atom.relation, table);
    }
    db
}

/// A triangle-query database guaranteed to contain at least one answer:
/// random pairs plus the planted triangle (0, 0, 0).
pub fn planted_triangle_database(rows_per_relation: usize, domain: u64, seed: u64) -> Database {
    let q = JoinQuery::triangle();
    let mut db = random_binary_database(&q, rows_per_relation.saturating_sub(1), domain, seed);
    for name in ["R", "S", "T"] {
        #[expect(
            clippy::expect_used,
            reason = "invariant: the table named name was inserted into db just above"
        )]
        let mut t = db.table(name).expect("present").clone();
        t.push(&[0, 0]);
        t.normalize();
        db.insert(name, t);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcoj;

    #[test]
    fn random_db_validates() {
        let q = JoinQuery::triangle();
        let db = random_binary_database(&q, 50, 20, 1);
        db.validate_for(&q).unwrap();
        assert!(db.max_table_size() <= 50);
    }

    #[test]
    fn deterministic_by_seed() {
        let q = JoinQuery::cycle(4);
        let a = random_binary_database(&q, 10, 5, 2);
        let b = random_binary_database(&q, 10, 5, 2);
        for atom in &q.atoms {
            assert_eq!(
                a.table(&atom.relation).unwrap(),
                b.table(&atom.relation).unwrap()
            );
        }
    }

    #[test]
    fn planted_triangle_is_found() {
        let q = JoinQuery::triangle();
        let db = planted_triangle_database(10, 100, 7);
        let ans = wcoj::join(&q, &db, None, &lb_engine::Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        assert!(ans.contains(&vec![0, 0, 0]));
    }

    #[test]
    fn higher_arity_database() {
        let q = JoinQuery::loomis_whitney(4);
        let db = random_database(&q, 30, 4, 5);
        db.validate_for(&q).unwrap();
    }
}
