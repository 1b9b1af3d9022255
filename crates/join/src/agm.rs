//! The AGM bound and its worst-case witnesses (paper Theorems 3.1–3.2).
//!
//! For a join query Q with hypergraph H and relations of at most N tuples,
//! the answer has at most N^{ρ*(H)} tuples (Theorem 3.1), and for infinitely
//! many N a database achieving N^{ρ*(H)} exists (Theorem 3.2). The witness
//! construction is the classical one from LP duality: take optimal
//! fractional vertex-packing weights y(v) (Σ_{v∈e} y(v) ≤ 1 per edge,
//! Σ_v y(v) = ρ*), give attribute v a domain of ⌊N^{y(v)}⌋ values, and make
//! every relation the full cross product of its attributes' domains. Each
//! relation then has at most N tuples while the answer is the full cross
//! product of all domains, of size ≈ N^{ρ*}.
//!
//! All sizes and bound checks here are **exact**: domain sizes come from
//! [`lb_lp::intpow::floor_rational_pow`] (integer q-th roots, no `f64`), and
//! [`agm_bound_holds`] compares `answer^q` against `N^p` with exact big
//! integer arithmetic instead of an epsilon-tolerant float comparison.

#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

use crate::database::{Database, Table};
use crate::query::JoinQuery;
use crate::Value;
use lb_lp::convert::u64_to_f64_lossy;
use lb_lp::covers::{fractional_edge_cover, fractional_vertex_packing, CoverError};
use lb_lp::intpow::{cmp_pow, floor_rational_pow, PowError};
use lb_lp::Rational;

/// Errors from AGM computations: LP failures, exact-power failures, or an
/// answer size that exceeds `u128`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AgmError {
    /// The underlying cover/packing LP failed.
    Cover(CoverError),
    /// An exact power computation failed (overflow or bad exponent).
    Pow(PowError),
    /// The exact answer size `Π ⌊n^{y(v)}⌋` exceeds `u128::MAX`.
    AnswerOverflow {
        /// The size parameter the witness was requested for.
        n: u64,
    },
}

impl std::fmt::Display for AgmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgmError::Cover(e) => write!(f, "cover LP failure: {e}"),
            AgmError::Pow(e) => write!(f, "exact power failure: {e}"),
            AgmError::AnswerOverflow { n } => {
                write!(f, "worst-case answer size for n = {n} exceeds u128::MAX")
            }
        }
    }
}

impl std::error::Error for AgmError {}

impl From<CoverError> for AgmError {
    fn from(e: CoverError) -> Self {
        AgmError::Cover(e)
    }
}

impl From<PowError> for AgmError {
    fn from(e: PowError) -> Self {
        AgmError::Pow(e)
    }
}

/// The fractional edge cover number ρ* of the query's hypergraph, exactly.
#[must_use = "ρ* is the AGM exponent; dropping it discards the bound"]
pub fn rho_star(q: &JoinQuery) -> Result<Rational, CoverError> {
    let (h, _) = q.hypergraph();
    fractional_edge_cover(&h).map(|s| s.value)
}

/// The AGM bound N^{ρ*} as a float — **for display and plotting only**.
/// Exact comparisons must go through [`agm_bound_holds`] or
/// [`worst_case_domain_sizes`], never through this value.
#[must_use = "the displayed bound should be used, not dropped"]
pub fn agm_bound(q: &JoinQuery, n: u64) -> Result<f64, CoverError> {
    let rho = rho_star(q)?;
    Ok(u64_to_f64_lossy(n).powf(rho.to_f64()))
}

/// The exact per-attribute domain sizes `max(1, ⌊n^{y(v)}⌋)` of the
/// Theorem 3.2 witness, indexed like the sorted attribute list of
/// [`JoinQuery::hypergraph`].
///
/// Separated from [`worst_case_database`] so the exact arithmetic can be
/// exercised for adversarial `n` (near `u64::MAX`) without materializing
/// tables.
#[must_use = "domain sizes are the witness construction; dropping them discards the computation"]
pub fn worst_case_domain_sizes(q: &JoinQuery, n: u64) -> Result<Vec<u64>, AgmError> {
    let (h, _) = q.hypergraph();
    let pack = fractional_vertex_packing(&h)?;
    pack.weights
        .iter()
        .map(|y| Ok(floor_rational_pow(n, y)?.max(1)))
        .collect()
}

/// The exact answer size `Π sizes` of the witness, checked in `u128`.
fn exact_answer_size(sizes: &[u64], n: u64) -> Result<u128, AgmError> {
    sizes.iter().try_fold(1u128, |acc, &s| {
        acc.checked_mul(u128::from(s))
            .ok_or(AgmError::AnswerOverflow { n })
    })
}

/// The worst-case database of Theorem 3.2 for size parameter `n`: every
/// relation has at most `n` tuples, and the answer size is the product of
/// the per-attribute domain sizes ⌊n^{y(v)}⌋ ≈ n^{ρ*}, computed exactly.
///
/// Returns the database and the exact answer size.
#[must_use = "the witness database and its exact answer size should be used, not dropped"]
pub fn worst_case_database(q: &JoinQuery, n: u64) -> Result<(Database, u128), AgmError> {
    let (_, attrs) = q.hypergraph();
    let sizes = worst_case_domain_sizes(q, n)?;
    let answer = exact_answer_size(&sizes, n)?;

    let mut db = Database::new();
    for atom in &q.atoms {
        // Distinct attributes of the atom, in column order of first
        // occurrence; repeated columns copy the same value (diagonal), so
        // the table size stays Π over *distinct* attrs ≤ n.
        let mut distinct: Vec<&str> = Vec::new();
        for a in &atom.attrs {
            if !distinct.contains(&a.as_str()) {
                distinct.push(a);
            }
        }
        let dims: Vec<u64> = distinct
            .iter()
            .map(|a| sizes[attr_index(&attrs, a)])
            .collect();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut counter = vec![0u64; dims.len()];
        'gen: loop {
            let row: Vec<Value> = atom
                .attrs
                .iter()
                .map(|a| {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: `distinct` was built from `atom.attrs` just above"
                    )]
                    let di = distinct.iter().position(|d| d == a).expect("distinct");
                    counter[di]
                })
                .collect();
            rows.push(row);
            // Odometer over dims.
            let mut i = dims.len();
            loop {
                if i == 0 {
                    break 'gen;
                }
                i -= 1;
                counter[i] += 1;
                if counter[i] < dims[i] {
                    break;
                }
                counter[i] = 0;
                if i == 0 {
                    break 'gen;
                }
            }
        }
        let table = Table::from_rows(atom.attrs.len(), rows);
        debug_assert!(
            u64::try_from(table.len()).unwrap_or(u64::MAX) <= n,
            "worst-case relation exceeded n: {} > {n}",
            table.len()
        );
        db.insert(&atom.relation, table);
    }
    Ok((db, answer))
}

#[expect(
    clippy::expect_used,
    reason = "invariant: callers pass attribute names drawn from the same hypergraph"
)]
fn attr_index(attrs: &[String], name: &str) -> usize {
    attrs
        .binary_search_by(|a| a.as_str().cmp(name))
        .expect("attribute present")
}

/// Checks Theorem 3.1 on a concrete (query, database, answer-size) triple:
/// `answer_size ≤ N^{ρ*}` with N the largest relation — **exactly**, by
/// comparing `answer_size^q` with `N^p` for ρ* = p/q in big-integer
/// arithmetic. No floating point, no epsilon.
#[must_use = "the bound verdict should be checked, not dropped"]
pub fn agm_bound_holds(q: &JoinQuery, db: &Database, answer_size: u128) -> Result<bool, AgmError> {
    let n = u64::try_from(db.max_table_size()).unwrap_or(u64::MAX);
    let rho = rho_star(q)?;
    let p = u32::try_from(rho.numer())
        .map_err(|_| AgmError::Pow(PowError::Overflow { base: n, exp: rho }))?;
    let qden = u32::try_from(rho.denom())
        .map_err(|_| AgmError::Pow(PowError::Overflow { base: n, exp: rho }))?;
    // answer ≤ n^{p/q}  ⇔  answer^q ≤ n^p.
    Ok(cmp_pow(answer_size, qden, u128::from(n), p) != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcoj;

    #[test]
    fn triangle_rho_star() {
        let q = JoinQuery::triangle();
        assert_eq!(rho_star(&q).unwrap(), Rational::new(3, 2));
        assert!((agm_bound(&q, 100).unwrap() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn worst_case_triangle_database() {
        let q = JoinQuery::triangle();
        for n in [4u64, 16, 100] {
            let (db, answer) = worst_case_database(&q, n).unwrap();
            // Every relation ≤ n rows.
            assert!(db.max_table_size() as u64 <= n);
            // Answer ≈ n^{3/2}: with square n it is exact.
            let s = (n as f64).sqrt().floor() as u128;
            assert_eq!(answer, s * s * s, "n = {n}");
            // And the materialized join agrees.
            let tuples = wcoj::join(&q, &db, None, &lb_engine::Budget::unlimited())
                .unwrap()
                .0
                .unwrap_sat();
            assert_eq!(tuples.len() as u128, answer, "n = {n}");
            assert!(agm_bound_holds(&q, &db, answer).unwrap());
        }
    }

    #[test]
    fn worst_case_star_database() {
        // Star with k leaves: ρ* = k; worst case puts everything on the
        // leaves (y_center = 0, y_leaf = 1): answer = n^k.
        let q = JoinQuery::star(2);
        let (db, answer) = worst_case_database(&q, 10).unwrap();
        assert!(db.max_table_size() <= 10);
        assert_eq!(answer, 100);
        let tuples = wcoj::join(&q, &db, None, &lb_engine::Budget::unlimited())
            .unwrap()
            .0
            .unwrap_sat();
        assert_eq!(tuples.len() as u128, answer);
    }

    #[test]
    fn worst_case_loomis_whitney() {
        let q = JoinQuery::loomis_whitney(3);
        let (db, answer) = worst_case_database(&q, 64).unwrap();
        assert!(db.max_table_size() <= 64);
        // y = 1/2 everywhere: answer = 8³ = 512 = 64^{3/2}.
        assert_eq!(answer, 512);
        assert!(agm_bound_holds(&q, &db, answer).unwrap());
    }

    #[test]
    fn bound_detects_violations() {
        // A fake "answer size" larger than the bound must be rejected.
        let q = JoinQuery::triangle();
        let (db, answer) = worst_case_database(&q, 16).unwrap();
        assert!(agm_bound_holds(&q, &db, answer).unwrap());
        assert!(!agm_bound_holds(&q, &db, answer * 10).unwrap());
    }

    #[test]
    fn bound_check_is_tight_not_fuzzy() {
        // The triangle witness at n = 16 has answer exactly 4³ = 64 = 16^{3/2}.
        // One more tuple must already violate the bound: an epsilon-tolerant
        // float check would wave `answer + 1` through.
        let q = JoinQuery::triangle();
        let (db, answer) = worst_case_database(&q, 16).unwrap();
        assert_eq!(answer, 64);
        assert!(agm_bound_holds(&q, &db, answer).unwrap());
        assert!(!agm_bound_holds(&q, &db, answer + 1).unwrap());
    }

    #[test]
    fn domain_sizes_exact_at_adversarial_scale() {
        // Triangle weights are (1/2, 1/2, 1/2); at n = u64::MAX the sizes
        // must be exactly ⌊√(2^64−1)⌋ = 2^32 − 1 with no float drift.
        let q = JoinQuery::triangle();
        let sizes = worst_case_domain_sizes(&q, u64::MAX).unwrap();
        assert_eq!(sizes, vec![4_294_967_295; 3]);
        // Perfect square n = (10^9)^2: sizes exactly 10^9.
        let n = 1_000_000_000u64 * 1_000_000_000;
        let sizes = worst_case_domain_sizes(&q, n).unwrap();
        assert_eq!(sizes, vec![1_000_000_000; 3]);
        // And one below: floor drops to 10^9 − 1.
        let sizes = worst_case_domain_sizes(&q, n - 1).unwrap();
        assert_eq!(sizes, vec![999_999_999; 3]);
    }

    #[test]
    fn repeated_attribute_atom() {
        // R(a,a) ⋈ S(a,b): hyperedges {a}, {a,b}; ρ* = 1 (edge {a,b} covers
        // all). Worst case: s_a·s_b ≤ n with answer n.
        let q = JoinQuery::new(vec![
            crate::query::Atom::new("R", &["a", "a"]),
            crate::query::Atom::new("S", &["a", "b"]),
        ]);
        assert_eq!(rho_star(&q).unwrap(), Rational::ONE);
        let (db, answer) = worst_case_database(&q, 9).unwrap();
        assert!(db.max_table_size() <= 9);
        assert!(answer <= 9);
        // Diagonal property: R's rows all have equal columns.
        let r = db.table("R").unwrap();
        assert!(r.rows().all(|row| row[0] == row[1]));
    }
}
