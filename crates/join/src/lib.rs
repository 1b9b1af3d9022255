//! Join queries and worst-case optimal join evaluation (paper §2.1, §3, §8).
//!
//! A join query `R₁(a…) ⋈ … ⋈ R_m(a…)` over a database maps each relation
//! name to a table; the answer is the set of tuples over all attributes
//! whose projections land in every relation. This crate implements the full
//! §3 story:
//!
//! * [`agm`] — the AGM bound (Theorem 3.1): `|answer| ≤ N^{ρ*}` with ρ* the
//!   fractional edge cover number (computed exactly by `lb-lp`), **and** the
//!   matching worst-case database construction of Theorem 3.2 from the
//!   optimal dual (vertex-packing) weights;
//! * [`wcoj`] — a columnar Leapfrog Triejoin (Theorem 3.3,
//!   Ngo–Porat–Ré–Rudra / Veldhuizen) running in Õ(N^{ρ*}): flat per-atom
//!   [`trie`]s, per-variable leapfrog intersection with galloping seeks,
//!   and the "Skew Strikes Back" heavy/light split for heavy-hitter
//!   values ([`reference`](mod@reference) preserves the pre-leapfrog generic join as the
//!   differential oracle);
//! * [`binary`] — the classical baseline: a left-deep plan of pairwise hash
//!   joins, which materializes Ω(N²) intermediates on the AGM-worst-case
//!   triangle inputs (experiment E2's contrast);
//! * [`boolean`] — the Boolean Join Query problem (emptiness), the decision
//!   version §8's triangle conjecture speaks about.
//!
//! Every evaluator takes a [`lb_engine::Budget`] and returns an
//! [`lb_engine::Outcome`] paired with [`lb_engine::RunStats`] counters
//! (nodes tried, trie advances, tuples materialized, largest intermediate).

pub mod acyclic;
pub mod agm;
pub mod binary;
pub mod boolean;
pub mod database;
pub mod generators;
pub mod query;
pub mod reference;
pub mod trie;
pub mod wcoj;

pub use acyclic::{is_acyclic, yannakakis};
pub use database::{Database, Table};
pub use query::{Atom, JoinQuery};

/// A database value.
pub type Value = u64;
