//! Homomorphism search between relational structures.
//!
//! Backtracking over the elements of A with candidate pruning: before the
//! search, a fixpoint of arc-consistency over the constraint "every tuple of
//! A must map into a tuple of B" shrinks each element's candidate set. The
//! search itself is the |B|^{|A|} brute force that Theorem 5.3 says cannot
//! be beaten in general (unless the cores of the A-side have bounded
//! treewidth).
//!
//! Engine mapping: one [`RunStats::propagations`] per support check in the
//! arc-consistency fixpoint and per tuple-compatibility check during the
//! search, one [`RunStats::nodes`] per candidate image tried, and one
//! [`RunStats::tuples`] per complete homomorphism visited.
//!
//! [`RunStats::nodes`]: lb_engine::RunStats::nodes
//! [`RunStats::propagations`]: lb_engine::RunStats::propagations
//! [`RunStats::tuples`]: lb_engine::RunStats::tuples

use crate::structure::Structure;
use lb_engine::{Budget, ExhaustReason, Outcome, RunStats, Ticker};

/// Finds a homomorphism from `a` to `b`. `Sat(hom)`, `Unsat`, or
/// `Exhausted`.
pub fn find_homomorphism(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> (Outcome<Vec<usize>>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let mut result = None;
    let r = search(
        a,
        b,
        &mut |h| {
            result = Some(h.to_vec());
            true
        },
        &mut ticker,
    );
    ticker.finish(r.map(|_| result))
}

/// Counts all homomorphisms from `a` to `b`. `Sat(count)` or `Exhausted`.
pub fn count_homomorphisms(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
) -> (Outcome<u64>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let mut n = 0u64;
    let r = search(
        a,
        b,
        &mut |_| {
            n += 1;
            false
        },
        &mut ticker,
    );
    ticker.finish(r.map(|_| Some(n)))
}

/// Enumerates homomorphisms through a callback; `true` stops the search.
/// `Sat(stopped_early)` or `Exhausted`.
pub fn enumerate_homomorphisms<F: FnMut(&[usize]) -> bool>(
    a: &Structure,
    b: &Structure,
    budget: &Budget,
    visit: &mut F,
) -> (Outcome<bool>, RunStats) {
    let mut ticker = Ticker::new(budget);
    let r = search(a, b, visit, &mut ticker);
    ticker.finish(r.map(Some))
}

/// True iff `a` maps homomorphically into `b`. `Sat(exists)` or
/// `Exhausted`.
pub fn hom_exists(a: &Structure, b: &Structure, budget: &Budget) -> (Outcome<bool>, RunStats) {
    let (out, stats) = find_homomorphism(a, b, budget);
    let out = match out {
        Outcome::Sat(_) => Outcome::Sat(true),
        Outcome::Unsat => Outcome::Sat(false),
        Outcome::Exhausted(r) => Outcome::Exhausted(r),
    };
    (out, stats)
}

fn search<F: FnMut(&[usize]) -> bool>(
    a: &Structure,
    b: &Structure,
    visit: &mut F,
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    assert_eq!(
        a.num_relations(),
        b.num_relations(),
        "structures must share a vocabulary"
    );
    let na = a.universe();
    let nb = b.universe();
    if na == 0 {
        ticker.tuple()?;
        return Ok(visit(&[]));
    }
    if nb == 0 {
        return Ok(false);
    }

    // Candidate sets after arc-consistency pre-pruning.
    let mut candidates: Vec<Vec<bool>> = vec![vec![true; nb]; na];
    if !prune(a, b, &mut candidates, ticker)? {
        return Ok(false);
    }

    let mut h: Vec<Option<usize>> = vec![None; na];
    backtrack(a, b, &candidates, &mut h, visit, ticker)
}

/// Arc-consistency fixpoint: x can map to v only if every A-tuple through x
/// extends to a B-tuple with v at x's position (checking each tuple
/// position-wise against B's tuples). Returns false if a candidate set
/// empties.
fn prune(
    a: &Structure,
    b: &Structure,
    candidates: &mut [Vec<bool>],
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    loop {
        let mut changed = false;
        for sym in 0..a.num_relations() {
            for t in a.tuples(sym) {
                for (pos, &x) in t.iter().enumerate() {
                    for v in 0..b.universe() {
                        if !candidates[x][v] {
                            continue;
                        }
                        ticker.propagation()?;
                        // Is there a B-tuple with v at `pos` whose other
                        // coordinates are still candidates?
                        let supported = b.tuples(sym).iter().any(|u| {
                            u[pos] == v && t.iter().zip(u).all(|(&ax, &bv)| candidates[ax][bv])
                        });
                        if !supported {
                            candidates[x][v] = false;
                            changed = true;
                        }
                    }
                    if candidates[x].iter().all(|&c| !c) {
                        return Ok(false);
                    }
                }
            }
        }
        if !changed {
            return Ok(true);
        }
    }
}

fn backtrack<F: FnMut(&[usize]) -> bool>(
    a: &Structure,
    b: &Structure,
    candidates: &[Vec<bool>],
    h: &mut Vec<Option<usize>>,
    visit: &mut F,
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    // Most-constrained element first.
    let next = (0..a.universe())
        .filter(|&x| h[x].is_none())
        .min_by_key(|&x| candidates[x].iter().filter(|&&c| c).count());
    let x = match next {
        Some(x) => x,
        None => {
            #[expect(
                clippy::expect_used,
                reason = "invariant: a complete homomorphism assigns every vertex"
            )]
            let full: Vec<usize> = h.iter().map(|o| o.expect("complete")).collect();
            debug_assert!(a.is_homomorphism_to(b, &full));
            ticker.tuple()?;
            return Ok(visit(&full));
        }
    };
    for v in 0..b.universe() {
        if !candidates[x][v] {
            continue;
        }
        ticker.node()?;
        h[x] = Some(v);
        if consistent(a, b, h, x, ticker)? && backtrack(a, b, candidates, h, visit, ticker)? {
            return Ok(true);
        }
    }
    h[x] = None;
    Ok(false)
}

/// Checks every A-tuple that involves `x`: if fully mapped it must land in
/// B; if partially mapped some compatible B-tuple must remain.
fn consistent(
    a: &Structure,
    b: &Structure,
    h: &[Option<usize>],
    x: usize,
    ticker: &mut Ticker,
) -> Result<bool, ExhaustReason> {
    for sym in 0..a.num_relations() {
        for t in a.tuples(sym) {
            if !t.contains(&x) {
                continue;
            }
            ticker.propagation()?;
            let compatible = b.tuples(sym).iter().any(|u| {
                t.iter()
                    .zip(u)
                    .all(|(&ax, &bv)| h[ax].is_none_or(|hv| hv == bv))
            });
            if !compatible {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{Structure, Vocabulary};
    use lb_graph::generators;

    fn graph_structure(g: &lb_graph::Graph) -> Structure {
        Structure::from_graph(g)
    }

    fn exists(a: &Structure, b: &Structure) -> bool {
        hom_exists(a, b, &Budget::unlimited()).0.unwrap_sat()
    }

    fn count(a: &Structure, b: &Structure) -> u64 {
        count_homomorphisms(a, b, &Budget::unlimited())
            .0
            .unwrap_sat()
    }

    #[test]
    fn graph_coloring_as_homomorphism() {
        // G → K_k homomorphisms = proper k-colorings. C5 is 3-chromatic.
        let c5 = graph_structure(&generators::cycle(5));
        let k2 = graph_structure(&generators::clique(2));
        let k3 = graph_structure(&generators::clique(3));
        assert!(!exists(&c5, &k2));
        assert!(exists(&c5, &k3));
        // Count: proper 3-colorings of C5 = (3−1)^5 + (−1)^5·(3−1) = 30.
        assert_eq!(count(&c5, &k3), 30);
    }

    #[test]
    fn even_cycle_is_bipartite() {
        let c6 = graph_structure(&generators::cycle(6));
        let k2 = graph_structure(&generators::clique(2));
        assert!(exists(&c6, &k2));
        // 2-colorings of an even cycle: 2.
        assert_eq!(count(&c6, &k2), 2);
    }

    #[test]
    fn clique_to_smaller_clique_fails() {
        let k4 = graph_structure(&generators::clique(4));
        let k3 = graph_structure(&generators::clique(3));
        assert!(!exists(&k4, &k3));
        assert!(exists(&k3, &k4));
        // Injective maps K3 → K4: 4·3·2 = 24.
        assert_eq!(count(&k3, &k4), 24);
    }

    #[test]
    fn homomorphism_is_verified() {
        let p3 = graph_structure(&generators::path(3));
        let k2 = graph_structure(&generators::clique(2));
        let h = find_homomorphism(&p3, &k2, &Budget::unlimited())
            .0
            .unwrap_sat();
        assert!(p3.is_homomorphism_to(&k2, &h));
    }

    #[test]
    fn directed_structures() {
        // Directed path 0→1→2 has no hom into a single arc 0→1 (needs the
        // image of 1 to have an out-arc), but maps into a 2-cycle.
        let voc = Vocabulary::digraph();
        let mut dpath = Structure::new(&voc, 3);
        dpath.add_tuple(0, vec![0, 1]);
        dpath.add_tuple(0, vec![1, 2]);
        let mut arc = Structure::new(&voc, 2);
        arc.add_tuple(0, vec![0, 1]);
        assert!(!exists(&dpath, &arc));
        let mut two_cycle = Structure::new(&voc, 2);
        two_cycle.add_tuple(0, vec![0, 1]);
        two_cycle.add_tuple(0, vec![1, 0]);
        assert!(exists(&dpath, &two_cycle));
    }

    #[test]
    fn empty_a_has_one_hom() {
        let voc = Vocabulary::digraph();
        let a = Structure::new(&voc, 0);
        let b = Structure::new(&voc, 3);
        assert_eq!(count(&a, &b), 1);
    }

    #[test]
    fn empty_b_has_none() {
        let voc = Vocabulary::digraph();
        let a = Structure::new(&voc, 2);
        let b = Structure::new(&voc, 0);
        assert_eq!(count(&a, &b), 0);
    }

    #[test]
    fn no_tuples_means_all_maps() {
        let voc = Vocabulary::digraph();
        let a = Structure::new(&voc, 3);
        let b = Structure::new(&voc, 4);
        assert_eq!(count(&a, &b), 64);
    }

    #[test]
    fn multi_symbol_vocabulary() {
        // Two unary-ish… use two binary symbols R, S; A requires R-arc and
        // S-arc between the same pair; B has them on different pairs.
        let voc = Vocabulary::new(vec![("R".into(), 2), ("S".into(), 2)]);
        let mut a = Structure::new(&voc, 2);
        a.add_tuple(0, vec![0, 1]);
        a.add_tuple(1, vec![0, 1]);
        let mut b = Structure::new(&voc, 3);
        b.add_tuple(0, vec![0, 1]);
        b.add_tuple(1, vec![1, 2]);
        assert!(!exists(&a, &b));
        let mut b2 = Structure::new(&voc, 3);
        b2.add_tuple(0, vec![0, 1]);
        b2.add_tuple(1, vec![0, 1]);
        assert!(exists(&a, &b2));
    }

    #[test]
    fn tiny_budget_exhausts() {
        let c5 = graph_structure(&generators::cycle(5));
        let k3 = graph_structure(&generators::clique(3));
        let b = Budget::ticks(0); // the first support check exhausts
        assert!(find_homomorphism(&c5, &k3, &b).0.is_exhausted());
        assert!(count_homomorphisms(&c5, &k3, &b).0.is_exhausted());
        assert!(hom_exists(&c5, &k3, &b).0.is_exhausted());
    }

    #[test]
    fn counters_monotone_in_budget() {
        let c5 = graph_structure(&generators::cycle(5));
        let k3 = graph_structure(&generators::clique(3));
        let (_, small) = count_homomorphisms(&c5, &k3, &Budget::ticks(40));
        let (_, large) = count_homomorphisms(&c5, &k3, &Budget::unlimited());
        assert!(small.le(&large));
    }
}
