//! Workload builders for the experiment binary.

use lowerbounds::csp::CspInstance;
use lowerbounds::join::{Database, JoinQuery, Table};

/// The E2 adversarial triangle database: R and S are full s×s grids
/// (s = √n, so |R| = |S| = n) and T is the diagonal {(i, i)}.
///
/// * Generic Join runs in Õ(n): for each (a, b), the only c candidate is b.
/// * Any pairwise plan that joins R ⋈ S first materializes s³ = n^{3/2}
///   tuples — the blow-up that worst-case optimality avoids.
///
/// The answer has exactly s² = n tuples.
pub fn adversarial_triangle_db(n: u64) -> (JoinQuery, Database, u64) {
    let q = JoinQuery::triangle();
    let s = (n as f64).sqrt().floor() as u64;
    let mut grid = Table::new(2);
    for a in 0..s {
        for b in 0..s {
            grid.push(&[a, b]);
        }
    }
    grid.normalize();
    let mut diag = Table::new(2);
    for i in 0..s {
        diag.push(&[i, i]);
    }
    diag.normalize();
    let mut db = Database::new();
    db.insert("R", grid.clone()); // R(a, b)
    db.insert("S", grid); // S(a, c)
    db.insert("T", diag); // T(b, c): forces b = c
    (q, db, s * s)
}

/// The E7 workload: the Clique→CSP instance of a G(d, p) graph, so the CSP
/// has k variables, domain size d, and primal graph K_k (treewidth k−1).
pub fn partitioned_clique_csp(k: usize, d: usize, p: f64, seed: u64) -> CspInstance {
    let g = lowerbounds::graph::generators::gnp(d, p, seed);
    lowerbounds::reductions::clique_to_csp::reduce(&g, k)
}

/// The E3 workload: a random binary CSP on a k-tree with `num_vars`
/// variables and the given domain.
pub fn ktree_csp(k: usize, num_vars: usize, domain: usize, seed: u64) -> CspInstance {
    lowerbounds::csp::generators::random_ktree_csp(k, num_vars, domain, 0.3, seed)
}

/// The E9 workload: two pseudo-random byte strings of length n over a
/// 4-letter alphabet.
pub fn random_strings(n: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let a = (0..n).map(|_| rng.gen_range(b'a'..=b'd')).collect();
    let b = (0..n).map(|_| rng.gen_range(b'a'..=b'd')).collect();
    (a, b)
}

/// The E9/OV workload: two sets of `n` random vectors of dimension `d`
/// with ones density `density`.
pub fn random_vector_sets(
    n: usize,
    d: usize,
    density: f64,
    seed: u64,
) -> (
    lowerbounds::graphalg::ov::VectorSet,
    lowerbounds::graphalg::ov::VectorSet,
) {
    use lowerbounds::graphalg::ov::VectorSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = |rng: &mut StdRng| {
        let mut s = VectorSet::new(d);
        for _ in 0..n {
            let v: Vec<bool> = (0..d).map(|_| rng.gen::<f64>() < density).collect();
            s.push_bools(&v);
        }
        s
    };
    let a = gen(&mut rng);
    let b = gen(&mut rng);
    (a, b)
}

/// OV NO-instance: like [`random_vector_sets`] but coordinate 0 is forced
/// to 1 on both sides, so no pair is orthogonal and every scan is the full
/// n² worst case.
pub fn random_vector_sets_no_pair(
    n: usize,
    d: usize,
    density: f64,
    seed: u64,
) -> (
    lowerbounds::graphalg::ov::VectorSet,
    lowerbounds::graphalg::ov::VectorSet,
) {
    use lowerbounds::graphalg::ov::VectorSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = |rng: &mut StdRng| {
        let mut s = VectorSet::new(d);
        for _ in 0..n {
            let mut v: Vec<bool> = (0..d).map(|_| rng.gen::<f64>() < density).collect();
            v[0] = true;
            s.push_bools(&v);
        }
        s
    };
    let a = gen(&mut rng);
    let b = gen(&mut rng);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowerbounds::engine::Budget;
    use lowerbounds::join::{binary, wcoj};

    #[test]
    fn adversarial_db_shape() {
        let bu = Budget::unlimited();
        let (q, db, answer) = adversarial_triangle_db(100);
        assert_eq!(db.max_table_size(), 100);
        assert_eq!(
            wcoj::count(&q, &db, None, &bu).unwrap().0.unwrap_sat(),
            answer
        );
        assert_eq!(answer, 100);
        // The binary plan materializes s³ = 1000 intermediates.
        let (_, stats) = binary::left_deep_join(&q, &db, &bu).unwrap();
        assert_eq!(stats.max_intermediate, 1000);
    }

    #[test]
    fn partitioned_clique_shape() {
        let inst = partitioned_clique_csp(4, 12, 0.5, 1);
        assert_eq!(inst.num_vars, 4);
        assert_eq!(inst.domain_size, 12);
    }

    #[test]
    fn string_and_vector_workloads() {
        let (a, b) = random_strings(50, 2);
        assert_eq!((a.len(), b.len()), (50, 50));
        let (va, vb) = random_vector_sets(10, 32, 0.3, 3);
        assert_eq!((va.len(), vb.len()), (10, 10));
    }
}
