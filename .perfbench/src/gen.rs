//! Seeded instance generators. Every instance leaves here as text — a
//! [`JobSpec`] payload in the formats `lbtool` and `SUBMIT` accept — so the
//! program under test only ever sees the generated text, never the seed.

use lb_join::{agm, generators as jgen, JoinQuery};
use lb_serve::{formats, JobFamily, JobSpec};

/// The class a job is pinned to when it is generated (never when it is
/// observed): `Short` recipes settle within one 65,536-tick slice, `Long`
/// recipes need at least four.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Short,
    Long,
}

/// One instance family with its size parameters.
#[derive(Clone, Copy, Debug)]
pub enum Recipe {
    /// A join over uniform random pairs, `rows` per relation.
    Uniform {
        shape: Shape,
        rows: usize,
        domain: u64,
    },
    /// A join over Zipf-skewed pairs (heavy hitter at value 0).
    Zipf {
        shape: Shape,
        rows: usize,
        domain: u64,
    },
    /// The AGM worst-case database for size parameter `n` (Theorem 3.2).
    Agm { shape: Shape, n: u64 },
    /// Random 3-SAT with `vars` variables at clause ratio 4.26.
    Sat { vars: usize },
    /// The 5-clique → CSP reduction applied to T(n, 4): a NO instance.
    CspTuran { n: usize },
    /// 5-clique search on the Turán graph T(n, 4): always a NO instance.
    Turan { n: usize },
}

/// A recipe with its pinned class and a weight: how many slots of a
/// workload's round-robin it takes.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    pub recipe: Recipe,
    pub class: Class,
    pub weight: usize,
}

/// A generated instance, ready to parse and solve or submit.
#[derive(Clone, Debug)]
pub struct Job {
    pub recipe: String,
    pub class: Class,
    pub spec: JobSpec,
}

/// SplitMix64: derives independent per-instance seeds from the run seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn join_text(q: &JoinQuery, db: &lb_join::Database) -> String {
    format!(
        "{}\n{}",
        formats::format_query(q),
        formats::format_db(q, db)
    )
}

/// The query shapes the join recipes use.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Triangle,
    Cycle4,
    Clique4,
}

impl Shape {
    fn query(self) -> JoinQuery {
        match self {
            Shape::Triangle => JoinQuery::triangle(),
            Shape::Cycle4 => JoinQuery::cycle(4),
            Shape::Clique4 => JoinQuery::clique(4),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Triangle => "triangle",
            Shape::Cycle4 => "4cycle",
            Shape::Clique4 => "4clique",
        }
    }
}

impl Recipe {
    /// A short stable label, e.g. `join_agm_4cycle` or `sat`.
    pub fn name(self) -> String {
        match self {
            Recipe::Uniform { shape, .. } => format!("join_uniform_{}", shape.name()),
            Recipe::Zipf { shape, .. } => format!("join_zipf_{}", shape.name()),
            Recipe::Agm { shape, .. } => format!("join_agm_{}", shape.name()),
            Recipe::Sat { .. } => "sat".to_string(),
            Recipe::CspTuran { .. } => "csp_turan".to_string(),
            Recipe::Turan { .. } => "clique_turan".to_string(),
        }
    }

    pub fn family(self) -> JobFamily {
        match self {
            Recipe::Sat { .. } => JobFamily::Sat,
            Recipe::CspTuran { .. } => JobFamily::Csp,
            Recipe::Turan { .. } => JobFamily::Clique,
            Recipe::Uniform { .. } | Recipe::Zipf { .. } | Recipe::Agm { .. } => JobFamily::Join,
        }
    }

    /// The clique size `k` and the instance text for `seed`.
    pub fn build(self, seed: u64) -> (usize, String) {
        match self {
            Recipe::Uniform {
                shape,
                rows,
                domain,
            } => {
                let q = shape.query();
                let db = jgen::random_binary_database(&q, rows, domain, seed);
                (0, join_text(&q, &db))
            }
            Recipe::Zipf {
                shape,
                rows,
                domain,
            } => {
                let q = shape.query();
                let db = jgen::skewed_binary_database(&q, rows, domain, seed);
                (0, join_text(&q, &db))
            }
            Recipe::Agm { shape, n } => {
                let q = shape.query();
                let (db, _) = agm::worst_case_database(&q, n).expect("small n has a witness");
                (0, join_text(&q, &db))
            }
            Recipe::Sat { vars } => {
                let clauses = (4.26 * vars as f64).round() as usize;
                let f = lb_sat::generators::random_ksat(vars, clauses, 3, seed);
                (0, f.to_dimacs())
            }
            Recipe::CspTuran { n } => {
                let g = lb_graph::generators::turan(n, 4);
                let csp = lb_reductions::clique_to_csp::reduce(&g, 5);
                (0, formats::format_csp(&csp))
            }
            Recipe::Turan { n } => {
                let g = lb_graph::generators::turan(n, 4);
                (5, formats::format_graph(&g))
            }
        }
    }
}

/// Tenants the serve workload submits for, round-robin.
pub const TENANTS: usize = 8;

/// Generates `cycles` rounds of the weighted slots; instance `i` gets its
/// own seed derived from `seed`.
pub fn generate(slots: &[Slot], cycles: usize, seed: u64) -> Vec<Job> {
    let order: Vec<&Slot> = slots
        .iter()
        .flat_map(|s| std::iter::repeat_n(s, s.weight))
        .collect();
    let mut state = seed;
    (0..cycles * order.len())
        .map(|i| {
            let slot = order[i % order.len()];
            let (k, payload) = slot.recipe.build(splitmix(&mut state));
            Job {
                recipe: slot.recipe.name(),
                class: slot.class,
                spec: JobSpec {
                    tenant: format!("tenant{}", i % TENANTS),
                    family: slot.recipe.family(),
                    k,
                    budget: None,
                    payload,
                },
            }
        })
        .collect()
}

const fn slot(recipe: Recipe, class: Class, weight: usize) -> Slot {
    Slot {
        recipe,
        class,
        weight,
    }
}

/// Short joins: the largest uniform and skewed instances a `SUBMIT` can
/// carry (at most 4,096 payload lines), each settling within one slice.
const SHORT_JOINS: [Slot; 4] = [
    slot(
        Recipe::Zipf {
            shape: Shape::Triangle,
            rows: 1300,
            domain: 1000,
        },
        Class::Short,
        1,
    ),
    slot(
        Recipe::Uniform {
            shape: Shape::Triangle,
            rows: 1300,
            domain: 300,
        },
        Class::Short,
        1,
    ),
    slot(
        Recipe::Uniform {
            shape: Shape::Clique4,
            rows: 680,
            domain: 100,
        },
        Class::Short,
        1,
    ),
    slot(
        Recipe::Uniform {
            shape: Shape::Cycle4,
            rows: 1000,
            domain: 300,
        },
        Class::Short,
        1,
    ),
];

/// `solve_join`: uniform triangle, 4-cycle and 4-clique, Zipf-skewed
/// triangle and the AGM worst-case triangle at in-process sizes (long),
/// beside the protocol-sized joins (short).
pub const SOLVE_JOIN: [Slot; 9] = [
    SHORT_JOINS[0],
    SHORT_JOINS[1],
    SHORT_JOINS[2],
    SHORT_JOINS[3],
    slot(
        Recipe::Uniform {
            shape: Shape::Clique4,
            rows: 5000,
            domain: 300,
        },
        Class::Long,
        1,
    ),
    slot(
        Recipe::Uniform {
            shape: Shape::Cycle4,
            rows: 5000,
            domain: 1000,
        },
        Class::Long,
        1,
    ),
    slot(
        Recipe::Uniform {
            shape: Shape::Triangle,
            rows: 20000,
            domain: 2000,
        },
        Class::Long,
        1,
    ),
    slot(
        Recipe::Zipf {
            shape: Shape::Triangle,
            rows: 30000,
            domain: 3000,
        },
        Class::Long,
        1,
    ),
    slot(
        Recipe::Agm {
            shape: Shape::Triangle,
            n: 4096,
        },
        Class::Long,
        1,
    ),
];

/// `solve_search`: phase-transition 3-SAT (n = 80..100), CSPs from the
/// 5-clique reduction on Turán graphs, and Turán NO instances for 5-clique.
/// The weights put the reported quantiles inside the tight clusters of the
/// deterministic families, since random 3-SAT costs spread over a decade.
pub const SOLVE_SEARCH: [Slot; 6] = [
    slot(Recipe::Sat { vars: 80 }, Class::Short, 4),
    slot(Recipe::Sat { vars: 90 }, Class::Short, 4),
    slot(Recipe::Sat { vars: 100 }, Class::Short, 4),
    slot(Recipe::CspTuran { n: 28 }, Class::Short, 10),
    slot(Recipe::Turan { n: 90 }, Class::Long, 18),
    slot(Recipe::CspTuran { n: 48 }, Class::Long, 10),
];

/// `serve_mixed`: protocol-sized jobs from both generators.
pub const SERVE_MIXED: [Slot; 11] = [
    SHORT_JOINS[0],
    SHORT_JOINS[1],
    SHORT_JOINS[2],
    SHORT_JOINS[3],
    slot(Recipe::Sat { vars: 70 }, Class::Short, 1),
    slot(Recipe::Sat { vars: 80 }, Class::Short, 1),
    slot(Recipe::Sat { vars: 90 }, Class::Short, 1),
    slot(Recipe::CspTuran { n: 28 }, Class::Short, 1),
    slot(
        Recipe::Agm {
            shape: Shape::Clique4,
            n: 324,
        },
        Class::Long,
        1,
    ),
    slot(
        Recipe::Agm {
            shape: Shape::Cycle4,
            n: 256,
        },
        Class::Long,
        1,
    ),
    slot(Recipe::Turan { n: 100 }, Class::Long, 1),
];

#[cfg(test)]
mod tests {
    use super::*;
    use lb_serve::runner::solve_to_verdict;

    /// The pinning rule holds for every recipe of every workload: short
    /// settles within one 65,536-tick slice, long needs at least four.
    #[test]
    fn classes_match_slice_counts() {
        for slots in [&SOLVE_JOIN[..], &SOLVE_SEARCH[..], &SERVE_MIXED[..]] {
            for job in generate(slots, 1, 1) {
                let inst = job.spec.instance().expect("generated text parses");
                let (_, _, preemptions) = solve_to_verdict(&inst, 65_536, None).expect("solves");
                match job.class {
                    Class::Short => assert_eq!(preemptions, 0, "{} is not short", job.recipe),
                    Class::Long => assert!(preemptions >= 3, "{} is not long", job.recipe),
                }
            }
        }
    }

    #[test]
    fn served_payloads_fit_one_submit() {
        for job in generate(&SERVE_MIXED, 1, 1) {
            let lines = job.spec.payload.lines().count();
            assert!(
                lines <= lb_serve::protocol::MAX_PAYLOAD_LINES,
                "{}: {lines} lines",
                job.recipe
            );
        }
    }
}
