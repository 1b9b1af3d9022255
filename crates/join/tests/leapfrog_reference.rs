//! Differential properties of the leapfrog WCOJ against the frozen
//! pre-leapfrog generic join kept in `lb_join::reference` (the oracle):
//! identical answers on every query shape, deterministic op counts, sliced
//! checkpoint/resume verdicts equal to the oracle's one-shot verdict, and
//! the skew win the heavy/light split exists to deliver.

use lb_engine::checkpoint::{Checkpoint, ResumableOutcome};
use lb_engine::{Budget, RunStats};
use lb_join::{generators, reference, wcoj, JoinQuery};

fn shapes() -> Vec<(&'static str, JoinQuery, usize, u64)> {
    vec![
        ("triangle", JoinQuery::triangle(), 40, 10),
        ("cycle4", JoinQuery::cycle(4), 30, 8),
        ("clique4", JoinQuery::clique(4), 25, 6),
        ("lw3", JoinQuery::loomis_whitney(3), 25, 6),
        ("star3", JoinQuery::star(3), 30, 8),
    ]
}

#[test]
fn answers_match_the_reference_on_uniform_and_skewed_inputs() {
    for (name, q, rows, dom) in shapes() {
        for seed in 0..4u64 {
            for skewed in [false, true] {
                let db = if skewed {
                    generators::skewed_database(&q, rows, dom, seed)
                } else {
                    generators::random_database(&q, rows, dom, seed)
                };
                let new = wcoj::join(&q, &db, None, &Budget::unlimited())
                    .unwrap()
                    .0
                    .unwrap_sat();
                let old = reference::join(&q, &db, None, &Budget::unlimited())
                    .unwrap()
                    .0
                    .unwrap_sat();
                assert_eq!(new, old, "{name} seed {seed} skewed {skewed}");
            }
        }
    }
}

#[test]
fn op_counts_are_deterministic_and_tuple_counts_agree() {
    for (name, q, rows, dom) in shapes() {
        let db = generators::skewed_database(&q, rows, dom, 7);
        let (out1, s1) = wcoj::count(&q, &db, None, &Budget::unlimited()).unwrap();
        let (out2, s2) = wcoj::count(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(out1, out2, "{name}: verdict must be deterministic");
        assert_eq!(s1, s2, "{name}: op counts must be deterministic");
        // `tuples` counts answers — algorithm-independent, so it must
        // match the reference machine exactly (total_ops may differ;
        // that difference is the whole point of the rewrite).
        let (_, old) = reference::count(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(s1.tuples, old.tuples, "{name}: answer-tuple counter");
    }
}

#[test]
fn sliced_resume_verdicts_equal_the_reference_one_shot() {
    for (name, q, rows, dom) in shapes() {
        let db = generators::skewed_database(&q, rows, dom, 11);
        let (oracle, _) = reference::count(&q, &db, None, &Budget::unlimited()).unwrap();
        let want = oracle.unwrap_sat();

        let mut from: Option<Checkpoint> = None;
        let mut summed = RunStats::default();
        let got = loop {
            let (out, stats) =
                wcoj::count_resumable(&q, &db, None, &Budget::ticks(9), from.as_ref())
                    .expect("clean resume");
            summed.absorb(&stats);
            match out {
                ResumableOutcome::Suspended { checkpoint, .. } => {
                    let bytes = checkpoint.to_bytes();
                    from = Some(Checkpoint::from_bytes(&bytes).expect("round trip"));
                }
                done => break done.into_outcome().unwrap_sat(),
            }
        };
        assert_eq!(got, want, "{name}: sliced leapfrog vs reference one-shot");

        // And the sliced stats must sum to the leapfrog one-shot stats
        // (slice-equivalence, re-proven on the new frame encoding).
        let (_, full) = wcoj::count(&q, &db, None, &Budget::unlimited()).unwrap();
        assert_eq!(summed, full, "{name}: summed slice stats");
    }
}

#[test]
fn leapfrog_wins_on_disjoint_heavy_hitter_tails() {
    // The pinned skew shape: a hub value shared by two atoms plus long
    // disjoint tails. The reference machine probes every tail value; the
    // leapfrog gallops over both tails in O(log) seeks. This is the
    // measurable op-count win the exact workload pins of the root
    // `tests/wcoj_replay_pins.rs` hold (`skew_heavy_hitter`).
    use lb_join::{Atom, Database, Table};
    let q = JoinQuery::new(vec![
        Atom::new("R", &["a", "b"]),
        Atom::new("S", &["a", "c"]),
        Atom::new("T", &["b", "c"]),
    ]);
    let hub = 24u64;
    let tail = 400u64;
    let mut db = Database::new();
    let mut r: Vec<Vec<u64>> = (0..hub).map(|b| vec![0, b]).collect();
    r.extend((1..=tail).map(|i| vec![i, i]));
    db.insert("R", Table::from_rows(2, r));
    let mut s: Vec<Vec<u64>> = (0..hub).map(|c| vec![0, c]).collect();
    s.extend((1..=tail).map(|i| vec![10_000 + i, i]));
    db.insert("S", Table::from_rows(2, s));
    let mut t: Vec<Vec<u64>> = (0..hub).map(|x| vec![x, x]).collect();
    t.extend((0..hub).map(|x| vec![x, (x + 1) % hub]));
    db.insert("T", Table::from_rows(2, t));

    let (new_out, new_stats) = wcoj::count(&q, &db, None, &Budget::unlimited()).unwrap();
    let (old_out, old_stats) = reference::count(&q, &db, None, &Budget::unlimited()).unwrap();
    assert_eq!(new_out.unwrap_sat(), old_out.unwrap_sat());
    assert!(
        new_stats.total_ops() * 2 < old_stats.total_ops(),
        "leapfrog must at least halve the ops on this shape: {} vs {}",
        new_stats.total_ops(),
        old_stats.total_ops()
    );
}
