//! Replay pins for the leapfrog join: the exact sequence of operations,
//! not just the answer count, is part of the solver's contract. A served
//! join resumes from checkpoints written by an earlier process, so a
//! change to the search order or to the frame encoding would silently
//! invalidate every spooled checkpoint (and every recorded `RunStats`)
//! even if all counts stayed right.
//!
//! Each case joins one generated database (uniform, Zipf-skewed, or the
//! AGM worst case of Theorem 3.2) for the triangle, the 4-cycle or the
//! 4-clique, under the default variable order and its reverse, chained
//! through `count_slice` with a fixed slice size (1, 7 or 65,536
//! ticks, or unlimited). Its FNV digest folds in, in order: every slice's
//! [`RunStats`], every suspended checkpoint's `to_bytes()`, and the final
//! count. The unlimited case also folds in the one-shot [`wcoj::count`]
//! result. Hostile instances (repeated attributes, wide and nullary
//! relations, empty tables, broken databases, heavy-hitter blocks) get one
//! aggregate digest per slice size.
//!
//! The pinned values were generated by the row-per-`Vec` tables and the
//! frame-allocating machine, before relations were stored flat and the
//! machine started reusing its frames; the current code must reproduce
//! them bit for bit. On a mismatch the failure message prints the whole
//! recomputed table.
//!
//! Six named workloads (uniform triangle, 4-cycle and 4-clique, the AGM
//! worst case, a Zipf triangle and a heavy-hitter triangle) pin the answer
//! and the full one-shot [`RunStats`] of both leapfrog and the frozen
//! pre-leapfrog [`reference`] machine, in the clear rather than as a
//! digest, so a drift names the counter that moved. The heavy-hitter
//! workload also keeps the "Skew Strikes Back" prediction: leapfrog needs
//! less than half the reference machine's operations.

use lowerbounds::engine::checkpoint::{Checkpoint, Digest, ResumableOutcome};
use lowerbounds::engine::resumable::count_slice;
use lowerbounds::engine::{Budget, RunStats};
use lowerbounds::join::{agm, generators, reference, wcoj, Database, JoinQuery, Table};

/// Slice sizes, in ticks; `None` is an unlimited budget.
const SLICES: [Option<u64>; 4] = [Some(1), Some(7), Some(65_536), None];

/// Hostile join instances folded into each aggregate digest.
const HOSTILE_SEEDS: u64 = 120;

fn fold_stats(d: &mut Digest, s: &RunStats) {
    d.u64(s.nodes)
        .u64(s.propagations)
        .u64(s.trie_advances)
        .u64(s.tuples)
        .u64(s.backtracks)
        .u64(s.max_intermediate);
}

/// Folds one chained run of `count_slice` into `d`.
fn fold_run(
    d: &mut Digest,
    q: &JoinQuery,
    db: &Database,
    order: Option<&[String]>,
    slice: Option<u64>,
) {
    let budget = slice.map_or_else(Budget::unlimited, Budget::ticks);
    let search = match wcoj::JoinSearch::new(q, db, order) {
        Ok(search) => search,
        Err(e) => {
            // Broken hostile databases: the typed error is pinned too.
            d.str(&e.to_string());
            return;
        }
    };
    let mut from: Option<Checkpoint> = None;
    let count = loop {
        let (out, stats) = count_slice(&search, &budget, from.as_ref())
            .unwrap_or_else(|e| panic!("a mid-chain resume failed: {e}"));
        fold_stats(d, &stats);
        match out {
            ResumableOutcome::Suspended { checkpoint, .. } => {
                let bytes = checkpoint.to_bytes();
                d.bytes(&bytes);
                from = Some(Checkpoint::from_bytes(&bytes).expect("round trip"));
            }
            done => break done.into_outcome().unwrap_sat(),
        }
    };
    d.u64(count);
    if slice.is_none() {
        let (out, stats) = wcoj::count(q, db, order, &Budget::unlimited()).expect("valid instance");
        d.u64(out.unwrap_sat());
        fold_stats(d, &stats);
    }
}

/// The pinned cases, in table order: generator-major, then shape, then
/// variable order (default, reversed).
fn cases() -> Vec<(String, JoinQuery, Database, Option<Vec<String>>)> {
    let shapes = [
        ("triangle", JoinQuery::triangle(), 40, 8, 36),
        ("4cycle", JoinQuery::cycle(4), 30, 8, 16),
        ("4clique", JoinQuery::clique(4), 30, 6, 16),
    ];
    let mut out = Vec::new();
    for generator in ["uniform", "zipf", "agm"] {
        for (shape, q, rows, domain, agm_n) in &shapes {
            let db = match generator {
                "uniform" => generators::random_database(q, *rows, *domain, 11),
                "zipf" => generators::skewed_database(q, *rows, *domain * 2, 11),
                _ => agm::worst_case_database(q, *agm_n).expect("small n").0,
            };
            let mut reversed = q.attributes();
            reversed.reverse();
            for order in [None, Some(reversed)] {
                let name = format!(
                    "{generator}/{shape}/{}",
                    if order.is_some() {
                        "reversed"
                    } else {
                        "default"
                    }
                );
                out.push((name, q.clone(), db.clone(), order));
            }
        }
    }
    out
}

/// Slice sizes for [`large_cases`].
const LARGE_SLICES: [Option<u64>; 3] = [Some(7_777), Some(65_536), None];

/// Larger triangle joins, one per generator, each needing more than one
/// 65,536-tick slice (the `lb-serve` default); chained only at
/// [`LARGE_SLICES`], so the test stays fast in debug builds.
fn large_cases() -> Vec<(String, JoinQuery, Database)> {
    let q = JoinQuery::triangle();
    vec![
        (
            "uniform".into(),
            q.clone(),
            generators::random_database(&q, 6000, 300, 5),
        ),
        (
            "zipf".into(),
            q.clone(),
            generators::skewed_database(&q, 12000, 2000, 5),
        ),
        (
            "agm".into(),
            q.clone(),
            agm::worst_case_database(&q, 1600).expect("small n").0,
        ),
    ]
}

/// Per-case digests, one row per entry of [`cases`], one column per entry
/// of [`SLICES`].
const CASE_PINS: [[u64; 4]; 18] = [
    [
        0x4379fa6ea2a23c27,
        0x4853b43ecad8017e,
        0xbb442ef10146ff45,
        0xca46d7c34eccecc5,
    ],
    [
        0x0a70a3e34533e2bf,
        0xe65add660bfe0598,
        0x6104a058f5273d50,
        0xb4670b9e037f1cc5,
    ],
    [
        0xb5ad1ce10d613798,
        0xbd6f14d0e55897d6,
        0x495818e633bf76a3,
        0xdb111d6f7fe2dde9,
    ],
    [
        0xb844dba8ed8f5a10,
        0x65d0f46ea850f6b6,
        0x8fc33787fe91e717,
        0xb5ccf74191e0ece9,
    ],
    [
        0x9a175763a87527db,
        0xd1d8c705cad23d00,
        0x9324059c8110fca3,
        0x00f291ad8bdbeec9,
    ],
    [
        0xbdfe99f9f96040b2,
        0xce333f95f862f2be,
        0xb3cc263cd7e2bb66,
        0x394768cdf98d9385,
    ],
    [
        0xbc729a7ebe017f8e,
        0xee79dffc5ed48756,
        0x3b5b7f895969c368,
        0xe12ed77dc9287785,
    ],
    [
        0xec24fd909d068209,
        0xeb6a9a7092bb6405,
        0xff2049c9d1a1b8da,
        0x5f12b728f8d99dc5,
    ],
    [
        0x411160f9ae321142,
        0xc80ada311b5ddaf2,
        0x29a619f251e1d31f,
        0x7775d37619c4fb25,
    ],
    [
        0x50b2003724d71f21,
        0xf3472fd803b6ebe4,
        0x08aea4b1420e6321,
        0xa4b3ae5ae7295525,
    ],
    [
        0xac206764cf575324,
        0x961ae458cbab89c4,
        0x626dd00f8f799433,
        0x71f1fffcfb3ee565,
    ],
    [
        0x80da8b484bba6417,
        0x44f01c895d793c84,
        0x6aef1b98a0cc5a7d,
        0xe11e9cc4f25fd865,
    ],
    [
        0x0062b3a1357398ea,
        0xef7653f19e5a13b1,
        0xad27a67c58c97f5a,
        0x60f308fbc41d5171,
    ],
    [
        0x32de5a1ec45a1612,
        0xea166e085adadd1d,
        0xad27a67c58c97f5a,
        0x60f308fbc41d5171,
    ],
    [
        0x0d8ebce8b292543f,
        0xf9ded29eca2b5403,
        0xf18e1669ca5892e6,
        0xeeac5349b72c916d,
    ],
    [
        0x4db9a3179491c1dc,
        0x526d6c92653ba77f,
        0xf085b9548664dbbe,
        0x3d5eb01642dd3cf5,
    ],
    [
        0xf2ae3622c3dcbe6e,
        0x6f1f4a7ce3662a9e,
        0xd274a6d33f2ea8ff,
        0x631f3490fbbd980d,
    ],
    [
        0x3a447415391a3c6a,
        0x91a75dc31b89e19a,
        0xd274a6d33f2ea8ff,
        0x631f3490fbbd980d,
    ],
];

/// Per-case digests, one row per entry of [`large_cases`], one column per
/// entry of [`LARGE_SLICES`].
const LARGE_PINS: [[u64; 3]; 3] = [
    [0xd18cc79a6df5a678, 0x2483b46673feba5c, 0x1d8c94795b5e361d],
    [0x892d1f15b1f08b22, 0xa647facccfc9c57c, 0x0600a08e1b8fd349],
    [0x50938f4eaedf9774, 0xc2f52e6fdb0b7147, 0x30b7ebde7f9cbb79],
];

/// Aggregate digests over hostile seeds `0..HOSTILE_SEEDS`, one per entry
/// of [`SLICES`].
const HOSTILE_PINS: [u64; 4] = [
    0xf3125b92efe47fb1,
    0x0d81416366ea56d1,
    0x29635717876ba107,
    0x7fa27c8224e97d7b,
];

/// Renders a digest table as Rust source, for the failure message.
fn render<const N: usize>(rows: &[[u64; N]]) -> String {
    rows.iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(|v| format!("{v:#018x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect()
}

#[test]
fn generated_joins_replay_bit_for_bit() {
    let mut got = Vec::new();
    for (_, q, db, order) in cases() {
        let mut row = [0u64; 4];
        for (cell, &slice) in row.iter_mut().zip(SLICES.iter()) {
            let mut d = Digest::new();
            fold_run(&mut d, &q, &db, order.as_deref(), slice);
            *cell = d.finish();
        }
        got.push(row);
    }
    assert!(
        got == CASE_PINS,
        "leapfrog replay changed on generated joins; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn large_joins_replay_bit_for_bit() {
    let mut got = Vec::new();
    for (_, q, db) in large_cases() {
        let mut row = [0u64; 3];
        for (cell, &slice) in row.iter_mut().zip(LARGE_SLICES.iter()) {
            let mut d = Digest::new();
            fold_run(&mut d, &q, &db, None, slice);
            *cell = d.finish();
        }
        got.push(row);
    }
    assert!(
        got == LARGE_PINS,
        "leapfrog replay changed on large joins; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn hostile_joins_replay_bit_for_bit() {
    let instances: Vec<(JoinQuery, Database)> = (0..HOSTILE_SEEDS)
        .flat_map(|seed| {
            [
                lb_chaos::hostile::join_instance(seed),
                lb_chaos::hostile::skewed_join_instance(seed),
            ]
        })
        .collect();
    let mut got = [0u64; 4];
    for (cell, &slice) in got.iter_mut().zip(SLICES.iter()) {
        let mut d = Digest::new();
        for (q, db) in &instances {
            fold_run(&mut d, q, db, None, slice);
        }
        *cell = d.finish();
    }
    assert!(
        got == HOSTILE_PINS,
        "leapfrog replay changed on hostile joins; recomputed row:\n{}",
        render(&[got])
    );
}

/// The disjoint heavy-hitter triangle: one hub value shared by `R.a` and
/// `S.a` plus long disjoint tails. The reference machine probes every tail
/// value; leapfrog gallops over both tails in O(log) seeks.
fn heavy_hitter_db(hub: u64, tail: u64) -> Database {
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
    db
}

/// The named workloads, in [`WORKLOAD_PINS`] order.
fn workloads() -> Vec<(&'static str, JoinQuery, Database)> {
    let triangle = JoinQuery::triangle();
    let cycle4 = JoinQuery::cycle(4);
    let clique4 = JoinQuery::clique(4);
    vec![
        (
            "triangle_uniform",
            triangle.clone(),
            generators::random_binary_database(&triangle, 400, 40, 0xBEEF1),
        ),
        (
            "cycle4_uniform",
            cycle4.clone(),
            generators::random_binary_database(&cycle4, 300, 28, 0xBEEF2),
        ),
        (
            "clique4_uniform",
            clique4.clone(),
            generators::random_binary_database(&clique4, 180, 16, 0xBEEF3),
        ),
        (
            "triangle_agm_worst",
            triangle.clone(),
            agm::worst_case_database(&triangle, 256).expect("small n").0,
        ),
        (
            "triangle_skew_zipf",
            triangle.clone(),
            generators::skewed_binary_database(&triangle, 500, 64, 0xBEEF4),
        ),
        ("skew_heavy_hitter", triangle, heavy_hitter_db(32, 400)),
    ]
}

/// One workload's exact one-shot counters: the answer, then leapfrog's and
/// the reference machine's [`RunStats`] as `[nodes, propagations,
/// trie_advances, tuples, backtracks, max_intermediate]`.
type WorkloadPin = (&'static str, u64, [u64; 6], [u64; 6]);

const WORKLOAD_PINS: [WorkloadPin; 6] = [
    (
        "triangle_uniform",
        707,
        [3053, 0, 5318, 707, 0, 3],
        [3053, 0, 5317, 707, 0, 3],
    ),
    (
        "cycle4_uniform",
        6610,
        [20159, 0, 35670, 6610, 0, 4],
        [20159, 0, 35668, 6610, 0, 4],
    ),
    (
        "clique4_uniform",
        1025,
        [4505, 0, 10509, 1025, 0, 4],
        [4510, 0, 10509, 1025, 0, 4],
    ),
    (
        "triangle_agm_worst",
        4096,
        [4368, 0, 9009, 4096, 0, 3],
        [4368, 0, 8736, 4096, 0, 3],
    ),
    (
        "triangle_skew_zipf",
        424,
        [890, 0, 1745, 424, 0, 3],
        [901, 0, 1735, 424, 0, 3],
    ),
    (
        "skew_heavy_hitter",
        64,
        [97, 0, 198, 64, 0, 3],
        [497, 0, 994, 64, 0, 3],
    ),
];

fn counters(s: &RunStats) -> [u64; 6] {
    [
        s.nodes,
        s.propagations,
        s.trie_advances,
        s.tuples,
        s.backtracks,
        s.max_intermediate,
    ]
}

/// Runs one workload on both engines: the pin it reproduces.
fn measure(name: &'static str, q: &JoinQuery, db: &Database) -> WorkloadPin {
    let unlimited = Budget::unlimited();
    let (out, leapfrog) = wcoj::count(q, db, None, &unlimited).expect("valid instance");
    let (ref_out, reference) = reference::count(q, db, None, &unlimited).expect("valid instance");
    let answer = out.unwrap_sat();
    assert_eq!(ref_out.unwrap_sat(), answer, "{name}: engines disagree");
    (name, answer, counters(&leapfrog), counters(&reference))
}

#[test]
fn workload_op_counts_replay_exactly() {
    let got: Vec<WorkloadPin> = workloads()
        .iter()
        .map(|(name, q, db)| measure(name, q, db))
        .collect();
    assert!(
        got == WORKLOAD_PINS,
        "workload op counts changed; recomputed table:\n{}",
        got.iter()
            .map(|p| format!("    {p:?},\n"))
            .collect::<String>()
    );
}

#[test]
fn workload_pins_cover_every_workload_class() {
    // Uniform, AGM-worst-case and skewed inputs on the triangle, plus the
    // uniform 4-cycle and 4-clique: each class has exactly one pin, in
    // generation order.
    let pinned: Vec<&str> = WORKLOAD_PINS.iter().map(|p| p.0).collect();
    let generated: Vec<&str> = workloads().iter().map(|w| w.0).collect();
    assert_eq!(pinned, generated, "pin table and workloads out of step");
    for required in [
        "triangle_uniform",
        "cycle4_uniform",
        "clique4_uniform",
        "triangle_agm_worst",
        "triangle_skew_zipf",
        "skew_heavy_hitter",
    ] {
        assert!(pinned.contains(&required), "missing workload `{required}`");
    }
}

#[test]
fn heavy_hitter_skew_win_holds() {
    // "Skew Strikes Back": on the heavy-hitter triangle, leapfrog needs
    // less than half the operations of the frozen reference machine.
    let (_, q, db) = workloads().pop().expect("six workloads");
    let (_, _, leapfrog, reference) = measure("skew_heavy_hitter", &q, &db);
    let ops = |s: [u64; 6]| s[..5].iter().sum::<u64>();
    assert!(
        ops(leapfrog) * 2 < ops(reference),
        "skew win eroded: leapfrog {} ops vs reference {}",
        ops(leapfrog),
        ops(reference)
    );
}
