//! Replay pins for the resumable families that `dpll_replay_pins.rs` and
//! `wcoj_replay_pins.rs` do not cover: CSP backtracking (solve and count),
//! triangle scan (find and count) and clique enumeration (find and count).
//! As there, the exact sequence of operations is part of each solver's
//! contract: a served job resumes from checkpoints an earlier process
//! wrote, so a changed search order or frame encoding would invalidate
//! every spooled checkpoint even if every verdict stayed right.
//!
//! Each case chains one mode of a resumable search on one generated instance
//! through slices of a fixed size (1 tick, 7 ticks, or unlimited). Its FNV
//! digest folds in, in order: every slice's [`RunStats`], every suspended
//! checkpoint's `to_bytes()`, and the final outcome with its witness. The
//! unlimited case also folds in the one-shot entry point's outcome and
//! stats. Hostile instances (`lb_chaos::hostile`) get one aggregate digest
//! per row and slice size.
//!
//! The pinned values were generated before the drift gate moved from
//! token fingerprints of the encoders to these pins and the checkpoint
//! goldens; the current code must reproduce them bit for bit. On a
//! mismatch the failure message prints the whole recomputed table.

use lb_chaos::hostile;
use lowerbounds::csp::generators::random_binary_csp;
use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
use lowerbounds::csp::CspInstance;
use lowerbounds::engine::checkpoint::{Checkpoint, CheckpointError, Digest, ResumableOutcome};
use lowerbounds::engine::resumable::{count_slice, find_slice};
use lowerbounds::engine::{Budget, Outcome, RunStats};
use lowerbounds::graph::{generators, Graph};
use lowerbounds::graphalg::{clique, triangle};
use std::fmt::Debug;

/// Slice sizes, in ticks; `None` is an unlimited budget.
const SLICES: [Option<u64>; 3] = [Some(1), Some(7), None];

/// Hostile instances folded into each aggregate digest.
const HOSTILE_SEEDS: u64 = 300;

/// One budget slice of a resumable search, optionally resuming.
type Slice<'a, W> = dyn FnMut(&Budget, Option<&Checkpoint>) -> Result<(ResumableOutcome<W>, RunStats), CheckpointError>
    + 'a;

/// The matching one-shot entry point.
type OneShot<'a, W> = dyn FnMut(&Budget) -> (Outcome<W>, RunStats) + 'a;

fn fold_stats(d: &mut Digest, s: &RunStats) {
    d.u64(s.nodes)
        .u64(s.propagations)
        .u64(s.trie_advances)
        .u64(s.tuples)
        .u64(s.backtracks)
        .u64(s.max_intermediate);
}

/// Folds one chained run of `run` into `d`; the unlimited case also folds
/// in `one_shot`.
fn fold_run<W: Debug>(
    d: &mut Digest,
    run: &mut Slice<'_, W>,
    one_shot: &mut OneShot<'_, W>,
    slice: Option<u64>,
) {
    let budget = slice.map_or_else(Budget::unlimited, Budget::ticks);
    let mut from: Option<Checkpoint> = None;
    let outcome = loop {
        let (out, stats) =
            run(&budget, from.as_ref()).expect("a checkpoint of the same run resumes");
        fold_stats(d, &stats);
        match out {
            ResumableOutcome::Suspended { checkpoint, .. } => {
                let bytes = checkpoint.to_bytes();
                d.bytes(&bytes);
                from = Some(Checkpoint::from_bytes(&bytes).expect("round trip"));
            }
            done => break done.into_outcome(),
        }
    };
    d.str(&format!("{outcome:?}"));
    if slice.is_none() {
        let (out, stats) = one_shot(&Budget::unlimited());
        d.str(&format!("{out:?}"));
        fold_stats(d, &stats);
    }
}

/// One digest per entry of [`SLICES`], each folding every instance.
fn row<I, W: Debug>(
    instances: &[I],
    mut run: impl FnMut(
        &I,
        &Budget,
        Option<&Checkpoint>,
    ) -> Result<(ResumableOutcome<W>, RunStats), CheckpointError>,
    mut one_shot: impl FnMut(&I, &Budget) -> (Outcome<W>, RunStats),
) -> [u64; 3] {
    let mut out = [0u64; 3];
    for (cell, &slice) in out.iter_mut().zip(SLICES.iter()) {
        let mut d = Digest::new();
        for inst in instances {
            fold_run(
                &mut d,
                &mut |b, from| run(inst, b, from),
                &mut |b| one_shot(inst, b),
                slice,
            );
        }
        *cell = d.finish();
    }
    out
}

/// The four backtracking configurations: MRV, then forward checking, each
/// off before on.
fn csp_configs() -> Vec<BacktrackConfig> {
    let mut out = Vec::new();
    for mrv in [false, true] {
        for forward_checking in [false, true] {
            out.push(BacktrackConfig {
                mrv,
                forward_checking,
            });
        }
    }
    out
}

/// Random binary CSPs on `G(8, 0.4)` over a 3-value domain; tightness
/// 0.3 leaves most of them satisfiable with several solutions.
fn csp_instances() -> Vec<CspInstance> {
    (0..4)
        .map(|seed| random_binary_csp(&generators::gnp(8, 0.4, seed), 3, 0.3, seed))
        .collect()
}

/// Rows for one CSP instance list: per config, solve then count.
fn csp_rows(instances: &[CspInstance]) -> Vec<[u64; 3]> {
    let mut out = Vec::new();
    for config in csp_configs() {
        out.push(row(
            instances,
            |inst, b, from| find_slice(&backtracking::CspSearch::new(inst, config), b, from),
            |inst, b| backtracking::solve(inst, config, b),
        ));
        out.push(row(
            instances,
            |inst, b, from| count_slice(&backtracking::CspSearch::new(inst, config), b, from),
            |inst, b| backtracking::count(inst, config, b),
        ));
    }
    out
}

/// Graphs with and without triangles and 4-cliques: random `G(n, p)`,
/// the triangle-free Petersen graph and `K_{4,4}`, and `K_5`.
fn graphs() -> Vec<Graph> {
    let mut out: Vec<Graph> = (0..3).map(|seed| generators::gnp(12, 0.35, seed)).collect();
    out.push(generators::petersen());
    out.push(generators::complete_bipartite(4, 4));
    out.push(generators::clique(5));
    out
}

/// Rows for one graph list: triangle find, triangle count, then clique
/// find and count for k = 3 and k = 4.
fn graph_rows(graphs: &[Graph]) -> Vec<[u64; 3]> {
    let mut out = vec![
        row(
            graphs,
            |g, b, from| find_slice(&triangle::TriangleScan::new(g), b, from),
            triangle::find_triangle_naive,
        ),
        row(
            graphs,
            |g, b, from| count_slice(&triangle::TriangleScan::new(g), b, from),
            triangle::count_triangles,
        ),
    ];
    for k in [3, 4] {
        out.push(row(
            graphs,
            |g, b, from| find_slice(&clique::CliqueSearch::new(g, k), b, from),
            |g, b| clique::find_clique(g, k, b),
        ));
        out.push(row(
            graphs,
            |g, b, from| count_slice(&clique::CliqueSearch::new(g, k), b, from),
            |g, b| clique::count_cliques(g, k, b),
        ));
    }
    out
}

/// Per-instance CSP digests: rows in `instance`-major, then [`csp_rows`]
/// order; one column per entry of [`SLICES`].
const CSP_PINS: [[u64; 3]; 32] = [
    [0x59292a781062597d, 0xcec6a7e3c941c5af, 0x86f9c6cf186a1607],
    [0xb4c513ac44bcdf6a, 0x701048303632bbcf, 0x62edaea0cf7cd509],
    [0x2da95ed9a42ff7a1, 0xda29c3e5bedcb690, 0x77a53915cf98c2eb],
    [0x8b6624e8dceaba98, 0x85625b0ab959cb20, 0x92a1da7a320c8749],
    [0x98c23f560eaa1bef, 0x49fdefb201f05055, 0x86f9c6cf186a1607],
    [0xaba473db73133084, 0x2de560c82394f5b1, 0x62edaea0cf7cd509],
    [0x3c45b0f993fc2453, 0x8d910792d8bc4bb3, 0x2830efe96717b6c7],
    [0x312ae9c996111b48, 0x814d4f2ae817b6d4, 0x497010030de67b0d],
    [0x3ac4d23b649adfdc, 0x913fc31f0d0e2d14, 0x70742ca259e8266d],
    [0x68e7401f8b51cf97, 0xe116ef8232bd6a56, 0x703228fd16a2cbf9],
    [0x54e967133e1ada04, 0xe5015fd30a8b2b53, 0x10ba5a3a7c7da5cd],
    [0x2ee8f59887de9b58, 0x2d2918ac8ec9b533, 0x2b93a8ca974de285],
    [0xde9e08d22e159ac0, 0x9ece6d1b1a18e1e0, 0x70742ca259e8266d],
    [0x6f2be9cfd2508b84, 0x629d07d2ec0dabe4, 0x703228fd16a2cbf9],
    [0xa9c601c42cc30b00, 0x05bef9c3733ae28f, 0x7b8ebde1987fbe45],
    [0xcb50b0a0a4604be9, 0x21768e5bfd81832c, 0x91faeee29b93bf11],
    [0x96c679238e99276b, 0xd9aeb4d34bb72e80, 0x431af3e51e0087c3],
    [0x03ac783717bb8bd9, 0x7a3fb3ad4f2378fd, 0x9b8a1f83db8afd55],
    [0x342a02411654049e, 0x8fa31e452e0fcafb, 0x6a03a98761e4d733],
    [0xbc0953e11009e9af, 0xe2f0990e3fc281f3, 0x9dca48fe064f59c1],
    [0x62d1f7b313a566e5, 0x4466d2779799da31, 0x431af3e51e0087c3],
    [0x6d0ff993212b16b1, 0xfc365e6897b519fa, 0x9b8a1f83db8afd55],
    [0xe8d296e0bdfd7bb6, 0x9bab78fbeaa2650a, 0xbf67e00058a90287],
    [0xb987eaa82194d4ae, 0x33b9a2771ea31605, 0x484cc6629b4835e5],
    [0x04fb32f0c791becb, 0x3f479ee8758fbbe2, 0x9d0a694add24807f],
    [0x8d8b0d186ed5d076, 0xd3cd972de994e8f4, 0xf60f1857d1082df1],
    [0x6a4de1543b74ca67, 0x65639cc12038fafe, 0xae81cd0fb38116d3],
    [0x91f941ba3025fe72, 0x3e356faaf7e195ec, 0x000da7097a9e6d59],
    [0xfdbd1923e228e50c, 0x8d81d4b9664b3879, 0x9d0a694add24807f],
    [0x484320231bad9b0e, 0xe0c23d5e63e51f96, 0xf60f1857d1082df1],
    [0x464d90c996e66e41, 0xb942bca0323c84fd, 0x4feb76e412e46a5f],
    [0x4a0651509ebbc4b8, 0x9a213514462e7da5, 0xdea6e9bcb07bb8f9],
];

/// Aggregate CSP digests over hostile seeds `0..HOSTILE_SEEDS`, in
/// [`csp_rows`] order.
const HOSTILE_CSP_PINS: [[u64; 3]; 8] = [
    [0xe914da1cd45190c3, 0xda36aefd4ed49f66, 0xebd9122e37d03203],
    [0xffe8ca4556969dbf, 0x1779ab6aa5081f35, 0x72d9fcd4838e189f],
    [0x40fb3b05e5070dfa, 0x9e7f274e7d22c023, 0xcc202059edea797b],
    [0x94e1954754acff10, 0x17426cc4527abb55, 0xbed0c736d0f5202b],
    [0xfaa3067575c6ef61, 0x30ac7268c9a58d33, 0xebd9122e37d03203],
    [0xf267ec6aed5b5e6b, 0x90aaf463db593120, 0x72d9fcd4838e189f],
    [0xf4ce9ba84f336097, 0x52d0d7f58505ecdf, 0xbbe7c9b9aadb9f03],
    [0x5e2700fa62c5ceb9, 0xdd8d4caf87290b79, 0x5200674ef3db9da7],
];

/// Per-graph digests: rows in graph-major, then [`graph_rows`] order.
const GRAPH_PINS: [[u64; 3]; 36] = [
    [0x99ee6c6c63f7e79c, 0x99ee6c6c63f7e79c, 0x0da8a30dd6562a8d],
    [0xa943a98a08f0261e, 0x6968649efb7849a1, 0x1f9af7e5636c7a17],
    [0x2a7e5c66834a08ef, 0xf7e0244a51f8b1da, 0xffc92150a8df981d],
    [0x65e541186ff68db3, 0x27b9c77adba9c655, 0xf31084f3765b98bb],
    [0x9a1a18ebf857a34a, 0x593287fd1085ccc6, 0x336ab1f3f41c6453],
    [0xb3a1479c09a35bc2, 0x94e42778d01ca59e, 0x3384b3ebeb309bad],
    [0x3f6bbc75b5cd27fe, 0x97e507821b7952d9, 0x93bd160e5cbeb597],
    [0xeeba46b391c487e4, 0x19911740073535a1, 0xed6cbfbdff4f0115],
    [0xc2379274194bc543, 0xee23b5e928bef67d, 0x44881a37d1ad8327],
    [0x93db744ec936f53e, 0xf548721aa309a9d7, 0x9be0f7d14e1e5055],
    [0xaa80c527d18700bb, 0xd6d97c4c72e9cf8a, 0x9b2cd825f41f5e25],
    [0x7f56883a3c70710e, 0x8f50abae964198cd, 0xbb2cc49f9d839185],
    [0x57b72c8af8f086d0, 0x57b72c8af8f086d0, 0x2e860b698370b9e9],
    [0x86b1d1a5d5311d1f, 0x531e2dbdba9f6cea, 0xc0f88b1a7b054c67],
    [0x755f619947916927, 0xc9bf61fb34d63790, 0x5f06046a80806669],
    [0x4c348cafab2662da, 0xb630804af2262fd0, 0x246284d59498f45b],
    [0xa756740217c4a0cf, 0x0902ae0f4b96ae0f, 0x71596727041bff95],
    [0x00c7c085bf2b00a7, 0xc5720da5112eaf84, 0x12aaa140508a8155],
    [0xa3682c4185797b81, 0x291c17306534f351, 0x11a19791a72ee445],
    [0xfe7e2ad1da4f23bf, 0xe56c31160e9c3d43, 0x2ca5f19841d4ee75],
    [0x3270a651965a2e4f, 0xf93236f2c62967dc, 0x16bebcaa57a64c85],
    [0xb5cfaa711439ad43, 0xd1e0853b66a3a63d, 0x1803aac90963c865],
    [0xa37b0c4c998b5b84, 0x69932ed9af74e521, 0x16bebcaa57a64c85],
    [0xbff7cacb3001f610, 0x320baebaa90e9627, 0x1803aac90963c865],
    [0x93c9259e9a9748c8, 0x4beb17e2ecedb992, 0x05ee1d648aa76f25],
    [0x9fc4d09be884caa8, 0x19ec0472bee78931, 0x0174b671bc338e85],
    [0xabc1a6ec01cc17d5, 0x2e4e2a0b7cf79e09, 0x342b600d7b8aa875],
    [0x32dc5b8b710208f9, 0xe49bd16498eb7c1a, 0x98e9371681fb9505],
    [0x3cecd8461dc0129e, 0xff4be2bfed761615, 0x342b600d7b8aa875],
    [0x84d9079fff781cad, 0x7414cebef1e64932, 0x98e9371681fb9505],
    [0xab9399df48b278f7, 0xab9399df48b278f7, 0xde9eb6e04636b7e5],
    [0xff00f645e38743dc, 0xe23daad590b0ebb4, 0x2ab6caf3f4744fc7],
    [0x6ed6786402e55c56, 0xa428fadb66944735, 0xf4661e414fc85625],
    [0xfc27d7efc95c2e20, 0x5c2b03e6bc0059a2, 0xc0f88b1a7b054c67],
    [0x432d9d2a210305c7, 0x0dd3f4af8f941ee7, 0xc1978da23563829d],
    [0xf6bffbad258a630f, 0x6656a1da811cc23b, 0xa0b3b7b6753b7055],
];

/// Aggregate graph digests over hostile seeds `0..HOSTILE_SEEDS`, in
/// [`graph_rows`] order.
const HOSTILE_GRAPH_PINS: [[u64; 3]; 6] = [
    [0x5c1579a69c0cf341, 0x00a078af5e406509, 0x2b6ca2a7310dce6f],
    [0x2bbd7e07141a8109, 0x2dcb580a6e33a43c, 0x48a2a8341245a79b],
    [0x10639912a6efd480, 0x3b19a82416c7807d, 0x80b5d19c5cb54bdf],
    [0x9154cb39070a226b, 0xfc3f0831f6ed054a, 0x9b09fa35aea737ef],
    [0x47e7f208636b46e6, 0x9d067b58c703ea8f, 0x7a51a92307578c4f],
    [0x080c43a89cf9c853, 0xbf7dd5e11159fe1c, 0xa62446ade7c51ca3],
];

/// Renders a digest table as Rust source, for the failure message.
fn render(rows: &[[u64; 3]]) -> String {
    rows.iter()
        .map(|r| format!("    [{:#018x}, {:#018x}, {:#018x}],\n", r[0], r[1], r[2]))
        .collect()
}

#[test]
fn csp_backtracking_replays_bit_for_bit() {
    let got: Vec<[u64; 3]> = csp_instances().chunks(1).flat_map(csp_rows).collect();
    assert!(
        got == CSP_PINS,
        "CSP backtracking replay changed; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn hostile_csp_replays_bit_for_bit() {
    let instances: Vec<CspInstance> = (0..HOSTILE_SEEDS).map(hostile::csp).collect();
    let got = csp_rows(&instances);
    assert!(
        got == HOSTILE_CSP_PINS,
        "CSP backtracking replay changed on hostile instances; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn triangle_and_clique_replay_bit_for_bit() {
    let got: Vec<[u64; 3]> = graphs().chunks(1).flat_map(graph_rows).collect();
    assert!(
        got == GRAPH_PINS,
        "triangle/clique replay changed; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn hostile_graphs_replay_bit_for_bit() {
    let graphs: Vec<Graph> = (0..HOSTILE_SEEDS).map(hostile::graph).collect();
    let got = graph_rows(&graphs);
    assert!(
        got == HOSTILE_GRAPH_PINS,
        "triangle/clique replay changed on hostile graphs; recomputed table:\n{}",
        render(&got)
    );
}
