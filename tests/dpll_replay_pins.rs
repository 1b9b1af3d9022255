//! Replay pins for the DPLL search: the exact sequence of operations, not
//! just the verdict, is part of the solver's contract. A served SAT job
//! resumes from checkpoints written by an earlier process, so a change to
//! the search order would silently invalidate every spooled checkpoint
//! (and every recorded `RunStats`) even if all verdicts stayed right.
//!
//! Each case runs one `random_ksat` instance under one of the eight
//! [`DpllConfig`]s, chained through `find_slice` with a fixed slice
//! size (1 tick, 7 ticks, or unlimited). Its FNV digest folds in, in order:
//! every suspended checkpoint's `to_bytes()`, every slice's [`RunStats`],
//! and the final verdict with its model. The unlimited case also folds in
//! the one-shot [`DpllSolver::solve`] result. Hostile formulas (duplicate
//! clauses, tautologies, unit widths) get one aggregate digest per
//! configuration and slice size.
//!
//! The pinned values were generated by the clause-rescanning DPLL, before
//! the solver switched to incrementally maintained clause counts; the
//! incremental solver must reproduce them bit for bit. On a mismatch the
//! failure message prints the whole recomputed table.

use lb_chaos::hostile;
use lowerbounds::engine::checkpoint::{Checkpoint, Digest, ResumableOutcome};
use lowerbounds::engine::resumable::find_slice;
use lowerbounds::engine::{Budget, RunStats};
use lowerbounds::sat::generators::random_ksat;
use lowerbounds::sat::{Branching, CnfFormula, DpllConfig, DpllSolver};

/// Slice sizes, in ticks; `None` is an unlimited budget.
const SLICES: [Option<u64>; 3] = [Some(1), Some(7), None];

/// `random_ksat(N, M, 3, seed)` near the 3-SAT threshold (M/N ≈ 4.26), so
/// both verdicts, conflicts, units and pure literals all occur.
const N: usize = 12;
const M: usize = 51;
const SEEDS: u64 = 8;

/// Hostile formulas folded into each aggregate digest.
const HOSTILE_SEEDS: u64 = 300;

/// The eight configurations, in a fixed order: unit propagation, then
/// pure literals, then branching, each off/first before on/second.
fn all_configs() -> Vec<DpllConfig> {
    let mut out = Vec::new();
    for unit_propagation in [false, true] {
        for pure_literal in [false, true] {
            for branching in [Branching::FirstUnassigned, Branching::MostFrequent] {
                out.push(DpllConfig {
                    unit_propagation,
                    pure_literal,
                    branching,
                });
            }
        }
    }
    out
}

fn fold_stats(d: &mut Digest, s: &RunStats) {
    d.u64(s.nodes)
        .u64(s.propagations)
        .u64(s.trie_advances)
        .u64(s.tuples)
        .u64(s.backtracks)
        .u64(s.max_intermediate);
}

fn fold_verdict(d: &mut Digest, model: Option<Vec<bool>>) {
    match model {
        Some(model) => {
            d.str("sat");
            for b in model {
                d.u64(u64::from(b));
            }
        }
        None => {
            d.str("unsat");
        }
    }
}

/// Folds one chained run of `solver` on `f` into `d`.
fn fold_run(d: &mut Digest, solver: &DpllSolver, f: &CnfFormula, slice: Option<u64>) {
    let budget = slice.map_or_else(Budget::unlimited, Budget::ticks);
    let mut from: Option<Checkpoint> = None;
    let search = solver.search(f);
    let model = loop {
        let (out, stats) = find_slice(&search, &budget, from.as_ref())
            .expect("a checkpoint from the same solver resumes");
        fold_stats(d, &stats);
        match out {
            ResumableOutcome::Suspended { checkpoint, .. } => {
                let bytes = checkpoint.to_bytes();
                d.bytes(&bytes);
                from = Some(Checkpoint::from_bytes(&bytes).expect("round trip"));
            }
            done => break done.into_outcome().unwrap_decided(),
        }
    };
    fold_verdict(d, model);
    if slice.is_none() {
        let (out, stats) = solver.solve(f, &Budget::unlimited());
        fold_verdict(d, out.unwrap_decided());
        fold_stats(d, &stats);
    }
}

/// Per-case digests, one row per `(seed, config)` in `seed`-major order,
/// one column per entry of [`SLICES`].
const RANDOM_PINS: [[u64; 3]; 64] = [
    [0xedcc49aa537b07f1, 0x9edf74ae09fba451, 0x1f986269612b0125],
    [0xefe964c21a21f656, 0xdba95824390f4296, 0xe3a89349b29de765],
    [0xa82fa62dfe7a4e10, 0x141cd8ae92be0747, 0x019b0d9e60917edd],
    [0x5ae6a46f47347180, 0x320c65fa163ff88d, 0x9a08ec59ab99469d],
    [0xec94104ee6f8aee4, 0x64c241d3931ebd2d, 0x9634336a09342edd],
    [0x16cc8ea09149cb06, 0x3de9888620c3e33e, 0x3e89a702e05f7665],
    [0xc2b07c6d4e9126e3, 0x5625b807332ddc32, 0x9634336a09342edd],
    [0x19ec5ed1804e090d, 0x7cf72e23520ac77d, 0x3e89a702e05f7665],
    [0xf700c8140a8cd1c0, 0xcd1e5eb46f913bf4, 0xb047f493ff4f0523],
    [0xdde5f108b81e6adb, 0x7cbfca638961fe3c, 0x7332c42e8ce2767d],
    [0xd02499083c20abfd, 0xfe821704ccc036f2, 0xe2e5f99ebb8ba48f],
    [0x02bfe81bce735dbc, 0xb07cc840cb0cac35, 0xb89330ad1a00370d],
    [0xf2d41772d0aa908c, 0x326fe7cf63d12f1c, 0x0d3fb1d05324957d],
    [0xcc73473f668f7454, 0x7315a7bdc5fc5086, 0x2bfaeac227245c5d],
    [0x23dd8d6d0118fb30, 0xcf03bc0d3774076d, 0x0d3fb1d05324957d],
    [0xa94120cbb69afa3a, 0x1e56749bb242a3cc, 0xb85d0852689bdc8f],
    [0x03569124a149c9d1, 0x0d7145e03128e3b6, 0x652a0c0878380765],
    [0x8463d0a9bb7a1cc4, 0x4ee20ba98d90a9dd, 0xa1cac88ccb78b97d],
    [0xed4b6439c2cbc9f3, 0x78d9c8a090c55c3c, 0x533720aeaae6506d],
    [0xae0416f48d42d5f2, 0x4d1dc5ba061c7700, 0x352cf113e46ae5ad],
    [0x4a613860e47cce06, 0x90f80e0cf9a064d7, 0xdbfe513c7039195d],
    [0x523a23eef0b5f408, 0x77813f1dfa15e2c4, 0x772170399e8fc6a5],
    [0x11f8585bfdf751d8, 0x764e6e862b628599, 0xd1d14f485c0f958d],
    [0x78b209e0d36b1195, 0x1548595059ecd248, 0xc54ad319920afa25],
    [0xb60f2bb6312f799a, 0xc8fe4a7d8022bf90, 0x7b211bbdea72e255],
    [0xf8f2dda6b8473515, 0x39f329670b620dcf, 0x0deea5692a5cb145],
    [0xb1dd5fd9892a044a, 0xf62a3b4754879690, 0x8db19057789fbc55],
    [0x5f2d47b9f24d37c9, 0xe43a8e5db82850ce, 0xa5bb4a35c861ad05],
    [0xaf5dcad38a37a56e, 0xe5d01a3ba2b107fc, 0xad5bd1f81ff98205],
    [0x9a9d402aadddaeb1, 0x8c25a77f1bbc3f7b, 0x1aac7526e2aa3525],
    [0xa702141d16d5d80a, 0xf10ace2375e104a6, 0xad5bd1f81ff98205],
    [0x79558d5e0e3c4b0d, 0x7e977e983e248095, 0x1aac7526e2aa3525],
    [0x03bd4df4e061cec9, 0x997a04217be17b69, 0x26453a76a4bb499d],
    [0x673cb4d4f0244d02, 0x2db9101ebf01c0dd, 0x288d0a491cb61ffd],
    [0xadd95399968b6195, 0x37574c85609e5818, 0x15a1076953d4d08f],
    [0x77639556ec9b6270, 0x963c46f4a933b5df, 0xe65ae88781db7acf],
    [0xabc971f208f9b328, 0xbbff0b42896c8565, 0x3f82c2bb81953c0d],
    [0xbee92a236ccb24ba, 0xf42c8a714fd21379, 0x248f8c40641f2e1d],
    [0xb56f4722cc0bd190, 0xd20b9fae4f6df730, 0x8fae04c61f01ea2d],
    [0xe423de3a8ae49731, 0xbe88b06b19133fbe, 0x248f8c40641f2e1d],
    [0xe2839f3cca448c7d, 0xecfd8649a92712a6, 0xdaa79b8db3e87ce5],
    [0x235e04916d729f39, 0x999202e1e1ba2fcf, 0xec0654d6801b543d],
    [0xa96a7766f384817e, 0xa7cdf99617973a89, 0x0704c5d8b2f3ee4d],
    [0x5bbc8be9408d73eb, 0x2ee52be5657e8945, 0x7ea6f0b9780be39d],
    [0x841c80055a42d811, 0x24b9053de6f1c560, 0xa9d12e77760d53e5],
    [0xbf6924d255fb31f6, 0x783bc0c2d014ed2d, 0x7dcea06e7399737f],
    [0x641ac1e9a85dc2ac, 0x75ebdfffbb2ff3e1, 0xa9d12e77760d53e5],
    [0xa4c499a451b9ef09, 0xb3634b02e63b60a3, 0x7dcea06e7399737f],
    [0x2b63a414c6244a3a, 0x6ad52fc4f7af5d9f, 0xac9a83c3352453fd],
    [0x476d9f8e3c7c01cd, 0x0071686b69522e50, 0xfbc30aab10f1e18b],
    [0x78284fc72fb9ce1e, 0xe4bf1d28692624ba, 0x52441ee54c3b70fd],
    [0x57fd968d973a3bd8, 0xed1ff42333193b61, 0xf3896bbbeef25c8f],
    [0x8ecb3f4f58fba3c8, 0x53f1c0db6db53586, 0xf4fcac7fc21118db],
    [0x28bab13981b05983, 0xbe844e863bcc8c74, 0x442c4b66c57d2a9f],
    [0x17bc8a5ad10a9a6a, 0xdb2b1d50cbfd42d6, 0xf4fcac7fc21118db],
    [0xd30b42bba4e07ebe, 0xa904077b024510a4, 0x442c4b66c57d2a9f],
    [0x80c4db5fecc852b5, 0x56049deefb3009f1, 0x4ebde84bf2a08cb5],
    [0xcecd982cc5023362, 0x433aec3a2005e07a, 0xb030dc7073a56ea5],
    [0x43fd321ae574398e, 0x2ab1647d5d7b1166, 0xcaf6a9aaf8b5de45],
    [0x78b1e3c854585f2c, 0x31a9adb2a6295586, 0x5551de5b382ea445],
    [0xf148409cc71013af, 0x762e5fd96889508b, 0xaed9b4a029491bd5],
    [0x126665a7866a4042, 0x084d483cfbc1e4f0, 0x9769df0ba707cfc5],
    [0x6a598bdb5f440795, 0xa0a9158efee5be7f, 0xaed9b4a029491bd5],
    [0xe698a9d7426c3d4b, 0xda2d5c36fa24ca2e, 0x54a3957e7b56dac5],
];

/// Aggregate digests over hostile seeds `0..HOSTILE_SEEDS`, one row per
/// config, one column per entry of [`SLICES`].
const HOSTILE_PINS: [[u64; 3]; 8] = [
    [0x2286dc38c585686b, 0xf9094c0370083fa9, 0x32eefcd3ec761a53],
    [0x6368bb4e04bc21f3, 0x9b1080472159a933, 0x7c245ab5e92f7f2b],
    [0x958e6a0b1c7ab1e3, 0x5207ba565bfde952, 0x4725e493acf3e677],
    [0x77ce400d2fad5c14, 0x63441935a8dad1c1, 0x1b7ee364abf5f171],
    [0xd5635278bb1d28d5, 0x5a45956f50a2b451, 0x09f23236c5d1e271],
    [0x20ad199f12f12920, 0xab812ec90432ae3c, 0xfdc73f3c0a592c1b],
    [0x46c7531d554ca846, 0x9ad6a7e83269f297, 0x4377b011af1917b1],
    [0x969e7684dbf980ae, 0x856ad731ef82b19f, 0x4257cfc5d8b8fa23],
];

/// Renders a digest table as Rust source, for the failure message.
fn render(rows: &[[u64; 3]]) -> String {
    rows.iter()
        .map(|r| format!("    [{:#018x}, {:#018x}, {:#018x}],\n", r[0], r[1], r[2]))
        .collect()
}

#[test]
fn random_ksat_replays_bit_for_bit() {
    let configs = all_configs();
    let mut got = Vec::new();
    for seed in 0..SEEDS {
        let f = random_ksat(N, M, 3, seed);
        for &cfg in &configs {
            let solver = DpllSolver::new(cfg);
            let mut row = [0u64; 3];
            for (cell, &slice) in row.iter_mut().zip(SLICES.iter()) {
                let mut d = Digest::new();
                fold_run(&mut d, &solver, &f, slice);
                *cell = d.finish();
            }
            got.push(row);
        }
    }
    assert!(
        got == RANDOM_PINS,
        "DPLL replay changed on random 3-SAT; recomputed table:\n{}",
        render(&got)
    );
}

#[test]
fn hostile_cnf_replays_bit_for_bit() {
    let formulas: Vec<CnfFormula> = (0..HOSTILE_SEEDS).map(hostile::cnf).collect();
    let mut got = Vec::new();
    for cfg in all_configs() {
        let solver = DpllSolver::new(cfg);
        let mut row = [0u64; 3];
        for (cell, &slice) in row.iter_mut().zip(SLICES.iter()) {
            let mut d = Digest::new();
            for f in &formulas {
                fold_run(&mut d, &solver, f, slice);
            }
            *cell = d.finish();
        }
        got.push(row);
    }
    assert!(
        got == HOSTILE_PINS,
        "DPLL replay changed on hostile CNF; recomputed table:\n{}",
        render(&got)
    );
}
