//! Regenerates every experiment table of EXPERIMENTS.md (E1–E12).
//!
//! Usage: `cargo run --release -p lb-bench --bin experiments [e1|e2|…|e13|all|smoke]`
//!
//! Each experiment prints a markdown table plus a fitted exponent, the
//! quantity the corresponding theorem of the paper speaks about.
//!
//! `smoke` is the CI entry point: a seconds-fast sanity pass built on the
//! engine layer's machine-independent operation counters instead of
//! wall-clock sweeps, so it is stable on noisy shared runners.

use lb_bench::{adversarial_triangle_db, ktree_csp, partitioned_clique_csp, random_strings};
use lowerbounds::engine::Budget;
use lowerbounds::experiments::{
    fit_exponent, fmt_duration, print_table, time, time_min, SamplePoint,
};
use lowerbounds::graph::generators;
use lowerbounds::join::{agm, binary, wcoj, JoinQuery};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "smoke" {
        smoke();
        return;
    }
    let all = which == "all";
    let run = |name: &str| all || which == name;
    if run("e1") {
        e1_agm_bound();
    }
    if run("e2") {
        e2_wcoj_vs_binary();
    }
    if run("e3") {
        e3_freuder();
    }
    if run("e4") {
        e4_schaefer();
    }
    if run("e5") {
        e5_special();
    }
    if run("e6") {
        e6_clique();
    }
    if run("e7") {
        e7_csp_treewidth();
    }
    if run("e8") {
        e8_domset();
    }
    if run("e9") {
        e9_editdist_ov();
    }
    if run("e10") {
        e10_matmul_triangle();
    }
    if run("e11") {
        e11_hyperclique();
    }
    if run("e12") {
        e12_ayz_sparse();
    }
    if run("e13") {
        e13_acyclic();
    }
}

/// `smoke` — the CI sanity pass: one budgeted solver per layer over a small
/// size grid, op-count exponents checked with [`stats_sweep`], and a
/// zero-tick budget checked to exhaust instead of mis-reporting a verdict.
fn smoke() {
    use lowerbounds::csp::solver::treewidth_dp;
    use lowerbounds::experiments::stats_sweep;
    use lowerbounds::graphalg::clique::find_clique;
    use lowerbounds::sat::{generators as sgen, DpllSolver};

    let bu = Budget::unlimited();

    // Joins: WCOJ on the AGM worst-case triangle database hits the N^{3/2}
    // output, and its tuple counter scales with the same exponent. At each
    // size the split `count` must equal the sequential machine exactly, in
    // answer and in every counter.
    let pts = stats_sweep(
        &[16, 32, 64, 1024, 4096],
        |n| {
            let q = JoinQuery::triangle();
            let (db, expected) = agm::worst_case_database(&q, n as u64).unwrap();
            let (out, stats) = wcoj::count(&q, &db, None, &bu).unwrap();
            let sequential = wcoj::join_foreach(&q, &db, None, &bu, |_| {}).unwrap();
            assert_eq!((out, stats), sequential, "split count at n = {n}");
            assert_eq!(u128::from(out.unwrap_sat()), expected);
            stats
        },
        |s| s.tuples,
    );
    let fit = fit_exponent(&pts).unwrap();
    assert!(
        fit.exponent > 1.2 && fit.exponent < 1.8,
        "wcoj tuple exponent {:.2} departs from 3/2",
        fit.exponent
    );
    println!(
        "smoke: wcoj tuple exponent {:.2} (theory 1.5); split count equals the sequential machine",
        fit.exponent
    );

    // SAT: DPLL decides, and a zero-tick budget exhausts instead of lying.
    let f = sgen::random_ksat(12, 40, 3, 7);
    let solver = DpllSolver::default();
    assert!(!solver.solve(&f, &bu).0.is_exhausted());
    assert!(solver.solve(&f, &Budget::ticks(0)).0.is_exhausted());
    println!("smoke: dpll decides; zero-tick budget exhausts");

    // CSP: Freuder's treewidth DP agrees with brute force on a k-tree CSP.
    let inst = ktree_csp(2, 10, 3, 7);
    let dp = treewidth_dp::solve_auto(&inst, &bu).0.unwrap_sat();
    let brute = lowerbounds::csp::solver::bruteforce::count(&inst, &bu)
        .0
        .unwrap_sat();
    assert_eq!(dp.count, brute);
    assert!(treewidth_dp::solve_auto(&inst, &Budget::ticks(0))
        .0
        .is_exhausted());
    println!("smoke: treewidth DP count {brute} matches brute force");

    // Graph algorithms: clique search respects the budget.
    let g = generators::gnp(24, 0.5, 7);
    let _ = find_clique(&g, 3, &bu).0.unwrap_decided();
    assert!(find_clique(&g, 3, &Budget::ticks(0)).0.is_exhausted());
    println!("smoke: clique search budgeted");

    println!("smoke: all checks passed");
}

/// E13 — acyclic queries (§4): Yannakakis is linear in input + output;
/// non-semi-join-reduced plans can materialize arbitrarily large dead
/// intermediates on the same inputs.
fn e13_acyclic() {
    use lowerbounds::join::acyclic::{is_empty_acyclic, yannakakis};
    use lowerbounds::join::{Atom, Database, Table};
    let path_query = |len: usize| {
        JoinQuery::new(
            (0..len)
                .map(|i| Atom {
                    relation: format!("R{i}"),
                    attrs: vec![format!("x{i}"), format!("x{}", i + 1)],
                })
                .collect(),
        )
    };
    let mut rows = Vec::new();
    let mut yk_pts = Vec::new();
    for &s in &[50u64, 100, 200, 400] {
        // Dead-end 3-hop path: two s×s grids and a non-matching tail.
        let q = path_query(3);
        let mut grid = Table::new(2);
        for i in 0..s {
            for j in 0..s {
                grid.push(&[i, j]);
            }
        }
        grid.normalize();
        let mut db = Database::new();
        db.insert("R0", grid.clone());
        db.insert("R1", grid);
        db.insert("R2", Table::from_rows(2, vec![vec![u64::MAX - 1, 0]]));
        let n = (s * s) as f64;

        let bu = Budget::unlimited();
        let (ans, t_yk) = time_min(2, || yannakakis(&q, &db, &bu).unwrap().0.unwrap_sat()).unwrap();
        assert!(ans.is_empty());
        let (_, t_sweep) = time_min(2, || is_empty_acyclic(&q, &db, &bu).unwrap()).unwrap();
        // The sequential machine: `count` may use every core, Yannakakis one.
        let (_, t_gj) = time_min(2, || {
            wcoj::join_foreach(&q, &db, None, &bu, |_| {}).unwrap()
        })
        .unwrap();
        // Binary plan materializes s³ tuples; keep it to small sizes.
        let bin_cell = if s <= 200 {
            let ((_, stats), t_bin) = time(|| binary::left_deep_join(&q, &db, &bu).unwrap());
            format!("{} ({} tuples)", fmt_duration(t_bin), stats.tuples)
        } else {
            "—".to_string()
        };
        yk_pts.push(SamplePoint {
            size: n,
            value: t_yk.as_secs_f64(),
        });
        rows.push(vec![
            format!("{}", s * s),
            fmt_duration(t_yk),
            fmt_duration(t_sweep),
            fmt_duration(t_gj),
            bin_cell,
        ]);
    }
    let fit = fit_exponent(&yk_pts).unwrap();
    rows.push(vec![
        "fit".into(),
        format!("N^{:.2} (theory 1)", fit.exponent),
        String::new(),
        String::new(),
        String::new(),
    ]);
    println!(
        "{}",
        print_table(
            "E13 — acyclic queries: Yannakakis linear time vs unreduced plans (§4)",
            &[
                "N per relation",
                "Yannakakis",
                "emptiness sweep",
                "generic join",
                "binary plan"
            ],
            &rows
        )
    );
}

/// E1 — Theorems 3.1/3.2: worst-case answer size is exactly N^{ρ*}.
fn e1_agm_bound() {
    let mut rows = Vec::new();
    let mut fits = Vec::new();
    // Per-query N grids keep the materialized answers below ~5M tuples
    // (star-3 has ρ* = 3, so its answers grow as N³).
    let grids: [(&str, JoinQuery, [u64; 4]); 4] = [
        ("triangle", JoinQuery::triangle(), [64, 256, 1024, 4096]),
        ("4-cycle", JoinQuery::cycle(4), [16, 64, 256, 1024]),
        ("star-3", JoinQuery::star(3), [8, 24, 64, 160]),
        ("LW(4)", JoinQuery::loomis_whitney(4), [64, 256, 1024, 4096]),
    ];
    for (name, q, ns) in grids {
        let rho = agm::rho_star(&q).unwrap();
        let mut pts = Vec::new();
        for &n in &ns {
            let (db, predicted) = agm::worst_case_database(&q, n).unwrap();
            let measured = wcoj::count(&q, &db, None, &Budget::unlimited())
                .unwrap()
                .0
                .unwrap_sat();
            assert_eq!(measured as u128, predicted);
            let bound = agm::agm_bound(&q, n).unwrap();
            pts.push(SamplePoint {
                size: n as f64,
                value: measured as f64,
            });
            rows.push(vec![
                name.to_string(),
                n.to_string(),
                format!("{rho}"),
                format!("{bound:.0}"),
                measured.to_string(),
                format!("{:.3}", measured as f64 / bound),
            ]);
        }
        let fit = fit_exponent(&pts).unwrap();
        fits.push(format!(
            "{name}: fitted answer exponent {:.3} (ρ* = {:.3}, R² = {:.4})",
            fit.exponent,
            rho.to_f64(),
            fit.r_squared
        ));
    }
    println!(
        "{}",
        print_table(
            "E1 — AGM bound tightness (Theorems 3.1–3.2)",
            &["query", "N", "ρ*", "N^ρ* bound", "measured answer", "ratio"],
            &rows
        )
    );
    for f in fits {
        println!("  {f}");
    }
    println!();
}

/// E2 — Theorem 3.3: Generic Join vs a binary hash-join plan on the
/// adversarial triangle databases.
fn e2_wcoj_vs_binary() {
    let mut rows = Vec::new();
    let mut wcoj_pts = Vec::new();
    let mut bin_pts = Vec::new();
    for &n in &[400u64, 1600, 6400, 25600, 102400] {
        let (q, db, answer) = adversarial_triangle_db(n);
        let bu = Budget::unlimited();
        // The sequential machine: `count` may use every core, the binary
        // plan one.
        let (count, t_wcoj) = time_min(3, || {
            wcoj::join_foreach(&q, &db, None, &bu, |_| {})
                .unwrap()
                .0
                .unwrap_sat()
        })
        .unwrap();
        assert_eq!(count, answer);
        let ((_, stats), t_bin) =
            time_min(3, || binary::left_deep_join(&q, &db, &bu).unwrap()).unwrap();
        wcoj_pts.push(SamplePoint {
            size: n as f64,
            value: t_wcoj.as_secs_f64(),
        });
        bin_pts.push(SamplePoint {
            size: n as f64,
            value: t_bin.as_secs_f64(),
        });
        rows.push(vec![
            n.to_string(),
            answer.to_string(),
            fmt_duration(t_wcoj),
            fmt_duration(t_bin),
            stats.max_intermediate.to_string(),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E2 — worst-case optimal join vs binary plan (Theorem 3.3)",
            &[
                "N",
                "answer",
                "generic join",
                "binary plan",
                "max intermediate"
            ],
            &rows
        )
    );
    let fw = fit_exponent(&wcoj_pts).unwrap();
    let fb = fit_exponent(&bin_pts).unwrap();
    println!(
        "  generic join time exponent {:.2} (theory ≈ 1); binary plan {:.2} (theory 1.5)",
        fw.exponent, fb.exponent
    );
    println!();
}

/// E3 — Theorem 4.2: Freuder's DP scales as |D|^{k+1}; heuristic ablation.
fn e3_freuder() {
    use lowerbounds::csp::solver::treewidth_dp;
    use lowerbounds::graph::treewidth::{from_elimination_order, min_degree_order, min_fill_order};
    let mut rows = Vec::new();
    for k in [1usize, 2, 3] {
        let mut pts = Vec::new();
        for d in [2usize, 3, 4, 6, 8] {
            let inst = ktree_csp(k, 24, d, 7 + k as u64);
            let (result, t) = time_min(3, || {
                treewidth_dp::solve_auto(&inst, &Budget::unlimited())
                    .0
                    .unwrap_sat()
            })
            .unwrap();
            pts.push(SamplePoint {
                size: d as f64,
                value: t.as_secs_f64(),
            });
            rows.push(vec![
                k.to_string(),
                d.to_string(),
                result.count.to_string(),
                fmt_duration(t),
            ]);
        }
        let fit = fit_exponent(&pts).unwrap();
        rows.push(vec![
            k.to_string(),
            "fit".into(),
            format!("exponent {:.2}", fit.exponent),
            format!("theory ≤ {}", k + 1),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E3 — Freuder's |D|^{k+1} dynamic program (Theorem 4.2)",
            &["k (treewidth)", "|D|", "solutions", "DP time"],
            &rows
        )
    );
    // Ablation: decomposition heuristic quality on random graphs.
    let mut ab = Vec::new();
    for seed in 0..5u64 {
        let g = generators::gnp(40, 0.12, seed);
        let wd = from_elimination_order(&g, &min_degree_order(&g)).width();
        let wf = from_elimination_order(&g, &min_fill_order(&g)).width();
        ab.push(vec![seed.to_string(), wd.to_string(), wf.to_string()]);
    }
    println!(
        "{}",
        print_table(
            "E3a — ablation: elimination heuristics on G(40, 0.12)",
            &["seed", "min-degree width", "min-fill width"],
            &ab
        )
    );
}

/// E4 — Schaefer (§4): polynomial classes vs NP-hard 3SAT, plus the DPLL
/// feature ablation.
fn e4_schaefer() {
    use lowerbounds::sat::schaefer::{
        solve_in_class, BoolCspInstance, BooleanRelation, SchaeferClass,
    };
    use lowerbounds::sat::{generators as sgen, Branching, DpllConfig, DpllSolver};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let rel = |arity: usize, rows: &[&[u8]]| -> BooleanRelation {
        BooleanRelation::new(
            arity,
            rows.iter()
                .map(|r| r.iter().map(|&b| b == 1).collect())
                .collect(),
        )
    };
    let horn_lib = vec![
        rel(2, &[&[0, 0], &[0, 1], &[1, 1]]),
        rel(
            3,
            &[&[0, 0, 0], &[0, 0, 1], &[0, 1, 1], &[1, 1, 1], &[0, 1, 0]],
        ),
    ];
    let xor_lib = vec![rel(2, &[&[0, 1], &[1, 0]]), rel(2, &[&[0, 0], &[1, 1]])];

    let make = |lib: &Vec<BooleanRelation>, n: usize, m: usize, seed: u64| -> BoolCspInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let constraints = (0..m)
            .map(|_| {
                let r = rng.gen_range(0..lib.len());
                let scope = (0..lib[r].arity()).map(|_| rng.gen_range(0..n)).collect();
                (scope, r)
            })
            .collect();
        BoolCspInstance {
            num_vars: n,
            relations: lib.clone(),
            constraints,
        }
    };

    let mut rows = Vec::new();
    for n in [50usize, 100, 200, 400] {
        let bu = Budget::unlimited();
        let horn = make(&horn_lib, n, 3 * n, n as u64);
        let (_, t_horn) = time_min(3, || solve_in_class(&horn, SchaeferClass::Horn, &bu)).unwrap();
        let xor = make(&xor_lib, n, 2 * n, n as u64);
        let (_, t_xor) = time_min(3, || solve_in_class(&xor, SchaeferClass::Affine, &bu)).unwrap();
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_horn),
            fmt_duration(t_xor),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E4 — Schaefer's tractable classes scale polynomially",
            &["n", "Horn fixpoint", "affine Gaussian"],
            &rows
        )
    );

    // The NP-hard side: DPLL on phase-transition 3SAT, with ablation.
    let mut rows = Vec::new();
    for n in [16usize, 20, 24, 28] {
        let f = sgen::sparse_3sat(n, 4.27, 99);
        let bu = Budget::unlimited();
        let full = DpllSolver::new(DpllConfig::default());
        let ((_, stats), t_full) = time(|| full.solve(&f, &bu));
        let no_up = DpllSolver::new(DpllConfig {
            unit_propagation: false,
            pure_literal: false,
            branching: Branching::FirstUnassigned,
        });
        let ((_, stats2), t_plain) = time(|| no_up.solve(&f, &bu));
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_full),
            stats.nodes.to_string(),
            fmt_duration(t_plain),
            stats2.nodes.to_string(),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E4a — DPLL on 3SAT at the phase transition (m = 4.27n): still exponential (ETH)",
            &["n", "DPLL full", "decisions", "DPLL no-prop", "decisions"],
            &rows
        )
    );
}

/// E5 — SPECIAL CSP (Definition 4.3): quasipolynomial scaling of the
/// dedicated solver, via the Clique → Special reduction.
fn e5_special() {
    use lowerbounds::csp::solver::special::solve_special;
    use lowerbounds::reductions::clique_to_special;
    let g = generators::gnp(14, 0.5, 5);
    let mut rows = Vec::new();
    for k in [2usize, 3, 4, 5, 6] {
        let inst = clique_to_special::reduce(&g, k);
        let n_vars = inst.num_vars;
        let (result, t) = time_min(2, || {
            solve_special(&inst, &Budget::unlimited())
                .expect("special")
                .0
                .unwrap_sat()
        })
        .unwrap();
        let found = result.solution.is_some();
        rows.push(vec![
            k.to_string(),
            n_vars.to_string(),
            format!("{found}"),
            fmt_duration(t),
            format!("{:.1}", (n_vars as f64).log2()),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E5 — SPECIAL CSP: n^{O(log n)} solver through the Clique reduction (k ≤ log₂ n)",
            &[
                "k",
                "|V| = k + 2^k",
                "clique found",
                "special solver",
                "log₂|V|"
            ],
            &rows
        )
    );
    println!("  The clique part is brute-forced over |D|^k with k ≤ log₂|V| — the");
    println!("  quasipolynomial budget the paper pins between W[1]-hardness and ETH.");
    println!();
}

/// E6 — Theorem 6.3 / k-clique conjecture: brute force n^k vs
/// Nešetřil–Poljak n^{ωk/3}.
fn e6_clique() {
    use lowerbounds::graphalg::clique::{find_clique, find_clique_neipol};
    // Turán graphs T(n, k−1): the densest K_k-free graphs — both
    // algorithms must exhaust their search space (no lucky early exit).
    let mut rows = Vec::new();
    for k in [4usize, 5] {
        let mut brute_pts = Vec::new();
        let mut np_pts = Vec::new();
        for &n in &[24usize, 36, 54, 80] {
            let g = generators::turan(n, k - 1);
            let bu = Budget::unlimited();
            let (found_b, t_b) = time(|| find_clique(&g, k, &bu).0.is_sat());
            let (found_np, t_np) = time(|| find_clique_neipol(&g, k, &bu).0.is_sat());
            assert!(!found_b && !found_np, "Turán graph is K_k-free");
            brute_pts.push(SamplePoint {
                size: n as f64,
                value: t_b.as_secs_f64().max(1e-9),
            });
            np_pts.push(SamplePoint {
                size: n as f64,
                value: t_np.as_secs_f64().max(1e-9),
            });
            rows.push(vec![
                k.to_string(),
                n.to_string(),
                fmt_duration(t_b),
                fmt_duration(t_np),
            ]);
        }
        let fb = fit_exponent(&brute_pts).unwrap();
        let fnp = fit_exponent(&np_pts).unwrap();
        rows.push(vec![
            k.to_string(),
            "fit".into(),
            format!("n^{:.1} (≈ n^{})", fb.exponent, k - 1),
            format!("n^{:.1}", fnp.exponent),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E6 — k-Clique on K_k-free Turán graphs (Theorem 6.3, §8)",
            &["k", "n", "brute force", "NP (matmul)"],
            &rows
        )
    );
    println!("  On NO instances branch-and-prune exhausts all ~n^(k-1) partial cliques;");
    println!("  Nešetřil–Poljak trades that for matrix multiplication on C(n, k/3)-clique");
    println!("  auxiliary graphs — the ωk/3 exponent the k-clique conjecture fixes.");
    println!();
}

/// E7 — Theorems 6.4–6.7: CSP time grows as |D|^{Θ(tw)} on clique primal
/// graphs; backtracking ablation.
fn e7_csp_treewidth() {
    use lowerbounds::csp::solver::treewidth_dp;
    use lowerbounds::csp::solver::{backtracking, BacktrackConfig};
    let mut rows = Vec::new();
    for k in [2usize, 3, 4] {
        let mut pts = Vec::new();
        let grid: [usize; 4] = match k {
            2 => [20, 40, 80, 160],
            3 => [12, 24, 48, 96],
            _ => [12, 20, 32, 48],
        };
        for d in grid {
            // p = 0.5: dense pair relations keep the DP tables near their
            // |D|^j worst case instead of collapsing by pruning.
            let inst = partitioned_clique_csp(k, d, 0.5, 11);
            let (res, t) = time_min(2, || {
                treewidth_dp::solve_auto(&inst, &Budget::unlimited())
                    .0
                    .unwrap_sat()
            })
            .unwrap();
            pts.push(SamplePoint {
                size: d as f64,
                value: t.as_secs_f64().max(1e-9),
            });
            rows.push(vec![
                k.to_string(),
                (k - 1).to_string(),
                d.to_string(),
                res.count.to_string(),
                fmt_duration(t),
            ]);
        }
        let fit = fit_exponent(&pts).unwrap();
        rows.push(vec![
            k.to_string(),
            (k - 1).to_string(),
            "fit".into(),
            format!("|D|^{:.1}", fit.exponent),
            format!("theory |D|^{k}"),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E7 — binary CSP on K_k primal graphs: |D|^{tw+1} (Theorems 6.4–6.7)",
            &["k vars", "tw", "|D|", "solutions", "treewidth DP"],
            &rows
        )
    );

    // Ablation: MRV / forward checking on the same instances.
    let mut ab = Vec::new();
    let inst = partitioned_clique_csp(4, 16, 0.3, 11);
    for (mrv, fc) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = BacktrackConfig {
            mrv,
            forward_checking: fc,
        };
        let ((_, stats), t) = time(|| backtracking::solve(&inst, cfg, &Budget::unlimited()));
        ab.push(vec![
            mrv.to_string(),
            fc.to_string(),
            stats.nodes.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E7a — ablation: backtracking features on the k=4, |D|=16 instance",
            &["MRV", "forward checking", "nodes", "time"],
            &ab
        )
    );
}

/// E8 — Theorems 7.1/7.2: dominating set scales as n^k; the CSP route
/// agrees.
fn e8_domset() {
    use lowerbounds::graphalg::domset::find_dominating_set_brute;
    use lowerbounds::reductions::domset_to_csp;
    let mut rows = Vec::new();
    for k in [2usize, 3] {
        let mut pts = Vec::new();
        for &n in &[20usize, 30, 45, 65] {
            // Sparse graphs: no small dominating set → full enumeration.
            let g = generators::gnm(n, n, (n * k) as u64);
            let (found, t) = time(|| {
                find_dominating_set_brute(&g, k, &Budget::unlimited())
                    .0
                    .is_sat()
            });
            pts.push(SamplePoint {
                size: n as f64,
                value: t.as_secs_f64().max(1e-9),
            });
            rows.push(vec![
                k.to_string(),
                n.to_string(),
                found.to_string(),
                fmt_duration(t),
            ]);
        }
        let fit = fit_exponent(&pts).unwrap();
        rows.push(vec![
            k.to_string(),
            "fit".into(),
            String::new(),
            format!("n^{:.1} (theory n^{k})", fit.exponent),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E8 — k-Dominating-Set enumeration: n^{k} (Theorem 7.1)",
            &["k", "n", "found", "brute force"],
            &rows
        )
    );
    // Theorem 7.2 route: solve via the treewidth-k CSP.
    let mut rows = Vec::new();
    for seed in 0..4u64 {
        let g = generators::gnp(8, 0.3, seed);
        let t = 2;
        let inst = domset_to_csp::reduce(&g, t);
        let bu = Budget::unlimited();
        let (res, dt) = time(|| {
            lowerbounds::csp::solver::treewidth_dp::solve_auto(&inst, &bu)
                .0
                .unwrap_sat()
        });
        let direct = lowerbounds::graphalg::domset::find_dominating_set_branching(&g, t, &bu)
            .0
            .is_sat();
        assert_eq!(res.solution.is_some(), direct);
        rows.push(vec![
            seed.to_string(),
            direct.to_string(),
            fmt_duration(dt),
            format!("{}", inst.domain_size),
        ]);
    }
    println!(
        "{}",
        print_table(
            "E8a — Theorem 7.2 reduction: 2-DomSet solved as a treewidth-2 CSP",
            &["seed", "dominating set exists", "Freuder DP", "|D|"],
            &rows
        )
    );
}

/// E9 — SETH fine-grained: edit distance O(n²); OV quadratic scan; SAT→OV.
fn e9_editdist_ov() {
    use lowerbounds::graphalg::editdist::edit_distance;
    use lowerbounds::graphalg::ov::find_orthogonal_pair;
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    for &n in &[500usize, 1000, 2000, 4000] {
        let (a, b) = random_strings(n, n as u64);
        let (d, t) = time_min(3, || {
            edit_distance(&a, &b, &Budget::unlimited()).0.unwrap_sat()
        })
        .unwrap();
        pts.push(SamplePoint {
            size: n as f64,
            value: t.as_secs_f64(),
        });
        rows.push(vec![n.to_string(), d.to_string(), fmt_duration(t)]);
    }
    let fit = fit_exponent(&pts).unwrap();
    rows.push(vec![
        "fit".into(),
        String::new(),
        format!("n^{:.2} (theory n²)", fit.exponent),
    ]);
    println!(
        "{}",
        print_table(
            "E9 — edit distance DP: quadratic and (per SETH) optimally so",
            &["n", "distance", "DP time"],
            &rows
        )
    );

    let mut rows = Vec::new();
    let mut pts = Vec::new();
    for &n in &[500usize, 1000, 2000, 4000] {
        // NO instances (a shared hot coordinate): the scan must check all
        // n² pairs — the case the OV conjecture says cannot be avoided.
        let (a, b) = lb_bench::random_vector_sets_no_pair(n, 64, 0.35, n as u64);
        let (found, t) = time_min(3, || {
            find_orthogonal_pair(&a, &b, &Budget::unlimited())
                .0
                .is_sat()
        })
        .unwrap();
        assert!(!found);
        pts.push(SamplePoint {
            size: n as f64,
            value: t.as_secs_f64().max(1e-9),
        });
        rows.push(vec![n.to_string(), found.to_string(), fmt_duration(t)]);
    }
    let fit = fit_exponent(&pts).unwrap();
    rows.push(vec![
        "fit".into(),
        String::new(),
        format!("n^{:.2} (theory n²)", fit.exponent),
    ]);
    println!(
        "{}",
        print_table(
            "E9a — Orthogonal Vectors pair scan on NO instances (d = 64)",
            &["n vectors/side", "pair found", "scan time"],
            &rows
        )
    );
    // SAT → OV spot check.
    let f = lowerbounds::sat::generators::random_ksat(16, 70, 3, 4);
    let (sat, t) = time(|| {
        lowerbounds::reductions::sat_to_ov::decide_via_ov(&f, &Budget::unlimited())
            .0
            .is_sat()
    });
    println!(
        "  SAT→OV on n=16, m=70: satisfiable = {sat}, decided via 2·2^8 vectors in {}",
        fmt_duration(t)
    );
    println!();
}

/// E10 — §8 k-clique conjecture backdrop: matrix multiplication exponents.
fn e10_matmul_triangle() {
    use lowerbounds::graphalg::matmul::IntMatrix;
    use lowerbounds::graphalg::triangle::{find_triangle_matmul, find_triangle_naive};
    let mut rows = Vec::new();
    let mut naive_pts = Vec::new();
    let mut strassen_pts = Vec::new();
    for &n in &[128usize, 256, 512] {
        let g = generators::gnp(n, 0.5, n as u64);
        let a = IntMatrix::adjacency(&g);
        let (_, t_naive) = time(|| a.multiply_naive(&a));
        let (_, t_strassen) = time(|| a.multiply_strassen(&a));
        naive_pts.push(SamplePoint {
            size: n as f64,
            value: t_naive.as_secs_f64(),
        });
        strassen_pts.push(SamplePoint {
            size: n as f64,
            value: t_strassen.as_secs_f64(),
        });
        let bu = Budget::unlimited();
        let (tri_mm, t_mm) = time(|| find_triangle_matmul(&g, &bu).0.is_sat());
        let (tri_nv, t_nv) = time(|| find_triangle_naive(&g, &bu).0.is_sat());
        assert_eq!(tri_mm, tri_nv);
        rows.push(vec![
            n.to_string(),
            fmt_duration(t_naive),
            fmt_duration(t_strassen),
            fmt_duration(t_nv),
            fmt_duration(t_mm),
        ]);
    }
    let fn_ = fit_exponent(&naive_pts).unwrap();
    let fs = fit_exponent(&strassen_pts).unwrap();
    rows.push(vec![
        "fit".into(),
        format!("n^{:.2} (≈3)", fn_.exponent),
        format!("n^{:.2} (≈2.81)", fs.exponent),
        String::new(),
        String::new(),
    ]);
    println!(
        "{}",
        print_table(
            "E10 — matrix multiplication and triangle detection (§8, ω)",
            &[
                "n",
                "naive MM",
                "Strassen MM",
                "naive triangle",
                "boolean-MM triangle"
            ],
            &rows
        )
    );
}

/// E11 — §8 hyperclique conjecture: d = 3 brute force vs d = 2 matmul.
fn e11_hyperclique() {
    use lowerbounds::graphalg::clique::find_clique_neipol;
    use lowerbounds::graphalg::hyperclique::find_hyperclique;
    // Turán-style hyperclique-free hypergraphs: 4 classes, rainbow triples
    // only — dense but with no 5-hyperclique, so the search must exhaust.
    let mut rows = Vec::new();
    let mut pts3 = Vec::new();
    let k = 5;
    for &n in &[16usize, 24, 36, 52] {
        let h = generators::turan_hypergraph(n, 3, k - 1);
        let (found, t3) = time(|| find_hyperclique(&h, k, &Budget::unlimited()).0.is_sat());
        assert!(!found, "Turán hypergraph is 5-hyperclique-free");
        // The d = 2 comparison: Turán graph, same class structure.
        let g = generators::turan(n, k - 1);
        let (found2, t2) = time(|| find_clique_neipol(&g, k, &Budget::unlimited()).0.is_sat());
        assert!(!found2);
        pts3.push(SamplePoint {
            size: n as f64,
            value: t3.as_secs_f64().max(1e-9),
        });
        rows.push(vec![n.to_string(), fmt_duration(t3), fmt_duration(t2)]);
    }
    let fit = fit_exponent(&pts3).unwrap();
    rows.push(vec![
        "fit".into(),
        format!("n^{:.1}", fit.exponent),
        "(matmul helps only d = 2)".into(),
    ]);
    println!(
        "{}",
        print_table(
            "E11 — 5-hyperclique in 3-uniform Turán hypergraphs: no matmul shortcut (§8)",
            &["n", "d = 3 brute", "d = 2 Nešetřil–Poljak"],
            &rows
        )
    );
}

/// E12 — strong triangle conjecture: AYZ on sparse inputs and the Boolean
/// triangle join.
fn e12_ayz_sparse() {
    use lowerbounds::graphalg::triangle::{
        find_triangle_ayz, find_triangle_matmul, find_triangle_naive,
    };
    use lowerbounds::join::boolean;
    let mut rows = Vec::new();
    let mut ayz_pts = Vec::new();
    for &m in &[2000usize, 8000, 32000, 128000] {
        let n = m / 2; // sparse: average degree 4
        let g = generators::gnm(n, m, m as u64);
        let bu = Budget::unlimited();
        let (r_ayz, t_ayz) = time_min(2, || find_triangle_ayz(&g, &bu).0.is_sat()).unwrap();
        let (r_nv, t_nv) = time_min(2, || find_triangle_naive(&g, &bu).0.is_sat()).unwrap();
        assert_eq!(r_ayz, r_nv);
        // Dense MM route is hopeless at this n; only time it while small.
        let mm_cell = if n <= 4000 {
            let (r_mm, t_mm) = time(|| find_triangle_matmul(&g, &bu).0.is_sat());
            assert_eq!(r_mm, r_nv);
            fmt_duration(t_mm)
        } else {
            "—".to_string()
        };
        ayz_pts.push(SamplePoint {
            size: m as f64,
            value: t_ayz.as_secs_f64().max(1e-9),
        });
        rows.push(vec![
            m.to_string(),
            r_ayz.to_string(),
            fmt_duration(t_ayz),
            fmt_duration(t_nv),
            mm_cell,
        ]);
    }
    let fit = fit_exponent(&ayz_pts).unwrap();
    rows.push(vec![
        "fit".into(),
        String::new(),
        format!("m^{:.2} (theory ≤ 1.41 w/ ω=2.81)", fit.exponent),
        String::new(),
        String::new(),
    ]);
    println!(
        "{}",
        print_table(
            "E12 — sparse triangle detection (strong triangle conjecture, §8)",
            &["m", "triangle", "AYZ", "naive edge-scan", "dense MM"],
            &rows
        )
    );
    // Boolean triangle join query → tripartite graph → AYZ.
    let q = JoinQuery::triangle();
    let db = lowerbounds::join::generators::random_binary_database(&q, 4000, 1500, 9);
    let bu = Budget::unlimited();
    let (empty_gj, t_gj) = time(|| {
        boolean::is_answer_empty(&q, &db, &bu)
            .unwrap()
            .0
            .unwrap_sat()
    });
    let ((g, _), _) = time(|| boolean::triangle_database_to_graph(&q, &db).unwrap());
    let (tri, t_ayz) = time(|| find_triangle_ayz(&g, &bu).0.is_sat());
    assert_eq!(!empty_gj, tri);
    println!(
        "  Boolean triangle join (N = 4000/relation): generic-join early exit {} vs AYZ-on-graph {} — answers agree.",
        fmt_duration(t_gj),
        fmt_duration(t_ayz)
    );
    println!();
}
