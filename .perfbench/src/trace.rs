//! Spans recorded from outside the program: each one times a single call
//! into a layer's public function. Spans stay in memory during the run
//! and are written out as JSON lines at the end.

use crate::stats::{median, ratio, Metrics};
use lb_engine::RunStats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    /// The operation (in-process) or job (serve) the span belongs to.
    pub op: usize,
    /// The layer, named after the module whose function was called.
    pub layer: String,
    /// Start, in ms since the trace began.
    pub start_ms: f64,
    pub ms: f64,
    /// Solver counters the call reported (zero for non-solver layers).
    pub stats: RunStats,
    /// Bytes the call consumed or produced (text parsed, blob encoded).
    pub bytes: usize,
}

pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished call that ran from `start` until now; returns its
    /// duration, ms.
    pub fn record(
        &mut self,
        op: usize,
        layer: &str,
        start: Instant,
        stats: RunStats,
        bytes: usize,
    ) -> f64 {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.spans.push(Span {
            op,
            layer: layer.to_string(),
            start_ms: start.duration_since(self.t0).as_secs_f64() * 1e3,
            ms,
            stats,
            bytes,
        });
        ms
    }

    /// Spans of `layer`.
    pub fn layer<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.layer == layer)
    }

    /// Durations of `layer`'s spans, ms.
    pub fn ms(&self, layer: &str) -> Vec<f64> {
        self.layer(layer).map(|s| s.ms).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\": {}, \"layer\": \"{}\", \"start_ms\": {:.4}, \"ms\": {:.4}, \"ticks\": {}, \"bytes\": {}}}",
                s.op,
                s.layer,
                s.start_ms,
                s.ms,
                s.stats.total_ops(),
                s.bytes
            )?;
        }
        out.flush()
    }
}

/// Per-layer numbers for the parse and solver layers, from their spans:
/// medians for times, means per call for counters, totals for rates.
pub fn solver_metrics(tr: &Trace, m: &mut Metrics) {
    let parse = tr.ms("formats");
    let bytes: usize = tr.layer("formats").map(|s| s.bytes).sum();
    m.set("formats.parse_ms", median(&parse), "ms");
    m.set(
        "formats.mb_per_s",
        ratio(bytes as f64 / 1e6, parse.iter().sum::<f64>() / 1e3),
        "MB/s",
    );

    let prepare: BTreeMap<usize, f64> = tr.layer("trie").map(|s| (s.op, s.ms)).collect();
    let joins: Vec<&Span> = tr.layer("wcoj").collect();
    let search: Vec<f64> = joins
        .iter()
        .map(|s| s.ms - prepare.get(&s.op).copied().unwrap_or(0.0))
        .collect();
    let ticks = |spans: &[&Span]| {
        spans
            .iter()
            .map(|s| s.stats.total_ops() as f64)
            .sum::<f64>()
    };
    let per_call = |spans: &[&Span], f: fn(&RunStats) -> u64| {
        ratio(
            spans.iter().map(|s| f(&s.stats) as f64).sum(),
            spans.len() as f64,
        )
    };
    m.set(
        "trie.prepare_ms",
        median(&prepare.values().copied().collect::<Vec<f64>>()),
        "ms",
    );
    m.set("wcoj.search_ms", median(&search), "ms");
    m.set(
        "wcoj.trie_advances",
        per_call(&joins, |s| s.trie_advances),
        "count",
    );
    m.set(
        "wcoj.ns_per_tick",
        ratio(search.iter().sum::<f64>() * 1e6, ticks(&joins)),
        "ns",
    );

    let dpll: Vec<&Span> = tr.layer("dpll").collect();
    m.set("dpll.solve_ms", median(&tr.ms("dpll")), "ms");
    m.set("dpll.nodes", per_call(&dpll, |s| s.nodes), "count");
    m.set(
        "dpll.propagations",
        per_call(&dpll, |s| s.propagations),
        "count",
    );
    let dpll_ms: f64 = dpll.iter().map(|s| s.ms).sum();
    m.set("dpll.ns_per_tick", ratio(dpll_ms * 1e6, ticks(&dpll)), "ns");

    let bt: Vec<&Span> = tr.layer("backtracking").collect();
    m.set(
        "backtracking.solve_ms",
        median(&tr.ms("backtracking")),
        "ms",
    );
    m.set("backtracking.nodes", per_call(&bt, |s| s.nodes), "count");
    m.set(
        "backtracking.backtracks",
        per_call(&bt, |s| s.backtracks),
        "count",
    );

    let clique: Vec<&Span> = tr.layer("clique").collect();
    m.set("clique.solve_ms", median(&tr.ms("clique")), "ms");
    m.set("clique.nodes", per_call(&clique, |s| s.nodes), "count");
}

/// Per-op sum of the solver spans (`trie` excluded: the separate prepare
/// probe is tracing overhead, and `wcoj` already includes a prepare).
pub fn solve_ms_by_op(tr: &Trace) -> BTreeMap<usize, f64> {
    let mut out = BTreeMap::new();
    for s in &tr.spans {
        if matches!(
            s.layer.as_str(),
            "wcoj" | "dpll" | "backtracking" | "clique"
        ) {
            *out.entry(s.op).or_insert(0.0) += s.ms;
        }
    }
    out
}
