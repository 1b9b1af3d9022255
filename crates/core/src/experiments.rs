//! Shared measurement harness for the E1–E12 experiments.
//!
//! The paper's theorems are asymptotic statements; the experiments check
//! their *shape* on finite sweeps: run an algorithm over a size grid, fit a
//! line to (log size, log value) by least squares, and compare the slope to
//! the predicted exponent. The measured value can be wall-clock time
//! ([`time_min`]) or — preferably — a machine-independent operation count
//! from the engine layer's [`RunStats`] ([`stats_sweep`]). The `lb-bench`
//! binaries print one table per experiment using [`print_table`];
//! `EXPERIMENTS.md` archives the output.

#![expect(
    clippy::disallowed_methods,
    reason = "this is the wall-clock measurement harness"
)]

use lb_engine::RunStats;
use std::fmt;
use std::time::{Duration, Instant};

/// Typed failure of a measurement or fit (instead of a panic, so sweep
/// drivers can skip degenerate configurations and keep going).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A log–log fit needs at least two sample points.
    TooFewPoints {
        /// How many points were supplied.
        got: usize,
    },
    /// A log–log fit needs strictly positive coordinates.
    NonPositivePoint {
        /// Index of the offending sample point.
        index: usize,
    },
    /// [`time_min`] needs at least one repetition.
    ZeroReps,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::TooFewPoints { got } => {
                write!(f, "need at least two points to fit, got {got}")
            }
            ExperimentError::NonPositivePoint { index } => {
                write!(f, "log-log fit needs positive coordinates (point {index})")
            }
            ExperimentError::ZeroReps => write!(f, "time_min needs at least one repetition"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Times a closure once, returning its result and the wall-clock duration.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a closure with `reps` repetitions and returns the *minimum*
/// duration (least noisy location statistic for CPU-bound code).
///
/// Errors with [`ExperimentError::ZeroReps`] when `reps` is zero.
pub fn time_min<T>(
    reps: usize,
    mut f: impl FnMut() -> T,
) -> Result<(T, Duration), ExperimentError> {
    let mut best: Option<Duration> = None;
    let mut out = None;
    for _ in 0..reps {
        let (r, d) = time(&mut f);
        out = Some(r);
        best = Some(best.map_or(d, |b| b.min(d)));
    }
    match (out, best) {
        (Some(o), Some(b)) => Ok((o, b)),
        _ => Err(ExperimentError::ZeroReps),
    }
}

/// One measured point of a scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct SamplePoint {
    /// The size parameter (N, n, |D|, …).
    pub size: f64,
    /// The measured quantity (seconds, tuples, nodes, …).
    pub value: f64,
}

/// Result of a log–log regression.
#[derive(Clone, Copy, Debug)]
pub struct ExponentFit {
    /// Fitted exponent (slope in log–log space).
    pub exponent: f64,
    /// Fitted leading constant (exp of the intercept).
    pub constant: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Least-squares fit of `value ≈ constant · size^exponent`.
///
/// Errors when fewer than two points or a non-positive coordinate make the
/// log–log regression undefined.
pub fn fit_exponent(points: &[SamplePoint]) -> Result<ExponentFit, ExperimentError> {
    if points.len() < 2 {
        return Err(ExperimentError::TooFewPoints { got: points.len() });
    }
    if let Some(index) = points.iter().position(|p| p.size <= 0.0 || p.value <= 0.0) {
        return Err(ExperimentError::NonPositivePoint { index });
    }
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| p.size.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.value.ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(ExponentFit {
        exponent: slope,
        constant: intercept.exp(),
        r_squared,
    })
}

/// Runs a budgeted solver over a size grid and extracts one [`RunStats`]
/// counter per size as the sweep's measured value — the machine-independent
/// alternative to wall-clock sweeps. `run` produces the stats for one size;
/// `metric` picks the counter (e.g. `|s| s.total_ops()`).
pub fn stats_sweep(
    sizes: &[usize],
    mut run: impl FnMut(usize) -> RunStats,
    metric: impl Fn(&RunStats) -> u64,
) -> Vec<SamplePoint> {
    sizes
        .iter()
        .map(|&size| SamplePoint {
            size: size as f64,
            value: metric(&run(size)) as f64,
        })
        .collect()
}

/// Renders an aligned text table (markdown-flavored) for the experiment
/// binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, &w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats a duration in engineering-friendly units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_quadratic() {
        let pts: Vec<SamplePoint> = (1..=10)
            .map(|i| SamplePoint {
                size: i as f64,
                value: 3.0 * (i as f64).powi(2),
            })
            .collect();
        let fit = fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.constant - 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn fit_recovers_three_halves() {
        // The AGM exponent of the triangle query.
        let pts: Vec<SamplePoint> = [100.0f64, 400.0, 1600.0, 6400.0]
            .iter()
            .map(|&n| SamplePoint {
                size: n,
                value: n.powf(1.5),
            })
            .collect();
        let fit = fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 1.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_reasonable() {
        let pts: Vec<SamplePoint> = (2..12)
            .map(|i| SamplePoint {
                size: (1 << i) as f64,
                value: ((1 << i) as f64).powf(1.0) * (1.0 + 0.05 * ((i % 3) as f64 - 1.0)),
            })
            .collect();
        let fit = fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 1.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn table_renders() {
        let out = print_table(
            "demo",
            &["n", "time"],
            &[
                vec!["10".into(), "1ms".into()],
                vec!["100".into(), "100ms".into()],
            ],
        );
        assert!(out.contains("## demo"));
        assert!(out.contains("| n  "));
        assert!(out.lines().count() >= 5);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // smoke
        let (v2, _) = time_min(3, || 7).unwrap();
        assert_eq!(v2, 7);
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
    }

    #[test]
    fn fit_needs_points() {
        let err = fit_exponent(&[SamplePoint {
            size: 1.0,
            value: 1.0,
        }])
        .unwrap_err();
        assert_eq!(err, ExperimentError::TooFewPoints { got: 1 });
    }

    #[test]
    fn fit_rejects_nonpositive_coordinates() {
        let pts = [
            SamplePoint {
                size: 1.0,
                value: 1.0,
            },
            SamplePoint {
                size: 2.0,
                value: 0.0,
            },
        ];
        assert_eq!(
            fit_exponent(&pts).unwrap_err(),
            ExperimentError::NonPositivePoint { index: 1 }
        );
    }

    #[test]
    fn zero_reps_is_an_error() {
        assert_eq!(time_min(0, || 1).unwrap_err(), ExperimentError::ZeroReps);
    }

    #[test]
    fn stats_sweep_fits_counter_exponent() {
        // A synthetic solver whose node counter grows quadratically: the
        // op-count sweep recovers the exponent with zero timing noise.
        let pts = stats_sweep(
            &[10, 20, 40, 80],
            |n| RunStats {
                nodes: (n * n) as u64,
                ..RunStats::default()
            },
            |s| s.nodes,
        );
        let fit = fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }
}
