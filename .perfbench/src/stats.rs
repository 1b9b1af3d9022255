//! Order statistics over samples, and the metric map a run reports.

use std::collections::BTreeMap;

/// The tail percentile every `*_tail` metric reports. A 10-second run
/// completes a few hundred operations on each workload, so p90 keeps at
/// least ten samples beyond it (p99 would need a thousand).
pub const TAIL: f64 = 0.90;

/// The `q`-quantile of `xs` (nearest rank on the sorted samples); 0 when
/// there are none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, TAIL)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never calls).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units, in a stable order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The metrics as a JSON object body: `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// A numeric field of `/proc/<pid>/<file>` (`pid` may be `self`), e.g.
/// `VmHWM:` in `status` (kB) or `write_bytes:` in `io`; 0 when unreadable.
pub fn proc_field(pid: &str, file: &str, key: &str) -> f64 {
    let text = std::fs::read_to_string(format!("/proc/{pid}/{file}")).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// peak read later covers only what happens after the call. False when
/// the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(tail(&xs), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
