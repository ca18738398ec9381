//! Order statistics and the JSON result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (`q` in [0, 1]); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A timing reported the way the benchmark reports every timing: the
/// median and the highest of p90/p99/p99.9/p99.99 that still has at
/// least ten samples beyond it, with the sample count.
pub fn describe(samples: &[f64], scale: f64, unit: &str) -> String {
    let n = samples.len();
    let mut text = format!("n={n} p50={:.3}{unit}", median(samples) * scale);
    // (label, the percentile as a fraction num/den), highest first;
    // integer ranks avoid float round-off at the ten-sample edge.
    let tail = [
        ("p99.99", 9999, 10_000),
        ("p99.9", 999, 1000),
        ("p99", 99, 100),
        ("p90", 9, 10),
    ]
    .into_iter()
    .find(|&(_, num, den)| n - (n * num).div_ceil(den) >= 10);
    if let Some((label, num, den)) = tail {
        let q = num as f64 / den as f64;
        let _ = write!(text, " {label}={:.3}{unit}", quantile(samples, q) * scale);
    }
    text
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values are printed
/// with all their digits (Rust's shortest round-trip form).
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(describe(&s, 1.0, "s"), "n=100 p50=50.000s p90=90.000s");
        assert_eq!(describe(&s[..5], 1.0, "s"), "n=5 p50=3.000s");
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s",
                unit: "s",
                value: 0.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
