//! Order statistics over latency samples.

use std::time::Duration;

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule
/// `ceil(p * n)`: the smallest sample with at least `p` of the data at or
/// below it. Panics on an empty slice — a workload that measured nothing
/// has no percentile to report.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (latencies are finite, so the order is total).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is the rule the
/// repeatability criterion is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
