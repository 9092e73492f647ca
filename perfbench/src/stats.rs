//! Order statistics and process memory.

use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `xs`, or 0 when the layer produced no samples.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Nearest-rank `q`-quantile of `xs` (`q` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process's resident-set high-water mark (`VmHWM`), in bytes.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or lacks the field:
/// the benchmark reports memory on Linux only.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
