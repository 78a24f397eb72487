//! Order statistics over samples.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of the rates `ops / busy seconds` of consecutive slices of a
/// run: throughput that a burst of host noise in one slice cannot move.
pub fn median_rate(slices: impl IntoIterator<Item = (usize, u64)>) -> f64 {
    let rates: Vec<f64> = slices
        .into_iter()
        .filter(|&(_, busy_ns)| busy_ns > 0)
        .map(|(ops, busy_ns)| ops as f64 / (busy_ns as f64 / 1e9))
        .collect();
    median(&rates)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, as `(label, q)`; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<(&'static str, f64)> {
    // (label, q, samples beyond it per thousand)
    [
        ("p99.9", 0.999, 1),
        ("p99", 0.99, 10),
        ("p95", 0.95, 50),
        ("p90", 0.90, 100),
        ("p75", 0.75, 250),
        ("p50", 0.50, 500),
    ]
    .into_iter()
    .find(|&(_, _, beyond)| n * beyond >= 10_000)
    .map(|(label, q, _)| (label, q))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (its default "exclusive" method). 0 below two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)).abs() / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert!((quartile_spread(&v) - (31.0 - 3.5) / 13.5).abs() < 1e-12);
        assert_eq!(median(&v), 13.5);
        assert_eq!(quantile(&v, 0.9), 37.0);
        assert_eq!(highest_supported_percentile(100), Some(("p90", 0.90)));
        assert_eq!(highest_supported_percentile(19), None);
    }
}
