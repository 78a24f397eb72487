//! The lock-free instruments: counter, gauge, log₂-bucketed histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point level (f64 bits in a relaxed
/// atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)`, so 65 buckets cover all of `u64`
/// with ≤ 2× relative quantile error.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed value distribution recordable from any number of
/// threads without locks: per-bucket relaxed counters plus an exact
/// `fetch_max` maximum and a running sum for the mean.
///
/// Quantiles ([`Histogram::quantile`], `p50`/`p90`/`p99`) report the
/// inclusive upper bound of the bucket containing the requested rank,
/// clamped to the exact observed maximum — an over-estimate by at most
/// the bucket width (2× the value), never an under-estimate.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: `0 → 0`, otherwise `⌊log₂ v⌋ + 1`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` saturates the last).
pub(crate) fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Inclusive lower bound of bucket `i`.
#[cfg(test)]
pub(crate) fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_upper(i), count))
            })
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            sum: self.sum(),
            max: self.max(),
            buckets,
        }
    }
}

/// A point-in-time copy of one [`Histogram`]: totals plus the nonempty
/// `(inclusive upper bound, count)` buckets in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Exact observed maximum over the histogram's whole lifetime.
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the captured values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile over the captured buckets, clamped to the
    /// observed maximum; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(upper, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn bucket_boundaries_land_exactly() {
        // Values sitting exactly on bucket edges: 2^(i-1) opens bucket i,
        // 2^i - 1 closes it.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for i in 1..=63usize {
            let lower = bucket_lower(i);
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(upper), i, "upper edge of bucket {i}");
            if i < 63 {
                assert_eq!(bucket_index(upper + 1), i + 1, "first of bucket {}", i + 1);
            }
        }
        // Powers of two are lower edges: 2, 4, 8 … open their buckets.
        for k in 1..=62u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1);
            assert_eq!(bucket_index(v - 1), k as usize);
        }
    }

    #[test]
    fn histogram_saturates_at_max() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
        // Quantiles clamp to the exact maximum, never overshoot it.
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(u64::MAX, 2)]);
    }

    #[test]
    fn quantiles_bound_the_true_value_from_above() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.p50();
        // The true median is 500; the bucket upper bound is 511.
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(p50 >= 500);
        // p99 (true 990) reports the bucket holding it, clamped to the
        // observed max of 1000.
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1); // rank clamps to the first value
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn zero_only_histogram() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.snapshot().buckets, vec![(0, 2)]);
    }

    #[test]
    fn histogram_is_consistent_under_8_threads() {
        let h = Arc::new(Histogram::new());
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8 * PER_THREAD);
        let n = 8 * PER_THREAD;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.max(), n - 1);
    }
}
