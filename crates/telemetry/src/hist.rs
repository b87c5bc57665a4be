//! Lock-free log-linear histograms.
//!
//! The bucket layout is fixed at compile time: values below
//! [`SUB_BUCKETS`] get exact unit-width buckets, and every power-of-two
//! octave above that is split into [`SUB_BUCKETS`] linear sub-buckets.
//! Quantiles read from the layout are therefore within one sub-bucket
//! of the true value — a relative error of at most `1/SUB_BUCKETS`
//! (6.25%) — while recording is a handful of relaxed atomic adds with
//! no locking, no allocation, and no coordination between threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per octave.
pub const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two octave. Bounds the relative
/// error of any extracted quantile to `1/SUB_BUCKETS`.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Octaves above the exact range (`u64` has 64 bit positions, the
/// bottom `SUB_BITS` of which are covered exactly).
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Total buckets in the fixed layout.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// The bucket index covering `value`.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let octave = (exp - SUB_BITS) as usize;
    let sub = ((value >> octave) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + octave * SUB_BUCKETS + sub
}

/// The inclusive `(low, high)` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    if index < SUB_BUCKETS {
        return (index as u64, index as u64);
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let exp = octave as u32 + SUB_BITS;
    let width = 1u64 << octave;
    let low = (1u64 << exp) + sub * width;
    (low, low + (width - 1))
}

/// A thread-safe log-linear histogram of `u64` samples (nanoseconds,
/// bytes — any non-negative magnitude).
///
/// Recording performs four relaxed atomic operations and never blocks;
/// concurrent recorders lose no samples (the property suite pins
/// `sum(buckets) == count` under contention). Reads ([`snapshot`]) are
/// not atomic with respect to concurrent writers — a snapshot taken
/// under load may be mid-update by a few samples — which is the usual
/// and acceptable contract for scrape-style metrics.
///
/// [`snapshot`]: Histogram::snapshot
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket contents for quantile
    /// extraction and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }

    /// Convenience: the quantile straight off a fresh snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }
}

/// A frozen copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts in the fixed layout.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding the sample of rank `ceil(q · count)`,
    /// clamped to the observed maximum. The exact rank-`q` sample lies
    /// in the same bucket, so the reported value overshoots it by at
    /// most one bucket width (`value / 16`). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_exact_below_the_linear_range() {
        for v in 0..SUB_BUCKETS as u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v));
        }
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            4_095,
            4_096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo}, {hi}]");
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            // Relative bucket width bounds quantile error.
            assert!((hi - lo) as f64 <= (lo as f64 / SUB_BUCKETS as f64).max(1.0) + 1.0);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut v = 1u64;
        let mut prev = bucket_index(0);
        while v < u64::MAX / 3 {
            let i = bucket_index(v);
            assert!(i >= prev, "index decreased at {v}");
            prev = i;
            v = v * 3 / 2 + 1;
        }
    }

    #[test]
    fn percentiles_of_known_data() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        let s = h.snapshot();
        // Values up to 15 are exact; larger ones within one bucket.
        assert_eq!(s.percentile(0.10), 10);
        let p50 = s.percentile(0.50);
        assert!((50..=53).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!((99..=103).contains(&p99), "p99 = {p99}");
        assert_eq!(s.percentile(1.0), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn percentile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(1_000_003);
        // The bucket's upper bound exceeds the sample; the report must not.
        assert_eq!(h.percentile(0.5), 1_000_003);
        assert_eq!(h.percentile(1.0), 1_000_003);
    }
}
