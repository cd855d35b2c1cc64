//! A log₂-bucketed histogram for cycle quantities (wait times, hold
//! times). Constant memory, O(1) record, approximate quantiles with a
//! factor-of-two resolution — plenty for the distribution questions the
//! metrics answer ("are waits microseconds or milliseconds?").

use crate::Cycles;

/// Log₂-bucketed histogram of cycle values.
///
/// Value `v` lands in bucket `⌊log₂(v)⌋ + 1` (bucket 0 holds zeros), so
/// bucket `i > 0` covers `[2^(i-1), 2^i)`.
///
/// ```
/// use seer_sim::CycleHistogram;
///
/// let mut h = CycleHistogram::new();
/// for v in [10, 12, 14, 5_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) < 16);      // median bucket covers 8..16
/// assert!(h.quantile(0.99) >= 4_096); // the outlier's bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; 65],
    count: u64,
    total: Cycles,
    max: Cycles,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            total: 0,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: Cycles) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        // Saturate: a sum pinned at u64::MAX beats a debug-mode panic when
        // extreme values land in the top bucket.
        self.total = self.total.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Largest recorded value.
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`): the upper bound of the
    /// bucket containing the `⌈q·count⌉`-th smallest value. Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Cycles {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    0
                } else {
                    ((1u128 << i) - 1).min(u128::from(u64::MAX)) as Cycles
                };
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = CycleHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = CycleHistogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.total(), 1106);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_values() {
        let mut h = CycleHistogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        // Median bucket covers 10 (range [8,16) -> upper bound 15).
        assert!(h.quantile(0.5) < 16);
        // p99 must land in the tail bucket.
        assert!(h.quantile(0.99) >= 100_000 / 2);
        assert!(h.quantile(1.0) >= 100_000 / 2);
    }

    #[test]
    fn zero_bucket_is_exact() {
        let mut h = CycleHistogram::new();
        h.record(0);
        h.record(0);
        h.record(8);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CycleHistogram::new();
        a.record(5);
        let mut b = CycleHistogram::new();
        b.record(50);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total(), 555);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = CycleHistogram::new();
        h.record(u64::MAX / 2);
        assert!(h.quantile(0.5) >= u64::MAX / 4);
    }

    #[test]
    fn empty_histogram_answers_every_quantile_with_zero() {
        let h = CycleHistogram::new();
        for q in [0.0, 0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty histogram, q = {q}");
        }
        // Out-of-range requests clamp rather than panic or index astray.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn single_sample_owns_every_quantile() {
        let mut h = CycleHistogram::new();
        h.record(1000); // bucket [512, 1024) -> upper bound 1023
        for q in [0.0, 0.001, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 1023, "single sample, q = {q}");
        }
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1000.0);
    }

    #[test]
    fn saturating_top_bucket_clamps_to_u64_max() {
        // u64::MAX lands in bucket 64, whose nominal upper bound 2^64 - 1
        // must saturate to u64::MAX instead of wrapping.
        let mut h = CycleHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // A quantile below the top bucket is unaffected by the extreme,
        // and the running total saturates instead of overflowing.
        h.record(1);
        h.record(1);
        h.record(1);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.total(), u64::MAX);
    }
}
