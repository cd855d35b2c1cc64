//! Reductions over measured samples.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`; 0 for an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A tail percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Percentiles tried by [`tail`], highest first, in tenths of a percent
/// so nearest ranks are exact integer arithmetic.
const LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of the ladder 99.9/99/95/90/75/50 with at least
/// ten samples beyond its nearest rank (the median if none has). `None`
/// for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let permille = LADDER_PERMILLE
        .into_iter()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(500);
    let r = rank(permille);
    Some(Tail {
        percentile: permille as f64 / 10.0,
        value: v[r - 1],
        beyond: n - r,
        samples: n,
    })
}

/// Peak resident set size in kB: the `VmHWM` line of `/proc/self/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// This process's peak resident set size in MB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vmhwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn minimum_of_values_and_empty() {
        assert_eq!(minimum(&[5.0]), 5.0);
        assert_eq!(minimum(&[9.0, 1.5, 5.0, 3.0]), 1.5);
        assert_eq!(minimum(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 48 cells: p90 leaves 4 beyond, p75 leaves 12.
        let t = tail(&v(48)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (75.0, 36.0, 12, 48)
        );
        // 80 cells: p90 leaves 8, so p75 again.
        assert_eq!(tail(&v(80)).unwrap().percentile, 75.0);
        // 1980 cells: p99 leaves 19, p99.9 only 1.
        let t = tail(&v(1980)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1961.0, 19));
        // 10 000 samples reach p99.9 with exactly 10 beyond.
        let t = tail(&v(10_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
        // Too few samples for any tail: the median, with what lies beyond.
        let t = tail(&v(7)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 4.0, 3));
        assert_eq!(tail(&[]), None);
        // Order does not matter.
        let mut r = v(48);
        r.reverse();
        assert_eq!(tail(&r).unwrap().value, 36.0);
    }

    #[test]
    fn speedup_geomean_is_the_harness_geomean() {
        // The benchmark reduces per-cell speedups with the harness's own
        // geometric mean; pin the properties the metric relies on.
        let g = seer_harness::geometric_mean;
        assert!((g(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((g(&[8.0, 2.0, 1.0]) - g(&[1.0, 2.0, 8.0])).abs() < 1e-12);
        assert!((g(&[3.0; 5]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vmhwm_parses_from_proc_status() {
        let status =
            "Name:\tseer-benchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(12345));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }
}
