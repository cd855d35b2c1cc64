//! Naive reference implementations of the Alg. 5 inference.
//!
//! Everything here favours obviousness over speed and shares as little
//! code as possible with `seer::inference` / `seer::gaussian`: the row
//! statistics are recomputed from scratch for every pair (O(blocks³) per
//! inference instead of O(blocks²)), the variance uses the `E[v²] − E[v]²`
//! form instead of the two-pass form, and the normal quantile is found by
//! bisecting the forward CDF instead of Acklam's rational approximation.
//! Agreement between the two paths is therefore evidence, not tautology.

use seer::gaussian::std_normal_cdf;
use seer::inference::MIN_DISCRIMINATIVE_SIGMA;
use seer::stats::MergedStats;
use seer::Thresholds;
use seer_runtime::BlockId;
use seer_sim::SimRng;

/// Inverse standard normal CDF by bisection over [`std_normal_cdf`].
///
/// Converges to the approximation's own root, so the residual error is the
/// CDF's (≤ 1.5e-7), not the bisection's.
///
/// # Panics
/// If `p` is outside the open interval `(0, 1)`.
pub fn reference_std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile of p={p} outside (0,1)");
    let (mut lo, mut hi) = (-12.0_f64, 12.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if std_normal_cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Reference percentile of `N(mean, variance)`, mirroring the degenerate
/// conventions of [`seer::gaussian::gaussian_percentile`].
pub fn reference_gaussian_percentile(mean: f64, variance: f64, percentile: f64) -> f64 {
    if variance <= 0.0 {
        return mean;
    }
    let p = percentile.clamp(1e-9, 1.0 - 1e-9);
    mean + variance.sqrt() * reference_std_normal_quantile(p)
}

fn conditional(stats: &MergedStats, x: BlockId, y: BlockId) -> f64 {
    let aborts = stats.a(x, y) as f64;
    let commits = stats.c(x, y) as f64;
    if aborts + commits == 0.0 {
        0.0
    } else {
        aborts / (aborts + commits)
    }
}

fn conjunctive(stats: &MergedStats, x: BlockId, y: BlockId) -> f64 {
    let executions = stats.e(x) as f64;
    if executions == 0.0 {
        0.0
    } else {
        stats.a(x, y) as f64 / executions
    }
}

/// Row mean and population variance via E[v²] − E[v]² (clamped at zero),
/// recomputed from the matrices on every call.
fn row_mean_variance(stats: &MergedStats, x: BlockId) -> (f64, f64) {
    let n = stats.blocks();
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for y in 0..n {
        let v = conditional(stats, x, y);
        sum += v;
        sum_sq += v * v;
    }
    let mean = sum / n as f64;
    let variance = (sum_sq / n as f64 - mean * mean).max(0.0);
    (mean, variance)
}

/// Everything the reference computes for one ordered pair `(x, y)`.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceDecision {
    /// Whether the reference serializes the pair.
    pub serialize: bool,
    /// `P(x aborts ∧ x‖y)`.
    pub conjunctive: f64,
    /// `P(x aborts | x‖y)`.
    pub conditional: f64,
    /// The Th2 percentile cut-off for `x`'s row.
    pub cutoff: f64,
    /// Standard deviation of `x`'s row of conditional probabilities.
    pub sigma: f64,
}

/// Reference decision for the ordered pair `(x, y)` under `th`,
/// reproducing Alg. 5 line 72 including the degenerate-row convention of
/// [`MIN_DISCRIMINATIVE_SIGMA`].
pub fn reference_decision(
    stats: &MergedStats,
    x: BlockId,
    y: BlockId,
    th: Thresholds,
) -> ReferenceDecision {
    let (mean, variance) = row_mean_variance(stats, x);
    let sigma = variance.sqrt();
    let cutoff = reference_gaussian_percentile(mean, variance, th.th2);
    let conj = conjunctive(stats, x, y);
    let cond = conditional(stats, x, y);
    let discriminative = sigma >= MIN_DISCRIMINATIVE_SIGMA;
    ReferenceDecision {
        serialize: conj > th.th1 && (!discriminative || cond > cutoff),
        conjunctive: conj,
        conditional: cond,
        cutoff,
        sigma,
    }
}

/// The full reference inference: every ordered pair, decided one at a time.
pub fn reference_infer(stats: &MergedStats, th: Thresholds) -> Vec<(BlockId, BlockId)> {
    let n = stats.blocks();
    let mut pairs = Vec::new();
    for x in 0..n {
        for y in 0..n {
            if reference_decision(stats, x, y, th).serialize {
                pairs.push((x, y));
            }
        }
    }
    pairs
}

/// Violations of the counter conservation laws every realizable
/// statistics matrix must satisfy (empty = consistent):
///
/// * each execution of `x` contributes at most one event to any cell
///   `(x, y)` per concurrently announced block, so
///   `a(x,y) + c(x,y) ≤ e(x) · max_concurrent`;
/// * a block that never executed has an all-zero row.
pub fn stats_violations(stats: &MergedStats, max_concurrent: u64) -> Vec<String> {
    let n = stats.blocks();
    let mut violations = Vec::new();
    for x in 0..n {
        let executions = stats.e(x);
        for y in 0..n {
            let row_sum = stats.a(x, y) + stats.c(x, y);
            if row_sum > executions * max_concurrent {
                violations.push(format!(
                    "cell ({x},{y}): a+c = {row_sum} exceeds e_{x} · {max_concurrent} = {}",
                    executions * max_concurrent
                ));
            }
        }
    }
    violations
}

/// A realizable randomized statistics matrix: `threads` bursts of events
/// registered through the real `REGISTER-COMMIT` / `REGISTER-ABORT` paths,
/// so every conservation law of [`stats_violations`] holds by
/// construction.
pub fn random_stats(rng: &mut SimRng, blocks: usize, threads: usize) -> MergedStats {
    let mut stats = MergedStats::new(blocks);
    for _ in 0..threads {
        let events = rng.below(60);
        for _ in 0..events {
            let x = rng.below(blocks as u64) as usize;
            let concurrent: Vec<usize> = (0..blocks).filter(|_| rng.chance(0.35)).collect();
            if rng.chance(0.5) {
                stats.add_abort(x, concurrent.into_iter());
            } else {
                stats.add_commit(x, concurrent.into_iter());
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_quantile_known_values() {
        assert!(reference_std_normal_quantile(0.5).abs() < 1e-7);
        assert!((reference_std_normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((reference_std_normal_quantile(0.8) - 0.841_621).abs() < 1e-4);
    }

    #[test]
    fn random_stats_are_realizable() {
        let mut rng = SimRng::new(7);
        for _ in 0..50 {
            let blocks = 2 + rng.below(7) as usize;
            let stats = random_stats(&mut rng, blocks, 4);
            // Distinct concurrent blocks per event: the tight bound holds.
            assert!(stats_violations(&stats, 1).is_empty());
        }
    }

    #[test]
    fn stats_violations_detects_fabricated_counts() {
        // A duplicated partner in one scan: a(0,1) = 2 with e(0) = 1, which
        // no scan of distinct announced blocks can produce.
        let mut m = MergedStats::new(2);
        m.add_abort(0, [1, 1].into_iter());
        let v = stats_violations(&m, 1);
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
