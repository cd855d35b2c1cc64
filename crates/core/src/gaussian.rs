//! Gaussian distribution machinery for the Th2 percentile cut-off.
//!
//! Seer fits a normal distribution `N(η, σ²)` to the row of conditional
//! abort probabilities `P(x aborts | x‖y)` and serializes only the
//! transactions `y` whose probability falls above the `Th2`-th percentile
//! (paper §4, Alg. 5 line 72). That requires the inverse normal CDF, which
//! we implement with Acklam's rational approximation (relative error
//! < 1.15e-9 over the open unit interval), plus the forward CDF via a
//! Hart/Abramowitz–Stegun `erf` approximation for tests and diagnostics.

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal CDF Φ(z).
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF Φ⁻¹(p) (Acklam's algorithm).
///
/// # Panics
/// If `p` is outside the open interval `(0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile of p={p} outside (0,1)");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The `percentile`-th percentile of `N(mean, variance)` — the cut-off
/// value used in Alg. 5 line 72.
///
/// A degenerate distribution (zero variance) returns `mean` for any
/// percentile: every probability in the row then ties, and the conjunctive
/// Th1 condition alone decides serialization.
pub fn gaussian_percentile(mean: f64, variance: f64, percentile: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&percentile));
    if variance <= 0.0 {
        return mean;
    }
    let p = percentile.clamp(1e-9, 1.0 - 1e-9);
    mean + variance.sqrt() * std_normal_quantile(p)
}

/// Mean and (population) variance of a slice; `(0, 0)` for an empty slice.
pub fn mean_variance(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!(erf(6.0) > 0.999_999);
    }

    #[test]
    fn cdf_known_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn quantile_known_values() {
        assert!(std_normal_quantile(0.5).abs() < 1e-8);
        assert!((std_normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((std_normal_quantile(0.8) - 0.841_621).abs() < 1e-4);
        assert!((std_normal_quantile(0.025) + 1.959_964).abs() < 1e-4);
        assert!((std_normal_quantile(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[0.01, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99] {
            let z = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(z) - p).abs() < 1e-6,
                "roundtrip failed at p={p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn quantile_rejects_unit_boundary() {
        std_normal_quantile(1.0);
    }

    #[test]
    fn percentile_scales_and_shifts() {
        // 80th percentile of N(0.5, 0.01): 0.5 + 0.1 * 0.8416.
        let v = gaussian_percentile(0.5, 0.01, 0.8);
        assert!((v - (0.5 + 0.1 * 0.841_621)).abs() < 1e-4);
        // Median is the mean.
        assert!((gaussian_percentile(0.3, 0.04, 0.5) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn percentile_degenerate_variance() {
        assert_eq!(gaussian_percentile(0.7, 0.0, 0.99), 0.7);
        assert_eq!(gaussian_percentile(0.7, -1.0, 0.01), 0.7);
    }

    #[test]
    fn mean_variance_basics() {
        let (m, v) = mean_variance(&[]);
        assert_eq!((m, v), (0.0, 0.0));
        let (m, v) = mean_variance(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(v, 0.0);
        let (m, v) = mean_variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((v - 1.25).abs() < 1e-12);
    }
}
