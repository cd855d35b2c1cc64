//! Property-based tests of Seer's inference machinery.

use proptest::prelude::*;
use seer::gaussian::{gaussian_percentile, mean_variance, std_normal_cdf, std_normal_quantile};
use seer::inference::{
    conditional_abort_probability, conjunctive_abort_probability, infer_conflict_pairs,
    InferenceScratch, Thresholds, MIN_DISCRIMINATIVE_SIGMA,
};
use seer::stats::MergedStats;
use seer::{HillClimber, LockTable};
use seer_sim::SimRng;

fn arb_stats(blocks: usize) -> impl Strategy<Value = MergedStats> {
    prop::collection::vec((0u32..200, 0u32..200), blocks * blocks).prop_map(move |cells| {
        let mut m = MergedStats::new(blocks);
        for (idx, (aborts, commits)) in cells.into_iter().enumerate() {
            let x = idx / blocks;
            let y = idx % blocks;
            for _ in 0..aborts {
                m.add_abort(x, [y].into_iter());
            }
            for _ in 0..commits {
                m.add_commit(x, [y].into_iter());
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both probability definitions stay in [0, 1] under indicator-counted
    /// statistics, for any statistics content.
    #[test]
    fn probabilities_are_probabilities(stats in arb_stats(4)) {
        for x in 0..4 {
            for y in 0..4 {
                let cond = conditional_abort_probability(&stats, x, y);
                let conj = conjunctive_abort_probability(&stats, x, y);
                prop_assert!((0.0..=1.0).contains(&cond), "cond {cond}");
                prop_assert!((0.0..=1.0).contains(&conj), "conj {conj}");
                // Conjunctive never exceeds the marginal evidence.
                prop_assert!(conj <= 1.0);
            }
        }
    }

    /// Raising Th1 never adds pairs (monotone filtering).
    #[test]
    fn th1_is_monotone(stats in arb_stats(4), lo in 0.0f64..0.5, delta in 0.0f64..0.5) {
        let th_lo = Thresholds { th1: lo, th2: 0.5 };
        let th_hi = Thresholds { th1: lo + delta, th2: 0.5 };
        let mut scratch = InferenceScratch::default();
        let pairs_lo =
            infer_conflict_pairs(&stats, th_lo, MIN_DISCRIMINATIVE_SIGMA, &mut scratch, None).to_vec();
        let pairs_hi = infer_conflict_pairs(&stats, th_hi, MIN_DISCRIMINATIVE_SIGMA, &mut scratch, None);
        for p in pairs_hi {
            prop_assert!(pairs_lo.contains(p), "pair {p:?} appeared when Th1 rose");
        }
    }

    /// The lock table built from any pair set is symmetric, sorted and
    /// deduplicated.
    #[test]
    fn lock_table_rows_sorted_symmetric(
        pairs in prop::collection::vec((0usize..6, 0usize..6), 0..30)
    ) {
        let mut t = LockTable::new(6);
        t.rebuild(&pairs);
        for x in 0..6 {
            let row = t.row(x);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {x} unsorted: {row:?}");
            for &y in row {
                prop_assert!(t.row(y).contains(&x), "asymmetric: {x} -> {y}");
            }
        }
    }

    /// Gaussian quantile inverts the CDF across the useful range.
    #[test]
    fn quantile_cdf_roundtrip(p in 0.001f64..0.999) {
        let z = std_normal_quantile(p);
        prop_assert!((std_normal_cdf(z) - p).abs() < 1e-5);
    }

    /// Percentiles are monotone in the percentile and bracket the mean.
    #[test]
    fn percentile_monotone(mean in -5.0f64..5.0, var in 0.0001f64..4.0,
                           a in 0.01f64..0.98, d in 0.001f64..0.01) {
        let lo = gaussian_percentile(mean, var, a);
        let hi = gaussian_percentile(mean, var, a + d);
        prop_assert!(hi >= lo);
        prop_assert!(gaussian_percentile(mean, var, 0.5) - mean < 1e-9);
    }

    /// Mean/variance agree with the naive two-pass computation.
    #[test]
    fn mean_variance_matches_naive(values in prop::collection::vec(-100.0f64..100.0, 1..50)) {
        let (m, v) = mean_variance(&values);
        let n = values.len() as f64;
        let nm: f64 = values.iter().sum::<f64>() / n;
        let nv: f64 = values.iter().map(|x| (x - nm).powi(2)).sum::<f64>() / n;
        prop_assert!((m - nm).abs() < 1e-9);
        prop_assert!((v - nv).abs() < 1e-6);
    }

    /// The hill climber's thresholds remain in the unit square under any
    /// throughput feedback sequence.
    #[test]
    fn climber_stays_in_bounds(
        feedback in prop::collection::vec(0.0f64..100.0, 1..200),
        seed in any::<u64>(),
    ) {
        let mut h = HillClimber::new();
        let mut rng = SimRng::new(seed);
        for f in feedback {
            let t = h.observe(f, &mut rng);
            prop_assert!((0.0..=1.0).contains(&t.th1));
            prop_assert!((0.0..=1.0).contains(&t.th2));
        }
    }
}
