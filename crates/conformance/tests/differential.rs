//! Differential testing: `seer::inference` + `seer::gaussian` against the
//! naive reference oracles, on randomized-but-realizable statistics
//! matrices.
//!
//! The production and reference paths share formulas but not code: the
//! reference recomputes row statistics per pair with a different variance
//! algorithm and finds quantiles by bisection. Floating-point noise between
//! the two is therefore expected *exactly at decision boundaries*, and the
//! comparison accounts for it: a disagreement is only accepted when the
//! pair sits within numerical tolerance of one of the three thresholds
//! (Th1 on the conjunctive probability, the Th2 percentile cut-off, or the
//! minimum discriminative sigma).

use seer::gaussian::{gaussian_percentile, std_normal_cdf};
use seer::inference::{
    conditional_abort_probability, conjunctive_abort_probability, infer_conflict_pairs,
    InferenceScratch, MIN_DISCRIMINATIVE_SIGMA,
};
use seer::Thresholds;
use seer_conformance::{
    random_stats, reference_decision, reference_gaussian_percentile, stats_violations,
};
use seer_sim::SimRng;
use std::collections::BTreeSet;

const MATRICES: usize = 1500;

#[test]
fn inference_agrees_with_reference_on_randomized_matrices() {
    let mut rng = SimRng::new(0x0C0A_C0DE);
    let mut pairs_checked = 0u64;
    let mut serialized_seen = 0u64;
    let mut boundary_disagreements = 0u64;
    // One scratch for every matrix, as the scheduler reuses its own across
    // rounds: no round may see a previous round's rows.
    let mut scratch = InferenceScratch::default();

    for case in 0..MATRICES {
        let blocks = 2 + rng.below(7) as usize; // 2..=8
        let threads = 2 + rng.below(7) as usize;
        let stats = random_stats(&mut rng, blocks, threads);
        // Realizability is a precondition for the probabilities to mean
        // anything — check it on every generated matrix.
        let violations = stats_violations(&stats, 1);
        assert!(violations.is_empty(), "case {case}: {violations:?}");

        let th = Thresholds {
            th1: rng.unit() * 0.6,
            th2: 0.05 + rng.unit() * 0.9,
        };
        let subject: BTreeSet<(usize, usize)> =
            infer_conflict_pairs(&stats, th, MIN_DISCRIMINATIVE_SIGMA, &mut scratch, None)
                .iter()
                .copied()
                .collect();

        for x in 0..blocks {
            for y in 0..blocks {
                pairs_checked += 1;
                let oracle = reference_decision(&stats, x, y, th);
                // The point probabilities use the same closed forms on the
                // same integers: they must agree to the last bit.
                assert_eq!(
                    oracle.conditional,
                    conditional_abort_probability(&stats, x, y),
                    "case {case}: conditional P({x}|{y}) diverged"
                );
                assert_eq!(
                    oracle.conjunctive,
                    conjunctive_abort_probability(&stats, x, y),
                    "case {case}: conjunctive P({x}∧{y}) diverged"
                );
                let subject_serializes = subject.contains(&(x, y));
                if oracle.serialize {
                    serialized_seen += 1;
                }
                if subject_serializes != oracle.serialize {
                    // Disagreements are legitimate only on a knife edge.
                    let on_th1_edge = (oracle.conjunctive - th.th1).abs() < 1e-9;
                    let on_cutoff_edge = (oracle.conditional - oracle.cutoff).abs() < 1e-6;
                    let on_sigma_edge = (oracle.sigma - MIN_DISCRIMINATIVE_SIGMA).abs() < 1e-9;
                    assert!(
                        on_th1_edge || on_cutoff_edge || on_sigma_edge,
                        "case {case}, pair ({x},{y}): subject={subject_serializes} \
                         oracle={:?} th={th:?} — disagreement away from any boundary",
                        oracle
                    );
                    boundary_disagreements += 1;
                }
            }
        }
    }

    // The sweep must actually exercise both outcomes to mean anything.
    assert!(
        pairs_checked >= 1000 * 4,
        "only {pairs_checked} pairs checked"
    );
    assert!(
        serialized_seen > 500,
        "oracle never serialized enough pairs ({serialized_seen}) — generator too tame"
    );
    assert!(
        boundary_disagreements * 1000 < pairs_checked,
        "{boundary_disagreements} knife-edge disagreements in {pairs_checked} pairs: \
         more than numerical noise"
    );
}

#[test]
fn gaussian_percentile_agrees_with_bisection_oracle() {
    let means = [-0.25, 0.0, 0.2, 0.5, 1.0];
    let variances = [1e-8, 1e-4, 0.01, 0.04, 0.25, 1.0];
    // Straddles both switch points of Acklam's piecewise approximation
    // (p = 0.02425 and its mirror).
    let percentiles = [
        0.001, 0.01, 0.024, 0.025, 0.2, 0.5, 0.8, 0.975, 0.976, 0.99, 0.999,
    ];
    for &mean in &means {
        for &variance in &variances {
            let sigma = f64::sqrt(variance);
            for &p in &percentiles {
                let subject = gaussian_percentile(mean, variance, p);
                let oracle = reference_gaussian_percentile(mean, variance, p);
                // The oracle's residual is the forward CDF's own error
                // (≤1.5e-7 in probability), which maps to ≤ ~5e-5 in z over
                // this percentile range.
                assert!(
                    (subject - oracle).abs() <= 2e-4 * sigma + 1e-12,
                    "percentile({mean}, {variance}, {p}): subject {subject} vs oracle {oracle}"
                );
                // Forward consistency: the subject's cut-off really does
                // sit at the requested mass.
                let z = (subject - mean) / sigma;
                assert!(
                    (std_normal_cdf(z) - p).abs() < 1e-5,
                    "percentile({mean}, {variance}, {p}) maps back to mass {}",
                    std_normal_cdf(z)
                );
            }
        }
    }
}

#[test]
fn degenerate_rows_agree_between_paths() {
    // Zero variance: both paths must return the mean for any percentile.
    for &p in &[0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0] {
        assert_eq!(gaussian_percentile(0.4, 0.0, p), 0.4);
        assert_eq!(reference_gaussian_percentile(0.4, 0.0, p), 0.4);
    }
    // An empty matrix serializes nothing under either path.
    let stats = random_stats(&mut SimRng::new(1), 4, 0);
    let th = Thresholds::default();
    let mut scratch = InferenceScratch::default();
    assert!(
        infer_conflict_pairs(&stats, th, MIN_DISCRIMINATIVE_SIGMA, &mut scratch, None).is_empty()
    );
    assert!(seer_conformance::reference_infer(&stats, Thresholds::default()).is_empty());
}
