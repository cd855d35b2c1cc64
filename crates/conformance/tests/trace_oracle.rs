//! Property test: every verdict an [`InferenceTrace`] row records agrees
//! with the naive conformance oracle re-deriving the same decision.
//!
//! The traced inference path (`infer_conflict_pairs` with a row callback) makes its
//! decisions and fills its `RowTrace`/`PairDecision` records from the
//! *same* comparisons — this suite checks that against the independent
//! reference implementation (per-pair recomputation, E[v²]−E[v]² variance,
//! bisection quantile), so a trace that disagrees with the oracle would
//! expose either a decision bug or a provenance-recording bug. As in the
//! differential suite, disagreement is tolerated only within numerical
//! tolerance of a decision boundary.

use proptest::prelude::*;
use seer::inference::{infer_conflict_pairs, MIN_DISCRIMINATIVE_SIGMA};
use seer::Thresholds;
use seer_conformance::{random_stats, reference_decision};
use seer_runtime::trace::RowTrace;
use seer_sim::SimRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// For randomized-but-realizable statistics under randomized
    /// thresholds, every recorded pair verdict equals the oracle's
    /// serialize decision, the recorded probabilities are bit-identical to
    /// the oracle's, and the recorded cutoff/σ² match within the quantile
    /// approximation error.
    #[test]
    fn traced_verdicts_agree_with_reference_oracle(
        seed in 0u64..1_000_000,
        blocks in 2usize..=8,
        threads in 1usize..=8,
        th1 in 0.0f64..0.6,
        th2 in 0.05f64..0.95,
    ) {
        let mut rng = SimRng::new(seed);
        let stats = random_stats(&mut rng, blocks, threads);
        let th = Thresholds { th1, th2 };

        let mut rows: Vec<RowTrace> = Vec::new();
        let pairs = infer_conflict_pairs(&stats, th, MIN_DISCRIMINATIVE_SIGMA, Some(&mut |r| rows.push(r)));

        // One row per block, one decision per ordered pair — the
        // self-pair (x, x) included: x‖x is two threads in the same block.
        prop_assert_eq!(rows.len(), blocks);
        for (x, row) in rows.iter().enumerate() {
            prop_assert_eq!(row.x, x);
            prop_assert_eq!(row.pairs.len(), blocks);
            prop_assert_eq!(row.discriminative, row.sigma2.sqrt() >= MIN_DISCRIMINATIVE_SIGMA);
            for pair in &row.pairs {
                let oracle = reference_decision(&stats, x, pair.y, th);
                // Same closed forms over the same integers: exact.
                prop_assert_eq!(pair.conditional, oracle.conditional,
                    "conditional diverged for ({}, {})", x, pair.y);
                prop_assert_eq!(pair.conjunctive, oracle.conjunctive,
                    "conjunctive diverged for ({}, {})", x, pair.y);
                // Different σ/quantile algorithms: approximation-tolerant.
                prop_assert!((row.sigma2.sqrt() - oracle.sigma).abs() < 1e-9,
                    "sigma diverged for row {}: {} vs {}", x, row.sigma2.sqrt(), oracle.sigma);
                prop_assert!((row.cutoff - oracle.cutoff).abs() < 2e-4 * oracle.sigma + 1e-9,
                    "cutoff diverged for row {}: {} vs {}", x, row.cutoff, oracle.cutoff);

                if pair.verdict.serialize() != oracle.serialize {
                    // Legitimate only on a knife edge (differential.rs
                    // tolerances).
                    let on_th1_edge = (oracle.conjunctive - th.th1).abs() < 1e-9;
                    let on_cutoff_edge = (oracle.conditional - oracle.cutoff).abs() < 1e-6;
                    let on_sigma_edge =
                        (oracle.sigma - MIN_DISCRIMINATIVE_SIGMA).abs() < 1e-9;
                    prop_assert!(on_th1_edge || on_cutoff_edge || on_sigma_edge,
                        "verdict {:?} for ({}, {}) disagrees with oracle {:?} away from \
                         any boundary", pair.verdict, x, pair.y, oracle);
                }

                // The verdict decomposition is internally consistent: the
                // serialize bit recomputed from the *recorded* quantities
                // must reproduce the recorded verdict.
                let conjunctive_ok = pair.conjunctive > th.th1;
                let conditional_ok = !row.discriminative || pair.conditional > row.cutoff;
                prop_assert_eq!(pair.verdict.serialize(), conjunctive_ok && conditional_ok,
                    "verdict {:?} inconsistent with its own recorded evidence", pair.verdict);

                // And the pair list is exactly the serialize verdicts.
                prop_assert_eq!(pairs.contains(&(x, pair.y)), pair.verdict.serialize());
            }
        }
    }
}
