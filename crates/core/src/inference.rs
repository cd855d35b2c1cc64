//! The probabilistic inference of conflict relations (Alg. 5).
//!
//! For every pair of atomic blocks `(x, y)` the merged statistics yield:
//!
//! * the **conditional** probability that `x` aborts given `y` was running
//!   concurrently — `P(x aborts | x‖y) = a_xy / (c_xy + a_xy)`;
//! * the **conjunctive** probability of an abort of `x` with `y` running —
//!   `P(x aborts ∧ x‖y) = a_xy / e_x`.
//!
//! A pair is serialized when the conjunctive probability clears the
//! absolute threshold `Th1` (is the pattern *frequent enough to matter*?)
//! **and** the conditional probability clears the `Th2`-th percentile of a
//! Gaussian fitted to the conditional probabilities of `x`'s whole row (is
//! `y` *among the most suspicious peers*, rather than a false positive of
//! the imprecise active-transactions probing?).

use seer_runtime::trace::{PairDecision, RowTrace, Verdict};
use seer_runtime::BlockId;

use crate::gaussian::{gaussian_percentile, mean_variance};
use crate::stats::MergedStats;

/// Inference thresholds (self-tuned by the hill climber at run time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Lower bound on the conjunctive probability `P(x aborts ∧ x‖y)`.
    pub th1: f64,
    /// Percentile cut-off (in `[0, 1]`) on the conditional probability.
    pub th2: f64,
}

impl Default for Thresholds {
    /// The paper's initial values: `Th1 = 0.3`, `Th2 = 0.8`.
    fn default() -> Self {
        Self { th1: 0.3, th2: 0.8 }
    }
}

impl Thresholds {
    /// Clamps both thresholds into the unit square (the hill climber's
    /// search space).
    pub fn clamped(self) -> Self {
        Self {
            th1: self.th1.clamp(0.0, 1.0),
            th2: self.th2.clamp(0.0, 1.0),
        }
    }
}

/// `P(x aborts | x‖y)`; 0 when the pair was never observed together.
pub fn conditional_abort_probability(stats: &MergedStats, x: BlockId, y: BlockId) -> f64 {
    let a = stats.a(x, y) as f64;
    let c = stats.c(x, y) as f64;
    if a + c == 0.0 {
        0.0
    } else {
        a / (a + c)
    }
}

/// `P(x aborts ∧ x‖y)`; 0 when `x` was never executed.
pub fn conjunctive_abort_probability(stats: &MergedStats, x: BlockId, y: BlockId) -> f64 {
    let e = stats.e(x) as f64;
    if e == 0.0 {
        0.0
    } else {
        stats.a(x, y) as f64 / e
    }
}

/// Minimum standard deviation of a row's conditional probabilities for the
/// Th2 percentile filter to be applied.
///
/// The Th2 condition exists to separate genuinely conflicting partners
/// from false positives of the imprecise `activeTxs` probing — which
/// presumes the conditional probabilities actually *separate*. When one
/// atomic block dominates the mix (vacation runs >80% `make-reservation`),
/// every scan sees it active, the whole row collapses onto the block's
/// marginal abort rate, and the "percentile of a Gaussian with σ≈0"
/// degenerates into thresholding measurement noise. In that regime the
/// conjunctive Th1 condition carries all the usable signal, so the filter
/// steps aside. (Documented as a robustness deviation in `DESIGN.md` §5;
/// the paper does not specify behaviour for degenerate rows.)
pub const MIN_DISCRIMINATIVE_SIGMA: f64 = 0.05;

/// The serialization pairs implied by `stats` under `th`: every `(x, y)`
/// meeting both conditions of Alg. 5 line 72. Pairs are returned once per
/// direction evaluated (the caller applies the symmetric lock assignment of
/// lines 73–74).
///
/// `min_sigma` is the discriminative-sigma floor: the paper-default paths
/// pass [`MIN_DISCRIMINATIVE_SIGMA`]; the tuner searches other values.
///
/// With `on_row`, the function also reports decision provenance: one
/// [`RowTrace`] per atomic block carrying the fitted Gaussian, the
/// percentile cutoff actually used and every pair's probabilities and
/// [`Verdict`]. The serialize decisions and the emitted verdicts come
/// from the *same* comparisons and can never diverge; the trace
/// structures are only built when a callback is present (zero cost
/// otherwise).
pub fn infer_conflict_pairs(
    stats: &MergedStats,
    th: Thresholds,
    min_sigma: f64,
    mut on_row: Option<&mut dyn FnMut(RowTrace)>,
) -> Vec<(BlockId, BlockId)> {
    let n = stats.blocks();
    let mut pairs = Vec::new();
    let mut cond = Vec::with_capacity(n);
    let mut row_pairs: Vec<BlockId> = Vec::with_capacity(n);
    for x in 0..n {
        let mut trace = on_row.as_ref().map(|_| Vec::with_capacity(n));
        let fit = compute_row(stats, x, th, min_sigma, &mut cond, &mut row_pairs, trace.as_mut());
        pairs.extend(row_pairs.iter().map(|&y| (x, y)));
        if let (Some(cb), Some(tr)) = (on_row.as_mut(), trace) {
            cb(fit.into_row_trace(x, tr));
        }
    }
    pairs
}

/// The cacheable per-row summary of one Alg. 5 row: the fitted Gaussian,
/// the percentile cutoff actually compared against, and the sigma-floor
/// verdict. Everything a [`RowTrace`] carries except the pair list.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowFit {
    /// Fitted mean `η` of the row's conditional probabilities.
    pub eta: f64,
    /// Fitted variance `σ²` of the row's conditional probabilities.
    pub sigma2: f64,
    /// The `Th2`-percentile cutoff of the fitted Gaussian.
    pub cutoff: f64,
    /// Whether `σ` cleared the discriminative floor (Th2 participates).
    pub discriminative: bool,
}

impl RowFit {
    /// Rehydrates a full [`RowTrace`] from the cached fit plus a pair list.
    pub fn into_row_trace(self, x: BlockId, pairs: Vec<PairDecision>) -> RowTrace {
        RowTrace {
            x,
            eta: self.eta,
            sigma2: self.sigma2,
            cutoff: self.cutoff,
            discriminative: self.discriminative,
            pairs,
        }
    }
}

/// The single shared row kernel of Alg. 5: fills `cond` with row `x`'s
/// conditional probabilities, fits the Gaussian, and rewrites `out_pairs`
/// with the serialized partners `y` of `x` (in ascending `y`). When
/// `trace` is given, one [`PairDecision`] per `y` is appended to it — the
/// verdicts come from the *same* comparisons that emitted the pairs, so
/// traced and untraced decisions can never diverge.
///
/// Every inference entry point — the free full-recompute functions above
/// and the incremental [`crate::InferenceEngine`] — funnels through this
/// kernel, which is what makes cached rows bit-identical to fresh ones.
pub(crate) fn compute_row(
    stats: &MergedStats,
    x: BlockId,
    th: Thresholds,
    min_sigma: f64,
    cond: &mut Vec<f64>,
    out_pairs: &mut Vec<BlockId>,
    mut trace: Option<&mut Vec<PairDecision>>,
) -> RowFit {
    let commit_row = stats.commit_row(x);
    let abort_row = stats.abort_row(x);
    cond.clear();
    cond.extend(abort_row.iter().zip(commit_row).map(|(&a, &c)| {
        let (a, c) = (a as f64, c as f64);
        if a + c == 0.0 {
            0.0
        } else {
            a / (a + c)
        }
    }));
    let (eta, sigma2) = mean_variance(cond);
    let discriminative = sigma2.sqrt() >= min_sigma;
    let cutoff = gaussian_percentile(eta, sigma2, th.th2);
    // e_x is row-constant: hoist the load, float conversion and the
    // zero-executions test out of the pair loop. The division itself stays
    // per-pair (`a / e_x`) — a reciprocal multiply would round differently
    // and break fixture bit-identity.
    let e = stats.e(x) as f64;
    out_pairs.clear();
    for (y, &cond_p) in cond.iter().enumerate() {
        let conj = if e == 0.0 { 0.0 } else { abort_row[y] as f64 / e };
        // Strict inequalities as in the paper; the Th2 percentile only
        // participates when the row carries discriminative signal.
        let conjunctive_ok = conj > th.th1;
        let conditional_ok = !discriminative || cond_p > cutoff;
        if conjunctive_ok && conditional_ok {
            out_pairs.push(y);
        }
        if let Some(tr) = trace.as_mut() {
            tr.push(PairDecision {
                y,
                conditional: cond_p,
                conjunctive: conj,
                verdict: Verdict::from_checks(conjunctive_ok, conditional_ok),
            });
        }
    }
    RowFit {
        eta,
        sigma2,
        cutoff,
        discriminative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ThreadStats;

    /// Builds merged stats where block 0 aborted `a01` times with 1 active
    /// and committed `c01` times with 1 active, out of `e0` executions.
    fn stats_pairwise(blocks: usize, fill: impl Fn(&mut ThreadStats)) -> MergedStats {
        let mut t = ThreadStats::new(blocks);
        fill(&mut t);
        let mut m = MergedStats::new(blocks);
        m.merge_from([&t].into_iter());
        m
    }

    #[test]
    fn probabilities_match_definitions() {
        let m = stats_pairwise(2, |t| {
            for _ in 0..30 {
                t.register_abort(0, [1].into_iter());
            }
            for _ in 0..10 {
                t.register_commit(0, [1].into_iter());
            }
            for _ in 0..60 {
                t.register_commit(0, [].into_iter());
            }
        });
        // a01=30, c01=10, e0=100.
        assert!((conditional_abort_probability(&m, 0, 1) - 0.75).abs() < 1e-12);
        assert!((conjunctive_abort_probability(&m, 0, 1) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn zero_observations_give_zero_probability() {
        let m = stats_pairwise(2, |_| {});
        assert_eq!(conditional_abort_probability(&m, 0, 1), 0.0);
        assert_eq!(conjunctive_abort_probability(&m, 0, 1), 0.0);
    }

    #[test]
    fn frequent_conflicter_is_detected_rare_one_is_not() {
        // Block 0 aborts heavily when 1 is around, rarely when 2 is around.
        let m = stats_pairwise(3, |t| {
            for _ in 0..40 {
                t.register_abort(0, [1].into_iter());
            }
            for _ in 0..2 {
                t.register_abort(0, [2].into_iter());
            }
            for _ in 0..5 {
                t.register_commit(0, [1].into_iter());
            }
            for _ in 0..30 {
                t.register_commit(0, [2].into_iter());
            }
            for _ in 0..23 {
                t.register_commit(0, [].into_iter());
            }
        });
        // e0 = 100; conj(0,1) = 0.40 > Th1; conj(0,2) = 0.02 < Th1.
        let pairs = infer_conflict_pairs(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA, None);
        assert!(pairs.contains(&(0, 1)), "pairs = {pairs:?}");
        assert!(!pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(0, 0)));
    }

    #[test]
    fn th1_suppresses_rare_patterns_regardless_of_conditional() {
        // Conditional probability is 1.0 (always aborts when 1 is around)
        // but it only happened twice in 100 executions: conjunctive 0.02.
        let m = stats_pairwise(2, |t| {
            for _ in 0..2 {
                t.register_abort(0, [1].into_iter());
            }
            for _ in 0..98 {
                t.register_commit(0, [].into_iter());
            }
        });
        assert_eq!(conditional_abort_probability(&m, 0, 1), 1.0);
        let pairs = infer_conflict_pairs(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA, None);
        assert!(pairs.is_empty(), "pairs = {pairs:?}");
        // Lowering Th1 lets the pair through.
        let pairs = infer_conflict_pairs(
            &m,
            Thresholds {
                th1: 0.01,
                th2: 0.8,
            },
            MIN_DISCRIMINATIVE_SIGMA,
            None,
        );
        assert!(pairs.contains(&(0, 1)));
    }

    #[test]
    fn th2_percentile_separates_suspects_from_noise() {
        // Block 0 sees blocks 1..=4 equally often; only 1 truly conflicts.
        // The false positives have low conditional probability; the
        // percentile cut must single out block 1.
        let m = stats_pairwise(5, |t| {
            for _ in 0..35 {
                t.register_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.register_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.register_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.register_commit(0, [y].into_iter());
                }
            }
        });
        // e0 = 35+12+5+48 = 100. cond(0,1)=0.875, cond(0,y)=0.2.
        let pairs = infer_conflict_pairs(
            &m,
            Thresholds {
                th1: 0.03,
                th2: 0.8,
            },
            MIN_DISCRIMINATIVE_SIGMA,
            None,
        );
        assert!(pairs.contains(&(0, 1)), "pairs = {pairs:?}");
        for y in 2..5 {
            assert!(!pairs.contains(&(0, y)), "false positive {y}: {pairs:?}");
        }
    }

    #[test]
    fn self_conflicts_are_representable() {
        // x = y is allowed: a block contending with instances of itself.
        let m = stats_pairwise(2, |t| {
            for _ in 0..50 {
                t.register_abort(0, [0].into_iter());
            }
            for _ in 0..50 {
                t.register_commit(0, [].into_iter());
            }
        });
        let pairs = infer_conflict_pairs(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA, None);
        assert!(pairs.contains(&(0, 0)), "pairs = {pairs:?}");
    }

    #[test]
    fn traced_inference_agrees_with_untraced() {
        let m = stats_pairwise(5, |t| {
            for _ in 0..35 {
                t.register_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.register_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.register_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.register_commit(0, [y].into_iter());
                }
            }
        });
        let th = Thresholds { th1: 0.03, th2: 0.8 };
        let plain = infer_conflict_pairs(&m, th, MIN_DISCRIMINATIVE_SIGMA, None);
        let mut rows = Vec::new();
        let traced = infer_conflict_pairs(
            &m,
            th,
            MIN_DISCRIMINATIVE_SIGMA,
            Some(&mut |r| rows.push(r)),
        );
        assert_eq!(plain, traced);
        assert_eq!(rows.len(), 5, "one row trace per block");
        // The serialized pairs are exactly the Serialize verdicts.
        let from_verdicts: Vec<(usize, usize)> = rows
            .iter()
            .flat_map(|r| {
                r.pairs
                    .iter()
                    .filter(|p| p.verdict.serialize())
                    .map(move |p| (r.x, p.y))
            })
            .collect();
        assert_eq!(from_verdicts, plain);
        // Probabilities in the trace are the real ones, bit for bit.
        for r in &rows {
            for p in &r.pairs {
                assert_eq!(p.conditional, conditional_abort_probability(&m, r.x, p.y));
                assert_eq!(p.conjunctive, conjunctive_abort_probability(&m, r.x, p.y));
            }
        }
    }

    #[test]
    fn sigma_floor_gates_the_percentile_filter() {
        // cond(0,1)=0.875 towers over cond(0,2..5)=0.2 — the row is
        // discriminative at the default floor, and the percentile filter
        // rejects the low-conditional pairs. Raising the floor above the
        // row's sigma disables the filter and lets every Th1 survivor in.
        let m = stats_pairwise(5, |t| {
            for _ in 0..35 {
                t.register_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.register_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.register_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.register_commit(0, [y].into_iter());
                }
            }
        });
        let th = Thresholds { th1: 0.03, th2: 0.8 };
        let strict = infer_conflict_pairs(&m, th, MIN_DISCRIMINATIVE_SIGMA, None);
        assert!(!strict.contains(&(0, 2)));
        // A floor above any realistic sigma: Th2 never participates.
        let lax = infer_conflict_pairs(&m, th, 10.0, None);
        assert!(lax.contains(&(0, 2)), "pairs = {lax:?}");
    }

    #[test]
    fn thresholds_clamp() {
        let t = Thresholds { th1: -0.2, th2: 1.7 }.clamped();
        assert_eq!(t.th1, 0.0);
        assert_eq!(t.th2, 1.0);
    }
}
