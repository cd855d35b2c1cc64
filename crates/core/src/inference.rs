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

/// Caller-owned scratch of an inference round: the conditional
/// probabilities of the row being evaluated, that row's serialized
/// partners, and the round's output. Reusing one scratch across rounds
/// makes a steady-state untraced round allocate nothing once the buffers
/// have reached their working sizes.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    cond: Vec<f64>,
    row_pairs: Vec<BlockId>,
    out: Vec<(BlockId, BlockId)>,
}

/// One full round of Alg. 5: the serialization pairs implied by `stats`
/// under `th`, i.e. every `(x, y)` meeting both conditions of line 72, in
/// ascending `(x, y)` order. Pairs are returned once per direction
/// evaluated (the caller applies the symmetric lock assignment of lines
/// 73–74). The result lives in `scratch` until its next round.
///
/// `min_sigma` is the discriminative-sigma floor: the paper-default paths
/// pass [`MIN_DISCRIMINATIVE_SIGMA`]; a `seer@min-sigma=…` policy spec
/// sets another.
///
/// With `on_row`, the round also reports decision provenance: one
/// [`RowTrace`] per atomic block carrying the fitted Gaussian, the
/// percentile cutoff actually used and every pair's probabilities and
/// [`Verdict`]. The serialize decisions and the emitted verdicts come
/// from the *same* comparisons and can never diverge; the trace
/// structures are only built when a callback is present (zero cost
/// otherwise).
pub fn infer_conflict_pairs<'s>(
    stats: &MergedStats,
    th: Thresholds,
    min_sigma: f64,
    scratch: &'s mut InferenceScratch,
    mut on_row: Option<&mut dyn FnMut(RowTrace)>,
) -> &'s [(BlockId, BlockId)] {
    let InferenceScratch {
        cond,
        row_pairs,
        out,
    } = scratch;
    out.clear();
    for x in 0..stats.blocks() {
        let trace = compute_row(stats, x, th, min_sigma, cond, row_pairs, on_row.is_some());
        out.extend(row_pairs.iter().map(|&y| (x, y)));
        if let (Some(cb), Some(tr)) = (on_row.as_mut(), trace) {
            cb(tr);
        }
    }
    out
}

/// The row kernel of Alg. 5: fills `cond` with row `x`'s conditional
/// probabilities, fits the Gaussian, and rewrites `out_pairs` with the
/// serialized partners `y` of `x` (in ascending `y`). When `traced`, it
/// also returns the row's [`RowTrace`], one [`PairDecision`] per `y` —
/// the verdicts come from the *same* comparisons that emitted the pairs,
/// so traced and untraced decisions can never diverge.
fn compute_row(
    stats: &MergedStats,
    x: BlockId,
    th: Thresholds,
    min_sigma: f64,
    cond: &mut Vec<f64>,
    out_pairs: &mut Vec<BlockId>,
    traced: bool,
) -> Option<RowTrace> {
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
    let mut trace = traced.then(|| Vec::with_capacity(cond.len()));
    out_pairs.clear();
    for (y, &cond_p) in cond.iter().enumerate() {
        let conj = if e == 0.0 {
            0.0
        } else {
            abort_row[y] as f64 / e
        };
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
    trace.map(|pairs| RowTrace {
        x,
        eta,
        sigma2,
        cutoff,
        discriminative,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Statistics over `blocks` blocks, registered by `fill`.
    fn stats_pairwise(blocks: usize, fill: impl Fn(&mut MergedStats)) -> MergedStats {
        let mut m = MergedStats::new(blocks);
        fill(&mut m);
        m
    }

    /// One untraced round on fresh scratch, as an owned list.
    fn infer(stats: &MergedStats, th: Thresholds, min_sigma: f64) -> Vec<(BlockId, BlockId)> {
        infer_conflict_pairs(stats, th, min_sigma, &mut InferenceScratch::default(), None).to_vec()
    }

    #[test]
    fn probabilities_match_definitions() {
        let m = stats_pairwise(2, |t| {
            for _ in 0..30 {
                t.add_abort(0, [1].into_iter());
            }
            for _ in 0..10 {
                t.add_commit(0, [1].into_iter());
            }
            for _ in 0..60 {
                t.add_commit(0, [].into_iter());
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
                t.add_abort(0, [1].into_iter());
            }
            for _ in 0..2 {
                t.add_abort(0, [2].into_iter());
            }
            for _ in 0..5 {
                t.add_commit(0, [1].into_iter());
            }
            for _ in 0..30 {
                t.add_commit(0, [2].into_iter());
            }
            for _ in 0..23 {
                t.add_commit(0, [].into_iter());
            }
        });
        // e0 = 100; conj(0,1) = 0.40 > Th1; conj(0,2) = 0.02 < Th1.
        let pairs = infer(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA);
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
                t.add_abort(0, [1].into_iter());
            }
            for _ in 0..98 {
                t.add_commit(0, [].into_iter());
            }
        });
        assert_eq!(conditional_abort_probability(&m, 0, 1), 1.0);
        let pairs = infer(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA);
        assert!(pairs.is_empty(), "pairs = {pairs:?}");
        // Lowering Th1 lets the pair through.
        let pairs = infer(
            &m,
            Thresholds {
                th1: 0.01,
                th2: 0.8,
            },
            MIN_DISCRIMINATIVE_SIGMA,
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
                t.add_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.add_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.add_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.add_commit(0, [y].into_iter());
                }
            }
        });
        // e0 = 35+12+5+48 = 100. cond(0,1)=0.875, cond(0,y)=0.2.
        let pairs = infer(
            &m,
            Thresholds {
                th1: 0.03,
                th2: 0.8,
            },
            MIN_DISCRIMINATIVE_SIGMA,
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
                t.add_abort(0, [0].into_iter());
            }
            for _ in 0..50 {
                t.add_commit(0, [].into_iter());
            }
        });
        let pairs = infer(&m, Thresholds::default(), MIN_DISCRIMINATIVE_SIGMA);
        assert!(pairs.contains(&(0, 0)), "pairs = {pairs:?}");
    }

    #[test]
    fn traced_inference_agrees_with_untraced() {
        let m = stats_pairwise(5, |t| {
            for _ in 0..35 {
                t.add_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.add_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.add_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.add_commit(0, [y].into_iter());
                }
            }
        });
        let th = Thresholds {
            th1: 0.03,
            th2: 0.8,
        };
        let plain = infer(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        let mut rows = Vec::new();
        let mut scratch = InferenceScratch::default();
        let traced = infer_conflict_pairs(
            &m,
            th,
            MIN_DISCRIMINATIVE_SIGMA,
            &mut scratch,
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
                t.add_abort(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..4 {
                    t.add_abort(0, [y].into_iter());
                }
            }
            for _ in 0..5 {
                t.add_commit(0, [1].into_iter());
            }
            for y in 2..5usize {
                for _ in 0..16 {
                    t.add_commit(0, [y].into_iter());
                }
            }
        });
        let th = Thresholds {
            th1: 0.03,
            th2: 0.8,
        };
        let strict = infer(&m, th, MIN_DISCRIMINATIVE_SIGMA);
        assert!(!strict.contains(&(0, 2)));
        // A floor above any realistic sigma: Th2 never participates.
        let lax = infer(&m, th, 10.0);
        assert!(lax.contains(&(0, 2)), "pairs = {lax:?}");
    }

    #[test]
    fn thresholds_clamp() {
        let t = Thresholds {
            th1: -0.2,
            th2: 1.7,
        }
        .clamped();
        assert_eq!(t.th1, 0.0);
        assert_eq!(t.th2, 1.0);
    }
}
