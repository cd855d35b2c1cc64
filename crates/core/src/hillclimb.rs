//! Stochastic hill climbing of the inference thresholds (paper §4).
//!
//! Seer self-tunes `Th1` and `Th2` with "a simple and lightweight
//! bi-dimensional stochastic hill-climbing search, which exploits the
//! feedback of the TM performance (throughput …) to guide the search in
//! the parameter's space \[0,1\]×\[0,1\]", performing "with a small probability
//! p … random jumps in the parameters' space to avoid getting stuck in
//! local minima", with `p = 0.1%` and initial values `Th1 = 0.3`,
//! `Th2 = 0.8`.
//!
//! The climber is evaluated in rounds: the runtime reports the throughput
//! achieved under the *current* thresholds; the climber accepts the move if
//! throughput improved, reverts it otherwise, and proposes the next
//! candidate by perturbing one dimension (or jumping randomly).

use seer_sim::SimRng;

use crate::inference::Thresholds;

/// Stochastic hill climber over the `(Th1, Th2)` unit square.
#[derive(Debug, Clone)]
pub struct HillClimber {
    current: Thresholds,
    previous: Thresholds,
    last_throughput: f64,
    step: f64,
    jump_probability: f64,
    evaluations: u64,
    has_baseline: bool,
}

impl HillClimber {
    /// A climber starting from the paper's initial thresholds with the
    /// paper's jump probability (0.1%) and a step of 0.1.
    pub fn new() -> Self {
        Self::with_params(Thresholds::default(), 0.1, 0.001)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    /// If `step` is not in `(0, 1]` or `jump_probability` not in `[0, 1]`.
    pub fn with_params(initial: Thresholds, step: f64, jump_probability: f64) -> Self {
        assert!(step > 0.0 && step <= 1.0, "step must be in (0,1]");
        assert!(
            (0.0..=1.0).contains(&jump_probability),
            "jump probability in [0,1]"
        );
        let initial = initial.clamped();
        Self {
            current: initial,
            previous: initial,
            last_throughput: 0.0,
            step,
            jump_probability,
            evaluations: 0,
            has_baseline: false,
        }
    }

    /// Thresholds the runtime should currently use.
    pub fn thresholds(&self) -> Thresholds {
        self.current
    }

    /// Number of completed evaluations.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Reports the `throughput` (committed transactions per cycle — any
    /// consistent unit works) measured under the current thresholds, and
    /// moves the search. Returns the thresholds to use next.
    pub fn observe(&mut self, throughput: f64, rng: &mut SimRng) -> Thresholds {
        self.evaluations += 1;
        if !self.has_baseline {
            // First measurement establishes the baseline for the initial
            // point; no accept/revert decision yet.
            self.has_baseline = true;
        } else if throughput >= self.last_throughput {
            // The last move helped (or at least did not hurt relative to
            // the previous window): keep it. Comparing consecutive windows
            // rather than a historical best keeps the search working when
            // the workload's base throughput drifts over time.
            self.previous = self.current;
        } else {
            // The last move hurt: revert.
            self.current = self.previous;
        }
        self.last_throughput = throughput;
        self.propose(rng);
        self.current
    }

    fn propose(&mut self, rng: &mut SimRng) {
        self.previous = self.current;
        if rng.chance(self.jump_probability) {
            self.current = Thresholds {
                th1: rng.unit(),
                th2: rng.unit(),
            };
            return;
        }
        let delta = if rng.chance(0.5) {
            self.step
        } else {
            -self.step
        };
        let mut next = self.current;
        if rng.chance(0.5) {
            next.th1 += delta;
        } else {
            next.th2 += delta;
        }
        self.current = next.clamped();
    }
}

impl Default for HillClimber {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_paper_defaults() {
        let h = HillClimber::new();
        assert_eq!(h.thresholds(), Thresholds { th1: 0.3, th2: 0.8 });
        assert_eq!(h.evaluations(), 0);
    }

    #[test]
    fn thresholds_stay_in_unit_square() {
        let mut h = HillClimber::with_params(Thresholds { th1: 0.0, th2: 1.0 }, 0.2, 0.05);
        let mut rng = SimRng::new(3);
        for i in 0..500 {
            let t = h.observe(i as f64, &mut rng);
            assert!((0.0..=1.0).contains(&t.th1), "th1 escaped: {}", t.th1);
            assert!((0.0..=1.0).contains(&t.th2), "th2 escaped: {}", t.th2);
        }
        assert_eq!(h.evaluations(), 500);
    }

    #[test]
    fn reverts_harmful_moves() {
        let mut h = HillClimber::with_params(Thresholds::default(), 0.1, 0.0);
        let mut rng = SimRng::new(7);
        // Baseline at high throughput.
        h.observe(100.0, &mut rng);
        let good = h.previous; // the accepted point the proposal starts from
                               // The next window is much worse: the move is reverted.
        h.observe(1.0, &mut rng);
        assert_eq!(h.previous, good, "harmful move was not reverted");
    }

    #[test]
    fn climbs_towards_better_throughput() {
        // Throughput landscape: peak at th1 = 1.0 (monotone in th1).
        let mut h = HillClimber::with_params(Thresholds { th1: 0.2, th2: 0.5 }, 0.05, 0.0);
        let mut rng = SimRng::new(11);
        let mut current = h.thresholds();
        for _ in 0..4000 {
            let throughput = 10.0 * current.th1;
            current = h.observe(throughput, &mut rng);
        }
        assert!(
            h.previous.th1 > 0.8,
            "expected climb towards th1 = 1, got {:?}",
            h.previous
        );
    }

    #[test]
    fn reconverges_after_forced_throughput_regression() {
        // The environment first rewards high Th1; after the climber settles
        // there, the landscape inverts (a forced regression: the point it
        // sits on is now the worst). Because moves are judged against the
        // *previous window* rather than a historical best, the climber must
        // walk back down and settle near the new peak.
        let mut h = HillClimber::with_params(Thresholds { th1: 0.5, th2: 0.5 }, 0.05, 0.0);
        let mut rng = SimRng::new(13);
        let mut current = h.thresholds();
        for _ in 0..4000 {
            current = h.observe(10.0 * current.th1, &mut rng);
        }
        assert!(
            h.previous.th1 > 0.8,
            "precondition: climber should sit near the old peak, got {:?}",
            h.previous
        );
        for _ in 0..8000 {
            current = h.observe(10.0 * (1.0 - current.th1), &mut rng);
        }
        assert!(
            h.previous.th1 < 0.2,
            "climber failed to re-converge after the regression: {:?}",
            h.previous
        );
    }

    #[test]
    fn random_jumps_move_far() {
        let mut h = HillClimber::with_params(Thresholds { th1: 0.5, th2: 0.5 }, 0.01, 1.0);
        let mut rng = SimRng::new(5);
        h.observe(1.0, &mut rng);
        let t = h.thresholds();
        // With p = 1 every proposal is a jump; the chance of landing within
        // one step of the start twice in a row is negligible.
        h.observe(1.0, &mut rng);
        let u = h.thresholds();
        assert!(
            (t.th1 - u.th1).abs() > 0.01 || (t.th2 - u.th2).abs() > 0.01,
            "jumps did not move: {t:?} vs {u:?}"
        );
    }

    #[test]
    #[should_panic(expected = "step")]
    fn invalid_step_rejected() {
        HillClimber::with_params(Thresholds::default(), 0.0, 0.0);
    }
}
