//! ATS: Adaptive Transaction Scheduling (Yoo & Lee, SPAA'08).
//!
//! The only prior scheduler that, like Seer, tolerates *imprecise* abort
//! information (paper Table 1): each thread maintains a *contention
//! intensity* updated on commits and aborts, and when it exceeds a
//! threshold the transaction is executed serialized — here, directly under
//! the single-global lock, which is how the paper characterizes ATS-style
//! behaviour for commodity HTM ("it alternates between serializing all
//! transactions or letting them all execute concurrently", §2).
//!
//! ATS is not one of the four curves in the paper's Figure 3 (the paper
//! argues RTM's wait-on-SGL fall-back is already "analogous in spirit"),
//! but it is implemented here both for completeness of Table 1 and as an
//! extra comparison series the harness can enable.

use seer_htm::XStatus;
use seer_runtime::{AbortDecision, Gate, LockId, SchedEnv, Scheduler};
use seer_sim::ThreadId;

/// The ATS baseline scheduler.
#[derive(Debug, Clone)]
pub struct Ats {
    budget: u32,
    alpha: f64,
    threshold: f64,
    intensity: Vec<f64>,
}

impl Ats {
    /// ATS for `threads` threads with the original paper's default
    /// weighting (`alpha = 0.3`) and serialization threshold (`0.5`).
    pub fn new(threads: usize) -> Self {
        Self::with_params(threads, 5, 0.3, 0.5)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    /// If `alpha` or `threshold` fall outside `(0, 1]` / `[0, 1]`.
    pub fn with_params(threads: usize, budget: u32, alpha: f64, threshold: f64) -> Self {
        assert!(budget > 0);
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!((0.0..=1.0).contains(&threshold), "threshold in [0,1]");
        Self {
            budget,
            alpha,
            threshold,
            intensity: vec![0.0; threads],
        }
    }

    /// Current contention intensity of `thread` (exposed for tests).
    pub fn intensity(&self, thread: ThreadId) -> f64 {
        self.intensity[thread]
    }

    fn update(&mut self, thread: ThreadId, event: f64) {
        let ci = &mut self.intensity[thread];
        *ci = self.alpha * event + (1.0 - self.alpha) * *ci;
    }
}

impl Scheduler for Ats {
    fn name(&self) -> &'static str {
        "ATS"
    }

    fn attempt_budget(&self) -> u32 {
        self.budget
    }

    fn pre_tx_fallback(
        &mut self,
        thread: ThreadId,
        _block: usize,
        _env: &mut SchedEnv<'_>,
    ) -> bool {
        self.intensity[thread] > self.threshold
    }

    fn pre_attempt_gates(
        &mut self,
        thread: ThreadId,
        block: usize,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        let mut gates = Vec::new();
        self.pre_attempt_gates_into(thread, block, attempts_left, env, &mut gates);
        gates
    }

    fn pre_attempt_gates_into(
        &mut self,
        _thread: ThreadId,
        _block: usize,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
        gates: &mut Vec<Gate>,
    ) {
        gates.push(Gate::WaitWhileLocked(LockId::Sgl));
    }

    fn on_abort(
        &mut self,
        thread: ThreadId,
        _block: usize,
        _status: XStatus,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        self.update(thread, 1.0);
        AbortDecision::Retry { gates: Vec::new() }
    }

    fn on_htm_commit(&mut self, thread: ThreadId, _block: usize, _env: &mut SchedEnv<'_>) {
        self.update(thread, 0.0);
    }

    fn on_fallback_commit(&mut self, thread: ThreadId, _block: usize, _env: &mut SchedEnv<'_>) {
        // A serialized execution always succeeds; it cools the intensity so
        // the thread eventually returns to optimistic execution.
        self.update(thread, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::LockBank;
    use seer_sim::{SimRng, Topology};

    fn env_with<'a>(bank: &'a LockBank, rng: &'a mut SimRng) -> SchedEnv<'a> {
        SchedEnv {
            now: 0,
            locks: bank,
            topology: Topology::haswell_e3(),
            rng,
            // Zero-sized, so the leak is free.
            trace: Box::leak(Box::new(seer_runtime::NullTraceSink)),
        }
    }

    #[test]
    fn intensity_rises_on_aborts_and_decays_on_commits() {
        let mut a = Ats::new(2);
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut env = env_with(&bank, &mut rng);
        assert_eq!(a.intensity(0), 0.0);
        for _ in 0..6 {
            a.on_abort(0, 0, XStatus::conflict(), 4, &mut env);
        }
        assert!(a.intensity(0) > 0.8);
        assert!(a.pre_tx_fallback(0, 0, &mut env));
        for _ in 0..6 {
            a.on_htm_commit(0, 0, &mut env);
        }
        assert!(a.intensity(0) < 0.2);
        assert!(!a.pre_tx_fallback(0, 0, &mut env));
    }

    #[test]
    fn per_thread_isolation() {
        let mut a = Ats::new(2);
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut env = env_with(&bank, &mut rng);
        a.on_abort(0, 0, XStatus::conflict(), 4, &mut env);
        assert!(a.intensity(0) > 0.0);
        assert_eq!(a.intensity(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        Ats::with_params(1, 5, 0.0, 0.5);
    }
}
