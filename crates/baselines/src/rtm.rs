//! RTM: software-controlled retry with lemming-effect avoidance — the
//! paper's second baseline (§5.1).
//!
//! The retry logic is in software: a fixed budget of hardware attempts
//! (5, as Intel used for STAMP \[27\]) and, before every attempt, a wait
//! while the single-global fall-back lock is taken, so transactions do not
//! burn their budget subscribing to a held lock. As the paper notes, the
//! single-lock fall-back makes this "analogous in spirit to the ATS
//! scheduler": concurrency is either fully allowed or fully serialized.

use seer_htm::XStatus;
use seer_runtime::{AbortDecision, Gate, LockId, SchedEnv, Scheduler};
use seer_sim::ThreadId;

/// The RTM baseline scheduler.
#[derive(Debug, Clone)]
pub struct Rtm {
    budget: u32,
}

impl Default for Rtm {
    fn default() -> Self {
        Self::new(5)
    }
}

impl Rtm {
    /// RTM with a software attempt budget (the paper uses 5) that retries
    /// every abort kind, matching the paper's description.
    pub fn new(budget: u32) -> Self {
        assert!(budget > 0);
        Self { budget }
    }
}

impl Scheduler for Rtm {
    fn name(&self) -> &'static str {
        "RTM"
    }

    fn attempt_budget(&self) -> u32 {
        self.budget
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
        _thread: ThreadId,
        _block: usize,
        _status: XStatus,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        AbortDecision::Retry { gates: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_runtime::LockBank;
    use seer_sim::{SimRng, Topology};

    #[test]
    fn retries_every_abort_kind() {
        let mut r = Rtm::default();
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut sink = seer_runtime::NullTraceSink;
        let mut env = SchedEnv {
            now: 0,
            locks: &bank,
            topology: Topology::haswell_e3(),
            rng: &mut rng,
            trace: &mut sink,
        };
        // Capacity aborts included: the paper retries them too.
        for status in [XStatus::capacity(), XStatus::conflict()] {
            assert_eq!(
                r.on_abort(0, 0, status, 4, &mut env),
                AbortDecision::Retry { gates: vec![] }
            );
        }
    }

    #[test]
    fn waits_on_sgl_before_every_attempt() {
        let mut r = Rtm::default();
        assert_eq!(r.attempt_budget(), 5);
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut sink = seer_runtime::NullTraceSink;
        let mut env = SchedEnv {
            now: 0,
            locks: &bank,
            topology: Topology::haswell_e3(),
            rng: &mut rng,
            trace: &mut sink,
        };
        for left in (1..=5).rev() {
            let gates = r.pre_attempt_gates(0, 0, left, &mut env);
            assert_eq!(gates, vec![Gate::WaitWhileLocked(LockId::Sgl)]);
        }
    }
}
