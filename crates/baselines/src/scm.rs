//! SCM: Software-assisted Conflict Management (Afek, Levy, Morrison,
//! PODC'14) — the paper's third baseline (§5.1).
//!
//! On abort, a transaction acquires a single *auxiliary* lock and retries
//! in hardware while holding it, so all previously-aborted transactions
//! serialize among themselves instead of repeatedly aborting and piling
//! onto the global fall-back lock. Fresh (never-aborted) transactions keep
//! running concurrently. The auxiliary lock reduces fall-back activations
//! dramatically (paper Table 3: ≤5% SGL) but, being a single lock, it
//! serializes *all* restarting transactions regardless of whether they
//! actually conflict — the coarseness Seer's per-block locks remove.

use seer_htm::XStatus;
use seer_runtime::{AbortDecision, Gate, LockId, SchedEnv, Scheduler};
use seer_sim::ThreadId;

/// The SCM baseline scheduler.
#[derive(Debug, Clone)]
pub struct Scm {
    budget: u32,
}

impl Default for Scm {
    fn default() -> Self {
        Self::new(5)
    }
}

impl Scm {
    /// SCM with a hardware attempt budget (the paper uses 5).
    pub fn new(budget: u32) -> Self {
        assert!(budget > 0);
        Self { budget }
    }
}

impl Scheduler for Scm {
    fn name(&self) -> &'static str {
        "SCM"
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
        thread: ThreadId,
        _block: usize,
        _status: XStatus,
        _attempts_left: u32,
        env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        if env.locks.is_held_by(LockId::Aux, thread) {
            // Already serialized behind the auxiliary lock; keep retrying
            // (the driver's budget still bounds total attempts).
            AbortDecision::Retry { gates: Vec::new() }
        } else {
            AbortDecision::Retry {
                gates: vec![Gate::Acquire(LockId::Aux)],
            }
        }
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
    fn first_abort_acquires_aux() {
        let mut s = Scm::default();
        let bank = LockBank::new(4, 2);
        let mut rng = SimRng::new(0);
        let mut env = env_with(&bank, &mut rng);
        match s.on_abort(1, 0, XStatus::conflict(), 4, &mut env) {
            AbortDecision::Retry { gates } => {
                assert_eq!(gates, vec![Gate::Acquire(LockId::Aux)]);
            }
            AbortDecision::Fallback => panic!("SCM retries under aux"),
        }
    }

    #[test]
    fn subsequent_aborts_keep_holding_aux() {
        let mut s = Scm::default();
        let mut bank = LockBank::new(4, 2);
        assert!(bank.get_mut(LockId::Aux).try_acquire(1, 0));
        let mut rng = SimRng::new(0);
        let mut env = env_with(&bank, &mut rng);
        match s.on_abort(1, 0, XStatus::conflict(), 3, &mut env) {
            AbortDecision::Retry { gates } => assert!(gates.is_empty()),
            AbortDecision::Fallback => panic!(),
        }
    }
}
