//! HLE: hardware lock elision, the paper's first baseline (§5.1).
//!
//! Models Intel's HLE as used on STAMP ("executed as having 1 lock to
//! elide"): the hardware retries a transaction a small,
//! implementation-dependent number of times with **no scheduling and no
//! contention management** — in particular it does *not* wait for the
//! elided lock to be free before re-attempting, which is what produces the
//! *lemming effect* (Dice et al. \[6\]): once one thread falls back to the
//! real lock, every concurrent transaction aborts on the lock-line
//! subscription, exhausts its small budget, and piles onto the lock too.

use seer_runtime::{SchedEnv, Scheduler};
use seer_sim::ThreadId;

/// The HLE baseline scheduler.
#[derive(Debug, Clone)]
pub struct Hle {
    budget: u32,
}

impl Default for Hle {
    fn default() -> Self {
        Self::new(2)
    }
}

impl Hle {
    /// HLE with the given hardware retry budget (default 2, modelling the
    /// processor's internal, implementation-dependent retry policy).
    pub fn new(budget: u32) -> Self {
        assert!(budget > 0);
        Self { budget }
    }
}

impl Scheduler for Hle {
    fn name(&self) -> &'static str {
        "HLE"
    }

    fn attempt_budget(&self) -> u32 {
        self.budget
    }

    // No gates, no waiting, no decisions: pure hardware retry. All other
    // callbacks keep their default (no-op / plain retry) behaviour.
    fn on_tx_start(&mut self, _thread: ThreadId, _block: usize, _env: &mut SchedEnv<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_htm::XStatus;
    use seer_runtime::scheduler::AbortDecision;
    use seer_runtime::LockBank;
    use seer_sim::{SimRng, Topology};

    #[test]
    fn never_waits_on_the_global_lock() {
        let mut h = Hle::default();
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
        assert!(h.pre_attempt_gates(0, 0, 2, &mut env).is_empty());
        match h.on_abort(0, 0, XStatus::conflict(), 1, &mut env) {
            AbortDecision::Retry { gates } => assert!(gates.is_empty()),
            AbortDecision::Fallback => panic!("HLE lets the budget decide"),
        }
    }

    #[test]
    fn small_default_budget() {
        assert_eq!(Hle::default().attempt_budget(), 2);
        assert_eq!(Hle::new(3).attempt_budget(), 3);
    }
}
