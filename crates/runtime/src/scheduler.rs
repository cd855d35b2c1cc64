//! The scheduler (policy) interface between the DES driver and a TM
//! contention-management algorithm.
//!
//! A [`Scheduler`] is a *global* object — one instance governs all
//! simulated threads, matching the shared tables of the real algorithms
//! (Seer's `activeTxs`, `locksToAcquire`; ATS's contention factor). The
//! driver calls into it at the control points of Algorithm 1 of the paper:
//! transaction arrival, before each hardware attempt, on abort, on commit,
//! and while waiting for the fall-back lock. The scheduler answers with
//! [`Gate`]s — declarative wait/acquire steps the driver executes in
//! simulated time.

use seer_htm::XStatus;
use seer_sim::{Cycles, SimRng, ThreadId, Topology};

use crate::locks::{LockBank, LockId};
use crate::trace::TraceSink;
use crate::workload::BlockId;

/// Instrumentation points at which a scheduler can charge fixed overhead
/// cycles to the calling thread (how Seer's monitoring cost — Figure 4 of
/// the paper — becomes visible in simulated time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// A transaction instance arrived (announcement cost).
    TxStart,
    /// A hardware attempt aborted (abort registration / scan cost).
    Abort,
    /// A hardware commit (commit registration / scan cost).
    HtmCommit,
    /// A fall-back completion.
    FallbackCommit,
}

/// A synchronization step a thread must pass before proceeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Park while the lock is held by another thread, without acquiring it
    /// (the `wait while is-locked(...)` loops of `WAIT-Seer-LOCKS`).
    WaitWhileLocked(LockId),
    /// Acquire the lock, queueing FIFO if busy. Skipped if already held.
    Acquire(LockId),
    /// Acquire several locks. With `via_htm`, first try to take all of
    /// them atomically inside one small hardware transaction (the
    /// multi-CAS optimization of paper §4); if any is busy, fall back to
    /// acquiring one by one in canonical [`LockId`] order.
    AcquireMany {
        /// Locks to take; the driver sorts them canonically.
        locks: Vec<LockId>,
        /// Whether to attempt the single-HTM-transaction fast path.
        via_htm: bool,
    },
    /// Release every scheduler lock currently held. Used to restart a
    /// multi-lock acquisition in canonical order when a new lock must be
    /// added to an already-held set (deadlock avoidance).
    ReleaseHeld,
}

/// Scheduler's verdict after an aborted hardware attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortDecision {
    /// Retry in hardware after passing `gates` (e.g. acquiring a core lock
    /// after a capacity abort). The driver re-applies
    /// [`Scheduler::pre_attempt_gates`] after these.
    Retry {
        /// Gates to pass before the retry.
        gates: Vec<Gate>,
    },
    /// Give up on hardware: release scheduler locks and take the
    /// single-global-lock fall-back path.
    Fallback,
}

/// Read-only-ish environment handed to scheduler callbacks.
pub struct SchedEnv<'a> {
    /// Current virtual time.
    pub now: Cycles,
    /// State of every lock (for `is-locked` style checks).
    pub locks: &'a LockBank,
    /// Machine topology (for core-of-thread mapping).
    pub topology: Topology,
    /// Deterministic randomness (hill climbing random jumps, etc.).
    pub rng: &'a mut SimRng,
    /// Decision-provenance sink. A pure observer: schedulers may emit
    /// records (guarded on [`TraceSink::enabled`]) but must not let the
    /// sink influence any decision.
    pub trace: &'a mut dyn TraceSink,
}

/// A scheduler-visible fault injected by a scenario script (see
/// `crates/scenario`). Faults arrive through [`Scheduler::on_fault`] as
/// ordinary scheduled events in the DES queue — there is no wall-clock or
/// out-of-band channel, so an injected run replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedFault {
    /// Zero every per-thread and merged statistics matrix, as if the
    /// scheduler's profile memory were lost (stats amnesia).
    WipeStats,
    /// Overwrite the scheduler's operating thresholds (Seer's Th1/Th2),
    /// knocking the hill climber off its current optimum.
    KickThresholds {
        /// New conditional-probability threshold.
        th1: f64,
        /// New conjunctive-probability threshold.
        th2: f64,
    },
    /// Suppress the next `rounds` inference rounds (staleness: the stats
    /// keep accumulating but the lock tables stop being refreshed).
    DelayInference {
        /// Number of due inference rounds to drop.
        rounds: u64,
    },
}

/// A contention-management policy for best-effort HTM.
///
/// Default implementations make the trait a no-op scheduler: a plain retry
/// loop with no waiting and no locks, which is also a useful experimental
/// baseline ("raw HTM").
pub trait Scheduler {
    /// Display name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// `MAX_ATTEMPTS`: hardware attempts before the fall-back (the paper
    /// and Intel use 5 for STAMP).
    fn attempt_budget(&self) -> u32 {
        5
    }

    /// A new transaction instance arrived on `thread` (Alg. 1 START
    /// preamble — e.g. Seer announces it in `activeTxs`).
    fn on_tx_start(&mut self, _thread: ThreadId, _block: BlockId, _env: &mut SchedEnv<'_>) {}

    /// When true, skip hardware entirely and execute under the SGL (ATS's
    /// serialization mode when the contention factor is high).
    fn pre_tx_fallback(&mut self, _thread: ThreadId, _block: BlockId, _env: &mut SchedEnv<'_>) -> bool {
        false
    }

    /// Gates to pass before every hardware attempt (`WAIT-Seer-LOCKS`; the
    /// lemming-effect wait on the SGL for RTM-style policies).
    fn pre_attempt_gates(
        &mut self,
        _thread: ThreadId,
        _block: BlockId,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        Vec::new()
    }

    /// [`Scheduler::pre_attempt_gates`], appended to a caller-owned list
    /// (which may already hold an abort decision's retry gates). The
    /// driver calls only this, so a policy that overrides it — and has
    /// `pre_attempt_gates` return through it, keeping one gate path —
    /// gates attempts without allocating. The default extends `gates`
    /// with `pre_attempt_gates`.
    fn pre_attempt_gates_into(
        &mut self,
        thread: ThreadId,
        block: BlockId,
        attempts_left: u32,
        env: &mut SchedEnv<'_>,
        gates: &mut Vec<Gate>,
    ) {
        gates.extend(self.pre_attempt_gates(thread, block, attempts_left, env));
    }

    /// A hardware attempt aborted with `status`; `attempts_left` is the
    /// remaining budget (0 means the driver forces the fall-back regardless
    /// of the returned decision).
    fn on_abort(
        &mut self,
        _thread: ThreadId,
        _block: BlockId,
        _status: XStatus,
        _attempts_left: u32,
        _env: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        AbortDecision::Retry { gates: Vec::new() }
    }

    /// The transaction committed in hardware (REGISTER-COMMIT point).
    fn on_htm_commit(&mut self, _thread: ThreadId, _block: BlockId, _env: &mut SchedEnv<'_>) {}

    /// The transaction completed under the SGL fall-back.
    fn on_fallback_commit(&mut self, _thread: ThreadId, _block: BlockId, _env: &mut SchedEnv<'_>) {}

    /// `thread` just parked waiting for the SGL to be released — the point
    /// where Seer opportunistically recomputes the locking scheme and runs
    /// the hill climber (Alg. 4 lines 52–54).
    fn on_sgl_wait(&mut self, _thread: ThreadId, _env: &mut SchedEnv<'_>) {}

    /// Periodic maintenance tick from the driver (in addition to SGL-wait
    /// opportunities), so inference still runs in workloads that rarely
    /// fall back.
    fn on_periodic(&mut self, _env: &mut SchedEnv<'_>) {}

    /// A scenario fault was injected (see [`SchedFault`]). Schedulers that
    /// keep no learned state ignore it — the default is a no-op, so fault
    /// injection is free for every policy that does not opt in.
    fn on_fault(&mut self, _fault: &SchedFault, _env: &mut SchedEnv<'_>) {}

    /// Fixed instrumentation cost, in cycles, charged to the calling
    /// thread at each hook point (zero for uninstrumented schedulers).
    fn overhead(&self, _point: HookPoint) -> Cycles {
        0
    }
}

/// The trivial scheduler: plain HTM retry loop, no waiting, no locks.
///
/// Provided for tests and as the "no scheduling at all" experimental
/// control; the paper's baselines live in `seer-baselines`.
#[derive(Debug, Default, Clone)]
pub struct NullScheduler {
    budget: u32,
}

impl NullScheduler {
    /// A null scheduler with the given attempt budget.
    pub fn new(budget: u32) -> Self {
        assert!(budget > 0, "attempt budget must be positive");
        Self { budget }
    }
}

impl Scheduler for NullScheduler {
    fn name(&self) -> &'static str {
        "null"
    }

    fn attempt_budget(&self) -> u32 {
        if self.budget == 0 {
            5
        } else {
            self.budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_scheduler_defaults() {
        let mut s = NullScheduler::new(3);
        assert_eq!(s.attempt_budget(), 3);
        assert_eq!(s.name(), "null");
        let bank = LockBank::new(1, 1);
        let mut rng = SimRng::new(1);
        let mut sink = crate::trace::NullTraceSink;
        let mut env = SchedEnv {
            now: 0,
            locks: &bank,
            topology: Topology::haswell_e3(),
            rng: &mut rng,
            trace: &mut sink,
        };
        assert!(!s.pre_tx_fallback(0, 0, &mut env));
        assert!(s.pre_attempt_gates(0, 0, 3, &mut env).is_empty());
        match s.on_abort(0, 0, XStatus::conflict(), 2, &mut env) {
            AbortDecision::Retry { gates } => assert!(gates.is_empty()),
            AbortDecision::Fallback => panic!("null scheduler never volunteers fallback"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        NullScheduler::new(0);
    }
}
