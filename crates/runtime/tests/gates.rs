//! Targeted tests of the driver's gate machinery, exercised through
//! purpose-built schedulers: advisory waits with patience, blocking
//! acquisition, multi-CAS acquisition, ReleaseHeld re-acquisition, and the
//! pre-transaction fall-back path.

use seer_htm::XStatus;
use seer_runtime::model::{RegionUse, StampBlock, StampModel};
use seer_runtime::{
    run, AbortDecision, DriverConfig, Gate, LockId, RunMetrics, SchedEnv, Scheduler, TxMode,
};
use seer_sim::ThreadId;

/// One write-heavy block over an 8-line shared region.
fn model(threads: usize, txs_per_thread: usize) -> StampModel {
    let block = StampBlock {
        name: "gate-test",
        regions: vec![RegionUse {
            region: 0,
            lines: 8,
            theta: 0.0,
            reads: (1, 4),
            writes: (2, 5),
        }],
        private_reads: (1, 2),
        private_writes: (1, 3),
        spacing: (5, 10),
        think: (20, 60),
        ..StampBlock::default()
    };
    StampModel::new("gate-test", vec![block], threads, txs_per_thread)
}

fn run_sched(s: &mut dyn Scheduler, threads: usize, txs: usize, seed: u64) -> RunMetrics {
    let mut w = model(threads, txs);
    let mut cfg = DriverConfig::paper_machine(threads, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, s, &cfg)
}

/// A scheduler that acquires one fixed transaction lock on every abort —
/// exercises Acquire + automatic release at commit.
struct LockOnAbort;

impl Scheduler for LockOnAbort {
    fn name(&self) -> &'static str {
        "lock-on-abort"
    }
    fn on_abort(
        &mut self,
        _t: ThreadId,
        _b: usize,
        _s: XStatus,
        _left: u32,
        _e: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        AbortDecision::Retry {
            gates: vec![Gate::Acquire(LockId::Tx(0))],
        }
    }
}

#[test]
fn acquire_gate_serializes_and_commits_under_lock() {
    let mut s = LockOnAbort;
    let m = run_sched(&mut s, 6, 60, 1);
    assert_eq!(m.commits, 360);
    assert!(
        m.modes.get(TxMode::HtmTxLocks) > 0,
        "some commits should hold the tx lock"
    );
    assert!(!m.truncated);
}

/// A scheduler that multi-CAS-acquires two locks on every abort —
/// exercises AcquireMany in both its HTM fast path and its fallback.
struct MultiLockOnAbort {
    via_htm: bool,
}

impl Scheduler for MultiLockOnAbort {
    fn name(&self) -> &'static str {
        "multi-lock"
    }
    fn on_abort(
        &mut self,
        _t: ThreadId,
        _b: usize,
        _s: XStatus,
        _left: u32,
        _e: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        AbortDecision::Retry {
            gates: vec![Gate::AcquireMany {
                // Deliberately unsorted: the driver must sort canonically.
                locks: vec![LockId::Tx(0), LockId::Core(0), LockId::Tx(0)],
                via_htm: self.via_htm,
            }],
        }
    }
}

#[test]
fn acquire_many_works_with_and_without_htm_fast_path() {
    for via_htm in [false, true] {
        let mut s = MultiLockOnAbort { via_htm };
        let m = run_sched(&mut s, 6, 60, 2);
        assert_eq!(m.commits, 360, "via_htm={via_htm}");
        assert!(
            m.modes.get(TxMode::HtmTxAndCoreLocks) > 0,
            "commits should carry both lock classes (via_htm={via_htm})"
        );
        assert!(!m.truncated);
    }
}

/// A scheduler that releases everything and re-acquires a different lock on
/// each abort — exercises ReleaseHeld mid-gate-list.
struct Churner;

impl Scheduler for Churner {
    fn name(&self) -> &'static str {
        "churner"
    }
    fn on_abort(
        &mut self,
        thread: ThreadId,
        _b: usize,
        _s: XStatus,
        left: u32,
        _e: &mut SchedEnv<'_>,
    ) -> AbortDecision {
        let lock = if left.is_multiple_of(2) {
            LockId::Core(thread % 4)
        } else {
            LockId::Tx(0)
        };
        AbortDecision::Retry {
            gates: vec![
                Gate::ReleaseHeld,
                Gate::AcquireMany {
                    locks: vec![lock],
                    via_htm: false,
                },
            ],
        }
    }
}

#[test]
fn release_held_then_reacquire_never_wedges() {
    let mut s = Churner;
    let m = run_sched(&mut s, 8, 50, 3);
    assert_eq!(m.commits, 400);
    assert!(!m.truncated);
}

/// A scheduler that waits on a lock nobody ever takes (the advisory wait
/// must pass immediately) and on the SGL (exercised under contention).
struct Waiter;

impl Scheduler for Waiter {
    fn name(&self) -> &'static str {
        "waiter"
    }
    fn pre_attempt_gates(
        &mut self,
        _t: ThreadId,
        _b: usize,
        _left: u32,
        _e: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        vec![
            Gate::WaitWhileLocked(LockId::Tx(0)),
            Gate::WaitWhileLocked(LockId::Sgl),
        ]
    }
}

#[test]
fn advisory_waits_on_free_locks_cost_nothing() {
    let mut s = Waiter;
    let m = run_sched(&mut s, 4, 50, 4);
    assert_eq!(m.commits, 200);
    assert!(!m.truncated);
}

/// A scheduler that sends every transaction straight to the fall-back.
struct AlwaysSerial;

impl Scheduler for AlwaysSerial {
    fn name(&self) -> &'static str {
        "always-serial"
    }
    fn pre_tx_fallback(&mut self, _t: ThreadId, _b: usize, _e: &mut SchedEnv<'_>) -> bool {
        true
    }
}

#[test]
fn pre_tx_fallback_serializes_everything() {
    let mut s = AlwaysSerial;
    let m = run_sched(&mut s, 4, 40, 5);
    assert_eq!(m.commits, 160);
    assert_eq!(m.modes.get(TxMode::SglFallback), 160);
    assert_eq!(m.htm_attempts, 0, "no hardware attempt should start");
    assert_eq!(m.aborts.total(), 0);
    // Fully serialized execution can never beat sequential.
    assert!(m.speedup() <= 1.05, "speedup {}", m.speedup());
}

/// Patience: a scheduler whose threads wait on a lock held for a very long
/// time by thread 0 must eventually give up the advisory wait and proceed.
struct HogAndWait {
    hogged: bool,
}

impl Scheduler for HogAndWait {
    fn name(&self) -> &'static str {
        "hog-and-wait"
    }
    fn pre_attempt_gates(
        &mut self,
        thread: ThreadId,
        _b: usize,
        _left: u32,
        _e: &mut SchedEnv<'_>,
    ) -> Vec<Gate> {
        if thread == 0 && !self.hogged {
            // Thread 0 takes the lock once and keeps it for its first
            // transaction (released at commit).
            self.hogged = true;
            vec![Gate::Acquire(LockId::Tx(0))]
        } else {
            vec![Gate::WaitWhileLocked(LockId::Tx(0))]
        }
    }
}

#[test]
fn patience_bound_prevents_advisory_wait_wedges() {
    // Use a tiny patience so the test observes the bound directly.
    let mut w = model(4, 30);
    let mut s = HogAndWait { hogged: false };
    let mut cfg = DriverConfig::paper_machine(4, 6);
    cfg.costs.async_abort_per_cycle = 0.0;
    cfg.wait_patience = 2_000;
    let m = run(&mut w, &mut s, &cfg);
    assert_eq!(m.commits, 120);
    assert!(!m.truncated);
}
