//! Adaptivity under workload phase changes: the decay extension must let
//! Seer *forget* conflict relations that stopped occurring, where the
//! accumulate-forever default keeps stale locks in force.

use seer::{Seer, SeerConfig};
use seer_htm::AccessKind;
use seer_runtime::{run, Access, DriverConfig, TxRequest, Workload};
use seer_sim::{SimRng, ThreadId};

/// A two-phase program: in phase A, blocks 0 and 1 hammer one tiny region
/// (heavy conflicts); in phase B the same blocks touch disjoint private
/// data (zero conflicts). The conflict relation (0,1) is real in phase A
/// and obsolete in phase B.
struct PhaseChange {
    remaining: Vec<usize>,
    phase_a: usize,
}

impl PhaseChange {
    fn new(threads: usize, per_thread: usize, phase_a: usize) -> Self {
        Self {
            remaining: vec![per_thread; threads],
            phase_a,
        }
    }
}

impl Workload for PhaseChange {
    fn name(&self) -> &str {
        "phase-change"
    }
    fn num_blocks(&self) -> usize {
        2
    }
    fn next(&mut self, thread: ThreadId, rng: &mut SimRng) -> Option<TxRequest> {
        let left = self.remaining[thread];
        if left == 0 {
            return None;
        }
        self.remaining[thread] -= 1;
        let done = self.remaining.iter().map(|r| 400 - r).sum::<usize>();
        let hot_phase = done < self.phase_a * self.remaining.len();
        let block = (rng.below(2)) as usize;
        let mut accesses = Vec::new();
        let mut offset = 0u64;
        for i in 0..10u64 {
            offset += rng.range_inclusive(6, 12);
            let line = if hot_phase && i < 3 {
                // Shared hot region: 4 lines, written.
                rng.below(4)
            } else {
                // Disjoint per-thread data.
                (1 << 30) + thread as u64 * (1 << 20) + rng.below(1 << 10)
            };
            let kind = if hot_phase && i < 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            accesses.push(Access { line, kind, offset });
        }
        Some(TxRequest {
            block,
            accesses,
            duration: offset + 10,
            think: rng.range_inclusive(40, 120),
        })
    }
    fn regenerate(&mut self, _thread: ThreadId, _req: &mut TxRequest, _rng: &mut SimRng) {
        // Keep the trace; phase membership was decided at issue time.
    }
}

fn run_phase_change(cfg: SeerConfig) -> Seer {
    let threads = 8;
    let mut w = PhaseChange::new(threads, 400, 80);
    let mut sched = Seer::new(cfg, threads, 2);
    let mut dcfg = DriverConfig::paper_machine(threads, 3);
    dcfg.costs.async_abort_per_cycle = 0.0;
    // Frequent maintenance so the (short) cold phase sees several updates.
    dcfg.periodic_tick = Some(50_000);
    let m = run(&mut w, &mut sched, &dcfg);
    assert_eq!(m.commits, 3200);
    sched
}

#[test]
fn without_decay_stale_conflicts_persist() {
    let mut base = SeerConfig::full();
    base.hill_climbing = false;
    let mut sched = run_phase_change(base);
    sched.force_update();
    // The hot phase dominated the accumulated statistics forever.
    assert!(
        !sched.lock_table().is_empty(),
        "accumulate-forever Seer should still hold the phase-A relation"
    );
}

#[test]
fn with_decay_stale_conflicts_fade() {
    let mut cfg = SeerConfig::with_decay(1);
    cfg.hill_climbing = false;
    cfg.update_period_execs = 150;
    let mut sched = run_phase_change(cfg);
    sched.force_update();
    assert!(
        sched.lock_table().is_empty(),
        "decayed Seer should have forgotten the phase-A relation: {:?}",
        (0..2)
            .map(|x| sched.lock_table().row(x).to_vec())
            .collect::<Vec<_>>()
    );
}
