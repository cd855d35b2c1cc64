//! Scratch-buffer reuse audit (simulation-kernel fast path).
//!
//! The hot paths of the driver and the HTM machine stopped allocating:
//! they write results into reusable scratch vectors (`begin_into`,
//! `access_into`, `kill_all_into`, the driver's internal scratch fields).
//! Reuse is only sound if stale contents from a previous event can never
//! leak into the next one. These tests audit exactly that, at both layers:
//!
//! * machine level — replaying one access script through the `_into`
//!   methods on a fresh machine with empty buffers, and again with
//!   deliberately dirtied buffers on a machine reused across episodes,
//!   must produce identical squeezes, victims and self-aborts;
//! * driver level — back-to-back full simulations of the same
//!   configuration must be bit-identical in every metric, event count and
//!   trace hash, even though the second run's process state (allocator,
//!   buffer capacities) differs from the first's.

use seer_htm::{AccessKind, HtmConfig, HtmMachine};
use seer_runtime::model::{RegionUse, StampBlock, StampModel};
use seer_runtime::{run, DriverConfig, NullScheduler};
use seer_sim::Topology;

/// One scripted access episode: SMT-paired threads begin (squeezing
/// siblings), collide on shared lines, and wind down through commit and
/// abort — touching every `_into` output path.
fn episode(
    m: &mut HtmMachine,
    squeezed: &mut Vec<(seer_sim::ThreadId, seer_htm::AbortCause)>,
    victims: &mut Vec<seer_sim::ThreadId>,
    log: &mut Vec<String>,
) {
    // Threads 0 and 4 are SMT siblings on core 0 of haswell_e3 (4c/8t),
    // so the second begin squeezes the first if the config says so.
    for t in [0, 1, 4] {
        m.begin_into(t, squeezed);
        log.push(format!("begin {t}: {squeezed:?}"));
    }
    for (t, line, kind) in [
        (0, 10, AccessKind::Read),
        (1, 10, AccessKind::Write), // conflicts with 0's read
        (1, 11, AccessKind::Write),
        (4, 11, AccessKind::Read), // conflicts with 1's write
        (4, 12, AccessKind::Write),
    ] {
        let self_abort = m.access_into(t, line, kind, victims);
        log.push(format!(
            "access {t} line {line}: {self_abort:?} victims {victims:?}"
        ));
    }
    let alive: Vec<usize> = (0..8).filter(|&t| m.in_tx(t)).collect();
    log.push(format!("alive: {alive:?}"));
    for t in alive {
        m.commit(t);
    }
    m.non_tx_access_into(7, 10, AccessKind::Write, victims);
    log.push(format!("non-tx write: victims {victims:?}"));
    m.begin_into(2, squeezed);
    log.push(format!("begin 2: {squeezed:?}"));
    let killed = victims; // kill_all_into reuses the same scratch shape
    m.kill_all_into(killed);
    log.push(format!("kill_all: {killed:?}"));
}

#[test]
fn reused_dirty_buffers_match_fresh_allocations() {
    let topo = Topology::haswell_e3();
    let cfg = HtmConfig::default();

    // Reference: a fresh machine and fresh, empty buffers.
    let fresh_log = {
        let mut m = HtmMachine::new(topo, cfg);
        let mut log = Vec::new();
        let (mut squeezed, mut victims) = (Vec::new(), Vec::new());
        episode(&mut m, &mut squeezed, &mut victims, &mut log);
        log
    };

    // Audit: one machine and one pair of buffers reused across episodes,
    // the buffers pre-poisoned with garbage before the first call.
    let mut m = HtmMachine::new(topo, cfg);
    let mut squeezed = vec![(99, seer_htm::AbortCause::WriteCapacity); 7];
    let mut victims = vec![42; 13];
    for round in 0..2 {
        let mut log = Vec::new();
        episode(&mut m, &mut squeezed, &mut victims, &mut log);
        assert_eq!(log, fresh_log, "episode {round} diverged under reuse");
    }
}

fn audit_run(seed: u64) -> seer_runtime::RunMetrics {
    let block = StampBlock {
        name: "scratch-audit",
        regions: vec![RegionUse {
            region: 0,
            lines: 24,
            theta: 0.8,
            reads: (3, 4),
            writes: (3, 4),
        }],
        private_reads: (2, 3),
        private_writes: (2, 3),
        spacing: (6, 14),
        think: (40, 120),
        ..StampBlock::default()
    };
    let mut w = StampModel::new("scratch-audit", vec![block], 8, 150);
    let mut s = NullScheduler::new(5);
    let mut cfg = DriverConfig::paper_machine(8, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, &mut s, &cfg)
}

#[test]
fn back_to_back_runs_are_bit_identical() {
    // Contended enough that the abort/wake scratch paths all fire.
    let a = audit_run(0xA0D1);
    let b = audit_run(0xA0D1);
    assert!(a.aborts.total() > 0, "audit workload must exercise aborts");
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events, "event counts must match exactly");
    assert_eq!(
        a.trace_hash, b.trace_hash,
        "schedules must be bit-identical"
    );
    assert_eq!(a.wait_cycles, b.wait_cycles);
    assert_eq!(a.tx_lock_acquisitions, b.tx_lock_acquisitions);
}
