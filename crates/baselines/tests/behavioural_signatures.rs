//! Behavioural signatures of the baselines, checked end-to-end on the
//! simulator. These mirror the qualitative claims of the paper's §5.1–5.2:
//!
//! * HLE collapses to the global lock under contention (lemming effect),
//!   far more than RTM at equal thread counts.
//! * SCM activates the SGL fall-back much less often than RTM but commits
//!   a significant share of transactions under the auxiliary lock.
//! * ATS serializes when contention is high and stays optimistic when low.

use seer_baselines::{Ats, Hle, Rtm, Scm};
use seer_runtime::model::{RegionUse, StampBlock, StampModel};
use seer_runtime::{run, DriverConfig, RunMetrics, Scheduler, TxMode};

/// One block: a few skewed accesses to a 64-line shared region among many
/// thread-private ones.
fn contended() -> Vec<StampBlock> {
    vec![StampBlock {
        name: "contended",
        regions: vec![RegionUse {
            region: 0,
            lines: 64,
            theta: 0.8,
            reads: (3, 5),
            writes: (1, 2),
        }],
        private_reads: (11, 14),
        private_writes: (4, 7),
        spacing: (8, 20),
        think: (80, 160),
        ..StampBlock::default()
    }]
}

/// One short read-mostly block spread uniformly over a 1024-line table.
fn low_contention() -> Vec<StampBlock> {
    vec![StampBlock {
        name: "low-contention",
        regions: vec![RegionUse {
            region: 0,
            lines: 1024,
            theta: 0.0,
            reads: (9, 11),
            writes: (0, 2),
        }],
        private_reads: (1, 2),
        private_writes: (0, 0),
        spacing: (6, 14),
        think: (100, 300),
        ..StampBlock::default()
    }]
}

fn run_with(
    sched: &mut dyn Scheduler,
    blocks: Vec<StampBlock>,
    txs: usize,
    threads: usize,
    seed: u64,
) -> RunMetrics {
    let mut w = StampModel::new("signature", blocks, threads, txs);
    let mut cfg = DriverConfig::paper_machine(threads, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, sched, &cfg)
}

#[test]
fn hle_lemming_effect_dwarfs_rtm_fallback() {
    let threads = 8;
    let mut hle = Hle::default();
    let m_hle = run_with(&mut hle, contended(), 150, threads, 1);
    let mut rtm = Rtm::default();
    let m_rtm = run_with(&mut rtm, contended(), 150, threads, 1);

    assert_eq!(m_hle.commits, m_rtm.commits);
    let f_hle = m_hle.fallback_fraction();
    let f_rtm = m_rtm.fallback_fraction();
    assert!(
        f_hle > 1.5 * f_rtm,
        "HLE should fall back far more: hle={f_hle:.3} rtm={f_rtm:.3}"
    );
    assert!(f_hle > 0.2, "HLE under contention must lemming: {f_hle:.3}");
}

#[test]
fn scm_trades_sgl_for_aux_lock() {
    let threads = 8;
    let mut rtm = Rtm::default();
    let m_rtm = run_with(&mut rtm, contended(), 150, threads, 2);
    let mut scm = Scm::default();
    let m_scm = run_with(&mut scm, contended(), 150, threads, 2);

    assert!(
        m_scm.fallback_fraction() < m_rtm.fallback_fraction(),
        "SCM should use the SGL less: scm={:.3} rtm={:.3}",
        m_scm.fallback_fraction(),
        m_rtm.fallback_fraction()
    );
    assert!(
        m_scm.modes.get(TxMode::HtmAuxLock) > 0,
        "SCM must commit transactions under the auxiliary lock"
    );
    // RTM never uses the aux lock.
    assert_eq!(m_rtm.modes.get(TxMode::HtmAuxLock), 0);
}

#[test]
fn ats_serializes_under_contention_only() {
    let threads = 8;
    let mut ats_hot = Ats::new(threads);
    let m_hot = run_with(&mut ats_hot, contended(), 120, threads, 3);
    let mut ats_cold = Ats::new(threads);
    let m_cold = run_with(&mut ats_cold, low_contention(), 120, threads, 3);

    assert!(
        m_hot.fallback_fraction() > 0.05,
        "contended ATS should serialize some: {:.3}",
        m_hot.fallback_fraction()
    );
    assert!(
        m_cold.fallback_fraction() < 0.02,
        "uncontended ATS should stay optimistic: {:.3}",
        m_cold.fallback_fraction()
    );
}

#[test]
fn all_baselines_complete_all_work_deterministically() {
    let threads = 6;
    let total = (threads * 80) as u64;
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Hle::default()),
        Box::new(Rtm::default()),
        Box::new(Scm::default()),
        Box::new(Ats::new(threads)),
    ];
    for s in &mut schedulers {
        let a = run_with(s.as_mut(), contended(), 80, threads, 9);
        assert_eq!(a.commits, total, "{} lost transactions", s.name());
        assert!(!a.truncated);
    }
    // Determinism: same seed, same scheduler type => identical metrics.
    let mut s1 = Rtm::default();
    let mut s2 = Rtm::default();
    let a = run_with(&mut s1, contended(), 80, threads, 9);
    let b = run_with(&mut s2, contended(), 80, threads, 9);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.aborts.total(), b.aborts.total());
}

#[test]
fn rtm_beats_hle_under_contention() {
    let threads = 8;
    let mut hle = Hle::default();
    let m_hle = run_with(&mut hle, contended(), 150, threads, 5);
    let mut rtm = Rtm::default();
    let m_rtm = run_with(&mut rtm, contended(), 150, threads, 5);
    assert!(
        m_rtm.speedup() > m_hle.speedup(),
        "RTM should outperform HLE: rtm={:.3} hle={:.3}",
        m_rtm.speedup(),
        m_hle.speedup()
    );
}
