//! Behavioural signatures of the baselines, checked end-to-end on the
//! simulator. These mirror the qualitative claims of the paper's §5.1–5.2:
//!
//! * HLE collapses to the global lock under contention (lemming effect),
//!   far more than RTM at equal thread counts.
//! * SCM activates the SGL fall-back much less often than RTM but commits
//!   a significant share of transactions under the auxiliary lock.
//! * ATS serializes when contention is high and stays optimistic when low.

use seer_baselines::{Ats, Hle, Rtm, Scm};
use seer_runtime::synthetic::{BlockSpec, SyntheticSpec, SyntheticWorkload};
use seer_runtime::{run, DriverConfig, RunMetrics, Scheduler, TxMode};

fn contended_spec(txs: usize) -> SyntheticSpec {
    SyntheticSpec {
        name: "contended".to_string(),
        blocks: vec![BlockSpec {
            accesses: 24,
            write_fraction: 0.3,
            hot_region: 0,
            hot_lines: 64,
            hot_probability: 0.25,
            zipf_theta: 0.8,
            spacing: (8, 20),
            ..BlockSpec::default()
        }],
        txs_per_thread: txs,
        think: (80, 160),
    }
}

fn low_contention_spec(txs: usize) -> SyntheticSpec {
    SyntheticSpec::low_contention_hashmap(txs)
}

fn run_with(
    sched: &mut dyn Scheduler,
    spec: SyntheticSpec,
    threads: usize,
    seed: u64,
) -> RunMetrics {
    let mut w = SyntheticWorkload::new(spec, threads);
    let mut cfg = DriverConfig::paper_machine(threads, seed);
    cfg.costs.async_abort_per_cycle = 0.0;
    run(&mut w, sched, &cfg)
}

#[test]
fn hle_lemming_effect_dwarfs_rtm_fallback() {
    let threads = 8;
    let mut hle = Hle::default();
    let m_hle = run_with(&mut hle, contended_spec(150), threads, 1);
    let mut rtm = Rtm::default();
    let m_rtm = run_with(&mut rtm, contended_spec(150), threads, 1);

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
    let m_rtm = run_with(&mut rtm, contended_spec(150), threads, 2);
    let mut scm = Scm::default();
    let m_scm = run_with(&mut scm, contended_spec(150), threads, 2);

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
    let m_hot = run_with(&mut ats_hot, contended_spec(120), threads, 3);
    let mut ats_cold = Ats::new(threads);
    let m_cold = run_with(&mut ats_cold, low_contention_spec(120), threads, 3);

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
        let a = run_with(s.as_mut(), contended_spec(80), threads, 9);
        assert_eq!(a.commits, total, "{} lost transactions", s.name());
        assert!(!a.truncated);
    }
    // Determinism: same seed, same scheduler type => identical metrics.
    let mut s1 = Rtm::default();
    let mut s2 = Rtm::default();
    let a = run_with(&mut s1, contended_spec(80), threads, 9);
    let b = run_with(&mut s2, contended_spec(80), threads, 9);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.aborts.total(), b.aborts.total());
}

#[test]
fn rtm_beats_hle_under_contention() {
    let threads = 8;
    let mut hle = Hle::default();
    let m_hle = run_with(&mut hle, contended_spec(150), threads, 5);
    let mut rtm = Rtm::default();
    let m_rtm = run_with(&mut rtm, contended_spec(150), threads, 5);
    assert!(
        m_rtm.speedup() > m_hle.speedup(),
        "RTM should outperform HLE: rtm={:.3} hle={:.3}",
        m_rtm.speedup(),
        m_hle.speedup()
    );
}
