//! Cross-crate integration tests: the paper's qualitative claims, checked
//! end-to-end on the full stack (workload models → schedulers → HTM model
//! → DES driver → metrics).

use seer::{Seer, SeerConfig};
use seer_baselines::Hle;
use seer_harness::{geometric_mean, Cell, PolicyKind};
use seer_runtime::{run, DriverConfig, TxMode, Workload};
use seer_scenario::RunRequest;
use seer_stamp::Benchmark;

const SCALE: f64 = 0.3;

fn speedup(benchmark: Benchmark, policy: PolicyKind, threads: usize) -> f64 {
    RunRequest::cell(Cell {
        benchmark,
        policy,
        threads,
    })
    .seed(1)
    .scale(SCALE)
    .run()
    .speedup()
}

#[test]
fn every_benchmark_completes_under_every_figure3_policy() {
    for benchmark in Benchmark::STAMP {
        for policy in PolicyKind::FIGURE3 {
            let m = RunRequest::cell(Cell {
                benchmark,
                policy,
                threads: 8,
            })
            .scale(0.15)
            .run();
            assert!(
                !m.truncated,
                "{} under {} truncated",
                benchmark.name(),
                policy.label()
            );
            assert!(m.commits > 0);
            assert_eq!(m.modes.total(), m.commits);
        }
    }
}

#[test]
fn seer_beats_rtm_on_geomean_at_eight_threads() {
    let seer: Vec<f64> = Benchmark::STAMP
        .iter()
        .map(|&b| speedup(b, PolicyKind::Seer, 8))
        .collect();
    let rtm: Vec<f64> = Benchmark::STAMP
        .iter()
        .map(|&b| speedup(b, PolicyKind::Rtm, 8))
        .collect();
    let g_seer = geometric_mean(&seer);
    let g_rtm = geometric_mean(&rtm);
    assert!(
        g_seer > g_rtm,
        "Seer geo-mean ({g_seer:.3}) should beat RTM ({g_rtm:.3}) at 8 threads"
    );
}

#[test]
fn hle_collapses_at_high_thread_counts() {
    // The lemming effect: HLE ends up executing almost everything under
    // the elided lock at 8 threads on contended benchmarks.
    let m = RunRequest::cell(Cell {
        benchmark: Benchmark::VacationHigh,
        policy: PolicyKind::Hle,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    assert!(
        m.fallback_fraction() > 0.5,
        "HLE should lemming: {:.3}",
        m.fallback_fraction()
    );
}

#[test]
fn seer_slashes_fallback_activation_versus_rtm() {
    // Paper §5.2: Seer's single-global-lock usage is drastically lower
    // (≈1% vs 37% for RTM at 8 threads, averaged over STAMP).
    let mut rtm_fb = Vec::new();
    let mut seer_fb = Vec::new();
    for benchmark in Benchmark::STAMP {
        rtm_fb.push(
            RunRequest::cell(Cell {
                benchmark,
                policy: PolicyKind::Rtm,
                threads: 8,
            })
            .scale(SCALE)
            .run()
            .fallback_fraction(),
        );
        seer_fb.push(
            RunRequest::cell(Cell {
                benchmark,
                policy: PolicyKind::Seer,
                threads: 8,
            })
            .scale(SCALE)
            .run()
            .fallback_fraction(),
        );
    }
    let rtm_mean = rtm_fb.iter().sum::<f64>() / rtm_fb.len() as f64;
    let seer_mean = seer_fb.iter().sum::<f64>() / seer_fb.len() as f64;
    assert!(
        seer_mean < rtm_mean / 3.0,
        "Seer fall-back ({seer_mean:.3}) should be far below RTM ({rtm_mean:.3})"
    );
    assert!(
        seer_mean < 0.08,
        "Seer fall-back should be rare: {seer_mean:.3}"
    );
}

#[test]
fn scm_commits_under_aux_lock_but_seer_never_does() {
    let scm = RunRequest::cell(Cell {
        benchmark: Benchmark::Genome,
        policy: PolicyKind::Scm,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    assert!(scm.modes.get(TxMode::HtmAuxLock) > 0);
    let seer = RunRequest::cell(Cell {
        benchmark: Benchmark::Genome,
        policy: PolicyKind::Seer,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    assert_eq!(seer.modes.get(TxMode::HtmAuxLock), 0);
    assert!(
        seer.modes.get(TxMode::HtmTxLocks) + seer.modes.get(TxMode::HtmTxAndCoreLocks) > 0,
        "Seer should commit some transactions under its fine-grained locks"
    );
}

#[test]
fn core_locks_engage_only_with_smt_sharing() {
    // At 4 threads each thread owns a physical core: no capacity squeeze,
    // so Seer should (almost) never take a core lock; at 8 threads it must.
    let at4 = RunRequest::cell(Cell {
        benchmark: Benchmark::Yada,
        policy: PolicyKind::Seer,
        threads: 4,
    })
    .scale(SCALE)
    .run();
    let at8 = RunRequest::cell(Cell {
        benchmark: Benchmark::Yada,
        policy: PolicyKind::Seer,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    let core4 = at4.modes.get(TxMode::HtmCoreLock) + at4.modes.get(TxMode::HtmTxAndCoreLocks);
    let core8 = at8.modes.get(TxMode::HtmCoreLock) + at8.modes.get(TxMode::HtmTxAndCoreLocks);
    assert!(
        core8 > core4,
        "core locks at 8t ({core8}) should exceed 4t ({core4})"
    );
    assert!(core8 > 0);
    assert!(at8.aborts.capacity > at4.aborts.capacity);
}

#[test]
fn seer_inference_finds_the_hot_pair_end_to_end() {
    // kmeans-high conflicts are concentrated in the center-update block
    // conflicting with itself; Seer must discover exactly that.
    let threads = 8;
    let mut w = Benchmark::KmeansHigh.instantiate(threads, 400);
    let blocks = w.num_blocks();
    let mut seer = Seer::new(SeerConfig::full(), threads, blocks);
    let m = run(&mut w, &mut seer, &DriverConfig::paper_machine(threads, 5));
    assert!(m.commits > 0);
    assert!(
        seer.lock_table().row(0).contains(&0),
        "center-update self-conflict not inferred: {:?}",
        seer.lock_table().row(0)
    );
    // Ground truth agrees.
    assert!(m.ground_truth.get(0, 0) > m.ground_truth.get(1, 0));
}

#[test]
fn profile_only_seer_never_acquires_its_locks() {
    let m = RunRequest::cell(Cell {
        benchmark: Benchmark::Intruder,
        policy: PolicyKind::SeerProfileOnly,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    assert_eq!(m.modes.get(TxMode::HtmTxLocks), 0);
    assert_eq!(m.modes.get(TxMode::HtmCoreLock), 0);
    assert_eq!(m.modes.get(TxMode::HtmTxAndCoreLocks), 0);
}

#[test]
fn profiling_overhead_is_single_digit_percent() {
    // Figure 4's claim at the scale of this test: profile-only Seer is
    // within ~10% of RTM on the low-contention hash map.
    let rtm = speedup(Benchmark::HashmapLow, PolicyKind::Rtm, 4);
    let prof = speedup(Benchmark::HashmapLow, PolicyKind::SeerProfileOnly, 4);
    let ratio = prof / rtm;
    assert!(
        ratio > 0.88 && ratio < 1.05,
        "profiling overhead out of range: ratio {ratio:.3}"
    );
}

#[test]
fn raw_policies_agree_on_single_thread() {
    // With one thread there are no conflicts; every policy should land on
    // nearly the same speedup (pure HTM overhead), differing only in
    // instrumentation overhead.
    let hle = speedup(Benchmark::Genome, PolicyKind::Hle, 1);
    let rtm = speedup(Benchmark::Genome, PolicyKind::Rtm, 1);
    let seer = speedup(Benchmark::Genome, PolicyKind::Seer, 1);
    assert!((hle - rtm).abs() < 0.02, "hle {hle} vs rtm {rtm}");
    assert!(
        rtm - seer < 0.08,
        "Seer 1-thread overhead too big: {seer} vs {rtm}"
    );
    assert!(seer <= rtm + 0.02);
}

#[test]
fn deterministic_across_identical_full_stack_runs() {
    let run_it = || {
        let mut w = Benchmark::VacationLow.instantiate(6, 120);
        let blocks = w.num_blocks();
        let mut s = Seer::new(SeerConfig::full(), 6, blocks);
        run(&mut w, &mut s, &DriverConfig::paper_machine(6, 77))
    };
    let a = run_it();
    let b = run_it();
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.aborts.total(), b.aborts.total());
    assert_eq!(a.wait_cycles, b.wait_cycles);
}

#[test]
fn hle_uses_hardware_at_low_threads() {
    // Paper Table 3: HLE commits 75% in hardware at 2 threads; the
    // collapse is a high-concurrency phenomenon.
    let m = RunRequest::cell(Cell {
        benchmark: Benchmark::KmeansLow,
        policy: PolicyKind::Hle,
        threads: 2,
    })
    .scale(SCALE)
    .run();
    assert!(
        m.modes.fraction(TxMode::HtmNoLocks) > 0.6,
        "2-thread HLE should mostly elide: {:.3}",
        m.modes.fraction(TxMode::HtmNoLocks)
    );
}

#[test]
fn ats_is_available_as_extra_series() {
    let m = RunRequest::cell(Cell {
        benchmark: Benchmark::Ssca2,
        policy: PolicyKind::Ats,
        threads: 4,
    })
    .scale(0.15)
    .run();
    assert!(m.commits > 0);
    assert!(m.speedup() > 1.0);
}

#[test]
fn hle_baseline_is_beaten_by_everything_at_scale() {
    for policy in [PolicyKind::Rtm, PolicyKind::Scm, PolicyKind::Seer] {
        let hle = speedup(Benchmark::VacationHigh, PolicyKind::Hle, 8);
        let other = speedup(Benchmark::VacationHigh, policy, 8);
        assert!(
            other > hle,
            "{} ({other:.2}) should beat HLE ({hle:.2}) at 8 threads",
            policy.label()
        );
    }
}

#[test]
fn hle_reference_from_baselines_crate_matches_policy_kind() {
    // The harness's PolicyKind::Hle and a hand-built Hle must agree.
    let mut w = Benchmark::Ssca2.instantiate(4, 100);
    let mut hle = Hle::default();
    let cfg = DriverConfig::paper_machine(4, 0x5EE2);
    let direct = run(&mut w, &mut hle, &cfg);
    let via_kind = RunRequest::cell(Cell {
        benchmark: Benchmark::Ssca2,
        policy: PolicyKind::Hle,
        threads: 4,
    })
    .scale(100.0 / Benchmark::Ssca2.default_txs() as f64)
    .run();
    assert_eq!(direct.commits, via_kind.commits);
    assert_eq!(direct.makespan, via_kind.makespan);
}

#[test]
fn rtm_wait_gate_reduces_explicit_aborts_versus_hle() {
    let hle = RunRequest::cell(Cell {
        benchmark: Benchmark::Genome,
        policy: PolicyKind::Hle,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    let rtm = RunRequest::cell(Cell {
        benchmark: Benchmark::Genome,
        policy: PolicyKind::Rtm,
        threads: 8,
    })
    .scale(SCALE)
    .run();
    // HLE begins blindly while the SGL is held (explicit subscription
    // aborts); RTM's wait-while-locked gate avoids most of those.
    let hle_rate = hle.aborts.explicit as f64 / hle.commits as f64;
    let rtm_rate = rtm.aborts.explicit as f64 / rtm.commits as f64;
    assert!(
        rtm_rate < hle_rate / 2.0,
        "explicit-abort rates: rtm {rtm_rate:.3} vs hle {hle_rate:.3}"
    );
}
